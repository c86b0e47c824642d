//! Cross-file semantic checks: registration exhaustiveness between the
//! layers the token rules cannot see.
//!
//! * metric constants in `simcore::metrics::name` ↔ `bench::expectations::
//!   KNOWN_METRICS` (every recorded series has a declared consumer);
//! * `fig16*` string literals ↔ real `trainsim::Scenario` presets;
//! * every `impl Oracle for X` ↔ a `register(Box::new(X...))` call (an
//!   unregistered oracle silently watches nothing);
//! * `.dispatch("...")` labels ↔ the profiler's `DISPATCH_LABELS`
//!   taxonomy (the per-event-type counters keep a closed alphabet);
//! * every `coarse.*/v*` schema string ↔ exactly one `const` declaration.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, Tok};
use crate::report::Diagnostic;
use crate::rules::{FileInfo, FileKind};

/// Path of the file declaring the metric-name constants.
pub const METRICS_PATH: &str = "crates/simcore/src/metrics.rs";
/// Path of the file declaring `KNOWN_METRICS`.
pub const EXPECTATIONS_PATH: &str = "crates/bench/src/expectations.rs";
/// Path of the file defining Scenario presets.
pub const SCENARIO_PATH: &str = "crates/trainsim/src/scenario.rs";
/// Path of the profiler, which declares the `DISPATCH_LABELS` taxonomy.
pub const PROF_PATH: &str = "crates/simcore/src/prof.rs";

/// One classified, lexed file (shared by the engine and these checks).
pub struct LexedFile {
    pub info: FileInfo,
    pub lexed: Lexed,
    pub mask: Vec<bool>,
}

/// Rule `metric-coverage`: diff the `pub mod name` constants in metrics.rs
/// against the `KNOWN_METRICS` list in expectations.rs, both ways. Skipped
/// when either file is absent from the scanned set (e.g. fixture runs).
pub fn metric_coverage(files: &[LexedFile], out: &mut Vec<Diagnostic>) {
    let Some(metrics) = files.iter().find(|f| f.info.path == METRICS_PATH) else {
        return;
    };
    let Some(expect) = files.iter().find(|f| f.info.path == EXPECTATIONS_PATH) else {
        return;
    };
    let declared = metric_name_consts(&metrics.lexed);
    let known = known_metrics_entries(&expect.lexed);
    if known.is_empty() {
        out.push(Diagnostic {
            rule: "metric-coverage",
            path: EXPECTATIONS_PATH.to_string(),
            line: 1,
            message: "expectations.rs declares no KNOWN_METRICS list; every metric constant in \
                      simcore::metrics::name must be mirrored there"
                .to_string(),
            waived: false,
            reason: None,
        });
        return;
    }
    let known_set: BTreeSet<&str> = known.iter().map(|(v, _)| v.as_str()).collect();
    let declared_set: BTreeSet<&str> = declared.iter().map(|(v, _)| v.as_str()).collect();
    for (value, line) in &declared {
        if !known_set.contains(value.as_str()) {
            out.push(Diagnostic {
                rule: "metric-coverage",
                path: METRICS_PATH.to_string(),
                line: *line,
                message: format!(
                    "metric \"{value}\" is recorded by simcore::metrics but missing from \
                     bench::expectations::KNOWN_METRICS"
                ),
                waived: false,
                reason: None,
            });
        }
    }
    for (value, line) in &known {
        if !declared_set.contains(value.as_str()) {
            out.push(Diagnostic {
                rule: "metric-coverage",
                path: EXPECTATIONS_PATH.to_string(),
                line: *line,
                message: format!(
                    "KNOWN_METRICS entry \"{value}\" has no matching constant in \
                     simcore::metrics::name"
                ),
                waived: false,
                reason: None,
            });
        }
    }
}

/// Extracts `(value, line)` for every `const NAME: &str = "value";` inside
/// `mod name { ... }` of metrics.rs.
fn metric_name_consts(lexed: &Lexed) -> Vec<(String, u32)> {
    let toks = &lexed.tokens;
    let mut start = None;
    for i in 0..toks.len() {
        if toks[i].tok == Tok::Ident("mod".into())
            && matches!(toks.get(i + 1), Some(t) if t.tok == Tok::Ident("name".into()))
            && matches!(toks.get(i + 2), Some(t) if t.tok == Tok::Punct(b'{'))
        {
            start = Some(i + 3);
            break;
        }
    }
    let Some(start) = start else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 1usize;
    let mut i = start;
    while i < toks.len() && depth > 0 {
        match &toks[i].tok {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => depth -= 1,
            Tok::Ident(w) if w == "const" => {
                // const NAME : & str = "value" ;
                let pat_str =
                    matches!(toks.get(i + 4), Some(t) if t.tok == Tok::Ident("str".into()));
                let pat = matches!(toks.get(i + 2), Some(t) if t.tok == Tok::Punct(b':'))
                    && matches!(toks.get(i + 3), Some(t) if t.tok == Tok::Punct(b'&'))
                    && pat_str
                    && matches!(toks.get(i + 5), Some(t) if t.tok == Tok::Punct(b'='));
                if pat {
                    if let Some(t) = toks.get(i + 6) {
                        if let Tok::Str(v) = &t.tok {
                            out.push((v.clone(), t.line));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Extracts `(value, line)` for every string in the `KNOWN_METRICS` slice
/// initializer of expectations.rs.
fn known_metrics_entries(lexed: &Lexed) -> Vec<(String, u32)> {
    let toks = &lexed.tokens;
    let Some(at) = toks
        .iter()
        .position(|t| t.tok == Tok::Ident("KNOWN_METRICS".into()))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for t in toks.iter().skip(at) {
        match &t.tok {
            Tok::Punct(b';') => break,
            Tok::Str(v) => out.push((v.clone(), t.line)),
            _ => {}
        }
    }
    out
}

/// Rule `preset-exists`: every string literal matching `fig16<tail>` (tail
/// non-empty, lowercase alphanumeric/dash) outside scenario.rs must be a
/// preset that scenario.rs itself names. Panel ids that are not presets
/// (e.g. dense baselines sharing a figure) carry waivers. Skipped when
/// scenario.rs is absent from the scanned set.
pub fn preset_exists(files: &[LexedFile], out: &mut Vec<Diagnostic>) {
    let Some(scenario) = files.iter().find(|f| f.info.path == SCENARIO_PATH) else {
        return;
    };
    let presets: BTreeSet<String> = scenario
        .lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Str(v) if is_preset_shaped(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    for f in files {
        if f.info.path == SCENARIO_PATH {
            continue;
        }
        for t in &f.lexed.tokens {
            let Tok::Str(v) = &t.tok else { continue };
            if is_preset_shaped(v) && !presets.contains(v) {
                out.push(Diagnostic {
                    rule: "preset-exists",
                    path: f.info.path.clone(),
                    line: t.line,
                    message: format!(
                        "\"{v}\" looks like a Scenario preset but trainsim::scenario does not \
                         define it"
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
    }
}

/// `fig16` + non-empty `[a-z0-9-]` tail, e.g. `fig16a`, `fig16d-2to1`.
fn is_preset_shaped(s: &str) -> bool {
    match s.strip_prefix("fig16") {
        Some(tail) => {
            !tail.is_empty()
                && tail
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        }
        None => false,
    }
}

/// Rule `oracle-registered`: every `impl Oracle for X` in library code must
/// have a matching `register(Box::new(X ...))` call somewhere in library
/// code. An unregistered oracle compiles fine and silently watches nothing,
/// which is exactly the failure mode an invariant battery must not have.
/// Test-gated impls and registrations (`#[cfg(test)]`) are ignored: a
/// test-only oracle is the test's business.
pub fn oracle_registered(files: &[LexedFile], out: &mut Vec<Diagnostic>) {
    let mut impls: Vec<(String, String, u32)> = Vec::new();
    let mut registered: BTreeSet<String> = BTreeSet::new();
    for f in files {
        if f.info.kind != FileKind::LibSrc {
            continue;
        }
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if f.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Tok::Ident(w) = &toks[i].tok else {
                continue;
            };
            if w == "impl" {
                let (owner, trait_name, _) = crate::items::parse_impl_header(toks, i + 1);
                if trait_name.as_deref() == Some("Oracle") {
                    if let Some(owner) = owner {
                        impls.push((owner, f.info.path.clone(), toks[i].line));
                    }
                }
            } else if w == "register" {
                // register ( Box :: new ( TypeName
                let shape = matches!(toks.get(i + 1), Some(t) if t.tok == Tok::Punct(b'('))
                    && matches!(toks.get(i + 2), Some(t) if t.tok == Tok::Ident("Box".into()))
                    && matches!(toks.get(i + 3), Some(t) if t.tok == Tok::PathSep)
                    && matches!(toks.get(i + 4), Some(t) if t.tok == Tok::Ident("new".into()))
                    && matches!(toks.get(i + 5), Some(t) if t.tok == Tok::Punct(b'('));
                if shape {
                    if let Some(Tok::Ident(ty)) = toks.get(i + 6).map(|t| &t.tok) {
                        registered.insert(ty.clone());
                    }
                }
            }
        }
    }
    for (ty, path, line) in impls {
        if !registered.contains(&ty) {
            out.push(Diagnostic {
                rule: "oracle-registered",
                path,
                line,
                message: format!(
                    "oracle `{ty}` implements Oracle but no library code registers it \
                     (`register(Box::new({ty}...))`); it silently watches nothing"
                ),
                waived: false,
                reason: None,
            });
        }
    }
}

/// Rule `label-registered`: every string literal non-test library code
/// passes to `.dispatch(` must appear in the profiler's `DISPATCH_LABELS`
/// table, and every table entry must be passed by some call. Keeps the
/// per-event-type dispatch counters a closed alphabet so profile reports
/// diff cleanly across runs and models. Skipped when prof.rs is absent
/// (fixture runs).
pub fn label_registered(files: &[LexedFile], out: &mut Vec<Diagnostic>) {
    let Some(prof) = files.iter().find(|f| f.info.path == PROF_PATH) else {
        return;
    };
    let toks = &prof.lexed.tokens;
    let Some(at) = toks
        .iter()
        .position(|t| t.tok == Tok::Ident("DISPATCH_LABELS".into()))
    else {
        out.push(Diagnostic {
            rule: "label-registered",
            path: PROF_PATH.to_string(),
            line: 1,
            message: "prof.rs declares no DISPATCH_LABELS table; the dispatch-label alphabet \
                      must be closed there"
                .to_string(),
            waived: false,
            reason: None,
        });
        return;
    };
    let mut table: Vec<(String, u32)> = Vec::new();
    for t in toks.iter().skip(at) {
        match &t.tok {
            Tok::Punct(b';') => break,
            Tok::Str(v) => table.push((v.clone(), t.line)),
            _ => {}
        }
    }
    let table_set: BTreeSet<&str> = table.iter().map(|(v, _)| v.as_str()).collect();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for file in files.iter().filter(|f| f.info.kind == FileKind::LibSrc) {
        for (i, w) in file.lexed.tokens.windows(4).enumerate() {
            if file.mask[i] {
                continue;
            }
            let (Tok::Punct(b'.'), Tok::Ident(name), Tok::Punct(b'('), Tok::Str(v)) =
                (&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok)
            else {
                continue;
            };
            if name != "dispatch" {
                continue;
            }
            used.insert(v.clone());
            if !table_set.contains(v.as_str()) {
                out.push(Diagnostic {
                    rule: "label-registered",
                    path: file.info.path.clone(),
                    line: w[3].line,
                    message: format!(
                        "dispatch(\"{v}\") uses a label prof.rs DISPATCH_LABELS does not \
                         list; the dispatch-label alphabet must stay closed"
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
    }
    for (v, line) in &table {
        if !used.contains(v) {
            out.push(Diagnostic {
                rule: "label-registered",
                path: PROF_PATH.to_string(),
                line: *line,
                message: format!(
                    "DISPATCH_LABELS entry \"{v}\" is passed to no dispatch call; remove it \
                     or wire the loop that emits it"
                ),
                waived: false,
                reason: None,
            });
        }
    }
}

/// Rule `schema-single-decl`: every `coarse.<name>/v<N>` schema string must
/// be declared by exactly one `const NAME: &str = "..."` and every other
/// spelling of it must reference that constant. Re-spelled literals are how
/// schema strings drift apart between writer and checker. Test-gated
/// literals are ignored (goldens assert on the rendered bytes).
pub fn schema_single_decl(files: &[LexedFile], out: &mut Vec<Diagnostic>) {
    // value → (decls, uses); each entry is (path, line, const_name).
    type Sites = (Vec<(String, u32, String)>, Vec<(String, u32)>);
    let mut by_value: BTreeMap<String, Sites> = BTreeMap::new();
    for f in files {
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if f.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Tok::Str(v) = &toks[i].tok else { continue };
            if !is_schema_shaped(v) {
                continue;
            }
            // const NAME : & str = "value"
            let decl_name = if i >= 6
                && toks[i - 1].tok == Tok::Punct(b'=')
                && toks[i - 2].tok == Tok::Ident("str".into())
                && toks[i - 3].tok == Tok::Punct(b'&')
                && toks[i - 4].tok == Tok::Punct(b':')
                && matches!(&toks[i - 6].tok, Tok::Ident(k) if k == "const" || k == "static")
            {
                match &toks[i - 5].tok {
                    Tok::Ident(n) => Some(n.clone()),
                    _ => None,
                }
            } else {
                None
            };
            let entry = by_value.entry(v.clone()).or_default();
            match decl_name {
                Some(n) => entry.0.push((f.info.path.clone(), toks[i].line, n)),
                None => entry.1.push((f.info.path.clone(), toks[i].line)),
            }
        }
    }
    for (value, (decls, uses)) in &by_value {
        match decls.as_slice() {
            [] => {
                for (path, line) in uses {
                    out.push(Diagnostic {
                        rule: "schema-single-decl",
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "schema \"{value}\" is spelled inline with no `const NAME: &str` \
                             declaration anywhere; declare it once and reference the constant"
                        ),
                        waived: false,
                        reason: None,
                    });
                }
            }
            [(decl_path, decl_line, decl_name)] => {
                for (path, line) in uses {
                    out.push(Diagnostic {
                        rule: "schema-single-decl",
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "schema \"{value}\" re-spells the literal declared as \
                             `{decl_name}` at {decl_path}:{decl_line}; use the constant"
                        ),
                        waived: false,
                        reason: None,
                    });
                }
            }
            many => {
                for (path, line, _) in many {
                    out.push(Diagnostic {
                        rule: "schema-single-decl",
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "schema \"{value}\" is declared {} times; exactly one const may \
                             own a schema string",
                            many.len()
                        ),
                        waived: false,
                        reason: None,
                    });
                }
            }
        }
    }
}

/// `coarse.` + dotted lowercase body + `/v<digits>`, e.g.
/// `coarse.lint-report/v1`.
fn is_schema_shaped(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("coarse.") else {
        return false;
    };
    let Some((body, ver)) = rest.rsplit_once("/v") else {
        return false;
    };
    !body.is_empty()
        && body
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'-')
        && !ver.is_empty()
        && ver.bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{test_mask, FileInfo};

    fn file(path: &str, src: &str) -> LexedFile {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        LexedFile {
            info: FileInfo::classify(path),
            lexed,
            mask,
        }
    }

    #[test]
    fn preset_shape() {
        assert!(is_preset_shaped("fig16a"));
        assert!(is_preset_shaped("fig16d-2to1"));
        assert!(!is_preset_shaped("fig16"));
        assert!(!is_preset_shaped("fig16d fits"));
        assert!(!is_preset_shaped("fig9"));
        assert!(!is_preset_shaped("Fig16a"));
    }

    #[test]
    fn preset_usage_checked_against_scenario() {
        let scenario = file(
            SCENARIO_PATH,
            "fn p() { let _ = [\"fig16a\", \"fig16b\"]; }",
        );
        let good = file("tests/a.rs", "const P: &str = \"fig16a\";");
        let bad = file("tests/b.rs", "const P: &str = \"fig16z\";");
        let mut out = Vec::new();
        preset_exists(&[scenario, good, bad], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].path, "tests/b.rs");
        // simlint: allow(preset-exists, reason = "deliberately-unknown preset name exercising the preset-exists rule itself")
        assert!(out[0].message.contains("fig16z"));
    }

    #[test]
    fn metric_coverage_diffs_both_ways() {
        let metrics = file(
            METRICS_PATH,
            "pub mod name {\n    pub const A: &str = \"a.count\";\n    pub const B: &str = \"b.count\";\n}\n",
        );
        let expect = file(
            EXPECTATIONS_PATH,
            "pub static KNOWN_METRICS: &[&str] = &[\"a.count\", \"c.count\"];\n",
        );
        let mut out = Vec::new();
        metric_coverage(&[metrics, expect], &mut out);
        let msgs: Vec<_> = out.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(out.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("b.count")));
        assert!(msgs.iter().any(|m| m.contains("c.count")));
    }

    #[test]
    fn metric_coverage_skipped_without_both_files() {
        let metrics = file(METRICS_PATH, "pub mod name { pub const A: &str = \"a\"; }");
        let mut out = Vec::new();
        metric_coverage(&[metrics], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unregistered_oracle_is_flagged() {
        let lib = file(
            "crates/simcore/src/oracle.rs",
            "pub struct A; pub struct B;\n\
             impl Oracle for A { fn name(&self) -> &str { \"a\" } }\n\
             impl Oracle for B { fn name(&self) -> &str { \"b\" } }\n\
             fn wire(hub: &Hub) { hub.register(Box::new(A::new())); }\n",
        );
        let mut out = Vec::new();
        oracle_registered(&[lib], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`B`"), "{}", out[0].message);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn test_gated_oracles_are_ignored() {
        let lib = file(
            "crates/simcore/src/oracle.rs",
            "#[cfg(test)]\nmod tests {\n    struct T;\n    impl Oracle for T {}\n}\n",
        );
        let mut out = Vec::new();
        oracle_registered(&[lib], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn label_alphabet_is_checked_both_ways() {
        let prof = file(
            PROF_PATH,
            "pub const DISPATCH_LABELS: &[&str] = &[\"known.label\", \"phantom.orphan\"];\n",
        );
        let model = file(
            "crates/trainsim/src/m.rs",
            "fn run(p: &Profiler, ghost: bool) {\n    p.dispatch(\"known.label\");\n    \
             if ghost {\n        p.dispatch(\"ghost.label\");\n    }\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t(p: &Profiler) { p.dispatch(\"test.only\"); }\n}\n",
        );
        let files = vec![prof, model];
        let mut out = Vec::new();
        label_registered(&files, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|d| d.message.contains("ghost.label")
            && d.path == "crates/trainsim/src/m.rs"
            && d.line == 4));
        assert!(out
            .iter()
            .any(|d| d.message.contains("phantom.orphan") && d.path == PROF_PATH));
    }

    #[test]
    fn schema_shape() {
        assert!(is_schema_shaped("coarse.lint-report/v1"));
        assert!(is_schema_shaped("coarse.chaos.repro/v1"));
        assert!(!is_schema_shaped("coarse.lint-report"));
        assert!(!is_schema_shaped("other.report/v1"));
        assert!(!is_schema_shaped("coarse./v1"));
    }

    #[test]
    fn schema_decl_counting() {
        let a = file(
            "crates/simcore/src/report.rs",
            "pub const SCHEMA: &str = \"coarse.x-report/v1\";\n",
        );
        let b = file(
            "crates/bench/src/bin/figures.rs",
            "fn f() { doc.set(\"schema\", \"coarse.x-report/v1\"); \
             let s = \"coarse.orphan-report/v2\"; }\n",
        );
        let mut out = Vec::new();
        schema_single_decl(&[a, b], &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out
            .iter()
            .any(|d| d.message.contains("re-spells") && d.message.contains("`SCHEMA`")));
        assert!(out
            .iter()
            .any(|d| d.message.contains("no `const NAME: &str` declaration")));
    }
}
