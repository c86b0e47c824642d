//! Baseline diff mode: compare a fresh lint run against a committed
//! `coarse.lint-report/v1` artifact and surface only **new** active
//! findings.
//!
//! This is the ratchet that lets a rule land before the workspace is fully
//! clean: the accepted debt lives in `lint-baseline.json`, CI fails only
//! when a change introduces a finding that is not in the baseline, and
//! shrinking the baseline is always safe. A finding's identity is
//! `(rule, path, message)` — deliberately **not** the line number, so
//! unrelated edits that shift code downward do not churn the baseline
//! (taint messages embed their call chain, which keeps same-file duplicates
//! distinct in practice).

use std::collections::BTreeSet;

use coarse_simcore::json::JsonValue;

use crate::report::{Diagnostic, LintReport, SCHEMA};

/// A parsed baseline: identity keys of the previously-accepted active
/// findings.
#[derive(Debug)]
pub struct Baseline {
    keys: BTreeSet<(String, String, String)>,
}

impl Baseline {
    /// Parses a `coarse.lint-report/v1` document, keeping every *active*
    /// (un-waived) diagnostic's identity. Waived findings are excluded: a
    /// waiver that later disappears should surface as new debt, not ride
    /// along silently.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("baseline schema is \"{s}\", expected \"{SCHEMA}\"")),
            None => return Err("baseline has no schema field".to_string()),
        }
        let mut keys = BTreeSet::new();
        let diags = doc
            .get("diagnostics")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "baseline has no diagnostics array".to_string())?;
        for d in diags {
            if d.get("waived").and_then(JsonValue::as_bool) == Some(true) {
                continue;
            }
            let field = |k: &str| {
                d.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline diagnostic missing string field `{k}`"))
            };
            keys.insert((field("rule")?, field("path")?, field("message")?));
        }
        Ok(Baseline { keys })
    }

    /// True when the baseline already accepts this finding.
    pub fn contains(&self, d: &Diagnostic) -> bool {
        // Key without allocating: BTreeSet<(String,String,String)> lookups
        // need owned keys, and the set is small, so build one.
        self.keys
            .contains(&(d.rule.to_string(), d.path.clone(), d.message.clone()))
    }

    /// Active findings in `report` that the baseline does not accept — the
    /// set that fails a `--baseline` run.
    pub fn new_findings<'r>(&self, report: &'r LintReport) -> Vec<&'r Diagnostic> {
        report
            .active_diagnostics()
            .filter(|d| !self.contains(d))
            .collect()
    }

    /// Accepted findings that no longer occur — safe to remove from the
    /// baseline (reported informationally so the ratchet actually tightens).
    pub fn stale(&self, report: &LintReport) -> Vec<(String, String, String)> {
        let current: BTreeSet<(String, String, String)> = report
            .active_diagnostics()
            .map(|d| (d.rule.to_string(), d.path.clone(), d.message.clone()))
            .collect();
        self.keys.difference(&current).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_files;

    fn report_for(src: &str) -> LintReport {
        lint_files(&[("crates/fabric/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn new_findings_are_the_difference() {
        let old = report_for("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        let baseline = Baseline::parse(&old.render_json()).unwrap();
        // Same finding again: nothing new.
        let same = report_for("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        assert!(baseline.new_findings(&same).is_empty());
        // An extra finding: exactly the new one surfaces.
        let more = report_for(
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
             fn g() { let s: HashSet<u8> = HashSet::new(); }\n",
        );
        let fresh = baseline.new_findings(&more);
        assert!(!fresh.is_empty());
        assert!(fresh.iter().all(|d| d.message.contains("HashSet")));
    }

    #[test]
    fn line_shifts_do_not_churn() {
        let old = report_for("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        let baseline = Baseline::parse(&old.render_json()).unwrap();
        let shifted = report_for("\n\n\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        assert!(baseline.new_findings(&shifted).is_empty());
    }

    #[test]
    fn fixed_findings_go_stale() {
        let old = report_for("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        let baseline = Baseline::parse(&old.render_json()).unwrap();
        let clean = report_for("fn f() {}\n");
        assert!(!baseline.stale(&clean).is_empty());
        assert!(baseline.new_findings(&clean).is_empty());
    }

    #[test]
    fn bad_baselines_are_rejected() {
        assert!(Baseline::parse("not json").is_err());
        assert!(
            Baseline::parse("{\"schema\": \"coarse.other/v1\", \"diagnostics\": []}")
                .unwrap_err()
                .contains("schema")
        );
        assert!(Baseline::parse("{\"schema\": \"coarse.lint-report/v1\"}").is_err());
    }

    /// Seeded adversarial baselines: truncations and bit flips of a valid
    /// report parse to a baseline or a non-empty error message, never a
    /// panic.
    #[test]
    fn parse_survives_truncation_and_bit_flips() {
        use coarse_simcore::check::run_cases;
        let report = report_for(
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
             fn g() { let s: HashSet<u8> = HashSet::new(); }\n",
        );
        let rendered = report.render_json().into_bytes();
        let mut parsed = 0;
        run_cases("baseline_truncation_and_bit_flips", 256, |g| {
            let mut doc = rendered.clone();
            if g.bool() {
                doc.truncate(g.usize_in(0..doc.len() + 1));
            } else {
                for _ in 0..g.usize_in(1..3) {
                    let bit = g.usize_in(0..doc.len() * 8);
                    doc[bit / 8] ^= 1 << (bit % 8);
                }
            }
            match Baseline::parse(&String::from_utf8_lossy(&doc)) {
                Ok(baseline) => {
                    parsed += 1;
                    let _ = baseline.new_findings(&report);
                }
                Err(e) => assert!(!e.is_empty()),
            }
        });
        assert!(parsed > 0, "some mutants still parse");
    }
}
