//! The lint rule battery: file classification, `#[cfg(test)]` scoping, and
//! the per-file token rules.
//!
//! Cross-file (semantic) rules live in [`crate::semantic`]; waiver syntax in
//! [`crate::waiver`].

use crate::lexer::{Lexed, Tok, Token};
use crate::report::Diagnostic;

/// Descriptive metadata for one rule, surfaced in the JSON report.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub description: &'static str,
}

/// Every rule simlint knows, sorted by id. The JSON report lists all of them
/// (with zero counts where clean) so a silently-dead rule is visible.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "ambient-randomness",
        description:
            "no ambient randomness (thread_rng, RandomState, OsRng) outside crates/bench; \
                      use the seeded generators in simcore",
    },
    RuleInfo {
        id: "bad-waiver",
        description: "a `// simlint: allow(...)` comment that does not parse or names an unknown \
                      or unwaivable rule",
    },
    RuleInfo {
        id: "determinism-taint",
        description: "no call chain from a nondeterminism source (wall clock, ambient \
                      randomness, unordered iteration, pointer formatting, env vars, thread \
                      ids) into a determinism-critical sink (event scheduling, metrics \
                      recording, report serialization); the diagnostic prints the full \
                      source→sink chain",
    },
    RuleInfo {
        id: "hot-path-alloc",
        description: "no `Box::new`/`Vec::new` inside loop bodies of the per-transfer hot \
                      path (timelines, fabric engine, sync ring, timed collectives); reuse \
                      arenas/buffers, or waive for observation-only allocations",
    },
    RuleInfo {
        id: "label-registered",
        description: "every string literal library code passes to `.dispatch(` must appear \
                      in simcore::prof's DISPATCH_LABELS taxonomy, and vice versa, so the \
                      profiler's per-event-type counters keep a closed, documented alphabet",
    },
    RuleInfo {
        id: "metric-coverage",
        description: "every metric constant in simcore::metrics::name must appear in \
                      bench::expectations::KNOWN_METRICS, and vice versa",
    },
    RuleInfo {
        id: "oracle-registered",
        description: "every `impl Oracle for X` must be registered somewhere (`register(\
                      Box::new(X...)`) — an unregistered oracle silently watches nothing",
    },
    RuleInfo {
        id: "panic-in-library",
        description: "no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in library \
                      code outside #[cfg(test)]; return typed errors or waive with the invariant",
    },
    RuleInfo {
        id: "parallel-ready",
        description: "inventory of shared-state hazards ahead of the parallel kernel: \
                      `static mut`, `unsafe`, interior mutability (RefCell/Cell/UnsafeCell), \
                      locks, atomics, and `Ordering::Relaxed` in simulation crates; each \
                      site needs a waiver arguing why it stays sound under parallel dispatch",
    },
    RuleInfo {
        id: "preset-exists",
        description: "every `fig16*` string literal outside trainsim::scenario must name a real \
                      Scenario preset",
    },
    RuleInfo {
        id: "schema-single-decl",
        description: "every `coarse.*/v*` schema string must be declared by exactly one \
                      `const`; re-spelled literals drift when the schema version bumps",
    },
    RuleInfo {
        id: "unordered-container",
        description: "no HashMap/HashSet in simulation crates (fabric/cci/collectives/core/\
                      trainsim); iteration order is nondeterministic — use BTreeMap/BTreeSet",
    },
    RuleInfo {
        id: "unused-waiver",
        description: "a waiver that matches no diagnostic; delete it so waivers stay honest",
    },
    RuleInfo {
        id: "wall-clock",
        description: "no wall-clock reads (Instant, SystemTime, UNIX_EPOCH) outside the timing \
                      allowlist (bench harness, selfbench, simcore::prof); simulated time comes \
                      from simcore::time",
    },
];

/// Rules that may not themselves be waived (they police the waiver system).
pub const UNWAIVABLE: &[&str] = &["bad-waiver", "unused-waiver"];

/// True when `id` names a known rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Crates whose in-memory state drives simulation outcomes: any iteration
/// order leak here breaks byte-identical replays.
const SIM_CRATES: &[&str] = &["cci", "collectives", "core", "fabric", "trainsim"];

/// The crates the parallel-readiness audit and taint dataflow police:
/// [`SIM_CRATES`] plus `simcore`, whose kernel/queue/profiler state a
/// parallel event kernel will share across worker threads.
pub const PARALLEL_CRATES: &[&str] = &[
    "cci",
    "collectives",
    "core",
    "fabric",
    "simcore",
    "trainsim",
];

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<x>/src/**` or the root `src/**` (excluding `src/bin`).
    LibSrc,
    /// `src/bin/**` of any package.
    BinSrc,
    /// `tests/**` of any package.
    TestSrc,
    /// `examples/**` of any package.
    ExampleSrc,
}

/// Where a file sits in the workspace, derived purely from its relative path.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Repo-relative path with forward slashes, e.g. `crates/fabric/src/engine.rs`.
    pub path: String,
    /// Crate directory name under `crates/`, or `None` for the root package.
    pub crate_name: Option<String>,
    pub kind: FileKind,
}

impl FileInfo {
    /// Classifies a repo-relative path (forward slashes).
    pub fn classify(path: &str) -> FileInfo {
        let (crate_name, rest) = match path.strip_prefix("crates/") {
            Some(tail) => match tail.split_once('/') {
                Some((name, rest)) => (Some(name.to_string()), rest),
                None => (None, path),
            },
            None => (None, path),
        };
        let kind = if rest.starts_with("src/bin/") {
            FileKind::BinSrc
        } else if rest.starts_with("src/") {
            FileKind::LibSrc
        } else if rest.starts_with("tests/") {
            FileKind::TestSrc
        } else {
            // examples/, benches/, or anything else outside a library target.
            FileKind::ExampleSrc
        };
        FileInfo {
            path: path.to_string(),
            crate_name,
            kind,
        }
    }

    fn in_crate(&self, name: &str) -> bool {
        self.crate_name.as_deref() == Some(name)
    }

    fn in_sim_crate(&self) -> bool {
        matches!(&self.crate_name, Some(c) if SIM_CRATES.contains(&c.as_str()))
    }
}

/// Computes, for each token, whether it sits inside a `#[cfg(test)]`-gated
/// item (attribute included). Detection is purely token-based: the attribute
/// pattern `# [ cfg ( test ) ]` followed by the next item, whose extent is
/// the matching `}` of its first brace (or a `;` for braceless items such as
/// gated `use` declarations).
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_end) = match_cfg_test(tokens, i) {
            let mut j = attr_end;
            // Skip any further attributes on the same item.
            while let Some(next) = skip_attribute(tokens, j) {
                j = next;
            }
            let item_end = item_extent(tokens, j);
            for m in mask.iter_mut().take(item_end.min(tokens.len())).skip(i) {
                *m = true;
            }
            i = attr_end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If `tokens[i..]` opens with `#[cfg(test)]` (or `#[cfg(test, ...)]` /
/// nothing fancier), returns the index just past the closing `]`.
fn match_cfg_test(tokens: &[Token], i: usize) -> Option<usize> {
    let is = |k: usize, want: &Tok| tokens.get(i + k).map(|t| &t.tok) == Some(want);
    if !(is(0, &Tok::Punct(b'#')) && is(1, &Tok::Punct(b'['))) {
        return None;
    }
    let cfg = matches!(tokens.get(i + 2), Some(t) if t.tok == Tok::Ident("cfg".into()));
    let test = matches!(tokens.get(i + 4), Some(t) if t.tok == Tok::Ident("test".into()));
    if !(cfg && is(3, &Tok::Punct(b'(')) && test) {
        return None;
    }
    // Find the closing `]` of the attribute.
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(i + 1) {
        match t.tok {
            Tok::Punct(b'[') => depth += 1,
            Tok::Punct(b']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// If `tokens[i..]` starts with any `#[...]` attribute, returns the index
/// past its closing `]`.
fn skip_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i).map(|t| &t.tok) == Some(&Tok::Punct(b'#'))
        && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(b'[')))
    {
        return None;
    }
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(i + 1) {
        match t.tok {
            Tok::Punct(b'[') => depth += 1,
            Tok::Punct(b']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Returns the index one past the end of the item starting at `i`: the
/// matching `}` of its first `{`, or a top-level `;` if one comes first.
fn item_extent(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(i) {
        match t.tok {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            Tok::Punct(b';') if depth == 0 => return k + 1,
            _ => {}
        }
    }
    tokens.len()
}

/// Runs every per-file token rule over one lexed file, appending diagnostics.
pub fn token_rules(info: &FileInfo, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diagnostic>) {
    unordered_container(info, lexed, mask, out);
    wall_clock(info, lexed, out);
    ambient_randomness(info, lexed, out);
    panic_in_library(info, lexed, mask, out);
    hot_path_alloc(info, lexed, mask, out);
    parallel_ready(info, lexed, mask, out);
}

fn diag(info: &FileInfo, rule: &'static str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: info.path.clone(),
        line,
        message,
        waived: false,
        reason: None,
    }
}

/// Rule `unordered-container`: any mention of HashMap/HashSet in the library
/// sources of a simulation crate. Conservative by design — even a non-iterated
/// map is one refactor away from leaking order into results; waive with a
/// justification when ordering provably cannot escape.
fn unordered_container(info: &FileInfo, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !(info.in_sim_crate() && info.kind == FileKind::LibSrc) {
        return;
    }
    for (idx, t) in lexed.tokens.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        if let Tok::Ident(name) = &t.tok {
            if name == "HashMap" || name == "HashSet" {
                out.push(diag(
                    info,
                    "unordered-container",
                    t.line,
                    format!(
                        "`{name}` in a simulation crate: iteration order is nondeterministic, \
                         use BTreeMap/BTreeSet or drain through a sorted buffer"
                    ),
                ));
            }
        }
    }
}

const WALL_CLOCK_IDENTS: &[&str] = &["SystemTime", "UNIX_EPOCH"];

/// The only source files allowed to read the host clock: the bench timing
/// harness, the selfbench artifact writer, and the profiler's wall-clock
/// section (which is both feature-gated behind `prof-wallclock` and kept
/// out of the report's deterministic half). Everything else — including
/// the rest of `crates/bench` — must use simulated time.
pub const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/bench/src/harness.rs",
    "crates/bench/src/selfbench.rs",
    "crates/simcore/src/prof.rs",
];

/// Rule `wall-clock`: host-time reads anywhere outside the
/// [`WALL_CLOCK_ALLOWED`] file allowlist (including tests — replays must
/// not depend on the host clock).
/// `SystemTime`/`UNIX_EPOCH` are flagged on any mention; `Instant` only in
/// path position (`Instant::now()` etc.), because the bare identifier also
/// names the zero-duration trace event kind (`TraceEventKind::Instant`) and
/// a clock value cannot be obtained without the path form.
fn wall_clock(info: &FileInfo, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if WALL_CLOCK_ALLOWED.contains(&info.path.as_str()) {
        return;
    }
    let toks = &lexed.tokens;
    for (idx, t) in toks.iter().enumerate() {
        if let Tok::Ident(name) = &t.tok {
            let path_position = matches!(toks.get(idx + 1), Some(a) if a.tok == Tok::PathSep);
            if WALL_CLOCK_IDENTS.contains(&name.as_str()) || (name == "Instant" && path_position) {
                out.push(diag(
                    info,
                    "wall-clock",
                    t.line,
                    format!(
                        "`{name}` reads the host clock; simulated time must come from \
                         simcore::time (wall-clock is allowed only in the bench harness, \
                         selfbench, and simcore::prof)"
                    ),
                ));
            }
        }
    }
}

const RANDOMNESS_IDENTS: &[&str] = &[
    "thread_rng",
    "RandomState",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Rule `ambient-randomness`: OS-seeded randomness anywhere outside
/// `crates/bench`. Seeded generators (simcore's splitmix/LCG) are fine.
fn ambient_randomness(info: &FileInfo, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if info.in_crate("bench") {
        return;
    }
    for t in &lexed.tokens {
        if let Tok::Ident(name) = &t.tok {
            if RANDOMNESS_IDENTS.contains(&name.as_str()) {
                out.push(diag(
                    info,
                    "ambient-randomness",
                    t.line,
                    format!(
                        "`{name}` draws ambient (OS-seeded) randomness; use an explicitly \
                         seeded generator so runs replay byte-identically"
                    ),
                ));
            }
        }
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Rule `panic-in-library`: `.unwrap()` / `.expect(` / panicking macros in
/// library sources outside `#[cfg(test)]`. `crates/bench` (the measurement
/// harness, where aborting on a broken expectation is the point), bin
/// targets, tests and examples are exempt. `assert!` is deliberately allowed:
/// it documents an invariant rather than extracting a value.
fn panic_in_library(info: &FileInfo, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diagnostic>) {
    if info.kind != FileKind::LibSrc || info.in_crate("bench") {
        return;
    }
    let toks = &lexed.tokens;
    for (idx, t) in toks.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let next_is = |want: u8| matches!(toks.get(idx + 1), Some(n) if n.tok == Tok::Punct(want));
        let prev_is_dot =
            idx > 0 && matches!(toks.get(idx - 1), Some(p) if p.tok == Tok::Punct(b'.'));
        if (name == "unwrap" || name == "expect") && prev_is_dot && next_is(b'(') {
            out.push(diag(
                info,
                "panic-in-library",
                t.line,
                format!(
                    "`.{name}()` in library code panics on the error path; return a typed \
                     error, or waive stating the invariant that rules the panic out"
                ),
            ));
        } else if PANIC_MACROS.contains(&name.as_str()) && next_is(b'!') {
            out.push(diag(
                info,
                "panic-in-library",
                t.line,
                format!(
                    "`{name}!` in library code aborts the simulation; return a typed error, \
                     or waive stating why this is unreachable"
                ),
            ));
        }
    }
}

/// The hot path: files whose loop bodies run once per transfer, link leg
/// or ring step, where a per-iteration heap allocation is a steady-state
/// throughput leak.
const HOT_PATH_FILES: &[&str] = &[
    "crates/cci/src/synccore.rs",
    "crates/collectives/src/timed.rs",
    "crates/fabric/src/bandwidth.rs",
    "crates/fabric/src/engine.rs",
    "crates/fabric/src/topology.rs",
    "crates/simcore/src/timeline.rs",
];

/// Rule `hot-path-alloc`: `Box::new(...)` / `Vec::new(...)` inside a loop
/// body of a [`HOT_PATH_FILES`] source. Loop extents are token-derived: a
/// `loop`/`while`/`for` keyword (excluding `impl ... for ...` and HRTB
/// `for<...>`) owns the brace block that follows its header. Allocations
/// that are genuinely once-per-observation (tracing, critical-path capture)
/// can be waived with the standard ledger.
fn hot_path_alloc(info: &FileInfo, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !HOT_PATH_FILES.contains(&info.path.as_str()) {
        return;
    }
    let toks = &lexed.tokens;
    // Mark every token lying inside at least one loop body.
    let mut in_loop = vec![false; toks.len()];
    for idx in 0..toks.len() {
        let Tok::Ident(name) = &toks[idx].tok else {
            continue;
        };
        let is_loop_kw = match name.as_str() {
            "loop" | "while" => true,
            "for" => {
                // `impl Trait for Type` has an identifier or `>` before the
                // keyword; `for<'a>` bounds are followed by `<`. A real loop
                // is neither.
                let prev_disqualifies = idx > 0
                    && (matches!(&toks[idx - 1].tok, Tok::Ident(_))
                        || toks[idx - 1].tok == Tok::Punct(b'>'));
                let next_disqualifies =
                    matches!(toks.get(idx + 1), Some(n) if n.tok == Tok::Punct(b'<'));
                !(prev_disqualifies || next_disqualifies)
            }
            _ => false,
        };
        if !is_loop_kw {
            continue;
        }
        // The loop body is the first brace block after the header.
        let Some(open) = toks[idx..].iter().position(|t| t.tok == Tok::Punct(b'{')) else {
            continue;
        };
        let start = idx + open;
        let mut depth = 0usize;
        for (k, t) in toks.iter().enumerate().skip(start) {
            match t.tok {
                Tok::Punct(b'{') => depth += 1,
                Tok::Punct(b'}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        for slot in in_loop.iter_mut().take(k).skip(start) {
                            *slot = true;
                        }
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    for (idx, t) in toks.iter().enumerate() {
        if !in_loop[idx] || mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        if name != "Box" && name != "Vec" {
            continue;
        }
        let path_new = matches!(toks.get(idx + 1), Some(a) if a.tok == Tok::PathSep)
            && matches!(toks.get(idx + 2), Some(c) if c.tok == Tok::Ident("new".into()))
            && matches!(toks.get(idx + 3), Some(d) if d.tok == Tok::Punct(b'('));
        if path_new {
            out.push(diag(
                info,
                "hot-path-alloc",
                t.line,
                format!(
                    "`{name}::new` inside a loop body of the event-dispatch hot path \
                     allocates per iteration; hoist the allocation or reuse a \
                     cleared buffer (waive only for observation-only allocations)"
                ),
            ));
        }
    }
}

/// Construct classes the parallel-readiness audit inventories. One finding
/// per `(line, class)` keeps the waiver burden proportional to real sites.
const INTERIOR_MUT: &[&str] = &["Cell", "OnceCell", "RefCell", "UnsafeCell"];
const LOCKS: &[&str] = &["Condvar", "Mutex", "RwLock"];

/// Rule `parallel-ready`: an inventory of everything a deterministic
/// parallel kernel must reckon with — `static mut`, `unsafe` items/blocks,
/// interior mutability, locks, atomics, and `Ordering::Relaxed` — across
/// the library sources of [`PARALLEL_CRATES`]. Each finding is waivable
/// per-site with an argument for why it stays sound under parallel
/// dispatch, so the parallel-kernel PR starts from a zero-surprise
/// baseline. Everything lexically inside an already-flagged `unsafe`
/// item/block counts as part of that one site.
fn parallel_ready(info: &FileInfo, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diagnostic>) {
    let in_scope = info.kind == FileKind::LibSrc
        && matches!(&info.crate_name, Some(c) if PARALLEL_CRATES.contains(&c.as_str()));
    if !in_scope {
        return;
    }
    let toks = &lexed.tokens;
    // First pass: flag `unsafe` and mark each unsafe item/block's extent so
    // constructs inside it are subsumed into the one finding.
    let mut in_unsafe = vec![false; toks.len()];
    for (idx, t) in toks.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) || in_unsafe[idx] {
            continue;
        }
        if t.tok == Tok::Ident("unsafe".into()) {
            out.push(diag(
                info,
                "parallel-ready",
                t.line,
                "`unsafe` in a simulation crate: audit for data races before the parallel \
                 kernel shares this state across workers"
                    .to_string(),
            ));
            let end = item_extent(toks, idx);
            for slot in in_unsafe.iter_mut().take(end.min(toks.len())).skip(idx) {
                *slot = true;
            }
        }
    }
    // Second pass: the remaining construct classes, deduped per (line, class).
    let mut last: Option<(u32, &'static str)> = None;
    let mut hits: Vec<(u32, &'static str, String)> = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) || in_unsafe[idx] {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let next_sep = matches!(toks.get(idx + 1), Some(n) if n.tok == Tok::PathSep);
        let (class, detail) = if name == "static"
            && matches!(toks.get(idx + 1), Some(n) if n.tok == Tok::Ident("mut".into()))
        {
            (
                "static-mut",
                "`static mut` is a data race waiting for the second thread; use an \
                 explicit handle or atomic"
                    .to_string(),
            )
        } else if INTERIOR_MUT.contains(&name.as_str()) {
            (
                "interior-mutability",
                format!(
                    "`{name}` hides mutation from the borrow checker; the parallel kernel \
                     needs this single-threaded assumption stated"
                ),
            )
        } else if LOCKS.contains(&name.as_str()) {
            (
                "lock",
                format!(
                    "`{name}` in a simulation crate: lock acquisition order becomes a \
                     determinism hazard under parallel dispatch"
                ),
            )
        } else if name.starts_with("Atomic") && name.len() > "Atomic".len() {
            (
                "atomic",
                format!("`{name}` shared-state atomic; document its ordering contract"),
            )
        } else if name == "Ordering"
            && next_sep
            && matches!(toks.get(idx + 2), Some(n) if n.tok == Tok::Ident("Relaxed".into()))
        {
            (
                "relaxed-ordering",
                "`Ordering::Relaxed` gives no cross-thread visibility guarantee; justify \
                 or strengthen before parallel dispatch"
                    .to_string(),
            )
        } else {
            continue;
        };
        if last == Some((t.line, class)) {
            continue;
        }
        last = Some((t.line, class));
        hits.push((t.line, class, detail));
    }
    for (line, _class, detail) in hits {
        out.push(diag(info, "parallel-ready", line, detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
        let info = FileInfo::classify(path);
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let mut out = Vec::new();
        token_rules(&info, &lexed, &mask, &mut out);
        out
    }

    #[test]
    fn classify_paths() {
        let f = FileInfo::classify("crates/fabric/src/engine.rs");
        assert_eq!(f.crate_name.as_deref(), Some("fabric"));
        assert_eq!(f.kind, FileKind::LibSrc);
        assert_eq!(
            FileInfo::classify("crates/bench/src/bin/figures.rs").kind,
            FileKind::BinSrc
        );
        assert_eq!(
            FileInfo::classify("tests/determinism.rs").kind,
            FileKind::TestSrc
        );
        assert_eq!(
            FileInfo::classify("examples/quickstart.rs").kind,
            FileKind::ExampleSrc
        );
        let root = FileInfo::classify("src/lib.rs");
        assert_eq!(root.crate_name, None);
        assert_eq!(root.kind, FileKind::LibSrc);
    }

    #[test]
    fn hashmap_flagged_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_one("crates/fabric/src/engine.rs", src).len(), 1);
        assert_eq!(lint_one("crates/simcore/src/queue.rs", src).len(), 0);
        assert_eq!(lint_one("crates/fabric/tests/x.rs", src).len(), 0);
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "pub fn f() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f().checked_add(1).unwrap(); panic!(\"x\"); }\n}\n";
        assert_eq!(lint_one("crates/core/src/lib.rs", src).len(), 0);
    }

    #[test]
    fn cfg_test_gated_use_does_not_mask_rest_of_file() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f(){ let x = [1]; x.first().unwrap(); }\n";
        let diags = lint_one("crates/cci/src/lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-in-library");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn unwrap_expect_and_macros_flagged() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    let a = o.unwrap();\n    let b = o.expect(\"msg\");\n    if a > b { panic!(\"no\") } else { unreachable!() }\n}\n";
        let diags = lint_one("crates/trainsim/src/x.rs", src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["panic-in-library"; 4]);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(3).max(o.unwrap_or_default()) }\n";
        assert_eq!(lint_one("crates/core/src/x.rs", src).len(), 0);
    }

    #[test]
    fn bench_and_bins_exempt_from_panic_rule() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert_eq!(lint_one("crates/bench/src/harness.rs", src).len(), 0);
        assert_eq!(lint_one("crates/bench/src/bin/figures.rs", src).len(), 0);
        assert_eq!(lint_one("crates/simcore/src/x.rs", src).len(), 1);
    }

    #[test]
    fn wall_clock_and_randomness_flagged_outside_allowlist() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        assert_eq!(lint_one("crates/simcore/src/x.rs", src).len(), 1);
        for allowed in super::WALL_CLOCK_ALLOWED {
            assert_eq!(lint_one(allowed, src).len(), 0, "{allowed} is allowlisted");
        }
        let sys = "fn f() { let _ = std::time::SystemTime::now(); }\n";
        assert_eq!(lint_one("crates/core/src/x.rs", sys).len(), 1);
        let rng = "use std::collections::hash_map::RandomState;\n";
        assert_eq!(lint_one("tests/determinism.rs", rng).len(), 1);
    }

    #[test]
    fn wall_clock_rule_covers_the_rest_of_bench() {
        // The crate-wide bench exemption is gone: only the harness and
        // selfbench may read the clock, not e.g. the figures binary.
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(lint_one("crates/bench/src/bin/figures.rs", src).len(), 1);
        assert_eq!(lint_one("crates/bench/src/micro.rs", src).len(), 1);
    }

    #[test]
    fn trace_event_kind_instant_is_not_wall_clock() {
        let src = "fn f(k: TraceEventKind) -> bool { k == TraceEventKind::Instant }\n";
        assert_eq!(lint_one("crates/simcore/src/trace.rs", src).len(), 0);
    }

    #[test]
    fn mentions_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap here\nconst HELP: &str = \"avoid Instant::now and HashMap\";\n";
        assert_eq!(lint_one("crates/fabric/src/x.rs", src).len(), 0);
    }
}
