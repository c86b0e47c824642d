//! simlint — a zero-dependency determinism & simulation-safety static
//! analyzer for the COARSE workspace.
//!
//! The repo's central contract is byte-identical replay: the chaos-repro,
//! oracle, and fidelity layers are only trustworthy if a simulation run is a
//! pure function of its inputs. The dynamic double-run tests catch order
//! dependence only when the ambient hash seed happens to differ; simlint
//! rejects the hazardous patterns statically, at CI time:
//!
//! * `unordered-container` — no `HashMap`/`HashSet` in simulation crates.
//! * `wall-clock` — no host-clock reads outside `crates/bench`.
//! * `ambient-randomness` — no OS-seeded randomness outside `crates/bench`.
//! * `panic-in-library` — no `unwrap()`/`expect()`/`panic!` in library code
//!   outside `#[cfg(test)]`.
//! * `metric-coverage` / `preset-exists` — semantic cross-checks keeping
//!   `simcore::metrics`, `bench::expectations`, and the `fig16*` presets in
//!   `trainsim::scenario` mutually consistent.
//! * `determinism-taint` — whole-workspace dataflow: nondeterminism sources
//!   (wall clock, randomness, unordered iteration, env vars, thread ids,
//!   pointer formatting) propagate through the [`callgraph`], and any
//!   tainted path reaching an event-schedule / metrics / report sink is
//!   reported with its full source→sink call chain.
//! * `parallel-ready` — audit of shared-mutable-state constructs
//!   (`static mut`, `unsafe`, interior mutability, locks, relaxed atomics)
//!   in the crates the parallel-kernel roadmap item will touch.
//! * `oracle-registered` / `label-registered` / `schema-single-decl` —
//!   registration exhaustiveness: every Oracle impl is in a battery, every
//!   `.dispatch(` label is in the profiler's `DISPATCH_LABELS` alphabet,
//!   every `coarse.*/v*` schema string has exactly one declaring const.
//! * `bad-waiver` / `unused-waiver` — the waiver ledger polices itself.
//!
//! Findings are waivable inline with
//! `// simlint: allow(<rule>, reason = "...")` and the report renders as
//! text or `coarse.lint-report/v1` JSON (now with a per-rule waiver
//! ledger); [`baseline`] diffs a run against a committed report so CI can
//! gate on *new* findings only. The analyzer is itself built from a
//! hand-rolled lexer and item parser (no third-party parser), in the same
//! spirit as `simcore::check`: offline, deterministic, and small enough to
//! audit.

pub mod baseline;
pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod taint;
pub mod waiver;
pub mod walk;

use std::fmt;
use std::path::Path;

use report::LintReport;
use rules::FileInfo;
use semantic::LexedFile;

/// Failure to assemble the file set (the analysis itself cannot fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// A source file could not be read.
    Io { path: String, message: String },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints an in-memory file set of `(repo_relative_path, contents)` pairs.
/// Rule applicability is derived from each path, so fixtures can exercise
/// any context by choosing synthetic paths.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    let lexed: Vec<LexedFile> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lexer::lex(src);
            let mask = rules::test_mask(&lexed.tokens);
            LexedFile {
                info: FileInfo::classify(path),
                lexed,
                mask,
            }
        })
        .collect();
    let mut diags = Vec::new();
    let mut waivers = Vec::new();
    for f in &lexed {
        waivers.extend(waiver::collect(&f.info.path, &f.lexed, &mut diags));
        rules::token_rules(&f.info, &f.lexed, &f.mask, &mut diags);
    }
    let ws = callgraph::Workspace::build(&lexed);
    taint::taint_dataflow(&lexed, &ws, &mut diags);
    semantic::metric_coverage(&lexed, &mut diags);
    semantic::preset_exists(&lexed, &mut diags);
    semantic::oracle_registered(&lexed, &mut diags);
    semantic::label_registered(&lexed, &mut diags);
    semantic::schema_single_decl(&lexed, &mut diags);
    waiver::apply(&mut diags, &mut waivers);
    let mut report = LintReport {
        files_scanned: files.len(),
        diagnostics: diags,
        waivers: waiver::stats(&waivers),
    };
    report.normalize();
    report
}

/// Walks the workspace rooted at `root` and lints every `.rs` source.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let files = walk::workspace_sources(root)?;
    Ok(lint_files(&files))
}
