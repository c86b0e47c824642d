//! Selftest: proof that every rule is alive. Each deliberately-bad fixture
//! in `fixtures/` is linted under a synthetic path chosen to engage one
//! rule, and the test asserts the expected findings — so a refactor that
//! silently kills a rule fails here, not in production drift.

use coarse_simlint::lint_files;
use coarse_simlint::report::LintReport;
use coarse_simlint::rules::RULES;
use coarse_simlint::semantic::{EXPECTATIONS_PATH, METRICS_PATH, PROF_PATH, SCENARIO_PATH};

const CONTAINER_PATH: &str = "crates/fabric/src/bad_container.rs";
const WALL_CLOCK_PATH: &str = "crates/cci/src/bad_wall_clock.rs";
const RANDOMNESS_PATH: &str = "crates/core/src/bad_randomness.rs";
const PANICS_PATH: &str = "crates/trainsim/src/bad_panics.rs";
const CFG_TEST_PATH: &str = "crates/fabric/src/cfg_test_ok.rs";
const WAIVERS_PATH: &str = "crates/collectives/src/waivers.rs";
const PRESET_PATH: &str = "crates/trainsim/tests/bad_preset.rs";
const HOT_ALLOC_PATH: &str = "crates/simcore/src/timeline.rs";
const PARALLEL_PATH: &str = "crates/simcore/src/bad_parallel.rs";
const TAINT_SRC_PATH: &str = "crates/fabric/src/timeutil.rs";
const TAINT_SINK_PATH: &str = "crates/trainsim/src/taint_sink.rs";
const ORACLE_PATH: &str = "crates/simcore/src/bad_oracle.rs";
const LABELS_PATH: &str = "crates/trainsim/src/bad_labels.rs";
const SCHEMA_PATH: &str = "crates/collectives/src/bad_schema.rs";

const CONTAINER: &str = include_str!("../fixtures/bad_container.rs");
const WALL_CLOCK: &str = include_str!("../fixtures/bad_wall_clock.rs");
const RANDOMNESS: &str = include_str!("../fixtures/bad_randomness.rs");
const PANICS: &str = include_str!("../fixtures/bad_panics.rs");
const CFG_TEST_OK: &str = include_str!("../fixtures/cfg_test_ok.rs");
const WAIVERS: &str = include_str!("../fixtures/waivers.rs");
const METRICS_DRIFT: &str = include_str!("../fixtures/metrics_drift.rs");
const EXPECTATIONS_DRIFT: &str = include_str!("../fixtures/expectations_drift.rs");
const SCENARIO_PRESETS: &str = include_str!("../fixtures/scenario_presets.rs");
const BAD_PRESET: &str = include_str!("../fixtures/bad_preset.rs");
const HOT_ALLOC: &str = include_str!("../fixtures/bad_hot_alloc.rs");
const PARALLEL: &str = include_str!("../fixtures/bad_parallel.rs");
const TAINT_SRC: &str = include_str!("../fixtures/taint_timeutil.rs");
const TAINT_SINK: &str = include_str!("../fixtures/taint_sink.rs");
const ORACLE_DRIFT: &str = include_str!("../fixtures/oracle_drift.rs");
const PROF_LABELS: &str = include_str!("../fixtures/prof_labels.rs");
const BAD_LABELS: &str = include_str!("../fixtures/bad_labels.rs");
const BAD_SCHEMA: &str = include_str!("../fixtures/bad_schema.rs");

fn fx(path: &str, content: &str) -> (String, String) {
    (path.to_string(), content.to_string())
}

fn all_fixtures() -> Vec<(String, String)> {
    vec![
        fx(CONTAINER_PATH, CONTAINER),
        fx(WALL_CLOCK_PATH, WALL_CLOCK),
        fx(RANDOMNESS_PATH, RANDOMNESS),
        fx(PANICS_PATH, PANICS),
        fx(CFG_TEST_PATH, CFG_TEST_OK),
        fx(WAIVERS_PATH, WAIVERS),
        fx(METRICS_PATH, METRICS_DRIFT),
        fx(EXPECTATIONS_PATH, EXPECTATIONS_DRIFT),
        fx(SCENARIO_PATH, SCENARIO_PRESETS),
        fx(PRESET_PATH, BAD_PRESET),
        fx(HOT_ALLOC_PATH, HOT_ALLOC),
        fx(PARALLEL_PATH, PARALLEL),
        fx(TAINT_SRC_PATH, TAINT_SRC),
        fx(TAINT_SINK_PATH, TAINT_SINK),
        fx(ORACLE_PATH, ORACLE_DRIFT),
        fx(PROF_PATH, PROF_LABELS),
        fx(LABELS_PATH, BAD_LABELS),
        fx(SCHEMA_PATH, BAD_SCHEMA),
    ]
}

fn active_rules(report: &LintReport, path: &str) -> Vec<&'static str> {
    report
        .active_diagnostics()
        .filter(|d| d.path == path)
        .map(|d| d.rule)
        .collect()
}

#[test]
fn every_rule_fires_on_the_fixture_set() {
    let report = lint_files(&all_fixtures());
    let mut live: Vec<&str> = report.active_diagnostics().map(|d| d.rule).collect();
    live.sort_unstable();
    live.dedup();
    let known: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(
        live, known,
        "every known rule must produce at least one active finding on the bad fixtures"
    );
}

#[test]
fn unordered_container_findings() {
    let report = lint_files(&[fx(CONTAINER_PATH, CONTAINER)]);
    let rules = active_rules(&report, CONTAINER_PATH);
    // Two in the `use`, one per struct field.
    assert_eq!(rules, vec!["unordered-container"; 4], "{report:?}");
}

#[test]
fn wall_clock_findings() {
    let report = lint_files(&[fx(WALL_CLOCK_PATH, WALL_CLOCK)]);
    let rules = active_rules(&report, WALL_CLOCK_PATH);
    // SystemTime + UNIX_EPOCH in the use, Instant::now, SystemTime::now,
    // duration_since(UNIX_EPOCH). The `.unwrap_or(0)` must NOT add a
    // panic-in-library finding.
    assert_eq!(rules, vec!["wall-clock"; 5], "{report:?}");
}

#[test]
fn ambient_randomness_findings() {
    let report = lint_files(&[fx(RANDOMNESS_PATH, RANDOMNESS)]);
    let rules = active_rules(&report, RANDOMNESS_PATH);
    // RandomState in the use and at the construction site, plus thread_rng.
    assert_eq!(rules, vec!["ambient-randomness"; 3], "{report:?}");
}

#[test]
fn panic_in_library_findings() {
    let report = lint_files(&[fx(PANICS_PATH, PANICS)]);
    let rules = active_rules(&report, PANICS_PATH);
    // unwrap, expect, panic!, unreachable!, todo!.
    assert_eq!(rules, vec!["panic-in-library"; 5], "{report:?}");
}

#[test]
fn cfg_test_code_is_exempt() {
    let report = lint_files(&[fx(CFG_TEST_PATH, CFG_TEST_OK)]);
    assert_eq!(
        report.total(),
        0,
        "the same patterns inside #[cfg(test)] must be clean: {report:?}"
    );
}

#[test]
fn waiver_machinery_polices_itself() {
    let report = lint_files(&[fx(WAIVERS_PATH, WAIVERS)]);
    // The honest waiver absorbs the HashMap on the `use` line.
    let waived: Vec<_> = report.diagnostics.iter().filter(|d| d.waived).collect();
    assert_eq!(waived.len(), 1, "{report:?}");
    assert_eq!(waived[0].rule, "unordered-container");
    assert_eq!(
        waived[0].reason.as_deref(),
        Some("fixture: order never observed")
    );
    // The mis-aimed wall-clock waiver is unused; the HashMap it sat above
    // stays active; the malformed / unknown-rule / unwaivable-rule waivers
    // each raise bad-waiver.
    let mut active = active_rules(&report, WAIVERS_PATH);
    active.sort_unstable();
    assert_eq!(
        active,
        vec![
            "bad-waiver",
            "bad-waiver",
            "bad-waiver",
            "unordered-container",
            "unused-waiver"
        ],
        "{report:?}"
    );
}

#[test]
fn hot_path_alloc_findings() {
    let report = lint_files(&[fx(HOT_ALLOC_PATH, HOT_ALLOC)]);
    let rules = active_rules(&report, HOT_ALLOC_PATH);
    // Vec::new + Box::new in the `for` body, Vec::new in the `while` body.
    // The hoisted allocation and the `impl Clone for` body stay clean.
    assert_eq!(rules, vec!["hot-path-alloc"; 3], "{report:?}");
}

#[test]
fn hot_path_alloc_only_polices_the_allowlist() {
    let report = lint_files(&[fx("crates/trainsim/src/coarse.rs", HOT_ALLOC)]);
    assert!(
        active_rules(&report, "crates/trainsim/src/coarse.rs").is_empty(),
        "the same loops off the hot path must be clean: {report:?}"
    );
}

#[test]
fn metric_coverage_findings_point_both_ways() {
    let report = lint_files(&[
        fx(METRICS_PATH, METRICS_DRIFT),
        fx(EXPECTATIONS_PATH, EXPECTATIONS_DRIFT),
    ]);
    assert_eq!(active_rules(&report, METRICS_PATH), vec!["metric-coverage"]);
    assert_eq!(
        active_rules(&report, EXPECTATIONS_PATH),
        vec!["metric-coverage"]
    );
}

#[test]
fn preset_exists_findings() {
    let report = lint_files(&[
        fx(SCENARIO_PATH, SCENARIO_PRESETS),
        fx(PRESET_PATH, BAD_PRESET),
    ]);
    let diags: Vec<_> = report
        .active_diagnostics()
        .filter(|d| d.path == PRESET_PATH)
        .collect();
    // Only the phantom preset fires; the known one is defined by the
    // scenario fixture, and the registry file itself is never checked.
    assert_eq!(diags.len(), 1, "{report:?}");
    assert_eq!(diags[0].rule, "preset-exists");
    assert_eq!(diags[0].line, 8);
    assert!(active_rules(&report, SCENARIO_PATH).is_empty());
}

#[test]
fn taint_chain_three_hops_across_files() {
    let report = lint_files(&[
        fx(TAINT_SRC_PATH, TAINT_SRC),
        fx(TAINT_SINK_PATH, TAINT_SINK),
    ]);
    // The source file carries only the wall-clock token finding; the sink
    // file carries only the taint finding.
    assert_eq!(active_rules(&report, TAINT_SRC_PATH), vec!["wall-clock"]);
    assert_eq!(
        active_rules(&report, TAINT_SINK_PATH),
        vec!["determinism-taint"],
        "{report:?}"
    );
    let d = report
        .active_diagnostics()
        .find(|d| d.rule == "determinism-taint")
        .unwrap();
    assert_eq!(d.path, TAINT_SINK_PATH);
    assert!(d.message.contains("wall-clock"), "{}", d.message);
    assert!(
        d.message.contains("crates/fabric/src/timeutil.rs"),
        "{}",
        d.message
    );
    // The full three-hop chain, sink to source.
    assert!(
        d.message.contains(
            "trainsim::taint_sink::record_tick -> fabric::timeutil::stamp_coarse_ms -> \
             fabric::timeutil::wall_ns -> fabric::timeutil::raw_instant"
        ),
        "{}",
        d.message
    );
}

#[test]
fn taint_sink_file_alone_is_invisible_to_token_rules() {
    // Without the dataflow pass (or with only this file in view) nothing
    // fires: the nondeterminism lives three calls away in another file.
    let report = lint_files(&[fx(TAINT_SINK_PATH, TAINT_SINK)]);
    assert_eq!(report.total(), 0, "{report:?}");
}

#[test]
fn parallel_ready_findings() {
    let report = lint_files(&[fx(PARALLEL_PATH, PARALLEL)]);
    // use RefCell + use AtomicU64, static mut, RefCell field, AtomicU64
    // static (two mentions, one line, deduped), Ordering::Relaxed — six
    // active; the waived `unsafe fn` makes seven total.
    let active = active_rules(&report, PARALLEL_PATH);
    assert_eq!(active, vec!["parallel-ready"; 6], "{report:?}");
    let waived: Vec<_> = report.diagnostics.iter().filter(|d| d.waived).collect();
    assert_eq!(waived.len(), 1, "{report:?}");
    assert!(waived[0].message.contains("unsafe"));
    for needle in ["static mut", "RefCell", "AtomicU64", "Ordering::Relaxed"] {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains(needle)),
            "no finding mentions {needle}: {report:?}"
        );
    }
}

#[test]
fn parallel_ready_only_polices_sim_crates() {
    let report = lint_files(&[fx("crates/bench/src/bad_parallel.rs", PARALLEL)]);
    // bench is out of scope, so the fixture's waiver has nothing to absorb.
    assert_eq!(
        active_rules(&report, "crates/bench/src/bad_parallel.rs"),
        vec!["unused-waiver"],
        "{report:?}"
    );
}

#[test]
fn unregistered_oracle_findings() {
    let report = lint_files(&[fx(ORACLE_PATH, ORACLE_DRIFT)]);
    let diags: Vec<_> = report
        .active_diagnostics()
        .filter(|d| d.path == ORACLE_PATH)
        .collect();
    assert_eq!(diags.len(), 1, "{report:?}");
    assert_eq!(diags[0].rule, "oracle-registered");
    assert!(diags[0].message.contains("`Forgotten`"));
}

#[test]
fn label_registered_findings() {
    let report = lint_files(&[fx(PROF_PATH, PROF_LABELS), fx(LABELS_PATH, BAD_LABELS)]);
    assert_eq!(
        active_rules(&report, LABELS_PATH),
        vec!["label-registered"],
        "{report:?}"
    );
    assert_eq!(
        active_rules(&report, PROF_PATH),
        vec!["label-registered"],
        "{report:?}"
    );
    assert!(report
        .active_diagnostics()
        .any(|d| d.message.contains("ghost.label")));
    assert!(report
        .active_diagnostics()
        .any(|d| d.message.contains("phantom.orphan")));
}

#[test]
fn schema_single_decl_findings() {
    let report = lint_files(&[fx(SCHEMA_PATH, BAD_SCHEMA)]);
    let diags: Vec<_> = report
        .active_diagnostics()
        .filter(|d| d.path == SCHEMA_PATH)
        .collect();
    assert_eq!(diags.len(), 2, "{report:?}");
    assert!(diags
        .iter()
        .any(|d| d.message.contains("re-spells") && d.message.contains("`DEMO_SCHEMA`")));
    // Needle deliberately lacks the `coarse.` prefix so this test file does
    // not itself spell a schema-shaped literal.
    assert!(diags.iter().any(|d| d.message.contains("orphan-report/v1")));
}

#[test]
fn waiver_ledger_counts_per_rule() {
    let report = lint_files(&all_fixtures());
    let stat = |rule: &str| report.waivers.iter().find(|w| w.rule == rule);
    // bad_parallel.rs carries one used parallel-ready waiver.
    let pr = stat("parallel-ready").expect("parallel-ready in ledger");
    assert_eq!((pr.total, pr.used), (1, 1));
    // waivers.rs carries one used unordered-container waiver and one
    // mis-aimed wall-clock waiver.
    let uc = stat("unordered-container").expect("unordered-container in ledger");
    assert_eq!((uc.total, uc.used), (1, 1));
    let wc = stat("wall-clock").expect("wall-clock in ledger");
    assert_eq!(wc.used, 0);
    assert!(wc.unused() > 0);
}

#[test]
fn json_report_snapshot() {
    let report = lint_files(&[fx(CONTAINER_PATH, CONTAINER)]);
    let actual = report.render_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/bad_container.report.json"
    );
    if std::env::var("SIMLINT_UPDATE_SNAPSHOT").is_ok() {
        std::fs::write(path, &actual).expect("write snapshot");
    }
    let expected = include_str!("../fixtures/bad_container.report.json");
    assert_eq!(
        actual, expected,
        "lint-report JSON drifted; rerun with SIMLINT_UPDATE_SNAPSHOT=1 and review the diff"
    );
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let a = lint_files(&all_fixtures()).render_json();
    let b = lint_files(&all_fixtures()).render_json();
    assert_eq!(a, b);
}
