//! The perf self-benchmark: times the simulator's own hot loops — route
//! resolution, flow transfers, ring collective steps, and a full COARSE
//! training iteration — and writes a `BENCH_<label>.json` artifact for CI
//! regression diffing.
//!
//! The artifact mixes two kinds of fields, gated differently by the
//! regression comparison ([`compare_reports`]):
//!
//! - **wall-clock** timings are machine-dependent; drift beyond a tolerance
//!   band is *advisory* (a warning, never a CI failure);
//! - **deterministic** fields — the per-bench work counters plus the
//!   self-profiler's dispatch/region event counts from a profiled
//!   [`PROFILE_PRESET`] run — depend only on the simulated program, so any
//!   drift against the committed baseline is a *hard failure*.
//!
//! Sample counts honor the same environment knobs as the `benches/`
//! binaries (`COARSE_BENCH_SAMPLES`, `COARSE_BENCH_MIN_BATCH_MS`).

use std::time::Duration;

use coarse_cci::synccore::RingDirection;
use coarse_collectives::timed::ring_allreduce;
use coarse_fabric::engine::TransferEngine;
use coarse_fabric::machines::{aws_v100, PartitionScheme};
use coarse_fabric::topology::{LinkClass, LinkMask};
use coarse_models::zoo::bert_large;
use coarse_simcore::json::JsonValue;
use coarse_simcore::prof::region;
use coarse_simcore::time::SimTime;
use coarse_simcore::units::ByteSize;
use coarse_trainsim::{profile_preset, simulate_coarse, ProfileRun};

use crate::harness::{black_box, Bench};

/// Schema identifier of the `BENCH_<label>.json` artifact. v2 added the
/// `profile` section (deterministic dispatch/region event counts plus
/// wall-clock throughput from a profiled [`PROFILE_PRESET`] run).
pub const BENCH_SCHEMA: &str = "coarse.selfbench/v2";

/// Scenario preset the artifact's `profile` section is captured under.
pub const PROFILE_PRESET: &str = "fig16d";

/// Fractional wall-clock tolerance band for [`compare_reports`]: normalized
/// timings may drift by ±50% against the baseline before a warning. Wide on
/// purpose — baselines are committed from arbitrary developer/CI hosts.
pub const WALL_TOLERANCE: f64 = 0.5;

/// One timed hot loop.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark name, `<subsystem>.<loop>`.
    pub name: &'static str,
    /// Median wall-clock time per iteration.
    pub median: Duration,
    /// Deterministic work units processed per iteration.
    pub work: u64,
    /// What one work unit is (`"bytes"`, `"routes"`, `"iterations"`).
    pub unit: &'static str,
}

const PCIE_ONLY: LinkMask = LinkMask::only(LinkClass::Pcie);

/// Runs every self-benchmark and returns the timed entries (also printed
/// through the harness as they run).
pub fn run_selfbench() -> Vec<BenchEntry> {
    let b = Bench::group("selfbench");
    let mut entries = Vec::new();
    let mut push = |name: &'static str, median: Duration, work: u64, unit: &'static str| {
        entries.push(BenchEntry {
            name,
            median,
            work,
            unit,
        });
    };

    let machine = aws_v100();
    let part = machine.partition(PartitionScheme::OneToOne);
    let model = bert_large();
    let gpus = machine.gpus().to_vec();
    let topo = machine.topology().clone();

    // Route resolution: the lookup on every transfer's critical path.
    push(
        "engine.route",
        b.run("engine.route", || {
            black_box(topo.route(black_box(gpus[0]), black_box(gpus[7])))
        }),
        1,
        "routes",
    );

    // Flow transfers: one 1 MiB link-occupancy computation.
    {
        let size = ByteSize::mib(1);
        let mut engine = TransferEngine::new(topo.clone());
        let mut t = SimTime::ZERO;
        push(
            "engine.transfer_1mib",
            b.run("engine.transfer_1mib", || {
                let rec = engine.transfer(gpus[0], gpus[2], size, t).expect("route");
                t = rec.end;
                black_box(rec)
            }),
            size.as_u64(),
            "bytes",
        );
    }

    // Ring collective: a full 4-member allreduce (6 steps) over PCIe.
    {
        let payload = ByteSize::mib(4);
        let ready = vec![SimTime::ZERO; part.workers.len()];
        push(
            "collectives.ring_allreduce_4mib",
            b.run("collectives.ring_allreduce_4mib", || {
                let mut engine = TransferEngine::new(topo.clone());
                black_box(
                    ring_allreduce(
                        &mut engine,
                        &part.workers,
                        payload,
                        &ready,
                        RingDirection::Forward,
                        PCIE_ONLY,
                    )
                    .expect("ring completes"),
                )
            }),
            payload.as_u64(),
            "bytes",
        );
    }

    // End-to-end: steady-state COARSE iterations (pilot + 2 iterations).
    push(
        "trainsim.coarse_2iter",
        b.run("trainsim.coarse_2iter", || {
            black_box(simulate_coarse(&machine, &part, &model, 2, 2))
        }),
        2,
        "iterations",
    );

    entries
}

/// Runs the self-profiling harness on [`PROFILE_PRESET`] and summarizes it
/// for the artifact's `profile` section.
///
/// # Panics
///
/// Panics if [`PROFILE_PRESET`] stops being a valid preset — a programming
/// error, not a runtime condition.
pub fn profile_summary() -> JsonValue {
    let run = profile_preset(PROFILE_PRESET).expect("PROFILE_PRESET is a valid preset");
    profile_summary_json(&run)
}

/// The `profile` section of the artifact: a `deterministic` half (event
/// dispatch counts and per-region event counts — exact across
/// machines, hard-gated by [`compare_reports`]) and a `wallclock` half
/// (events/sec — advisory).
pub fn profile_summary_json(run: &ProfileRun) -> JsonValue {
    let mut regions = JsonValue::object();
    for &name in &region::ALL {
        regions = regions.with(name, JsonValue::int(run.profiler.region_events(name)));
    }
    let wall = run.profiler.wallclock_json();
    let pick = |key: &str| wall.get(key).cloned().unwrap_or(JsonValue::Null);
    JsonValue::object()
        .with("scenario", JsonValue::str(&run.scenario))
        .with(
            "deterministic",
            JsonValue::object()
                .with(
                    "events_dispatched",
                    JsonValue::int(run.profiler.events_dispatched()),
                )
                .with("region_events", regions),
        )
        .with(
            "wallclock",
            // The preset and the event-count denominator ride along so a
            // BENCH artifact's events/sec is interpretable on its own: the
            // rate only means something relative to which scenario produced
            // how many dispatched events.
            JsonValue::object()
                .with("preset", JsonValue::str(&run.scenario))
                .with(
                    "events_dispatched",
                    JsonValue::int(run.profiler.events_dispatched()),
                )
                .with("enabled", pick("enabled"))
                .with("elapsed_ns", pick("elapsed_ns"))
                .with("events_per_sec", pick("events_per_sec")),
        )
}

/// Renders entries plus the profiled section as the [`BENCH_SCHEMA`] JSON
/// document.
pub fn to_json(label: &str, entries: &[BenchEntry], profile: JsonValue) -> JsonValue {
    let mut rows = Vec::new();
    for e in entries {
        rows.push(
            JsonValue::object()
                .with("name", JsonValue::str(e.name))
                .with("median_ns", JsonValue::int(e.median.as_nanos() as u64))
                .with("work", JsonValue::int(e.work))
                .with("unit", JsonValue::str(e.unit))
                .with(
                    "ns_per_unit",
                    JsonValue::num(e.median.as_nanos() as f64 / e.work as f64),
                ),
        );
    }
    JsonValue::object()
        .with("schema", JsonValue::str(BENCH_SCHEMA))
        .with("label", JsonValue::str(label))
        .with("benches", JsonValue::Array(rows))
        .with("profile", profile)
}

/// Runs the self-benchmark and the profiled [`PROFILE_PRESET`] run and
/// writes `BENCH_<label>.json` to the current directory. Returns the path
/// written.
///
/// # Errors
///
/// Propagates the I/O error if the artifact cannot be written.
pub fn write_report(label: &str) -> std::io::Result<String> {
    let entries = run_selfbench();
    let path = format!("BENCH_{label}.json");
    let mut doc = to_json(label, &entries, profile_summary()).render_pretty();
    doc.push('\n');
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// Outcome of diffing a BENCH document against a committed baseline.
#[derive(Debug, Clone, Default)]
pub struct BenchComparison {
    /// Hard failures: a deterministic field drifted (schema, work counters,
    /// profiled dispatch/region counts). CI fails on any of these — the
    /// simulated program changed without the baseline being regenerated.
    pub errors: Vec<String>,
    /// Advisory findings: wall-clock drift beyond the tolerance band.
    pub warnings: Vec<String>,
}

impl BenchComparison {
    /// True when no hard failure was recorded (warnings are allowed).
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

fn banded(current: f64, baseline: f64, tolerance: f64) -> bool {
    if baseline <= 0.0 {
        return true;
    }
    let ratio = current / baseline;
    ratio <= 1.0 + tolerance && ratio >= 1.0 / (1.0 + tolerance)
}

/// The members a `BENCH_<label>.json` document may carry.
const REPORT_MEMBERS: [&str; 4] = ["schema", "label", "benches", "profile"];

/// Why `doc` is not a bench report the comparison can read in full, if it
/// is not: a member it does not know, or a bench row it cannot name,
/// would otherwise drop out of the comparison unnoticed.
fn malformed(doc: &JsonValue) -> Option<String> {
    let JsonValue::Object(members) = doc else {
        return Some("not a JSON object".to_string());
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(key, _)| !REPORT_MEMBERS.contains(&key.as_str()))
    {
        return Some(format!("unknown member {key:?}"));
    }
    match doc.get("benches") {
        None => None,
        Some(JsonValue::Array(rows)) => rows
            .iter()
            .position(|row| row.get("name").and_then(JsonValue::as_str).is_none())
            .map(|i| format!("bench row {i} has no name")),
        Some(_) => Some("'benches' is not an array".to_string()),
    }
}

/// Diffs `current` against `baseline`: deterministic fields must match
/// exactly (errors); normalized wall-clock timings may drift within
/// `tolerance` (fractional, e.g. [`WALL_TOLERANCE`]) before a warning. A
/// document that is not a readable bench report fails the comparison.
pub fn compare_reports(
    current: &JsonValue,
    baseline: &JsonValue,
    tolerance: f64,
) -> BenchComparison {
    let mut cmp = BenchComparison::default();
    for (side, doc) in [("current", current), ("baseline", baseline)] {
        if let Some(problem) = malformed(doc) {
            cmp.errors
                .push(format!("{side} report is malformed: {problem}"));
        }
    }
    if !cmp.passed() {
        return cmp;
    }
    let schema = |doc: &JsonValue| {
        doc.get("schema")
            .and_then(JsonValue::as_str)
            .map(String::from)
    };
    let (cur_schema, base_schema) = (schema(current), schema(baseline));
    if cur_schema != base_schema {
        cmp.errors.push(format!(
            "schema mismatch: current {cur_schema:?} vs baseline {base_schema:?} \
             (regenerate the baseline artifact)"
        ));
        return cmp;
    }

    let rows = |doc: &JsonValue| -> Vec<JsonValue> {
        doc.get("benches")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    };
    let cur_rows = rows(current);
    for row in rows(baseline) {
        let Some(name) = row.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(cur) = cur_rows
            .iter()
            .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            cmp.errors
                .push(format!("bench '{name}' missing from current report"));
            continue;
        };
        // Work counters are deterministic: the benchmark must process the
        // same work as when the baseline was recorded.
        for key in ["work", "unit"] {
            let (b, c) = (row.get(key), cur.get(key));
            if b.map(JsonValue::render) != c.map(JsonValue::render) {
                cmp.errors.push(format!(
                    "bench '{name}': deterministic field '{key}' drifted: \
                     baseline {:?} vs current {:?}",
                    b.map(JsonValue::render),
                    c.map(JsonValue::render)
                ));
            }
        }
        if let (Some(b), Some(c)) = (
            row.get("ns_per_unit").and_then(JsonValue::as_f64),
            cur.get("ns_per_unit").and_then(JsonValue::as_f64),
        ) {
            if !banded(c, b, tolerance) {
                cmp.warnings.push(format!(
                    "bench '{name}': ns_per_unit {c:.1} vs baseline {b:.1} \
                     ({:.2}x; band ±{:.0}%) — wall-clock drift is advisory",
                    c / b,
                    tolerance * 100.0
                ));
            }
        }
    }

    match (current.get("profile"), baseline.get("profile")) {
        (Some(cur), Some(base)) => {
            let scen = |p: &JsonValue| p.get("scenario").map(JsonValue::render);
            if scen(cur) != scen(base) {
                cmp.errors.push(format!(
                    "profile scenario drifted: baseline {:?} vs current {:?}",
                    scen(base),
                    scen(cur)
                ));
            }
            let det = |p: &JsonValue| p.get("deterministic").map(JsonValue::render);
            if det(cur) != det(base) {
                cmp.errors.push(
                    "profile deterministic section drifted from baseline: event \
                     dispatch and region event counts must be \
                     byte-identical (regenerate the baseline if the change is \
                     intentional)"
                        .to_string(),
                );
            }
            if let (Some(b), Some(c)) = (
                base.get("wallclock")
                    .and_then(|w| w.get("events_per_sec"))
                    .and_then(JsonValue::as_f64),
                cur.get("wallclock")
                    .and_then(|w| w.get("events_per_sec"))
                    .and_then(JsonValue::as_f64),
            ) {
                if !banded(c, b, tolerance) {
                    cmp.warnings.push(format!(
                        "profile: events_per_sec {c:.0} vs baseline {b:.0} \
                         ({:.2}x; band ±{:.0}%) — wall-clock drift is advisory",
                        c / b,
                        tolerance * 100.0
                    ));
                }
            }
        }
        (None, None) => {}
        (cur, _) => cmp.errors.push(format!(
            "profile section present in only one report (current has it: {})",
            cur.is_some()
        )),
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile(events: u64, eps: f64) -> JsonValue {
        JsonValue::object()
            .with("scenario", JsonValue::str(PROFILE_PRESET))
            .with(
                "deterministic",
                JsonValue::object().with("events_dispatched", JsonValue::int(events)),
            )
            .with(
                "wallclock",
                JsonValue::object()
                    .with("enabled", JsonValue::Bool(true))
                    .with("events_per_sec", JsonValue::num(eps)),
            )
    }

    fn sample_doc(median_ns: u64, work: u64, events: u64, eps: f64) -> JsonValue {
        let entries = vec![BenchEntry {
            name: "engine.route",
            median: Duration::from_nanos(median_ns),
            work,
            unit: "routes",
        }];
        to_json("unit", &entries, sample_profile(events, eps))
    }

    #[test]
    fn json_document_shape() {
        let doc = sample_doc(250, 1, 9, 1e6).render();
        assert!(doc.contains("\"schema\":\"coarse.selfbench/v2\""));
        assert!(doc.contains("\"label\":\"unit\""));
        assert!(doc.contains("\"median_ns\":250"));
        assert!(doc.contains("\"ns_per_unit\":250"));
        assert!(doc.contains("\"profile\":{\"scenario\":\"fig16d\""));
        assert!(doc.contains("\"events_dispatched\":9"));
    }

    #[test]
    fn wallclock_section_names_its_preset_and_denominator() {
        let summary = profile_summary();
        let wall = summary.get("wallclock").expect("wallclock section");
        assert_eq!(
            wall.get("preset").and_then(JsonValue::as_str),
            Some(PROFILE_PRESET)
        );
        let denom = wall
            .get("events_dispatched")
            .and_then(JsonValue::as_u64)
            .expect("event denominator");
        assert!(denom > 0, "profiled run dispatched no events");
        assert_eq!(
            summary
                .get("deterministic")
                .and_then(|d| d.get("events_dispatched"))
                .and_then(JsonValue::as_u64),
            Some(denom),
            "wallclock denominator must mirror the deterministic count"
        );
    }

    #[test]
    fn identical_reports_compare_clean() {
        let doc = sample_doc(250, 1, 9, 1e6);
        let cmp = compare_reports(&doc, &doc, WALL_TOLERANCE);
        assert!(cmp.passed(), "errors: {:?}", cmp.errors);
        assert!(cmp.warnings.is_empty(), "warnings: {:?}", cmp.warnings);
    }

    #[test]
    fn unreadable_baseline_rows_and_members_fail_the_comparison() {
        let doc = sample_doc(250, 1, 9, 1e6);
        let rename = |from: &str, to: &str| {
            JsonValue::parse(&doc.render().replacen(from, to, 1)).expect("still JSON")
        };
        for broken in [
            rename("\"name\"", "\"nbme\""),
            rename("\"benches\"", "\"bdnches\""),
        ] {
            let cmp = compare_reports(&doc, &broken, WALL_TOLERANCE);
            assert!(!cmp.passed(), "{}", broken.render());
        }
    }

    #[test]
    fn wall_clock_drift_is_a_warning_not_an_error() {
        let base = sample_doc(250, 1, 9, 1e6);
        let cur = sample_doc(2500, 1, 9, 1e5); // 10x slower on both axes
        let cmp = compare_reports(&cur, &base, WALL_TOLERANCE);
        assert!(cmp.passed(), "wall drift must not fail: {:?}", cmp.errors);
        assert_eq!(cmp.warnings.len(), 2, "warnings: {:?}", cmp.warnings);
    }

    #[test]
    fn small_wall_drift_stays_inside_the_band() {
        let base = sample_doc(250, 1, 9, 1e6);
        let cur = sample_doc(300, 1, 9, 1.2e6); // 1.2x — inside ±50%
        let cmp = compare_reports(&cur, &base, WALL_TOLERANCE);
        assert!(cmp.passed());
        assert!(cmp.warnings.is_empty(), "warnings: {:?}", cmp.warnings);
    }

    #[test]
    fn deterministic_drift_is_a_hard_failure() {
        let base = sample_doc(250, 1, 9, 1e6);
        // Same timings, different deterministic fields: work counter and
        // profiled event count.
        let cur = sample_doc(250, 2, 10, 1e6);
        let cmp = compare_reports(&cur, &base, WALL_TOLERANCE);
        assert!(!cmp.passed());
        assert_eq!(cmp.errors.len(), 2, "errors: {:?}", cmp.errors);
    }

    #[test]
    fn schema_mismatch_fails_fast() {
        let base = JsonValue::object().with("schema", JsonValue::str("coarse.selfbench/v1"));
        let cur = sample_doc(250, 1, 9, 1e6);
        let cmp = compare_reports(&cur, &base, WALL_TOLERANCE);
        assert!(!cmp.passed());
        assert_eq!(cmp.errors.len(), 1);
    }
}
