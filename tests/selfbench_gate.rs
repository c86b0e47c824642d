//! Tier-1 gate: the event-core's deterministic throughput counters must
//! match the committed `BENCH_seed.json` baseline exactly.
//!
//! The self-profiler's kernel dispatch/queue counters and per-region event
//! counts depend only on the simulated program, so any drift against the
//! baseline is a hard failure — the simulation changed behavior without the
//! baseline being regenerated. Wall-clock throughput (events/sec) is
//! machine-dependent and therefore advisory: drift outside the tolerance
//! band prints a warning but never fails the gate.

use coarse_bench::selfbench::{compare_reports, profile_summary, BENCH_SCHEMA, WALL_TOLERANCE};
use coarse_simcore::json::JsonValue;

fn committed_baseline() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_seed.json");
    let text = std::fs::read_to_string(path).expect("BENCH_seed.json is committed at the root");
    JsonValue::parse(&text).expect("BENCH_seed.json parses")
}

#[test]
fn profile_counters_match_committed_bench_baseline() {
    let baseline = committed_baseline();
    // Wrap both profile sections in minimal documents: the gate audits the
    // profiled counters, not the baseline's host-specific bench rows.
    let base_doc = JsonValue::object()
        .with(
            "schema",
            baseline.get("schema").cloned().unwrap_or(JsonValue::Null),
        )
        .with(
            "profile",
            baseline.get("profile").cloned().unwrap_or(JsonValue::Null),
        );
    let cur_doc = JsonValue::object()
        .with("schema", JsonValue::str(BENCH_SCHEMA))
        .with("profile", profile_summary());

    let cmp = compare_reports(&cur_doc, &base_doc, WALL_TOLERANCE);
    for w in &cmp.warnings {
        eprintln!("selfbench gate (advisory): {w}");
    }
    assert!(
        cmp.passed(),
        "deterministic selfbench counters drifted from BENCH_seed.json — the \
         simulated program changed; regenerate the baseline if intentional:\n{}",
        cmp.errors.join("\n")
    );
}

/// The fields [`compare_reports`] holds exact: the schema, the document's
/// members, each bench row's name, work and unit, and the profile's
/// scenario and deterministic section.
fn deterministic_view(doc: &JsonValue) -> String {
    let render = |v: Option<&JsonValue>| v.map(JsonValue::render);
    let members: Vec<&str> = match doc {
        JsonValue::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let rows: Vec<_> = doc
        .get("benches")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .map(|r| {
            (
                render(r.get("name")),
                render(r.get("work")),
                render(r.get("unit")),
            )
        })
        .collect();
    let profile = doc.get("profile");
    format!(
        "{:?} {members:?} {rows:?} {:?} {:?}",
        render(doc.get("schema")),
        render(profile.and_then(|p| p.get("scenario"))),
        render(profile.and_then(|p| p.get("deterministic"))),
    )
}

/// The baseline reader takes arbitrary bytes: `BENCH_seed.json` truncated
/// and with random bits flipped either fails to decode as UTF-8 or to
/// parse, with a typed error, or parses into a document that
/// [`compare_reports`] checks against the intact seed in both directions
/// without panicking. A comparison that passes had every exactly-held
/// field intact; only wall-clock fields may have changed.
#[test]
fn bench_reader_survives_truncation_and_bit_flips() {
    use coarse_simcore::check::{run_cases, Gen};

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_seed.json");
    let bytes = std::fs::read(path).expect("BENCH_seed.json is committed at the root");
    let seed = committed_baseline();
    run_cases(
        "bench_reader_survives_truncation_and_bit_flips",
        512,
        |g: &mut Gen| {
            let mut fuzzed = bytes.clone();
            if g.bool() {
                fuzzed.truncate(g.usize_in(0..bytes.len()));
            }
            for _ in 0..g.usize_in(0..4) {
                if let Some(len) = std::num::NonZeroUsize::new(fuzzed.len()) {
                    let at = g.usize_in(0..len.get());
                    fuzzed[at] ^= 1 << g.usize_in(0..8);
                }
            }
            let Ok(text) = String::from_utf8(fuzzed) else {
                return;
            };
            let Ok(doc) = JsonValue::parse(&text) else {
                return;
            };
            for (current, baseline) in [(&doc, &seed), (&seed, &doc)] {
                let cmp = compare_reports(current, baseline, WALL_TOLERANCE);
                if cmp.passed() {
                    assert_eq!(
                        deterministic_view(&doc),
                        deterministic_view(&seed),
                        "a comparison passed over a changed exact field:\n{text}"
                    );
                }
            }
        },
    );
}
