//! The correctness gate, run untimed before any measurement.
//!
//! Three checks: every Fig. 16 preset report is byte-identical to its
//! committed golden, the paper scorecard has no FAIL, and each workload's
//! first [`GATE_OPS`] default-seed inputs reproduce the output digest
//! recorded below. A failed gate marks every op of the workload failed.

use coarse_bench::expectations::Scorecard;
use coarse_trainsim::Scenario;

use crate::workloads::{digest, Input, Workload, DEFAULT_SEED};

/// Default-seed inputs the digest check runs per workload.
pub const GATE_OPS: usize = 8;

/// Output digest of the first [`GATE_OPS`] inputs of `workload` under
/// [`DEFAULT_SEED`]. A change that alters simulated behaviour changes these;
/// the gate's error message prints the new value.
fn recorded(workload: Workload) -> u64 {
    match workload {
        Workload::Paper => 0x6dc0_1312_0b8c_5493,
        Workload::Steady => 0xac2e_6439_24b7_143a,
        Workload::Chaos => 0xe81a_2a27_ebd2_de41,
        Workload::Recovery => 0x467c_30c6_e351_c7ab,
    }
}

const GOLDENS: [(&str, &str); 5] = [
    (
        "fig16a",
        include_str!("../../tests/goldens/run-report-fig16a.json"),
    ),
    (
        "fig16b",
        include_str!("../../tests/goldens/run-report-fig16b.json"),
    ),
    (
        "fig16c",
        include_str!("../../tests/goldens/run-report-fig16c.json"),
    ),
    (
        "fig16d",
        include_str!("../../tests/goldens/run-report-fig16d.json"),
    ),
    (
        "fig16d-2to1",
        include_str!("../../tests/goldens/run-report-fig16d-2to1.json"),
    ),
];

/// Golden reports and the scorecard: the workload-independent checks.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn program() -> Result<(), String> {
    for (preset, golden) in GOLDENS {
        if Scenario::preset(preset).report().render() != golden {
            return Err(format!("run report of {preset} differs from its golden"));
        }
    }
    let (_, _, fail) = Scorecard::evaluate(None).counts();
    if fail > 0 {
        return Err(format!("scorecard has {fail} FAIL rows"));
    }
    Ok(())
}

/// The digest check for `workload`, with each op executed by `run`: the
/// plain op in a timed run, its span-instrumented replay in a traced one,
/// which shows the spans only observe.
///
/// # Errors
///
/// Reports an op error or a digest mismatch, naming the digest found.
pub fn outputs(
    workload: Workload,
    mut run: impl FnMut(&Input) -> Result<u64, String>,
) -> Result<(), String> {
    let specs = workload.specs(DEFAULT_SEED, workload.size());
    let inputs = workload.materialize(&specs[..GATE_OPS]);
    let fingerprints = inputs
        .iter()
        .map(&mut run)
        .collect::<Result<Vec<u64>, String>>()?;
    let got = digest(&fingerprints);
    let want = recorded(workload);
    if got != want {
        return Err(format!(
            "{} digest {got:#018x} differs from the recorded {want:#018x}",
            workload.name()
        ));
    }
    Ok(())
}
