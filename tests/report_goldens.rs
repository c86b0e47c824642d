//! Golden-output equality gate for the simulator's report documents.
//!
//! The event-core rewrite (calendar queue, route caching, zero-alloc hot
//! paths) is a pure performance change: the `coarse.run-report/v1` and
//! `coarse.explain-report/v1` documents for every Fig. 16 preset must stay
//! **byte-identical** to the pre-rewrite output. The fixtures under
//! `tests/goldens/` were captured from the reference (`BinaryHeap` +
//! uncached-Dijkstra) implementation; any timing or ordering drift in the
//! hot path shows up here as a byte diff.
//!
//! The `coarse.recovery-report/v1` document of every preset and one
//! fault-injected fig16d run report pin the fault and recovery loops the
//! same way; their fixtures were captured before fault-plan transfers
//! started reusing cached routes outside flap windows. The deterministic
//! section of fig16d's `coarse.profile-report/v1` is pinned as well.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test report_goldens
//! ```

use std::fs;
use std::path::PathBuf;

use coarse_core::resilience::RecoveryPolicy;
use coarse_fabric::device::DeviceId;
use coarse_fabric::machines::{aws_v100, PartitionScheme};
use coarse_fabric::topology::LinkClass;
use coarse_simcore::faults::{FaultPlan, FaultSpec};
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_trainsim::{explain_preset, profile_preset, recovery_report, Scenario};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `got` against the committed fixture, or rewrites the fixture
/// when `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create goldens dir");
        fs::write(&path, got).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted from its golden fixture; the hot-path rewrite must be \
         byte-identical (regenerate with UPDATE_GOLDENS=1 only for intentional \
         semantic changes)"
    );
}

#[test]
fn run_reports_match_pre_rewrite_goldens() {
    for preset in Scenario::presets() {
        let report = Scenario::preset(preset).report().render();
        check_golden(&format!("run-report-{preset}.json"), &report);
    }
}

#[test]
fn explain_reports_match_pre_rewrite_goldens() {
    for preset in Scenario::presets() {
        let run = explain_preset(preset).expect("preset explains");
        let mut doc = run.report_json().render_pretty();
        doc.push('\n');
        check_golden(&format!("explain-report-{preset}.json"), &doc);
    }
}

/// Iterations per recovery report, as `figures -- recover` runs them.
const RECOVER_ITERATIONS: u32 = 6;

#[test]
fn recovery_reports_match_goldens() {
    for preset in Scenario::presets() {
        let report = recovery_report(preset, RECOVER_ITERATIONS, &RecoveryPolicy::default())
            .expect("preset recovers");
        let mut doc = report.render();
        doc.push('\n');
        check_golden(&format!("recovery-report-{preset}.json"), &doc);
    }
}

/// A fig16d fault plan exercising every engine fault path: a flap on the
/// first worker's PCIe uplink (transfers arriving in the window route
/// around it or wait it out), a degraded uplink and a corruption window on
/// the first proxy, and a dropout of the second proxy.
fn fig16d_fault_plan() -> FaultPlan {
    let machine = aws_v100();
    let topo = machine.topology();
    let part = machine.partition(PartitionScheme::OneToOne);
    let uplink = |d: DeviceId| {
        let link = topo
            .links()
            .find(|l| l.src() == d && l.class() == LinkClass::Pcie)
            .expect("every GPU has a PCIe uplink");
        (d.index() as u32, link.dst().index() as u32)
    };
    let ms = |m: u64| SimTime::ZERO + SimDuration::from_millis(m);
    let (wa, wb) = uplink(part.workers[0]);
    let (pa, pb) = uplink(part.mem_devices[0]);
    let proxy = part.mem_devices[0].index() as u32;
    FaultPlan::new(0xF16D)
        .flap_link(wa, wb, ms(300), ms(310))
        .degrade_link(pa, pb, ms(250), ms(450), 3.0)
        .corrupt_transfers(proxy, ms(20), ms(280), 150_000)
        .drop_device(part.mem_devices[1].index() as u32, ms(620))
}

#[test]
fn faulty_run_report_matches_golden() {
    let plan = fig16d_fault_plan();
    let report = Scenario::preset("fig16d").faults(plan.clone()).report();
    let faults = report.faults.as_ref().expect("fault summary present");
    assert!(faults.retries > 0 && faults.failovers > 0, "{faults:?}");
    // The flap must bite, or the golden would not pin flap-time routing.
    let specs = plan.specs();
    let unflapped: Vec<FaultSpec> = specs
        .iter()
        .copied()
        .filter(|s| !matches!(s, FaultSpec::Flap(_)))
        .collect();
    assert_eq!(unflapped.len() + 1, specs.len());
    let without = Scenario::preset("fig16d")
        .faults(FaultPlan::from_specs(plan.seed(), &unflapped))
        .report();
    assert_ne!(
        without.faults, report.faults,
        "the flap window changes the run"
    );
    check_golden("run-report-fig16d-faulty.json", &report.render());
}

#[test]
fn profile_report_deterministic_section_matches_golden() {
    let run = profile_preset("fig16d").expect("preset profiles");
    let mut doc = run.deterministic_json().render_pretty();
    doc.push('\n');
    check_golden("profile-fig16d.json", &doc);
}
