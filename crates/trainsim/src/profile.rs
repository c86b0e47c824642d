//! Self-profiling harness: one [`Profiler`] observing a representative
//! slice of the whole simulator.
//!
//! The COARSE training path is analytic (transfer engine plus resource
//! timelines), so a profile of a training run alone would leave the
//! per-event-type dispatch counters empty. This harness therefore runs,
//! under a single shared profiler:
//!
//! 1. the profiled COARSE run itself (`train.*`, `fabric.link`, and
//!    `cci.sync_ring` regions, plus the synthesized proxy-queue depths),
//! 2. the event-loop workloads — the straggler study and the timed proxy
//!    service — exercising the dispatch counters (one per handled event)
//!    and the `core.proxy` region,
//! 3. the functional sync-core ring and the coherence directory
//!    (`cci.sync_ring` steps, `cci.coherence` protocol messages).
//!
//! The resulting [`Profiler::report_json`] document
//! (`coarse.profile-report/v1`) splits a **deterministic** section —
//! byte-identical across runs and platforms — from a **wall-clock** section
//! (host-dependent; present only with the `prof-wallclock` feature).

use coarse_cci::address::CciAddr;
use coarse_cci::coherence::Directory;
use coarse_cci::synccore::{RingDirection, SyncGroup};
use coarse_core::deadlock::SchedulingPolicy;
use coarse_core::service::{round_robin_jobs, run_service_profiled};
use coarse_simcore::json::JsonValue;
use coarse_simcore::prof::Profiler;
use coarse_simcore::time::SimDuration;
use coarse_simcore::units::ByteSize;

use crate::coarse::record_coarse_profile;
use crate::config::{TrainError, TrainResult};
use crate::scenario::Scenario;
use crate::straggler::{run_straggler_profiled, StragglerConfig, SyncModel};

/// A completed profiling run: the timing result of the profiled COARSE run
/// plus the profiler holding every recorded statistic.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Scenario label the profile was captured under.
    pub scenario: String,
    /// Timing result of the profiled COARSE run (identical to the
    /// unprofiled [`Scenario::run`] result).
    pub result: TrainResult,
    /// The shared profiler, for direct inspection.
    pub profiler: Profiler,
}

impl ProfileRun {
    /// The full `coarse.profile-report/v1` document.
    pub fn report_json(&self) -> JsonValue {
        self.profiler.report_json(&self.scenario)
    }

    /// The deterministic section alone (byte-identical across runs).
    pub fn deterministic_json(&self) -> JsonValue {
        self.profiler.deterministic_json()
    }

    /// Collapsed-stack lines (`sim;region;child weight`) for flamegraph
    /// tooling.
    pub fn folded(&self) -> String {
        self.profiler.folded()
    }
}

/// Profiles the named scenario preset (see [`Scenario::presets`]).
///
/// # Errors
///
/// Returns [`TrainError::UnknownPreset`] for an unknown name, or any
/// validation error [`profile_scenario`] reports.
pub fn profile_preset(name: &str) -> Result<ProfileRun, TrainError> {
    profile_scenario(&Scenario::try_preset(name)?)
}

/// Runs the profiling harness for `scenario`: a profiled COARSE run plus
/// the straggler, service, sync-core, and coherence workloads, all recording
/// into one shared [`Profiler`].
///
/// # Errors
///
/// Returns a [`TrainError`] if the scenario fails validation, the batch
/// does not fit, or the partition has no proxy tier (the harness always
/// profiles the COARSE path, whatever the scenario's scheme).
pub fn profile_scenario(scenario: &Scenario) -> Result<ProfileRun, TrainError> {
    scenario.validate()?;
    scenario.check_memory()?;
    let machine = scenario.machine_ref();
    let part = machine.partition(scenario.partition_scheme());
    if part.mem_devices.len() < 2 {
        return Err(TrainError::NoProxyTier {
            mem_devices: part.mem_devices.len(),
        });
    }
    let profiler = Profiler::new();

    // 1. The COARSE run (pilots stay unprofiled; the profile covers exactly
    //    one final run).
    let result = record_coarse_profile(
        machine,
        &part,
        scenario.model_ref(),
        scenario.batch(),
        scenario.iters(),
        profiler.clone(),
    );

    // 2. Event-loop workloads: straggler sensitivity and the timed proxy
    //    service, sized from the scenario's partition.
    let workers = part.workers.len().max(2);
    run_straggler_profiled(
        StragglerConfig {
            workers,
            iterations: 20,
            compute: SimDuration::from_millis(245),
            jitter_sigma: 0.2,
            sync: SyncModel::Overlapped {
                tail: SimDuration::from_millis(20),
                slack: SimDuration::from_millis(80),
            },
            seed: 7,
        },
        Some(profiler.clone()),
    );
    let proxies = part.mem_devices.len();
    run_service_profiled(
        proxies,
        2,
        SchedulingPolicy::PerClientQueues,
        round_robin_jobs(32, workers, proxies, SimDuration::from_millis(1)),
        Some(profiler.clone()),
    );

    // 3. Functional sync-core ring and coherence directory over the same
    //    proxy tier.
    let mut group = SyncGroup::new(proxies, 128, RingDirection::Forward);
    group.set_profiler(profiler.clone());
    let inputs: Vec<Vec<f32>> = (0..proxies)
        .map(|i| (0..1024).map(|j| ((i * 31 + j * 7) % 97) as f32).collect())
        .collect();
    let _ = group.allreduce_sum(&inputs);

    let mut dir = Directory::new();
    dir.set_profiler(profiler.clone());
    let region = CciAddr(0x1000);
    let payload = ByteSize::kib(64);
    for &d in &part.mem_devices {
        dir.read(region, d, payload);
    }
    dir.write(region, part.mem_devices[0], payload);

    // Freeze the ambient measurements (wall elapsed, global allocation
    // counters): a later profiled run in the same process must not leak
    // into this run's report.
    profiler.seal();

    Ok(ProfileRun {
        scenario: scenario.name().to_string(),
        result,
        profiler,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_every_layer() {
        let run = profile_preset("fig16d").expect("preset profiles");
        let det = run.deterministic_json().render();
        for region in [
            "fabric.link",
            "cci.sync_ring",
            "cci.coherence",
            "core.proxy",
            "train.compute",
            "train.push",
            "train.collective",
            "train.pull",
        ] {
            assert!(
                run.profiler.region_events(region) > 0,
                "region {region} has no events: {det}"
            );
        }
        assert!(
            run.profiler.events_dispatched() > 0,
            "no event was dispatched"
        );
    }

    #[test]
    fn deterministic_section_is_byte_identical() {
        let a = profile_preset("fig16b").expect("preset profiles");
        let b = profile_preset("fig16b").expect("preset profiles");
        assert_eq!(
            a.deterministic_json().render(),
            b.deterministic_json().render()
        );
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn profiling_does_not_perturb_the_run() {
        let scenario = Scenario::preset("fig16d");
        let bare = scenario.run().expect("fig16d fits");
        let profiled = profile_scenario(&scenario).expect("fig16d profiles");
        assert_eq!(bare, profiled.result, "profiler must be observation-only");
    }

    #[test]
    fn profiling_does_not_perturb_the_run_report() {
        // Mirrors the PR 1 trace zero-perturbation test at the RunReport
        // level: a profiled run in between must not change a single byte of
        // the fidelity report.
        let scenario = Scenario::preset("fig16a");
        let before = scenario.report().render();
        let profiled = profile_scenario(&scenario).expect("fig16a profiles");
        let after = scenario.report().render();
        assert_eq!(before, after, "profiled run perturbed RunReport output");
        assert!(profiled.profiler.events_dispatched() > 0);
    }

    #[test]
    fn unknown_preset_is_an_error() {
        assert!(matches!(
            profile_preset("fig99"),
            Err(TrainError::UnknownPreset { .. })
        ));
    }
}
