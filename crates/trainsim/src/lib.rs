//! # coarse-trainsim
//!
//! The end-to-end distributed-training simulator: binds the model zoo, the
//! fabric, and the synchronization schemes into per-iteration timelines and
//! reports the paper's metrics — iteration time, blocked communication, GPU
//! utilization, and throughput (Figs. 2, 16, 17).

#![warn(missing_docs)]

pub mod allreduce;
pub mod chaos;
pub mod coarse;
pub mod config;
pub mod dense;
pub mod explain;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod scaling;
pub mod scenario;
pub mod straggler;
pub mod timeline;
pub mod traceexport;

pub use allreduce::simulate_allreduce;
pub use chaos::{
    replay as chaos_replay, run_case as chaos_run_case, soak as chaos_soak, universe_for,
    CaseReport, ChaosFailure, ChaosRepro, SoakConfig, SoakOutcome, REPRO_SCHEMA,
};
pub use coarse::{
    coarse_hotspots, record_coarse_metrics, record_coarse_profile, record_coarse_trace,
    result_fingerprint, simulate_coarse, simulate_coarse_with_input, trace_coarse,
    FaultyTrainResult, RecoveringTrainResult, Sabotage,
};
pub use config::{Scheme, TrainError, TrainResult};
pub use dense::{simulate_dense, simulate_dense_explained, simulate_dense_faulty};
pub use explain::{explain_preset, explain_scenario, ExplainRun, ExplainedScheme};
pub use profile::{profile_preset, profile_scenario, ProfileRun};
pub use recovery::{
    interval_sweep, plan_clear_instant, recovery_report, reference_schedule, RecoveryReport,
    RecoverySweep, RECOVERY_SCHEMA,
};
pub use report::{FaultRunSummary, RunReport, SchemeOutcome, SchemeRun};
pub use scaling::{node_scaling, ScalingPoint};
pub use scenario::Scenario;
pub use straggler::{
    compare_straggler, run_straggler, run_straggler_profiled, StragglerConfig, StragglerResult,
    SyncModel,
};
pub use timeline::{IterationTrace, PhaseKind, PhaseSpan};
pub use traceexport::{chrome_trace_json, summary_table};

use coarse_fabric::machines::GpuSku;
use coarse_models::gpu::GpuCompute;

/// The compute model for a machine's GPU SKU.
pub fn gpu_for(sku: GpuSku) -> GpuCompute {
    match sku {
        GpuSku::T4 => GpuCompute::t4(),
        GpuSku::P100 => GpuCompute::p100(),
        GpuSku::V100 => GpuCompute::v100(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_fabric::machines::{aws_v100, PartitionScheme};
    use coarse_models::zoo::bert_large;

    #[test]
    fn oom_detected_for_allreduce_batch4() {
        let err = Scenario::new("adhoc", aws_v100(), bert_large())
            .partition(PartitionScheme::OneToOne)
            .batch_per_gpu(4)
            .iterations(2)
            .scheme(Scheme::AllReduce)
            .run()
            .unwrap_err();
        assert!(matches!(err, TrainError::OutOfMemory { max_batch: 3, .. }));
    }

    #[test]
    fn coarse_fits_batch4() {
        let run = Scenario::new("adhoc", aws_v100(), bert_large())
            .partition(PartitionScheme::OneToOne)
            .batch_per_gpu(4)
            .iterations(2)
            .scheme(Scheme::Coarse)
            .run();
        assert!(run.is_ok());
    }
}
