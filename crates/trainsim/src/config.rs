//! Experiment configuration and result types.

use coarse_fabric::device::DeviceId;
use coarse_simcore::time::SimDuration;

/// The parameter-synchronization scheme under test (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Naive centralized CCI parameter server (Fig. 5).
    Dense,
    /// NCCL-style ring AllReduce among the worker GPUs, no CCI memory.
    AllReduce,
    /// COARSE: decentralized synchronization over CCI memory devices.
    Coarse,
}

impl Scheme {
    /// Label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Dense => "DENSE",
            Scheme::AllReduce => "AllReduce",
            Scheme::Coarse => "COARSE",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Steady-state results of one simulated training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainResult {
    /// Steady-state time per iteration.
    pub iteration_time: SimDuration,
    /// Pure compute per iteration (`T_FP + T_BP`).
    pub compute_time: SimDuration,
    /// Communication time that blocks training compute per iteration
    /// (Fig. 17's metric): `iteration_time − compute_time`.
    pub blocked_comm: SimDuration,
    /// Samples per second across all workers.
    pub throughput: f64,
}

impl TrainResult {
    /// Builds a result from period and compute time.
    ///
    /// # Panics
    ///
    /// Panics if the period is shorter than the compute time.
    pub fn new(iteration_time: SimDuration, compute_time: SimDuration, global_batch: u32) -> Self {
        let blocked_comm = iteration_time.saturating_sub(compute_time);
        TrainResult {
            iteration_time,
            compute_time,
            blocked_comm,
            throughput: global_batch as f64 / iteration_time.as_secs_f64(),
        }
    }

    /// GPU compute utilization: compute / iteration time.
    pub fn gpu_utilization(&self) -> f64 {
        self.compute_time.as_secs_f64() / self.iteration_time.as_secs_f64()
    }

    /// Fraction of the iteration spent in blocking communication.
    pub fn comm_fraction(&self) -> f64 {
        self.blocked_comm.as_secs_f64() / self.iteration_time.as_secs_f64()
    }

    /// Speedup of this result over `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &TrainResult) -> f64 {
        baseline.iteration_time.as_secs_f64() / self.iteration_time.as_secs_f64()
    }
}

/// Errors from experiment setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The requested batch does not fit in GPU memory under this scheme.
    OutOfMemory {
        /// The requested per-GPU batch size.
        batch: u32,
        /// The largest batch that would fit.
        max_batch: u32,
    },
    /// The preset name is not one of the known Fig. 16 panels.
    UnknownPreset {
        /// The rejected name.
        name: String,
    },
    /// The machine's partition leaves no worker GPUs to train on.
    NoWorkers,
    /// COARSE needs a proxy tier of at least two memory devices.
    NoProxyTier {
        /// How many memory devices the partition actually has.
        mem_devices: usize,
    },
    /// A per-GPU batch of zero trains nothing.
    ZeroBatch,
    /// Steady-state measurement needs at least two iterations.
    TooFewIterations {
        /// The rejected iteration count.
        iterations: u32,
    },
    /// The model has no parameter bytes to synchronize.
    EmptyModel,
    /// A chaos repro document failed to parse or validate.
    BadRepro {
        /// What was wrong with it.
        reason: String,
    },
    /// A COARSE fault plan drops a worker GPU; only the proxy tier can
    /// fail over.
    WorkerDropout {
        /// The dropped worker.
        device: DeviceId,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::OutOfMemory { batch, max_batch } => write!(
                f,
                "batch {batch} exceeds GPU memory (max {max_batch} for this scheme)"
            ),
            TrainError::UnknownPreset { name } => {
                write!(f, "unknown scenario preset {name:?}")
            }
            TrainError::NoWorkers => f.write_str("the partition has no worker GPUs"),
            TrainError::NoProxyTier { mem_devices } => write!(
                f,
                "COARSE needs at least two memory devices, the partition has {mem_devices}"
            ),
            TrainError::ZeroBatch => f.write_str("per-GPU batch size must be at least 1"),
            TrainError::TooFewIterations { iterations } => write!(
                f,
                "need at least 2 iterations for a steady-state period, got {iterations}"
            ),
            TrainError::EmptyModel => {
                f.write_str("the model has no parameter bytes to synchronize")
            }
            TrainError::BadRepro { reason } => write!(f, "bad chaos repro: {reason}"),
            TrainError::WorkerDropout { device } => write!(
                f,
                "the fault plan drops worker GPU {device}; only proxy-tier devices can fail over"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_arithmetic() {
        let r = TrainResult::new(
            SimDuration::from_millis(500),
            SimDuration::from_millis(400),
            256,
        );
        assert_eq!(r.blocked_comm, SimDuration::from_millis(100));
        assert!((r.gpu_utilization() - 0.8).abs() < 1e-12);
        assert!((r.comm_fraction() - 0.2).abs() < 1e-12);
        assert!((r.throughput - 512.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_direction() {
        let fast = TrainResult::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(90),
            8,
        );
        let slow = TrainResult::new(
            SimDuration::from_millis(400),
            SimDuration::from_millis(90),
            8,
        );
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
        assert!(slow.speedup_over(&fast) < 1.0);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Dense.label(), "DENSE");
        assert_eq!(Scheme::Coarse.to_string(), "COARSE");
    }
}
