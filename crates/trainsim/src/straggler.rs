//! Straggler sensitivity (§II-B).
//!
//! "MPI creates a synchronous point that forces the faster workers to wait
//! for the slower ones, hence degrading the computation utilization of
//! worker devices." This module quantifies that: per-iteration compute
//! times jitter per worker, and we compare a barrier collective (AllReduce)
//! against COARSE's overlapped proxy synchronization, where a fast worker
//! may run ahead into its next forward pass up to the parameter-deadline
//! slack before it actually needs the slowest worker's contribution.
//!
//! Both models are a recurrence over iterations: an iteration closes when
//! its slowest worker arrives, and each worker's next compute starts from
//! that close as its sync model allows.

use coarse_simcore::prelude::*;

/// How workers synchronize at the end of each iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncModel {
    /// Blocking collective: everyone waits for the slowest, then pays
    /// `sync` together (MPI/NCCL AllReduce).
    Barrier {
        /// Duration of the blocking collective.
        sync: SimDuration,
    },
    /// COARSE: each worker pays only its local `tail` (the GPU-synced
    /// shallow layers), and may run `slack` deep into the next iteration
    /// before the slowest worker's contributions are actually needed.
    Overlapped {
        /// Local blocking tail per worker.
        tail: SimDuration,
        /// How far a worker can run ahead before needing the global sync.
        slack: SimDuration,
    },
}

/// Configuration of one straggler experiment.
#[derive(Debug, Clone)]
pub struct StragglerConfig {
    /// Number of workers.
    pub workers: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Nominal per-iteration compute time.
    pub compute: SimDuration,
    /// Multiplicative jitter: each worker-iteration's compute is
    /// `compute × (1 + |N(0, σ)|)`.
    pub jitter_sigma: f64,
    /// The synchronization model.
    pub sync: SyncModel,
    /// RNG seed (same seed ⇒ identical jitter across sync models).
    pub seed: u64,
}

/// Results of a straggler run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerResult {
    /// Total makespan of all iterations.
    pub makespan: SimDuration,
    /// Mean time per worker-iteration spent waiting on others.
    pub mean_wait: SimDuration,
    /// 99th-percentile wait (the tail a single slow worker inflicts).
    pub p99_wait: SimDuration,
    /// Aggregate compute utilization: compute time / (workers × makespan).
    pub utilization: f64,
}

/// Runs one straggler experiment.
///
/// # Panics
///
/// Panics if `workers` or `iterations` is zero.
pub fn run_straggler(cfg: StragglerConfig) -> StragglerResult {
    run_straggler_profiled(cfg, None)
}

/// [`run_straggler`] with an optional self-profiler: every worker's compute
/// completion counts as one dispatch under the `straggler.compute_done`
/// label. Observation-only — the result is identical with or without the
/// profiler.
///
/// # Panics
///
/// Panics under the same conditions as [`run_straggler`].
pub fn run_straggler_profiled(cfg: StragglerConfig, profiler: Option<Profiler>) -> StragglerResult {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.iterations > 0, "need at least one iteration");
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut total_compute = SimDuration::ZERO;
    let mut total_wait = SimDuration::ZERO;
    let mut waits = QuantileEstimator::new();
    let mut slowest = SimTime::ZERO;
    // Each worker's compute start, then its arrival at the iteration's sync.
    let mut at = vec![SimTime::ZERO; cfg.workers];
    for _ in 0..cfg.iterations {
        // Jitter is drawn in `[iter][worker]` order.
        for a in &mut at {
            let jitter = rng.next_gaussian().abs() * cfg.jitter_sigma;
            let compute = cfg.compute.mul_f64(1.0 + jitter);
            total_compute += compute;
            *a += compute;
            if let Some(p) = &profiler {
                p.dispatch("straggler.compute_done");
            }
        }
        slowest = at.iter().copied().max().unwrap_or(SimTime::ZERO);
        for a in &mut at {
            let (wait, start) = match cfg.sync {
                // The barrier releases everyone once the slowest arrives.
                SyncModel::Barrier { sync } => (slowest - *a, slowest + sync),
                // Each worker proceeds after its own tail; it only stalls
                // if it outruns the slowest worker by more than the slack.
                SyncModel::Overlapped { tail, slack } => {
                    let gated = (slowest + tail).saturating_duration_since(*a + tail + slack);
                    (gated, *a + tail + gated)
                }
            };
            total_wait += wait;
            waits.record(wait.as_secs_f64());
            *a = start;
        }
    }
    let makespan = match cfg.sync {
        SyncModel::Barrier { sync } => slowest + sync,
        SyncModel::Overlapped { tail, .. } => slowest + tail,
    } - SimTime::ZERO;
    let mean_wait = total_wait / (cfg.workers as u64 * u64::from(cfg.iterations));
    let p99_wait = waits
        .p99()
        .map(SimDuration::from_secs_f64)
        .unwrap_or(SimDuration::ZERO);
    let utilization = total_compute.as_secs_f64() / (cfg.workers as f64 * makespan.as_secs_f64());
    StragglerResult {
        makespan,
        mean_wait,
        p99_wait,
        utilization,
    }
}

/// Convenience comparison at one jitter level: returns
/// `(barrier, overlapped)` results with identical draws.
pub fn compare_straggler(workers: usize, jitter_sigma: f64) -> (StragglerResult, StragglerResult) {
    let base = StragglerConfig {
        workers,
        iterations: 50,
        compute: SimDuration::from_millis(245),
        jitter_sigma,
        sync: SyncModel::Barrier {
            sync: SimDuration::from_millis(85),
        },
        seed: 7,
    };
    let barrier = run_straggler(base.clone());
    let overlapped = run_straggler(StragglerConfig {
        sync: SyncModel::Overlapped {
            tail: SimDuration::from_millis(20),
            slack: SimDuration::from_millis(80),
        },
        ..base
    });
    (barrier, overlapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_jitter_no_waiting() {
        let cfg = StragglerConfig {
            workers: 4,
            iterations: 10,
            compute: SimDuration::from_millis(100),
            jitter_sigma: 0.0,
            sync: SyncModel::Barrier {
                sync: SimDuration::from_millis(10),
            },
            seed: 1,
        };
        let r = run_straggler(cfg);
        assert_eq!(r.mean_wait, SimDuration::ZERO);
        // 10 iterations × (100 + 10) ms.
        assert_eq!(r.makespan, SimDuration::from_millis(1100));
    }

    #[test]
    fn jitter_makes_barrier_wait() {
        let (barrier, _) = compare_straggler(4, 0.2);
        assert!(barrier.mean_wait > SimDuration::from_millis(5));
        assert!(barrier.utilization < 0.85);
        // The tail is far worse than the mean.
        assert!(barrier.p99_wait > barrier.mean_wait * 2);
    }

    #[test]
    fn overlap_absorbs_stragglers() {
        let (barrier, overlapped) = compare_straggler(4, 0.2);
        assert!(
            overlapped.mean_wait < barrier.mean_wait / 2,
            "overlapped wait {:?} should be far below barrier {:?}",
            overlapped.mean_wait,
            barrier.mean_wait
        );
        assert!(overlapped.makespan < barrier.makespan);
        assert!(overlapped.utilization > barrier.utilization);
    }

    #[test]
    fn waiting_grows_with_worker_count() {
        let (b2, _) = compare_straggler(2, 0.2);
        let (b8, _) = compare_straggler(8, 0.2);
        assert!(
            b8.mean_wait > b2.mean_wait,
            "more workers → worse stragglers: {:?} vs {:?}",
            b8.mean_wait,
            b2.mean_wait
        );
    }

    #[test]
    fn unbounded_slack_never_gates() {
        // With the slack above any drift between workers, each worker runs
        // its own iterations back to back: no wait, and a fast worker's
        // next compute may finish before the slowest closes the current
        // iteration.
        let cfg = |slack| StragglerConfig {
            workers: 8,
            iterations: 50,
            compute: SimDuration::from_millis(245),
            jitter_sigma: 0.4,
            sync: SyncModel::Overlapped {
                tail: SimDuration::from_millis(20),
                slack,
            },
            seed: 7,
        };
        let free = run_straggler(cfg(SimDuration::from_secs(3600)));
        let gated = run_straggler(cfg(SimDuration::ZERO));
        assert_eq!(free.mean_wait, SimDuration::ZERO);
        assert_eq!(free.p99_wait, SimDuration::ZERO);
        assert!(free.makespan < gated.makespan);
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, _) = compare_straggler(4, 0.3);
        let (b, _) = compare_straggler(4, 0.3);
        assert_eq!(a, b);
    }
}
