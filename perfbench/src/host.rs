//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts where neighbours' memory traffic can
//! slow an allocation-heavy single-threaded program by up to 1.9× for
//! stretches of tens of seconds, while a pure integer loop stays within a
//! few percent. A best-of-R minimum cannot filter a slow stretch longer than
//! the run. So every op is paired with [`task`], a fixed allocation-heavy
//! task that depends on no simulator code, timed just before the op; host
//! times are reported scaled by [`REFERENCE_SECS`] over the task's local
//! time: milliseconds of a host that runs the task in [`REFERENCE_SECS`].
//! On such a host, unscaled and scaled times agree.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The task's time on the host the benchmark was defined on (a 2-core
/// Intel Xeon KVM guest) when no neighbour contends for memory.
pub const REFERENCE_SECS: f64 = 0.45e-3;

/// Samples on each side of an op whose task times are pooled (by median)
/// into that op's host-speed estimate: the task is short, so one sample is
/// noisier than the contention it tracks, which changes over seconds.
pub const POOL_HALF_WIDTH: usize = 4;

/// Runs the calibration task once and returns its host time in seconds:
/// four rounds of boxing 1000 small arrays and indexing them in a
/// `BTreeMap`, then freeing everything.
pub fn task() -> f64 {
    let start = Instant::now();
    for round in 0..4u64 {
        let boxes: Vec<Box<[u64; 4]>> = (0..1000).map(|i| Box::new([i ^ round; 4])).collect();
        let mut index = BTreeMap::new();
        for (i, b) in boxes.iter().enumerate() {
            index.insert((i as u64).wrapping_mul(2_654_435_761) % 100_000, b[0]);
        }
        black_box(&index);
    }
    start.elapsed().as_secs_f64()
}

/// Scale factors (`REFERENCE_SECS` / pooled task time) for a sequence of
/// task times taken one per op, in op order.
pub fn scale_factors(task_secs: &[f64]) -> Vec<f64> {
    (0..task_secs.len())
        .map(|i| {
            let lo = i.saturating_sub(POOL_HALF_WIDTH);
            let hi = (i + POOL_HALF_WIDTH + 1).min(task_secs.len());
            REFERENCE_SECS / crate::stats::percentile(&task_secs[lo..hi], 50)
        })
        .collect()
}
