//! A dependency-free micro-benchmark harness.
//!
//! The `benches/` binaries run on this instead of an external framework so
//! the workspace builds and benches fully offline. The loop is the classic
//! shape: warm up, time batches of the closure with [`std::time::Instant`],
//! and report the median over a configurable number of samples.
//!
//! Knobs (environment variables):
//! - `COARSE_BENCH_SAMPLES` — samples per benchmark (default 20);
//! - `COARSE_BENCH_MIN_BATCH_MS` — target milliseconds per timed batch
//!   (default 5; raises the iteration count until a batch takes this long).

use std::time::{Duration, Instant};

/// Re-export so benches can `use coarse_bench::harness::black_box`.
pub use std::hint::black_box;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One group of related benchmarks, printed under a common heading.
pub struct Bench {
    group: String,
    samples: u64,
    min_batch: Duration,
}

impl Bench {
    /// Start a benchmark group with the given heading.
    pub fn group(name: &str) -> Self {
        println!("\n== {name} ==");
        Bench {
            group: name.to_string(),
            samples: env_u64("COARSE_BENCH_SAMPLES", 20).max(1),
            min_batch: Duration::from_millis(env_u64("COARSE_BENCH_MIN_BATCH_MS", 5)),
        }
    }

    /// Time `f` and print its median per-iteration latency.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Duration {
        let per_iter = self.measure(&mut f);
        println!(
            "{:<44} {:>14}/iter",
            self.label(name),
            fmt_duration(per_iter)
        );
        per_iter
    }

    /// Time `f`, which processes `bytes` per iteration, and print both the
    /// median latency and the implied throughput.
    pub fn run_bytes<R>(&self, name: &str, bytes: u64, mut f: impl FnMut() -> R) -> Duration {
        let per_iter = self.measure(&mut f);
        let secs = per_iter.as_secs_f64();
        let gib_s = if secs > 0.0 {
            bytes as f64 / secs / (1u64 << 30) as f64
        } else {
            f64::INFINITY
        };
        println!(
            "{:<44} {:>14}/iter  {:>10.3} GiB/s",
            self.label(name),
            fmt_duration(per_iter),
            gib_s
        );
        per_iter
    }

    fn label(&self, name: &str) -> String {
        format!("{}/{}", self.group, name)
    }

    fn measure<R>(&self, f: &mut impl FnMut() -> R) -> Duration {
        // Grow the batch size until one batch meets the time floor, so
        // sub-microsecond closures are still timed against clock noise.
        let mut iters: u64 = 1;
        loop {
            let t = Self::time_batch(f, iters);
            if t >= self.min_batch || iters >= 1 << 24 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        let mut samples: Vec<Duration> = (0..self.samples)
            .map(|_| Self::time_batch(f, iters) / iters as u32)
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    fn time_batch<R>(f: &mut impl FnMut() -> R, iters: u64) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let b = Bench {
            group: "t".into(),
            samples: 3,
            min_batch: Duration::from_micros(50),
        };
        // Opaque bounds and terms keep release builds from folding the sum
        // into a constant, which would time nothing.
        let d = b.run("spin", || {
            (0..black_box(100u64)).map(black_box).sum::<u64>()
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn throughput_variant_runs() {
        let b = Bench {
            group: "t".into(),
            samples: 2,
            min_batch: Duration::from_micros(10),
        };
        let buf = vec![1u8; 4096];
        b.run_bytes("sum", buf.len() as u64, || {
            buf.iter().map(|&x| x as u64).sum::<u64>()
        });
    }

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(150)), "150.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(25)), "25.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }
}
