//! The timed run: seeded closed-loop passes interleaved in rounds,
//! best-of-R host time per input, exact allocation counts.
//!
//! Each round regenerates every workload's inputs from the seed (timed as
//! set-up), then runs one pass per workload, one op at a time on this
//! thread, each op preceded by the host calibration task ([`host`]). An
//! input's op time is the minimum over its passes of its calibrated host
//! time: the calibration absorbs slow stretches of the host, and the
//! minimum filters what is left. Rounds repeat while the next one is
//! expected to end within the time budget. Every op builds a fresh
//! deployment, so the modelled caches (coherence directory, route cache,
//! sync buffers) start empty in every op.

use std::time::{Duration, Instant};

use coarse_simcore::json::JsonValue;

use crate::alloc;
use crate::gate;
use crate::guarded;
use crate::host;
use crate::report::{Metric, Outcome};
use crate::stats::{harrell_davis, keep_min, percentile};
use crate::workloads::{digest, Input, Workload};

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads, in round order.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: f64,
    /// Three inputs per workload and a single round: shows the output
    /// shape without measuring anything meaningful.
    pub smoke: bool,
}

impl Options {
    /// Inputs per pass of `workload`.
    pub fn inputs_per_pass(&self, workload: Workload) -> usize {
        if self.smoke {
            3
        } else {
            workload.size()
        }
    }
}

/// One op execution.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host time.
    pub secs: f64,
    /// Allocation counters.
    pub allocs: alloc::AllocStats,
    /// Peak live heap above its level at the start of the op, in bytes.
    pub heap_peak: i64,
    /// Output fingerprint, or what went wrong.
    pub output: Result<u64, String>,
}

/// Runs one op of `workload` with its host time and heap counted. A panic
/// is caught and reported as a failed op.
pub fn measure(workload: Workload, input: &Input) -> Sample {
    let base = alloc::reset_peak();
    let before = alloc::stats();
    let start = Instant::now();
    let output = guarded(|| workload.run_op(input));
    let secs = start.elapsed().as_secs_f64();
    let allocs = alloc::stats().since(before);
    Sample {
        secs,
        allocs,
        heap_peak: alloc::peak() - base,
        output,
    }
}

/// Per-input results of every pass so far.
struct Passes {
    workload: Workload,
    setup_s: Vec<f64>,
    /// Calibrated best-of-R op time per input.
    best_s: Vec<f64>,
    /// Uncalibrated best-of-R op time per input.
    raw_best_s: Vec<f64>,
    /// Calibration task times of every op so far.
    task_s: Vec<f64>,
    alloc_ops: Vec<u64>,
    alloc_bytes: Vec<u64>,
    heap_peak: Vec<i64>,
    first: Vec<Result<u64, String>>,
    iterations: u64,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn new(workload: Workload) -> Passes {
        Passes {
            workload,
            setup_s: Vec::new(),
            best_s: Vec::new(),
            raw_best_s: Vec::new(),
            task_s: Vec::new(),
            alloc_ops: Vec::new(),
            alloc_bytes: Vec::new(),
            heap_peak: Vec::new(),
            first: Vec::new(),
            iterations: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn add(&mut self, inputs: &[Input]) {
        let (task_s, samples): (Vec<f64>, Vec<Sample>) = inputs
            .iter()
            .map(|i| (host::task(), measure(self.workload, i)))
            .unzip();
        let raw: Vec<f64> = samples.iter().map(|s| s.secs).collect();
        let secs: Vec<f64> = raw
            .iter()
            .zip(host::scale_factors(&task_s))
            .map(|(t, f)| t * f)
            .collect();
        self.task_s.extend(task_s);
        let ops: Vec<u64> = samples.iter().map(|s| s.allocs.ops()).collect();
        let bytes: Vec<u64> = samples.iter().map(|s| s.allocs.bytes).collect();
        let peaks: Vec<i64> = samples.iter().map(|s| s.heap_peak).collect();
        if self.first.is_empty() {
            self.best_s = secs;
            self.raw_best_s = raw;
            self.alloc_ops = ops;
            self.alloc_bytes = bytes;
            self.heap_peak = peaks;
            self.first = samples.iter().map(|s| s.output.clone()).collect();
            self.iterations = inputs.iter().map(|i| u64::from(i.spec.iterations)).sum();
        } else {
            keep_min(&mut self.best_s, &secs);
            keep_min(&mut self.raw_best_s, &raw);
            keep_min(&mut self.alloc_ops, &ops);
            keep_min(&mut self.alloc_bytes, &bytes);
            keep_min(&mut self.heap_peak, &peaks);
        }
        for (sample, first) in samples.iter().zip(&self.first) {
            self.attempted += 1;
            match (&sample.output, first) {
                (Ok(got), Ok(want)) if got == want => {}
                (Ok(_), Ok(_)) => {
                    self.failed += 1;
                    eprintln!(
                        "perfbench: {} op output differs from its first pass",
                        self.workload.name()
                    );
                }
                (Err(e), _) | (Ok(_), Err(e)) => {
                    self.failed += 1;
                    eprintln!("perfbench: {} op failed: {e}", self.workload.name());
                }
            }
        }
    }

    fn outcome(self, gate: Result<(), String>, rounds: u32) -> Outcome {
        let n = self.best_s.len() as f64;
        let total_s: f64 = self.best_s.iter().sum();
        let op_ms: Vec<f64> = self.best_s.iter().map(|s| s * 1e3).collect();
        let mib = (1u64 << 20) as f64;
        let metrics = vec![
            Metric::new("ops_per_s", n / total_s, "ops/s"),
            Metric::new(
                "sim_iters_per_s",
                self.iterations as f64 / total_s,
                "iterations/s",
            ),
            Metric::new("op_ms_p50", harrell_davis(&op_ms, 50), "ms"),
            Metric::new("op_ms_p90", harrell_davis(&op_ms, 90), "ms"),
            Metric::new("setup_s", percentile(&self.setup_s, 50), "s"),
            Metric::new(
                "allocs_per_op",
                self.alloc_ops.iter().sum::<u64>() as f64 / n,
                "allocs/op",
            ),
            Metric::new(
                "alloc_mib_per_op",
                self.alloc_bytes.iter().sum::<u64>() as f64 / n / mib,
                "MiB/op",
            ),
            Metric::new(
                "heap_peak_mib",
                self.heap_peak.iter().copied().max().unwrap_or(0) as f64 / mib,
                "MiB",
            ),
        ];
        let fingerprints: Vec<u64> = self
            .first
            .iter()
            .map(|o| *o.as_ref().unwrap_or(&0))
            .collect();
        let failed = if gate.is_ok() {
            self.failed
        } else {
            self.attempted
        };
        Outcome {
            workload: self.workload,
            metrics,
            attempted: self.attempted,
            failed,
            gate,
            detail: JsonValue::object()
                .with("inputs", JsonValue::int(self.best_s.len() as u64))
                .with("rounds", JsonValue::int(u64::from(rounds)))
                .with(
                    "uncalibrated_ops_per_s",
                    JsonValue::num(n / self.raw_best_s.iter().sum::<f64>()),
                )
                .with(
                    "host_slowdown_p50",
                    JsonValue::num(percentile(&self.task_s, 50) / host::REFERENCE_SECS),
                )
                .with(
                    "digest",
                    JsonValue::str(format!("{:#018x}", digest(&fingerprints))),
                ),
        }
    }
}

/// Runs the gate, then rounds until the time budget is spent.
pub fn run(opts: &Options) -> Vec<Outcome> {
    let program = gate::program();
    let gates: Vec<Result<(), String>> = opts
        .workloads
        .iter()
        .map(|&w| {
            program.clone()?;
            gate::outputs(w, |input| guarded(|| w.run_op(input)))
        })
        .collect();
    let mut passes: Vec<Passes> = opts.workloads.iter().map(|&w| Passes::new(w)).collect();
    let budget = Duration::from_secs_f64(opts.seconds * opts.workloads.len() as f64);
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        for p in &mut passes {
            let task_s: Vec<f64> = (0..=2 * host::POOL_HALF_WIDTH)
                .map(|_| host::task())
                .collect();
            let scale = host::REFERENCE_SECS / percentile(&task_s, 50);
            let t = Instant::now();
            let inputs = p
                .workload
                .inputs(opts.seed, opts.inputs_per_pass(p.workload));
            p.setup_s.push(t.elapsed().as_secs_f64() * scale);
            p.add(&inputs);
        }
        rounds += 1;
        let elapsed = start.elapsed();
        if opts.smoke || elapsed + elapsed / rounds > budget {
            break;
        }
    }
    passes
        .into_iter()
        .zip(gates)
        .map(|(p, g)| p.outcome(g, rounds))
        .collect()
}
