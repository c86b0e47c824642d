//! The traced run: per-layer numbers measured from outside the program.
//!
//! Each op is replayed as the sequence of public calls it is made of, with a
//! span (host time and allocations) around each call. The replay must
//! produce the plain op's output fingerprint, which shows the spans only
//! observe. After each op, untimed probes measure the layers below:
//!
//! - a two-point fit of COARSE host time and allocations against iteration
//!   count, whose intercept is the deployment cost (prepare plus the
//!   dual-sync pilot grid) and whose slope is the per-iteration cost;
//! - the program's own deterministic counters, from a metered and a
//!   profiled COARSE run of the same input;
//! - unit-cost probes of single calls into fabric, core, collectives, cci
//!   and simcore on the input's machine.
//!
//! Spans are kept in memory and written as a Chrome trace when the
//! workload ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use coarse_cci::checkpoint::plan_pool_checkpoint;
use coarse_cci::synccore::RingDirection;
use coarse_collectives::timed::ring_allreduce;
use coarse_core::dualsync::{self, DualSyncInputs};
use coarse_core::profiler::build_routing_table_for;
use coarse_fabric::engine::TransferEngine;
use coarse_fabric::probe;
use coarse_fabric::topology::LinkMask;
use coarse_simcore::faults::{FaultPlan, FaultPlanGen};
use coarse_simcore::json::JsonValue;
use coarse_simcore::metrics::name as metric;
use coarse_simcore::prof::{region, Profiler};
use coarse_simcore::time::SimTime;
use coarse_simcore::units::{Bandwidth, ByteSize};
use coarse_trainsim::{
    chaos_run_case, gpu_for, record_coarse_metrics, record_coarse_profile, reference_schedule,
    result_fingerprint, universe_for, RunReport, Sabotage, Scheme, SchemeOutcome, SchemeRun,
    TrainError,
};

use crate::alloc;
use crate::gate;
use crate::guarded;
use crate::report::{Metric, Outcome};
use crate::timed::{measure, Options};
use crate::workloads::{chaos_fingerprint, fnv1a, recovering_fingerprint, Input, Workload};

/// Ops traced per workload even when the time budget runs out earlier.
const MIN_OPS: usize = 3;

/// Host time and heap operations of one span.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    secs: f64,
    /// Allocations plus reallocations.
    allocs: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.secs += other.secs;
        self.allocs += other.allocs;
    }
}

/// One recorded span.
struct Span {
    /// `<layer>.<call>`, or `op` / `probes` for the per-op roots.
    name: &'static str,
    /// The span this one ran inside.
    parent: Option<&'static str>,
    /// Index of the input the span belongs to.
    op: usize,
    /// Start, from the beginning of the workload's trace.
    start: Duration,
    cost: Cost,
}

/// In-memory span recorder.
struct Recorder {
    origin: Instant,
    op: usize,
    stack: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            op: 0,
            stack: Vec::with_capacity(8),
            // Reserved up front so recording a span never reallocates
            // inside the span that encloses it.
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, Cost) {
        let parent = self.stack.last().copied();
        self.stack.push(name);
        let before = alloc::stats();
        let start = Instant::now();
        let out = f(self);
        let cost = Cost {
            secs: start.elapsed().as_secs_f64(),
            allocs: alloc::stats().since(before).ops(),
        };
        self.stack.pop();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start: start - self.origin,
            cost,
        });
        (out, cost)
    }

    /// The Chrome trace-event document of every recorded span.
    fn chrome_trace(&self, workload: Workload) -> JsonValue {
        let mut events = vec![JsonValue::object()
            .with("name", JsonValue::str("process_name"))
            .with("ph", JsonValue::str("M"))
            .with("pid", JsonValue::int(1))
            .with(
                "args",
                JsonValue::object().with("name", JsonValue::str(workload.name())),
            )];
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            events.push(
                JsonValue::object()
                    .with("name", JsonValue::str(s.name))
                    .with("cat", JsonValue::str(layer))
                    .with("ph", JsonValue::str("X"))
                    .with("ts", JsonValue::num(s.start.as_secs_f64() * 1e6))
                    .with("dur", JsonValue::num(s.cost.secs * 1e6))
                    .with("pid", JsonValue::int(1))
                    .with("tid", JsonValue::int(1))
                    .with(
                        "args",
                        JsonValue::object()
                            .with("op", JsonValue::int(s.op as u64))
                            .with("parent", JsonValue::str(s.parent.unwrap_or("none")))
                            .with("allocs", JsonValue::int(s.cost.allocs)),
                    ),
            );
        }
        JsonValue::object()
            .with("traceEvents", JsonValue::Array(events))
            .with("displayTimeUnit", JsonValue::str("ms"))
    }
}

/// Replays one op as its constituent public calls, each in a span, and
/// returns the op's output fingerprint.
///
/// # Errors
///
/// Returns the op's error or oracle violations, as the plain op would.
fn replay(workload: Workload, input: &Input, rec: &mut Recorder) -> Result<u64, String> {
    let s = &input.scenario;
    match workload {
        Workload::Paper => replay_report(input, rec),
        Workload::Steady => rec
            .span("trainsim.coarse", |_| s.run())
            .0
            .map(|r| result_fingerprint(&r))
            .map_err(|e| e.to_string()),
        Workload::Chaos => {
            let case = rec
                .span("trainsim.run_case", |_| chaos_run_case(s, Sabotage::None))
                .0
                .map_err(|e| e.to_string())?;
            chaos_fingerprint(&case)
        }
        Workload::Recovery => {
            let plan = rec
                .span("trainsim.reference", |_| reference_schedule(s))
                .0
                .map_err(|e| e.to_string())?;
            let r = rec
                .span("trainsim.recovering", |_| {
                    s.clone().faults(plan).run_recovering(&input.policy)
                })
                .0
                .map_err(|e| e.to_string())?;
            Ok(recovering_fingerprint(&r))
        }
    }
}

/// `Scenario::report().render()` call by call: the three scheme runs, the
/// metered COARSE re-run, and the render.
fn replay_report(input: &Input, rec: &mut Recorder) -> Result<u64, String> {
    let spec = &input.spec;
    let (machine, model) = (spec.machine(), spec.model());
    let mut run = |name: &'static str, scheme: Scheme| -> Result<SchemeRun, String> {
        let outcome = match rec
            .span(name, |_| input.scenario.clone().scheme(scheme).run())
            .0
        {
            Ok(r) => SchemeOutcome::Completed(r),
            Err(TrainError::OutOfMemory { max_batch, .. }) => {
                SchemeOutcome::OutOfMemory { max_batch }
            }
            Err(e) => return Err(e.to_string()),
        };
        Ok(SchemeRun { scheme, outcome })
    };
    let schemes = vec![
        run("trainsim.dense", Scheme::Dense)?,
        run("trainsim.allreduce", Scheme::AllReduce)?,
        run("trainsim.coarse", Scheme::Coarse)?,
    ];
    let coarse_metrics = schemes[2].result().map(|_| {
        rec.span("trainsim.metrics", |_| {
            let part = machine.partition(spec.partition());
            record_coarse_metrics(&machine, &part, &model, spec.batch, spec.iterations).1
        })
        .0
    });
    let report = RunReport {
        scenario: input.scenario.name().to_string(),
        machine: machine.name().to_string(),
        partition: spec.partition(),
        model: model.name().to_string(),
        batch_per_gpu: spec.batch,
        iterations: spec.iterations,
        schemes,
        coarse_metrics,
        faults: None,
    };
    let rendered = rec.span("trainsim.render", |_| report.render()).0;
    Ok(fnv1a(rendered.as_bytes()))
}

/// Mean host time of one call of `f`, over enough calls to fill 2 ms;
/// `setup` prepares each call's argument outside the timing.
fn per_call<S, T>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let (mut total, mut calls) = (Duration::ZERO, 0u32);
    while calls < 3 || total < Duration::from_millis(2) {
        let arg = setup();
        let start = Instant::now();
        black_box(f(arg));
        total += start.elapsed();
        calls += 1;
    }
    total.as_secs_f64() / f64::from(calls)
}

/// Per-layer sums over the traced ops of one workload.
#[derive(Default)]
struct Sums {
    ops: u32,
    failed: u32,
    plain_secs: f64,
    traced: Cost,
    children: Cost,
    spans: BTreeMap<&'static str, Cost>,
    fixed_secs: f64,
    fixed_allocs: f64,
    iter_secs: f64,
    iter_allocs: f64,
    deployments_secs: f64,
    probes: BTreeMap<&'static str, f64>,
}

impl Sums {
    fn probe(&mut self, name: &'static str, value: f64) {
        *self.probes.entry(name).or_default() += value;
    }

    fn mean_probe(&self, name: &str) -> f64 {
        self.probes.get(name).copied().unwrap_or(0.0) / f64::from(self.ops)
    }

    fn mean_span(&self, name: &str) -> Cost {
        let c = self.spans.get(name).copied().unwrap_or_default();
        Cost {
            secs: c.secs / f64::from(self.ops),
            allocs: c.allocs / u64::from(self.ops),
        }
    }
}

/// The clean COARSE run each workload's op contains, as a span name.
fn clean_coarse_span(workload: Workload) -> &'static str {
    match workload {
        Workload::Paper | Workload::Steady => "trainsim.coarse",
        Workload::Chaos | Workload::Recovery => "trainsim.reference",
    }
}

/// Untimed probes of one input's layers, accumulated into `sums`.
fn probe_layers(workload: Workload, input: &Input, rec: &mut Recorder, sums: &mut Sums) {
    let spec = &input.spec;
    let clean = input.scenario.clone().faults(FaultPlan::empty());
    if workload == Workload::Chaos {
        // The faulty run is the run case minus this separately timed
        // reference run.
        let (_, c) = rec.span("trainsim.reference", |_| clean.run());
        sums.spans.entry("trainsim.reference").or_default().add(c);
    }

    // Two-point fit of a COARSE run against its iteration count.
    let k = spec.iterations.max(12);
    let fit_point = |rec: &mut Recorder, name: &'static str, iterations: u32| {
        let runs = [0, 1].map(|_| {
            rec.span(name, |_| clean.clone().iterations(iterations).run())
                .1
        });
        if runs[0].secs <= runs[1].secs {
            runs[0]
        } else {
            runs[1]
        }
    };
    let short = fit_point(rec, "fit.short", 2);
    let long = fit_point(rec, "fit.long", k);
    let span = f64::from(k - 2);
    let iter_secs = (long.secs - short.secs) / span;
    let iter_allocs = (long.allocs as f64 - short.allocs as f64) / span;
    let fixed_secs = short.secs - 2.0 * iter_secs;
    sums.iter_secs += iter_secs;
    sums.iter_allocs += iter_allocs;
    sums.fixed_secs += fixed_secs;
    sums.fixed_allocs += short.allocs as f64 - 2.0 * iter_allocs;
    sums.deployments_secs += f64::from(workload.coarse_runs_per_op()) * fixed_secs;

    // The program's deterministic counters.
    let machine = spec.machine();
    let part = machine.partition(spec.partition());
    let model = spec.model();
    let (_, snap) = rec
        .span("probe.metrics", |_| {
            record_coarse_metrics(&machine, &part, &model, spec.batch, spec.iterations)
        })
        .0;
    let iterations = snap.counter(metric::TRAIN_ITERATIONS).max(1) as f64;
    sums.probe(
        "pilot_runs",
        snap.gauge(metric::DUALSYNC_PILOT_RUNS).unwrap_or(0.0),
    );
    sums.probe(
        "transfers_per_iter",
        snap.counter(metric::FABRIC_TRANSFERS) as f64 / iterations,
    );
    sums.probe(
        "ring_steps_per_iter",
        snap.counter(metric::RING_STEPS) as f64 / iterations,
    );
    let profiler = Profiler::new();
    rec.span("probe.profile", |_| {
        record_coarse_profile(
            &machine,
            &part,
            &model,
            spec.batch,
            spec.iterations,
            profiler.clone(),
        )
    });
    sums.probe("kernel_events", profiler.events_dispatched() as f64);
    for name in region::ALL {
        sums.probe(name, profiler.region_events(name) as f64 / iterations);
    }

    // Unit costs of single calls into the layers below trainsim, on the
    // fabric a COARSE deployment builds: a CCI ring between each node's
    // memory devices when the machine supports peer-to-peer.
    rec.span("probe.units", |_| {
        sums.probe("build_secs", per_call(|| (), |_| spec.machine()));
        let topo = machine.topology();
        let pairs: Vec<_> = part
            .workers
            .iter()
            .flat_map(|&w| part.mem_devices.iter().map(move |&m| (w, m)))
            .collect();
        let route = per_call(
            || (),
            |_| {
                for &(w, m) in &pairs {
                    black_box(topo.route(w, m));
                }
            },
        );
        sums.probe("route_secs", route / pairs.len() as f64);

        let mut deployed = machine.clone();
        for node in 0..machine.nodes() {
            let on_node: Vec<_> = part
                .mem_devices
                .iter()
                .copied()
                .filter(|&d| topo.device(d).node() == node)
                .collect();
            if on_node.len() >= 2 && topo.p2p_enabled() {
                deployed.augment_cci_ring(&on_node);
            }
        }
        let dtopo = deployed.topology();
        let mems = &part.mem_devices;
        let bandwidth =
            |a, b| probe::measure_unidirectional(dtopo, a, b, ByteSize::mib(64), LinkMask::ALL);
        sums.probe(
            "probe_secs",
            per_call(|| (), |_| bandwidth(mems[0], mems[1])),
        );
        let tables = per_call(
            || (),
            |_| {
                part.workers
                    .iter()
                    .enumerate()
                    .map(|(w, &worker)| {
                        build_routing_table_for(dtopo, worker, mems, w, SimTime::ZERO)
                    })
                    .collect::<Vec<_>>()
            },
        );
        sums.probe("routing_table_secs", tables / part.workers.len() as f64);

        let shard =
            build_routing_table_for(dtopo, part.workers[0], mems, 0, SimTime::ZERO).shard_size;
        let mut engine = TransferEngine::new(dtopo.clone());
        let (src, dst) = (part.workers[0], part.proxy_for(0));
        let mut at = SimTime::ZERO;
        sums.probe(
            "transfer_secs",
            per_call(
                || (),
                |_| {
                    let t = engine
                        .transfer(src, dst, shard, at)
                        .expect("a routable pair");
                    at = t.end;
                },
            ),
        );

        let ready = vec![SimTime::ZERO; mems.len()];
        let bytes = model.total_bytes();
        sums.probe(
            "ring_allreduce_secs",
            per_call(
                || TransferEngine::new(dtopo.clone()),
                |mut engine| {
                    ring_allreduce(
                        &mut engine,
                        mems,
                        bytes,
                        &ready,
                        RingDirection::Forward,
                        LinkMask::ALL,
                    )
                },
            ),
        );

        let gpu = gpu_for(machine.sku());
        let inputs = DualSyncInputs {
            workers: part.workers.len(),
            total_bytes: bytes,
            proxy_bandwidth: Bandwidth::bytes_per_sec(bandwidth(mems[0], mems[1])),
            gpu_bandwidth: Bandwidth::bytes_per_sec(bandwidth(part.workers[0], part.workers[1])),
            forward: gpu.forward_time(&model, spec.batch),
            backward: gpu.backward_time(&model, spec.batch),
        };
        sums.probe(
            "dualsync_secs",
            per_call(|| (), |_| dualsync::optimize(&inputs)),
        );
        sums.probe(
            "checkpoint_plan_secs",
            per_call(|| (), |_| plan_pool_checkpoint(mems.len(), bytes)),
        );
        let gen = FaultPlanGen::new(universe_for(&clean)).max_events(4);
        let mut seed = spec.plan.map_or(0, |d| d.seed);
        sums.probe(
            "plan_sample_secs",
            per_call(
                || {
                    seed += 1;
                    seed
                },
                |s| gen.sample(s),
            ),
        );
    });
}

/// Traces every workload of `opts` and returns its per-layer metrics.
pub fn run(opts: &Options) -> Vec<Outcome> {
    let program = gate::program();
    opts.workloads
        .iter()
        .map(|&w| trace_workload(opts, w, program.clone()))
        .collect()
}

fn trace_workload(opts: &Options, w: Workload, program: Result<(), String>) -> Outcome {
    let gate = program.and_then(|()| {
        let mut discarded = Recorder::new();
        gate::outputs(w, |input| guarded(|| replay(w, input, &mut discarded)))
    });
    let inputs = w.inputs(opts.seed, opts.inputs_per_pass(w));
    let mut rec = Recorder::new();
    let mut sums = Sums::default();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    for (i, input) in inputs.iter().enumerate() {
        if i >= MIN_OPS && Instant::now() >= deadline {
            break;
        }
        rec.op = i;
        rec.stack.clear();
        let plain = measure(w, input);
        let spans_before = rec.spans.len();
        let (traced, cost) = rec.span("op", |rec| guarded(|| replay(w, input, rec)));
        sums.ops += 1;
        sums.plain_secs += plain.secs;
        sums.traced.add(cost);
        for s in &rec.spans[spans_before..] {
            if s.parent == Some("op") {
                sums.children.add(s.cost);
                sums.spans.entry(s.name).or_default().add(s.cost);
            }
        }
        match (&traced, &plain.output) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => {
                sums.failed += 1;
                eprintln!(
                    "perfbench: {} traced op {i} disagrees with the plain op: {traced:?} vs {:?}",
                    w.name(),
                    plain.output
                );
            }
        }
        rec.span("probes", |rec| probe_layers(w, input, rec, &mut sums));
    }
    let path = format!("perfbench-trace-{}.json", w.name());
    if let Err(e) = std::fs::write(&path, rec.chrome_trace(w).render()) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    outcome(w, gate, &sums)
}

fn outcome(w: Workload, gate: Result<(), String>, sums: &Sums) -> Outcome {
    let ops = f64::from(sums.ops);
    let clean = sums.mean_span(clean_coarse_span(w));
    let metrics = vec![
        Metric::new("trainsim.coarse_ms", clean.secs * 1e3, "ms"),
        Metric::new(
            "trainsim.coarse_fixed_ms",
            sums.fixed_secs / ops * 1e3,
            "ms",
        ),
        Metric::new(
            "trainsim.coarse_fixed_allocs",
            sums.fixed_allocs / ops,
            "allocs",
        ),
        Metric::new("trainsim.coarse_iter_us", sums.iter_secs / ops * 1e6, "us"),
        Metric::new(
            "trainsim.coarse_iter_allocs",
            sums.iter_allocs / ops,
            "allocs/iter",
        ),
        Metric::new(
            "trainsim.coarse_fixed_frac",
            sums.deployments_secs / sums.plain_secs,
            "fraction",
        ),
        Metric::new("trainsim.pilot_runs", sums.mean_probe("pilot_runs"), "runs"),
        Metric::new("fabric.build_ms", sums.mean_probe("build_secs") * 1e3, "ms"),
        Metric::new("fabric.route_ns", sums.mean_probe("route_secs") * 1e9, "ns"),
        Metric::new("fabric.probe_us", sums.mean_probe("probe_secs") * 1e6, "us"),
        Metric::new(
            "fabric.transfer_ns",
            sums.mean_probe("transfer_secs") * 1e9,
            "ns",
        ),
        Metric::new(
            "fabric.transfers_per_iter",
            sums.mean_probe("transfers_per_iter"),
            "transfers/iter",
        ),
        Metric::new(
            "fabric.link_reservations_per_iter",
            sums.mean_probe(region::FABRIC_LINK),
            "legs/iter",
        ),
        Metric::new(
            "core.routing_table_us",
            sums.mean_probe("routing_table_secs") * 1e6,
            "us",
        ),
        Metric::new(
            "core.dualsync_us",
            sums.mean_probe("dualsync_secs") * 1e6,
            "us",
        ),
        Metric::new(
            "collectives.ring_allreduce_us",
            sums.mean_probe("ring_allreduce_secs") * 1e6,
            "us",
        ),
        Metric::new(
            "collectives.ring_steps_per_iter",
            sums.mean_probe("ring_steps_per_iter"),
            "steps/iter",
        ),
        Metric::new(
            "cci.checkpoint_plan_us",
            sums.mean_probe("checkpoint_plan_secs") * 1e6,
            "us",
        ),
        Metric::new(
            "simcore.plan_sample_us",
            sums.mean_probe("plan_sample_secs") * 1e6,
            "us",
        ),
        Metric::new(
            "explained_frac",
            sums.children.secs / sums.traced.secs,
            "fraction",
        ),
        Metric::new(
            "trace_overhead_frac",
            sums.traced.secs / sums.plain_secs - 1.0,
            "fraction",
        ),
    ];
    let mut spans = JsonValue::object();
    for &name in sums.spans.keys() {
        let c = sums.mean_span(name);
        spans = spans.with(
            name,
            JsonValue::object()
                .with("ms_per_op", JsonValue::num(c.secs * 1e3))
                .with("allocs_per_op", JsonValue::int(c.allocs)),
        );
    }
    if w == Workload::Chaos {
        let faulty = sums.mean_span("trainsim.run_case").secs - clean.secs;
        spans = spans.with(
            "trainsim.faulty",
            JsonValue::object().with("ms_per_op", JsonValue::num(faulty * 1e3)),
        );
    }
    let mut regions = JsonValue::object();
    for name in region::ALL {
        regions = regions.with(name, JsonValue::num(sums.mean_probe(name)));
    }
    let attempted = u64::from(sums.ops);
    Outcome {
        workload: w,
        metrics,
        attempted,
        failed: if gate.is_ok() {
            u64::from(sums.failed)
        } else {
            attempted
        },
        gate,
        detail: JsonValue::object()
            .with("traced_ops", JsonValue::int(attempted))
            .with("op_ms", JsonValue::num(sums.plain_secs / ops * 1e3))
            .with("traced_op_ms", JsonValue::num(sums.traced.secs / ops * 1e3))
            .with("spans", spans)
            .with(
                "kernel_events_per_op",
                JsonValue::num(sums.mean_probe("kernel_events")),
            )
            .with("profile_region_events_per_iter", regions),
    }
}
