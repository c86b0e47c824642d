//! The COARSE training simulator: streaming pushes overlapped with the
//! backward pass, per-tensor proxy collectives over the dedicated CCI
//! device fabric, dual synchronization of the shallow layers on the worker
//! GPUs, and pulls racing the pushes on the opposite bus direction.
//!
//! The dual-sync split `m` is chosen the way the paper's profiler does:
//! the closed-form optimum of §III-F seeds a small candidate grid, and
//! short pilot runs (a few timed iterations each) pick the split that
//! actually minimizes the iteration period on this fabric — capturing the
//! push/pull contention the analytic model abstracts away.

use std::collections::BTreeMap;

use coarse_cci::checkpoint::plan_pool_checkpoint;
use coarse_cci::synccore::RingDirection;
use coarse_collectives::timed::{
    hierarchical_allreduce, ring_allreduce, CollectiveError, CollectiveResult,
};
use coarse_core::dualsync::{self, DualSyncInputs};
use coarse_core::profiler::build_routing_table_for;
use coarse_core::resilience::{FailureKind, RecoveryAction, RecoveryPolicy, ResiliencePolicy};
use coarse_core::routing::RoutingTable;
use coarse_fabric::device::DeviceId;
use coarse_fabric::engine::{TransferEngine, TransferError};
use coarse_fabric::machines::{Machine, Partition};
use coarse_fabric::probe;
use coarse_fabric::topology::{LinkClass, LinkMask, Topology};
use coarse_models::profile::ModelProfile;
use coarse_models::training::IterationPlan;
use coarse_simcore::critpath::{class as crit_class, CritPath, NodeId};
use coarse_simcore::faults::FaultPlan;
use coarse_simcore::metrics::{name as metric, MetricRegistry, MetricsSnapshot};
use coarse_simcore::oracle::{BiteKind, OracleEvent, OracleHub};
use coarse_simcore::prof::{region as prof_region, Profiler};
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::trace::{category, RecordingTracer, SharedTracer, Trace, TrackId};
use coarse_simcore::units::{Bandwidth, ByteSize};

use crate::config::TrainResult;
use crate::gpu_for;

/// Pilot-phase debug logging, set once at process startup by the CLI
/// front-end (the `COARSE_DEBUG` environment variable) instead of read
/// ambiently here, so library behaviour is a pure function of its inputs.
// simlint: allow(parallel-ready, reason = "write-once SeqCst flag, set at startup before any simulation runs")
static PILOT_DEBUG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Enable or disable pilot-run debug prints. Binaries call this once at
/// startup after consulting `COARSE_DEBUG`; the library never reads the
/// environment itself.
pub fn set_pilot_debug(on: bool) {
    PILOT_DEBUG.store(on, std::sync::atomic::Ordering::SeqCst);
}

fn pilot_debug() -> bool {
    PILOT_DEBUG.load(std::sync::atomic::Ordering::SeqCst)
}

/// Proxy-path gradients are fused into buckets of at least this many bytes
/// before the cross-device collective (the standard gradient-fusion
/// optimization; keeps ring segments large enough to run links at full
/// effective bandwidth).
const BUCKET_TARGET: ByteSize = ByteSize::mib(32);

const PCIE_ONLY: LinkMask = LinkMask::only(LinkClass::Pcie);
const CCI_ONLY: LinkMask = LinkMask::only(LinkClass::Cci);
const CCI_OR_NETWORK: LinkMask = LinkMask::only(LinkClass::Cci)
    .with(LinkClass::Network)
    .with(LinkClass::Pcie);

/// Everything fixed about a deployment, shared by pilot and final runs.
struct Deployment<'a> {
    machine: &'a Machine,
    /// Link mask for proxy-to-proxy collectives: the dedicated CCI fabric
    /// normally; the staged PCIe path on machines whose emulation cannot do
    /// peer-to-peer (the paper's AWS T4, §V-D).
    proxy_mask: LinkMask,
    deployed: Machine,
    plan: IterationPlan,
    model: &'a ModelProfile,
    workers: Vec<DeviceId>,
    mem_devices: Vec<DeviceId>,
    node_mem_rings: Vec<Vec<DeviceId>>,
    tables: Vec<RoutingTable>,
    gpu_ring: Vec<DeviceId>,
    /// Per-node worker rings for the hierarchical GPU-path collective on
    /// clusters (NCCL's intra-node-then-network decomposition).
    node_gpu_rings: Vec<Vec<DeviceId>>,
    needed: BTreeMap<usize, SimDuration>,
    /// Host-to-worker input bytes prefetched each iteration (0 = input
    /// pipeline not modeled).
    input_bytes: ByteSize,
    /// Trace sink for full-detail runs; pilots run untraced.
    tracer: Option<SharedTracer>,
    /// Metric sink for full-detail runs; pilots run unmetered.
    metrics: Option<MetricRegistry>,
    /// Oracle battery for observed fault runs; pilots run unobserved.
    oracles: Option<OracleHub>,
    /// Self-profiler for full-detail runs; pilots run unprofiled.
    profiler: Option<Profiler>,
    /// Critical-path recorder for explain runs; pilots run unrecorded.
    critpath: Option<CritPath>,
    /// Deliberate protocol breakage for oracle self-tests.
    sabotage: Sabotage,
}

/// A deliberately introduced protocol bug, used to prove the oracle battery
/// actually catches violations (the chaos runner's self-test). Production
/// entry points always run with [`Sabotage::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// No sabotage: the run obeys every protocol invariant.
    #[default]
    None,
    /// Report each stream's shard attempts in inverted order, violating the
    /// §III-F retry-FIFO contract the [`coarse_simcore::oracle::RetryFifo`]
    /// oracle enforces.
    InvertRetryOrder,
}

/// Interned training-phase tracks of one traced run.
struct TrainTracks {
    iter: TrackId,
    compute: TrackId,
    push: TrackId,
    collective: TrackId,
    pull: TrackId,
    /// Per-proxy queue-occupancy tracks, interned on first arrival.
    proxies: BTreeMap<DeviceId, TrackId>,
}

impl Deployment<'_> {
    /// Splits the model at proxy budget `m`: the first `m` emitted bytes
    /// take the proxy path (`true` per tensor index), the rest the GPU
    /// dual-sync ring. Returns the mask and the GPU ring's byte count.
    fn proxy_split(&self, proxy_budget: ByteSize) -> (Vec<bool>, ByteSize) {
        let tensors = self.model.tensors();
        let mut proxy_path = vec![false; tensors.len()];
        let mut cum = ByteSize::ZERO;
        for ev in self.plan.gradients() {
            if cum < proxy_budget {
                proxy_path[ev.tensor] = true;
                cum += tensors[ev.tensor].byte_size();
            }
        }
        let gpu_bytes = tensors
            .iter()
            .zip(&proxy_path)
            .filter(|&(_, &proxy)| !proxy)
            .map(|(t, _)| t.byte_size())
            .sum();
        (proxy_path, gpu_bytes)
    }

    /// Runs `iterations` and returns the steady-state period for a given
    /// proxy-path byte budget `m`.
    fn run(&self, proxy_budget: ByteSize, iterations: u32) -> SimDuration {
        self.run_inner(proxy_budget, iterations, false).0
    }

    /// Full-detail run: also returns the engine (for link utilization) and
    /// records the phase spans of the **last** iteration for timeline
    /// rendering.
    fn run_inner(
        &self,
        proxy_budget: ByteSize,
        iterations: u32,
        trace_last: bool,
    ) -> (SimDuration, TransferEngine, Vec<crate::timeline::PhaseSpan>) {
        let plan = &self.plan;
        let model = self.model;
        let (proxy_path, gpu_bytes) = self.proxy_split(proxy_budget);

        let mut engine = TransferEngine::new(self.deployed.topology().clone());
        if let Some(m) = &self.metrics {
            engine.set_metrics(m.clone());
        }
        let prof = self.profiler.clone();
        if let Some(p) = &prof {
            engine.set_profiler(p.clone());
        }
        let crit = self.critpath.clone();
        if let Some(cp) = &crit {
            engine.set_critpath(cp.clone());
        }
        let mut prev_sink: Option<NodeId> = None;
        let tracer = self.tracer.as_ref().filter(|t| t.is_enabled()).cloned();
        let mut tracks = tracer.as_ref().map(|t| {
            engine.set_tracer(t.clone());
            TrainTracks {
                iter: t.track("train: iteration"),
                compute: t.track("train: compute"),
                push: t.track("train: push"),
                collective: t.track("train: collective"),
                pull: t.track("train: pull"),
                proxies: BTreeMap::new(),
            }
        });
        // Shards parked at each proxy since its last collective (the
        // analytic run never instantiates ParameterProxy objects, so the
        // queue-depth gauge is synthesized from shard arrivals here).
        let mut parked: BTreeMap<DeviceId, u64> = BTreeMap::new();
        let multi_node = self.machine.nodes() > 1;
        let mut start = SimTime::ZERO;
        let mut first_period_end = SimTime::ZERO;
        let mut spans: Vec<crate::timeline::PhaseSpan> = Vec::new();
        for k in 0..iterations {
            use crate::timeline::{PhaseKind, PhaseSpan};
            let tracing = trace_last && k + 1 == iterations;
            let forward_end = start + plan.forward_time();
            let backward_end = forward_end + plan.backward_time();
            let mut next_start = backward_end;
            // The iteration's forward+backward pass on the critical-path
            // graph; pushes and the GPU dual-sync hang off it.
            let compute = crit.as_ref().map(|cp| {
                let deps: Vec<NodeId> = prev_sink.into_iter().collect();
                cp.span_on(
                    crit_class::COMPUTE,
                    format!("fwd+bwd iter {k}"),
                    "compute",
                    start,
                    backward_end,
                    &deps,
                )
            });
            let mut sink_deps: Vec<NodeId> = compute.into_iter().collect();
            if let Some(p) = &prof {
                // Forward and backward passes are analytic (no transfers);
                // count them so compute shows up alongside the wire phases.
                p.count(prof_region::TRAIN_COMPUTE, 2);
            }
            if tracing {
                spans.push(PhaseSpan::new(
                    PhaseKind::Forward,
                    start,
                    forward_end,
                    "forward pass",
                ));
                spans.push(PhaseSpan::new(
                    PhaseKind::Backward,
                    forward_end,
                    backward_end,
                    "backward pass",
                ));
            }
            if let (Some(t), Some(tt)) = (&tracer, &tracks) {
                t.span(
                    start,
                    forward_end,
                    category::TRAIN,
                    tt.compute,
                    &format!("forward (iter {k})"),
                );
                t.span(
                    forward_end,
                    backward_end,
                    category::TRAIN,
                    tt.compute,
                    &format!("backward (iter {k})"),
                );
            }
            // Input pipeline: prefetch the next iteration's batch from host
            // memory to each worker, contending with parameter traffic on
            // the PCIe tree. It must land before the next forward starts.
            if !self.input_bytes.is_zero() {
                let _prof_g = prof.as_ref().map(|p| {
                    p.count(prof_region::TRAIN_PREFETCH, self.workers.len() as u64);
                    p.enter(prof_region::TRAIN_PREFETCH)
                });
                for &worker in &self.workers {
                    let cpu = self
                        .deployed
                        .topology()
                        .host_cpu(self.deployed.topology().device(worker).node());
                    let rec = engine
                        .transfer_masked(cpu, worker, self.input_bytes, start, PCIE_ONLY)
                        // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                        .expect("host reaches its workers");
                    next_start = next_start.max(rec.end);
                    if let Some(cp) = &crit {
                        if let (Some(n), Some(ps)) = (engine.last_crit_entry_node(), prev_sink) {
                            cp.add_dep(n, ps);
                        }
                        sink_deps.extend(engine.last_crit_node());
                    }
                }
            }

            // Fuse proxy-path gradients into emission-ordered buckets.
            let mut buckets: Vec<Vec<&coarse_models::training::GradientEvent>> = Vec::new();
            let mut bucket_bytes = ByteSize::ZERO;
            for ev in plan.gradients() {
                if !proxy_path[ev.tensor] {
                    continue;
                }
                let size = model.tensors()[ev.tensor].byte_size();
                if buckets.is_empty() || bucket_bytes >= BUCKET_TARGET {
                    buckets.push(Vec::new());
                    bucket_bytes = ByteSize::ZERO;
                }
                // simlint: allow(panic-in-library, reason = "the branch above pushed a bucket before this read")
                buckets.last_mut().expect("just pushed").push(ev);
                bucket_bytes += size;
            }

            for (round, bucket) in buckets.iter().enumerate() {
                // Push: each worker streams each tensor's shards to its
                // routed proxy as the backward pass emits it. Track
                // per-proxy arrival so the collective pipelines.
                let mut proxy_ready: BTreeMap<DeviceId, SimTime> = BTreeMap::new();
                // Latest-finishing push node per proxy: the collective's
                // barrier adopts these as its arrival dependencies.
                let mut arrivals: BTreeMap<DeviceId, NodeId> = BTreeMap::new();
                let mut latest_emit = forward_end;
                let mut total = ByteSize::ZERO;
                let push_prof = prof.as_ref().map(|p| p.enter(prof_region::TRAIN_PUSH));
                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    total += size;
                    let emitted = forward_end + ev.ready;
                    latest_emit = latest_emit.max(emitted);
                    for (w, &worker) in self.workers.iter().enumerate() {
                        let table = &self.tables[w];
                        let dest = table.route_for(size);
                        let mut t = emitted;
                        let mut first_shard = true;
                        for s in shard_sizes(size, table.shard_size) {
                            if let Some(p) = &prof {
                                p.count(prof_region::TRAIN_PUSH, 1);
                            }
                            let rec = engine
                                .transfer_masked(worker, dest, s, t, PCIE_ONLY)
                                // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                                .expect("worker reaches its proxy");
                            t = rec.end;
                            if let Some(cp) = &crit {
                                // The first shard leaves when the backward
                                // pass emits the gradient; the edge lands on
                                // the transfer's *entry* node so a staged
                                // first leg still routes back to compute.
                                if first_shard {
                                    if let (Some(n), Some(c)) =
                                        (engine.last_crit_entry_node(), compute)
                                    {
                                        cp.add_dep(n, c);
                                    }
                                }
                                if let Some(n) = engine.last_crit_node() {
                                    let slot = arrivals.entry(dest).or_insert(n);
                                    if cp.node_end(n) >= cp.node_end(*slot) {
                                        *slot = n;
                                    }
                                }
                            }
                            first_shard = false;
                        }
                        let e = proxy_ready.entry(dest).or_insert(t);
                        *e = (*e).max(t);
                        if tracks.is_some() || prof.is_some() {
                            let depth = parked.entry(dest).or_insert(0);
                            *depth += 1;
                            if let Some(p) = &prof {
                                p.observe_depth("train.proxy_parked", *depth);
                            }
                            if let (Some(tr), Some(tt)) = (&tracer, &mut tracks) {
                                let track = *tt.proxies.entry(dest).or_insert_with(|| {
                                    tr.track(&format!(
                                        "proxy {} queue",
                                        self.deployed.topology().device(dest).name()
                                    ))
                                });
                                tr.counter(t, category::PROXY, track, "queue_depth", *depth as f64);
                            }
                        }
                    }
                }
                drop(push_prof);
                // Proxies with no local contribution are ready immediately.
                let ready_of = |d: DeviceId| proxy_ready.get(&d).copied().unwrap_or(latest_emit);

                // Proxy collective over the CCI device fabric; alternate
                // ring direction per bucket (Fig. 11b).
                let coll_prof = prof.as_ref().map(|p| {
                    p.count(prof_region::TRAIN_COLLECTIVE, 1);
                    p.enter(prof_region::TRAIN_COLLECTIVE)
                });
                if crit.is_some() {
                    let deps: Vec<NodeId> = arrivals.values().copied().collect();
                    engine.stage_crit_deps(&deps);
                }
                let sync_end = if multi_node {
                    let ready: Vec<SimTime> = self
                        .node_mem_rings
                        .iter()
                        .flatten()
                        .map(|&d| ready_of(d))
                        .collect();
                    hierarchical_allreduce(
                        &mut engine,
                        &self.node_mem_rings,
                        total,
                        &ready,
                        CCI_OR_NETWORK,
                    )
                    // simlint: allow(panic-in-library, reason = "the memory ring is built from the deployed connected topology")
                    .expect("memory devices are connected")
                    .end
                } else {
                    let ready: Vec<SimTime> =
                        self.mem_devices.iter().map(|&d| ready_of(d)).collect();
                    ring_allreduce(
                        &mut engine,
                        &self.mem_devices,
                        total,
                        &ready,
                        RingDirection::for_group(round),
                        self.proxy_mask,
                    )
                    // simlint: allow(panic-in-library, reason = "the memory ring is built from the deployed connected topology")
                    .expect("memory devices are connected")
                    .end
                };
                drop(coll_prof);
                let coll_node = if crit.is_some() {
                    engine.last_crit_node()
                } else {
                    None
                };
                // Pull: updated values flow back on the opposite direction.
                let pull_prof = prof.as_ref().map(|p| p.enter(prof_region::TRAIN_PULL));
                let mut pull_end = sync_end;
                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    for (w, &worker) in self.workers.iter().enumerate() {
                        let table = &self.tables[w];
                        let src = table.route_for(size);
                        let mut t = sync_end;
                        let mut first_shard = true;
                        for s in shard_sizes(size, table.shard_size) {
                            if let Some(p) = &prof {
                                p.count(prof_region::TRAIN_PULL, 1);
                            }
                            let rec = engine
                                .transfer_masked(src, worker, s, t, PCIE_ONLY)
                                // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                                .expect("proxy reaches its worker");
                            t = rec.end;
                            // The first shard leaves when the collective
                            // publishes the reduced bucket; the edge lands
                            // on the transfer's *entry* node so a staged
                            // first leg still routes back to the collective.
                            if first_shard {
                                if let (Some(cp), Some(n), Some(c)) =
                                    (&crit, engine.last_crit_entry_node(), coll_node)
                                {
                                    cp.add_dep(n, c);
                                }
                            }
                            first_shard = false;
                        }
                        pull_end = pull_end.max(t);
                        // The tensor must be back before the next forward
                        // pass reaches its layer.
                        next_start = next_start.max(t - self.needed[&ev.tensor]);
                        if let Some(cp) = &crit {
                            if let Some(n) = engine.last_crit_node() {
                                // The instant this tensor stops gating the
                                // next iteration's forward pass.
                                let gate = cp.instant(
                                    crit_class::SYNC,
                                    format!("pull ready t{} w{w}", ev.tensor),
                                    t - self.needed[&ev.tensor],
                                    &[n],
                                );
                                sink_deps.push(gate);
                            }
                        }
                    }
                }
                drop(pull_prof);
                if tracing || tracks.is_some() {
                    let first_emit = forward_end + bucket[0].ready;
                    let ready_min = self
                        .mem_devices
                        .iter()
                        .map(|&d| ready_of(d))
                        .min()
                        .unwrap_or(latest_emit);
                    let push_end =
                        latest_emit.max(*proxy_ready.values().max().unwrap_or(&latest_emit));
                    let coll_start = ready_min.max(first_emit);
                    if tracing {
                        spans.push(PhaseSpan::new(
                            PhaseKind::Push,
                            first_emit,
                            push_end,
                            format!("bucket {round} push ({total})"),
                        ));
                        spans.push(PhaseSpan::new(
                            PhaseKind::Collective,
                            coll_start,
                            sync_end,
                            format!("bucket {round} collective"),
                        ));
                        spans.push(PhaseSpan::new(
                            PhaseKind::Pull,
                            sync_end,
                            pull_end,
                            format!("bucket {round} pull"),
                        ));
                    }
                    if let (Some(t), Some(tt)) = (&tracer, &mut tracks) {
                        t.span(
                            first_emit,
                            push_end,
                            category::TRAIN,
                            tt.push,
                            &format!("bucket {round} push ({total})"),
                        );
                        t.span(
                            coll_start,
                            sync_end,
                            category::TRAIN,
                            tt.collective,
                            &format!("bucket {round} collective"),
                        );
                        t.span(
                            sync_end,
                            pull_end,
                            category::TRAIN,
                            tt.pull,
                            &format!("bucket {round} pull"),
                        );
                        // The collective consumed every parked shard.
                        for (&d, depth) in parked.iter_mut().filter(|(_, d)| **d > 0) {
                            *depth = 0;
                            let track = tt.proxies[&d];
                            t.counter(sync_end, category::PROXY, track, "queue_depth", 0.0);
                        }
                    }
                }
                if prof.is_some() && tracks.is_none() {
                    // Profiler-only runs still reset the synthesized queue:
                    // the collective consumed every parked shard.
                    for depth in parked.values_mut() {
                        *depth = 0;
                    }
                }
            }

            // Dual sync: shallow layers reduced by the GPUs, blocking, at
            // the end of the backward pass. On clusters the workers use the
            // hierarchical decomposition (intra-node NVLink, then network).
            let gpu_prof = prof.as_ref().map(|p| {
                if !gpu_bytes.is_zero() {
                    p.count(prof_region::TRAIN_GPU_SYNC, 1);
                }
                p.enter(prof_region::TRAIN_GPU_SYNC)
            });
            // The dual-sync collective starts when the backward pass ends.
            let gpu_ring_runs = !gpu_bytes.is_zero() && (multi_node || self.gpu_ring.len() >= 2);
            if gpu_ring_runs {
                if let Some(c) = compute {
                    engine.stage_crit_deps(&[c]);
                }
            }
            let gpu_sync_end = if gpu_bytes.is_zero() {
                backward_end
            } else if multi_node {
                let total: usize = self.node_gpu_rings.iter().map(Vec::len).sum();
                hierarchical_allreduce(
                    &mut engine,
                    &self.node_gpu_rings,
                    gpu_bytes,
                    &vec![backward_end; total],
                    LinkMask::ALL,
                )
                // simlint: allow(panic-in-library, reason = "the worker ring is built from the deployed connected topology")
                .expect("workers are connected")
                .end
            } else if self.gpu_ring.len() >= 2 {
                ring_allreduce(
                    &mut engine,
                    &self.gpu_ring,
                    gpu_bytes,
                    &vec![backward_end; self.gpu_ring.len()],
                    RingDirection::Forward,
                    LinkMask::ALL,
                )
                // simlint: allow(panic-in-library, reason = "the worker ring is built from the deployed connected topology")
                .expect("workers are connected")
                .end
            } else {
                backward_end
            };
            drop(gpu_prof);
            if crit.is_some() && gpu_ring_runs {
                if let Some(n) = engine.last_crit_node() {
                    sink_deps.push(n);
                }
            }
            if tracing && gpu_sync_end > backward_end {
                spans.push(PhaseSpan::new(
                    PhaseKind::GpuSync,
                    backward_end,
                    gpu_sync_end,
                    format!("GPU ring allreduce ({gpu_bytes})"),
                ));
            }
            if let (Some(t), Some(tt)) = (&tracer, &tracks) {
                if gpu_sync_end > backward_end {
                    t.span(
                        backward_end,
                        gpu_sync_end,
                        category::TRAIN,
                        tt.compute,
                        &format!("gpu sync (iter {k}, {gpu_bytes})"),
                    );
                }
            }
            next_start = next_start.max(gpu_sync_end);
            if let (Some(t), Some(tt)) = (&tracer, &tracks) {
                t.span(
                    start,
                    next_start,
                    category::TRAIN,
                    tt.iter,
                    &format!("iteration {k}"),
                );
                let blocked =
                    (next_start - start).saturating_sub(plan.forward_time() + plan.backward_time());
                t.counter(
                    next_start,
                    category::TRAIN,
                    tt.iter,
                    "blocked_us",
                    blocked.as_micros_f64(),
                );
            }
            if let Some(m) = &self.metrics {
                let blocked =
                    (next_start - start).saturating_sub(plan.forward_time() + plan.backward_time());
                m.inc(metric::TRAIN_ITERATIONS, 1);
                m.inc(metric::TRAIN_BLOCKED_NS, blocked.as_nanos());
                m.observe(metric::TRAIN_FP_NS, plan.forward_time().as_nanos() as f64);
                m.observe(metric::TRAIN_BP_NS, plan.backward_time().as_nanos() as f64);
                m.observe(
                    metric::TRAIN_SYNC_NS,
                    next_start
                        .saturating_duration_since(backward_end)
                        .as_nanos() as f64,
                );
            }

            if let Some(cp) = &crit {
                let sink = cp.instant(
                    crit_class::SYNC,
                    format!("iteration {k} boundary"),
                    next_start,
                    &sink_deps,
                );
                cp.mark_iteration(k as u64, sink);
                prev_sink = Some(sink);
            }
            if k == 0 {
                first_period_end = next_start;
            }
            start = next_start;
        }
        (
            (start - first_period_end) / (iterations as u64 - 1).max(1),
            engine,
            spans,
        )
    }

    /// Fault-injected run: like [`run_inner`](Self::run_inner) but every
    /// transfer travels under `plan` (degraded links, flapped routes,
    /// dropped devices, stalled proxies, transient corruption) and the
    /// resilience machinery of `policy` reacts — retry with exponential
    /// backoff on corrupted pushes, proxy failover with routing-table
    /// repair on dropout, graceful degradation to GPU-only sync when the
    /// proxy tier is lost. Callers must fast-path empty plans through
    /// [`run`](Self::run); this method assumes `!plan.is_empty()`.
    fn run_faulty(
        &self,
        proxy_budget: ByteSize,
        iterations: u32,
        plan: &FaultPlan,
        policy: &ResiliencePolicy,
    ) -> (SimDuration, FaultRunStats) {
        assert!(!plan.is_empty(), "empty plans take the fast path");
        let iter_plan = &self.plan;
        let model = self.model;
        let (proxy_path, gpu_bytes) = self.proxy_split(proxy_budget);

        // Fault runs deploy the CCI fabric as a *mesh* rather than a ring:
        // the ring's wrap-around pair after a failover is not ring-adjacent,
        // and memory devices cannot forward for each other (they are
        // emulated by GPUs, §IV-B), so ring survivors would be unroutable.
        // The real CCI switch reconnects any surviving pair; the mesh models
        // that. Direct neighbor links carry the same bandwidth model as the
        // ring's, so the healthy portion of a fault run times identically.
        let mut fault_fabric = self.machine.clone();
        if self.machine.topology().p2p_enabled() {
            for ring in &self.node_mem_rings {
                if ring.len() >= 2 {
                    fault_fabric.augment_cci_mesh(ring);
                }
            }
        }
        let mut engine = TransferEngine::new(fault_fabric.topology().clone());
        engine.set_fault_plan(plan.clone());
        if let Some(m) = &self.metrics {
            engine.set_metrics(m.clone());
        }
        if let Some(hub) = &self.oracles {
            engine.set_oracles(hub.clone());
        }
        let emit = |ev: OracleEvent| {
            if let Some(hub) = &self.oracles {
                hub.emit(ev);
            }
        };
        let tracer = self.tracer.as_ref().filter(|t| t.is_enabled()).cloned();
        if let Some(t) = &tracer {
            engine.set_tracer(t.clone());
            // One instant per injected fault, on a dedicated track.
            let track = t.track("faults: injected");
            for ev in plan.events() {
                t.instant(ev.at, category::FAULT, track, &ev.label);
            }
        }

        // One instant per resilience action, on its own track.
        let note_failover = |at: SimTime, dead: DeviceId, how: &str| {
            if let Some(t) = &tracer {
                let track = t.track("faults: resilience");
                t.instant(
                    at,
                    category::FAULT,
                    track,
                    &format!(
                        "failover: proxy {} {how}, tables repaired",
                        self.deployed.topology().device(dead).name()
                    ),
                );
            }
        };

        let mut state = FaultDeployState {
            mem_devices: self.mem_devices.clone(),
            node_mem_rings: self.node_mem_rings.clone(),
            tables: self.tables.clone(),
            gpu_only: false,
        };
        let mut stats = FaultRunStats::default();
        let mut transfer_seq: u64 = 0;
        let multi_node = self.machine.nodes() > 1;
        let mut start = SimTime::ZERO;
        let mut first_period_end = SimTime::ZERO;
        // Latest simulated instant any work touched, including abandoned
        // streams whose times never fed `next_start` — the RunEnd stamp the
        // time-monotonicity oracle audits against.
        let mut run_end = SimTime::ZERO;
        // Shard streams are keyed per (iteration, direction, tensor) so a
        // stream id never legitimately restarts at shard 0: the retry-FIFO
        // oracle then needs resets only for genuine failover restarts.
        let stream_id = |k: u32, pull: bool, tensor: usize| {
            ((k as u64) << 33) | ((pull as u64) << 32) | tensor as u64
        };
        for k in 0..iterations {
            // Round-start dropout detection: a device that died since the
            // last iteration is noticed before the new round's pushes are
            // routed, at the cost of one detection timeout each.
            let detected: Vec<DeviceId> = state
                .mem_devices
                .iter()
                .copied()
                .filter(|&d| plan.device_down(d.index() as u32, start))
                .collect();
            for dead in detected {
                emit(OracleEvent::FaultBite {
                    kind: BiteKind::Dropout,
                    at: start,
                });
                state.fail_over(
                    self.deployed.topology(),
                    &self.workers,
                    dead,
                    policy,
                    &mut stats,
                );
                start += policy.detect_timeout;
                note_failover(start, dead, "lost between rounds");
            }

            let forward_end = start + iter_plan.forward_time();
            let backward_end = forward_end + iter_plan.backward_time();
            let mut next_start = backward_end;
            if !self.input_bytes.is_zero() {
                for &worker in &self.workers {
                    let cpu = self
                        .deployed
                        .topology()
                        .host_cpu(self.deployed.topology().device(worker).node());
                    let rec = engine
                        .transfer_masked(cpu, worker, self.input_bytes, start, PCIE_ONLY)
                        // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                        .expect("host reaches its workers");
                    next_start = next_start.max(rec.end);
                }
            }

            let mut buckets: Vec<Vec<&coarse_models::training::GradientEvent>> = Vec::new();
            let mut bucket_bytes = ByteSize::ZERO;
            if !state.gpu_only {
                for ev in iter_plan.gradients() {
                    if !proxy_path[ev.tensor] {
                        continue;
                    }
                    let size = model.tensors()[ev.tensor].byte_size();
                    if buckets.is_empty() || bucket_bytes >= BUCKET_TARGET {
                        buckets.push(Vec::new());
                        bucket_bytes = ByteSize::ZERO;
                    }
                    // simlint: allow(panic-in-library, reason = "the branch above pushed a bucket before this read")
                    buckets.last_mut().expect("just pushed").push(ev);
                    bucket_bytes += size;
                }
            }

            'buckets: for (round, bucket) in buckets.iter().enumerate() {
                let mut proxy_ready: BTreeMap<DeviceId, SimTime> = BTreeMap::new();
                let mut latest_emit = forward_end;
                let mut total = ByteSize::ZERO;
                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    total += size;
                    let emitted = forward_end + ev.ready;
                    latest_emit = latest_emit.max(emitted);
                    for (w, &worker) in self.workers.iter().enumerate() {
                        let mut dest = state.tables[w].route_for(size);
                        let shards: Vec<ByteSize> =
                            shard_sizes(size, state.tables[w].shard_size).collect();
                        let stream = stream_id(k, false, ev.tensor);
                        let mut t = emitted;
                        let mut i = 0;
                        while i < shards.len() {
                            match resilient_shard_transfer(
                                &mut engine,
                                plan,
                                policy,
                                worker,
                                dest,
                                shards[i],
                                t,
                                &mut transfer_seq,
                                &mut stats,
                                &ShardStream {
                                    hub: self.oracles.as_ref(),
                                    worker: w as u32,
                                    stream,
                                    shard: shard_label(i, shards.len(), self.sabotage),
                                },
                            ) {
                                Ok(end) => {
                                    t = end;
                                    i += 1;
                                }
                                Err(dead) => {
                                    // The routed proxy died mid-push: fail
                                    // over and restart this tensor's stream
                                    // toward the repaired route.
                                    state.fail_over(
                                        self.deployed.topology(),
                                        &self.workers,
                                        dead,
                                        policy,
                                        &mut stats,
                                    );
                                    t += policy.detect_timeout;
                                    note_failover(t, dead, "died mid-push");
                                    run_end = run_end.max(t);
                                    if state.gpu_only {
                                        break 'buckets;
                                    }
                                    dest = state.tables[w].route_for(size);
                                    i = 0;
                                    emit(OracleEvent::StreamReset {
                                        worker: w as u32,
                                        stream,
                                        at: t,
                                    });
                                }
                            }
                        }
                        // A stalled proxy services the arrival late.
                        let stall = plan.stall(dest.index() as u32, t);
                        if stall > SimDuration::ZERO {
                            emit(OracleEvent::FaultBite {
                                kind: BiteKind::Stall,
                                at: t,
                            });
                        }
                        let t = t + stall;
                        run_end = run_end.max(t);
                        let e = proxy_ready.entry(dest).or_insert(t);
                        *e = (*e).max(t);
                    }
                }
                let ready_of = |d: DeviceId| proxy_ready.get(&d).copied().unwrap_or(latest_emit);

                // The proxy-tier collective can itself hit faults: a proxy
                // whose dropout instant falls between its last serviced push
                // and the ring step, or a flap severing the only allowed
                // route. A death is detected here (one detection timeout),
                // failed over, and the collective retried over the
                // survivors; a severed route waits out the outage in
                // detection-timeout steps, like the shard path above.
                let mut collective_delay = SimDuration::ZERO;
                let mut flap_waits = 0u32;
                let sync_end = loop {
                    let attempt = state.proxy_allreduce(
                        &mut engine,
                        multi_node,
                        total,
                        |d| ready_of(d) + collective_delay,
                        round,
                        self.proxy_mask,
                    );
                    match attempt {
                        Ok(res) => break res.end,
                        Err(CollectiveError::Transfer(TransferError::DeviceDown { device })) => {
                            let noticed = state
                                .mem_devices
                                .iter()
                                .map(|&d| ready_of(d))
                                .max()
                                .unwrap_or(latest_emit)
                                + collective_delay
                                + policy.detect_timeout;
                            state.fail_over(
                                self.deployed.topology(),
                                &self.workers,
                                device,
                                policy,
                                &mut stats,
                            );
                            collective_delay += policy.detect_timeout;
                            note_failover(noticed, device, "died before the proxy collective");
                            run_end = run_end.max(noticed);
                            if state.gpu_only {
                                break 'buckets;
                            }
                        }
                        Err(CollectiveError::Transfer(TransferError::NoRoute { .. })) => {
                            assert!(
                                flap_waits < MAX_FLAP_WAITS,
                                "proxy collective never recovered from its flap"
                            );
                            flap_waits += 1;
                            stats.recovery += policy.detect_timeout;
                            collective_delay += policy.detect_timeout;
                        }
                        Err(e) => {
                            // simlint: allow(panic-in-library, reason = "proxy_allreduce falls back to a flat ring when fail_over leaves node rings uneven; a shape error here is a bug, not a runtime condition")
                            unreachable!("proxy collective shape violated: {e}")
                        }
                    }
                };

                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    for (w, &worker) in self.workers.iter().enumerate() {
                        let mut src = state.tables[w].route_for(size);
                        let shards: Vec<ByteSize> =
                            shard_sizes(size, state.tables[w].shard_size).collect();
                        let stream = stream_id(k, true, ev.tensor);
                        let stall = plan.stall(src.index() as u32, sync_end);
                        if stall > SimDuration::ZERO {
                            emit(OracleEvent::FaultBite {
                                kind: BiteKind::Stall,
                                at: sync_end,
                            });
                        }
                        let mut t = sync_end + stall;
                        let mut i = 0;
                        while i < shards.len() {
                            match resilient_shard_transfer(
                                &mut engine,
                                plan,
                                policy,
                                src,
                                worker,
                                shards[i],
                                t,
                                &mut transfer_seq,
                                &mut stats,
                                &ShardStream {
                                    hub: self.oracles.as_ref(),
                                    worker: w as u32,
                                    stream,
                                    shard: shard_label(i, shards.len(), self.sabotage),
                                },
                            ) {
                                Ok(end) => {
                                    t = end;
                                    i += 1;
                                }
                                Err(dead) => {
                                    state.fail_over(
                                        self.deployed.topology(),
                                        &self.workers,
                                        dead,
                                        policy,
                                        &mut stats,
                                    );
                                    t += policy.detect_timeout;
                                    note_failover(t, dead, "died mid-pull");
                                    run_end = run_end.max(t);
                                    if state.gpu_only {
                                        break 'buckets;
                                    }
                                    src = state.tables[w].route_for(size);
                                    i = 0;
                                    emit(OracleEvent::StreamReset {
                                        worker: w as u32,
                                        stream,
                                        at: t,
                                    });
                                }
                            }
                        }
                        run_end = run_end.max(t);
                        next_start = next_start.max(t - self.needed[&ev.tensor]);
                    }
                }
            }

            // Dual sync; when the proxy tier is (or just became) lost, the
            // GPUs re-synchronize the full parameter set this iteration.
            let sync_bytes = if state.gpu_only {
                model.total_bytes()
            } else {
                gpu_bytes
            };
            // Workers have no failover path (losing one ends training, not
            // a proxy tier), but a flapped worker-to-worker route is
            // survivable: wait out the outage in detection-timeout steps,
            // exactly like the shard path.
            let gpu_sync_end = if sync_bytes.is_zero() {
                backward_end
            } else if multi_node || self.gpu_ring.len() >= 2 {
                let mut delay = SimDuration::ZERO;
                let mut flap_waits = 0u32;
                loop {
                    let attempt = if multi_node {
                        let total: usize = self.node_gpu_rings.iter().map(Vec::len).sum();
                        hierarchical_allreduce(
                            &mut engine,
                            &self.node_gpu_rings,
                            sync_bytes,
                            &vec![backward_end + delay; total],
                            LinkMask::ALL,
                        )
                    } else {
                        ring_allreduce(
                            &mut engine,
                            &self.gpu_ring,
                            sync_bytes,
                            &vec![backward_end + delay; self.gpu_ring.len()],
                            RingDirection::Forward,
                            LinkMask::ALL,
                        )
                    };
                    match attempt {
                        Ok(res) => break res.end,
                        Err(CollectiveError::Transfer(TransferError::NoRoute { .. })) => {
                            assert!(
                                flap_waits < MAX_FLAP_WAITS,
                                "worker collective never recovered from its flap"
                            );
                            flap_waits += 1;
                            stats.recovery += policy.detect_timeout;
                            delay += policy.detect_timeout;
                        }
                        Err(e) => {
                            // Worker loss (or a shape violation, which the
                            // builder rules out) ends training: workers have
                            // no failover tier to absorb them.
                            // simlint: allow(panic-in-library, reason = "losing a worker GPU is unsurvivable by design (S III-E covers the proxy tier only), and gpu rings are shape-validated at construction")
                            panic!("worker collective cannot continue: {e}")
                        }
                    }
                }
            } else {
                backward_end
            };
            next_start = next_start.max(gpu_sync_end);
            run_end = run_end.max(next_start);
            emit(OracleEvent::IterationEnd {
                index: k,
                at: next_start,
            });
            emit(OracleEvent::Progress { at: next_start });

            if k == 0 {
                first_period_end = next_start;
            }
            start = next_start;
        }
        stats.degraded_to_gpu = state.gpu_only;
        stats.end = run_end.max(start);
        (
            (start - first_period_end) / (iterations as u64 - 1).max(1),
            stats,
        )
    }

    /// The recovery-engine run: like [`run_faulty`](Self::run_faulty) but
    /// driven by a [`RecoveryPolicy`] — the full detect → decide → recover
    /// → account protocol:
    ///
    /// - **checkpoints are traffic** — every `checkpoint_interval`
    ///   committed iterations each proxy sealed-pushes its parameter shard
    ///   to its ring mirror over the proxy fabric, and training waits for
    ///   the slowest leg;
    /// - **transient failures repair** — corruption and route-outage
    ///   budgets escalate to elastic membership eviction (epoch-stamped,
    ///   routing rebuilt over survivors) instead of spinning;
    /// - **hard failures restore** — a dropped proxy rolls the run back to
    ///   the last committed checkpoint: survivors coherently read the image
    ///   back from their mirrors, the lost iterations are re-executed, and
    ///   the episode (detection + repair + restore reads) is the MTTR.
    ///
    /// Unlike `run_faulty` this handles empty plans: with
    /// `checkpoint_interval = 0` the run times identically to
    /// [`run`](Self::run), making checkpoint overhead and fault damage
    /// separately measurable. Returns the steady-state period plus the full
    /// recovery accounting (wall time included).
    fn run_recovering(
        &self,
        proxy_budget: ByteSize,
        iterations: u32,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> (SimDuration, RecoveryRunStats) {
        let res = &policy.resilience;
        let iter_plan = &self.plan;
        let model = self.model;
        let (proxy_path, gpu_bytes) = self.proxy_split(proxy_budget);

        // Same mesh deployment as `run_faulty`: survivors of an eviction
        // must stay pairwise routable. Healthy-path timing is identical.
        let mut fault_fabric = self.machine.clone();
        if self.machine.topology().p2p_enabled() {
            for ring in &self.node_mem_rings {
                if ring.len() >= 2 {
                    fault_fabric.augment_cci_mesh(ring);
                }
            }
        }
        let mut engine = TransferEngine::new(fault_fabric.topology().clone());
        if !plan.is_empty() {
            engine.set_fault_plan(plan.clone());
        }
        if let Some(m) = &self.metrics {
            engine.set_metrics(m.clone());
        }
        if let Some(hub) = &self.oracles {
            engine.set_oracles(hub.clone());
        }
        let emit = |ev: OracleEvent| {
            if let Some(hub) = &self.oracles {
                hub.emit(ev);
            }
        };
        let tracer = self.tracer.as_ref().filter(|t| t.is_enabled()).cloned();
        if let Some(t) = &tracer {
            engine.set_tracer(t.clone());
            let track = t.track("faults: injected");
            for ev in plan.events() {
                t.instant(ev.at, category::FAULT, track, &ev.label);
            }
        }
        let note_recovery = |at: SimTime, what: &str| {
            if let Some(t) = &tracer {
                let track = t.track("recovery: engine");
                t.instant(at, category::FAULT, track, what);
            }
        };

        let mut state = FaultDeployState {
            mem_devices: self.mem_devices.clone(),
            node_mem_rings: self.node_mem_rings.clone(),
            tables: self.tables.clone(),
            gpu_only: false,
        };
        let mut stats = RecoveryRunStats::default();
        let mut membership = Membership::default();
        let mut transfer_seq: u64 = 0;
        let multi_node = self.machine.nodes() > 1;
        let total_bytes = model.total_bytes();
        let topo = self.deployed.topology();
        let io = PoolIo {
            topo,
            workers: &self.workers,
            proxy_mask: self.proxy_mask,
            total: total_bytes,
            plan,
            policy,
        };
        let mut start = SimTime::ZERO;
        let mut first_period_end = SimTime::ZERO;
        let mut committed_any = false;
        let mut run_end = SimTime::ZERO;
        // Committed iterations: rolled back on restore, so re-executed work
        // is visible as wall-clock without double-counting progress.
        let mut completed: u32 = 0;
        // The committed-iteration index of the last durable pool
        // checkpoint; iteration 0's initial parameter distribution counts
        // as checkpoint 0.
        let mut last_ckpt: u32 = 0;
        // Execution attempts (monotone): stream ids and iteration-end
        // indices key off this so a rollback never reuses either.
        let mut executed: u64 = 0;
        let stream_id =
            |e: u64, pull: bool, tensor: usize| (e << 33) | ((pull as u64) << 32) | tensor as u64;
        'outer: while completed < iterations {
            // Fresh attempt number per execution attempt: an attempt aborted
            // by a hard failure must not reuse its stream ids, or the
            // retry-fifo oracle would see the re-execution as an out-of-order
            // shard replay.
            let attempt = executed;
            executed += 1;
            // Round-start detection, as in `run_faulty` — but a detected
            // dropout now triggers a restore episode, not just repair.
            let detected: Vec<DeviceId> = state
                .mem_devices
                .iter()
                .copied()
                .filter(|&d| plan.device_down(d.index() as u32, start))
                .collect();
            if !detected.is_empty() {
                let episode_start = start;
                for dead in detected {
                    emit(OracleEvent::FaultBite {
                        kind: BiteKind::Dropout,
                        at: start,
                    });
                    state.evict(topo, &self.workers, dead);
                    start += res.detect_timeout;
                    stats.detection_time += res.detect_timeout;
                    membership.bump(start, self.oracles.as_ref());
                    note_recovery(
                        start,
                        &format!(
                            "repair: proxy {} lost between rounds (epoch {})",
                            topo.device(dead).name(),
                            membership.epoch
                        ),
                    );
                }
                run_end = run_end.max(start);
                if !state.gpu_only {
                    let restore_begin = start;
                    let end = pool_restore(
                        &mut engine,
                        &mut state,
                        &io,
                        restore_begin,
                        &mut membership,
                        &mut stats,
                        self.oracles.as_ref(),
                        &mut transfer_seq,
                    );
                    run_end = run_end.max(end);
                    if !state.gpu_only {
                        stats.restores += 1;
                        stats.restore_bytes += total_bytes.as_u64();
                        stats.restore_time += end.saturating_duration_since(restore_begin);
                        stats.mttr_total += end.saturating_duration_since(episode_start);
                        stats.lost_iterations += u64::from(completed - last_ckpt);
                        completed = last_ckpt;
                        note_recovery(
                            end,
                            &format!("restore: rolled back to iteration {completed}"),
                        );
                    }
                    start = end;
                }
                continue 'outer;
            }

            let forward_end = start + iter_plan.forward_time();
            let backward_end = forward_end + iter_plan.backward_time();
            let mut next_start = backward_end;
            if !self.input_bytes.is_zero() {
                for &worker in &self.workers {
                    let cpu = topo.host_cpu(topo.device(worker).node());
                    let rec = engine
                        .transfer_masked(cpu, worker, self.input_bytes, start, PCIE_ONLY)
                        // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                        .expect("host reaches its workers");
                    next_start = next_start.max(rec.end);
                }
            }

            let mut buckets: Vec<Vec<&coarse_models::training::GradientEvent>> = Vec::new();
            let mut bucket_bytes = ByteSize::ZERO;
            if !state.gpu_only {
                for ev in iter_plan.gradients() {
                    if !proxy_path[ev.tensor] {
                        continue;
                    }
                    let size = model.tensors()[ev.tensor].byte_size();
                    if buckets.is_empty() || bucket_bytes >= BUCKET_TARGET {
                        buckets.push(Vec::new());
                        bucket_bytes = ByteSize::ZERO;
                    }
                    // simlint: allow(panic-in-library, reason = "the branch above pushed a bucket before this read")
                    buckets.last_mut().expect("just pushed").push(ev);
                    bucket_bytes += size;
                }
            }

            // A hard failure (dropped proxy) observed mid-iteration: the
            // iteration is abandoned and a restore episode runs below.
            let mut hard_failure: Option<SimTime> = None;

            'buckets: for (round, bucket) in buckets.iter().enumerate() {
                let mut proxy_ready: BTreeMap<DeviceId, SimTime> = BTreeMap::new();
                let mut latest_emit = forward_end;
                let mut total = ByteSize::ZERO;
                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    total += size;
                    let emitted = forward_end + ev.ready;
                    latest_emit = latest_emit.max(emitted);
                    for (w, &worker) in self.workers.iter().enumerate() {
                        let mut dest = state.tables[w].route_for(size);
                        let shards: Vec<ByteSize> =
                            shard_sizes(size, state.tables[w].shard_size).collect();
                        let stream = stream_id(attempt, false, ev.tensor);
                        let mut t = emitted;
                        let mut i = 0;
                        while i < shards.len() {
                            match recovering_shard_transfer(
                                &mut engine,
                                plan,
                                policy,
                                worker,
                                dest,
                                dest,
                                shards[i],
                                t,
                                &mut transfer_seq,
                                &mut stats,
                                &ShardStream {
                                    hub: self.oracles.as_ref(),
                                    worker: w as u32,
                                    stream,
                                    shard: shard_label(i, shards.len(), self.sabotage),
                                },
                            ) {
                                ShardOutcome::Done(end) => {
                                    t = end;
                                    i += 1;
                                }
                                ShardOutcome::Evict { device, hard, at } => {
                                    if !state.mem_devices.contains(&device) {
                                        // simlint: allow(panic-in-library, reason = "losing a worker GPU is unsurvivable by design (S III-E covers the proxy tier only)")
                                        panic!("non-proxy device dropped mid-push: unsurvivable");
                                    }
                                    let t2 = at + res.detect_timeout;
                                    stats.detection_time += res.detect_timeout;
                                    state.evict(topo, &self.workers, device);
                                    membership.bump(t2, self.oracles.as_ref());
                                    run_end = run_end.max(t2);
                                    note_recovery(
                                        t2,
                                        &format!(
                                            "{}: proxy {} evicted mid-push (epoch {})",
                                            if hard { "restore" } else { "repair" },
                                            topo.device(device).name(),
                                            membership.epoch
                                        ),
                                    );
                                    if hard {
                                        hard_failure = Some(at);
                                        break 'buckets;
                                    }
                                    stats.repairs += 1;
                                    if state.gpu_only {
                                        break 'buckets;
                                    }
                                    dest = state.tables[w].route_for(size);
                                    t = t2;
                                    i = 0;
                                    emit(OracleEvent::StreamReset {
                                        worker: w as u32,
                                        stream,
                                        at: t,
                                    });
                                }
                            }
                        }
                        let stall = plan.stall(dest.index() as u32, t);
                        if stall > SimDuration::ZERO {
                            emit(OracleEvent::FaultBite {
                                kind: BiteKind::Stall,
                                at: t,
                            });
                        }
                        let t = t + stall;
                        run_end = run_end.max(t);
                        let e = proxy_ready.entry(dest).or_insert(t);
                        *e = (*e).max(t);
                    }
                }
                let ready_of = |d: DeviceId| proxy_ready.get(&d).copied().unwrap_or(latest_emit);

                // Proxy collective: a death here is a hard failure (restore
                // episode); a severed route is waited out within budget and
                // then repaired by evicting the unreachable member.
                let mut collective_delay = SimDuration::ZERO;
                let mut route_waits = 0u32;
                let sync_end = loop {
                    let attempt = state.proxy_allreduce(
                        &mut engine,
                        multi_node,
                        total,
                        |d| ready_of(d) + collective_delay,
                        round,
                        self.proxy_mask,
                    );
                    match attempt {
                        Ok(res_ok) => break res_ok.end,
                        Err(CollectiveError::Transfer(TransferError::DeviceDown { device })) => {
                            let observed = state
                                .mem_devices
                                .iter()
                                .map(|&d| ready_of(d))
                                .max()
                                .unwrap_or(latest_emit)
                                + collective_delay;
                            let t2 = observed + res.detect_timeout;
                            stats.detection_time += res.detect_timeout;
                            state.evict(topo, &self.workers, device);
                            membership.bump(t2, self.oracles.as_ref());
                            run_end = run_end.max(t2);
                            note_recovery(
                                t2,
                                &format!(
                                    "restore: proxy {} died before the collective (epoch {})",
                                    topo.device(device).name(),
                                    membership.epoch
                                ),
                            );
                            hard_failure = Some(observed);
                            break 'buckets;
                        }
                        Err(CollectiveError::Transfer(TransferError::NoRoute { src, dst })) => {
                            match policy.action_for(FailureKind::RouteOutage, route_waits) {
                                RecoveryAction::Retry => {
                                    route_waits += 1;
                                    stats.backoff_time += res.detect_timeout;
                                    collective_delay += res.detect_timeout;
                                }
                                _ => {
                                    // Budget exhausted: evict whichever
                                    // endpoint of the severed route is a
                                    // pool member and retry over survivors.
                                    let victim = if state.mem_devices.contains(&dst) {
                                        Some(dst)
                                    } else if state.mem_devices.contains(&src) {
                                        Some(src)
                                    } else {
                                        None
                                    };
                                    match victim {
                                        Some(v) => {
                                            let t2 = state
                                                .mem_devices
                                                .iter()
                                                .map(|&d| ready_of(d))
                                                .max()
                                                .unwrap_or(latest_emit)
                                                + collective_delay
                                                + res.detect_timeout;
                                            stats.detection_time += res.detect_timeout;
                                            state.evict(topo, &self.workers, v);
                                            membership.bump(t2, self.oracles.as_ref());
                                            stats.repairs += 1;
                                            run_end = run_end.max(t2);
                                            note_recovery(
                                                t2,
                                                &format!(
                                                    "repair: proxy {} unreachable, evicted (epoch {})",
                                                    topo.device(v).name(),
                                                    membership.epoch
                                                ),
                                            );
                                            if state.gpu_only {
                                                break 'buckets;
                                            }
                                            collective_delay += res.detect_timeout;
                                            route_waits = 0;
                                        }
                                        None => {
                                            assert!(
                                                route_waits < MAX_FLAP_WAITS,
                                                "proxy collective never recovered from its flap"
                                            );
                                            route_waits += 1;
                                            stats.backoff_time += res.detect_timeout;
                                            collective_delay += res.detect_timeout;
                                        }
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            // simlint: allow(panic-in-library, reason = "proxy_allreduce falls back to a flat ring when evict leaves node rings uneven; a shape error here is a bug, not a runtime condition")
                            unreachable!("proxy collective shape violated: {e}")
                        }
                    }
                };

                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    for (w, &worker) in self.workers.iter().enumerate() {
                        let mut src = state.tables[w].route_for(size);
                        let shards: Vec<ByteSize> =
                            shard_sizes(size, state.tables[w].shard_size).collect();
                        let stream = stream_id(attempt, true, ev.tensor);
                        let stall = plan.stall(src.index() as u32, sync_end);
                        if stall > SimDuration::ZERO {
                            emit(OracleEvent::FaultBite {
                                kind: BiteKind::Stall,
                                at: sync_end,
                            });
                        }
                        let mut t = sync_end + stall;
                        let mut i = 0;
                        while i < shards.len() {
                            match recovering_shard_transfer(
                                &mut engine,
                                plan,
                                policy,
                                src,
                                worker,
                                src,
                                shards[i],
                                t,
                                &mut transfer_seq,
                                &mut stats,
                                &ShardStream {
                                    hub: self.oracles.as_ref(),
                                    worker: w as u32,
                                    stream,
                                    shard: shard_label(i, shards.len(), self.sabotage),
                                },
                            ) {
                                ShardOutcome::Done(end) => {
                                    t = end;
                                    i += 1;
                                }
                                ShardOutcome::Evict { device, hard, at } => {
                                    if !state.mem_devices.contains(&device) {
                                        // simlint: allow(panic-in-library, reason = "losing a worker GPU is unsurvivable by design (S III-E covers the proxy tier only)")
                                        panic!("non-proxy device dropped mid-pull: unsurvivable");
                                    }
                                    let t2 = at + res.detect_timeout;
                                    stats.detection_time += res.detect_timeout;
                                    state.evict(topo, &self.workers, device);
                                    membership.bump(t2, self.oracles.as_ref());
                                    run_end = run_end.max(t2);
                                    note_recovery(
                                        t2,
                                        &format!(
                                            "{}: proxy {} evicted mid-pull (epoch {})",
                                            if hard { "restore" } else { "repair" },
                                            topo.device(device).name(),
                                            membership.epoch
                                        ),
                                    );
                                    if hard {
                                        hard_failure = Some(at);
                                        break 'buckets;
                                    }
                                    stats.repairs += 1;
                                    if state.gpu_only {
                                        break 'buckets;
                                    }
                                    src = state.tables[w].route_for(size);
                                    t = t2;
                                    i = 0;
                                    emit(OracleEvent::StreamReset {
                                        worker: w as u32,
                                        stream,
                                        at: t,
                                    });
                                }
                            }
                        }
                        run_end = run_end.max(t);
                        next_start = next_start.max(t - self.needed[&ev.tensor]);
                    }
                }
            }

            if let Some(fail_at) = hard_failure {
                if !state.gpu_only {
                    // The eviction is already done (detection charged at
                    // the failure site); restore the image and roll back.
                    let restore_begin = fail_at + res.detect_timeout;
                    let end = pool_restore(
                        &mut engine,
                        &mut state,
                        &io,
                        restore_begin,
                        &mut membership,
                        &mut stats,
                        self.oracles.as_ref(),
                        &mut transfer_seq,
                    );
                    run_end = run_end.max(end);
                    if !state.gpu_only {
                        stats.restores += 1;
                        stats.restore_bytes += total_bytes.as_u64();
                        stats.restore_time += end.saturating_duration_since(restore_begin);
                        stats.mttr_total += end.saturating_duration_since(fail_at);
                        stats.lost_iterations += u64::from(completed - last_ckpt);
                        completed = last_ckpt;
                        note_recovery(
                            end,
                            &format!("restore: rolled back to iteration {completed}"),
                        );
                        start = end;
                        continue 'outer;
                    }
                    start = end;
                    continue 'outer;
                }
                // The pool died with its last member: nothing to restore
                // from. Fall through and finish this iteration GPU-only.
            }

            let sync_bytes = if state.gpu_only {
                model.total_bytes()
            } else {
                gpu_bytes
            };
            let gpu_sync_end = if sync_bytes.is_zero() {
                backward_end
            } else if multi_node || self.gpu_ring.len() >= 2 {
                let mut delay = SimDuration::ZERO;
                let mut flap_waits = 0u32;
                loop {
                    let attempt = if multi_node {
                        let total: usize = self.node_gpu_rings.iter().map(Vec::len).sum();
                        hierarchical_allreduce(
                            &mut engine,
                            &self.node_gpu_rings,
                            sync_bytes,
                            &vec![backward_end + delay; total],
                            LinkMask::ALL,
                        )
                    } else {
                        ring_allreduce(
                            &mut engine,
                            &self.gpu_ring,
                            sync_bytes,
                            &vec![backward_end + delay; self.gpu_ring.len()],
                            RingDirection::Forward,
                            LinkMask::ALL,
                        )
                    };
                    match attempt {
                        Ok(res_ok) => break res_ok.end,
                        Err(CollectiveError::Transfer(TransferError::NoRoute { .. })) => {
                            // Workers have no failover tier: wait the flap
                            // out (bounded like `run_faulty`).
                            assert!(
                                flap_waits < MAX_FLAP_WAITS,
                                "worker collective never recovered from its flap"
                            );
                            flap_waits += 1;
                            stats.backoff_time += res.detect_timeout;
                            delay += res.detect_timeout;
                        }
                        Err(e) => {
                            // simlint: allow(panic-in-library, reason = "losing a worker GPU is unsurvivable by design (S III-E covers the proxy tier only), and gpu rings are shape-validated at construction")
                            panic!("worker collective cannot continue: {e}")
                        }
                    }
                }
            } else {
                backward_end
            };
            next_start = next_start.max(gpu_sync_end);
            run_end = run_end.max(next_start);
            emit(OracleEvent::IterationEnd {
                index: attempt as u32,
                at: next_start,
            });
            emit(OracleEvent::Progress { at: next_start });
            completed += 1;
            if !committed_any {
                committed_any = true;
                first_period_end = next_start;
            }

            // Pool checkpoint: sealed-push every shard to its mirror and
            // wait for the slowest leg before the next iteration starts.
            if policy.checkpoint_due(completed, iterations) && !state.gpu_only {
                let ckpt_begin = next_start;
                match pool_checkpoint(
                    &mut engine,
                    &mut state,
                    &io,
                    ckpt_begin,
                    &mut membership,
                    &mut stats,
                    self.oracles.as_ref(),
                    &mut transfer_seq,
                ) {
                    PoolIoOutcome::Done(end) => {
                        run_end = run_end.max(end);
                        if !state.gpu_only {
                            stats.checkpoints += 1;
                            stats.checkpoint_bytes += total_bytes.as_u64();
                            stats.checkpoint_time += end.saturating_duration_since(ckpt_begin);
                            last_ckpt = completed;
                        }
                        start = end;
                    }
                    PoolIoOutcome::MemberDown { device, at } => {
                        // A proxy died with its checkpoint shard in flight:
                        // the fresh image never committed, so the restore
                        // rolls back to the previous one.
                        emit(OracleEvent::FaultBite {
                            kind: BiteKind::Dropout,
                            at,
                        });
                        let t2 = at + res.detect_timeout;
                        stats.detection_time += res.detect_timeout;
                        if !state.mem_devices.contains(&device) {
                            // simlint: allow(panic-in-library, reason = "checkpoint legs run between pool members only")
                            panic!("non-member device dropped mid-checkpoint");
                        }
                        state.evict(topo, &self.workers, device);
                        membership.bump(t2, self.oracles.as_ref());
                        run_end = run_end.max(t2);
                        note_recovery(
                            t2,
                            &format!(
                                "restore: proxy {} died mid-checkpoint (epoch {})",
                                topo.device(device).name(),
                                membership.epoch
                            ),
                        );
                        if state.gpu_only {
                            start = t2;
                        } else {
                            let end = pool_restore(
                                &mut engine,
                                &mut state,
                                &io,
                                t2,
                                &mut membership,
                                &mut stats,
                                self.oracles.as_ref(),
                                &mut transfer_seq,
                            );
                            run_end = run_end.max(end);
                            if !state.gpu_only {
                                stats.restores += 1;
                                stats.restore_bytes += total_bytes.as_u64();
                                stats.restore_time += end.saturating_duration_since(t2);
                                stats.mttr_total += end.saturating_duration_since(at);
                                stats.lost_iterations += u64::from(completed - last_ckpt);
                                completed = last_ckpt;
                                note_recovery(
                                    end,
                                    &format!("restore: rolled back to iteration {completed}"),
                                );
                            }
                            start = end;
                        }
                    }
                }
            } else {
                start = next_start;
            }
        }
        stats.degraded_to_gpu = state.gpu_only;
        stats.membership_epoch = membership.epoch;
        stats.end = run_end.max(start);
        stats.wall = start.saturating_duration_since(SimTime::ZERO);
        (
            (start - first_period_end) / (iterations as u64 - 1).max(1),
            stats,
        )
    }
}

/// The shard label the oracle is told about: honest under
/// [`Sabotage::None`], inverted under [`Sabotage::InvertRetryOrder`] so the
/// retry-FIFO oracle sees shard indices regress.
fn shard_label(i: usize, n: usize, sabotage: Sabotage) -> u32 {
    match sabotage {
        Sabotage::None => i as u32,
        Sabotage::InvertRetryOrder => (n - 1 - i) as u32,
    }
}

/// After this many integrity rejections of one shard the retransmission is
/// assumed to land clean (the link re-trains), so 100%-corruption plans
/// still terminate.
const MAX_PUSH_ATTEMPTS: u32 = 32;

/// Cap on waiting out a flapped route before declaring the fabric broken.
const MAX_FLAP_WAITS: u32 = 10_000;

/// Mutable deployment state of one fault-injected run: the surviving
/// proxies and the routing tables currently addressing them.
struct FaultDeployState {
    mem_devices: Vec<DeviceId>,
    node_mem_rings: Vec<Vec<DeviceId>>,
    tables: Vec<RoutingTable>,
    gpu_only: bool,
}

impl FaultDeployState {
    /// Removes `dead` from the deployment, charges one detection timeout,
    /// and repairs the routing tables over the survivors (the §III-E
    /// dynamic re-profiling used as failover). Fewer than two survivors
    /// collapse the run to GPU-only synchronization.
    fn fail_over(
        &mut self,
        topo: &Topology,
        workers: &[DeviceId],
        dead: DeviceId,
        policy: &ResiliencePolicy,
        stats: &mut FaultRunStats,
    ) {
        self.evict(topo, workers, dead);
        stats.failovers += 1;
        stats.recovery += policy.detect_timeout;
    }

    /// The membership surgery of [`fail_over`](Self::fail_over) without the
    /// accounting: removes `dead` and repairs routing over the survivors
    /// (or collapses to GPU-only below two survivors). The recovery engine
    /// calls this directly and does its own epoch/time bookkeeping.
    fn evict(&mut self, topo: &Topology, workers: &[DeviceId], dead: DeviceId) {
        self.mem_devices.retain(|&d| d != dead);
        for ring in &mut self.node_mem_rings {
            ring.retain(|&d| d != dead);
        }
        self.node_mem_rings.retain(|r| !r.is_empty());
        if self.mem_devices.len() < 2 {
            self.gpu_only = true;
        } else {
            self.tables = workers
                .iter()
                .enumerate()
                .map(|(w, &worker)| {
                    build_routing_table_for(topo, worker, &self.mem_devices, w, SimTime::ZERO)
                })
                .collect();
        }
    }

    /// The proxy-tier allreduce over the surviving pool. Multi-node runs
    /// reduce hierarchically while every node keeps the same number of
    /// proxies; once an eviction leaves the node rings unequal, all
    /// survivors join one flat ring across the nodes over the CCI-or-network
    /// fabric, so no healthy proxy is dropped to even the rings out.
    fn proxy_allreduce(
        &self,
        engine: &mut TransferEngine,
        multi_node: bool,
        payload: ByteSize,
        ready_of: impl Fn(DeviceId) -> SimTime,
        round: usize,
        proxy_mask: LinkMask,
    ) -> Result<CollectiveResult, CollectiveError> {
        let rings = &self.node_mem_rings;
        let even = rings.iter().all(|r| r.len() == rings[0].len());
        if multi_node && even {
            let ready: Vec<SimTime> = rings.iter().flatten().map(|&d| ready_of(d)).collect();
            return hierarchical_allreduce(engine, rings, payload, &ready, CCI_OR_NETWORK);
        }
        let mask = if multi_node {
            CCI_OR_NETWORK
        } else {
            proxy_mask
        };
        let ready: Vec<SimTime> = self.mem_devices.iter().map(|&d| ready_of(d)).collect();
        ring_allreduce(
            engine,
            &self.mem_devices,
            payload,
            &ready,
            RingDirection::for_group(round),
            mask,
        )
    }
}

/// Accounting of one fault-injected run.
#[derive(Debug, Clone, Copy, Default)]
struct FaultRunStats {
    retries: u64,
    failovers: u64,
    recovery: SimDuration,
    degraded_to_gpu: bool,
    /// Latest simulated instant the run touched (RunEnd stamp).
    end: SimTime,
}

/// Oracle context of one shard stream: where (if anywhere) to report the
/// attempts of one tensor's push or pull.
struct ShardStream<'a> {
    hub: Option<&'a OracleHub>,
    worker: u32,
    stream: u64,
    shard: u32,
}

/// One client-side shard transfer under faults: integrity-rejected
/// transfers are retransmitted after exponential backoff, flapped routes
/// are waited out, and a dropped endpoint is reported to the caller for
/// failover (`Err` carries the dead device).
#[allow(clippy::too_many_arguments)]
fn resilient_shard_transfer(
    engine: &mut TransferEngine,
    plan: &FaultPlan,
    policy: &ResiliencePolicy,
    src: DeviceId,
    dst: DeviceId,
    size: ByteSize,
    at: SimTime,
    transfer_seq: &mut u64,
    stats: &mut FaultRunStats,
    obs: &ShardStream<'_>,
) -> Result<SimTime, DeviceId> {
    let mut t = at;
    let mut attempt = 0u32;
    loop {
        if let Some(hub) = obs.hub {
            hub.emit(OracleEvent::ShardAttempt {
                worker: obs.worker,
                stream: obs.stream,
                shard: obs.shard,
                attempt,
                at: t,
            });
        }
        *transfer_seq += 1;
        match engine.transfer_masked(src, dst, size, t, PCIE_ONLY) {
            Ok(rec) => {
                if attempt < MAX_PUSH_ATTEMPTS
                    && plan.corrupts(dst.index() as u32, rec.end, *transfer_seq)
                {
                    // CRC32 seal rejected at the receiver: back off and
                    // retransmit (a fresh sequence number draws a fresh,
                    // reproducible corruption decision).
                    if let Some(hub) = obs.hub {
                        hub.emit(OracleEvent::FaultBite {
                            kind: BiteKind::Corrupt,
                            at: rec.end,
                        });
                    }
                    stats.retries += 1;
                    let backoff = policy.backoff_after(attempt);
                    stats.recovery += backoff;
                    t = rec.end + backoff;
                    attempt += 1;
                    continue;
                }
                return Ok(rec.end);
            }
            Err(TransferError::DeviceDown { device }) => return Err(device),
            Err(TransferError::NoRoute { .. }) => {
                // A link flap cut every allowed route: wait one detection
                // timeout for the fabric to heal and try again.
                assert!(
                    attempt < MAX_FLAP_WAITS,
                    "route {src:?} -> {dst:?} never recovered from its flap"
                );
                stats.recovery += policy.detect_timeout;
                t += policy.detect_timeout;
                attempt += 1;
            }
        }
    }
}

/// Accounting of one recovery-engine run.
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryRunStats {
    /// Retransmissions of integrity-rejected sealed pushes.
    retries: u64,
    /// Elastic membership repairs (soft evictions, routing rebuilt).
    repairs: u64,
    /// Restore episodes (hard failure, rollback to the last checkpoint).
    restores: u64,
    /// Final membership epoch (number of membership changes).
    membership_epoch: u64,
    /// Pool checkpoints committed.
    checkpoints: u64,
    /// Simulated time training stalled on checkpoint pushes.
    checkpoint_time: SimDuration,
    /// Bytes sealed-pushed into the pool by committed checkpoints.
    checkpoint_bytes: u64,
    /// Simulated time spent coherently reading images back out.
    restore_time: SimDuration,
    /// Bytes coherently read back by restores.
    restore_bytes: u64,
    /// Committed iterations rolled back and re-executed.
    lost_iterations: u64,
    /// Simulated time charged to failure detection.
    detection_time: SimDuration,
    /// Simulated time spent backing off and waiting out outages.
    backoff_time: SimDuration,
    /// Summed failure-to-recovered episode lengths (MTTR numerator).
    mttr_total: SimDuration,
    degraded_to_gpu: bool,
    /// Total wall time of the run (first iteration start to last commit).
    wall: SimDuration,
    /// Latest simulated instant the run touched (RunEnd stamp).
    end: SimTime,
}

/// Epoch-stamped proxy membership view of one recovering run. Epoch 0 is
/// the initial view; every eviction announces a strictly newer epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Membership {
    epoch: u64,
    stamp: SimTime,
}

impl Membership {
    /// Announces the next membership epoch. Concurrent streams are
    /// simulated in program order, so a later eviction can carry an earlier
    /// instant; the control plane serializes views, so announced stamps
    /// never run backward.
    fn bump(&mut self, at: SimTime, oracles: Option<&OracleHub>) {
        self.epoch += 1;
        self.stamp = self.stamp.max(at);
        if let Some(hub) = oracles {
            hub.emit(OracleEvent::MembershipEpoch {
                epoch: self.epoch,
                at: self.stamp,
            });
        }
    }
}

/// Immutable context shared by the pool checkpoint/restore helpers.
struct PoolIo<'a> {
    topo: &'a Topology,
    workers: &'a [DeviceId],
    proxy_mask: LinkMask,
    /// Full parameter-image size (every checkpoint and restore moves it).
    total: ByteSize,
    plan: &'a FaultPlan,
    policy: &'a RecoveryPolicy,
}

/// What a pool checkpoint came to.
enum PoolIoOutcome {
    /// All legs landed; the image is durable as of this instant.
    Done(SimTime),
    /// A pool member died with a leg in flight; the caller escalates to a
    /// restore episode (this image never committed).
    MemberDown { device: DeviceId, at: SimTime },
}

/// What one shard transfer under a [`RecoveryPolicy`] came to.
enum ShardOutcome {
    Done(SimTime),
    /// A device must leave the membership: the transfer's endpoint died
    /// (`hard`, triggering a restore) or exhausted its retry budget
    /// (`!hard`, triggering an elastic repair).
    Evict {
        device: DeviceId,
        hard: bool,
        at: SimTime,
    },
}

/// One client-side shard transfer under a [`RecoveryPolicy`]: like
/// [`resilient_shard_transfer`] but with *bounded* budgets — when the
/// corruption or route-wait budget runs out the proxy endpoint is handed
/// back for eviction instead of retrying forever. `proxy` names the
/// evictable endpoint (the destination for pushes, the source for pulls).
#[allow(clippy::too_many_arguments)]
fn recovering_shard_transfer(
    engine: &mut TransferEngine,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    src: DeviceId,
    dst: DeviceId,
    proxy: DeviceId,
    size: ByteSize,
    at: SimTime,
    transfer_seq: &mut u64,
    stats: &mut RecoveryRunStats,
    obs: &ShardStream<'_>,
) -> ShardOutcome {
    let res = &policy.resilience;
    let mut t = at;
    let mut rejects = 0u32;
    let mut waits = 0u32;
    loop {
        if let Some(hub) = obs.hub {
            hub.emit(OracleEvent::ShardAttempt {
                worker: obs.worker,
                stream: obs.stream,
                shard: obs.shard,
                attempt: rejects + waits,
                at: t,
            });
        }
        *transfer_seq += 1;
        match engine.transfer_masked(src, dst, size, t, PCIE_ONLY) {
            Ok(rec) => {
                if plan.corrupts(dst.index() as u32, rec.end, *transfer_seq) {
                    if let Some(hub) = obs.hub {
                        hub.emit(OracleEvent::FaultBite {
                            kind: BiteKind::Corrupt,
                            at: rec.end,
                        });
                    }
                    match policy.action_for(FailureKind::CorruptStream, rejects) {
                        RecoveryAction::Retry => {
                            stats.retries += 1;
                            let backoff = res.backoff_after(rejects);
                            stats.backoff_time += backoff;
                            t = rec.end + backoff;
                            rejects += 1;
                            continue;
                        }
                        // The seal keeps failing: the proxy's receive path
                        // is suspect — evict it rather than spin.
                        _ => {
                            return ShardOutcome::Evict {
                                device: proxy,
                                hard: false,
                                at: rec.end,
                            }
                        }
                    }
                }
                return ShardOutcome::Done(rec.end);
            }
            Err(TransferError::DeviceDown { device }) => {
                return ShardOutcome::Evict {
                    device,
                    hard: true,
                    at: t,
                }
            }
            Err(TransferError::NoRoute { .. }) => {
                match policy.action_for(FailureKind::RouteOutage, waits) {
                    RecoveryAction::Retry => {
                        stats.backoff_time += res.detect_timeout;
                        t += res.detect_timeout;
                        waits += 1;
                    }
                    _ => {
                        return ShardOutcome::Evict {
                            device: proxy,
                            hard: false,
                            at: t,
                        }
                    }
                }
            }
        }
    }
}

/// One pool checkpoint: every surviving proxy sealed-pushes its shard of
/// the parameter image to its ring mirror (per [`plan_pool_checkpoint`]),
/// all legs in parallel from `at`, and the image commits when the slowest
/// leg lands. Transient failures follow the policy budgets — corruption
/// retries with backoff then evicts the mirror, severed routes are waited
/// out then repaired — and any eviction replans the legs over the shrunken
/// membership (the image restarts; a half-written image is useless). A
/// member death aborts: the caller escalates to a restore episode.
#[allow(clippy::too_many_arguments)]
fn pool_checkpoint(
    engine: &mut TransferEngine,
    state: &mut FaultDeployState,
    io: &PoolIo<'_>,
    at: SimTime,
    membership: &mut Membership,
    stats: &mut RecoveryRunStats,
    oracles: Option<&OracleHub>,
    transfer_seq: &mut u64,
) -> PoolIoOutcome {
    let res = &io.policy.resilience;
    let mut at = at;
    'replan: loop {
        let members = state.mem_devices.clone();
        let legs = plan_pool_checkpoint(members.len(), io.total);
        let mut end = at;
        for leg in &legs.legs {
            let (src, dst) = (members[leg.src], members[leg.mirror]);
            let mut t = at;
            let mut rejects = 0u32;
            let mut waits = 0u32;
            loop {
                *transfer_seq += 1;
                match engine.transfer_masked(src, dst, leg.bytes, t, io.proxy_mask) {
                    Ok(rec) => {
                        if io.plan.corrupts(dst.index() as u32, rec.end, *transfer_seq) {
                            if let Some(hub) = oracles {
                                hub.emit(OracleEvent::FaultBite {
                                    kind: BiteKind::Corrupt,
                                    at: rec.end,
                                });
                            }
                            match io.policy.action_for(FailureKind::CorruptStream, rejects) {
                                RecoveryAction::Retry => {
                                    stats.retries += 1;
                                    let backoff = res.backoff_after(rejects);
                                    stats.backoff_time += backoff;
                                    t = rec.end + backoff;
                                    rejects += 1;
                                    continue;
                                }
                                _ => {
                                    // The mirror's seal keeps failing:
                                    // evict it and replan the image.
                                    stats.detection_time += res.detect_timeout;
                                    let t2 = rec.end + res.detect_timeout;
                                    state.evict(io.topo, io.workers, dst);
                                    membership.bump(t2, oracles);
                                    stats.repairs += 1;
                                    if state.gpu_only {
                                        return PoolIoOutcome::Done(t2);
                                    }
                                    at = t2;
                                    continue 'replan;
                                }
                            }
                        }
                        end = end.max(rec.end);
                        break;
                    }
                    Err(TransferError::DeviceDown { device }) => {
                        return PoolIoOutcome::MemberDown { device, at: t };
                    }
                    Err(TransferError::NoRoute { .. }) => {
                        match io.policy.action_for(FailureKind::RouteOutage, waits) {
                            RecoveryAction::Retry => {
                                stats.backoff_time += res.detect_timeout;
                                t += res.detect_timeout;
                                waits += 1;
                            }
                            _ => {
                                stats.detection_time += res.detect_timeout;
                                let t2 = t + res.detect_timeout;
                                state.evict(io.topo, io.workers, dst);
                                membership.bump(t2, oracles);
                                stats.repairs += 1;
                                if state.gpu_only {
                                    return PoolIoOutcome::Done(t2);
                                }
                                at = t2;
                                continue 'replan;
                            }
                        }
                    }
                }
            }
        }
        return PoolIoOutcome::Done(end);
    }
}

/// One pool restore: every surviving proxy coherently reads its shard of
/// the last committed image back from its ring mirror — the reverse of
/// [`pool_checkpoint`]'s legs, and plain coherent reads rather than sealed
/// pushes, so there is no corruption check on this path. Members that die
/// mid-restore are detected, evicted, and the read replanned over the
/// survivors (membership strictly shrinks, so this terminates); if the
/// pool collapses to fewer than two members the restore is moot and the
/// caller finds `state.gpu_only` set. Returns the instant the image (or
/// the degraded run) is ready.
#[allow(clippy::too_many_arguments)]
fn pool_restore(
    engine: &mut TransferEngine,
    state: &mut FaultDeployState,
    io: &PoolIo<'_>,
    at: SimTime,
    membership: &mut Membership,
    stats: &mut RecoveryRunStats,
    oracles: Option<&OracleHub>,
    transfer_seq: &mut u64,
) -> SimTime {
    let res = &io.policy.resilience;
    let mut at = at;
    'replan: loop {
        if state.gpu_only {
            return at;
        }
        let members = state.mem_devices.clone();
        let legs = plan_pool_checkpoint(members.len(), io.total);
        let mut end = at;
        for leg in &legs.legs {
            let (src, dst) = (members[leg.mirror], members[leg.src]);
            let mut t = at;
            let mut waits = 0u32;
            loop {
                *transfer_seq += 1;
                match engine.transfer_masked(src, dst, leg.bytes, t, io.proxy_mask) {
                    Ok(rec) => {
                        end = end.max(rec.end);
                        break;
                    }
                    Err(TransferError::DeviceDown { device }) => {
                        // Another member died mid-restore: detect, evict,
                        // and replan the reads over the survivors.
                        if let Some(hub) = oracles {
                            hub.emit(OracleEvent::FaultBite {
                                kind: BiteKind::Dropout,
                                at: t,
                            });
                        }
                        if !state.mem_devices.contains(&device) {
                            // simlint: allow(panic-in-library, reason = "restore legs run between pool members only")
                            panic!("non-member device dropped mid-restore");
                        }
                        stats.detection_time += res.detect_timeout;
                        let t2 = t + res.detect_timeout;
                        state.evict(io.topo, io.workers, device);
                        membership.bump(t2, oracles);
                        at = t2;
                        continue 'replan;
                    }
                    Err(TransferError::NoRoute { .. }) => {
                        match io.policy.action_for(FailureKind::RouteOutage, waits) {
                            RecoveryAction::Retry => {
                                stats.backoff_time += res.detect_timeout;
                                t += res.detect_timeout;
                                waits += 1;
                            }
                            _ => {
                                // The mirror is unreachable: evict it and
                                // replan (its shard is re-read from the
                                // survivor ring's reshuffled mirrors).
                                stats.detection_time += res.detect_timeout;
                                let t2 = t + res.detect_timeout;
                                state.evict(io.topo, io.workers, src);
                                membership.bump(t2, oracles);
                                stats.repairs += 1;
                                at = t2;
                                continue 'replan;
                            }
                        }
                    }
                }
            }
        }
        return end;
    }
}

/// Panics unless `iterations` can yield a steady-state period (the first
/// iteration is warm-up; the period is measured from the second on).
fn assert_steady_state(iterations: u32) {
    assert!(
        iterations >= 2,
        "need ≥2 iterations for a steady-state period"
    );
}

/// One COARSE deployment decision — the deployed fabric, routing tables,
/// bandwidth probes and the dual-sync pilot grid — ready to run. Every
/// COARSE [`TrainResult`], [`FaultyTrainResult`] and
/// [`RecoveringTrainResult`] is built here, so a harness that needs
/// several runs of one scenario (a clean reference next to a metered,
/// oracle-armed, faulty or recovering run) decides once and runs them all
/// on one handle. Runs never mutate
/// the deployment, so each run equals the same run on a freshly prepared
/// handle. Observers attach for exactly the runs they describe (see
/// [`metered`](Self::metered) and [`observed`](Self::observed)).
pub(crate) struct Prepared<'a> {
    deployment: Deployment<'a>,
    /// The proxy-path budget `m*` the pilot grid chose.
    best_m: ByteSize,
    /// Candidate splits the pilot grid timed.
    pilot_runs: usize,
    /// Samples per iteration across all workers.
    global_batch: u32,
}

impl Prepared<'_> {
    fn train_result(&self, period: SimDuration) -> TrainResult {
        TrainResult::new(
            period,
            self.deployment.plan.compute_time(),
            self.global_batch,
        )
    }

    /// A fault-free run of `iterations`.
    ///
    /// # Panics
    ///
    /// Panics if `iterations < 2`.
    pub(crate) fn clean(&self, iterations: u32) -> TrainResult {
        assert_steady_state(iterations);
        self.train_result(self.deployment.run(self.best_m, iterations))
    }

    /// A run under `plan` (see [`simulate_coarse_faulty`]). An empty plan
    /// takes the clean path: the result equals [`clean`](Self::clean)'s
    /// and the accounting is all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `iterations < 2`.
    pub(crate) fn faulty(
        &self,
        iterations: u32,
        plan: &FaultPlan,
        policy: &ResiliencePolicy,
    ) -> FaultyTrainResult {
        let (result, end) = if plan.is_empty() {
            let clean = FaultyTrainResult {
                result: self.clean(iterations),
                injected_faults: 0,
                retries: 0,
                failovers: 0,
                degraded_to_gpu: false,
                recovery_time: SimDuration::ZERO,
            };
            (clean, SimTime::ZERO)
        } else {
            assert_steady_state(iterations);
            let (period, stats) = self
                .deployment
                .run_faulty(self.best_m, iterations, plan, policy);
            let faulty = FaultyTrainResult {
                result: self.train_result(period),
                injected_faults: plan.len(),
                retries: stats.retries,
                failovers: stats.failovers,
                degraded_to_gpu: stats.degraded_to_gpu,
                recovery_time: stats.recovery,
            };
            (faulty, stats.end)
        };
        self.close_observed_run(&result.result, end);
        result
    }

    /// A run under the recovery engine (see [`simulate_coarse_recovering`]).
    ///
    /// # Panics
    ///
    /// Panics if `iterations < 2` or the plan drops a worker.
    pub(crate) fn recovering(
        &self,
        iterations: u32,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> RecoveringTrainResult {
        assert_steady_state(iterations);
        let (period, stats) = self
            .deployment
            .run_recovering(self.best_m, iterations, plan, policy);
        let result = RecoveringTrainResult {
            result: self.train_result(period),
            wall: stats.wall,
            injected_faults: plan.len(),
            retries: stats.retries,
            repairs: stats.repairs,
            restores: stats.restores,
            membership_epoch: stats.membership_epoch,
            checkpoints: stats.checkpoints,
            checkpoint_time: stats.checkpoint_time,
            checkpoint_bytes: ByteSize::bytes(stats.checkpoint_bytes),
            restore_time: stats.restore_time,
            restore_bytes: ByteSize::bytes(stats.restore_bytes),
            lost_iterations: stats.lost_iterations,
            detection_time: stats.detection_time,
            backoff_time: stats.backoff_time,
            mttr: if stats.restores == 0 {
                SimDuration::ZERO
            } else {
                stats.mttr_total / stats.restores
            },
            degraded_to_gpu: stats.degraded_to_gpu,
        };
        self.close_observed_run(&result.result, stats.end);
        result
    }

    /// A clean run that also reports the `top_n` busiest directed links
    /// over the run's horizon, as `(description, utilization)` rows in
    /// descending order.
    fn with_hotspots(&self, iterations: u32, top_n: usize) -> (TrainResult, Vec<(String, f64)>) {
        assert_steady_state(iterations);
        let (period, engine, _) = self.deployment.run_inner(self.best_m, iterations, false);
        let horizon = SimTime::ZERO + period * u64::from(iterations);
        let topo = engine.topology();
        let links = engine
            .busiest_links(horizon, top_n)
            .into_iter()
            .map(|(lid, util)| {
                let link = topo.link(lid);
                (
                    format!(
                        "{} -> {} ({:?})",
                        topo.device(link.src()).name(),
                        topo.device(link.dst()).name(),
                        link.class()
                    ),
                    util,
                )
            })
            .collect();
        (self.train_result(period), links)
    }

    /// Closes an oracle-observed run's event stream with its fingerprint
    /// (for the clean-run-equivalence oracle) and the `RunEnd` stamp. A
    /// no-op when no hub is armed.
    fn close_observed_run(&self, result: &TrainResult, end: SimTime) {
        if let Some(hub) = &self.deployment.oracles {
            hub.emit(OracleEvent::RunFingerprint {
                hash: result_fingerprint(result),
            });
            hub.emit(OracleEvent::RunEnd { at: end });
        }
    }

    /// Runs `run` with `hub` armed and `sabotage` in force, announcing the
    /// fault-free `reference` fingerprint first. Both are lifted again
    /// afterwards, so the hub audits exactly the runs made inside.
    pub(crate) fn observed<R>(
        &mut self,
        hub: &OracleHub,
        sabotage: Sabotage,
        reference: Option<u64>,
        run: impl FnOnce(&Self) -> R,
    ) -> R {
        if let Some(hash) = reference {
            hub.emit(OracleEvent::ReferenceFingerprint { hash });
        }
        self.deployment.oracles = Some(hub.clone());
        self.deployment.sabotage = sabotage;
        let out = run(self);
        self.deployment.oracles = None;
        self.deployment.sabotage = Sabotage::None;
        out
    }

    /// Runs `run` with a fresh metric registry attached and returns its
    /// output with the frozen [`MetricsSnapshot`]: the dual-sync decision
    /// gauges (`dualsync.chosen_m_bytes`, `dualsync.pilot_runs`) plus what
    /// the runs inside recorded. The registry is detached before the
    /// snapshot is taken, so later runs on the handle never reach it.
    pub(crate) fn metered<R>(&mut self, run: impl FnOnce(&Self) -> R) -> (R, MetricsSnapshot) {
        let registry = MetricRegistry::new();
        registry.gauge(metric::DUALSYNC_CHOSEN_M_BYTES, self.best_m.as_f64());
        registry.gauge(metric::DUALSYNC_PILOT_RUNS, self.pilot_runs as f64);
        self.deployment.metrics = Some(registry.clone());
        let out = run(self);
        self.deployment.metrics = None;
        (out, registry.snapshot())
    }
}

/// Simulates COARSE training on `machine`.
///
/// # Panics
///
/// Panics if the partition has fewer than two memory devices or
/// `iterations < 2`.
pub fn simulate_coarse(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
) -> TrainResult {
    prepare(machine, partition, model, batch_per_gpu).clean(iterations)
}

/// Steady-state results of a fault-injected COARSE run, together with what
/// the resilience machinery did to survive the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyTrainResult {
    /// Steady-state training result of the faulty run.
    pub result: TrainResult,
    /// Number of fault entries in the injected plan.
    pub injected_faults: usize,
    /// Retransmissions of integrity-rejected pushes.
    pub retries: u64,
    /// Proxy failovers performed (dead device removed, routing repaired).
    pub failovers: u64,
    /// True if the proxy tier was lost and sync degraded to GPU-only.
    pub degraded_to_gpu: bool,
    /// Simulated time spent detecting faults, backing off, and waiting out
    /// outages (summed across iterations and clients).
    pub recovery_time: SimDuration,
}

impl FaultyTrainResult {
    /// True if no fault fired and no resilience mechanism engaged — for an
    /// empty plan this is guaranteed, and the result is byte-identical to
    /// [`simulate_coarse`].
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.failovers == 0
            && !self.degraded_to_gpu
            && self.recovery_time == SimDuration::ZERO
    }
}

/// Simulates COARSE training under an injected [`FaultPlan`].
///
/// The deployment decision (routing tables, dual-sync split) is profiled
/// on the *healthy* fabric — exactly as [`simulate_coarse`] does — and the
/// measured run then travels under the plan: link degradations stretch
/// serialization, flapped links reroute (or are waited out), transient
/// corruption triggers retry-with-backoff, a dropped memory device triggers
/// proxy failover with routing-table repair, and losing the proxy tier
/// degrades synchronization to GPU-only allreduce.
///
/// An **empty plan takes the fast path**: the run is byte-identical to
/// [`simulate_coarse`] and the fault accounting is all zeros. A non-empty
/// plan is byte-deterministic under its seed: two runs of the same plan
/// produce identical results.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn simulate_coarse_faulty(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    plan: &FaultPlan,
    policy: &ResiliencePolicy,
) -> FaultyTrainResult {
    prepare(machine, partition, model, batch_per_gpu).faulty(iterations, plan, policy)
}

/// Deterministic FNV-1a fingerprint of a training result: the exact bit
/// patterns of every field, so two results fingerprint equal iff they are
/// byte-identical. Feed the fault-free run's fingerprint to the oracle hub
/// as [`OracleEvent::ReferenceFingerprint`] and the observed run's as
/// [`OracleEvent::RunFingerprint`]; the clean-run-equivalence oracle does
/// the rest.
pub fn result_fingerprint(r: &TrainResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(r.iteration_time.as_nanos());
    mix(r.compute_time.as_nanos());
    mix(r.blocked_comm.as_nanos());
    mix(r.throughput.to_bits());
    h
}

/// [`simulate_coarse_faulty`] with an [`OracleHub`] armed: the run emits
/// the full oracle event stream — fabric transfer ledger entries and fault
/// bites (from the engine), per-shard attempt/reset records, stall and
/// corruption bites, iteration boundaries, fingerprints, and the final
/// `RunEnd` — so every built-in oracle audits the run as it happens.
///
/// `reference` is the fault-free run's [`result_fingerprint`]; when given,
/// the clean-run-equivalence oracle checks that a run whose faults never
/// bit anything reproduces it exactly. `sabotage` deliberately breaks a
/// protocol invariant (see [`Sabotage`]) so self-tests can prove the
/// oracles catch real bugs; pass [`Sabotage::None`] otherwise.
///
/// Observation is passive: the returned result is byte-identical to
/// [`simulate_coarse_faulty`]'s regardless of hub or sabotage.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_coarse_faulty_observed(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    plan: &FaultPlan,
    policy: &ResiliencePolicy,
    hub: &OracleHub,
    sabotage: Sabotage,
    reference: Option<u64>,
) -> FaultyTrainResult {
    prepare(machine, partition, model, batch_per_gpu).observed(hub, sabotage, reference, |p| {
        p.faulty(iterations, plan, policy)
    })
}

/// Results of a recovery-engine run: the steady-state training result plus
/// the full detect → decide → recover → account ledger. All simulated-time
/// fields are exact sums over the run, so the result is byte-deterministic
/// under its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveringTrainResult {
    /// Steady-state training result of the recovering run.
    pub result: TrainResult,
    /// Total wall time: first iteration start to last committed iteration,
    /// including every checkpoint, detection, backoff, restore, and
    /// re-executed iteration. The goodput denominator.
    pub wall: SimDuration,
    /// Number of fault entries in the injected plan.
    pub injected_faults: usize,
    /// Retransmissions of integrity-rejected sealed pushes.
    pub retries: u64,
    /// Elastic membership repairs (budget-exhausted transient failures:
    /// the suspect proxy evicted, routing rebuilt over survivors).
    pub repairs: u64,
    /// Restore episodes (hard failures: eviction plus rollback to the last
    /// committed pool checkpoint).
    pub restores: u64,
    /// Final membership epoch — the number of membership changes the run
    /// announced (0 means the initial view survived).
    pub membership_epoch: u64,
    /// Pool checkpoints committed.
    pub checkpoints: u64,
    /// Simulated time training stalled on checkpoint sealed-pushes.
    pub checkpoint_time: SimDuration,
    /// Bytes sealed-pushed into the pool by committed checkpoints.
    pub checkpoint_bytes: ByteSize,
    /// Simulated time spent coherently reading images back out.
    pub restore_time: SimDuration,
    /// Bytes coherently read back by restores.
    pub restore_bytes: ByteSize,
    /// Committed iterations rolled back by restores and re-executed.
    pub lost_iterations: u64,
    /// Simulated time charged to failure detection.
    pub detection_time: SimDuration,
    /// Simulated time spent backing off and waiting out outages.
    pub backoff_time: SimDuration,
    /// Mean time to recovery: failure observation to image restored,
    /// averaged over restore episodes ([`SimDuration::ZERO`] if none).
    pub mttr: SimDuration,
    /// True if the proxy tier was lost and sync degraded to GPU-only.
    pub degraded_to_gpu: bool,
}

impl RecoveringTrainResult {
    /// True if no fault fired and no recovery mechanism engaged (a
    /// zero-interval, empty-plan run is guaranteed clean and byte-identical
    /// to [`simulate_coarse`]).
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.repairs == 0
            && self.restores == 0
            && self.membership_epoch == 0
            && self.checkpoints == 0
            && !self.degraded_to_gpu
            && self.lost_iterations == 0
    }
}

/// Simulates COARSE training under the full recovery engine: pool
/// checkpoints every [`RecoveryPolicy::checkpoint_interval`] iterations
/// become real sealed-push traffic, transient failures repair the
/// membership elastically (epoch-stamped evictions), and hard failures
/// restore from the last committed pool checkpoint — rolling the run back
/// and re-executing the lost iterations, all on the simulated clock.
///
/// Unlike [`simulate_coarse_faulty`] there is no empty-plan fast path:
/// a zero-fault run still pays its checkpoint cadence (that is the
/// overhead being measured), and with `checkpoint_interval = 0` it times
/// identically to [`simulate_coarse`]. Byte-deterministic under its plan.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`], plus a dropped *worker* (the
/// proxy tier is the only failover domain).
pub fn simulate_coarse_recovering(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> RecoveringTrainResult {
    prepare(machine, partition, model, batch_per_gpu).recovering(iterations, plan, policy)
}

/// [`simulate_coarse_recovering`] with an [`OracleHub`] armed: alongside
/// the fault-run event stream the engine announces every membership epoch
/// ([`OracleEvent::MembershipEpoch`]) for the membership-monotonicity
/// oracle, and iteration ends keep a monotone index across rollbacks so
/// re-execution never trips the time or FIFO oracles. `reference` is the
/// fault-free fingerprint for clean-run equivalence. Observation is
/// passive: the returned result is byte-identical to
/// [`simulate_coarse_recovering`]'s.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse_recovering`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_coarse_recovering_observed(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    hub: &OracleHub,
    reference: Option<u64>,
) -> RecoveringTrainResult {
    prepare(machine, partition, model, batch_per_gpu).observed(
        hub,
        Sabotage::None,
        reference,
        |p| p.recovering(iterations, plan, policy),
    )
}

/// [`simulate_coarse_faulty`] with a recording tracer attached: the trace
/// carries one instant per injected fault (category `fault`) plus an
/// instant per resilience action, alongside the usual fabric spans.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn record_coarse_faulty_trace(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    plan: &FaultPlan,
    policy: &ResiliencePolicy,
) -> (FaultyTrainResult, Trace) {
    let rec = RecordingTracer::new();
    let mut prepared = prepare(machine, partition, model, batch_per_gpu);
    prepared.deployment.tracer = Some(rec.handle());
    let result = prepared.faulty(iterations, plan, policy);
    (result, rec.take())
}

/// Test-only count of the deployment decisions made on the current thread,
/// so tests can pin how many times a harness prepares its scenario.
#[cfg(test)]
pub(crate) mod prepare_count {
    use std::cell::Cell;

    thread_local! {
        static PREPARES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump() {
        PREPARES.with(|c| c.set(c.get() + 1));
    }

    /// Deployment decisions made on this thread so far.
    pub(crate) fn get() -> u64 {
        PREPARES.with(Cell::get)
    }
}

/// Makes the deployment decision (fabric, tables, bandwidths, dual-sync
/// pilot) for a COARSE run.
pub(crate) fn prepare<'a>(
    machine: &'a Machine,
    partition: &Partition,
    model: &'a ModelProfile,
    batch_per_gpu: u32,
) -> Prepared<'a> {
    prepare_traced(machine, partition, model, batch_per_gpu, None)
}

/// [`prepare`], optionally recording the dual-sync decision process
/// (analytic candidates, pilot timings, chosen `m*`) on `tracer`. The pilot
/// runs themselves stay untraced, unmetered and unobserved, so whatever a
/// later run records covers exactly that run.
fn prepare_traced<'a>(
    machine: &'a Machine,
    partition: &Partition,
    model: &'a ModelProfile,
    batch_per_gpu: u32,
    tracer: Option<&SharedTracer>,
) -> Prepared<'a> {
    #[cfg(test)]
    prepare_count::bump();
    assert!(
        partition.mem_devices.len() >= 2,
        "COARSE needs at least two memory devices"
    );
    let gpu = gpu_for(machine.sku());
    let plan = IterationPlan::new(model, &gpu, batch_per_gpu);
    let workers = partition.workers.clone();
    let mem_devices = partition.mem_devices.clone();

    // Deploy the dedicated CCI fabric between each node's memory devices
    // (Fig. 4's dashed links). The paper's evaluation *emulates* memory
    // devices with GPUs (§IV-B); on a machine without GPU peer-to-peer (the
    // AWS T4 instance) that emulation cannot provide a device-to-device
    // fabric, so proxy collectives fall back to the staged PCIe path — the
    // reason COARSE trails AllReduce slightly there (§V-D).
    let emulated_p2p = machine.topology().p2p_enabled();
    let mut deployed = machine.clone();
    let mut node_mem_rings: Vec<Vec<DeviceId>> = Vec::new();
    for n in 0..machine.nodes() {
        let on_node: Vec<DeviceId> = mem_devices
            .iter()
            .copied()
            .filter(|&d| machine.topology().device(d).node() == n)
            .collect();
        if on_node.len() >= 2 && emulated_p2p {
            deployed.augment_cci_ring(&on_node);
        }
        if !on_node.is_empty() {
            node_mem_rings.push(on_node);
        }
    }
    let proxy_mask: LinkMask = if emulated_p2p { CCI_ONLY } else { PCIE_ONLY };

    // Profile routing tables against the deployed fabric (PCIe paths only,
    // §IV-B), spreading bandwidth ties across clients.
    let tables: Vec<RoutingTable> = workers
        .iter()
        .enumerate()
        .map(|(w, &worker)| {
            build_routing_table_for(deployed.topology(), worker, &mem_devices, w, SimTime::ZERO)
        })
        .collect();

    // Measured collective bandwidths seed the analytic optimizer.
    let proxy_bw = {
        let intra = probe::measure_unidirectional(
            deployed.topology(),
            node_mem_rings[0][0],
            node_mem_rings[0][std::cmp::min(1, node_mem_rings[0].len() - 1)],
            ByteSize::mib(64),
            proxy_mask,
        );
        let cross = if node_mem_rings.len() > 1 {
            probe::measure_unidirectional(
                deployed.topology(),
                node_mem_rings[0][0],
                node_mem_rings[1][0],
                ByteSize::mib(64),
                CCI_OR_NETWORK,
            )
        } else {
            f64::INFINITY
        };
        Bandwidth::bytes_per_sec(intra.min(cross))
    };
    let gpu_ring = deployed
        .nvlink_ring(&workers)
        .unwrap_or_else(|| workers.clone());
    // Per-node worker rings for the hierarchical GPU collective.
    let node_gpu_rings: Vec<Vec<DeviceId>> = (0..machine.nodes())
        .map(|n| {
            let on_node: Vec<DeviceId> = workers
                .iter()
                .copied()
                .filter(|&w| machine.topology().device(w).node() == n)
                .collect();
            deployed.nvlink_ring(&on_node).unwrap_or(on_node)
        })
        .filter(|r| !r.is_empty())
        .collect();
    let gpu_bw = if gpu_ring.len() >= 2 {
        Bandwidth::bytes_per_sec(probe::measure_unidirectional(
            deployed.topology(),
            gpu_ring[0],
            gpu_ring[1],
            ByteSize::mib(64),
            LinkMask::ALL,
        ))
    } else {
        Bandwidth::gib_per_sec(1000.0)
    };

    let inputs = DualSyncInputs {
        workers: workers.len(),
        total_bytes: model.total_bytes(),
        proxy_bandwidth: proxy_bw,
        gpu_bandwidth: gpu_bw,
        forward: plan.forward_time(),
        backward: plan.backward_time(),
    };
    // Decision events are stamped at SimTime::ZERO: the deployment decision
    // logically precedes the traced run, and a fixed stamp keeps traces
    // byte-identical across runs.
    let analytic = match tracer {
        Some(t) if t.is_enabled() => dualsync::optimize_traced(&inputs, t, SimTime::ZERO),
        _ => dualsync::optimize(&inputs),
    };

    let needed: BTreeMap<usize, SimDuration> = plan
        .forward_needs()
        .iter()
        .map(|n| (n.tensor, n.needed))
        .collect();

    let deployment = Deployment {
        machine,
        proxy_mask,
        deployed,
        plan,
        model,
        workers: workers.clone(),
        mem_devices,
        node_mem_rings,
        tables,
        gpu_ring,
        node_gpu_rings,
        needed,
        input_bytes: ByteSize::ZERO,
        tracer: None,
        metrics: None,
        oracles: None,
        profiler: None,
        critpath: None,
        sabotage: Sabotage::None,
    };

    // Pilot runs pick the m that minimizes the *measured* period.
    let n = model.total_bytes();
    let mut candidates = vec![analytic.proxy_bytes, ByteSize::ZERO, n];
    for eighths in 1..8u64 {
        candidates.push(ByteSize::bytes(n.as_u64() * eighths / 8));
    }
    candidates.sort_unstable();
    candidates.dedup();
    let pilot_runs = candidates.len();
    let debug = pilot_debug();
    let best_m = candidates
        .into_iter()
        .map(|m| {
            let period = deployment.run(m, 2);
            if debug {
                eprintln!("[coarse]   pilot m={m} -> period={period}");
            }
            if let Some(t) = tracer.filter(|t| t.is_enabled()) {
                let track = t.track("dualsync");
                t.counter(
                    SimTime::ZERO,
                    coarse_simcore::trace::category::DUALSYNC,
                    track,
                    &format!("pilot period(m={m})"),
                    period.as_secs_f64(),
                );
            }
            (period, m)
        })
        .min()
        .map(|(_, m)| m)
        // simlint: allow(panic-in-library, reason = "the pilot candidate grid is statically non-empty")
        .expect("non-empty candidate grid");
    if let Some(t) = tracer.filter(|t| t.is_enabled()) {
        let track = t.track("dualsync");
        t.instant(
            SimTime::ZERO,
            coarse_simcore::trace::category::DUALSYNC,
            track,
            &format!("pilot chose m* = {best_m} of {}", model.total_bytes()),
        );
    }

    if pilot_debug() {
        eprintln!(
            "[coarse] {}: proxy_bw={:.1}GiB/s gpu_bw={:.1}GiB/s analytic_m={} chosen_m={} of n={}",
            machine.name(),
            proxy_bw.as_gib_per_sec(),
            gpu_bw.as_gib_per_sec(),
            analytic.proxy_bytes,
            best_m,
            n,
        );
    }

    Prepared {
        deployment,
        best_m,
        pilot_runs,
        global_batch: batch_per_gpu * partition.workers.len() as u32,
    }
}

/// Simulates COARSE with the input pipeline modeled: every iteration each
/// worker prefetches its batch (`batch × dataset sample bytes`) from host
/// memory over the same PCIe tree the parameter traffic uses.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn simulate_coarse_with_input(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    dataset: &coarse_models::dataset::Dataset,
    batch_per_gpu: u32,
    iterations: u32,
) -> TrainResult {
    let mut prepared = prepare(machine, partition, model, batch_per_gpu);
    prepared.deployment.input_bytes =
        ByteSize::bytes(dataset.sample_bytes().as_u64() * batch_per_gpu as u64);
    prepared.clean(iterations)
}

/// Runs COARSE for three iterations and returns the phase timeline of the
/// final (steady-state) iteration plus its period — the data behind the
/// Gantt rendering in [`crate::timeline`].
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn trace_coarse(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
) -> crate::timeline::IterationTrace {
    let prepared = prepare(machine, partition, model, batch_per_gpu);
    let (period, _, spans) = prepared.deployment.run_inner(prepared.best_m, 3, true);
    crate::timeline::IterationTrace::new(spans, period)
}

/// Runs COARSE with a recording tracer attached and returns the training
/// result together with the full structured trace: fabric link-occupancy
/// spans, sync-core ring steps, synthesized proxy queue-depth gauges,
/// per-iteration training phases, and the dual-sync decision events from
/// the pilot grid. Pilot runs stay untraced, so the trace holds exactly
/// one run's simulated events; attaching the tracer never changes the
/// simulated timings (the returned result equals [`simulate_coarse`]'s).
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn record_coarse_trace(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
) -> (TrainResult, Trace) {
    let rec = RecordingTracer::new();
    let handle: SharedTracer = rec.handle();
    let mut prepared = prepare_traced(machine, partition, model, batch_per_gpu, Some(&handle));
    prepared.deployment.tracer = Some(handle);
    let result = prepared.clean(iterations);
    (result, rec.take())
}

/// Runs COARSE with a metric registry attached and returns the training
/// result together with the frozen [`MetricsSnapshot`]: fabric transfer
/// and byte counters, ring-step counts, per-iteration phase-time
/// histograms, blocked time, and the dual-sync decision gauges. Pilot
/// runs stay unmetered, so the snapshot covers exactly one run; attaching
/// the registry never changes the simulated timings (the returned result
/// equals [`simulate_coarse`]'s).
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn record_coarse_metrics(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
) -> (TrainResult, MetricsSnapshot) {
    prepare(machine, partition, model, batch_per_gpu).metered(|p| p.clean(iterations))
}

/// Runs COARSE with a self-profiler attached to the final run: the transfer
/// engine, kernel hooks, and training phases all record into `profiler`
/// (regions `train.*`, `fabric.link`, `cci.sync_ring`), and the synthesized
/// per-proxy queue depth feeds the `train.proxy_parked` histogram. Pilot
/// runs stay unprofiled, so the profile covers exactly one run; attaching
/// the profiler never changes the simulated timings (the returned result
/// equals [`simulate_coarse`]'s).
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn record_coarse_profile(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    profiler: Profiler,
) -> TrainResult {
    let mut prepared = prepare(machine, partition, model, batch_per_gpu);
    prepared.deployment.profiler = Some(profiler);
    prepared.clean(iterations)
}

/// Runs COARSE with a critical-path recorder attached to the final run: the
/// transfer engine, collectives, and training phases all register dependency
/// nodes (`compute` spans, fabric busy/queue nodes, ring-step and barrier
/// nodes, pull-ready gates), each iteration boundary is marked as a sink,
/// and the returned rows are the run's busiest directed links with their
/// utilization over the simulated horizon. Pilot runs stay unrecorded, so
/// the graph covers exactly one run; attaching the recorder never changes
/// the simulated timings (the returned result equals [`simulate_coarse`]'s).
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn record_coarse_explain(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    critpath: CritPath,
) -> (TrainResult, Vec<(String, f64)>) {
    let mut prepared = prepare(machine, partition, model, batch_per_gpu);
    prepared.deployment.critpath = Some(critpath);
    prepared.with_hotspots(iterations, usize::MAX)
}

/// Runs COARSE and reports the `top_n` busiest directed links — the
/// congestion hotspots of one training run (diagnostic companion to
/// [`simulate_coarse`]). Returns `(link description, utilization)` rows in
/// descending order.
///
/// # Panics
///
/// Same conditions as [`simulate_coarse`].
pub fn coarse_hotspots(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    top_n: usize,
) -> Vec<(String, f64)> {
    prepare(machine, partition, model, batch_per_gpu)
        .with_hotspots(3, top_n)
        .1
}

/// Splits a payload into wire shards of `shard` bytes (remainder last); a
/// payload smaller than two full shards travels whole. Allocation-free:
/// push/pull inner loops iterate this once per (tensor, worker).
fn shard_sizes(size: ByteSize, shard: ByteSize) -> impl Iterator<Item = ByteSize> {
    let (full, tail) = if size.as_u64() < 2 * shard.as_u64() {
        (0, Some(size))
    } else {
        let rem = size.as_u64() % shard.as_u64();
        (
            size.as_u64() / shard.as_u64(),
            (rem > 0).then(|| ByteSize::bytes(rem)),
        )
    };
    std::iter::repeat_n(shard, full as usize).chain(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::simulate_allreduce;
    use crate::dense::simulate_dense;
    use coarse_fabric::machines::{aws_t4, aws_v100, sdsc_p100, PartitionScheme};
    use coarse_models::zoo::{bert_large, resnet50};

    #[test]
    fn shard_sizes_tile_payload() {
        let total: u64 = shard_sizes(ByteSize::bytes(10_000), ByteSize::bytes(3000))
            .map(|s| s.as_u64())
            .sum();
        assert_eq!(total, 10_000);
        assert_eq!(
            shard_sizes(ByteSize::bytes(100), ByteSize::bytes(3000)).count(),
            1
        );
    }

    #[test]
    fn explained_coarse_is_compute_dominated_and_unperturbed() {
        let m = aws_v100();
        let part = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let bare = simulate_coarse(&m, &part, &model, 2, 3);
        let cp = CritPath::new();
        let (wired, links) = record_coarse_explain(&m, &part, &model, 2, 3, cp.clone());
        assert_eq!(bare, wired, "recording must not perturb the result");
        assert!(!links.is_empty(), "utilization rows for every used link");
        let ex = cp.analyze();
        assert_eq!(ex.iterations.len(), 3);
        let sum: f64 = crit_class::ALL.iter().map(|c| ex.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12, "fractions sum to {sum}");
        // COARSE overlaps communication with the backward pass, so compute
        // carries the bulk of the critical path (Fig. 16's headline).
        assert_eq!(
            ex.dominant(),
            Some(crit_class::COMPUTE),
            "blame: {:?}",
            ex.blame
        );
    }

    #[test]
    fn coarse_beats_dense_everywhere() {
        for (machine, model, batch) in [
            (aws_v100(), bert_large(), 2u32),
            (sdsc_p100(), bert_large(), 2),
            (aws_t4(), resnet50(), 64),
        ] {
            let part = machine.partition(PartitionScheme::OneToOne);
            let coarse = simulate_coarse(&machine, &part, &model, batch, 3);
            let dense = simulate_dense(&machine, &part, &model, batch, 3);
            let speedup = coarse.speedup_over(&dense);
            assert!(
                speedup > 1.5,
                "{}: COARSE must clearly beat DENSE, got {speedup:.2}x",
                machine.name()
            );
        }
    }

    #[test]
    fn coarse_beats_allreduce_on_p100() {
        // §V-D: on SDSC P100 COARSE reduces blocked communication vs NCCL.
        let m = sdsc_p100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let coarse = simulate_coarse(&m, &p, &model, 2, 3);
        let allreduce = simulate_allreduce(&m, &p, &model, 2, 3);
        assert!(
            coarse.blocked_comm < allreduce.blocked_comm,
            "COARSE {:?} must beat AllReduce {:?} on P100",
            coarse.blocked_comm,
            allreduce.blocked_comm
        );
    }

    #[test]
    fn coarse_beats_allreduce_on_v100() {
        // §V-D Fig. 17d: COARSE reduces blocked communication 20–42% on the
        // V100 machine despite NCCL running over NVLink.
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let coarse = simulate_coarse(&m, &p, &model, 2, 3);
        let allreduce = simulate_allreduce(&m, &p, &model, 2, 3);
        assert!(
            coarse.blocked_comm < allreduce.blocked_comm,
            "COARSE {:?} must beat AllReduce {:?} on V100",
            coarse.blocked_comm,
            allreduce.blocked_comm
        );
    }

    #[test]
    fn input_pipeline_costs_little_for_these_workloads() {
        use coarse_models::dataset::Dataset;
        // ResNet-50's 37 MB/iteration input stream is small next to its
        // compute; the paper is justified in ignoring the input pipeline.
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = coarse_models::zoo::resnet50();
        let clean = simulate_coarse(&m, &p, &model, 64, 3);
        let with_input = simulate_coarse_with_input(&m, &p, &model, &Dataset::imagenet(), 64, 3);
        assert!(with_input.iteration_time >= clean.iteration_time);
        let overhead =
            with_input.iteration_time.as_secs_f64() / clean.iteration_time.as_secs_f64() - 1.0;
        assert!(
            overhead < 0.05,
            "input pipeline should cost <5%, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn hotspots_identify_busy_links() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let hot = coarse_hotspots(&m, &p, &bert_large(), 2, 5);
        assert_eq!(hot.len(), 5);
        // Utilizations are sorted descending and sane.
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(hot[0].1 > 0.2, "top hotspot should be busy: {:?}", hot[0]);
        assert!(hot.iter().all(|(_, u)| *u <= 1.0 + 1e-9));
    }

    #[test]
    fn metrics_are_observation_only_and_deterministic() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let plain = simulate_coarse(&m, &p, &model, 2, 3);
        let (metered, snap) = record_coarse_metrics(&m, &p, &model, 2, 3);
        assert_eq!(
            plain.iteration_time, metered.iteration_time,
            "metrics must not perturb timing"
        );
        assert_eq!(snap.counter(metric::TRAIN_ITERATIONS), 3);
        assert!(snap.counter(metric::FABRIC_TRANSFERS) > 0);
        assert!(snap.counter(metric::RING_STEPS) > 0);
        assert!(snap.gauge(metric::DUALSYNC_CHOSEN_M_BYTES).is_some());
        assert!(snap.histogram(metric::TRAIN_FP_NS).is_some());
        // Byte-deterministic across repeated runs.
        let (_, snap2) = record_coarse_metrics(&m, &p, &model, 2, 3);
        assert_eq!(snap, snap2);
    }

    #[test]
    fn faulty_run_with_empty_plan_is_byte_identical() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let clean = simulate_coarse(&m, &p, &model, 2, 3);
        let faulty = simulate_coarse_faulty(
            &m,
            &p,
            &model,
            2,
            3,
            &FaultPlan::empty(),
            &ResiliencePolicy::default(),
        );
        assert!(faulty.is_clean());
        assert_eq!(clean, faulty.result, "empty plan must perturb nothing");
    }

    #[test]
    fn runs_on_one_handle_match_fresh_deployments() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let victim = p.mem_devices[0].index() as u32;
        let plan =
            FaultPlan::new(5).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let policy = ResiliencePolicy::default();
        let prepared = prepare(&m, &p, &model, 2);
        let clean = prepared.clean(3);
        let faulty = prepared.faulty(3, &plan, &policy);
        let recovering = prepared.recovering(3, &plan, &RecoveryPolicy::default());
        assert_eq!(
            prepared.clean(3),
            clean,
            "runs leave the deployment as found"
        );
        assert_eq!(clean, simulate_coarse(&m, &p, &model, 2, 3));
        assert_eq!(
            faulty,
            simulate_coarse_faulty(&m, &p, &model, 2, 3, &plan, &policy)
        );
        assert_eq!(
            recovering,
            simulate_coarse_recovering(&m, &p, &model, 2, 3, &plan, &RecoveryPolicy::default())
        );
    }

    #[test]
    fn proxy_dropout_fails_over_with_nonzero_recovery() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let policy = ResiliencePolicy::default();
        let clean = simulate_coarse(&m, &p, &model, 2, 3);
        // Kill one proxy shortly after the run starts: the push path hits
        // TransferError::DeviceDown mid-iteration, fails over, repairs the
        // tables, and completes over the three survivors.
        let victim = p.mem_devices[1].index() as u32;
        let plan =
            FaultPlan::new(11).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let a = simulate_coarse_faulty(&m, &p, &model, 2, 3, &plan, &policy);
        assert_eq!(a.failovers, 1, "exactly one proxy fails over");
        assert!(!a.degraded_to_gpu, "three survivors keep the proxy tier");
        assert!(
            a.recovery_time > SimDuration::ZERO,
            "failover must charge detection time"
        );
        assert!(
            a.result.iteration_time >= clean.iteration_time,
            "losing a proxy cannot speed the run up"
        );
        // Byte-deterministic across same-seed runs.
        let b = simulate_coarse_faulty(&m, &p, &model, 2, 3, &plan, &policy);
        assert_eq!(a, b, "same plan + seed must reproduce exactly");
    }

    #[test]
    fn losing_every_proxy_degrades_to_gpu_only() {
        let m = sdsc_p100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let mut plan = FaultPlan::new(7);
        for &d in &p.mem_devices {
            plan = plan.drop_device(d.index() as u32, SimTime::ZERO);
        }
        let r = simulate_coarse_faulty(&m, &p, &model, 2, 3, &plan, &ResiliencePolicy::default());
        assert!(r.degraded_to_gpu, "no survivors: GPU-only degradation");
        assert_eq!(r.failovers as usize, p.mem_devices.len());
        assert!(r.result.iteration_time > SimDuration::ZERO);
    }

    #[test]
    fn transient_corruption_retries_with_backoff() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = resnet50();
        let policy = ResiliencePolicy::default();
        let mut plan = FaultPlan::new(99);
        for &d in &p.mem_devices {
            plan = plan.corrupt_transfers(d.index() as u32, SimTime::ZERO, SimTime::MAX, 300_000);
        }
        let r = simulate_coarse_faulty(&m, &p, &model, 64, 3, &plan, &policy);
        assert!(r.retries > 0, "a 30% corruption rate must force retries");
        assert_eq!(r.failovers, 0);
        assert!(r.recovery_time > SimDuration::ZERO, "backoff accumulates");
        let again = simulate_coarse_faulty(&m, &p, &model, 64, 3, &plan, &policy);
        assert_eq!(r, again, "keyed-hash corruption must be reproducible");
    }

    #[test]
    fn faulty_trace_carries_fault_instants() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = resnet50();
        let victim = p.mem_devices[0].index() as u32;
        let plan =
            FaultPlan::new(3).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let (r, trace) =
            record_coarse_faulty_trace(&m, &p, &model, 64, 3, &plan, &ResiliencePolicy::default());
        assert_eq!(r.failovers, 1);
        let faults: Vec<_> = trace.events_in(category::FAULT).collect();
        assert!(
            faults.len() >= 2,
            "expected the injected-fault instant plus a failover instant, got {}",
            faults.len()
        );
    }

    #[test]
    fn inert_plan_times_identically_to_the_clean_run() {
        // A non-empty plan whose windows close before any transfer starts
        // must not perturb the run: this is the contract the
        // clean-run-equivalence oracle (and the chaos runner's reference
        // fingerprint) relies on.
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let clean = simulate_coarse(&m, &p, &model, 2, 3);
        let inert = FaultPlan::new(11).corrupt_transfers(
            p.mem_devices[0].index() as u32,
            SimTime::ZERO,
            SimTime::from_nanos(1),
            1_000_000,
        );
        let faulty =
            simulate_coarse_faulty(&m, &p, &model, 2, 3, &inert, &ResiliencePolicy::default());
        assert_eq!(faulty.retries, 0, "the window must never intersect traffic");
        assert_eq!(
            faulty.result, clean,
            "a never-biting plan must be byte-identical to the clean run"
        );
    }

    #[test]
    fn recovering_zero_fault_zero_interval_matches_clean_run() {
        // The recovery engine with nothing to do must be invisible: no
        // checkpoint cadence, no faults, and a result byte-identical to
        // the plain simulator (the zero-perturbation contract).
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let clean = simulate_coarse(&m, &p, &model, 2, 3);
        let policy = RecoveryPolicy {
            checkpoint_interval: 0,
            ..RecoveryPolicy::default()
        };
        let r = simulate_coarse_recovering(&m, &p, &model, 2, 3, &FaultPlan::empty(), &policy);
        assert!(r.is_clean());
        assert_eq!(r.result, clean, "idle recovery engine must perturb nothing");
        assert!(r.wall > SimDuration::ZERO, "wall time is always measured");
    }

    #[test]
    fn checkpoint_cadence_is_real_simulated_traffic() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let free = RecoveryPolicy {
            checkpoint_interval: 0,
            ..RecoveryPolicy::default()
        };
        let every2 = RecoveryPolicy {
            checkpoint_interval: 2,
            ..RecoveryPolicy::default()
        };
        let baseline = simulate_coarse_recovering(&m, &p, &model, 2, 5, &FaultPlan::empty(), &free);
        let ckpt = simulate_coarse_recovering(&m, &p, &model, 2, 5, &FaultPlan::empty(), &every2);
        // 5 iterations at interval 2 checkpoint after iterations 2 and 4
        // (never after the last).
        assert_eq!(ckpt.checkpoints, 2);
        assert_eq!(
            ckpt.checkpoint_bytes,
            model.total_bytes() * 2,
            "each checkpoint mirrors the full image"
        );
        assert!(ckpt.checkpoint_time > SimDuration::ZERO);
        assert!(
            ckpt.wall > baseline.wall,
            "checkpoint pushes must cost wall time: {} vs {}",
            ckpt.wall,
            baseline.wall
        );
        assert_eq!(
            ckpt.wall,
            baseline.wall + ckpt.checkpoint_time,
            "a fault-free run's overhead is exactly its checkpoint stalls"
        );
    }

    #[test]
    fn hard_dropout_restores_from_the_pool() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let policy = RecoveryPolicy {
            checkpoint_interval: 1,
            ..RecoveryPolicy::default()
        };
        let victim = p.mem_devices[1].index() as u32;
        let plan =
            FaultPlan::new(11).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let a = simulate_coarse_recovering(&m, &p, &model, 2, 3, &plan, &policy);
        assert_eq!(a.restores, 1, "a dropped proxy is a restore, not a retry");
        assert_eq!(a.membership_epoch, 1, "one eviction announces one epoch");
        assert!(!a.degraded_to_gpu, "three survivors keep the proxy tier");
        assert!(a.mttr > SimDuration::ZERO, "an episode has a length");
        assert_eq!(
            a.restore_bytes,
            model.total_bytes(),
            "one restore reads the whole image back"
        );
        assert!(a.detection_time > SimDuration::ZERO);
        let b = simulate_coarse_recovering(&m, &p, &model, 2, 3, &plan, &policy);
        assert_eq!(a, b, "same plan + seed must reproduce exactly");
    }

    #[test]
    fn uncheckpointed_work_is_lost_and_reexecuted() {
        // A dropout after the first commit, with no checkpoint interval,
        // rolls the run back to iteration 0: the committed iteration is
        // counted lost and re-executed on the wall clock.
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let clean = simulate_coarse(&m, &p, &model, 2, 3);
        let mid_second_iter = SimTime::ZERO + clean.iteration_time + clean.iteration_time / 2;
        let victim = p.mem_devices[2].index() as u32;
        let plan = FaultPlan::new(5).drop_device(victim, mid_second_iter);
        let none = RecoveryPolicy {
            checkpoint_interval: 0,
            ..RecoveryPolicy::default()
        };
        let every = RecoveryPolicy {
            checkpoint_interval: 1,
            ..RecoveryPolicy::default()
        };
        let lossy = simulate_coarse_recovering(&m, &p, &model, 2, 3, &plan, &none);
        assert_eq!(lossy.restores, 1);
        assert!(
            lossy.lost_iterations >= 1,
            "work past the last checkpoint is lost: {lossy:?}"
        );
        let protected = simulate_coarse_recovering(&m, &p, &model, 2, 3, &plan, &every);
        assert_eq!(protected.restores, 1);
        assert!(
            protected.lost_iterations < lossy.lost_iterations,
            "a tighter checkpoint interval must save committed work \
             ({} vs {})",
            protected.lost_iterations,
            lossy.lost_iterations
        );
    }

    #[test]
    fn recovering_observed_is_passive_and_epochs_are_monotone() {
        use coarse_simcore::oracle::{MembershipMonotonicity, OracleHub};
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let policy = RecoveryPolicy {
            checkpoint_interval: 1,
            ..RecoveryPolicy::default()
        };
        let victim = p.mem_devices[1].index() as u32;
        let plan =
            FaultPlan::new(11).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let bare = simulate_coarse_recovering(&m, &p, &model, 2, 3, &plan, &policy);
        let hub = OracleHub::with_builtins(SimDuration::from_secs(60));
        hub.register(Box::new(MembershipMonotonicity::new()));
        let observed =
            simulate_coarse_recovering_observed(&m, &p, &model, 2, 3, &plan, &policy, &hub, None);
        assert_eq!(bare, observed, "observation must not perturb the run");
        assert!(hub.violations().is_empty(), "{:?}", hub.violations());
    }

    #[test]
    fn coarse_overlaps_most_communication() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let r = simulate_coarse(&m, &p, &bert_large(), 2, 3);
        // Most of the 1.25 GiB sync hides behind compute.
        assert!(
            r.gpu_utilization() > 0.6,
            "GPU utilization {:.2} too low",
            r.gpu_utilization()
        );
    }
}
