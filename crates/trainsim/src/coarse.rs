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

use std::borrow::Cow;
use std::collections::BTreeMap;

use coarse_cci::checkpoint::plan_pool_checkpoint;
use coarse_cci::synccore::RingDirection;
use coarse_collectives::timed::{
    hierarchical_allreduce, ring_allreduce, CollectiveError, CollectiveResult,
};
use coarse_core::dualsync::{self, DualSyncInputs};
use coarse_core::profiler::build_routing_tables;
use coarse_core::resilience::{FailureKind, RecoveryAction, RecoveryPolicy, ResiliencePolicy};
use coarse_core::routing::RoutingTable;
use coarse_fabric::device::DeviceId;
use coarse_fabric::engine::{Shards, TransferEngine, TransferError};
use coarse_fabric::machines::{Machine, Partition};
use coarse_fabric::probe::Prober;
use coarse_fabric::topology::{LinkClass, LinkMask};
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
use crate::timeline::PhaseSpan;

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
    /// When the next forward pass needs each tensor, indexed by tensor.
    needed: Vec<SimDuration>,
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

/// Exact periodic-steady-state certificate for the clean iteration loop.
///
/// Every reservation of iteration `k` arrives at or after its boundary
/// `B_k`, each iteration offers its reservations in the same program order,
/// and a link's FIFO reads only when it next becomes free. So the loop's
/// whole carried state at `B_k` is each link's backlog past `B_k`. When the
/// backlog at `B_{k+1}` equals the one at `B_k`, every later iteration is
/// iteration `k` shifted by `P = B_{k+1} − B_k`, in integer nanoseconds.
struct SteadyState {
    /// The links still busy at `boundary`, as `(link index, backlog)` in
    /// link order; every other link is idle. Most boundaries leave every
    /// link idle, so this stays small and usually never allocates.
    backlog: Vec<(usize, SimDuration)>,
    boundary: SimTime,
}

impl SteadyState {
    /// The state before the first iteration of a fresh engine: every link
    /// idle at [`SimTime::ZERO`].
    fn new() -> Self {
        SteadyState {
            backlog: Vec::new(),
            boundary: SimTime::ZERO,
        }
    }

    /// Records the backlog at the next iteration boundary, with
    /// `remaining` iterations still to run. When it repeats the backlog at
    /// the previous boundary, returns the boundary after the last
    /// iteration: `boundary + remaining × period`.
    fn certified_end(
        &mut self,
        engine: &TransferEngine,
        boundary: SimTime,
        remaining: u32,
    ) -> Option<SimTime> {
        if remaining == 0 {
            return None;
        }
        let busy = || {
            engine
                .link_backlogs(boundary)
                .enumerate()
                .filter(|(_, backlog)| !backlog.is_zero())
        };
        let repeats = busy().eq(self.backlog.iter().copied());
        if !repeats {
            self.backlog.clear();
            self.backlog.extend(busy());
        }
        let period = boundary - self.boundary;
        self.boundary = boundary;
        repeats.then(|| boundary + period * u64::from(remaining))
    }
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

    /// `engine` with the deployment's observers attached.
    fn observe(&self, mut engine: TransferEngine) -> TransferEngine {
        if let Some(m) = &self.metrics {
            engine.set_metrics(m.clone());
        }
        if let Some(p) = &self.profiler {
            engine.set_profiler(p.clone());
        }
        if let Some(cp) = &self.critpath {
            engine.set_critpath(cp.clone());
        }
        if let Some(t) = self.tracer.as_ref().filter(|t| t.is_enabled()) {
            engine.set_tracer(t.clone());
        }
        engine
    }

    /// A fresh engine on the deployed fabric with the deployment's
    /// observers attached.
    fn engine(&self) -> TransferEngine {
        self.observe(TransferEngine::new(self.deployed.topology().clone()))
    }

    /// A fresh engine for a run facing `faults`. A clean run gets the
    /// deployed fabric. Every other run gets the CCI fabric deployed as a
    /// *mesh*: after an eviction the ring's wrap-around pair is not
    /// ring-adjacent, and memory devices cannot forward for each other (they
    /// are emulated by GPUs, §IV-B), so ring survivors would be unroutable.
    /// The real CCI switch reconnects any surviving pair; the mesh models
    /// that, and its neighbor links carry the ring's bandwidth model, so the
    /// healthy portion of a run times identically. The plan and the oracle
    /// battery ride along when the plan injects anything.
    fn engine_for(&self, faults: Faults<'_>) -> TransferEngine {
        if faults.clean() {
            return self.engine();
        }
        let mut mesh = self.machine.clone();
        if self.machine.topology().p2p_enabled() {
            for ring in self.node_mem_rings.iter().filter(|r| r.len() >= 2) {
                mesh.augment_cci_mesh(ring);
            }
        }
        let mut engine = self.observe(TransferEngine::new(mesh.into_topology()));
        if !faults.plan.is_empty() {
            engine.set_fault_plan(faults.plan.clone());
            if let Some(hub) = &self.oracles {
                engine.set_oracles(hub.clone());
            }
        }
        engine
    }

    /// Runs `iterations` at proxy budget `proxy_budget` on `engine`, an idle
    /// engine from [`engine_for`](Self::engine_for), under `faults`, and
    /// returns the steady-state period with the run's accounting. `spans`
    /// collects the phase spans of the last iteration for timeline
    /// rendering.
    ///
    /// A clean run nothing observes, whose caller neither wants its spans
    /// nor reads the engine afterwards (`full_loop`), stops at the first
    /// certified steady state (see [`SteadyState`]); the engine then holds
    /// only the simulated prefix.
    fn train(
        &self,
        engine: &mut TransferEngine,
        proxy_budget: ByteSize,
        iterations: u32,
        faults: Faults<'_>,
        spans: Option<&mut Vec<PhaseSpan>>,
        full_loop: bool,
    ) -> (SimDuration, RunStats) {
        let clean = faults.clean();
        let certify = clean
            && !full_loop
            && spans.is_none()
            && self.tracer.is_none()
            && self.metrics.is_none()
            && self.profiler.is_none()
            && self.critpath.is_none();
        let run = Run {
            d: self,
            engine,
            plan: faults.plan,
            response: faults.response,
            hub: self.oracles.as_ref().filter(|_| !faults.plan.is_empty()),
            clean,
            mem_devices: Cow::Borrowed(&self.mem_devices),
            node_mem_rings: Cow::Borrowed(&self.node_mem_rings),
            tables: Cow::Borrowed(&self.tables),
            gpu_only: false,
            stamp: SimTime::ZERO,
            transfer_seq: 0,
            completed: 0,
            last_ckpt: 0,
            hard_failure: None,
            stats: RunStats::default(),
        };
        run.train(proxy_budget, iterations, spans, certify)
    }

    /// The period of a clean run on `engine`, an idle engine from
    /// [`engine`](Self::engine) (see [`train`](Self::train)).
    fn period(
        &self,
        engine: &mut TransferEngine,
        proxy_budget: ByteSize,
        iterations: u32,
        spans: Option<&mut Vec<PhaseSpan>>,
        full_loop: bool,
    ) -> SimDuration {
        let (plan, policy) = (FaultPlan::empty(), ResiliencePolicy::default());
        let faults = Faults {
            plan: &plan,
            response: Response::Failover(&policy),
        };
        self.train(engine, proxy_budget, iterations, faults, spans, full_loop)
            .0
    }
}

/// How a run answers the faults of its plan, chosen by its entry point:
/// [`Prepared::faulty`] fails over and [`Prepared::recovering`] recovers.
/// It decides four things and nothing else: a shard's retry budget, what a
/// proxy death mid-push, mid-pull or before the collective does, what a
/// dropout found at a round start does, and whether the pool checkpoints.
#[derive(Clone, Copy)]
enum Response<'p> {
    /// §III-E failover: a rejected shard is resent until
    /// [`MAX_PUSH_ATTEMPTS`] and then accepted, severed routes are waited
    /// out, and a dead proxy is evicted while the interrupted stream or
    /// collective restarts over the survivors.
    Failover(&'p ResiliencePolicy),
    /// The recovery engine: bounded budgets escalate to elastic eviction, a
    /// dead proxy restores the pool's last checkpoint and rolls the run
    /// back, and pool checkpoints are traffic.
    Recover(&'p RecoveryPolicy),
}

impl Response<'_> {
    fn resilience(&self) -> &ResiliencePolicy {
        match self {
            Response::Failover(p) => p,
            Response::Recover(p) => &p.resilience,
        }
    }

    /// Whether a transfer that failed `rejects` seal checks and waited out
    /// `waits` outages tries again after one more failure of `kind`.
    fn retries(&self, kind: FailureKind, rejects: u32, waits: u32) -> bool {
        match self {
            Response::Failover(_) if kind == FailureKind::RouteOutage => {
                assert!(
                    rejects + waits < MAX_FLAP_WAITS,
                    "a route never recovered from its flap"
                );
                true
            }
            Response::Failover(_) => rejects + waits < MAX_PUSH_ATTEMPTS,
            Response::Recover(p) => {
                let attempt = if kind == FailureKind::CorruptStream {
                    rejects
                } else {
                    waits
                };
                p.action_for(kind, attempt) == RecoveryAction::Retry
            }
        }
    }

    /// The backoff before resending a rejected seal.
    fn backoff(&self, rejects: u32, waits: u32) -> SimDuration {
        match self {
            Response::Failover(p) => p.backoff_after(rejects + waits),
            Response::Recover(p) => p.resilience.backoff_after(rejects),
        }
    }

    /// Whether a proxy death restores the last pool checkpoint (and an
    /// exhausted budget evicts) rather than failing over in place.
    fn restores(&self) -> bool {
        matches!(self, Response::Recover(_))
    }

    fn checkpoint_due(&self, completed: u32, iterations: u32) -> bool {
        matches!(self, Response::Recover(p) if p.checkpoint_due(completed, iterations))
    }
}

/// What one run faces: a fault plan and the response its entry point chose.
#[derive(Clone, Copy)]
struct Faults<'p> {
    plan: &'p FaultPlan,
    response: Response<'p>,
}

impl Faults<'_> {
    /// A run with nothing injected and nothing checkpointed.
    fn clean(&self) -> bool {
        self.plan.is_empty()
            && !matches!(self.response, Response::Recover(p) if p.checkpoint_interval > 0)
    }
}

/// After this many integrity rejections of one shard the retransmission is
/// assumed to land clean (the link re-trains), so 100%-corruption plans
/// still terminate under failover.
const MAX_PUSH_ATTEMPTS: u32 = 32;

/// Cap on waiting out a flapped route before declaring the fabric broken.
const MAX_FLAP_WAITS: u32 = 10_000;

/// Accounting of one run. All times are exact sums in integer nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    /// Retransmissions of integrity-rejected sealed pushes.
    retries: u64,
    /// Proxies evicted from the pool; also the final membership epoch.
    evictions: u64,
    /// Evictions for an exhausted retry budget (elastic repairs).
    repairs: u64,
    /// Restore episodes (rollback to the last pool checkpoint).
    restores: u64,
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
    /// Latest simulated instant the run touched (the `RunEnd` stamp).
    end: SimTime,
}

/// One point-to-point transfer [`Run::transfer`] drives to completion.
struct Leg {
    src: DeviceId,
    dst: DeviceId,
    /// The pool member an exhausted budget evicts.
    proxy: DeviceId,
    bytes: ByteSize,
    mask: LinkMask,
    /// False for coherent reads, which carry no seal to reject.
    sealed: bool,
}

/// Oracle label of one shard: which attempt stream it belongs to.
struct ShardStream {
    worker: u32,
    stream: u64,
    shard: u32,
}

/// What one [`Leg`] came to.
enum LegOutcome {
    Done(SimTime),
    /// A pool member must leave: an endpoint died (`hard`) or the leg
    /// exhausted its retry budget (`!hard`, blaming [`Leg::proxy`]).
    Evict {
        device: DeviceId,
        hard: bool,
        at: SimTime,
    },
}

/// Shard streams are keyed per (execution attempt, direction, tensor), so a
/// stream id never legitimately restarts at shard 0 and a re-executed
/// iteration never replays an old stream: the retry-FIFO oracle needs
/// resets only for genuine restarts.
fn stream_id(attempt: u64, pull: bool, tensor: usize) -> u64 {
    (attempt << 33) | (u64::from(pull) << 32) | tensor as u64
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

/// One run of the training loop in progress: the deployment and faults it
/// runs under, the surviving proxy pool, and the accounting so far.
struct Run<'r, 'a> {
    d: &'r Deployment<'a>,
    engine: &'r mut TransferEngine,
    plan: &'r FaultPlan,
    response: Response<'r>,
    /// The oracle battery, armed only for runs whose plan injects anything.
    hub: Option<&'r OracleHub>,
    /// Nothing injected and nothing checkpointed.
    clean: bool,
    /// The surviving pool and its routing, borrowed from the deployment
    /// until the first eviction.
    mem_devices: Cow<'r, [DeviceId]>,
    node_mem_rings: Cow<'r, [Vec<DeviceId>]>,
    tables: Cow<'r, [RoutingTable]>,
    /// The proxy tier is lost: the GPUs synchronize everything.
    gpu_only: bool,
    /// The latest announced membership instant.
    stamp: SimTime,
    /// Per-attempt sequence number keying the plan's corruption draws.
    transfer_seq: u64,
    /// Committed iterations: rolled back on restore, so re-executed work
    /// shows as wall-clock without double-counting progress.
    completed: u32,
    /// The committed iteration of the last durable pool checkpoint;
    /// iteration 0's initial parameter distribution counts as checkpoint 0.
    last_ckpt: u32,
    /// A proxy death that abandoned the iteration, awaiting its restore.
    hard_failure: Option<SimTime>,
    stats: RunStats,
}

impl Run<'_, '_> {
    fn detect(&self) -> SimDuration {
        self.response.resilience().detect_timeout
    }

    fn emit(&self, ev: OracleEvent) {
        if let Some(hub) = self.hub {
            hub.emit(ev);
        }
    }

    /// One instant on the resilience track of a traced run.
    fn note(&self, at: SimTime, what: impl FnOnce() -> String) {
        if let Some(t) = self.d.tracer.as_ref().filter(|t| t.is_enabled()) {
            let track = t.track("faults: resilience");
            t.instant(at, category::FAULT, track, &what());
        }
    }

    /// The stall `device` adds to a service at `at`, reported as a bite.
    fn stall(&self, device: DeviceId, at: SimTime) -> SimDuration {
        let stall = self.plan.stall(device.index() as u32, at);
        if stall > SimDuration::ZERO {
            self.emit(OracleEvent::FaultBite {
                kind: BiteKind::Stall,
                at,
            });
        }
        stall
    }

    /// Evicts `dead` from the pool, announced at `at` (one detection
    /// timeout after the failure), and repairs the routing tables over the
    /// survivors (the §III-E re-profiling used as failover). Fewer than two
    /// survivors collapse the run to GPU-only synchronization. `soft` marks
    /// an eviction for an exhausted retry budget.
    fn evict(&mut self, dead: DeviceId, at: SimTime, soft: bool, how: &str) {
        assert!(
            self.mem_devices.contains(&dead),
            "a worker dropped {how}: unreachable, Scenario::validate rejects a plan that drops \
             a worker GPU with TrainError::WorkerDropout"
        );
        self.mem_devices.to_mut().retain(|&d| d != dead);
        let rings = self.node_mem_rings.to_mut();
        for ring in rings.iter_mut() {
            ring.retain(|&d| d != dead);
        }
        rings.retain(|r| !r.is_empty());
        if self.mem_devices.len() < 2 {
            self.gpu_only = true;
        } else {
            self.tables = Cow::Owned(build_routing_tables(
                &mut Prober::new(self.d.deployed.topology()),
                &self.d.workers,
                &self.mem_devices,
                SimTime::ZERO,
            ));
        }
        self.stats.evictions += 1;
        self.stats.repairs += u64::from(soft);
        self.stats.detection_time += self.detect();
        self.stats.end = self.stats.end.max(at);
        // Concurrent streams are simulated in program order, so a later
        // eviction can carry an earlier instant; the control plane
        // serializes views, so announced stamps never run backward.
        self.stamp = self.stamp.max(at);
        if self.response.restores() {
            self.emit(OracleEvent::MembershipEpoch {
                epoch: self.stats.evictions,
                at: self.stamp,
            });
        }
        self.note(at, || {
            format!(
                "evicted proxy {} {how} (epoch {})",
                self.d.deployed.topology().device(dead).name(),
                self.stats.evictions
            )
        });
    }

    /// Drives one transfer under the plan: a seal the receiver rejects is
    /// resent after backoff (a fresh sequence number draws a fresh,
    /// reproducible corruption decision), a severed route is waited out in
    /// detection-timeout steps, and a dead endpoint or an exhausted budget
    /// comes back as an eviction. `shard` labels the attempts for the
    /// oracles.
    fn transfer(&mut self, leg: Leg, at: SimTime, shard: Option<ShardStream>) -> LegOutcome {
        let (mut t, mut rejects, mut waits) = (at, 0u32, 0u32);
        loop {
            if let Some(s) = &shard {
                self.emit(OracleEvent::ShardAttempt {
                    worker: s.worker,
                    stream: s.stream,
                    shard: s.shard,
                    attempt: rejects + waits,
                    at: t,
                });
            }
            self.transfer_seq += 1;
            match self
                .engine
                .transfer_masked(leg.src, leg.dst, leg.bytes, t, leg.mask)
            {
                Ok(rec) => {
                    let retry = self
                        .response
                        .retries(FailureKind::CorruptStream, rejects, waits);
                    // Failover stops checking once its budget is spent (the
                    // link re-trains); the recovery engine evicts instead.
                    let checked = leg.sealed && (retry || self.response.restores());
                    if !checked
                        || !self
                            .plan
                            .corrupts(leg.dst.index() as u32, rec.end, self.transfer_seq)
                    {
                        return LegOutcome::Done(rec.end);
                    }
                    self.emit(OracleEvent::FaultBite {
                        kind: BiteKind::Corrupt,
                        at: rec.end,
                    });
                    if !retry {
                        return LegOutcome::Evict {
                            device: leg.proxy,
                            hard: false,
                            at: rec.end,
                        };
                    }
                    self.stats.retries += 1;
                    let backoff = self.response.backoff(rejects, waits);
                    self.stats.backoff_time += backoff;
                    t = rec.end + backoff;
                    rejects += 1;
                }
                Err(TransferError::DeviceDown { device }) => {
                    return LegOutcome::Evict {
                        device,
                        hard: true,
                        at: t,
                    }
                }
                Err(TransferError::NoRoute { .. }) => {
                    if !self
                        .response
                        .retries(FailureKind::RouteOutage, rejects, waits)
                    {
                        return LegOutcome::Evict {
                            device: leg.proxy,
                            hard: false,
                            at: t,
                        };
                    }
                    self.stats.backoff_time += self.detect();
                    t += self.detect();
                    waits += 1;
                }
            }
        }
    }

    /// Streams worker `w`'s shards of one `size`-byte tensor to its routed
    /// proxy (or back from it, when `pull`), one shard after another from
    /// `t` under the plan. A proxy evicted mid-stream is replaced by the
    /// repaired route and the stream restarts at shard 0. Returns the proxy
    /// and the last delivery, or `None` when the round is abandoned: the
    /// pool collapsed, or a proxy death awaits its restore.
    fn stream(
        &mut self,
        w: usize,
        size: ByteSize,
        mut t: SimTime,
        pull: bool,
        stream: u64,
    ) -> Option<(DeviceId, SimTime)> {
        let worker = self.d.workers[w];
        let mut proxy = self.tables[w].route_for(size);
        let shards = Shards::new(size, self.tables[w].shard_size);
        let mut i = 0;
        while let Some(bytes) = shards.get(i) {
            let (src, dst) = if pull {
                (proxy, worker)
            } else {
                (worker, proxy)
            };
            let leg = Leg {
                src,
                dst,
                proxy,
                bytes,
                mask: PCIE_ONLY,
                sealed: true,
            };
            let label = ShardStream {
                worker: w as u32,
                stream,
                shard: shard_label(i, shards.len(), self.d.sabotage),
            };
            match self.transfer(leg, t, Some(label)) {
                LegOutcome::Done(end) => {
                    t = end;
                    i += 1;
                }
                LegOutcome::Evict { device, hard, at } => {
                    // Failover restarts from where the stream stood; the
                    // recovery engine dates a death from the failed attempt.
                    let failed = if hard && !self.response.restores() {
                        t
                    } else {
                        at
                    };
                    t = failed + self.detect();
                    self.evict(device, t, !hard, if pull { "mid-pull" } else { "mid-push" });
                    if hard && self.response.restores() {
                        self.hard_failure = Some(failed);
                        return None;
                    }
                    if self.gpu_only {
                        return None;
                    }
                    proxy = self.tables[w].route_for(size);
                    i = 0;
                    self.emit(OracleEvent::StreamReset {
                        worker: w as u32,
                        stream,
                        at: t,
                    });
                }
            }
        }
        Some((proxy, t))
    }

    /// The proxy-tier allreduce over the surviving pool. Multi-node runs
    /// reduce hierarchically while every node keeps the same number of
    /// proxies; once an eviction leaves the node rings unequal, all
    /// survivors join one flat ring across the nodes over the CCI-or-network
    /// fabric, so no healthy proxy is dropped to even the rings out.
    fn proxy_allreduce(
        &mut self,
        multi_node: bool,
        payload: ByteSize,
        ready_of: impl Fn(DeviceId) -> SimTime,
        round: usize,
    ) -> Result<CollectiveResult, CollectiveError> {
        let rings = &self.node_mem_rings;
        let even = rings.iter().all(|r| r.len() == rings[0].len());
        if multi_node && even {
            let ready: Vec<SimTime> = rings.iter().flatten().map(|&d| ready_of(d)).collect();
            return hierarchical_allreduce(self.engine, rings, payload, &ready, CCI_OR_NETWORK);
        }
        let mask = if multi_node {
            CCI_OR_NETWORK
        } else {
            self.d.proxy_mask
        };
        let ready: Vec<SimTime> = self.mem_devices.iter().map(|&d| ready_of(d)).collect();
        ring_allreduce(
            self.engine,
            &self.mem_devices,
            payload,
            &ready,
            RingDirection::for_group(round),
            mask,
        )
    }

    /// The GPU dual-sync collective of `bytes`, every worker ready at `at`.
    /// On clusters the workers use the hierarchical decomposition
    /// (intra-node NVLink, then network). Workers have no failover tier, but
    /// a flapped worker-to-worker route is survivable: it is waited out in
    /// detection-timeout steps, like the shard path.
    fn gpu_allreduce(&mut self, multi_node: bool, bytes: ByteSize, at: SimTime) -> SimTime {
        let d = self.d;
        let (mut delay, mut waits) = (SimDuration::ZERO, 0u32);
        loop {
            let attempt = if multi_node {
                let total: usize = d.node_gpu_rings.iter().map(Vec::len).sum();
                hierarchical_allreduce(
                    self.engine,
                    &d.node_gpu_rings,
                    bytes,
                    &vec![at + delay; total],
                    LinkMask::ALL,
                )
            } else {
                ring_allreduce(
                    self.engine,
                    &d.gpu_ring,
                    bytes,
                    &vec![at + delay; d.gpu_ring.len()],
                    RingDirection::Forward,
                    LinkMask::ALL,
                )
            };
            match attempt {
                Ok(res) => return res.end,
                Err(CollectiveError::Transfer(TransferError::NoRoute { .. })) => {
                    assert!(
                        waits < MAX_FLAP_WAITS,
                        "worker collective never recovered from its flap"
                    );
                    waits += 1;
                    self.stats.backoff_time += self.detect();
                    delay += self.detect();
                }
                // simlint: allow(panic-in-library, reason = "losing a worker GPU is unsurvivable by design (S III-E covers the proxy tier only), and gpu rings are shape-validated at construction")
                Err(e) => panic!("worker collective cannot continue: {e}"),
            }
        }
    }

    /// One pool checkpoint from `begin`: every surviving proxy sealed-pushes
    /// its shard of the parameter image to its ring mirror (per
    /// [`plan_pool_checkpoint`]), all legs in parallel, and the image
    /// commits when the slowest leg lands. An exhausted budget evicts the
    /// mirror and replans the image over the shrunken pool (a half-written
    /// image is useless); a member death restores the previous image.
    /// Returns the instant training resumes.
    fn checkpoint(&mut self, begin: SimTime) -> SimTime {
        let total = self.d.model.total_bytes();
        let mut at = begin;
        'replan: loop {
            let legs = plan_pool_checkpoint(self.mem_devices.len(), total);
            let mut end = at;
            for leg in &legs.legs {
                let (src, dst) = (self.mem_devices[leg.src], self.mem_devices[leg.mirror]);
                let leg = Leg {
                    src,
                    dst,
                    proxy: dst,
                    bytes: leg.bytes,
                    mask: self.d.proxy_mask,
                    sealed: true,
                };
                match self.transfer(leg, at, None) {
                    LegOutcome::Done(t) => end = end.max(t),
                    LegOutcome::Evict {
                        device,
                        hard: false,
                        at: t,
                    } => {
                        at = t + self.detect();
                        self.evict(device, at, true, "failing its checkpoint leg");
                        if self.gpu_only {
                            return at;
                        }
                        continue 'replan;
                    }
                    LegOutcome::Evict {
                        device,
                        hard: true,
                        at: t,
                    } => {
                        // The fresh image never committed: the restore rolls
                        // back to the previous one.
                        self.emit(OracleEvent::FaultBite {
                            kind: BiteKind::Dropout,
                            at: t,
                        });
                        self.evict(device, t + self.detect(), false, "mid-checkpoint");
                        return self.restore(t + self.detect(), t);
                    }
                }
            }
            self.stats.end = self.stats.end.max(end);
            self.stats.checkpoints += 1;
            self.stats.checkpoint_bytes += total.as_u64();
            self.stats.checkpoint_time += end.saturating_duration_since(begin);
            self.last_ckpt = self.completed;
            return end;
        }
    }

    /// One restore episode from `begin`, for a failure observed at
    /// `episode`: every surviving proxy coherently reads its shard of the
    /// last committed image back from its ring mirror — the reverse of the
    /// checkpoint legs, plain reads without a seal. A member lost
    /// mid-restore is evicted and the reads replanned over the survivors
    /// (the pool only shrinks, so this ends). Unless the pool collapsed, the
    /// run rolls back to the last checkpoint. Returns the instant training
    /// resumes.
    fn restore(&mut self, begin: SimTime, episode: SimTime) -> SimTime {
        let total = self.d.model.total_bytes();
        let mut at = begin;
        let end = 'replan: loop {
            if self.gpu_only {
                break at;
            }
            let legs = plan_pool_checkpoint(self.mem_devices.len(), total);
            let mut end = at;
            for leg in &legs.legs {
                let (src, dst) = (self.mem_devices[leg.mirror], self.mem_devices[leg.src]);
                let leg = Leg {
                    src,
                    dst,
                    proxy: src,
                    bytes: leg.bytes,
                    mask: self.d.proxy_mask,
                    sealed: false,
                };
                match self.transfer(leg, at, None) {
                    LegOutcome::Done(t) => end = end.max(t),
                    LegOutcome::Evict {
                        device,
                        hard,
                        at: t,
                    } => {
                        if hard {
                            self.emit(OracleEvent::FaultBite {
                                kind: BiteKind::Dropout,
                                at: t,
                            });
                        }
                        at = t + self.detect();
                        self.evict(device, at, !hard, "mid-restore");
                        continue 'replan;
                    }
                }
            }
            break end;
        };
        self.stats.end = self.stats.end.max(end);
        if !self.gpu_only {
            self.stats.restores += 1;
            self.stats.restore_bytes += total.as_u64();
            self.stats.restore_time += end.saturating_duration_since(begin);
            self.stats.mttr_total += end.saturating_duration_since(episode);
            self.stats.lost_iterations += u64::from(self.completed - self.last_ckpt);
            self.completed = self.last_ckpt;
            self.note(end, || {
                format!("restore: rolled back to iteration {}", self.completed)
            });
        }
        end
    }

    /// The training loop (§III, mechanisms 1–4): each iteration streams the
    /// proxy path's gradients to the routed proxies as the backward pass
    /// emits them, runs the proxy collective per bucket, pulls the reduced
    /// values back, and dual-syncs the shallow layers on the GPUs.
    ///
    /// The faults and their [`Response`] reshape it at four sites: a shard's
    /// retry budget ([`transfer`](Self::transfer)), a proxy death mid-push,
    /// mid-pull or before the collective (fail over in place, or restore
    /// and roll back), a dropout found at a round start (the same), and the
    /// pool checkpoints. Runs without faults move each tensor as one shard
    /// train; runs with faults stream shard by shard so each shard meets
    /// the plan. With `certify`, the loop stops at the first certified
    /// steady state.
    fn train(
        mut self,
        proxy_budget: ByteSize,
        iterations: u32,
        mut spans: Option<&mut Vec<PhaseSpan>>,
        certify: bool,
    ) -> (SimDuration, RunStats) {
        use crate::timeline::PhaseKind;
        let d = self.d;
        let (iter_plan, model) = (&d.plan, d.model);
        let faulty = !self.plan.is_empty();
        let (proxy_path, gpu_bytes) = d.proxy_split(proxy_budget);

        // The certificate's premise: iteration 0 starts on an idle fabric.
        debug_assert!(
            self.engine
                .link_backlogs(SimTime::ZERO)
                .all(|b| b.is_zero()),
            "a run starts on an idle engine"
        );
        debug_assert!(
            !faulty || d.critpath.is_none(),
            "the per-shard path registers no critical-path edges"
        );
        let prof = d.profiler.clone();
        let crit = d.critpath.clone();
        let mut prev_sink: Option<NodeId> = None;
        let tracer = d.tracer.as_ref().filter(|t| t.is_enabled()).cloned();
        let mut tracks = tracer.as_ref().map(|t| TrainTracks {
            iter: t.track("train: iteration"),
            compute: t.track("train: compute"),
            push: t.track("train: push"),
            collective: t.track("train: collective"),
            pull: t.track("train: pull"),
            proxies: BTreeMap::new(),
        });
        if let Some(t) = tracer.as_ref().filter(|_| faulty) {
            // One instant per injected fault, on a dedicated track.
            let track = t.track("faults: injected");
            for ev in self.plan.events() {
                t.instant(ev.at, category::FAULT, track, &ev.label);
            }
        }
        // Shards parked at each proxy since its last collective (the
        // analytic run never instantiates ParameterProxy objects, so the
        // queue-depth gauge is synthesized from shard arrivals here).
        let mut parked: BTreeMap<DeviceId, u64> = BTreeMap::new();
        let multi_node = d.machine.nodes() > 1;
        let detect = self.detect();
        let mut start = SimTime::ZERO;
        let mut first_period_end: Option<SimTime> = None;
        let mut steady = certify.then(SteadyState::new);
        // Execution attempts (monotone): stream ids and iteration-end
        // indices key off this, so a rollback never reuses either.
        let mut executed: u64 = 0;
        'outer: while self.completed < iterations {
            let attempt = executed;
            executed += 1;
            if faulty {
                // Round-start dropout detection: a device that died since the
                // last iteration is noticed before the new round's pushes are
                // routed, at the cost of one detection timeout each.
                let detected: Vec<DeviceId> = self
                    .mem_devices
                    .iter()
                    .copied()
                    .filter(|&m| self.plan.device_down(m.index() as u32, start))
                    .collect();
                let episode = start;
                for &dead in &detected {
                    self.emit(OracleEvent::FaultBite {
                        kind: BiteKind::Dropout,
                        at: start,
                    });
                    start += detect;
                    self.evict(dead, start, false, "lost between rounds");
                }
                if self.response.restores() && !detected.is_empty() {
                    start = self.restore(start, episode);
                    continue 'outer;
                }
            }

            let tracing = spans.is_some() && self.completed + 1 == iterations;
            let forward_end = start + iter_plan.forward_time();
            let backward_end = forward_end + iter_plan.backward_time();
            let mut next_start = backward_end;
            // The iteration's forward+backward pass on the critical-path
            // graph; pushes and the GPU dual-sync hang off it.
            let compute = crit.as_ref().map(|cp| {
                let deps: Vec<NodeId> = prev_sink.into_iter().collect();
                cp.span_on(
                    crit_class::COMPUTE,
                    format!("fwd+bwd iter {attempt}"),
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
            if let Some(spans) = spans.as_deref_mut().filter(|_| tracing) {
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
                    &format!("forward (iter {attempt})"),
                );
                t.span(
                    forward_end,
                    backward_end,
                    category::TRAIN,
                    tt.compute,
                    &format!("backward (iter {attempt})"),
                );
            }
            // Input pipeline: prefetch the next iteration's batch from host
            // memory to each worker, contending with parameter traffic on
            // the PCIe tree. It must land before the next forward starts.
            if !d.input_bytes.is_zero() {
                let _prof_g = prof.as_ref().map(|p| {
                    p.count(prof_region::TRAIN_PREFETCH, d.workers.len() as u64);
                    p.enter(prof_region::TRAIN_PREFETCH)
                });
                let topo = d.deployed.topology();
                for &worker in &d.workers {
                    let cpu = topo.host_cpu(topo.device(worker).node());
                    let rec = self
                        .engine
                        .transfer_masked(cpu, worker, d.input_bytes, start, PCIE_ONLY)
                        // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                        .expect("host reaches its workers");
                    next_start = next_start.max(rec.end);
                    if let Some(cp) = &crit {
                        if let (Some(n), Some(ps)) = (self.engine.last_crit_entry_node(), prev_sink)
                        {
                            cp.add_dep(n, ps);
                        }
                        sink_deps.extend(self.engine.last_crit_node());
                    }
                }
            }

            // Fuse proxy-path gradients into emission-ordered buckets.
            let mut buckets: Vec<Vec<&coarse_models::training::GradientEvent>> = Vec::new();
            let mut bucket_bytes = ByteSize::ZERO;
            for ev in iter_plan.gradients() {
                if self.gpu_only || !proxy_path[ev.tensor] {
                    continue;
                }
                if buckets.is_empty() || bucket_bytes >= BUCKET_TARGET {
                    buckets.push(Vec::new());
                    bucket_bytes = ByteSize::ZERO;
                }
                // simlint: allow(panic-in-library, reason = "the branch above pushed a bucket before this read")
                buckets.last_mut().expect("just pushed").push(ev);
                bucket_bytes += model.tensors()[ev.tensor].byte_size();
            }

            'buckets: for (round, bucket) in buckets.iter().enumerate() {
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
                    for (w, &worker) in d.workers.iter().enumerate() {
                        if let Some(p) = &prof {
                            let shards = Shards::new(size, self.tables[w].shard_size).len();
                            p.count(prof_region::TRAIN_PUSH, shards as u64);
                        }
                        let (dest, t) = if faulty {
                            let stream = stream_id(attempt, false, ev.tensor);
                            let Some((dest, t)) = self.stream(w, size, emitted, false, stream)
                            else {
                                break 'buckets;
                            };
                            // A stalled proxy services the arrival late.
                            let t = t + self.stall(dest, t);
                            self.stats.end = self.stats.end.max(t);
                            (dest, t)
                        } else {
                            let table = &self.tables[w];
                            let dest = table.route_for(size);
                            let t = self
                                .engine
                                .transfer_sharded(
                                    worker,
                                    dest,
                                    size,
                                    table.shard_size,
                                    emitted,
                                    PCIE_ONLY,
                                )
                                // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                                .expect("worker reaches its proxy")
                                .end;
                            if let Some(cp) = &crit {
                                // The first shard leaves when the backward
                                // pass emits the gradient; the edge lands on
                                // the transfer's *entry* node so a staged
                                // first leg still routes back to compute.
                                if let (Some(n), Some(c)) =
                                    (self.engine.last_crit_entry_node(), compute)
                                {
                                    cp.add_dep(n, c);
                                }
                                // Shard deliveries are ordered, so the last
                                // shard is the train's latest-finishing node.
                                if let Some(n) = self.engine.last_crit_node() {
                                    let slot = arrivals.entry(dest).or_insert(n);
                                    if cp.node_end(n) >= cp.node_end(*slot) {
                                        *slot = n;
                                    }
                                }
                            }
                            (dest, t)
                        };
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
                                        d.deployed.topology().device(dest).name()
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
                let latest_ready = |pool: &[DeviceId]| {
                    pool.iter()
                        .map(|&d| ready_of(d))
                        .max()
                        .unwrap_or(latest_emit)
                };

                // Proxy collective over the CCI device fabric; alternate
                // ring direction per bucket (Fig. 11b). It can itself hit
                // faults: a proxy whose dropout instant falls between its
                // last serviced push and the ring step, or a flap severing
                // the only allowed route, which is waited out (and, once the
                // recovery engine's budget is spent, repaired by evicting
                // the unreachable member).
                let coll_prof = prof.as_ref().map(|p| {
                    p.count(prof_region::TRAIN_COLLECTIVE, 1);
                    p.enter(prof_region::TRAIN_COLLECTIVE)
                });
                if crit.is_some() {
                    let deps: Vec<NodeId> = arrivals.values().copied().collect();
                    self.engine.stage_crit_deps(&deps);
                }
                let (mut delay, mut waits) = (SimDuration::ZERO, 0u32);
                let sync_end = loop {
                    match self.proxy_allreduce(multi_node, total, |d| ready_of(d) + delay, round) {
                        Ok(res) => break res.end,
                        Err(CollectiveError::Transfer(TransferError::DeviceDown { device })) => {
                            let observed = latest_ready(&self.mem_devices) + delay;
                            self.evict(
                                device,
                                observed + detect,
                                false,
                                "before the proxy collective",
                            );
                            if self.response.restores() {
                                self.hard_failure = Some(observed);
                                break 'buckets;
                            }
                            if self.gpu_only {
                                break 'buckets;
                            }
                            delay += detect;
                        }
                        Err(CollectiveError::Transfer(TransferError::NoRoute { src, dst })) => {
                            let retry = self.response.retries(FailureKind::RouteOutage, 0, waits);
                            let victim = [dst, src]
                                .into_iter()
                                .find(|v| !retry && self.mem_devices.contains(v));
                            if let Some(victim) = victim {
                                let at = latest_ready(&self.mem_devices) + delay + detect;
                                self.evict(victim, at, true, "unreachable");
                                if self.gpu_only {
                                    break 'buckets;
                                }
                                delay += detect;
                                waits = 0;
                            } else {
                                assert!(
                                    retry || waits < MAX_FLAP_WAITS,
                                    "proxy collective never recovered from its flap"
                                );
                                waits += 1;
                                self.stats.backoff_time += detect;
                                delay += detect;
                            }
                        }
                        Err(e) => {
                            // simlint: allow(panic-in-library, reason = "proxy_allreduce falls back to a flat ring when eviction leaves node rings uneven; a shape error here is a bug, not a runtime condition")
                            unreachable!("proxy collective shape violated: {e}")
                        }
                    }
                };
                drop(coll_prof);
                let coll_node = if crit.is_some() {
                    self.engine.last_crit_node()
                } else {
                    None
                };
                // Pull: updated values flow back on the opposite direction.
                let pull_prof = prof.as_ref().map(|p| p.enter(prof_region::TRAIN_PULL));
                let mut pull_end = sync_end;
                for ev in bucket {
                    let size = model.tensors()[ev.tensor].byte_size();
                    for (w, &worker) in d.workers.iter().enumerate() {
                        if let Some(p) = &prof {
                            let shards = Shards::new(size, self.tables[w].shard_size).len();
                            p.count(prof_region::TRAIN_PULL, shards as u64);
                        }
                        let t = if faulty {
                            let src = self.tables[w].route_for(size);
                            let at = sync_end + self.stall(src, sync_end);
                            let stream = stream_id(attempt, true, ev.tensor);
                            let Some((_, t)) = self.stream(w, size, at, true, stream) else {
                                break 'buckets;
                            };
                            self.stats.end = self.stats.end.max(t);
                            t
                        } else {
                            let table = &self.tables[w];
                            let t = self
                                .engine
                                .transfer_sharded(
                                    table.route_for(size),
                                    worker,
                                    size,
                                    table.shard_size,
                                    sync_end,
                                    PCIE_ONLY,
                                )
                                // simlint: allow(panic-in-library, reason = "deployment validation guarantees host-worker-proxy connectivity")
                                .expect("proxy reaches its worker")
                                .end;
                            // The first shard leaves when the collective
                            // publishes the reduced bucket; the edge lands on
                            // the transfer's *entry* node so a staged first
                            // leg still routes back to the collective.
                            if let (Some(cp), Some(n), Some(c)) =
                                (&crit, self.engine.last_crit_entry_node(), coll_node)
                            {
                                cp.add_dep(n, c);
                            }
                            t
                        };
                        pull_end = pull_end.max(t);
                        // The tensor must be back before the next forward
                        // pass reaches its layer.
                        next_start = next_start.max(t - d.needed[ev.tensor]);
                        if let Some(cp) = &crit {
                            if let Some(n) = self.engine.last_crit_node() {
                                // The instant this tensor stops gating the
                                // next iteration's forward pass.
                                let gate = cp.instant(
                                    crit_class::SYNC,
                                    format!("pull ready t{} w{w}", ev.tensor),
                                    t - d.needed[ev.tensor],
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
                    if let Some(spans) = spans.as_deref_mut().filter(|_| tracing) {
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

            if let Some(fail_at) = self.hard_failure.take() {
                if !self.gpu_only {
                    // The eviction is done (detection charged at the failure
                    // site): restore the image and roll back.
                    start = self.restore(fail_at + detect, fail_at);
                    continue 'outer;
                }
                // The pool died with its last member: nothing to restore
                // from. Finish this iteration GPU-only.
            }

            // Dual sync: shallow layers reduced by the GPUs, blocking, at the
            // end of the backward pass. When the proxy tier is (or just
            // became) lost, the GPUs re-synchronize the full parameter set.
            let sync_bytes = if self.gpu_only {
                model.total_bytes()
            } else {
                gpu_bytes
            };
            let gpu_prof = prof.as_ref().map(|p| {
                if !sync_bytes.is_zero() {
                    p.count(prof_region::TRAIN_GPU_SYNC, 1);
                }
                p.enter(prof_region::TRAIN_GPU_SYNC)
            });
            let gpu_ring_runs = !sync_bytes.is_zero() && (multi_node || d.gpu_ring.len() >= 2);
            let gpu_sync_end = if gpu_ring_runs {
                // The dual-sync collective starts when the backward pass ends.
                if let Some(c) = compute {
                    self.engine.stage_crit_deps(&[c]);
                }
                self.gpu_allreduce(multi_node, sync_bytes, backward_end)
            } else {
                backward_end
            };
            drop(gpu_prof);
            if crit.is_some() && gpu_ring_runs {
                if let Some(n) = self.engine.last_crit_node() {
                    sink_deps.push(n);
                }
            }
            if let Some(spans) = spans.as_deref_mut().filter(|_| tracing) {
                if gpu_sync_end > backward_end {
                    spans.push(PhaseSpan::new(
                        PhaseKind::GpuSync,
                        backward_end,
                        gpu_sync_end,
                        format!("GPU ring allreduce ({sync_bytes})"),
                    ));
                }
            }
            if let (Some(t), Some(tt)) = (&tracer, &tracks) {
                if gpu_sync_end > backward_end {
                    t.span(
                        backward_end,
                        gpu_sync_end,
                        category::TRAIN,
                        tt.compute,
                        &format!("gpu sync (iter {attempt}, {sync_bytes})"),
                    );
                }
            }
            next_start = next_start.max(gpu_sync_end);
            let blocked = (next_start - start)
                .saturating_sub(iter_plan.forward_time() + iter_plan.backward_time());
            if let (Some(t), Some(tt)) = (&tracer, &tracks) {
                t.span(
                    start,
                    next_start,
                    category::TRAIN,
                    tt.iter,
                    &format!("iteration {attempt}"),
                );
                t.counter(
                    next_start,
                    category::TRAIN,
                    tt.iter,
                    "blocked_us",
                    blocked.as_micros_f64(),
                );
            }
            if let Some(m) = &d.metrics {
                m.inc(metric::TRAIN_ITERATIONS, 1);
                m.inc(metric::TRAIN_BLOCKED_NS, blocked.as_nanos());
                m.observe(
                    metric::TRAIN_FP_NS,
                    iter_plan.forward_time().as_nanos() as f64,
                );
                m.observe(
                    metric::TRAIN_BP_NS,
                    iter_plan.backward_time().as_nanos() as f64,
                );
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
                    format!("iteration {attempt} boundary"),
                    next_start,
                    &sink_deps,
                );
                cp.mark_iteration(attempt, sink);
                prev_sink = Some(sink);
            }
            self.stats.end = self.stats.end.max(next_start);
            self.emit(OracleEvent::IterationEnd {
                index: attempt as u32,
                at: next_start,
            });
            self.emit(OracleEvent::Progress { at: next_start });
            self.completed += 1;
            // B_1, the end of the first committed iteration, bounds every
            // clean iteration from below.
            let b1 = *first_period_end.get_or_insert(next_start) - SimTime::ZERO;
            debug_assert!(
                !self.clean || next_start - start >= b1,
                "a clean iteration is no shorter than iteration 0"
            );

            // Pool checkpoint: sealed-push every shard to its mirror and
            // wait for the slowest leg before the next iteration starts.
            start = if self.response.checkpoint_due(self.completed, iterations) && !self.gpu_only {
                self.checkpoint(next_start)
            } else {
                next_start
            };
            let remaining = iterations - self.completed;
            if let Some(end) = steady
                .as_mut()
                .and_then(|s| s.certified_end(self.engine, start, remaining))
            {
                start = end;
                break;
            }
        }
        let first_period_end = first_period_end.unwrap_or(SimTime::ZERO);
        let period = (start - first_period_end) / (u64::from(iterations) - 1).max(1);
        debug_assert!(
            !self.clean || period >= first_period_end - SimTime::ZERO,
            "a clean run's period is at least B_1"
        );
        // Debug builds check every certifiable run against the full loop on
        // a fresh engine: the shortcut when it certified, and the reuse of
        // an engine returned to idle (the pilot grid's) either way.
        if cfg!(debug_assertions) && certify {
            let full = d.period(&mut d.engine(), proxy_budget, iterations, None, true);
            assert_eq!(
                period, full,
                "a certifiable run matches the full loop on a fresh engine"
            );
        }
        self.stats.degraded_to_gpu = self.gpu_only;
        self.stats.end = self.stats.end.max(start);
        self.stats.wall = start.saturating_duration_since(SimTime::ZERO);
        (period, self.stats)
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
    /// One run of `iterations` under `faults` on a fresh engine of the
    /// fabric they call for. An oracle-observed run's event stream closes
    /// with the run's fingerprint (for the clean-run-equivalence oracle) and
    /// its `RunEnd` stamp.
    fn run(&self, iterations: u32, faults: Faults<'_>) -> (TrainResult, RunStats) {
        assert_steady_state(iterations);
        let d = &self.deployment;
        let mut engine = d.engine_for(faults);
        let (period, stats) = d.train(&mut engine, self.best_m, iterations, faults, None, false);
        let result = TrainResult::new(period, d.plan.compute_time(), self.global_batch);
        if let Some(hub) = &d.oracles {
            hub.emit(OracleEvent::RunFingerprint {
                hash: result_fingerprint(&result),
            });
            hub.emit(OracleEvent::RunEnd { at: stats.end });
        }
        (result, stats)
    }

    /// A fault-free run of `iterations`.
    ///
    /// # Panics
    ///
    /// Panics if `iterations < 2`.
    pub(crate) fn clean(&self, iterations: u32) -> TrainResult {
        self.faulty(
            iterations,
            &FaultPlan::empty(),
            &ResiliencePolicy::default(),
        )
        .result
    }

    /// A run under `plan` that fails over (see [`FaultyTrainResult`]). An
    /// empty plan is the clean run: the result equals
    /// [`clean`](Self::clean)'s and the accounting is all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `iterations < 2` or the plan drops a worker.
    pub(crate) fn faulty(
        &self,
        iterations: u32,
        plan: &FaultPlan,
        policy: &ResiliencePolicy,
    ) -> FaultyTrainResult {
        let response = Response::Failover(policy);
        let (result, stats) = self.run(iterations, Faults { plan, response });
        FaultyTrainResult {
            result,
            injected_faults: plan.len(),
            retries: stats.retries,
            failovers: stats.evictions,
            degraded_to_gpu: stats.degraded_to_gpu,
            recovery_time: stats.detection_time + stats.backoff_time,
        }
    }

    /// A run under the recovery engine (see [`RecoveringTrainResult`]).
    /// With an empty plan and `checkpoint_interval = 0` it is the clean
    /// run, and its `wall` is the clean run's end.
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
        let response = Response::Recover(policy);
        let (result, stats) = self.run(iterations, Faults { plan, response });
        RecoveringTrainResult {
            result,
            wall: stats.wall,
            injected_faults: plan.len(),
            retries: stats.retries,
            repairs: stats.repairs,
            restores: stats.restores,
            membership_epoch: stats.evictions,
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
        }
    }

    /// A clean run that also reports the `top_n` busiest directed links
    /// over the run's horizon, as `(description, utilization)` rows in
    /// descending order.
    fn with_hotspots(&self, iterations: u32, top_n: usize) -> (TrainResult, Vec<(String, f64)>) {
        assert_steady_state(iterations);
        let d = &self.deployment;
        let mut engine = d.engine();
        let period = d.period(&mut engine, self.best_m, iterations, None, true);
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
        let result = TrainResult::new(period, d.plan.compute_time(), self.global_batch);
        (result, links)
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
        #[cfg(test)]
        stream_digest::arm(hub);
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
///
/// The deployment decision (routing tables, dual-sync split) is profiled on
/// the *healthy* fabric, exactly as for [`simulate_coarse`], and the
/// measured run then travels under the plan: link degradations stretch
/// serialization, flapped links reroute (or are waited out), transient
/// corruption triggers retry-with-backoff, a dropped memory device triggers
/// proxy failover with routing-table repair, and losing the proxy tier
/// degrades synchronization to GPU-only allreduce. An empty plan is the
/// clean run, byte for byte; a non-empty plan is byte-deterministic under
/// its seed.
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

/// Test-only digests of oracle event streams. While [`record`] runs, every
/// run armed through [`Prepared::observed`] also feeds a digest oracle: an
/// FNV-1a hash of each event's `Debug` rendering, in order.
///
/// [`record`]: stream_digest::record
#[cfg(test)]
pub(crate) mod stream_digest {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use coarse_simcore::oracle::{Oracle, OracleEvent, OracleHub, Violation};

    thread_local! {
        static RUNS: RefCell<Option<Vec<Rc<Cell<u64>>>>> = const { RefCell::new(None) };
    }

    struct Digest(Rc<Cell<u64>>);

    impl Oracle for Digest {
        fn name(&self) -> &'static str {
            "stream-digest"
        }

        fn observe(&mut self, ev: &OracleEvent) {
            let mut h = self.0.get();
            for b in format!("{ev:?}").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            self.0.set(h);
        }

        fn violations(&self) -> Vec<Violation> {
            Vec::new()
        }
    }

    /// Registers a digest oracle on `hub` when a [`record`] is in progress.
    pub(super) fn arm(hub: &OracleHub) {
        RUNS.with(|runs| {
            if let Some(runs) = runs.borrow_mut().as_mut() {
                let digest = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325));
                runs.push(Rc::clone(&digest));
                hub.register(Box::new(Digest(digest)));
            }
        });
    }

    /// Runs `f` and returns the stream digest of every observed run inside
    /// it, in run order.
    pub(crate) fn record(f: impl FnOnce()) -> Vec<u64> {
        RUNS.with(|runs| *runs.borrow_mut() = Some(Vec::new()));
        f();
        RUNS.with(|runs| runs.borrow_mut().take())
            .unwrap_or_default()
            .iter()
            .map(|d| d.get())
            .collect()
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

    // One probing session measures the deployed fabric: the routing tables
    // (PCIe paths only, §IV-B, spreading bandwidth ties across clients),
    // then the collective bandwidths that seed the analytic optimizer.
    let mut prober = Prober::new(deployed.topology());
    let tables = build_routing_tables(&mut prober, &workers, &mem_devices, SimTime::ZERO);
    let proxy_bw = {
        let intra = prober.unidirectional(
            node_mem_rings[0][0],
            node_mem_rings[0][std::cmp::min(1, node_mem_rings[0].len() - 1)],
            ByteSize::mib(64),
            proxy_mask,
        );
        let cross = if node_mem_rings.len() > 1 {
            prober.unidirectional(
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
        Bandwidth::bytes_per_sec(prober.unidirectional(
            gpu_ring[0],
            gpu_ring[1],
            ByteSize::mib(64),
            LinkMask::ALL,
        ))
    } else {
        Bandwidth::gib_per_sec(1000.0)
    };
    // The pilot grid runs on an engine of its own, so the probe routes
    // need not stay cached alongside the pilot's.
    drop(prober);

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

    let needs = plan.forward_needs();
    assert!(
        needs.len() == model.tensors().len()
            && needs.iter().enumerate().all(|(i, n)| n.tensor == i),
        "every tensor has one forward need, in tensor order"
    );
    let needed: Vec<SimDuration> = needs.iter().map(|n| n.needed).collect();

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
    // Every candidate runs on one engine, returned to idle in between.
    let mut engine = deployment.engine();
    let best_m = candidates
        .into_iter()
        .map(|m| {
            engine.reset_idle();
            let period = deployment.period(&mut engine, m, 2, None, false);
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
    let d = &prepared.deployment;
    let mut spans = Vec::new();
    let period = d.period(&mut d.engine(), prepared.best_m, 3, Some(&mut spans), false);
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
/// engine, sync ring, and training phases all record into `profiler`
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::simulate_allreduce;
    use crate::dense::simulate_dense;
    use coarse_fabric::machines::{aws_t4, aws_v100, sdsc_p100, PartitionScheme};
    use coarse_models::zoo::{bert_large, resnet50};

    fn faulty(
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

    fn recovering(
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

    #[test]
    fn shard_sizes_tile_payload() {
        let total: u64 = Shards::new(ByteSize::bytes(10_000), ByteSize::bytes(3000))
            .into_iter()
            .map(|s| s.as_u64())
            .sum();
        assert_eq!(total, 10_000);
        assert_eq!(
            Shards::new(ByteSize::bytes(100), ByteSize::bytes(3000)).len(),
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
        let faulty = faulty(
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
        let faulty = faulty(&m, &p, &model, 2, 3, &inert, &ResiliencePolicy::default());
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
        let r = recovering(&m, &p, &model, 2, 3, &FaultPlan::empty(), &policy);
        assert!(r.is_clean());
        assert_eq!(r.result, clean, "idle recovery engine must perturb nothing");
        assert!(r.wall > SimDuration::ZERO, "wall time is always measured");
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
        let failed_over = prepared.faulty(3, &plan, &policy);
        let recovered = prepared.recovering(3, &plan, &RecoveryPolicy::default());
        assert_eq!(
            prepared.clean(3),
            clean,
            "runs leave the deployment as found"
        );
        assert_eq!(clean, simulate_coarse(&m, &p, &model, 2, 3));
        assert_eq!(failed_over, faulty(&m, &p, &model, 2, 3, &plan, &policy));
        assert_eq!(
            recovered,
            recovering(&m, &p, &model, 2, 3, &plan, &RecoveryPolicy::default())
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
        let a = faulty(&m, &p, &model, 2, 3, &plan, &policy);
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
        let b = faulty(&m, &p, &model, 2, 3, &plan, &policy);
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
        let r = faulty(&m, &p, &model, 2, 3, &plan, &ResiliencePolicy::default());
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
        let r = faulty(&m, &p, &model, 64, 3, &plan, &policy);
        assert!(r.retries > 0, "a 30% corruption rate must force retries");
        assert_eq!(r.failovers, 0);
        assert!(r.recovery_time > SimDuration::ZERO, "backoff accumulates");
        let again = faulty(&m, &p, &model, 64, 3, &plan, &policy);
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
        let rec = RecordingTracer::new();
        let mut prepared = prepare(&m, &p, &model, 64);
        prepared.deployment.tracer = Some(rec.handle());
        let r = prepared.faulty(3, &plan, &ResiliencePolicy::default());
        let trace = rec.take();
        assert_eq!(r.failovers, 1);
        let faults: Vec<_> = trace.events_in(category::FAULT).collect();
        assert!(
            faults.len() >= 2,
            "expected the injected-fault instant plus a failover instant, got {}",
            faults.len()
        );
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
        let baseline = recovering(&m, &p, &model, 2, 5, &FaultPlan::empty(), &free);
        let ckpt = recovering(&m, &p, &model, 2, 5, &FaultPlan::empty(), &every2);
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
        let a = recovering(&m, &p, &model, 2, 3, &plan, &policy);
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
        let b = recovering(&m, &p, &model, 2, 3, &plan, &policy);
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
        let lossy = recovering(&m, &p, &model, 2, 3, &plan, &none);
        assert_eq!(lossy.restores, 1);
        assert!(
            lossy.lost_iterations >= 1,
            "work past the last checkpoint is lost: {lossy:?}"
        );
        let protected = recovering(&m, &p, &model, 2, 3, &plan, &every);
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
        let bare = recovering(&m, &p, &model, 2, 3, &plan, &policy);
        let hub = OracleHub::with_builtins(SimDuration::from_secs(60));
        hub.register(Box::new(MembershipMonotonicity::new()));
        let observed = prepare(&m, &p, &model, 2).observed(&hub, Sabotage::None, None, |p| {
            p.recovering(3, &plan, &policy)
        });
        assert_eq!(bare, observed, "observation must not perturb the run");
        assert!(hub.violations().is_empty(), "{:?}", hub.violations());
    }

    /// A toy loop whose first iteration leaves a link busy past its
    /// boundary, which lengthens every later iteration: a certificate that
    /// trusted iteration 0 would report its shorter length as the period.
    #[test]
    fn steady_state_waits_for_the_carried_backlog_to_repeat() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let (src, dst) = (p.workers[0], p.mem_devices[0]);
        let size = ByteSize::mib(64);
        let send = |engine: &mut TransferEngine, at: SimTime| {
            engine
                .transfer_masked(src, dst, size, at, PCIE_ONLY)
                .unwrap()
                .end
        };
        let mut probe = TransferEngine::new(m.topology().clone());
        let end = send(&mut probe, SimTime::ZERO);
        let occupancy = probe.link_backlogs(SimTime::ZERO).max().unwrap();
        let latency = end - (SimTime::ZERO + occupancy);
        // Each iteration computes for `occupancy / 2` and waits for its
        // transfer's delivery less `latency + occupancy / 4`. Iteration 0
        // ends at 3/4 of the occupancy with a quarter of it still queued;
        // from then on each iteration queues behind the last one's transfer.
        let loop_period = |iterations: u32, certify: bool| {
            let mut engine = TransferEngine::new(m.topology().clone());
            let mut steady = certify.then(SteadyState::new);
            let (mut start, mut first_end) = (SimTime::ZERO, SimTime::ZERO);
            let mut lengths = Vec::new();
            for k in 0..iterations {
                let delivered = send(&mut engine, start);
                let next = (start + occupancy / 2).max(delivered - (latency + occupancy / 4));
                lengths.push(next - start);
                if k == 0 {
                    first_end = next;
                }
                start = next;
                let remaining = iterations - k - 1;
                if let Some(end) = steady
                    .as_mut()
                    .and_then(|s| s.certified_end(&engine, start, remaining))
                {
                    start = end;
                    break;
                }
            }
            ((start - first_end) / u64::from(iterations - 1), lengths)
        };
        let (full, lengths) = loop_period(7, false);
        assert!(lengths[0] < full, "iteration 0 is shorter: {lengths:?}");
        assert!(lengths[1..].iter().all(|&l| l == full), "{lengths:?}");
        for iterations in [2, 3, 7, 61] {
            let (certified, simulated) = loop_period(iterations, true);
            assert_eq!(certified, loop_period(iterations, false).0);
            assert!(simulated.len() <= 2, "certified by B_2: {simulated:?}");
        }
    }

    /// The certified clean loop equals the full loop bit for bit, over the
    /// five presets plus the 2-node V100 cluster × default and half batch ×
    /// a ±10% uplink jitter × 2–120 iterations, with and without the input
    /// pipeline, at the chosen split and at a pilot-grid split. Release
    /// builds walk the whole grid; debug builds re-run the full loop behind
    /// every certified shortcut anyway, so they draw a seeded sample of it.
    #[test]
    fn certified_steady_state_matches_the_full_loop() {
        use coarse_fabric::machines::MachineBuilder;
        use coarse_models::dataset::Dataset;
        use coarse_models::zoo::bert_base;
        use coarse_simcore::check::run_cases;
        use PartitionScheme::{OneToOne, TwoToOne};

        type Model = (fn() -> ModelProfile, fn() -> Dataset);
        // (machine preset, its uplink GiB/s, nodes, model, partition, batch)
        type Shape = (&'static str, f64, u32, Model, PartitionScheme, u32);
        let resnet: Model = (resnet50, Dataset::imagenet);
        let base: Model = (bert_base, Dataset::squad11);
        let large: Model = (bert_large, Dataset::squad11);
        let shapes: [Shape; 6] = [
            ("aws_t4", 12.0, 1, resnet, OneToOne, 64),
            ("aws_t4", 12.0, 1, base, OneToOne, 2),
            ("sdsc_p100", 10.0, 1, large, OneToOne, 2),
            ("aws_v100", 9.0, 1, large, OneToOne, 2),
            ("aws_v100", 9.0, 1, large, TwoToOne, 2),
            ("aws_v100", 9.0, 2, large, OneToOne, 2),
        ];
        let iteration_counts = [2, 3, 7, 61, 120];
        let grid = shapes.len() * 2 * iteration_counts.len() * 2;
        let cases = if cfg!(debug_assertions) { 12 } else { grid };
        let mut case = 0;
        run_cases(
            "certified_steady_state_matches_the_full_loop",
            cases as u64,
            |g| {
                let point = if cases == grid {
                    case
                } else {
                    g.usize_in(0..grid)
                };
                case += 1;
                let (preset, uplink, nodes, (model, dataset), scheme, batch) =
                    shapes[point % shapes.len()];
                let rest = point / shapes.len();
                let half = rest % 2 == 1;
                let iterations = iteration_counts[(rest / 2) % iteration_counts.len()];
                let input = rest / 2 / iteration_counts.len() == 1;

                let builder =
                    MachineBuilder::preset(preset).uplink_gib(uplink * g.f64_in(0.9, 1.1));
                let machine = if nodes > 1 {
                    builder.cluster(nodes).build()
                } else {
                    builder.build()
                };
                let model = model();
                let batch = if half { batch / 2 } else { batch };
                let partition = machine.partition(scheme);
                let mut prepared = prepare(&machine, &partition, &model, batch);
                if input {
                    prepared.deployment.input_bytes =
                        ByteSize::bytes(dataset().sample_bytes().as_u64() * u64::from(batch));
                }
                let pilot = ByteSize::bytes(model.total_bytes().as_u64() * g.u64_in(0..9) / 8);
                for m in [prepared.best_m, pilot] {
                    let d = &prepared.deployment;
                    let certified = d.period(&mut d.engine(), m, iterations, None, false);
                    let full = d.period(&mut d.engine(), m, iterations, None, true);
                    assert_eq!(
                        certified, full,
                        "{preset} ×{nodes} batch {batch} m={m} {iterations} iterations input={input}"
                    );
                }
            },
        );
    }

    /// The clean run is the loop with an empty plan and no checkpoints,
    /// whichever entry point asks for it: `clean`, `faulty` under an empty
    /// or an inert plan (one whose window closes before any transfer
    /// starts), and `recovering` under either at checkpoint interval 0 give
    /// bit-identical results, and the zero-interval wall is the full loop's
    /// end. The grid is the five presets plus the 2-node V100 cluster × the
    /// uplink at ×{0.9, 1.0, 1.1} × default and half batch × {2, 3, 7}
    /// iterations. Release builds walk the whole grid; debug builds draw a
    /// seeded sample of it.
    #[test]
    fn clean_faulty_and_recovering_runs_agree_without_faults() {
        use coarse_fabric::machines::MachineBuilder;
        use coarse_models::zoo::bert_base;
        use coarse_simcore::check::run_cases;
        use PartitionScheme::{OneToOne, TwoToOne};

        // (machine preset, its uplink GiB/s, nodes, model, partition, batch)
        type Shape = (
            &'static str,
            f64,
            u32,
            fn() -> ModelProfile,
            PartitionScheme,
            u32,
        );
        let shapes: [Shape; 6] = [
            ("aws_t4", 12.0, 1, resnet50, OneToOne, 64),
            ("aws_t4", 12.0, 1, bert_base, OneToOne, 2),
            ("sdsc_p100", 10.0, 1, bert_large, OneToOne, 2),
            ("aws_v100", 9.0, 1, bert_large, OneToOne, 2),
            ("aws_v100", 9.0, 1, bert_large, TwoToOne, 2),
            ("aws_v100", 9.0, 2, bert_large, OneToOne, 2),
        ];
        let uplink_scales = [0.9, 1.0, 1.1];
        let iteration_counts = [2, 3, 7];
        let grid = shapes.len() * uplink_scales.len() * 2 * iteration_counts.len();
        let cases = if cfg!(debug_assertions) { 8 } else { grid };
        let mut case = 0;
        run_cases(
            "clean_faulty_and_recovering_runs_agree_without_faults",
            cases as u64,
            |g| {
                let point = if cases == grid {
                    case
                } else {
                    g.usize_in(0..grid)
                };
                case += 1;
                let (preset, uplink, nodes, model, scheme, batch) = shapes[point % shapes.len()];
                let rest = point / shapes.len();
                let scale = uplink_scales[rest % uplink_scales.len()];
                let rest = rest / uplink_scales.len();
                let batch = if rest % 2 == 1 { batch / 2 } else { batch };
                let iterations = iteration_counts[rest / 2];
                let what =
                    format!("{preset} ×{nodes} uplink ×{scale} batch {batch} {iterations} it");

                let builder = MachineBuilder::preset(preset).uplink_gib(uplink * scale);
                let machine = if nodes > 1 {
                    builder.cluster(nodes).build()
                } else {
                    builder.build()
                };
                let model = model();
                let partition = machine.partition(scheme);
                let prepared = prepare(&machine, &partition, &model, batch);
                let clean = prepared.clean(iterations);
                let d = &prepared.deployment;
                let none = FaultPlan::empty();
                let policy = ResiliencePolicy::default();
                let faults = Faults {
                    plan: &none,
                    response: Response::Failover(&policy),
                };
                let end = d
                    .train(
                        &mut d.engine(),
                        prepared.best_m,
                        iterations,
                        faults,
                        None,
                        true,
                    )
                    .1
                    .wall;
                let inert = FaultPlan::new(11).corrupt_transfers(
                    partition.mem_devices[0].index() as u32,
                    SimTime::ZERO,
                    SimTime::from_nanos(1),
                    1_000_000,
                );
                let free = RecoveryPolicy {
                    checkpoint_interval: 0,
                    ..RecoveryPolicy::default()
                };
                for plan in [&none, &inert] {
                    let faulty = prepared.faulty(iterations, plan, &policy);
                    assert!(faulty.is_clean(), "{what}: {faulty:?}");
                    assert_eq!(faulty.retries, 0, "{what}: the window never meets traffic");
                    assert_eq!(
                        faulty.result,
                        clean,
                        "{what}: faulty, {} faults",
                        plan.len()
                    );
                    let recovering = prepared.recovering(iterations, plan, &free);
                    assert!(recovering.is_clean(), "{what}: {recovering:?}");
                    assert_eq!(
                        recovering.result,
                        clean,
                        "{what}: recovering, {} faults",
                        plan.len()
                    );
                    assert!(recovering.wall > SimDuration::ZERO, "{what}");
                    assert_eq!(recovering.wall, end, "{what}: {} faults", plan.len());
                }
            },
        );
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

    /// The oracle event streams of the first chaos-soak cases and of every
    /// preset's recovery report, pinned by digest: a change to the training
    /// loop must reproduce every transfer, shard attempt, stream reset,
    /// membership epoch and iteration boundary in the same order. To
    /// regenerate after an *intentional* semantic change, run this test
    /// with `UPDATE_GOLDENS=1`.
    #[test]
    fn oracle_streams_match_golden() {
        use crate::chaos::{soak, SoakConfig};
        use crate::recovery::recovery_report;
        use crate::scenario::Scenario;

        const CHAOS_CASES: u32 = 20;
        /// Iterations per recovery report, as `figures -- recover` runs them.
        const RECOVER_ITERATIONS: u32 = 6;

        let mut lines = Vec::new();
        let cfg = SoakConfig {
            cases: CHAOS_CASES,
            ..SoakConfig::default()
        };
        let chaos = stream_digest::record(|| {
            let outcome = soak(&cfg).expect("soak runs");
            assert!(outcome.failures.is_empty(), "{}", outcome.render_summary());
        });
        assert_eq!(
            chaos.len(),
            CHAOS_CASES as usize,
            "one observed run per case"
        );
        for (case, digest) in chaos.iter().enumerate() {
            let preset = &cfg.presets[case % cfg.presets.len()];
            lines.push(format!("chaos case {case} {preset}: {digest:#018x}"));
        }
        for preset in Scenario::presets() {
            let digests = stream_digest::record(|| {
                recovery_report(preset, RECOVER_ITERATIONS, &RecoveryPolicy::default())
                    .expect("preset recovers");
            });
            assert_eq!(digests.len(), 1, "one observed run per report");
            lines.push(format!("recovery {preset}: {:#018x}", digests[0]));
        }
        let got = lines.join("\n") + "\n";

        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/goldens/oracle-streams.txt"
        );
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::write(path, &got).expect("write golden");
            return;
        }
        let want = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run UPDATE_GOLDENS=1"));
        assert_eq!(got, want, "oracle event streams drifted from their golden");
    }
}
