//! The transfer engine: resolves transfers to routes, arbitrates link
//! occupancy, and returns exact start/finish times.
//!
//! Each directed link owns a FIFO [`ResourceTimeline`]; a transfer occupies
//! every hop of its route for the bottleneck serialization window (a
//! cut-through approximation), and delivery completes after the route's
//! total latency on top of serialization. When the topology has peer-to-peer
//! disabled, endpoint-to-endpoint transfers are staged through the host CPU
//! as two back-to-back transfers (the paper's "GPU Indirect" path).
//!
//! An attached [`FaultPlan`] injects fabric faults at simulated time:
//! degraded links stretch their serialization window, flapped links are
//! routed around (or surface [`TransferError::NoRoute`] when no detour
//! exists), and transfers touching a dropped device fail with
//! [`TransferError::DeviceDown`]. With no plan attached — or an empty one —
//! every code path is byte-identical to the fault-free engine.

use coarse_simcore::critpath::{class as crit_class, CritPath, NodeId};
use coarse_simcore::faults::FaultPlan;
use coarse_simcore::metrics::{metered, name as metric, MetricRegistry};
use coarse_simcore::oracle::{BiteKind, OracleEvent, OracleHub};
use coarse_simcore::prof::{region as prof_region, Profiler};
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::timeline::ResourceTimeline;
use coarse_simcore::trace::{active, category, SharedTracer};
use coarse_simcore::units::ByteSize;

// simlint: allow(parallel-ready, reason = "RefCell backs the route memo cache below; !Sync, so the compiler already forbids cross-thread sharing")
use std::cell::RefCell;
use std::rc::Rc;

use crate::device::{DeviceId, DeviceKind};
use crate::topology::{LinkClass, LinkId, LinkMask, Route, Topology};

/// The outcome of one transfer: when it started service and when the last
/// byte arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// When the first hop began serializing.
    pub start: SimTime,
    /// When delivery completed at the destination.
    pub end: SimTime,
    /// Bytes moved.
    pub size: ByteSize,
}

impl TransferRecord {
    /// Total elapsed time from service start to delivery.
    pub fn elapsed(&self) -> SimDuration {
        self.end - self.start
    }

    /// Achieved rate over the whole transfer, in bytes/sec.
    ///
    /// # Panics
    ///
    /// Panics if the transfer took zero time.
    pub fn achieved_bytes_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        assert!(secs > 0.0, "zero-duration transfer has no rate");
        self.size.as_f64() / secs
    }
}

/// Errors from [`TransferEngine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// No route exists between the endpoints under the active filter.
    NoRoute {
        /// Transfer source.
        src: DeviceId,
        /// Transfer destination.
        dst: DeviceId,
    },
    /// A transfer endpoint has dropped out of the fabric (injected by the
    /// attached [`FaultPlan`]).
    DeviceDown {
        /// The dropped endpoint.
        device: DeviceId,
    },
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::NoRoute { src, dst } => {
                write!(f, "no route from {src} to {dst}")
            }
            TransferError::DeviceDown { device } => {
                write!(f, "device {device} has dropped out of the fabric")
            }
        }
    }
}

impl std::error::Error for TransferError {}

/// Resolves and schedules transfers over a [`Topology`].
#[derive(Debug)]
pub struct TransferEngine {
    topo: Topology,
    /// One FIFO timeline per directed link.
    schedules: Vec<ResourceTimeline>,
    /// Optional trace sink; `None` means tracing is off (the default).
    tracer: Option<SharedTracer>,
    /// Optional metric sink; `None` means metrics are off (the default).
    metrics: Option<MetricRegistry>,
    /// Optional self-profiler; `None` means profiling is off (the default).
    profiler: Option<Profiler>,
    /// Optional fault schedule; `None` means the fabric is healthy.
    faults: Option<FaultPlan>,
    /// Optional oracle battery; `None` means no invariant checking.
    oracles: Option<OracleHub>,
    /// Optional critical-path recorder; `None` means recording is off.
    critpath: Option<CritPath>,
    /// The pacing node of the most recent recorded transfer, for callers to
    /// chain program-order edges onto.
    last_crit: Option<NodeId>,
    /// The node at which the most recent recorded transfer *departed* — the
    /// first staging leg's pacing node when the transfer staged through the
    /// host CPU, otherwise the same node as `last_crit`.
    last_crit_entry: Option<NodeId>,
    /// Dependency nodes staged by the caller for the next collective to
    /// adopt (e.g. "this allreduce waits on those push arrivals").
    staged_crit_deps: Vec<NodeId>,
    /// Interned trace track per directed link (lazily populated).
    link_tracks: Vec<Option<coarse_simcore::trace::TrackId>>,
    /// Memoized routes, keyed by `(src, dst, mask)` — a dense
    /// `device² × 16` table (the topology is immutable once wrapped, and a
    /// [`LinkMask`] has 16 possible values). The outer `Option` is
    /// "not yet computed"; the inner one caches *unroutability* too. Routes
    /// are shared as `Rc`, so the steady-state transfer path never runs
    /// Dijkstra nor clones a hop list. Bypassed only while a flap of the
    /// attached fault plan is active: outside flap windows no link is down,
    /// so the fault-filtered route is the masked route cached here.
    // simlint: allow(parallel-ready, reason = "memoizes pure Dijkstra results; worst case under races is recomputing an identical route")
    route_cache: RefCell<Vec<Option<Option<Rc<Route>>>>>,
}

impl TransferEngine {
    /// Wraps a topology with idle link schedules.
    pub fn new(topo: Topology) -> Self {
        let schedules = (0..topo.link_count())
            .map(|_| ResourceTimeline::new())
            .collect();
        let link_tracks = vec![None; topo.link_count()];
        // simlint: allow(parallel-ready, reason = "constructor of the waived memo cache; same single-owner discipline")
        let route_cache = RefCell::new(vec![None; topo.device_count().pow(2) * 16]);
        TransferEngine {
            topo,
            schedules,
            tracer: None,
            metrics: None,
            profiler: None,
            faults: None,
            oracles: None,
            critpath: None,
            last_crit: None,
            last_crit_entry: None,
            staged_crit_deps: Vec::new(),
            link_tracks,
            route_cache,
        }
    }

    /// The memoized route from `src` to `dst` over `mask`, computing and
    /// caching it on first use. `None` is cached too: unroutable pairs are
    /// as cheap to re-ask as routable ones.
    fn cached_route(&self, src: DeviceId, dst: DeviceId, mask: LinkMask) -> Option<Rc<Route>> {
        let n = self.topo.device_count();
        let slot = (src.index() * n + dst.index()) * 16 + mask.bits() as usize;
        let mut cache = self.route_cache.borrow_mut();
        if let Some(entry) = &cache[slot] {
            return entry.clone();
        }
        let computed = self.topo.route_masked(src, dst, mask).map(Rc::new);
        cache[slot] = Some(computed.clone());
        computed
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Attaches a tracer: subsequent transfers emit one occupancy span per
    /// route link plus a delivery instant on the destination device's track.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any. Layers built on the engine (timed
    /// collectives, the training simulator) emit into the same sink.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        active(&self.tracer)
    }

    /// Attaches a metric registry: subsequent transfers publish
    /// `fabric.transfers`, `fabric.bytes`, `fabric.link_busy_ns`, and
    /// `fabric.staged_transfers` counters.
    pub fn set_metrics(&mut self, metrics: MetricRegistry) {
        self.metrics = Some(metrics);
    }

    /// The attached metric registry, if any. Layers built on the engine
    /// publish into the same registry.
    pub fn metrics(&self) -> Option<&MetricRegistry> {
        metered(&self.metrics)
    }

    /// Attaches a self-profiler: subsequent transfers attribute host time
    /// and per-leg work counts to the `fabric.link` region. Observation-only
    /// — simulated timings never change.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// The attached self-profiler, if any. Layers built on the engine
    /// (timed collectives, the training simulator) attribute into the same
    /// session.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Attaches a fault schedule: subsequent transfers consult it at their
    /// arrival instant. Attaching an empty plan is equivalent to attaching
    /// none — timings stay byte-identical to the healthy fabric.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The attached fault schedule, if one is active (non-empty).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| !p.is_empty())
    }

    /// Attaches an oracle battery: subsequent transfers emit
    /// request/delivery/failure ledger events plus fault-bite markers.
    /// Observation-only, exactly like tracing — timings never change.
    pub fn set_oracles(&mut self, oracles: OracleHub) {
        self.oracles = Some(oracles);
    }

    /// The attached oracle battery, if any. Layers built on the engine
    /// (timed collectives, the training simulator) emit into the same hub.
    pub fn oracles(&self) -> Option<&OracleHub> {
        self.oracles.as_ref()
    }

    /// Attaches a critical-path recorder: every subsequent transfer records
    /// a fabric-queueing node (when it waited for a busy link) plus one
    /// fabric-busy node per route link, chained FIFO per link. Observation-
    /// only, exactly like tracing — timings never change.
    pub fn set_critpath(&mut self, critpath: CritPath) {
        self.critpath = Some(critpath);
    }

    /// The attached critical-path recorder, if any. Layers built on the
    /// engine record into the same graph.
    pub fn critpath(&self) -> Option<&CritPath> {
        self.critpath.as_ref()
    }

    /// The pacing node of the most recent recorded transfer — the busy node
    /// on the link that actually set the transfer's start time. Callers use
    /// it to chain program-order edges (e.g. "this ring step waited on that
    /// transfer").
    pub fn last_crit_node(&self) -> Option<NodeId> {
        self.last_crit
    }

    /// The node at which the most recent recorded transfer *departed*. For a
    /// transfer staged through the host CPU this is the first leg's pacing
    /// node; otherwise it equals [`last_crit_node`](Self::last_crit_node).
    ///
    /// Cause edges — "this transfer left because X completed" — belong here,
    /// so the backward walk can leave a link's FIFO chain at the transfer's
    /// true enabling event even when the chain consists of staging legs.
    /// Consumers waiting on *delivery* keep chaining off
    /// [`last_crit_node`](Self::last_crit_node), which ends at the final
    /// leg's completion.
    pub fn last_crit_entry_node(&self) -> Option<NodeId> {
        self.last_crit_entry
    }

    /// Overrides the "most recent node" handle, letting layers that record
    /// their own nodes (collectives) publish a join point for callers
    /// further up.
    pub fn note_crit_node(&mut self, node: NodeId) {
        self.last_crit = Some(node);
        self.last_crit_entry = Some(node);
    }

    /// Stages dependency nodes for the next collective built on this engine
    /// to adopt as predecessors of its barrier/first step — the caller's way
    /// of saying "this collective waits on those arrivals". Replaces any
    /// previously staged set. No-op when no recorder is attached.
    pub fn stage_crit_deps(&mut self, deps: &[NodeId]) {
        if self.critpath.is_some() {
            self.staged_crit_deps = deps.to_vec();
        }
    }

    /// Takes (and clears) the staged dependency set.
    pub fn take_crit_deps(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.staged_crit_deps)
    }

    /// The critical-path resource name of a directed link; matches the
    /// trace track naming so overlays line up.
    fn link_resource_name(&self, l: LinkId) -> String {
        let link = self.topo.link(l);
        format!(
            "link {} -> {} ({:?})",
            self.topo.device(link.src()).name(),
            self.topo.device(link.dst()).name(),
            link.class()
        )
    }

    /// The trace track for a directed link, named
    /// `"link <src> -> <dst> (<class>)"`. Interned once per link.
    fn link_track(&mut self, tracer: &SharedTracer, l: LinkId) -> coarse_simcore::trace::TrackId {
        if let Some(id) = self.link_tracks[l.index()] {
            return id;
        }
        let link = self.topo.link(l);
        let name = format!(
            "link {} -> {} ({:?})",
            self.topo.device(link.src()).name(),
            self.topo.device(link.dst()).name(),
            link.class()
        );
        let id = tracer.track(&name);
        self.link_tracks[l.index()] = Some(id);
        id
    }

    /// Returns the engine to a fresh engine's idle state on the same
    /// fabric: every link timeline and the critical-path scratch state
    /// restart, while the route memo, a pure function of the immutable
    /// topology, stays warm. Every later transfer then times exactly as it
    /// would on `TransferEngine::new(topology.clone())`, so one engine can
    /// serve a sequence of independent measurements.
    ///
    /// Only a bare engine resets: observers and fault plans cannot be
    /// detached, and what they recorded would outlive the reset.
    pub fn reset_idle(&mut self) {
        // Destructured so that a new field fails to compile here until its
        // reset is decided.
        let TransferEngine {
            topo: _,
            schedules,
            tracer,
            metrics,
            profiler,
            faults,
            oracles,
            critpath,
            last_crit,
            last_crit_entry,
            staged_crit_deps,
            // Interned only under a tracer, so still all `None` here.
            link_tracks: _,
            route_cache: _,
        } = self;
        debug_assert!(
            tracer.is_none()
                && metrics.is_none()
                && profiler.is_none()
                && faults.is_none()
                && oracles.is_none()
                && critpath.is_none(),
            "only an unobserved, fault-free engine resets to idle"
        );
        schedules.fill(ResourceTimeline::new());
        *last_crit = None;
        *last_crit_entry = None;
        staged_crit_deps.clear();
    }

    /// Schedules a transfer of `size` bytes from `src` to `dst`, arriving at
    /// the engine at `arrival`. Honors the topology's peer-to-peer setting.
    ///
    /// # Errors
    ///
    /// Returns [`TransferError::NoRoute`] if the endpoints are not connected.
    pub fn transfer(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        size: ByteSize,
        arrival: SimTime,
    ) -> Result<TransferRecord, TransferError> {
        self.transfer_masked(src, dst, size, arrival, LinkMask::ALL)
    }

    /// Like [`transfer`](Self::transfer) but restricted to link classes in
    /// `mask` (e.g. excluding NVLink to probe the PCIe path). The interned
    /// mask keys the engine's route cache, so repeated transfers between the
    /// same endpoints skip routing entirely.
    ///
    /// # Errors
    ///
    /// Returns [`TransferError::NoRoute`] if no allowed route exists.
    pub fn transfer_masked(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        size: ByteSize,
        arrival: SimTime,
        mask: LinkMask,
    ) -> Result<TransferRecord, TransferError> {
        if let Some(hub) = self.oracles.clone() {
            hub.emit(OracleEvent::TransferRequested {
                src: src.index() as u32,
                dst: dst.index() as u32,
                bytes: size.as_u64(),
                at: arrival,
            });
        }
        let result = self.transfer_masked_inner(src, dst, size, arrival, mask);
        if let Some(hub) = self.oracles.clone() {
            match &result {
                Ok(rec) => hub.emit(OracleEvent::TransferDelivered {
                    src: src.index() as u32,
                    dst: dst.index() as u32,
                    bytes: size.as_u64(),
                    start: rec.start,
                    end: rec.end,
                }),
                Err(err) => {
                    if matches!(err, TransferError::DeviceDown { .. }) {
                        hub.emit(OracleEvent::FaultBite {
                            kind: BiteKind::Dropout,
                            at: arrival,
                        });
                    }
                    hub.emit(OracleEvent::TransferFailed {
                        src: src.index() as u32,
                        dst: dst.index() as u32,
                        bytes: size.as_u64(),
                        at: arrival,
                    });
                }
            }
        }
        result
    }

    /// Sends `size` bytes from `src` to `dst` as back-to-back wire shards of
    /// `shard` bytes (split by [`Shards`]): each shard departs when the
    /// previous one is delivered, the first at `arrival`. The record spans
    /// the first shard's start to the last shard's delivery. With a
    /// critical-path recorder attached, [`last_crit_entry_node`] is the first
    /// shard's entry and [`last_crit_node`] the last shard's pacing node.
    ///
    /// Equivalent to chaining [`transfer_masked`](Self::transfer_masked)
    /// over the shards. When nothing needs per-shard observation (no tracer,
    /// profiler, critical-path recorder, oracle battery or active fault
    /// plan), the full shards after the first are scheduled as one closed-form
    /// train; see [`ResourceTimeline::reserve_train`].
    ///
    /// [`last_crit_entry_node`]: Self::last_crit_entry_node
    /// [`last_crit_node`]: Self::last_crit_node
    ///
    /// # Errors
    ///
    /// Returns the first shard's error, as [`transfer_masked`](Self::transfer_masked).
    pub fn transfer_sharded(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        size: ByteSize,
        shard: ByteSize,
        arrival: SimTime,
        mask: LinkMask,
    ) -> Result<TransferRecord, TransferError> {
        let Shards { full, tail, .. } = Shards::new(size, shard);
        if full == 0 {
            return self.transfer_masked(src, dst, size, arrival, mask);
        }
        let first = self.transfer_masked(src, dst, shard, arrival, mask)?;
        let entry = self.last_crit_entry;
        let mut end = first.end;
        let mut rest = full - 1;
        if rest > 0 && src != dst && self.trains_allowed() {
            if let Some(train_end) = self.shard_train(src, dst, shard, rest, end, mask)? {
                end = train_end;
                rest = 0;
            }
        }
        for s in std::iter::repeat_n(shard, rest as usize).chain(tail) {
            end = self.transfer_masked(src, dst, s, end, mask)?.end;
        }
        if self.critpath.is_some() {
            self.last_crit_entry = entry;
        }
        Ok(TransferRecord {
            start: first.start,
            end,
            size,
        })
    }

    /// Whether nothing attached to the engine observes individual shards:
    /// tracing, profiling and critical-path recording need per-shard spans,
    /// region enters and nodes, the oracles per-shard ledger events, and a
    /// fault plan a check at each shard's arrival. Metrics are batched.
    fn trains_allowed(&self) -> bool {
        active(&self.tracer).is_none()
            && self.profiler.is_none()
            && self.critpath.is_none()
            && self.oracles.is_none()
            && self.fault_plan().is_none()
    }

    /// Schedules `count` full shards of `shard` bytes, the first arriving at
    /// `arrival`, in closed form; returns the last delivery, or `None` when
    /// the routes do not allow the closed form (staging legs sharing a link).
    ///
    /// Exact because every link is a FIFO and the caller has just delivered
    /// an identical shard over the same routes: that shard left each link
    /// by `arrival`, so no shard of the train queues. Shard `j` enters leg
    /// `i` at `arrival + j·stride + Σ_{k<i}(occ_k + lat_k)`, where
    /// `stride = Σ_k (occ_k + lat_k)`.
    fn shard_train(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        shard: ByteSize,
        count: u64,
        arrival: SimTime,
        mask: LinkMask,
    ) -> Result<Option<SimTime>, TransferError> {
        let staged = self.needs_staging(src, dst);
        let route = |from: DeviceId, to: DeviceId| {
            self.cached_route(from, to, mask)
                .ok_or(TransferError::NoRoute { src: from, dst: to })
        };
        let legs: [Option<Rc<Route>>; 2] = if staged {
            let cpu = self.topo.host_cpu(self.topo.device(src).node());
            [Some(route(src, cpu)?), Some(route(cpu, dst)?)]
        } else {
            [Some(route(src, dst)?), None]
        };
        if let [Some(a), Some(b)] = &legs {
            if a.links().iter().any(|l| b.links().contains(l)) {
                return Ok(None);
            }
        }
        let mut occ = [SimDuration::ZERO; 2];
        let mut stride = SimDuration::ZERO;
        for (i, leg) in legs.iter().enumerate() {
            let Some(leg) = leg else { continue };
            occ[i] = leg
                .links()
                .iter()
                .map(|&l| self.topo.link(l).model().serialization_time(shard))
                .max()
                .unwrap_or(SimDuration::ZERO);
            stride += occ[i] + leg.total_latency();
        }
        let mut enter = arrival;
        for (i, leg) in legs.iter().enumerate() {
            let Some(leg) = leg else { continue };
            for &l in leg.links() {
                self.schedules[l.index()].reserve_train(enter, occ[i], stride, count);
            }
            enter += occ[i] + leg.total_latency();
            if let Some(m) = metered(&self.metrics) {
                m.inc(metric::FABRIC_TRANSFERS, count);
                m.inc(metric::FABRIC_BYTES, shard.as_u64() * count);
                m.inc(
                    metric::FABRIC_LINK_BUSY_NS,
                    occ[i].as_nanos() * leg.links().len() as u64 * count,
                );
            }
        }
        if staged {
            if let Some(m) = metered(&self.metrics) {
                m.inc(metric::FABRIC_STAGED, count);
            }
        }
        Ok(Some(arrival + stride * count))
    }

    fn transfer_masked_inner(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        size: ByteSize,
        arrival: SimTime,
        mask: LinkMask,
    ) -> Result<TransferRecord, TransferError> {
        if let Some(plan) = self.fault_plan() {
            for device in [src, dst] {
                if plan.device_down(device.index() as u32, arrival) {
                    return Err(TransferError::DeviceDown { device });
                }
            }
        }
        if src == dst {
            // An instant transfer leaves no node; clear the chain handles so
            // callers don't dep on an unrelated earlier transfer.
            self.last_crit = None;
            self.last_crit_entry = None;
            return Ok(TransferRecord {
                start: arrival,
                end: arrival,
                size,
            });
        }
        if self.needs_staging(src, dst) {
            if let Some(m) = metered(&self.metrics) {
                m.inc(metric::FABRIC_STAGED, 1);
            }
            let cpu = self.topo.host_cpu(self.topo.device(src).node());
            let first = self.transfer_direct(src, cpu, size, arrival, mask)?;
            let leg1 = self.last_crit;
            let leg1_entry = self.last_crit_entry;
            let second = self.transfer_direct(cpu, dst, size, first.end, mask)?;
            // Program-order edge between the staging legs: the second leg
            // only departed because the first delivered to the host. The
            // whole transfer *departs* at the first leg, so that is where
            // callers' cause edges must land — otherwise the first leg's
            // FIFO chain dead-ends mid-iteration with no way back to the
            // transfer's true enabling event.
            if let (Some(cp), Some(a), Some(b)) = (&self.critpath, leg1, self.last_crit) {
                if a != b {
                    cp.add_dep(b, a);
                }
            }
            if leg1_entry.is_some() {
                self.last_crit_entry = leg1_entry;
            }
            return Ok(TransferRecord {
                start: first.start,
                end: second.end,
                size,
            });
        }
        self.transfer_direct(src, dst, size, arrival, mask)
    }

    /// Whether a `src`→`dst` transfer must be staged through the host CPU.
    /// Peers joined by a dedicated CCI path never stage: CCI provides
    /// hardware peer-to-peer regardless of the PCIe tree's p2p support.
    pub fn needs_staging(&self, src: DeviceId, dst: DeviceId) -> bool {
        if self.topo.p2p_enabled() {
            return false;
        }
        let src_kind = self.topo.device(src).kind();
        let dst_kind = self.topo.device(dst).kind();
        // CPU-terminated transfers never need staging; only peer transfers
        // between non-CPU endpoints do.
        if src_kind == DeviceKind::Cpu || dst_kind == DeviceKind::Cpu {
            return false;
        }
        self.cached_route(src, dst, LinkMask::only(LinkClass::Cci))
            .is_none()
    }

    fn transfer_direct(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        size: ByteSize,
        arrival: SimTime,
        mask: LinkMask,
    ) -> Result<TransferRecord, TransferError> {
        // Flapped links are excluded from routing, so the engine re-routes
        // around an outage when a detour exists and reports `NoRoute` when
        // the endpoints are genuinely cut off. Outside flap windows no link
        // is down, so the filter reduces to the mask and the cached route is
        // exact; only transfers arriving during a flap route uncached.
        let flapping = self.fault_plan().filter(|p| p.any_flap_active(arrival));
        let route = match flapping {
            Some(plan) => {
                // Conservative flap bite: any active flap anywhere may have
                // shifted this route, so the run no longer counts as clean.
                // Over-reporting is sound (it only widens the set of runs
                // the clean-run-equivalence oracle skips).
                if let Some(hub) = &self.oracles {
                    hub.emit(OracleEvent::FaultBite {
                        kind: BiteKind::Flap,
                        at: arrival,
                    });
                }
                self.topo
                    .route_filtered(src, dst, |l| {
                        mask.allows(l.class())
                            && !plan.link_down(
                                l.src().index() as u32,
                                l.dst().index() as u32,
                                arrival,
                            )
                    })
                    .map(Rc::new)
            }
            None => self.cached_route(src, dst, mask),
        }
        .ok_or(TransferError::NoRoute { src, dst })?;
        Ok(self.transfer_on_route(&route, size, arrival))
    }

    /// Schedules a transfer along an explicit route.
    ///
    /// # Panics
    ///
    /// Panics if the route is empty and `size` is non-zero... an empty route
    /// means src == dst and completes instantly.
    pub fn transfer_on_route(
        &mut self,
        route: &Route,
        size: ByteSize,
        arrival: SimTime,
    ) -> TransferRecord {
        if route.links().is_empty() {
            return TransferRecord {
                start: arrival,
                end: arrival,
                size,
            };
        }
        let _prof = self.profiler.as_ref().map(|p| {
            p.count(prof_region::FABRIC_LINK, route.links().len() as u64);
            p.enter(prof_region::FABRIC_LINK)
        });
        // Bottleneck serialization: the slowest hop paces the cut-through
        // pipeline; every hop is occupied for that window. A degraded link
        // stretches its serialization time by the plan's factor.
        let plan = self.faults.as_ref().filter(|p| !p.is_empty());
        let mut degraded = false;
        let occupancy = route
            .links()
            .iter()
            .map(|&l| {
                let link = self.topo.link(l);
                let base = link.model().serialization_time(size);
                match plan {
                    Some(p) => {
                        let factor = p.degradation(
                            link.src().index() as u32,
                            link.dst().index() as u32,
                            arrival,
                        );
                        if factor != 1.0 {
                            degraded = true;
                            base.mul_f64(factor)
                        } else {
                            base
                        }
                    }
                    None => base,
                }
            })
            .max()
            // simlint: allow(panic-in-library, reason = "routes returned by the router are built non-empty")
            .expect("non-empty route");
        if degraded {
            if let Some(hub) = &self.oracles {
                hub.emit(OracleEvent::FaultBite {
                    kind: BiteKind::Degrade,
                    at: arrival,
                });
            }
        }
        // The pacing link is the one whose FIFO forces the latest start;
        // ties go to the later hop (stable, and the queue blame lands on
        // the link closest to the destination).
        let (pacing, start) = route
            .links()
            .iter()
            .enumerate()
            .map(|(i, &l)| (i, self.schedules[l.index()].earliest_start(arrival)))
            .max_by_key(|&(i, t)| (t, i))
            // simlint: allow(panic-in-library, reason = "routes returned by the router are built non-empty")
            .expect("non-empty route");
        for &l in route.links() {
            self.schedules[l.index()].reserve(start, occupancy);
        }
        let end = start + occupancy + route.total_latency();
        if let Some(cp) = self.critpath.clone() {
            let queue_node = if start > arrival {
                let deps: Vec<NodeId> = cp
                    .last_on(&self.link_resource_name(route.links()[pacing]))
                    .into_iter()
                    .collect();
                Some(cp.span(
                    crit_class::FABRIC_QUEUE,
                    format!("queue {size}"),
                    arrival,
                    start,
                    &deps,
                ))
            } else {
                None
            };
            // The pacing hop's node is recorded first: it alone extends to
            // delivery (so the chain a consumer hangs off `last_crit` ends
            // at `end`) and it alone carries the queue dependency plus any
            // edges the caller adds after the fact. Every other hop depends
            // on it, so a FIFO chain entering a non-pacing hop routes
            // through the pacing node to the transfer's true enabling
            // events instead of dead-ending mid-iteration.
            let pace_deps: Vec<NodeId> = queue_node.into_iter().collect();
            let pace_id = cp.span_on(
                crit_class::FABRIC_BUSY,
                format!("xfer {size}"),
                &self.link_resource_name(route.links()[pacing]),
                start,
                end,
                &pace_deps,
            );
            self.last_crit = Some(pace_id);
            self.last_crit_entry = Some(pace_id);
            for (i, &l) in route.links().iter().enumerate() {
                if i == pacing {
                    continue;
                }
                cp.span_on(
                    crit_class::FABRIC_BUSY,
                    format!("xfer {size}"),
                    &self.link_resource_name(l),
                    start,
                    start + occupancy,
                    &[pace_id],
                );
            }
        }
        if let Some(m) = metered(&self.metrics) {
            m.inc(metric::FABRIC_TRANSFERS, 1);
            m.inc(metric::FABRIC_BYTES, size.as_u64());
            m.inc(
                metric::FABRIC_LINK_BUSY_NS,
                occupancy.as_nanos() * route.links().len() as u64,
            );
        }
        if let Some(tracer) = active(&self.tracer).cloned() {
            let flow = format!("{size}");
            for &l in route.links() {
                let track = self.link_track(&tracer, l);
                tracer.span(start, start + occupancy, category::FABRIC, track, &flow);
            }
            let dst = self
                .topo
                // simlint: allow(panic-in-library, reason = "routes returned by the router are built non-empty")
                .link(*route.links().last().expect("non-empty route"))
                .dst();
            let track = tracer.track(&format!("device {}", self.topo.device(dst).name()));
            tracer.instant(
                end,
                category::FABRIC,
                track,
                &format!("delivered {size} ({} hops)", route.hops()),
            );
        }
        TransferRecord { start, end, size }
    }

    /// When the given directed link next becomes free.
    pub fn link_busy_until(&self, link: LinkId) -> SimTime {
        self.schedules[link.index()].busy_until()
    }

    /// Every directed link's backlog at `at`, in link order: how long past
    /// `at` the link stays busy with work already reserved, zero when it is
    /// idle by then. A fresh engine reads all zeros. Work arriving at or
    /// after `at` is scheduled from these values alone, since a link's FIFO
    /// reads only when it next becomes free.
    pub fn link_backlogs(&self, at: SimTime) -> impl ExactSizeIterator<Item = SimDuration> + '_ {
        self.schedules
            .iter()
            .map(move |s| s.busy_until().saturating_duration_since(at))
    }

    /// Busy time accumulated on the given directed link.
    pub fn link_busy_time(&self, link: LinkId) -> SimDuration {
        self.schedules[link.index()].busy_time()
    }

    /// Busy fraction of a link over `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn link_utilization(&self, link: LinkId, horizon: SimTime) -> f64 {
        self.schedules[link.index()].utilization(horizon)
    }

    /// The `n` busiest directed links over `[0, horizon)`, as
    /// `(link, utilization)` in descending order — the congestion hotspots
    /// of whatever workload ran on this engine.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn busiest_links(&self, horizon: SimTime, n: usize) -> Vec<(LinkId, f64)> {
        let mut all: Vec<(LinkId, f64)> = (0..self.schedules.len())
            .map(|i| {
                let id = LinkId(i as u32);
                (id, self.schedules[i].utilization(horizon))
            })
            .collect();
        // simlint: allow(panic-in-library, reason = "utilizations are finite ratios of busy to elapsed time, so the comparison is total")
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("utilizations are finite"));
        all.truncate(n);
        all
    }
}

/// The wire shards of a payload: `full` shards of `shard` bytes, then the
/// `tail` remainder when there is one. A payload smaller than two full
/// shards travels whole, as the tail. `Copy` and allocation-free, so fault
/// loops can index a tensor's shards and restart the stream without
/// collecting them; [`TransferEngine::transfer_sharded`] sends exactly
/// these shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shards {
    full: u64,
    shard: ByteSize,
    tail: Option<ByteSize>,
}

impl Shards {
    /// Splits a `size`-byte payload into wire shards of `shard` bytes.
    pub fn new(size: ByteSize, shard: ByteSize) -> Shards {
        if size.as_u64() < 2 * shard.as_u64() {
            return Shards {
                full: 0,
                shard,
                tail: Some(size),
            };
        }
        let rem = size.as_u64() % shard.as_u64();
        Shards {
            full: size.as_u64() / shard.as_u64(),
            shard,
            tail: (rem > 0).then(|| ByteSize::bytes(rem)),
        }
    }

    /// The number of shards (at least one: an empty payload is one empty
    /// shard).
    pub fn len(&self) -> usize {
        self.full as usize + usize::from(self.tail.is_some())
    }

    /// Always `false`: every payload travels as at least one shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The size of shard `i`, or `None` past the last shard.
    pub fn get(&self, i: usize) -> Option<ByteSize> {
        match (i as u64).cmp(&self.full) {
            std::cmp::Ordering::Less => Some(self.shard),
            std::cmp::Ordering::Equal => self.tail,
            std::cmp::Ordering::Greater => None,
        }
    }
}

impl IntoIterator for Shards {
    type Item = ByteSize;
    type IntoIter = std::iter::Chain<std::iter::RepeatN<ByteSize>, std::option::IntoIter<ByteSize>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::repeat_n(self.shard, self.full as usize).chain(self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BandwidthModel;
    use crate::topology::LinkClass;
    use coarse_simcore::units::Bandwidth;

    /// 1 byte/ns flat links for exact arithmetic.
    fn flat() -> BandwidthModel {
        BandwidthModel::Flat {
            rate: Bandwidth::bytes_per_sec(1e9),
        }
    }

    fn lat(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    /// g0 — sw — g1 and sw — cpu, all flat 1B/ns, 10ns latency per hop.
    fn topo() -> (Topology, DeviceId, DeviceId, DeviceId) {
        let mut t = Topology::new();
        let g0 = t.add_device(DeviceKind::Gpu, "g0", 0);
        let g1 = t.add_device(DeviceKind::Gpu, "g1", 0);
        let sw = t.add_device(DeviceKind::Switch, "sw", 0);
        let cpu = t.add_device(DeviceKind::Cpu, "cpu", 0);
        t.add_duplex(g0, sw, flat(), lat(10), LinkClass::Pcie);
        t.add_duplex(g1, sw, flat(), lat(10), LinkClass::Pcie);
        t.add_duplex(sw, cpu, flat(), lat(10), LinkClass::Pcie);
        (t, g0, g1, cpu)
    }

    #[test]
    fn single_transfer_timing() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        let r = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        // serialization 1000ns + 2 hops × 10ns latency
        assert_eq!(r.start, SimTime::ZERO);
        assert_eq!(r.end, SimTime::from_nanos(1020));
    }

    #[test]
    fn same_direction_transfers_serialize() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        let a = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        let b = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        assert_eq!(a.end, SimTime::from_nanos(1020));
        // b waits for the g0→sw hop to free.
        assert_eq!(b.start, SimTime::from_nanos(1000));
        assert_eq!(b.end, SimTime::from_nanos(2020));
    }

    #[test]
    fn opposite_directions_run_concurrently() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        let push = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        let pull = e
            .transfer(g1, g0, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        // Full-duplex links: both directions complete in parallel.
        assert_eq!(push.end, SimTime::from_nanos(1020));
        assert_eq!(pull.end, SimTime::from_nanos(1020));
    }

    #[test]
    fn staging_through_cpu_when_p2p_disabled() {
        let (mut t, g0, g1, _) = topo();
        t.set_p2p(false);
        let mut e = TransferEngine::new(t);
        let r = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        // Two sequential 2-hop transfers: (1000+20) + (1000+20).
        assert_eq!(r.end, SimTime::from_nanos(2040));
        assert!(e.needs_staging(g0, g1));
    }

    #[test]
    fn sharded_transfer_timing() {
        let (t, g0, g1, _) = topo();
        let first_link = t.route(g0, g1).unwrap().links()[0];
        let mut e = TransferEngine::new(t);
        // Shards 1000, 1000, 1000, then the 500-byte tail; each departs on
        // the previous one's delivery, 2 hops × 10ns after serialization.
        let r = e
            .transfer_sharded(
                g0,
                g1,
                ByteSize::bytes(3500),
                ByteSize::bytes(1000),
                SimTime::ZERO,
                LinkMask::ALL,
            )
            .unwrap();
        assert_eq!(r.start, SimTime::ZERO);
        assert_eq!(r.end, SimTime::from_nanos(3 * 1020 + 520));
        assert_eq!(r.size, ByteSize::bytes(3500));
        assert_eq!(e.link_busy_time(first_link), SimDuration::from_nanos(3500));
    }

    /// Sharded and chained transfers over two engines: records, per-link
    /// schedules and critical-path node counts agree.
    fn assert_sharded_matches_chained(t: Topology, src: DeviceId, dst: DeviceId, record: bool) {
        let (size, shard) = (ByteSize::bytes(4500), ByteSize::bytes(1000));
        let (cp_sharded, cp_chained) = (CritPath::new(), CritPath::new());
        let mut sharded = TransferEngine::new(t.clone());
        let mut chained = TransferEngine::new(t.clone());
        if record {
            sharded.set_critpath(cp_sharded.clone());
            chained.set_critpath(cp_chained.clone());
        }
        let got = sharded
            .transfer_sharded(src, dst, size, shard, SimTime::ZERO, LinkMask::ALL)
            .unwrap();
        let mut end = SimTime::ZERO;
        let mut entry = None;
        for s in Shards::new(size, shard) {
            end = chained
                .transfer_masked(src, dst, s, end, LinkMask::ALL)
                .unwrap()
                .end;
            entry = entry.or(chained.last_crit_entry_node());
        }
        assert_eq!((got.start, got.end), (SimTime::ZERO, end));
        for link in t.links() {
            let l = link.id();
            assert_eq!(sharded.link_busy_until(l), chained.link_busy_until(l));
            assert_eq!(sharded.link_busy_time(l), chained.link_busy_time(l));
        }
        if record {
            assert_eq!(cp_sharded.node_count(), cp_chained.node_count());
            // The train departs at its first shard and ends at its last.
            assert_eq!(sharded.last_crit_entry_node(), entry);
            assert_eq!(sharded.last_crit_node(), chained.last_crit_node());
            let last = sharded.last_crit_node().expect("recorded");
            assert_eq!(cp_sharded.node_end(last), got.end);
        }
    }

    #[test]
    fn sharded_transfer_records_first_entry_and_last_node() {
        let (mut t, g0, g1, _) = topo();
        t.set_p2p(false);
        assert_sharded_matches_chained(t, g0, g1, true);
    }

    #[test]
    fn sharded_staging_legs_sharing_a_link_fall_back() {
        // One-way links: a → s1 → s2 → cpu and cpu → s1 → s2 → b, so both
        // staging legs of a → b cross s1 → s2.
        let mut t = Topology::new();
        let a = t.add_device(DeviceKind::Gpu, "a", 0);
        let b = t.add_device(DeviceKind::Gpu, "b", 0);
        let s1 = t.add_device(DeviceKind::Switch, "s1", 0);
        let s2 = t.add_device(DeviceKind::Switch, "s2", 0);
        let cpu = t.add_device(DeviceKind::Cpu, "cpu", 0);
        for (x, y) in [(a, s1), (s1, s2), (s2, cpu), (cpu, s1), (s2, b)] {
            t.add_link(x, y, flat(), lat(10), LinkClass::Pcie);
        }
        t.set_p2p(false);
        let e = TransferEngine::new(t.clone());
        assert!(e.needs_staging(a, b));
        assert_sharded_matches_chained(t, a, b, false);
    }

    /// The split rule spelled out: a payload under two shards travels
    /// whole, anything larger as full shards with the remainder last.
    fn reference_shards(size: u64, shard: u64) -> Vec<u64> {
        if size < 2 * shard {
            return vec![size];
        }
        let mut out = vec![shard; (size / shard) as usize];
        out.extend(Some(size % shard).filter(|&tail| tail > 0));
        out
    }

    #[test]
    fn shard_view_matches_the_split_rule() {
        let shard = 1000;
        // Empty, under two shards, exact multiples, multiples with a tail.
        for size in [
            0, 1, 999, 1000, 1999, 2000, 2001, 3000, 3500, 64_000, 64_999,
        ] {
            let view = Shards::new(ByteSize::bytes(size), ByteSize::bytes(shard));
            let want = reference_shards(size, shard);
            assert_eq!(view.len(), want.len(), "len of {size}");
            assert!(!view.is_empty());
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(view.get(i), Some(ByteSize::bytes(w)), "shard {i} of {size}");
            }
            assert_eq!(view.get(want.len()), None);
            let got: Vec<u64> = view.into_iter().map(|s| s.as_u64()).collect();
            assert_eq!(got, want, "shards of {size}");
            assert_eq!(got.iter().sum::<u64>(), size);
        }
    }

    #[test]
    fn cpu_transfers_never_staged() {
        let (mut t, g0, _, cpu) = topo();
        t.set_p2p(false);
        let e = TransferEngine::new(t);
        assert!(!e.needs_staging(g0, cpu));
        assert!(!e.needs_staging(cpu, g0));
    }

    #[test]
    fn no_route_reported() {
        let mut t = Topology::new();
        let a = t.add_device(DeviceKind::Gpu, "a", 0);
        let b = t.add_device(DeviceKind::Gpu, "b", 0);
        let mut e = TransferEngine::new(t);
        let err = e
            .transfer(a, b, ByteSize::bytes(1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, TransferError::NoRoute { src: a, dst: b });
    }

    #[test]
    fn self_transfer_instant() {
        let (t, g0, _, _) = topo();
        let mut e = TransferEngine::new(t);
        let r = e
            .transfer(g0, g0, ByteSize::gib(1), SimTime::from_nanos(5))
            .unwrap();
        assert_eq!(r.start, r.end);
    }

    #[test]
    fn utilization_accounting() {
        let (t, g0, g1, _) = topo();
        let first_link = t.route(g0, g1).unwrap().links()[0];
        let mut e = TransferEngine::new(t);
        e.transfer(g0, g1, ByteSize::bytes(500), SimTime::ZERO)
            .unwrap();
        assert_eq!(e.link_busy_time(first_link), SimDuration::from_nanos(500));
        let u = e.link_utilization(first_link, SimTime::from_nanos(1000));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn critpath_records_queue_and_busy_nodes() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        let cp = CritPath::new();
        e.set_critpath(cp.clone());
        e.transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        let first = e.last_crit_node().expect("pacing node recorded");
        let b = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        let second = e.last_crit_node().expect("pacing node recorded");
        assert_ne!(first, second);
        assert_eq!(cp.node_end(second), b.end);
        cp.mark_iteration(0, second);
        let ex = cp.analyze();
        // The second transfer queued behind the first: a queue node is
        // recorded, and the critical path is pure fabric time — it runs
        // through the first transfer's occupancy (which outlives the queue
        // wait by the delivery latency) into the second's.
        use coarse_simcore::critpath::class;
        assert_eq!(ex.class_events[class::FABRIC_QUEUE], 1);
        assert_eq!(
            ex.blame[class::FABRIC_BUSY],
            SimDuration::from_nanos(2020),
            "whole span blamed on fabric busy"
        );
        let sum: f64 = class::ALL.iter().map(|c| ex.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critpath_recording_does_not_perturb_transfers() {
        let run = |record: bool| {
            let (t, g0, g1, _) = topo();
            let mut e = TransferEngine::new(t);
            if record {
                e.set_critpath(CritPath::new());
            }
            let a = e
                .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
                .unwrap();
            let b = e
                .transfer(g1, g0, ByteSize::bytes(500), SimTime::from_nanos(3))
                .unwrap();
            (a, b)
        };
        assert_eq!(run(true), run(false), "recording must not perturb");
    }

    #[test]
    fn reset_clears_schedules() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        e.transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        e.reset_idle();
        let r = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        assert_eq!(r.start, SimTime::ZERO);
    }

    #[test]
    fn tracing_is_observation_only_and_records_link_spans() {
        use coarse_simcore::trace::{RecordingTracer, TraceEventKind};

        let (t, g0, g1, _) = topo();
        let mut plain = TransferEngine::new(t.clone());
        let untraced = plain
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();

        let rec = RecordingTracer::new();
        let mut e = TransferEngine::new(t);
        e.set_tracer(rec.handle());
        let traced = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        assert_eq!(untraced, traced, "tracing must not perturb timing");

        let trace = rec.take();
        let spans: Vec<_> = trace
            .events_in(coarse_simcore::trace::category::FABRIC)
            .filter(|e| matches!(e.kind, TraceEventKind::Span { .. }))
            .collect();
        // Two hops g0→sw→g1, one occupancy span each.
        assert_eq!(spans.len(), 2);
        assert!(trace.find_track("link g0 -> sw (Pcie)").is_some());
        assert_eq!(
            trace
                .events_in(coarse_simcore::trace::category::FABRIC)
                .filter(|e| e.kind == TraceEventKind::Instant)
                .count(),
            1
        );
    }

    #[test]
    fn metrics_count_transfers_and_bytes() {
        let (t, g0, g1, _) = topo();
        let mut plain = TransferEngine::new(t.clone());
        let unmetered = plain
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();

        let m = MetricRegistry::new();
        let mut e = TransferEngine::new(t);
        e.set_metrics(m.clone());
        let metered_rec = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        assert_eq!(unmetered, metered_rec, "metrics must not perturb timing");

        let snap = m.snapshot();
        assert_eq!(snap.counter(metric::FABRIC_TRANSFERS), 1);
        assert_eq!(snap.counter(metric::FABRIC_BYTES), 1000);
        // Two hops, each occupied for the 1000ns serialization window.
        assert_eq!(snap.counter(metric::FABRIC_LINK_BUSY_NS), 2000);
        assert_eq!(snap.counter(metric::FABRIC_STAGED), 0);
    }

    #[test]
    fn metrics_count_staged_transfers() {
        let (mut t, g0, g1, _) = topo();
        t.set_p2p(false);
        let m = MetricRegistry::new();
        let mut e = TransferEngine::new(t);
        e.set_metrics(m.clone());
        e.transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric::FABRIC_STAGED), 1);
        // Staging decomposes into two route transfers.
        assert_eq!(snap.counter(metric::FABRIC_TRANSFERS), 2);
        assert_eq!(snap.counter(metric::FABRIC_BYTES), 2000);
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        let (t, g0, g1, _) = topo();
        let mut plain = TransferEngine::new(t.clone());
        let healthy = plain
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        let mut e = TransferEngine::new(t);
        e.set_fault_plan(FaultPlan::empty());
        let faulted = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        assert_eq!(healthy, faulted, "empty plan must perturb nothing");
        assert!(e.fault_plan().is_none(), "empty plan reads as no plan");
    }

    #[test]
    fn oracles_are_observation_only_and_balance_the_ledger() {
        let (t, g0, g1, _) = topo();
        let mut plain = TransferEngine::new(t.clone());
        let healthy = plain
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();

        let hub = OracleHub::with_builtins(SimDuration::from_millis(10));
        let mut e = TransferEngine::new(t);
        e.set_oracles(hub.clone());
        let observed = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        assert_eq!(healthy, observed, "oracles must not perturb timing");
        assert!(hub.events_seen() >= 2, "request + delivery events");
        hub.emit(OracleEvent::RunEnd { at: observed.end });
        assert!(
            hub.violations().is_empty(),
            "healthy transfer violates: {:?}",
            hub.violations()
        );
    }

    #[test]
    fn oracles_record_failed_transfers_and_dropout_bites() {
        let (t, g0, g1, _) = topo();
        let hub = OracleHub::with_builtins(SimDuration::from_millis(10));
        let mut e = TransferEngine::new(t);
        e.set_fault_plan(FaultPlan::new(1).drop_device(1, SimTime::ZERO));
        e.set_oracles(hub.clone());
        let err = e.transfer(g0, g1, ByteSize::bytes(1000), SimTime::from_nanos(5));
        assert!(matches!(err, Err(TransferError::DeviceDown { .. })));
        hub.emit(OracleEvent::RunEnd {
            at: SimTime::from_nanos(5),
        });
        // The failed transfer is ledgered as failed, so conservation holds.
        assert!(
            hub.violations().is_empty(),
            "failed-but-ledgered transfer violates: {:?}",
            hub.violations()
        );
    }

    #[test]
    fn degraded_link_stretches_serialization() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        // g0 has index 0, sw index 2; degrade g0-sw 3x for the first 10 µs.
        e.set_fault_plan(FaultPlan::new(1).degrade_link(
            0,
            2,
            SimTime::ZERO,
            SimTime::from_nanos(10_000),
            3.0,
        ));
        let r = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::ZERO)
            .unwrap();
        // Bottleneck hop now serializes in 3000ns; + 2 × 10ns latency.
        assert_eq!(r.end, SimTime::from_nanos(3020));
        // After the window the link is healthy again.
        let later = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::from_nanos(10_000))
            .unwrap();
        assert_eq!(later.end - later.start, SimDuration::from_nanos(1020));
    }

    #[test]
    fn flapped_link_cuts_route_until_window_ends() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        // Only path is g0-sw-g1; flapping g0-sw (indices 0, 2) severs it.
        e.set_fault_plan(FaultPlan::new(1).flap_link(
            0,
            2,
            SimTime::ZERO,
            SimTime::from_nanos(5_000),
        ));
        let err = e
            .transfer(g0, g1, ByteSize::bytes(1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, TransferError::NoRoute { src: g0, dst: g1 });
        // The flap heals and transfers resume.
        let r = e
            .transfer(g0, g1, ByteSize::bytes(1000), SimTime::from_nanos(5_000))
            .unwrap();
        assert_eq!(r.end - r.start, SimDuration::from_nanos(1020));
    }

    #[test]
    fn dropped_device_rejects_transfers() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        // g1 has index 1; it drops out at 2 µs.
        e.set_fault_plan(FaultPlan::new(1).drop_device(1, SimTime::from_nanos(2_000)));
        assert!(e
            .transfer(g0, g1, ByteSize::bytes(1), SimTime::ZERO)
            .is_ok());
        let err = e
            .transfer(g0, g1, ByteSize::bytes(1), SimTime::from_nanos(2_000))
            .unwrap_err();
        assert_eq!(err, TransferError::DeviceDown { device: g1 });
    }

    #[test]
    fn achieved_rate() {
        let (t, g0, g1, _) = topo();
        let mut e = TransferEngine::new(t);
        let r = e
            .transfer(g0, g1, ByteSize::bytes(10_000), SimTime::ZERO)
            .unwrap();
        let rate = r.achieved_bytes_per_sec();
        // 10000 bytes over 10020 ns ≈ 0.998 GB/s.
        assert!(rate < 1e9 && rate > 0.99e9);
    }
}
