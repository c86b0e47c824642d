//! Timed collectives over the fabric: ring allreduce (the NCCL / MPI
//! baseline), the near-memory sync-core group collective, and a hierarchical
//! multi-node variant.
//!
//! All of these schedule real transfers on a
//! [`TransferEngine`], so collectives
//! contend with any other traffic in flight and the two directions of each
//! link are priced independently.

use coarse_fabric::device::DeviceId;
use coarse_fabric::engine::{TransferEngine, TransferError};
use coarse_fabric::topology::LinkMask;
use coarse_simcore::critpath::{class as crit_class, NodeId};
use coarse_simcore::metrics::name as metric;
use coarse_simcore::prof::region as prof_region;
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::trace::category;
use coarse_simcore::units::ByteSize;

use coarse_cci::synccore::RingDirection;

/// Timing of one completed collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveResult {
    /// When the collective began (all members ready).
    pub start: SimTime,
    /// When the last member finished.
    pub end: SimTime,
    /// Logical payload synchronized.
    pub payload: ByteSize,
}

impl CollectiveResult {
    /// Wall-clock duration of the collective.
    pub fn elapsed(&self) -> SimDuration {
        self.end - self.start
    }

    /// Effective per-member synchronization rate in bytes/sec: payload over
    /// elapsed time.
    ///
    /// # Panics
    ///
    /// Panics if the collective took zero time.
    pub fn rate_bytes_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        assert!(secs > 0.0, "zero-duration collective");
        self.payload.as_f64() / secs
    }
}

/// Why a collective could not run. Shape violations that previous revisions
/// asserted on are now first-class errors, in the same direction as
/// `Scenario::validate`: callers building rings from dynamic topology state
/// (failover, dropouts) get a diagnosable error instead of an abort.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveError {
    /// A fabric transfer failed underneath the collective.
    Transfer(TransferError),
    /// The collective needs more members than it was given.
    TooFewMembers {
        /// Minimum member count for this collective.
        needed: usize,
        /// Members actually supplied.
        got: usize,
    },
    /// `ready` must carry exactly one entry per member.
    ReadyLenMismatch {
        /// Members participating in the collective.
        members: usize,
        /// Ready times supplied.
        ready: usize,
    },
    /// The sync-core variant needs at least one group.
    ZeroGroups,
    /// The CCI wire amplification factor cannot deflate traffic.
    WireFactorBelowOne {
        /// The offending factor.
        got: f64,
    },
    /// Hierarchical allreduce needs at least one node ring.
    NoNodes,
    /// Hierarchical allreduce needs equally sized, non-empty node rings.
    UnevenNodeRings,
}

impl From<TransferError> for CollectiveError {
    fn from(e: TransferError) -> Self {
        CollectiveError::Transfer(e)
    }
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Transfer(e) => write!(f, "transfer failed: {e}"),
            CollectiveError::TooFewMembers { needed, got } => {
                write!(f, "collective needs at least {needed} members, got {got}")
            }
            CollectiveError::ReadyLenMismatch { members, ready } => {
                write!(f, "{members} members but {ready} ready times")
            }
            CollectiveError::ZeroGroups => {
                write!(f, "sync-core collective needs at least one group")
            }
            CollectiveError::WireFactorBelowOne { got } => {
                write!(f, "wire factor must be >= 1, got {got}")
            }
            CollectiveError::NoNodes => write!(f, "hierarchical allreduce needs at least one node"),
            CollectiveError::UnevenNodeRings => {
                write!(f, "node rings must be equally sized and non-empty")
            }
        }
    }
}

impl std::error::Error for CollectiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectiveError::Transfer(e) => Some(e),
            _ => None,
        }
    }
}

/// The synchronization wait each member experienced before a collective
/// could begin — the cost of MPI's synchronous point (§II-B).
pub fn sync_waits(ready: &[SimTime]) -> Vec<SimDuration> {
    let start = ready.iter().copied().max().unwrap_or(SimTime::ZERO);
    ready
        .iter()
        .map(|&r| start.saturating_duration_since(r))
        .collect()
}

/// Ring allreduce across `ring` members: `2·(p−1)` synchronous steps moving
/// `payload/p` segments to the next neighbor. The collective begins only
/// when every member is ready (`max(ready)`), modeling the blocking
/// semantics of MPI/NCCL AllReduce.
///
/// `direction` selects which way segments travel; two concurrent calls with
/// opposite directions use the two link directions of each pair
/// simultaneously.
///
/// # Errors
///
/// Returns [`CollectiveError::Transfer`] if neighbors are not connected
/// through link classes in `mask`, and a shape error if `ring` has fewer than two
/// members or `ready` has the wrong length.
pub fn ring_allreduce(
    engine: &mut TransferEngine,
    ring: &[DeviceId],
    payload: ByteSize,
    ready: &[SimTime],
    direction: RingDirection,
    mask: LinkMask,
) -> Result<CollectiveResult, CollectiveError> {
    let p = ring.len();
    if p < 2 {
        return Err(CollectiveError::TooFewMembers { needed: 2, got: p });
    }
    if ready.len() != p {
        return Err(CollectiveError::ReadyLenMismatch {
            members: p,
            ready: ready.len(),
        });
    }
    let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let segment = ByteSize::bytes(payload.as_u64().div_ceil(p as u64));
    let neighbor = |i: usize| -> usize {
        match direction {
            RingDirection::Forward => (i + 1) % p,
            RingDirection::Reverse => (i + p - 1) % p,
        }
    };
    // One trace track per ring identity: every step span of this collective
    // lands on the same row, named "<phase> step k/n (dir)".
    let ring_track = engine.tracer().cloned().map(|t| {
        let name = format!(
            "sync ring {}..{} x{p}",
            engine.topology().device(ring[0]).name(),
            engine.topology().device(ring[p - 1]).name(),
        );
        (t.track(&name), t)
    });
    let metrics = engine.metrics().cloned();
    let prof = engine.profiler().cloned();
    let _prof_guard = prof.as_ref().map(|p| p.enter(prof_region::CCI_SYNC_RING));
    let critpath = engine.critpath().cloned();
    // "ring step S waited on peer P": each step node depends on every
    // member's transfer of the step plus the previous step node; the
    // barrier node owns the wait for the last-ready member and adopts any
    // caller-staged arrival dependencies (push completions).
    let mut carry: Vec<NodeId> = engine.take_crit_deps();
    let mut prev_step: Option<NodeId> = None;
    if let Some(cp) = &critpath {
        let earliest = ready.iter().copied().min().unwrap_or(SimTime::ZERO);
        if start > earliest {
            prev_step = Some(cp.span(
                crit_class::SYNC,
                "collective barrier",
                earliest,
                start,
                &carry,
            ));
            carry.clear();
        }
    }
    let steps = 2 * (p - 1);
    let mut step_start = start;
    for step in 0..steps {
        let mut step_end = step_start;
        // What this step waited for: the previous step on every peer (or,
        // for the first step, the barrier / staged arrivals). These edges
        // also go onto each member transfer so the backward walk can leave
        // the fabric chain at the true enabling event.
        let waits: Vec<NodeId> = prev_step.into_iter().chain(carry.drain(..)).collect();
        let mut step_deps: Vec<NodeId> = waits.clone();
        for i in 0..p {
            let rec =
                engine.transfer_masked(ring[i], ring[neighbor(i)], segment, step_start, mask)?;
            step_end = step_end.max(rec.end);
            if let Some(cp) = &critpath {
                // Wait edges land on the transfer's *entry* node (the first
                // staging leg when the route stages through the host), so
                // the walk can leave the fabric chain at the step's true
                // enabling event; the step node still waits on delivery.
                if let Some(n) = engine.last_crit_entry_node() {
                    for &d in &waits {
                        cp.add_dep(n, d);
                    }
                }
                step_deps.extend(engine.last_crit_node());
            }
        }
        if let Some(m) = &metrics {
            m.inc(metric::RING_STEPS, 1);
            m.inc(metric::RING_BYTES, segment.as_u64() * p as u64);
        }
        if let Some(p) = &prof {
            p.count(prof_region::CCI_SYNC_RING, 1);
        }
        if let Some((track, tracer)) = &ring_track {
            let phase = if step < p - 1 {
                "reduce-scatter"
            } else {
                "all-gather"
            };
            let dir = match direction {
                RingDirection::Forward => "fwd",
                RingDirection::Reverse => "rev",
            };
            tracer.span(
                step_start,
                step_end,
                category::SYNC,
                *track,
                &format!("{phase} step {}/{steps} ({dir})", step + 1),
            );
        }
        if let Some(cp) = &critpath {
            prev_step = Some(cp.span(
                crit_class::SYNC,
                format!("ring step {}/{steps}", step + 1),
                step_start,
                step_end,
                &step_deps,
            ));
        }
        step_start = step_end;
    }
    if let Some(n) = prev_step {
        engine.note_crit_node(n);
    }
    Ok(CollectiveResult {
        start,
        end: step_start,
        payload,
    })
}

/// The sync-core group collective of §IV-A: the payload is split across
/// `groups` rings over the memory devices, adjacent groups running in
/// opposite directions so device-pair links are driven bidirectionally
/// (Fig. 11b). `wire_factor ≥ 1` inflates on-wire bytes for CCI protocol
/// efficiency and coherence overhead.
///
/// # Errors
///
/// Returns [`CollectiveError::Transfer`] if the devices are not connected,
/// and a shape error if `devices` has fewer than two members, `groups` is
/// zero, or `wire_factor < 1`.
pub fn sync_core_allreduce(
    engine: &mut TransferEngine,
    devices: &[DeviceId],
    payload: ByteSize,
    groups: usize,
    ready: SimTime,
    wire_factor: f64,
    mask: LinkMask,
) -> Result<CollectiveResult, CollectiveError> {
    if devices.len() < 2 {
        return Err(CollectiveError::TooFewMembers {
            needed: 2,
            got: devices.len(),
        });
    }
    if groups == 0 {
        return Err(CollectiveError::ZeroGroups);
    }
    if wire_factor < 1.0 {
        return Err(CollectiveError::WireFactorBelowOne { got: wire_factor });
    }
    let per_group =
        ByteSize::bytes(((payload.as_u64().div_ceil(groups as u64)) as f64 * wire_factor) as u64);
    let ready_vec = vec![ready; devices.len()];
    let mut end = ready;
    let record = engine.critpath().is_some();
    let mut group_nodes: Vec<NodeId> = Vec::new();
    // Groups run concurrently: each schedules its own transfers starting at
    // `ready`; contention on shared links is resolved by the engine.
    for g in 0..groups {
        let result = ring_allreduce(
            engine,
            devices,
            per_group,
            &ready_vec,
            RingDirection::for_group(g),
            mask,
        )?;
        end = end.max(result.end);
        if record {
            if let Some(n) = engine.last_crit_node() {
                group_nodes.push(n);
            }
        }
    }
    // Join node: the collective completes only when the slowest group does.
    if let Some(cp) = engine.critpath().cloned() {
        if !group_nodes.is_empty() {
            let join = cp.span(
                crit_class::SYNC,
                format!("sync-core join x{groups}"),
                end,
                end,
                &group_nodes,
            );
            engine.note_crit_node(join);
        }
    }
    Ok(CollectiveResult {
        start: ready,
        end,
        payload,
    })
}

/// One ring phase: `steps` synchronous rounds in which every member sends
/// `segment` to its ring successor.
fn ring_phase(
    engine: &mut TransferEngine,
    ring: &[DeviceId],
    segment: ByteSize,
    steps: usize,
    mut step_start: SimTime,
    mask: LinkMask,
) -> Result<SimTime, TransferError> {
    let p = ring.len();
    let ring_track = engine.tracer().cloned().map(|t| {
        let name = format!(
            "hier ring {}..{} x{p}",
            engine.topology().device(ring[0]).name(),
            engine.topology().device(ring[p - 1]).name(),
        );
        (t.track(&name), t)
    });
    let metrics = engine.metrics().cloned();
    let prof = engine.profiler().cloned();
    let _prof_guard = prof.as_ref().map(|p| p.enter(prof_region::CCI_SYNC_RING));
    let critpath = engine.critpath().cloned();
    let mut carry: Vec<NodeId> = engine.take_crit_deps();
    let mut prev_step: Option<NodeId> = None;
    for step in 0..steps {
        let mut step_end = step_start;
        // Same wait edges as in [`ring_allreduce`]: onto the step node and
        // every member transfer, so the walk can leave the fabric chain.
        let waits: Vec<NodeId> = prev_step.into_iter().chain(carry.drain(..)).collect();
        let mut step_deps: Vec<NodeId> = waits.clone();
        for i in 0..p {
            let rec =
                engine.transfer_masked(ring[i], ring[(i + 1) % p], segment, step_start, mask)?;
            step_end = step_end.max(rec.end);
            if let Some(cp) = &critpath {
                // Wait edges land on the transfer's *entry* node (the first
                // staging leg when the route stages through the host), so
                // the walk can leave the fabric chain at the step's true
                // enabling event; the step node still waits on delivery.
                if let Some(n) = engine.last_crit_entry_node() {
                    for &d in &waits {
                        cp.add_dep(n, d);
                    }
                }
                step_deps.extend(engine.last_crit_node());
            }
        }
        if let Some(m) = &metrics {
            m.inc(metric::RING_STEPS, 1);
            m.inc(metric::RING_BYTES, segment.as_u64() * p as u64);
        }
        if let Some(p) = &prof {
            p.count(prof_region::CCI_SYNC_RING, 1);
        }
        if let Some((track, tracer)) = &ring_track {
            tracer.span(
                step_start,
                step_end,
                category::SYNC,
                *track,
                &format!("phase step {}/{steps}", step + 1),
            );
        }
        if let Some(cp) = &critpath {
            prev_step = Some(cp.span(
                crit_class::SYNC,
                format!("phase step {}/{steps}", step + 1),
                step_start,
                step_end,
                &step_deps,
            ));
        }
        step_start = step_end;
    }
    if let Some(n) = prev_step {
        engine.note_crit_node(n);
    }
    Ok(step_start)
}

/// Hierarchical multi-node allreduce: intra-node ring reduce-scatter, then
/// per-segment rings across nodes (every member exchanges its reduced
/// segment with its peers on the other nodes, all sharing the network
/// concurrently), then an intra-node ring all-gather — the standard
/// bandwidth-optimal decomposition.
///
/// # Errors
///
/// Returns [`CollectiveError::Transfer`] on connectivity failures, and a
/// shape error if `node_rings` is empty, nodes have unequal or zero member
/// counts, or `ready` does not match the total member count (flattened node
/// order).
pub fn hierarchical_allreduce(
    engine: &mut TransferEngine,
    node_rings: &[Vec<DeviceId>],
    payload: ByteSize,
    ready: &[SimTime],
    mask: LinkMask,
) -> Result<CollectiveResult, CollectiveError> {
    if node_rings.is_empty() {
        return Err(CollectiveError::NoNodes);
    }
    let local = node_rings[0].len();
    if local == 0 || node_rings.iter().any(|r| r.len() != local) {
        return Err(CollectiveError::UnevenNodeRings);
    }
    let total: usize = node_rings.iter().map(Vec::len).sum();
    if ready.len() != total {
        return Err(CollectiveError::ReadyLenMismatch {
            members: total,
            ready: ready.len(),
        });
    }
    let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let nodes = node_rings.len();

    // Phase 1: intra-node reduce-scatter (p−1 steps of payload/p).
    let critpath = engine.critpath().cloned();
    let staged = engine.take_crit_deps();
    let mut phase_nodes: Vec<NodeId> = Vec::new();
    let segment = ByteSize::bytes(payload.as_u64().div_ceil(local as u64));
    let mut phase1_end = start;
    let mut p1_nodes: Vec<NodeId> = Vec::new();
    if local >= 2 {
        for ring in node_rings {
            // Every node's first intra-node step adopts the caller-staged
            // arrival dependencies.
            engine.stage_crit_deps(&staged);
            let end = ring_phase(engine, ring, segment, local - 1, start, mask)?;
            phase1_end = phase1_end.max(end);
            p1_nodes.extend(engine.last_crit_node());
        }
        phase_nodes.extend_from_slice(&p1_nodes);
    }

    // Phase 2: cross-node allreduce of each segment, one ring per member
    // slot, all contending for the network concurrently. Each cross ring
    // starts at phase1_end — a barrier over every node's reduce-scatter —
    // so it depends on all phase-1 ring tails (or, when no intra-node
    // phase ran, on the caller-staged arrivals directly).
    let mut phase2_end = phase1_end;
    let mut p2_nodes: Vec<NodeId> = Vec::new();
    if nodes >= 2 {
        let sub = ByteSize::bytes(segment.as_u64().div_ceil(nodes as u64));
        for j in 0..local {
            if local < 2 {
                engine.stage_crit_deps(&staged);
            } else {
                engine.stage_crit_deps(&p1_nodes);
            }
            let cross: Vec<DeviceId> = node_rings.iter().map(|r| r[j]).collect();
            let end = ring_phase(engine, &cross, sub, 2 * (nodes - 1), phase1_end, mask)?;
            phase2_end = phase2_end.max(end);
            p2_nodes.extend(engine.last_crit_node());
        }
        phase_nodes.extend_from_slice(&p2_nodes);
    }

    // Phase 3: intra-node all-gather (p−1 steps of payload/p), gated on
    // every cross-node ring (phase2_end is their barrier).
    let prev_phase = if p2_nodes.is_empty() {
        &p1_nodes
    } else {
        &p2_nodes
    };
    let mut end = phase2_end;
    if local >= 2 {
        for ring in node_rings {
            engine.stage_crit_deps(prev_phase);
            let e = ring_phase(engine, ring, segment, local - 1, phase2_end, mask)?;
            end = end.max(e);
            phase_nodes.extend(engine.last_crit_node());
        }
    }
    if let Some(cp) = &critpath {
        // Join every phase ring so the path can route into whichever one
        // actually finished last.
        let join = cp.span(
            crit_class::SYNC,
            format!("hierarchical join x{}", node_rings.len()),
            end,
            end,
            &phase_nodes,
        );
        engine.note_crit_node(join);
    }
    Ok(CollectiveResult {
        start,
        end,
        payload,
    })
}

/// The bandwidth-utilization figure the paper quotes for ring AllReduce on
/// DGX-1 (§II-B, "as low as 34%"): achieved algorithmic bandwidth
/// `2·(p−1)/p · payload / elapsed` over the peak bandwidth of the slowest
/// link used.
pub fn ring_bandwidth_utilization(
    result: &CollectiveResult,
    members: usize,
    peak_link_bytes_per_sec: f64,
) -> f64 {
    let algo_bytes = 2.0 * (members as f64 - 1.0) / members as f64 * result.payload.as_f64();
    algo_bytes / result.elapsed().as_secs_f64() / peak_link_bytes_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_fabric::machines::{aws_v100, sdsc_p100, PartitionScheme};
    use coarse_fabric::topology::LinkClass;

    const PCIE_ONLY: LinkMask = LinkMask::ALL.without(LinkClass::NvLink);
    const ALL_LINKS: LinkMask = LinkMask::ALL;

    #[test]
    fn critpath_records_barrier_and_ring_steps() {
        use coarse_simcore::critpath::{class, CritPath};

        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let mut e = TransferEngine::new(m.into_topology());
        let cp = CritPath::new();
        e.set_critpath(cp.clone());
        let mut ready = vec![SimTime::ZERO; gpus.len()];
        ready[0] = SimTime::from_nanos(5_000); // one straggler
        let r = ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(4),
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        let sink = e.last_crit_node().expect("final ring step node");
        assert_eq!(cp.node_end(sink), r.end);
        cp.mark_iteration(0, sink);
        let ex = cp.analyze();
        // 2(p-1) step nodes plus the straggler barrier.
        let steps = 2 * (gpus.len() - 1) as u64;
        assert_eq!(ex.class_events[class::SYNC], steps + 1);
        assert!(ex.class_events[class::FABRIC_BUSY] >= steps);
        let total: f64 = class::ALL.iter().map(|c| ex.fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-12, "fractions sum to {total}");
    }

    #[test]
    fn critpath_recording_does_not_perturb_collectives() {
        use coarse_simcore::critpath::CritPath;

        let run = |record: bool| {
            let m = sdsc_p100();
            let gpus = m.gpus().to_vec();
            let mut e = TransferEngine::new(m.into_topology());
            if record {
                e.set_critpath(CritPath::new());
            }
            ring_allreduce(
                &mut e,
                &gpus,
                ByteSize::mib(16),
                &vec![SimTime::ZERO; gpus.len()],
                RingDirection::Forward,
                ALL_LINKS,
            )
            .unwrap()
        };
        assert_eq!(run(true), run(false), "recording must not perturb");
    }

    #[test]
    fn shape_violations_are_typed_errors() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let mut e = TransferEngine::new(m.into_topology());
        let one = &gpus[..1];
        let r = ring_allreduce(
            &mut e,
            one,
            ByteSize::mib(1),
            &[SimTime::ZERO],
            RingDirection::Forward,
            ALL_LINKS,
        );
        assert_eq!(
            r.unwrap_err(),
            CollectiveError::TooFewMembers { needed: 2, got: 1 }
        );
        let r = ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(1),
            &[SimTime::ZERO],
            RingDirection::Forward,
            ALL_LINKS,
        );
        assert!(matches!(r, Err(CollectiveError::ReadyLenMismatch { .. })));
        let r = sync_core_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(1),
            0,
            SimTime::ZERO,
            1.0,
            ALL_LINKS,
        );
        assert_eq!(r.unwrap_err(), CollectiveError::ZeroGroups);
        let r = sync_core_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(1),
            2,
            SimTime::ZERO,
            0.5,
            ALL_LINKS,
        );
        assert!(matches!(r, Err(CollectiveError::WireFactorBelowOne { .. })));
        let r = hierarchical_allreduce(&mut e, &[], ByteSize::mib(1), &[], ALL_LINKS);
        assert_eq!(r.unwrap_err(), CollectiveError::NoNodes);
        let uneven = vec![gpus[..2].to_vec(), gpus[..1].to_vec()];
        let r = hierarchical_allreduce(
            &mut e,
            &uneven,
            ByteSize::mib(1),
            &[SimTime::ZERO; 3],
            ALL_LINKS,
        );
        assert_eq!(r.unwrap_err(), CollectiveError::UnevenNodeRings);
    }

    #[test]
    fn ring_allreduce_waits_for_all_members() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let mut e = TransferEngine::new(m.into_topology());
        let ready = vec![
            SimTime::ZERO,
            SimTime::from_nanos(500),
            SimTime::from_nanos(10_000),
            SimTime::ZERO,
        ];
        let r = ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(16),
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        assert_eq!(r.start, SimTime::from_nanos(10_000));
        let waits = sync_waits(&ready);
        assert_eq!(waits[0], SimDuration::from_nanos(10_000));
        assert_eq!(waits[2], SimDuration::ZERO);
    }

    #[test]
    fn ring_time_scales_with_payload() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let mut e = TransferEngine::new(m.into_topology());
        let ready = vec![SimTime::ZERO; 4];
        let small = ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(4),
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        e.reset_idle();
        let large = ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(64),
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        let ratio = large.elapsed().as_secs_f64() / small.elapsed().as_secs_f64();
        assert!(
            ratio > 8.0 && ratio < 24.0,
            "expected ~16x scaling, got {ratio}"
        );
    }

    const CCI_ONLY: LinkMask = LinkMask::only(LinkClass::Cci);

    #[test]
    fn opposite_direction_rings_overlap() {
        // Two rings over the dedicated CCI device fabric (Fig. 11b): same
        // direction contends on every directed link, opposite directions use
        // disjoint directed links and overlap fully.
        let mut m = aws_v100();
        let part = m.partition(PartitionScheme::OneToOne);
        m.augment_cci_ring(&part.mem_devices);
        let devs = part.mem_devices.clone();
        let ready = vec![SimTime::ZERO; devs.len()];
        let payload = ByteSize::mib(32);

        let mut e = TransferEngine::new(m.topology().clone());
        let a = ring_allreduce(
            &mut e,
            &devs,
            payload,
            &ready,
            RingDirection::Forward,
            CCI_ONLY,
        )
        .unwrap();
        let b = ring_allreduce(
            &mut e,
            &devs,
            payload,
            &ready,
            RingDirection::Forward,
            CCI_ONLY,
        )
        .unwrap();
        let same_dir_end = a.end.max(b.end);

        let mut e2 = TransferEngine::new(m.topology().clone());
        let a2 = ring_allreduce(
            &mut e2,
            &devs,
            payload,
            &ready,
            RingDirection::Forward,
            CCI_ONLY,
        )
        .unwrap();
        let b2 = ring_allreduce(
            &mut e2,
            &devs,
            payload,
            &ready,
            RingDirection::Reverse,
            CCI_ONLY,
        )
        .unwrap();
        let opp_dir_end = a2.end.max(b2.end);

        assert!(
            opp_dir_end.as_nanos() < same_dir_end.as_nanos() * 6 / 10,
            "bidirectional rings ({opp_dir_end:?}) must beat unidirectional ({same_dir_end:?})"
        );
    }

    #[test]
    fn sync_core_groups_beat_single_group() {
        let mut m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        m.augment_cci_ring(&p.mem_devices);
        let payload = ByteSize::mib(64);

        let mut e1 = TransferEngine::new(m.topology().clone());
        let one = sync_core_allreduce(
            &mut e1,
            &p.mem_devices,
            payload,
            1,
            SimTime::ZERO,
            1.0,
            CCI_ONLY,
        )
        .unwrap();
        let mut e2 = TransferEngine::new(m.topology().clone());
        let two = sync_core_allreduce(
            &mut e2,
            &p.mem_devices,
            payload,
            2,
            SimTime::ZERO,
            1.0,
            CCI_ONLY,
        )
        .unwrap();
        assert!(
            two.elapsed() < one.elapsed().mul_f64(0.7),
            "two bidirectional groups ({:?}) must beat one ({:?})",
            two.elapsed(),
            one.elapsed()
        );
    }

    #[test]
    fn wire_factor_slows_collective() {
        let m = sdsc_p100();
        let p = m.partition(PartitionScheme::OneToOne);
        let payload = ByteSize::mib(32);
        let mut e1 = TransferEngine::new(m.topology().clone());
        let clean = sync_core_allreduce(
            &mut e1,
            &p.mem_devices,
            payload,
            2,
            SimTime::ZERO,
            1.0,
            PCIE_ONLY,
        )
        .unwrap();
        let mut e2 = TransferEngine::new(m.topology().clone());
        let noisy = sync_core_allreduce(
            &mut e2,
            &p.mem_devices,
            payload,
            2,
            SimTime::ZERO,
            1.3,
            PCIE_ONLY,
        )
        .unwrap();
        assert!(noisy.elapsed() > clean.elapsed());
    }

    #[test]
    fn nvlink_ring_beats_pcie_ring_on_v100() {
        let m = aws_v100();
        let part = m.partition(PartitionScheme::OneToOne);
        let ring = m.nvlink_ring(&part.workers).expect("nvlink ring");
        let ready = vec![SimTime::ZERO; ring.len()];
        let payload = ByteSize::mib(64);
        let mut e = TransferEngine::new(m.topology().clone());
        let nv = ring_allreduce(
            &mut e,
            &ring,
            payload,
            &ready,
            RingDirection::Forward,
            ALL_LINKS,
        )
        .unwrap();
        let mut e2 = TransferEngine::new(m.topology().clone());
        let pcie = ring_allreduce(
            &mut e2,
            &part.workers,
            payload,
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        assert!(nv.elapsed() < pcie.elapsed());
    }

    #[test]
    fn hierarchical_crosses_nodes() {
        use coarse_fabric::machines::aws_v100_cluster;
        let m = aws_v100_cluster(2);
        let n0: Vec<DeviceId> = m.gpus_on_node(0)[..4].to_vec();
        let n1: Vec<DeviceId> = m.gpus_on_node(1)[..4].to_vec();
        let ready = vec![SimTime::ZERO; 8];
        let payload = ByteSize::mib(64);
        let mut e = TransferEngine::new(m.topology().clone());
        let hier =
            hierarchical_allreduce(&mut e, &[n0.clone(), n1], payload, &ready, ALL_LINKS).unwrap();
        // Single-node ring over n0 alone must be much faster than the
        // network-bound two-node collective.
        let mut e2 = TransferEngine::new(m.topology().clone());
        let single = ring_allreduce(
            &mut e2,
            &n0,
            payload,
            &ready[..4],
            RingDirection::Forward,
            ALL_LINKS,
        )
        .unwrap();
        assert!(hier.elapsed() > single.elapsed() * 2);
    }

    #[test]
    fn ring_metrics_count_steps_and_bytes() {
        use coarse_simcore::metrics::MetricRegistry;

        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let reg = MetricRegistry::new();
        let mut e = TransferEngine::new(m.into_topology());
        e.set_metrics(reg.clone());
        let ready = vec![SimTime::ZERO; 4];
        ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(16),
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        let snap = reg.snapshot();
        // 2·(p−1) = 6 steps for 4 members.
        assert_eq!(snap.counter(metric::RING_STEPS), 6);
        // Each step moves one payload/p segment per member: 6 · 4MiB · 4.
        assert_eq!(
            snap.counter(metric::RING_BYTES),
            6 * 4 * ByteSize::mib(4).as_u64()
        );
        // Ring bytes flow through the fabric counters too.
        assert_eq!(
            snap.counter(metric::FABRIC_BYTES),
            snap.counter(metric::RING_BYTES)
        );
    }

    #[test]
    fn utilization_below_one() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let mut e = TransferEngine::new(m.into_topology());
        let ready = vec![SimTime::ZERO; 4];
        let r = ring_allreduce(
            &mut e,
            &gpus,
            ByteSize::mib(64),
            &ready,
            RingDirection::Forward,
            PCIE_ONLY,
        )
        .unwrap();
        let util = ring_bandwidth_utilization(&r, 4, 13.0 * (1u64 << 30) as f64);
        assert!(util > 0.1 && util < 1.0, "utilization {util} out of range");
    }
}
