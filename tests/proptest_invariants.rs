//! Property-based invariants across the workspace, exercised through the
//! facade crate with the in-repo deterministic harness
//! (`coarse_repro::simcore::check`).

use coarse_repro::cci::storage::ParameterStore;
use coarse_repro::cci::synccore::{RingDirection, SyncGroup};
use coarse_repro::cci::tensor::{Tensor, TensorId};
use coarse_repro::collectives::functional;
use coarse_repro::core::deadlock::{SchedulingPolicy, SyncScheduler};
use coarse_repro::core::dualsync::{estimate_iteration, optimize, DualSyncInputs};
use coarse_repro::simcore::check::{run_cases, Gen};
use coarse_repro::simcore::time::{SimDuration, SimTime};
use coarse_repro::simcore::timeline::ResourceTimeline;
use coarse_repro::simcore::units::{Bandwidth, ByteSize};

/// Partition followed by reconstruction is the identity, for any shard
/// size and tensor length.
#[test]
fn tensor_partition_reconstruct_identity() {
    run_cases(
        "tensor_partition_reconstruct_identity",
        64,
        |g: &mut Gen| {
            let len = g.usize_in(1..4096);
            let shard = g.usize_in(1..700);
            let data: Vec<f32> = (0..len).map(|_| g.rng().next_f32()).collect();
            let tensor = Tensor::new(TensorId(7), data);
            let shards = tensor.partition(shard);
            assert_eq!(Tensor::reconstruct(TensorId(7), len, &shards), tensor);
            // Shards tile exactly.
            let total: usize = shards.iter().map(|s| s.data.len()).sum();
            assert_eq!(total, len);
        },
    );
}

/// The sync-core ring reduction equals the functional oracle exactly on
/// dyadic-valued inputs, for any group size, chunking, and direction.
#[test]
fn sync_ring_equals_oracle() {
    run_cases("sync_ring_equals_oracle", 48, |g: &mut Gen| {
        let n = g.usize_in(2..7);
        let len = g.usize_in(1..600);
        let chunk = g.usize_in(1..128);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..len).map(|_| (g.u64_in(0..256) as f32) / 8.0).collect())
            .collect();
        let dir = if g.bool() {
            RingDirection::Reverse
        } else {
            RingDirection::Forward
        };
        let mut group = SyncGroup::new(n, chunk, dir);
        let (result, stats) = group.allreduce_sum(&inputs);
        assert_eq!(result, functional::allreduce_sum(&inputs));
        // Ring identity: total traffic = 2(n-1) × payload.
        assert_eq!(
            stats.total_bytes_sent.as_u64(),
            2 * (n as u64 - 1) * (len as u64 * 4)
        );
    });
}

/// A FIFO resource never serves two requests concurrently and never
/// starts before arrival.
#[test]
fn resource_timeline_serial() {
    run_cases("resource_timeline_serial", 64, |g: &mut Gen| {
        let requests = g.vec_of(1..50, |g| (g.u64_in(0..1000), g.u64_in(1..100)));
        let mut sorted = requests.clone();
        sorted.sort_by_key(|&(arrival, _)| arrival);
        let mut r = ResourceTimeline::new();
        let mut prev_end = SimTime::ZERO;
        for (arrival, dur) in sorted {
            let grant = r.reserve(SimTime::from_nanos(arrival), SimDuration::from_nanos(dur));
            assert!(grant.start >= SimTime::from_nanos(arrival));
            assert!(
                grant.start >= prev_end,
                "service intervals must not overlap"
            );
            assert_eq!(grant.end, grant.start + SimDuration::from_nanos(dur));
            prev_end = grant.end;
        }
        // Busy time equals the sum of durations.
        assert_eq!(r.busy_until(), prev_end);
    });
}

/// Per-client-queue scheduling never deadlocks when all clients push in
/// the same global order, regardless of proxy routing and interleaving.
#[test]
fn queue_scheduling_always_completes() {
    run_cases("queue_scheduling_always_completes", 48, |g: &mut Gen| {
        let proxies = g.usize_in(1..5);
        let clients = g.usize_in(1..5);
        let tensors = g.u64_in(1..30);
        let mut order: Vec<u64> = (0..tensors).collect();
        g.rng().shuffle(&mut order);
        let mut s = SyncScheduler::new(proxies, SchedulingPolicy::PerClientQueues);
        let mut next = vec![0usize; clients];
        let mut remaining = clients as u64 * tensors;
        while remaining > 0 {
            let c = g.usize_in(0..clients);
            if next[c] >= tensors as usize {
                continue;
            }
            let p = g.usize_in(0..proxies);
            s.push(p, c, TensorId(order[next[c]]));
            next[c] += 1;
            remaining -= 1;
        }
        let out = s.run();
        assert!(out.is_deadlock_free());
        assert_eq!(out.completed.len() as u64, tensors);
    });
}

/// The dual-sync optimizer never loses to any point of a fine sweep.
#[test]
fn dualsync_optimum_is_global() {
    run_cases("dualsync_optimum_is_global", 96, |g: &mut Gen| {
        let inputs = DualSyncInputs {
            workers: g.usize_in(2..9),
            total_bytes: ByteSize::mib(g.u64_in(1..4096)),
            proxy_bandwidth: Bandwidth::gib_per_sec(g.u64_in(1..40) as f64),
            gpu_bandwidth: Bandwidth::gib_per_sec(g.u64_in(1..40) as f64),
            forward: SimDuration::from_millis(g.u64_in(1..500)),
            backward: SimDuration::from_millis(g.u64_in(1..1000)),
        };
        let plan = optimize(&inputs);
        for i in 0..=40u64 {
            let m = ByteSize::bytes(inputs.total_bytes.as_u64() * i / 40);
            let est = estimate_iteration(&inputs, m);
            // Allow one nanosecond of rounding slack.
            assert!(
                plan.estimate <= est + SimDuration::from_nanos(1),
                "m={m} beats optimizer: {est} < {}",
                plan.estimate
            );
        }
    });
}

/// Copy-on-write storage: snapshots are immutable under later updates,
/// and restore brings back the exact snapshot state.
#[test]
fn cow_snapshot_isolation() {
    run_cases("cow_snapshot_isolation", 48, |g: &mut Gen| {
        let len = g.usize_in(1..5000);
        let flips = g.vec_of(1..20, |g| {
            (g.usize_in(0..5000), g.u64_in(0..200) as i32 - 100)
        });
        let mut store = ParameterStore::new();
        let orig: Vec<f32> = (0..len).map(|i| i as f32).collect();
        store.insert(&Tensor::new(TensorId(0), orig.clone()));
        let snap = store.snapshot();
        let mut updated = orig.clone();
        for (idx, v) in flips {
            updated[idx % len] = v as f32;
        }
        store.update(TensorId(0), &updated);
        assert_eq!(store.get(TensorId(0)).unwrap().into_data(), updated);
        store.restore(&snap);
        assert_eq!(store.get(TensorId(0)).unwrap().into_data(), orig);
    });
}

/// Bandwidth/transfer-time algebra: time is monotone in size and antitone
/// in rate; never zero for non-empty payloads.
#[test]
fn transfer_time_monotone() {
    run_cases("transfer_time_monotone", 128, |g: &mut Gen| {
        let a = g.u64_in(1..u32::MAX as u64);
        let b = g.u64_in(1..u32::MAX as u64);
        let bw = Bandwidth::bytes_per_sec(g.f64_in(1.0, 1e12));
        let (lo, hi) = (a.min(b), a.max(b));
        let t_lo = bw.transfer_time(ByteSize::bytes(lo));
        let t_hi = bw.transfer_time(ByteSize::bytes(hi));
        assert!(t_lo <= t_hi);
        assert!(t_lo > SimDuration::ZERO);
    });
}
