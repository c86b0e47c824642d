//! Property tests for the simulation foundations, driven by the in-repo
//! deterministic harness ([`coarse_simcore::check`]).

use coarse_simcore::check::{run_cases, Gen};
use coarse_simcore::prelude::*;

/// The RNG's `next_below` is always in range and `range_inclusive` honors
/// both bounds.
#[test]
fn rng_bounds() {
    run_cases("rng_bounds", 64, |g: &mut Gen| {
        let seed = g.any_u64();
        let bound = g.u64_in(1..1_000_000);
        let lo = g.u64_in(0..1000);
        let span = g.u64_in(0..1000);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            assert!(rng.next_below(bound) < bound);
            let v = rng.range_inclusive(lo, lo + span);
            assert!(v >= lo && v <= lo + span);
        }
    });
}

/// Merging OnlineStats in any split equals the unsplit stream.
#[test]
fn stats_merge_associative() {
    run_cases("stats_merge_associative", 64, |g: &mut Gen| {
        let data = g.vec_of(2..200, |g| g.f64_in(-1e6, 1e6));
        let split = g.usize_in(1..199).min(data.len() - 1);
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        data[..split].iter().for_each(|&x| left.record(x));
        data[split..].iter().for_each(|&x| right.record(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        assert!(
            (left.variance() - whole.variance()).abs() <= 1e-5 * whole.variance().abs().max(1.0)
        );
    });
}

/// BusyTracker utilization never exceeds 1 regardless of overlap.
#[test]
fn busy_utilization_bounded() {
    run_cases("busy_utilization_bounded", 64, |g: &mut Gen| {
        let intervals = g.vec_of(0..50, |g| (g.u64_in(0..1000), g.u64_in(0..100)));
        let mut b = BusyTracker::new();
        for (start, len) in intervals {
            b.record(SimTime::from_nanos(start), SimTime::from_nanos(start + len));
        }
        let u = b.utilization(SimTime::from_nanos(1100));
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    });
}

/// Histogram totals equal the number of observations and every bucket
/// boundary behaves as (lo, hi].
#[test]
fn histogram_conservation() {
    run_cases("histogram_conservation", 64, |g: &mut Gen| {
        let samples = g.vec_of(0..200, |g| g.f64_in(-100.0, 100.0));
        let mut h = Histogram::with_bounds(vec![-50.0, 0.0, 50.0]);
        for &x in &samples {
            h.record(x);
        }
        assert_eq!(h.total(), samples.len() as u64);
        assert_eq!(h.counts().len(), 4);
    });
}

/// ByteSize div_ceil covers the payload with the minimal chunk count.
#[test]
fn div_ceil_minimal_cover() {
    run_cases("div_ceil_minimal_cover", 128, |g: &mut Gen| {
        let size = g.u64_in(0..1_000_000);
        let chunk = g.u64_in(1..10_000);
        let n = ByteSize::bytes(size).div_ceil(ByteSize::bytes(chunk));
        assert!(n * chunk >= size);
        if n > 0 {
            assert!((n - 1) * chunk < size);
        }
    });
}
