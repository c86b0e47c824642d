//! Best-of-R and percentile math, digest stability, and exact allocation
//! counts.

use perfbench::stats::{harrell_davis, keep_min, percentile, rank_index};
use perfbench::timed::measure;
use perfbench::workloads::{digest, Workload};

#[test]
fn p90_leaves_ten_samples_beyond_it_from_n_100() {
    for n in 100..=400 {
        let beyond = n - 1 - rank_index(n, 90);
        assert!(beyond >= 10, "n={n}: only {beyond} samples beyond p90");
    }
    assert_eq!(rank_index(100, 90), 89);
    assert_eq!(rank_index(100, 50), 49);
    assert_eq!(rank_index(1, 90), 0);
    assert_eq!(rank_index(3, 50), 1);
    assert_eq!(rank_index(10, 100), 9);
}

#[test]
fn percentiles_are_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&values, 50), 50.0);
    assert_eq!(percentile(&values, 90), 90.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
}

#[test]
fn harrell_davis_estimates_the_percentile() {
    let values: Vec<f64> = (1..=101).rev().map(f64::from).collect();
    assert!(
        (harrell_davis(&values, 50) - 51.0).abs() < 1e-9,
        "symmetric"
    );
    assert!(
        (harrell_davis(&[7.0; 120], 90) - 7.0).abs() < 1e-9,
        "constant"
    );
    let p90 = harrell_davis(&values, 90);
    assert!((p90 - 91.0).abs() < 1.0, "p90 {p90}");
    assert!(harrell_davis(&[1.0, 2.0, 3.0], 90).is_finite());
}

#[test]
fn harrell_davis_moves_smoothly_across_a_gap() {
    // Two clusters meeting at the median: moving one input across the gap
    // moves the nearest-rank median by the whole gap, and the
    // Harrell-Davis median by a small fraction of it.
    let sample = |low: usize| -> Vec<f64> {
        (0..120)
            .map(|i| if i < low { 10.0 } else { 20.0 })
            .collect()
    };
    let (a, b) = (sample(60), sample(59));
    assert_eq!(percentile(&b, 50) - percentile(&a, 50), 10.0);
    let moved = harrell_davis(&b, 50) - harrell_davis(&a, 50);
    assert!(moved > 0.0 && moved < 1.0, "moved {moved}");
}

#[test]
fn best_of_r_keeps_each_inputs_minimum() {
    let mut best = vec![5.0, 1.0, 3.0];
    keep_min(&mut best, &[4.0, 2.0, 3.5]);
    keep_min(&mut best, &[6.0, 0.5, 2.5]);
    assert_eq!(best, vec![4.0, 0.5, 2.5]);
}

#[test]
#[should_panic(expected = "a pass covers every input")]
fn best_of_r_rejects_a_short_pass() {
    keep_min(&mut [1.0, 2.0], &[1.0]);
}

#[test]
fn digests_are_stable_and_order_sensitive() {
    let inputs = Workload::Paper.inputs(11, 3);
    let run = || -> Vec<u64> {
        inputs
            .iter()
            .map(|i| Workload::Paper.run_op(i).expect("paper ops succeed"))
            .collect()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "op outputs repeat exactly");
    assert_eq!(digest(&a), digest(&b));
    let mut swapped = a.clone();
    swapped.swap(0, 1);
    assert_ne!(
        digest(&a),
        digest(&swapped),
        "the digest follows input order"
    );
    let regenerated: Vec<u64> = Workload::Paper
        .inputs(11, 3)
        .iter()
        .map(|i| Workload::Paper.run_op(i).expect("paper ops succeed"))
        .collect();
    assert_eq!(a, regenerated, "regenerated inputs give the same outputs");
}

#[test]
fn two_passes_count_identical_allocations_per_op() {
    for w in [Workload::Paper, Workload::Recovery] {
        let inputs = w.inputs(5, 3);
        let pass = || -> Vec<(u64, u64)> {
            inputs
                .iter()
                .map(|i| {
                    let s = measure(w, i);
                    assert!(s.output.is_ok(), "{}: {:?}", w.name(), s.output);
                    (s.allocs.ops(), s.allocs.bytes)
                })
                .collect()
        };
        let first = pass();
        let second = pass();
        assert!(first.iter().all(|&(ops, _)| ops > 0));
        assert_eq!(first, second, "{}: allocation counts drifted", w.name());
    }
}
