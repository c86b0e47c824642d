//! Best-of-R folding and nearest-rank percentiles.

/// Nearest-rank index of the `pct`-th percentile in a sorted sample of
/// `n > 0` values: the smallest index with at least `pct`% of the sample at
/// or below it. For `n ≥ 100` the p90 leaves at least ten samples beyond it.
///
/// # Panics
///
/// Panics if `n` is zero or `pct` exceeds 100.
pub fn rank_index(n: usize, pct: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(pct <= 100, "percentile above 100");
    (n * pct).div_ceil(100).max(1) - 1
}

/// The `pct`-th nearest-rank percentile of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    sorted[rank_index(sorted.len(), pct)]
}

/// Harrell–Davis estimate of the `pct`-th percentile of `values`: the mean
/// of all order statistics, the `i`-th weighted by the mass that
/// Beta((n+1)p, (n+1)(1−p)) puts on `[(i−1)/n, i/n]`. A single order
/// statistic jumps when the percentile falls in a gap between two clusters
/// of values, as it does for inputs mixing machine shapes of different
/// cost; this estimate moves smoothly instead.
///
/// # Panics
///
/// Panics if `values` is empty, holds a NaN, or `pct` is not in 1..=99.
pub fn harrell_davis(values: &[f64], pct: usize) -> f64 {
    assert!((1..=99).contains(&pct), "percentile outside 1..=99");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    let p = pct as f64 / 100.0;
    let (a, b) = ((n + 1) as f64 * p, (n + 1) as f64 * (1.0 - p));
    // Midpoint rule over STEPS points per rank interval, in log space and
    // normalized numerically, so no Beta function is needed.
    const STEPS: usize = 16;
    let points = n * STEPS;
    let log_density: Vec<f64> = (0..points)
        .map(|j| {
            let x = (j as f64 + 0.5) / points as f64;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for (j, l) in log_density.iter().enumerate() {
        weights[j / STEPS] += (l - peak).exp();
    }
    let total: f64 = weights.iter().sum();
    sorted.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>() / total
}

/// Folds one pass into the running per-input best (the minimum over
/// passes so far). A host slowdown that lands on some passes is filtered
/// out as long as one pass per input escaped it.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn keep_min<T: PartialOrd + Copy>(best: &mut [T], pass: &[T]) {
    assert_eq!(best.len(), pass.len(), "a pass covers every input");
    for (b, &p) in best.iter_mut().zip(pass) {
        if p < *b {
            *b = p;
        }
    }
}
