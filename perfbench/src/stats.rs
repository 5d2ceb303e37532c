//! Order statistics over host-time samples.

/// Nearest-rank index (1-based) of the `pct`-th percentile of `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `n` is zero or `pct` exceeds 100.
pub fn rank(n: usize, pct: usize) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(pct <= 100, "percentile above 100");
    (n * pct).div_ceil(100).max(1)
}

/// The `pct`-th percentile of `sorted` (ascending), by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` exceeds 100.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples rank above the `pct`-th percentile sample.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// The fewest samples for which at least `k` rank above the `pct`-th
/// percentile (`pct` below 100).
#[cfg(test)]
pub fn min_samples(pct: usize, k: usize) -> usize {
    assert!(pct < 100, "no sample ranks above the maximum");
    (1..).find(|&n| beyond(n, pct) >= k).expect("some sample count suffices")
}

/// The median of `values`, by nearest rank (the lower middle of an even
/// count). Sorts `values` in place.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), 50.0);
        assert_eq!(percentile(&samples, 90), 90.0);
        assert_eq!(percentile(&samples, 99), 99.0);
        assert_eq!(percentile(&samples, 100), 100.0);
        assert_eq!(percentile(&samples, 0), 1.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        // 0.9 * 10 is not exactly 9 in floating point; integer ranks are.
        assert_eq!(rank(10, 90), 9);
        assert_eq!(rank(11, 90), 10);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(109, 90), 10);
        assert_eq!(beyond(1, 90), 0);
        assert_eq!(min_samples(90, 10), 100);
        assert_eq!(min_samples(50, 1), 2);
        for n in 1..500 {
            assert_eq!(beyond(n, 90) >= 10, n >= min_samples(90, 10), "n = {n}");
        }
    }

    #[test]
    fn median_sorts_and_picks_the_lower_middle() {
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
        assert_eq!(odd, [1.0, 2.0, 3.0]);
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.0);
    }

    #[test]
    #[should_panic(expected = "percentile of no samples")]
    fn empty_samples_panic() {
        percentile(&[], 50);
    }
}
