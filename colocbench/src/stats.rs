//! Order statistics shared by every workload.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based ceil rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank with at least `p`% of the samples at or
/// below it.
pub fn ceil_rank(n: usize, p: f64) -> usize {
    // The tiny epsilon keeps exact products (99% of 1000 = 990) from
    // rounding up on float error.
    ((p / 100.0 * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// How many of `n` samples lie strictly beyond the ceil-rank `p`th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ceil_rank(n, p)
}

/// The `p`th percentile of an ascending-sorted slice by ceil rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[ceil_rank(sorted.len(), p) - 1]
}

/// The highest of `candidates` (percentiles, any order) that keeps at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when even
/// the lowest does not.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
        .max_by(f64::total_cmp)
}

/// Fewest samples for which the ceil-rank `p`th percentile has
/// [`TAIL_SAMPLES`] samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= TAIL_SAMPLES)
        .expect("p < 100")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_rank_matches_definition() {
        assert_eq!(ceil_rank(1000, 99.0), 990);
        assert_eq!(ceil_rank(999, 99.0), 990);
        assert_eq!(ceil_rank(10, 50.0), 5);
        assert_eq!(ceil_rank(11, 50.0), 6);
        assert_eq!(ceil_rank(1, 99.9), 1);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let cands = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported_percentile(10_000, &cands), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999, &cands), Some(99.0));
        assert_eq!(highest_supported_percentile(1_000, &cands), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &cands), Some(90.0));
        assert_eq!(highest_supported_percentile(100, &cands), Some(90.0));
        assert_eq!(highest_supported_percentile(20, &cands), Some(50.0));
        assert_eq!(highest_supported_percentile(19, &cands), None);
    }

    #[test]
    fn percentile_reads_the_ceil_rank_sample() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
