//! Order statistics under one rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples of the run lie beyond it, so a tail number
//! is never one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The index of the `p`-th nearest rank among `len >= 1` ordered values.
pub fn rank_index(len: usize, p: f64) -> usize {
    (((p / 100.0) * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// The `p`-th percentile (`0 < p < 100`) of ascending `sorted` by the
/// nearest-rank rule; `None` for no samples.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    sorted.get(rank_index(sorted.len().max(1), p)).copied()
}

/// Whether `len` samples leave at least [`MIN_BEYOND`] beyond their
/// `p`-th percentile.
pub fn supports(len: usize, p: f64) -> bool {
    len >= 1 && len - 1 - rank_index(len, p) >= MIN_BEYOND
}

/// The fewest samples that support `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..).find(|&n| supports(n, p)).expect("some n suffices")
}

/// The median of unsorted samples (upper median for even counts); 0 for
/// none, which every caller rules out by construction.
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or(0)
}

/// The median of unsorted float samples.
pub fn median_f64(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(0.0)
}

/// Nanoseconds to microseconds, keeping the fraction.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(199, 95.0), "199 samples leave 9 beyond p95");
        assert!(supports(200, 95.0), "200 samples leave exactly 10");
        assert!(supports(200, 50.0) && !supports(200, 99.0));
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
        assert!(!supports(0, 50.0));
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&v, 95.0), Some(190));
        assert_eq!(nearest_rank(&v, 50.0), Some(100));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn sample_floors() {
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [5, 1, 9]), 5);
        assert_eq!(median(&mut [4, 1, 9, 7]), 7);
        assert_eq!(median_f64(&mut [0.5, 0.1, 0.9]), 0.5);
    }
}
