//! Sample statistics: medians, nearest-rank percentiles and the choice
//! of which tail percentile a sample set can support.

/// Tail percentiles the benchmark may report, in per-mille, highest
/// first.
const TAIL_CANDIDATES: [u32; 4] = [999, 990, 900, 500];

/// Samples a percentile must leave above it before it is reported.
const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly above the nearest-rank `per_mille` percentile of
/// `n` samples.
fn beyond(n: usize, per_mille: u32) -> usize {
    n - (n * per_mille as usize).div_ceil(1000)
}

/// The highest reportable tail percentile (per-mille) for `n` samples:
/// the highest candidate with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The nearest-rank `per_mille` percentile of `xs`, or `None` when the
/// samples cannot support it (fewer than [`MIN_BEYOND`] beyond it).
pub fn percentile(xs: &[f64], per_mille: u32) -> Option<f64> {
    let n = xs.len();
    if n == 0 || beyond(n, per_mille) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (n * per_mille as usize).div_ceil(1000).max(1);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_choice_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median leaves 10 above it.
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(percentile(&xs, 500), Some(50.0));
        assert_eq!(percentile(&xs, 990), None);
        assert_eq!(percentile(&xs[..99], 900), None);
        assert_eq!(percentile(&[], 500), None);
    }
}
