//! Order statistics under the benchmark's percentile rule: a percentile,
//! the median included, is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it, so no reported figure rests on a handful of
//! samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples whose median the rule allows.
pub const MEDIAN_SAMPLES: usize = 2 * MIN_BEYOND;

/// Samples strictly beyond the `q` quantile of `n` samples (the small
/// slack absorbs rounding in `1 - q`, e.g. `100 * (1 - 0.9)`).
fn beyond(n: usize, q: f64) -> usize {
    ((n as f64) * (1.0 - q) + 1e-9).floor() as usize
}

/// The `q` quantile (linear interpolation between closest ranks) of
/// `samples`, or `None` when the rule forbids it: fewer than
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.5..=1.0).contains(&q), "quantile {q} outside [0.5, 1]");
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`; `0.0` when the rule forbids it (fewer than
/// [`MEDIAN_SAMPLES`]). Used for per-layer medians, whose sample count
/// depends on how much work a run did.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// The highest quantile not above `q` that the rule allows for
/// `samples`, at least the median; `0.0` when not even the median is
/// allowed. Used for per-layer tails such as `p99`.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    let allowed = 1.0 - MIN_BEYOND as f64 / n.max(1) as f64;
    percentile(samples, q.min(allowed).max(0.5)).unwrap_or(0.0)
}

/// Nanosecond samples as seconds.
pub fn secs(nanos: &[u64]) -> Vec<f64> {
    nanos.iter().map(|&n| n as f64 * 1e-9).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.5));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(median(&ramp(MEDIAN_SAMPLES - 1)), 0.0);
        assert_eq!(median(&ramp(MEDIAN_SAMPLES)), 10.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples has 9 beyond it: refused; of 100, exactly 10.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert!(percentile(&ramp(100), 0.9).is_some());
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert!(percentile(&ramp(1000), 0.99).is_some());
    }

    #[test]
    fn tail_clamps_to_the_highest_allowed_quantile() {
        // 40 samples allow at most the 0.75 quantile.
        let samples = ramp(40);
        assert_eq!(tail(&samples, 0.99), percentile(&samples, 0.75).unwrap());
        // 20 samples allow no tail: the median.
        assert_eq!(tail(&ramp(20), 0.9), median(&ramp(20)));
        // Fewer than 20 allow nothing.
        assert_eq!(tail(&ramp(15), 0.9), 0.0);
        // Enough samples: the quantile asked for.
        let big = ramp(2000);
        assert_eq!(tail(&big, 0.99), percentile(&big, 0.99).unwrap());
        assert_eq!(tail(&[], 0.99), 0.0);
    }
}
