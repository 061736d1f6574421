//! Order statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule for tail percentiles, and quartiles computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The 1-based nearest rank of percentile `p` (in `(0, 1]`) over `n`
/// samples: the smallest rank with at least a share `p` of the samples
/// at or below it.
pub fn rank(n: usize, p: f64) -> usize {
    // The slack keeps exact products (0.99 * 1000) from rounding up.
    let slack = f64::EPSILON * n as f64;
    ((p * n as f64 - slack).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Percentile `p`, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), p) >= MIN_BEYOND).then(|| percentile(sorted, p))
}

/// The median, averaging the two middle samples of an even count (as
/// Python's `statistics.median`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile with Python's default
/// (`exclusive`) method. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&ramp(1), 0.99), 1.0);
        assert_eq!(rank(1000, 0.99), 990);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&ramp(999), 0.99), None);
        assert_eq!(tail(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
    }
}
