//! Summary statistics: medians, quartiles, the tail-percentile rule and
//! error rates.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the benchmark's own spread figures match the ones a
/// reader computes from its printed values.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread measure a
/// metric's bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentile a latency tail is reported at, for `n` samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// True when the rule fell below p99 for lack of samples.
    pub fell_back: bool,
}

/// The highest percentile of p99, p90 and p50 that has at least ten of
/// `n` samples beyond it. With fewer than twenty samples no percentile
/// qualifies and the median is used. The ladder stops at p99 so that a
/// run with a few more samples than usual cannot switch to a rarer
/// percentile and jump.
pub fn tail_rule(n: usize) -> Tail {
    let percentile = [99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0);
    Tail { percentile, fell_back: percentile < 99.0 }
}

/// Nearest-rank percentile of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean of the samples beyond the nearest-rank `p`-th percentile of
/// `values` (the largest sample when none lies beyond it).
///
/// A heavy tail can put a cliff right at the percentile, so that the
/// percentile itself jumps with whether one sample more or less fell
/// beyond it; the mean of the samples beyond moves only as much as they
/// do.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail_mean(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let beyond = &v[rank.min(v.len() - 1)..];
    beyond.iter().sum::<f64>() / beyond.len() as f64
}

/// Failed operations over attempted ones.
///
/// # Panics
///
/// Panics when nothing was attempted or more failed than were tried.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "an error rate needs at least one attempted operation");
    assert!(failed <= attempted, "{failed} failures out of {attempted} attempts");
    failed as f64 / attempted as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), [1.5, 4.0, 8.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_rule(1000), Tail { percentile: 99.0, fell_back: false });
        assert_eq!(tail_rule(50_000), Tail { percentile: 99.0, fell_back: false });
        assert_eq!(tail_rule(999), Tail { percentile: 90.0, fell_back: true });
        assert_eq!(tail_rule(100), Tail { percentile: 90.0, fell_back: true });
        assert_eq!(tail_rule(99), Tail { percentile: 50.0, fell_back: true });
        assert_eq!(tail_rule(20), Tail { percentile: 50.0, fell_back: true });
        assert_eq!(tail_rule(11), Tail { percentile: 50.0, fell_back: true });
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_mean_averages_the_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 99.0), 995.5, "mean of 991..=1000");
        let v: Vec<f64> = (1..=102).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 90.0), 97.5, "mean of 93..=102");
        assert_eq!(tail_mean(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        assert_eq!(error_rate(10, 0), 0.0);
        assert_eq!(error_rate(8, 2), 0.25);
        assert!(std::panic::catch_unwind(|| error_rate(0, 0)).is_err());
        assert!(std::panic::catch_unwind(|| error_rate(1, 2)).is_err());
    }
}
