//! Sample summaries: the median every timing is reported as, and the
//! tail rule of the `choosing-metrics` guide.

/// Percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile (`p` in 0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it,
/// as `(percentile, value)`. `None` under 20 samples, where not even
/// the median leaves ten beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&p| (p, percentile(samples, p)))
}

/// Interquartile range over median, as the benchmark contract computes
/// it (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Python's exclusive method: position k(n+1)/4, 1-based, clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(3) - q(1)) / q(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(216)), Some((95.0, 206.0)), "216 * 0.05 = 10.8");
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)), "exactly ten beyond");
        assert_eq!(tail(&ramp(199)).unwrap().0, 90.0, "p95 needs 200");
        assert_eq!(tail(&ramp(1000)).unwrap().0, 99.0);
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
    }

    #[test]
    fn no_tail_without_the_samples_for_one() {
        assert_eq!(
            tail(&ramp(39)),
            Some((50.0, 20.0)),
            "only the median qualifies"
        );
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = quartile_spread(&ramp(10));
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
    }
}
