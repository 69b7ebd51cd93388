//! Shared latency statistics for the serving executors.
//!
//! Both executors' run summaries ([`crate::ServeReport`]) and every
//! per-stager `BudgetController` window report tail latencies through the
//! same **nearest-rank** percentile. A drift in the rounding convention
//! between copies would silently skew the perf-gate comparisons that
//! consume these numbers, so it lives here once.

/// The `p`-th percentile (0–100) of `values`, by the nearest-rank rule
/// `idx = round(p/100 · (n−1))` over the sorted samples.
///
/// An empty sample set yields `0.0` (the executors' convention for "no
/// requests served"). NaN samples are rejected loudly: a NaN latency
/// means a virtual-time accounting bug upstream, and letting
/// `total_cmp` quietly sort it to the top would corrupt every tail
/// statistic derived from the window.
pub fn percentile(values: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = values.into_iter().collect();
    assert!(
        sorted.iter().all(|v| !v.is_nan()),
        "NaN latency in percentile input: virtual-time accounting bug upstream"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(percentile(std::iter::empty(), 50.0), 0.0);
        assert_eq!(percentile(vec![], 99.0), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile([7.25], p), 7.25);
        }
    }

    #[test]
    fn p0_and_p100_are_min_and_max() {
        let lat = [9.0, 1.0, 4.0, 2.5, 100.0];
        assert_eq!(percentile(lat, 0.0), 1.0);
        assert_eq!(percentile(lat, 100.0), 100.0);
    }

    #[test]
    fn nearest_rank_rounds_to_the_closest_sorted_index() {
        // Four samples: p50 → round(0.5·3) = 2 → third-smallest.
        assert_eq!(percentile([4.0, 1.0, 3.0, 2.0], 50.0), 3.0);
        // Five samples: p50 → round(0.5·4) = 2 → the median.
        assert_eq!(percentile([5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        // p99 of 100 evenly spread samples is the 99th-smallest.
        let lat: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(lat, 99.0), 98.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_p_is_rejected() {
        let _ = percentile([1.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "NaN latency")]
    fn nan_latency_is_rejected() {
        let _ = percentile([1.0, f64::NAN, 2.0], 50.0);
    }

    #[test]
    fn negative_and_infinite_samples_still_order_totally() {
        // Infinities are orderable (only NaN is a bug); they land at the
        // extremes like any other sample.
        assert_eq!(percentile([f64::INFINITY, 1.0, -2.0], 0.0), -2.0);
        assert_eq!(percentile([f64::INFINITY, 1.0, -2.0], 100.0), f64::INFINITY);
    }
}
