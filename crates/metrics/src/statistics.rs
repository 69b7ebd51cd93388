//! Statistical metrics: RANGE and VAR (paper §IV-B-a).

use apc_grid::Dims3;

use crate::BlockScorer;

/// RANGE: difference between the maximum and minimum value in the block.
///
/// Cheap, but blind to high-frequency variation inside a narrow value band
/// (the paper's stated limitation).
#[derive(Debug, Clone, Copy, Default)]
pub struct Range;

impl BlockScorer for Range {
    fn name(&self) -> &'static str {
        "RANGE"
    }

    fn score(&self, data: &[f32], _dims: Dims3) -> f64 {
        let mut it = data.iter().copied().filter(|v| !v.is_nan());
        let Some(first) = it.next() else { return 0.0 };
        let (mut lo, mut hi) = (first, first);
        for v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        (hi - lo) as f64
    }

    fn cost_per_point(&self) -> f64 {
        // A single min/max scan. NOTE: the paper measured its RANGE filter
        // slower than FPZIP (Table I), an artifact of their implementation;
        // ours is the straightforward scan.
        2.0e-8
    }
}

/// Running sums kept side by side in [`lane_sum`].
const LANES: usize = 8;

/// Σ `term(v)` over `data` in one fixed order: [`LANES`] running sums over
/// the whole chunks, folded as a balanced tree, then the tail in sequence.
/// The order is written out rather than left to the optimiser, so debug and
/// release builds on every target add the same values in the same order and
/// produce the same bits — and no sum waits on the one before it.
#[inline]
fn lane_sum(data: &[f32], term: impl Fn(f64) -> f64) -> f64 {
    let chunks = data.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut lanes = [0.0f64; LANES];
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane += term(f64::from(v));
        }
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    let mut sum = ((a + b) + (c + d)) + ((e + f) + (g + h));
    for &v in tail {
        sum += term(f64::from(v));
    }
    sum
}

/// VAR: population variance of the block's samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variance;

impl BlockScorer for Variance {
    fn name(&self) -> &'static str {
        "VAR"
    }

    fn score(&self, data: &[f32], _dims: Dims3) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        // Two passes: the mean, then the squared deviations from it. A
        // constant block scores exactly zero — its sum is exact in f64 (a
        // block's few thousand equal f32 values need well under 53 bits),
        // so the mean is the value itself and every deviation is 0.
        let n = data.len() as f64;
        let mean = lane_sum(data, |v| v) / n;
        lane_sum(data, |v| (v - mean) * (v - mean)) / n
    }

    fn cost_per_point(&self) -> f64 {
        4.9e-8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{gradient, noise};

    const DIMS: Dims3 = Dims3::new(5, 5, 4);

    #[test]
    fn range_basics() {
        assert_eq!(Range.score(&[], DIMS), 0.0);
        assert_eq!(Range.score(&[3.0], DIMS), 0.0);
        assert_eq!(Range.score(&[-2.0, 5.0, 1.0], DIMS), 7.0);
        assert_eq!(Range.score(&[4.0; 100], DIMS), 0.0);
    }

    #[test]
    fn range_ignores_nan() {
        assert_eq!(Range.score(&[1.0, f32::NAN, 3.0], DIMS), 2.0);
    }

    #[test]
    fn variance_basics() {
        assert_eq!(Variance.score(&[], DIMS), 0.0);
        assert_eq!(Variance.score(&[5.0; 50], DIMS), 0.0);
        let v = Variance.score(&[1.0, 3.0], DIMS);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_matches_sequential_two_pass() {
        let data = noise(1000, 10.0, 3);
        let mean: f64 = data.iter().map(|&v| v as f64).sum::<f64>() / 1000.0;
        let two_pass: f64 = data.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / 1000.0;
        let lanes = Variance.score(&data, DIMS);
        assert!((lanes - two_pass).abs() < 1e-9 * two_pass.max(1.0));
    }

    #[test]
    fn noisy_blocks_outscore_flat_blocks() {
        let flat = vec![1.0f32; DIMS.len()];
        let grad = gradient(DIMS);
        let noisy = noise(DIMS.len(), 5.0, 1);
        for scorer in [&Range as &dyn BlockScorer, &Variance] {
            let sf = scorer.score(&flat, DIMS);
            let sg = scorer.score(&grad, DIMS);
            let sn = scorer.score(&noisy, DIMS);
            assert!(sf < sg, "{}: flat {sf} < gradient {sg}", scorer.name());
            assert!(sf < sn, "{}: flat {sf} < noise {sn}", scorer.name());
        }
    }

    #[test]
    fn range_misses_small_band_variation() {
        // The paper's caveat: high variation within a small range scores low
        // under RANGE but higher under VAR relative to a smooth wide ramp.
        let wiggle: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let ramp: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert!(Range.score(&wiggle, DIMS) < Range.score(&ramp, DIMS));
    }
}
