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
/// produce the same bits — and no sum waits on the one before it. The AVX2
/// path (`avx2::lane_sum`) keeps this order lane for lane, so either path
/// gives the same score bits; `tests::avx2_kernel_is_the_portable_kernel`
/// holds them to that.
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

/// Population variance in two passes: the mean, then the squared deviations
/// from it. A constant block scores exactly zero — its sum is exact in f64 (a
/// block's few thousand equal f32 values need well under 53 bits), so the
/// mean is the value itself and every deviation is 0.
fn variance(data: &[f32]) -> f64 {
    let n = data.len() as f64;
    let mean = lane_sum(data, |v| v) / n;
    lane_sum(data, |v| (v - mean) * (v - mean)) / n
}

/// [`variance`] on 256-bit registers, picked at run time: lanes 0–3 of
/// [`lane_sum`] in one `__m256d`, lanes 4–7 in another, each half-chunk
/// widened by `vcvtps2pd`, no fused multiply-add, then the same fold and the
/// same sequential tail. Every sum adds the same two values as the portable
/// kernel, so the bits are the same.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_cvtps_pd, _mm256_cvtsd_f64,
        _mm256_extractf128_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_sub_pd,
        _mm_cvtsd_f64, _mm_set_ps, _mm_unpackhi_pd,
    };

    use super::LANES;

    /// The variance of `data` if this CPU has AVX2, else `None`.
    pub(super) fn variance(data: &[f32]) -> Option<f64> {
        std::arch::is_x86_feature_detected!("avx2").then(|| {
            // SAFETY: the CPU was just found to support AVX2, the only
            // feature `kernel` enables.
            unsafe { kernel(data) }
        })
    }

    #[target_feature(enable = "avx2")]
    fn kernel(data: &[f32]) -> f64 {
        let n = data.len() as f64;
        let mean = lane_sum(data, |v| v) / n;
        let mean = _mm256_set1_pd(mean);
        lane_sum(data, |v| {
            let d = _mm256_sub_pd(v, mean);
            _mm256_mul_pd(d, d)
        }) / n
    }

    /// `super::lane_sum` with `term` applied to four lanes at a time; the
    /// tail goes through `term` in lane 0 alone.
    #[target_feature(enable = "avx2")]
    fn lane_sum(data: &[f32], term: impl Fn(__m256d) -> __m256d) -> f64 {
        let chunks = data.chunks_exact(LANES);
        let tail = chunks.remainder();
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for chunk in chunks {
            let (low, high) = chunk.split_at(LANES / 2);
            lo = _mm256_add_pd(lo, term(widen(low)));
            hi = _mm256_add_pd(hi, term(widen(high)));
        }
        let [a, b, c, d] = unpack(lo);
        let [e, f, g, h] = unpack(hi);
        let mut sum = ((a + b) + (c + d)) + ((e + f) + (g + h));
        for &v in tail {
            sum += _mm256_cvtsd_f64(term(_mm256_set1_pd(f64::from(v))));
        }
        sum
    }

    /// `v[..4]` widened to f64, `v[0]` in lane 0.
    #[target_feature(enable = "avx2")]
    fn widen(v: &[f32]) -> __m256d {
        _mm256_cvtps_pd(_mm_set_ps(v[3], v[2], v[1], v[0]))
    }

    /// The four lanes of `v`, lowest first.
    #[target_feature(enable = "avx2")]
    fn unpack(v: __m256d) -> [f64; 4] {
        let (low, high) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        [
            _mm_cvtsd_f64(low),
            _mm_cvtsd_f64(_mm_unpackhi_pd(low, low)),
            _mm_cvtsd_f64(high),
            _mm_cvtsd_f64(_mm_unpackhi_pd(high, high)),
        ]
    }
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
        #[cfg(target_arch = "x86_64")]
        if let Some(score) = avx2::variance(data) {
            return score;
        }
        variance(data)
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

    /// Blocks for the parity test: every lane-loop length class (0–17
    /// covers tail only, one chunk, chunk + tail, two chunks + tail; 64,
    /// 1000 and the paper's 11×11×19 = 2299) × `var_pin.rs`'s contents
    /// (noise over the dBZ range, a jittered ramp, a narrow band), then each
    /// special value alone, at the front, in the middle and at the back of
    /// the noise, and as a constant block.
    #[cfg(target_arch = "x86_64")]
    fn parity_cases() -> Vec<Vec<f32>> {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234), // NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007f_ffff), // largest subnormal, negated
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            45.000_004,
        ];
        let mut rng = apc_par::SplitMix64::new(0x7A2_9A55);
        let mut out = Vec::new();
        for n in (0..=17).chain([64, 1000, 2299]) {
            let noise: Vec<f32> = (0..n).map(|_| rng.range_f32(-60.0, 80.0)).collect();
            let (base, slope) = (rng.range_f32(-60.0, 0.0), rng.range_f32(0.0, 0.05));
            out.push(
                (0..n)
                    .map(|i| base + slope * i as f32 + rng.range_f32(-0.5, 0.5))
                    .collect(),
            );
            out.push((0..n).map(|_| 45.0 + rng.range_f32(-1e-2, 1e-2)).collect());
            for s in specials {
                out.push(vec![s; n]);
                if n > 0 {
                    for at in [0, n / 2, n - 1] {
                        let mut data = noise.clone();
                        data[at] = s;
                        out.push(data);
                    }
                }
            }
            // Two specials meeting: ∞ − ∞ and NaN against ∞ in one block.
            if n >= 2 {
                for (x, y) in [
                    (f32::INFINITY, f32::NEG_INFINITY),
                    (f32::NAN, f32::INFINITY),
                ] {
                    let mut data = noise.clone();
                    (data[0], data[n - 1]) = (x, y);
                    out.push(data);
                }
            }
            out.push(noise);
        }
        out
    }

    #[test]
    fn avx2_kernel_is_the_portable_kernel() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            for data in parity_cases() {
                let (fast, portable) = (avx2::variance(&data), variance(&data));
                assert_eq!(
                    fast.map(f64::to_bits),
                    Some(portable.to_bits()),
                    "{} samples: AVX2 {fast:?} vs portable {portable:e} on {:?}",
                    data.len(),
                    &data[..data.len().min(17)]
                );
            }
            return;
        }
        eprintln!("skipped: this CPU has no AVX2 kernel to compare");
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
