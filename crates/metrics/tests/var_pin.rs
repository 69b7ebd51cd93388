//! VAR pin: what the lane-split two-pass variance must keep.
//!
//! The score's *order* is the paper-visible output (the global sort), its
//! exact zeros on constant blocks are what keep clear air tied at the
//! bottom of that order, and its last bits depend on the lane count and
//! the reduction tree of `statistics::lane_sum`. So: exact zeros and NaN
//! propagation are asserted, agreement with Welford's recurrence (the
//! implementation this replaced; the reference below is its only copy) is
//! bounded, and the score bits over a replayable corpus are pinned as one
//! FNV-1a digest — a change of lane count or tree shows up here as a diff,
//! not as a silently reordered sort. A digest change is legitimate only
//! with the order fence re-checked (`crates/bench/tests/golden/*` and the
//! benchmark's report digests).

use apc_cm1::ReflectivityDataset;
use apc_grid::Dims3;
use apc_metrics::{BlockScorer, Variance};
use apc_par::SplitMix64;

/// Scores never look at the shape.
const DIMS: Dims3 = Dims3::new(1, 1, 1);

const PINNED: u64 = 0x6d34_fcca_1791_f365;

fn var(data: &[f32]) -> f64 {
    Variance.score(data, DIMS)
}

/// Welford's online recurrence — one dependent divide per sample.
fn welford(data: &[f32]) -> f64 {
    let (mut mean, mut m2) = (0.0f64, 0.0f64);
    for (count, &v) in data.iter().enumerate() {
        let v = f64::from(v);
        let delta = v - mean;
        mean += delta / (count + 1) as f64;
        m2 += delta * (v - mean);
    }
    m2 / data.len() as f64
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Block-like arrays: every length class of the lane loop (tail only, one
/// chunk exactly, chunk + tail, a paper-scale 11×11×19 block) × reflectivity-
/// like contents (noise over the dBZ range, a smooth ramp, a narrow band).
fn corpus() -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(0x7A2_9A55);
    let mut out = Vec::new();
    for n in [1usize, 7, 8, 9, 64, 1000, 2299] {
        out.push((0..n).map(|_| rng.range_f32(-60.0, 80.0)).collect());
        let (base, slope) = (rng.range_f32(-60.0, 0.0), rng.range_f32(0.0, 0.05));
        out.push(
            (0..n)
                .map(|i| base + slope * i as f32 + rng.range_f32(-0.5, 0.5))
                .collect(),
        );
        out.push((0..n).map(|_| 45.0 + rng.range_f32(-1e-2, 1e-2)).collect());
    }
    out
}

fn storm_blocks() -> Vec<Vec<f32>> {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    (0..4)
        .flat_map(|rank| dataset.rank_blocks(300, rank))
        .map(|b| b.samples().into_owned())
        .collect()
}

#[test]
fn constant_blocks_score_exactly_zero() {
    let values = [
        0.0f32,
        -0.0,
        1.0,
        -37.25,
        45.000_004,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
    ];
    for n in [1usize, 7, 8, 9, 2299] {
        for v in values {
            let score = var(&vec![v; n]);
            assert_eq!(score.to_bits(), 0, "{n} × {v:e} scored {score:e}");
        }
    }
}

#[test]
fn nan_in_nan_out() {
    for n in [1usize, 7, 8, 9, 2299] {
        for at in [0, n / 2, n - 1] {
            let mut data = vec![12.5f32; n];
            data[at] = f32::NAN;
            assert!(var(&data).is_nan(), "NaN at {at} of {n}");
        }
    }
}

#[test]
fn agrees_with_welford_and_keeps_its_bits() {
    let storm = storm_blocks();
    assert_eq!(storm.len(), 128);
    let mut bits = Vec::new();
    let mut positive = 0;
    for data in corpus().iter().chain(&storm) {
        let (score, reference) = (var(data), welford(data));
        assert!(
            (score - reference).abs() <= 1e-12 * reference,
            "{} samples: {score:e} vs Welford {reference:e}",
            data.len()
        );
        // Welford's exact zeros (constant clear-air blocks) stay exact.
        assert_eq!(score == 0.0, reference == 0.0);
        positive += usize::from(score > 0.0);
        bits.extend(score.to_bits().to_le_bytes());
    }
    assert!(
        positive > 30,
        "only {positive} varying blocks in the corpus"
    );
    let digest = fnv1a(bits);
    assert_eq!(
        digest, PINNED,
        "VAR score bits moved: {digest:#018x} (see the module comment before pinning it)"
    );
}
