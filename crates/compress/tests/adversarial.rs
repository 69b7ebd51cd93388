//! Adversarial codec property tests — the inputs `proptests.rs` skips.
//!
//! Five families, all driven by the in-tree seeded PRNG
//! ([`apc_par::SplitMix64`]) so every run replays the same cases:
//!
//! 1. **Special payloads** — NaN (several bit patterns), ±inf, -0.0 and
//!    subnormals. The lossless codecs must round-trip them bit-exactly;
//!    `zfpx` must never panic (it documents non-finite → 0).
//! 2. **Constant blocks** — including special constants, across shapes.
//! 3. **Degenerate shapes** — 1×1×1, the three 1×N×1-style pencils, and
//!    shapes with a zero axis (empty stream ⇄ empty vector).
//! 4. **Truncated streams** — a meaningful truncation yields
//!    `CodecError::Corrupt`, and garbage after it never panics. (The
//!    every-prefix and every-bit-flip sweep over all decoders is
//!    `tests/decoders_never_panic.rs`.)
//! 5. **Absurd shapes** — a shape no stream of that length could back
//!    (what a decoder is handed when the shape came out of damaged bytes)
//!    is a corrupt stream, decided before anything is allocated for it.

use apc_compress::{CodecError, FloatCodec, Fpz, Lz77, Zfpx};
use apc_par::SplitMix64;

type Shape = (usize, usize, usize);

const CASES: usize = 48;

fn lossless_codecs() -> [&'static dyn FloatCodec; 2] {
    [&Fpz, &Lz77]
}

fn all_codecs() -> [&'static dyn FloatCodec; 3] {
    const ZFPX: Zfpx = Zfpx { tolerance: 1e-2 };
    [&Fpz, &Lz77, &ZFPX]
}

/// A shape whose volume stays test-sized, biased toward degenerate axes.
fn arb_shape(rng: &mut SplitMix64) -> Shape {
    let axis = |rng: &mut SplitMix64| match rng.below(4) {
        0 => 1,
        _ => 1 + rng.below(8),
    };
    (axis(rng), axis(rng), axis(rng))
}

/// One sample drawn from a pool heavy in special values.
fn special_value(rng: &mut SplitMix64) -> f32 {
    match rng.below(10) {
        0 => f32::NAN,
        1 => f32::from_bits(0x7FC0_DEAD), // a non-canonical NaN payload
        2 => f32::from_bits(0xFFC0_0001), // negative NaN
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => -0.0,
        6 => f32::from_bits(rng.below(0x007F_FFFF) as u32 + 1), // subnormal
        7 => f32::MAX,
        8 => f32::MIN,
        _ => rng.range_f32(-1e3, 1e3),
    }
}

fn special_payload(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    (0..n).map(|_| special_value(rng)).collect()
}

fn assert_bit_exact(codec: &dyn FloatCodec, data: &[f32], shape: Shape, what: &str) {
    let enc = codec.encode(data, shape);
    let dec = codec
        .decode(&enc, shape)
        .unwrap_or_else(|e| panic!("{} failed to decode {what}: {e}", codec.name()));
    assert_eq!(dec.len(), data.len(), "{} length on {what}", codec.name());
    for (i, (a, b)) in data.iter().zip(&dec).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} not bit-exact on {what} at {i}: {a:?} vs {b:?}",
            codec.name()
        );
    }
}

#[test]
fn lossless_codecs_roundtrip_nan_inf_negzero_bit_exact() {
    let mut rng = SplitMix64::new(0xAD01);
    for case in 0..CASES {
        let shape = arb_shape(&mut rng);
        let data = special_payload(&mut rng, shape.0 * shape.1 * shape.2);
        for codec in lossless_codecs() {
            assert_bit_exact(
                codec,
                &data,
                shape,
                &format!("special case {case} {shape:?}"),
            );
        }
    }
}

#[test]
fn zfpx_never_panics_on_special_payloads() {
    let mut rng = SplitMix64::new(0xAD02);
    let codec = Zfpx::default();
    for case in 0..CASES {
        let shape = arb_shape(&mut rng);
        let data = special_payload(&mut rng, shape.0 * shape.1 * shape.2);
        let enc = codec.encode(&data, shape);
        let dec = codec.decode(&enc, shape).unwrap_or_else(|e| {
            panic!("zfpx rejected its own stream on case {case} {shape:?}: {e}")
        });
        // Documented sanitization: whatever comes back is finite.
        assert!(
            dec.iter().all(|v| v.is_finite()),
            "zfpx emitted a non-finite sample on case {case}"
        );
    }
}

#[test]
fn zfpx_bound_survives_nonfinite_neighbors() {
    // Block floating point makes the error bound relative to the block's
    // largest magnitude, so this family keeps finite values moderate and
    // checks that flushed NaN/inf neighbors don't break the bound for the
    // ordinary samples sharing their 4×4×4 block.
    let mut rng = SplitMix64::new(0xAD07);
    let codec = Zfpx::default();
    for case in 0..CASES {
        let shape = arb_shape(&mut rng);
        let data: Vec<f32> = (0..shape.0 * shape.1 * shape.2)
            .map(|_| match rng.below(6) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                _ => rng.range_f32(-1e3, 1e3),
            })
            .collect();
        let dec = codec
            .decode(&codec.encode(&data, shape), shape)
            .expect("zfpx decode");
        for (a, b) in data.iter().zip(&dec) {
            if a.is_finite() {
                assert!(
                    (a - b).abs() <= Zfpx::ERROR_ENVELOPE * codec.tolerance,
                    "case {case} {shape:?}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn constant_blocks_roundtrip_across_all_codecs() {
    let mut rng = SplitMix64::new(0xAD03);
    let constants = [
        0.0f32,
        -0.0,
        1.0,
        -42.5,
        f32::MAX,
        f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
        f32::NAN,
        f32::INFINITY,
    ];
    for &c in &constants {
        for _ in 0..4 {
            let shape = arb_shape(&mut rng);
            let data = vec![c; shape.0 * shape.1 * shape.2];
            for codec in lossless_codecs() {
                assert_bit_exact(codec, &data, shape, &format!("constant {c:?} {shape:?}"));
            }
            // zfpx: must decode cleanly; exact only for ordinary constants.
            let z = Zfpx::default();
            let dec = z
                .decode(&z.encode(&data, shape), shape)
                .expect("zfpx constant");
            if c.is_finite() && c.abs() < 1e3 && c.abs() >= 1e-3 || c == 0.0 {
                for v in &dec {
                    assert!(
                        (v - c).abs() <= Zfpx::ERROR_ENVELOPE * z.tolerance,
                        "zfpx constant {c}: got {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn degenerate_shapes_roundtrip() {
    let mut rng = SplitMix64::new(0xAD04);
    let mut shapes: Vec<Shape> = vec![(1, 1, 1)];
    for n in [2usize, 3, 5, 17] {
        shapes.extend([(n, 1, 1), (1, n, 1), (1, 1, n)]);
    }
    for &shape in &shapes {
        let n = shape.0 * shape.1 * shape.2;
        let smooth: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 1.0).collect();
        let noisy: Vec<f32> = (0..n).map(|_| rng.range_f32(-50.0, 50.0)).collect();
        for data in [&smooth, &noisy] {
            for codec in lossless_codecs() {
                assert_bit_exact(codec, data, shape, &format!("degenerate {shape:?}"));
            }
            let z = Zfpx { tolerance: 1e-3 };
            let dec = z
                .decode(&z.encode(data, shape), shape)
                .expect("zfpx degenerate");
            for (a, b) in data.iter().zip(&dec) {
                assert!(
                    (a - b).abs() <= Zfpx::ERROR_ENVELOPE * z.tolerance,
                    "{shape:?}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn zero_dimension_shapes_are_empty_both_ways() {
    // No samples: nothing to emit and nothing to read — in particular no
    // row walk over rows of length zero.
    let shapes: [Shape; 6] = [
        (0, 5, 4),
        (6, 0, 4),
        (6, 5, 0),
        (0, 0, 3),
        (0, 7, 0),
        (0, 0, 0),
    ];
    for shape in shapes {
        for codec in all_codecs() {
            let enc = codec.encode(&[], shape);
            assert!(enc.is_empty(), "{} {shape:?}: {enc:?}", codec.name());
            assert_eq!(codec.decode(&enc, shape), Ok(vec![]), "{shape:?}");
        }
    }
}

/// Noisy data large enough that every codec emits a stream with real
/// content in both halves.
fn noisy_block(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.range_f32(-1e4, 1e4)).collect()
}

#[test]
fn half_truncated_streams_are_corrupt() {
    let mut rng = SplitMix64::new(0xAD05);
    let shape = (6, 5, 4);
    let n = shape.0 * shape.1 * shape.2;
    for codec in all_codecs() {
        for case in 0..8 {
            let data = noisy_block(&mut rng, n);
            let enc = codec.encode(&data, shape);
            assert!(enc.len() > 8, "{} stream suspiciously small", codec.name());
            // A meaningful truncation (half the stream gone) must be
            // reported as a corrupt stream.
            let half = codec.decode(&enc[..enc.len() / 2], shape);
            assert!(
                matches!(half, Err(CodecError::Corrupt(_))),
                "{} case {case}: half-truncation gave {half:?}",
                codec.name()
            );
            // A prefix with trailing garbage appended must decode
            // without panicking.
            let mut mangled = enc[..enc.len() / 2].to_vec();
            mangled.extend((0..rng.below(32)).map(|_| rng.next_u64() as u8));
            let _ = codec.decode(&mangled, shape);
        }
    }
}

/// Sized from the shape, each of these took the process down — an
/// allocation of 2⁶² bytes aborts, it does not unwind — so a regression
/// here kills the test binary rather than failing one assert.
#[test]
fn shapes_the_stream_cannot_back_are_corrupt_before_any_allocation() {
    let absurd: [Shape; 4] = [
        (1 << 20, 1 << 20, 1 << 20),
        (usize::MAX, usize::MAX, 2), // the count itself overflows
        (1 << 14, 1 << 14, 1),       // a bit-flipped 2²⁸-pixel frame header
        (1, 1, 129),                 // one sample more than 16 bytes have bits
    ];
    let streams: [&[u8]; 3] = [&[0xff; 8], &[0x00; 16], &[]];
    let underrun = Err(CodecError::Corrupt("bitstream underrun"));
    for shape in absurd {
        for stream in streams {
            assert_eq!(Fpz.decode(stream, shape), underrun, "fpz {shape:?}");
            let lz = Lz77.decode(stream, shape);
            assert!(matches!(lz, Err(CodecError::Corrupt(_))), "lz {shape:?}");
        }
    }
    // zfpx spends its minimum per 4×4×4 block, so its last case is one
    // block more than 16 bytes have bits.
    for shape in [absurd[0], absurd[1], absurd[2], (4, 4, 4 * 129)] {
        for stream in streams {
            let zfpx = Zfpx::default().decode(stream, shape);
            assert_eq!(zfpx, underrun, "zfpx {shape:?}");
        }
    }
}
