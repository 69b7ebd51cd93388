//! Property-based tests: codec roundtrips on arbitrary shapes and data.
//!
//! Cases come from the in-tree seeded PRNG ([`apc_par::SplitMix64`]) so
//! every run exercises the same inputs deterministically.

use apc_compress::{FloatCodec, Fpz, Lz77, Zfpx};
use apc_par::SplitMix64;

const CASES: usize = 64;

/// A small 3D array of finite floats mixing magnitudes (large, unit-scale,
/// zero and denormal-adjacent values).
fn arb_array(rng: &mut SplitMix64) -> (Vec<f32>, (usize, usize, usize)) {
    let shape = (1 + rng.below(7), 1 + rng.below(7), 1 + rng.below(7));
    let n = shape.0 * shape.1 * shape.2;
    let data = (0..n)
        .map(|_| match rng.below(4) {
            0 => rng.range_f32(-1e6, 1e6),
            1 => rng.range_f32(-1.0, 1.0),
            2 => 0.0,
            _ => rng.range_f32(-1e-12, 1e-12),
        })
        .collect();
    (data, shape)
}

fn garbage(rng: &mut SplitMix64) -> Vec<u8> {
    (0..rng.below(256)).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn fpz_roundtrip_is_bit_exact() {
    let mut rng = SplitMix64::new(0xC1);
    for case in 0..CASES {
        let (data, shape) = arb_array(&mut rng);
        let enc = Fpz.encode(&data, shape);
        let dec = Fpz.decode(&enc, shape).unwrap();
        assert_eq!(data.len(), dec.len(), "case {case}");
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn lz77_roundtrip_is_bit_exact() {
    let mut rng = SplitMix64::new(0xC2);
    for case in 0..CASES {
        let (data, shape) = arb_array(&mut rng);
        let enc = Lz77.encode(&data, shape);
        let dec = Lz77.decode(&enc, shape).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn zfpx_error_bounded() {
    let mut rng = SplitMix64::new(0xC3);
    for case in 0..CASES {
        let (data, shape) = arb_array(&mut rng);
        // Use a tolerance scaled to the data so the bound is meaningful for
        // any magnitude mix.
        let amax = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let tol = (amax * 1e-3).max(1e-20);
        let codec = Zfpx { tolerance: tol };
        let enc = codec.encode(&data, shape);
        let dec = codec.decode(&enc, shape).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert!(
                (a - b).abs() <= Zfpx::ERROR_ENVELOPE * tol,
                "case {case}: a={a} b={b} tol={tol}"
            );
        }
    }
}

#[test]
fn fpz_decode_never_panics_on_garbage() {
    let mut rng = SplitMix64::new(0xC4);
    for _ in 0..CASES {
        // Decoding arbitrary bytes must return Ok or Err, never panic.
        let _ = Fpz.decode(&garbage(&mut rng), (4, 4, 4));
    }
}

#[test]
fn lz77_decode_never_panics_on_garbage() {
    let mut rng = SplitMix64::new(0xC5);
    for _ in 0..CASES {
        let _ = Lz77.decode(&garbage(&mut rng), (4, 4, 4));
    }
}

#[test]
fn zfpx_decode_never_panics_on_garbage() {
    let mut rng = SplitMix64::new(0xC6);
    for _ in 0..CASES {
        let _ = Zfpx::default().decode(&garbage(&mut rng), (4, 4, 4));
    }
}
