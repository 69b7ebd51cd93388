//! Format pin: the exact bytes every codec emits, as 64-bit FNV-1a digests.
//!
//! Stored chunks, served frames and the FPZIP score all depend on the
//! emitted bytes, so a change to the coders (bit I/O, predictor, match
//! search) must reproduce every digest below. The constants were generated
//! on the code *before* the word-at-a-time bit I/O and the padded-field
//! Lorenzo kernel landed; a mismatch prints the whole actual table in
//! source form, but pasting it is a format change — every stored run and
//! every golden fixture moves with it.
//!
//! The corpus comes from the in-tree [`SplitMix64`], so it replays
//! everywhere: six shapes (a point, two planes, an odd box that is no
//! multiple of `zfpx`'s 4×4×4 block, a frame-like sheet, a cube) × four
//! contents (smooth, noise, constant, IEEE-754 specials).

use apc_compress::{FloatCodec, Fpz, Lz77, Zfpx};
use apc_par::SplitMix64;

type Shape = (usize, usize, usize);

const SHAPES: [Shape; 6] = [
    (1, 1, 1),
    (6, 5, 1),
    (1, 6, 5),
    (11, 11, 19),
    (40, 40, 1),
    (8, 8, 8),
];

const CONTENTS: [&str; 4] = ["smooth", "noise", "constant", "specials"];

/// `[fpz, zfpx(1e-2), lz77]` digests, one row per (shape, content) in
/// `SHAPES` × `CONTENTS` order.
const PINNED: [[u64; 3]; 24] = [
    [0xf4d38732495cfbfe, 0x00f15b0bc01ceb30, 0xa5404122232009e3], // (1, 1, 1) smooth
    [0x52ee8128d9509c3f, 0xd3a56ef9d00d87fa, 0x43dae1394d3f0e60], // (1, 1, 1) noise
    [0xf9942b5ca3d1b76a, 0x460e5df75ad0a0c6, 0x042dde0af6e890d7], // (1, 1, 1) constant
    [0x1aa50b24b3fdb3d7, 0xaf63bd4c8601b7df, 0x514c94d2dab6114a], // (1, 1, 1) specials
    [0x07767a6e3efd0108, 0x7019dc19d709746e, 0x895d51da04ace3b9], // (6, 5, 1) smooth
    [0xdf34c0dad5341ba0, 0x6fb49cbc91720fcc, 0x4f881220cc0705d0], // (6, 5, 1) noise
    [0x417b53d55f1947f3, 0x8b6d1805718b272b, 0x01e950f23aae0a00], // (6, 5, 1) constant
    [0x94da7648dd16f5b0, 0xefb530318c897e33, 0x699a31ce705a0a77], // (6, 5, 1) specials
    [0x008c27fe914fd3f7, 0x552e744c3b68673d, 0x00133bde3c8ba5c9], // (1, 6, 5) smooth
    [0x46b7aaf66abb963e, 0x7d90b1d13a94531d, 0xdf22d721f516d1c5], // (1, 6, 5) noise
    [0x31c89dc3aa877bec, 0x373e78cc4ea19b39, 0xc11c577c00cf9ec1], // (1, 6, 5) constant
    [0x0307ecf2e5c6fc37, 0x0237c3e3d3b9f547, 0x42b5b77198f888c0], // (1, 6, 5) specials
    [0x3b9a914f3cac91b3, 0xaf562ed2b6b69402, 0x5cbe6c7e30fb354e], // (11, 11, 19) smooth
    [0x29f0e1343526818c, 0x7b9df44420326c2f, 0x26fab982a6fa0eef], // (11, 11, 19) noise
    [0xb3128e68e52eab37, 0xeec1e37c5cea747c, 0xfe229d6b43cf4432], // (11, 11, 19) constant
    [0x987f6a319eee1729, 0x701ab802ffa2c12b, 0x1b3dba21491dda18], // (11, 11, 19) specials
    [0x198cda3069157d39, 0xe3b21124d2becdfc, 0x8d7f183c048d2fe9], // (40, 40, 1) smooth
    [0x6b2e1e6f6a69bd3e, 0x0e29b8b633c49bc8, 0x6663451e2d901a5a], // (40, 40, 1) noise
    [0x22c26dd2501b6939, 0x50d719b2870d492b, 0x30d8cd5715824ccf], // (40, 40, 1) constant
    [0x067766abad6f746a, 0x8804baebd9d4c2c0, 0x6ec110d3de126288], // (40, 40, 1) specials
    [0xe2896129aae2bc43, 0xedaca304d4d89a0e, 0x6c42238bf2b17520], // (8, 8, 8) smooth
    [0xda3b300837aac6fa, 0x4d5f7ef6bdf6d4e7, 0x4eb57e1b86df4915], // (8, 8, 8) noise
    [0x325cb0a864d815d6, 0x4613f822c4a2e67d, 0x6506df6f224a8972], // (8, 8, 8) constant
    [0xcbc78dc0bfd66f5d, 0x081a05cb9655ce77, 0xace989c8624641c4], // (8, 8, 8) specials
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn special(rng: &mut SplitMix64) -> f32 {
    match rng.below(8) {
        0 => f32::NAN,
        1 => f32::from_bits(0xFFC0_0001), // negative NaN with a payload
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => -0.0,
        5 => f32::from_bits(rng.below(0x007F_FFFF) as u32 + 1), // subnormal
        6 => f32::MAX,
        _ => rng.range_f32(-1e3, 1e3),
    }
}

fn corpus(shape: Shape, content: &str, rng: &mut SplitMix64) -> Vec<f32> {
    let (nx, ny, nz) = shape;
    let n = nx * ny * nz;
    match content {
        "smooth" => (0..n)
            .map(|idx| {
                let (i, j, k) = (idx % nx, (idx / nx) % ny, idx / (nx * ny));
                (i as f32 * 0.3 + j as f32 * 0.1 - k as f32 * 0.2).sin() * 40.0 + 10.0
            })
            .collect(),
        "noise" => (0..n).map(|_| rng.range_f32(-1e4, 1e4)).collect(),
        "constant" => vec![rng.range_f32(-60.0, 80.0); n],
        "specials" => (0..n).map(|_| special(rng)).collect(),
        other => unreachable!("unknown content {other}"),
    }
}

fn cases() -> Vec<(Shape, &'static str, Vec<f32>)> {
    let mut rng = SplitMix64::new(0xF0_2A47);
    let mut out = Vec::new();
    for shape in SHAPES {
        for content in CONTENTS {
            out.push((shape, content, corpus(shape, content, &mut rng)));
        }
    }
    out
}

#[test]
fn every_codec_emits_the_pinned_bytes() {
    let zfpx = Zfpx { tolerance: 1e-2 };
    let codecs: [&dyn FloatCodec; 3] = [&Fpz, &zfpx, &Lz77];
    let actual: Vec<[u64; 3]> = cases()
        .iter()
        .map(|(shape, _, data)| codecs.map(|codec| fnv1a(&codec.encode(data, *shape))))
        .collect();
    if actual != PINNED {
        let mut table = String::new();
        for (row, (shape, content, _)) in actual.iter().zip(cases()) {
            table += &format!(
                "    [{:#018x}, {:#018x}, {:#018x}], // {shape:?} {content}\n",
                row[0], row[1], row[2]
            );
        }
        panic!("emitted bytes differ from the pinned format; actual table:\n{table}");
    }
}

#[test]
fn lossless_codecs_roundtrip_the_corpus_bit_exactly() {
    for (shape, content, data) in cases() {
        for codec in [&Fpz as &dyn FloatCodec, &Lz77] {
            let dec = codec
                .decode(&codec.encode(&data, shape), shape)
                .unwrap_or_else(|e| panic!("{} {shape:?} {content}: {e}", codec.name()));
            let same = dec.len() == data.len()
                && data
                    .iter()
                    .zip(&dec)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{} not bit-exact on {shape:?} {content}",
                codec.name()
            );
        }
    }
}
