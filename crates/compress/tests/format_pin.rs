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
//!
//! A second table, [`PINNED_ZFPX_SWEEP`], pins `zfpx` alone across the
//! tolerances the serving ladder ships (the first table holds it at 1e-2
//! only): every plane, both ends and the probed rung of the `Lossy`
//! sweep, and a cut-off above most blocks' top plane — over the same
//! shapes and contents plus `sparse`, the mostly-zero raster a `Dropped`
//! reply re-encodes. Generated on the per-coefficient plane encoder
//! before the mask-based one replaced it; same rule, never paste.

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

/// The tolerances of [`PINNED_ZFPX_SWEEP`]'s columns: `0.0` codes every
/// plane, `1e-3` and `1e-1` are the ends of `Zfpx::graded_tolerance`'s
/// first two decades, `1.0964782e-3` is the lossy rung the benchmark's
/// `serve_adaptive` probes, and `1.0` cuts most planes.
const SWEEP_TOLERANCES: [f32; 5] = [0.0, 1e-3, 1.096_478_2e-3, 1e-1, 1.0];

const SWEEP_CONTENTS: [&str; 5] = ["smooth", "noise", "constant", "specials", "sparse"];

/// `zfpx` digests, one column per `SWEEP_TOLERANCES` entry, one row per
/// (shape, content) in `SHAPES` × `SWEEP_CONTENTS` order.
const PINNED_ZFPX_SWEEP: [[u64; 5]; 30] = [
    [
        0x17d8573afcfab910,
        0xb708e4f77123a290,
        0xb708e4f77123a290,
        0x00f15b0bc01ceb30,
        0x3505e355f2e7f010,
    ], // (1, 1, 1) smooth
    [
        0x737a424b5f48df81,
        0x737a424b5f48df81,
        0x737a424b5f48df81,
        0xca166e53270f932f,
        0x366c7b3d65506420,
    ], // (1, 1, 1) noise
    [
        0xfba2ab3d1cb1211d,
        0x4c9fc5f7088c352e,
        0x4c9fc5f7088c352e,
        0xce6f776242856e4f,
        0x760b1c66a03a67b5,
    ], // (1, 1, 1) constant
    [
        0xa5c25560f0f6c159,
        0xa5c25560f0f6c159,
        0xa5c25560f0f6c159,
        0xa5c25560f0f6c159,
        0xa5c25560f0f6c159,
    ], // (1, 1, 1) specials
    [
        0xaf63bd4c8601b7df,
        0xaf63bd4c8601b7df,
        0xaf63bd4c8601b7df,
        0xaf63bd4c8601b7df,
        0xaf63bd4c8601b7df,
    ], // (1, 1, 1) sparse
    [
        0xdc8549dddfdb5adc,
        0x4497aa1050dbc688,
        0x4497aa1050dbc688,
        0x810650a78bc50c25,
        0xa1948a38b20a6966,
    ], // (6, 5, 1) smooth
    [
        0x60307c6c876e7975,
        0x60307c6c876e7975,
        0x60307c6c876e7975,
        0xf68dc24bd5bdbf61,
        0x34b3ce372d424485,
    ], // (6, 5, 1) noise
    [
        0x6cad91e92d166d2d,
        0x6f072962bc13cb28,
        0x6f072962bc13cb28,
        0x66e506e71cc04412,
        0xde5645a3ab84e048,
    ], // (6, 5, 1) constant
    [
        0x0f9d77095b41a3a3,
        0x9725b002caf6131e,
        0x9725b002caf6131e,
        0x06b610cc61ad6f46,
        0x65baeecb2aa1529a,
    ], // (6, 5, 1) specials
    [
        0x433bcc570e90af1d,
        0x94d83b1a45fa7fd8,
        0x94d83b1a45fa7fd8,
        0x58121213d2c573b9,
        0xf8f10e2ca705f255,
    ], // (6, 5, 1) sparse
    [
        0xb4ac5f157b81d641,
        0x6ec6b3e82e1dc674,
        0x6ec6b3e82e1dc674,
        0xa88cb69292eaf794,
        0x7bc9696bc2e69868,
    ], // (1, 6, 5) smooth
    [
        0xeec2a7e77df9fdeb,
        0xeec2a7e77df9fdeb,
        0xeec2a7e77df9fdeb,
        0x5780252fe316f6f5,
        0x95d33e5073763554,
    ], // (1, 6, 5) noise
    [
        0x2d41bb29f005f94b,
        0xdd0458d60488b859,
        0xdd0458d60488b859,
        0xbba85dcfa8f3ea92,
        0x3d8dedc95b7394f7,
    ], // (1, 6, 5) constant
    [
        0x077b119d7dd23345,
        0x6ffe33609cb34e8b,
        0x6ffe33609cb34e8b,
        0x40161298f1a2ed6e,
        0x510bd9afcce40298,
    ], // (1, 6, 5) specials
    [
        0xab9bdbeab2a1c4ab,
        0x6f621078e3316bb0,
        0x6f621078e3316bb0,
        0xf2370b123043e2bd,
        0x8c6554b6570c3535,
    ], // (1, 6, 5) sparse
    [
        0xe6cecb528fb98417,
        0x51c843e878b7f507,
        0x51c843e878b7f507,
        0xe89ba01ef670471a,
        0x8be906f63e520cca,
    ], // (11, 11, 19) smooth
    [
        0x0ea82a4897c1bf7c,
        0x0ea82a4897c1bf7c,
        0x0ea82a4897c1bf7c,
        0x2143e62e462ccde6,
        0xdf71a461292114eb,
    ], // (11, 11, 19) noise
    [
        0x030d67528fb2d559,
        0x3ab9865d78a58079,
        0x3ab9865d78a58079,
        0x1cb839d53a9caada,
        0x7c6869cc600f1c8e,
    ], // (11, 11, 19) constant
    [
        0x8b6d1f3c7c0ecc63,
        0x8b6d1f3c7c0ecc63,
        0x8b6d1f3c7c0ecc63,
        0x8b6d1f3c7c0ecc63,
        0x8b6d1f3c7c0ecc63,
    ], // (11, 11, 19) specials
    [
        0x634dc3451426adba,
        0x05a168e156f1d222,
        0x05a168e156f1d222,
        0x2687a2d61adfa426,
        0xdd3c77ca87f36516,
    ], // (11, 11, 19) sparse
    [
        0xa3b405cb5ea01c3b,
        0xf6ea1e67ee254959,
        0xf6ea1e67ee254959,
        0x514b43e6b59fb644,
        0x5f628946be54444a,
    ], // (40, 40, 1) smooth
    [
        0xa6e81592fe766287,
        0xa6e81592fe766287,
        0xa6e81592fe766287,
        0x8ddb9e17747405a1,
        0x81652a07b5391687,
    ], // (40, 40, 1) noise
    [
        0x21e8fdfd803d2ad7,
        0xda9ef540d9e3805d,
        0xda9ef540d9e3805d,
        0x5d6600dde6c514c5,
        0xfbfa851e032eee21,
    ], // (40, 40, 1) constant
    [
        0x548680f325c8b7f6,
        0x9dcc06fcda93f4e8,
        0x9dcc06fcda93f4e8,
        0x39c2564dca9f2984,
        0xf825e6adcae58b89,
    ], // (40, 40, 1) specials
    [
        0x2bb7c8aab6e688cf,
        0x328ec62439a0fc17,
        0x328ec62439a0fc17,
        0x5a48c755f495137b,
        0x3f37462545678de1,
    ], // (40, 40, 1) sparse
    [
        0x620449da48cd5427,
        0xa8027111d15d03fa,
        0xa8027111d15d03fa,
        0xc4e6c7ac97680d2d,
        0x9a691555621e5673,
    ], // (8, 8, 8) smooth
    [
        0x4bca9f5bcfac68e6,
        0x4bca9f5bcfac68e6,
        0x4bca9f5bcfac68e6,
        0x956a21b7601a8331,
        0xa26394777c80dd1d,
    ], // (8, 8, 8) noise
    [
        0x93d2c5b705d499a5,
        0xd9704c925cb19b55,
        0xd9704c925cb19b55,
        0x2b02c4dbfeb82b95,
        0xa7a9d93b203f6db1,
    ], // (8, 8, 8) constant
    [
        0x0e834ed16b53dcc8,
        0x0e834ed16b53dcc8,
        0x0e834ed16b53dcc8,
        0x0e834ed16b53dcc8,
        0x0e834ed16b53dcc8,
    ], // (8, 8, 8) specials
    [
        0x080fac84ae0df426,
        0x69d764f3456c3462,
        0x69d764f3456c3462,
        0xb3cb603aea7f56b2,
        0x7c7f57e00bccecf2,
    ], // (8, 8, 8) sparse
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
        // The top ≈ 12 % of a dBZ-like noise field, the rest dropped to zero.
        "sparse" => (0..n)
            .map(|_| Some(rng.range_f32(-60.0, 80.0)).filter(|&v| v > 63.2))
            .map(|kept| kept.unwrap_or(0.0))
            .collect(),
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

/// The sweep's own corpus: a second generator, so adding `sparse` does
/// not shift the draws behind [`PINNED`].
fn sweep_cases() -> Vec<(Shape, &'static str, Vec<f32>)> {
    let mut rng = SplitMix64::new(0x2F_9C0D);
    let mut out = Vec::new();
    for shape in SHAPES {
        for content in SWEEP_CONTENTS {
            out.push((shape, content, corpus(shape, content, &mut rng)));
        }
    }
    out
}

#[test]
fn zfpx_emits_the_pinned_bytes_at_every_ladder_tolerance() {
    let cases = sweep_cases();
    let actual: Vec<[u64; 5]> = cases
        .iter()
        .map(|(shape, _, data)| {
            SWEEP_TOLERANCES.map(|tolerance| fnv1a(&Zfpx { tolerance }.encode(data, *shape)))
        })
        .collect();
    if actual != PINNED_ZFPX_SWEEP {
        let mut table = String::new();
        for (row, (shape, content, _)) in actual.iter().zip(&cases) {
            table += "    [\n";
            for digest in row {
                table += &format!("        {digest:#018x},\n");
            }
            table += &format!("    ], // {shape:?} {content}\n");
        }
        panic!("zfpx bytes differ from the pinned tolerance sweep; actual table:\n{table}");
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
