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
//!
//! A third pair, [`PINNED_FPZ_EDGES`] and [`PINNED_FPZ_TAILS`], pins `fpz`
//! where its per-sample coder branches: residual widths driven directly
//! (swings of ±32, every width in turn, any width after any other), the
//! IEEE-754 specials, all-zero input and dBZ-like noise over the shapes
//! the store and the replay pool encode, and one stream per byte length
//! modulo 8. Generated on the two-call (`write_unary` + `write_bits`)
//! coder before the fused one replaced it; same rule, never paste.

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

/// The shapes of [`PINNED_FPZ_EDGES`]: a point, the shortest row with a
/// left neighbour, a long row, the replay pool's frames, the store's chunks.
const EDGE_SHAPES: [Shape; 5] = [(1, 1, 1), (3, 1, 1), (64, 1, 1), (40, 40, 1), (11, 11, 19)];

const EDGE_CONTENTS: [&str; 6] = [
    "width_swing",
    "ramp",
    "any_width",
    "specials",
    "zeros",
    "dbz_noise",
];

/// `fpz` digests, one row per shape in `EDGE_SHAPES` order, one column per
/// `EDGE_CONTENTS` entry.
const PINNED_FPZ_EDGES: [[u64; 6]; 5] = [
    [
        0x2a7224c76cb3bdc9, // width_swing
        0xaf63bc4c8601b62c, // ramp
        0x6f3e20f27ef532ef, // any_width
        0x566df23ca8b5feb6, // specials
        0x7f682652c26b1bf1, // zeros
        0x084604efb1f08659, // dbz_noise
    ], // (1, 1, 1)
    [
        0xe4ebac793c9642f6, // width_swing
        0xaf64044c86023084, // ramp
        0xc1ae86fdac9bf9c4, // any_width
        0x090faac004ec2c9d, // specials
        0x976a6a1a7f383bb0, // zeros
        0x7c2c324b524a455c, // dbz_noise
    ], // (3, 1, 1)
    [
        0xbecd6848aa6d7848, // width_swing
        0x1bf1bf2170bb23b8, // ramp
        0x57c5ae2fb2567166, // any_width
        0xfd7f60fe467d59d4, // specials
        0xb4606dc0a0f61569, // zeros
        0x87d04a380ce18f4b, // dbz_noise
    ], // (64, 1, 1)
    [
        0x6e26fa7dfb40fcd0, // width_swing
        0x6127e110e8f5b41e, // ramp
        0x5597b459f670afbb, // any_width
        0x65e06b71b7bdc8f0, // specials
        0xceda21fc9a83e729, // zeros
        0x1a05e5c446adb189, // dbz_noise
    ], // (40, 40, 1)
    [
        0x303578098cfcfd08, // width_swing
        0xa3826ae134de0943, // ramp
        0xf658f42c3a052a03, // any_width
        0x3a5fe500764f299a, // specials
        0xa14a7ab991c1340f, // zeros
        0xc53f1975adf35f9f, // dbz_noise
    ], // (11, 11, 19)
];

/// `(samples, fpz digest)` of the dBZ-like noise row trimmed to the first
/// sample count (from 64 down) whose stream is `r` bytes past a multiple
/// of 8, for `r` in `0..8`: every tail the decoder's last refill can meet.
const PINNED_FPZ_TAILS: [(usize, u64); 8] = [
    (64, 0x3d5cf8b6a1adc213), // 0 bytes past a multiple of 8
    (59, 0x81b694d6110c1ac7), // 1 bytes past a multiple of 8
    (47, 0x0a44313deb7671d7), // 2 bytes past a multiple of 8
    (56, 0xb6a692d5126b269a), // 3 bytes past a multiple of 8
    (63, 0x30598ff6181baf84), // 4 bytes past a multiple of 8
    (48, 0xacc29890032dd468), // 5 bytes past a multiple of 8
    (60, 0xa596d661ab3129fd), // 6 bytes past a multiple of 8
    (57, 0xcdba2dfa1a364880), // 7 bytes past a multiple of 8
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

/// Inverse of `fpz`'s order-preserving map from `f32` bits to `u32`.
fn ordered_to_float(m: u32) -> f32 {
    f32::from_bits(if m & 0x8000_0000 != 0 {
        m & 0x7FFF_FFFF
    } else {
        !m
    })
}

/// Samples whose `fpz` residual widths are exactly `width(idx)`, in coding
/// order: each sample is the 3D Lorenzo prediction from the samples before
/// it plus a residual whose zig-zag magnitude has that many significant
/// bits (top bit set, the rest drawn from `rng`). Widths are what the coder
/// delta-codes in unary, so this reaches every unary run and payload size
/// at will — float contents cannot (the first sample alone is 32 wide).
fn with_residual_widths(
    (nx, ny, nz): Shape,
    rng: &mut SplitMix64,
    width: impl Fn(usize) -> u32,
) -> Vec<f32> {
    let mut ordered = vec![0u32; nx * ny * nz];
    for idx in 0..ordered.len() {
        let (i, j, k) = (idx % nx, (idx / nx) % ny, idx / (nx * ny));
        // The neighbour `di, dj, dk` steps back, zero outside the array.
        let at = |di: usize, dj: usize, dk: usize| {
            if i < di || j < dj || k < dk {
                0
            } else {
                ordered[(i - di) + nx * ((j - dj) + ny * (k - dk))]
            }
        };
        let prediction = at(1, 0, 0)
            .wrapping_add(at(0, 1, 0))
            .wrapping_add(at(0, 0, 1))
            .wrapping_sub(at(1, 1, 0))
            .wrapping_sub(at(1, 0, 1))
            .wrapping_sub(at(0, 1, 1))
            .wrapping_add(at(1, 1, 1));
        let magnitude = match width(idx) {
            0 => 0,
            w => (1u32 << (w - 1)) | (rng.next_u64() as u32 & ((1u32 << (w - 1)) - 1)),
        };
        let residual = (magnitude >> 1) ^ (magnitude & 1).wrapping_neg();
        ordered[idx] = prediction.wrapping_add(residual);
    }
    ordered.into_iter().map(ordered_to_float).collect()
}

fn edge_corpus(shape: Shape, content: &str, rng: &mut SplitMix64) -> Vec<f32> {
    let n = shape.0 * shape.1 * shape.2;
    match content {
        // Widths 32, 0, 32, 0, …: width deltas of −32 and +32 — unary runs
        // of 63 and 64, the second with 31 payload bits behind it — all
        // the way down the stream and not only on its first sample.
        "width_swing" => with_residual_widths(shape, rng, |idx| if idx % 2 == 0 { 32 } else { 0 }),
        // Every width in turn, up and back down: deltas of ±1.
        "ramp" => with_residual_widths(shape, rng, |idx| {
            let phase = (idx % 64) as u32;
            phase.min(64 - phase)
        }),
        // Any width after any other: every unary run 0..=64 next to every
        // payload size. (Its own generator, so the widths are drawn first.)
        "any_width" => {
            let widths: Vec<u32> = (0..n).map(|_| rng.below(33) as u32).collect();
            with_residual_widths(shape, rng, |idx| widths[idx])
        }
        "specials" => (0..n).map(|_| special(rng)).collect(),
        "zeros" => vec![0.0; n],
        "dbz_noise" => (0..n).map(|_| rng.range_f32(-60.0, 75.0)).collect(),
        other => unreachable!("unknown content {other}"),
    }
}

fn assert_fpz_roundtrip(data: &[f32], shape: Shape, stream: &[u8], what: &str) {
    let dec = Fpz
        .decode(stream, shape)
        .unwrap_or_else(|e| panic!("fpz {what}: {e}"));
    let same = dec.len() == data.len()
        && data
            .iter()
            .zip(&dec)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "fpz not bit-exact on {what}");
}

#[test]
fn fpz_emits_the_pinned_bytes_at_its_coder_edges() {
    let mut rng = SplitMix64::new(0xED_6E5);
    let mut actual = [[0u64; 6]; 5];
    for (row, shape) in actual.iter_mut().zip(EDGE_SHAPES) {
        for (digest, content) in row.iter_mut().zip(EDGE_CONTENTS) {
            let data = edge_corpus(shape, content, &mut rng);
            let stream = Fpz.encode(&data, shape);
            assert_fpz_roundtrip(&data, shape, &stream, &format!("{shape:?} {content}"));
            *digest = fnv1a(&stream);
        }
    }
    if actual != PINNED_FPZ_EDGES {
        let mut table = String::new();
        for (row, shape) in actual.iter().zip(EDGE_SHAPES) {
            table += "    [\n";
            for (digest, content) in row.iter().zip(EDGE_CONTENTS) {
                table += &format!("        {digest:#018x}, // {content}\n");
            }
            table += &format!("    ], // {shape:?}\n");
        }
        panic!("fpz bytes differ from the pinned edge table; actual table:\n{table}");
    }
}

#[test]
fn fpz_emits_the_pinned_bytes_at_every_stream_length_mod_8() {
    let mut rng = SplitMix64::new(0x7A_115);
    let row: Vec<f32> = (0..64).map(|_| rng.range_f32(-60.0, 75.0)).collect();
    let mut actual = [(0usize, 0u64); 8];
    for n in (1..=row.len()).rev() {
        let shape = (n, 1, 1);
        let stream = Fpz.encode(&row[..n], shape);
        assert_fpz_roundtrip(&row[..n], shape, &stream, &format!("noise row of {n}"));
        let slot = &mut actual[stream.len() % 8];
        if slot.0 == 0 {
            *slot = (n, fnv1a(&stream));
        }
    }
    assert!(
        actual.iter().all(|&(n, _)| n > 0),
        "a stream length modulo 8 was never hit: {actual:?}"
    );
    if actual != PINNED_FPZ_TAILS {
        let mut table = String::new();
        for (r, (n, digest)) in actual.iter().enumerate() {
            table += &format!("    ({n}, {digest:#018x}), // {r} bytes past a multiple of 8\n");
        }
        panic!("fpz bytes differ from the pinned tail table; actual table:\n{table}");
    }
}
