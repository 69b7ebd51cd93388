//! Field pin: the generated reflectivity itself, as 64-bit FNV-1a digests
//! over the `to_bits()` little-endian bytes of every sample.
//!
//! Every golden, determinism pin and benchmark digest downstream is a
//! function of these bits, but none of them names a sample: a generator
//! change that moved the last bit of one dBZ value would show up as a
//! reordered sort three crates away. The table below was generated on the
//! per-point generator (three `Field3` temporaries, two grid walks, 24
//! lattice hashes per background sample) *before* the single-pass one
//! replaced it, and has not been edited since. A mismatch prints the actual
//! table in source form, but pasting it is a data change: the goldens under
//! `crates/bench/tests/golden/` and the four benchmark digests move with it.
//!
//! What is hashed: every geometry the workspace generates through —
//! whole-subdomain boxes at `tiny` (all ranks, three iterations, so the
//! storm is seen young, mid-track and old), a storm-holding and a clear-air
//! 55×55×76 rank of the paper-scaled domain (the cull and the texture each
//! own one), the one-2×2×8-block-per-rank strip the serving benchmark
//! generates inside its timed op, single 11×11×19 blocks through
//! `ReflectivityDataset::block`, and a second seed.

use apc_cm1::{ReflectivityDataset, StormModel, DBZ_ISOVALUE};
use apc_grid::{Dims3, DomainDecomp, Field3, ProcGrid};

/// `(case, digest)`, in the order [`actual`] produces them.
const PINNED: [(&str, u64); 12] = [
    ("tiny(4, 42) iteration 0 of 3", 0xd87b_d2a5_3838_aa7c),
    ("tiny(4, 42) iteration 1 of 3", 0xe8e7_59ee_c74e_2232),
    ("tiny(4, 42) iteration 2 of 3", 0x31bb_eb96_0ec3_76f4),
    ("tiny(4, 7) iteration 1 of 3", 0x7e06_9175_ebeb_5b9d),
    ("paper_scaled(64, 42) storm rank", 0xc3ff_6e96_bd55_bd63),
    ("paper_scaled(64, 42) clear-air rank", 0xf745_036d_694e_5156),
    ("paper_scaled(64, 42) fringe rank", 0x04ef_4566_3aa5_9a42),
    ("paper_scaled(64, 7) storm rank", 0x6f42_dc77_8988_e52d),
    ("paper_scaled(64, 42) storm block", 0xf350_0510_fa86_6789),
    (
        "paper_scaled(64, 42) clear-air block",
        0x90a9_be8f_b9fc_5dcf,
    ),
    ("serving strip, seed 42", 0xcff0_ce03_9e87_f8fa),
    ("serving strip, seed 7", 0x46af_2c0f_14c5_100e),
];

/// Ranks of `paper_scaled(64, ·)` at `sample_iterations(6)[2]`: the one
/// under the storm's core, one the echo never reaches, and one that holds
/// only the envelope's faint edge (where the clear-air cull begins).
const STORM_RANK: usize = 27;
const CLEAR_RANK: usize = 7;
const FRINGE_RANK: usize = 12;

fn fnv1a(h: u64, samples: &[f32]) -> u64 {
    samples
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest<'a>(fields: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    fields.into_iter().fold(FNV_OFFSET, fnv1a)
}

fn max_of(field: &Field3) -> f32 {
    field.min_max().expect("non-empty field").1
}

/// The serving benchmark's geometry: a strip of `n` ranks, one 2×2×8 block
/// each, axes stretched by `ReflectivityDataset::new`.
fn serving_strip(n: usize, seed: u64) -> ReflectivityDataset {
    let decomp = DomainDecomp::new(
        Dims3::new(2 * n, 2, 8),
        ProcGrid::new(n, 1, 1),
        Dims3::new(2, 2, 8),
    )
    .expect("one block per rank");
    ReflectivityDataset::new(decomp, StormModel::new(seed))
}

fn actual() -> Vec<u64> {
    let mut out = Vec::new();

    // (a) + (d): every rank of the tiny geometry, in rank order.
    for (seed, picks) in [(42u64, &[0usize, 1, 2][..]), (7, &[1][..])] {
        let ds = ReflectivityDataset::tiny(4, seed).unwrap();
        let iterations = ds.sample_iterations(3);
        for &pick in picks {
            let fields: Vec<Field3> = (0..4)
                .map(|rank| ds.rank_field(iterations[pick], rank))
                .collect();
            out.push(digest(fields.iter().map(Field3::as_slice)));
        }
    }

    // (b) + (d): one rank the storm sits on and one it never reaches.
    let paper = ReflectivityDataset::paper_scaled(64, 42).unwrap();
    let iteration = paper.sample_iterations(6)[2];
    let storm = paper.rank_field(iteration, STORM_RANK);
    let clear = paper.rank_field(iteration, CLEAR_RANK);
    assert!(
        max_of(&storm) > DBZ_ISOVALUE,
        "rank {STORM_RANK} holds no storm"
    );
    assert!(max_of(&clear) < -55.0, "rank {CLEAR_RANK} is not clear air");
    out.push(digest([storm.as_slice()]));
    out.push(digest([clear.as_slice()]));
    let fringe = paper.rank_field(iteration, FRINGE_RANK);
    assert!(
        (-55.0..0.0).contains(&max_of(&fringe)),
        "rank {FRINGE_RANK} is not the storm's edge"
    );
    out.push(digest([fringe.as_slice()]));
    let other = ReflectivityDataset::paper_scaled(64, 7).unwrap();
    out.push(digest([other.rank_field(iteration, STORM_RANK).as_slice()]));

    // Single blocks generated on their own 11×11×19 box: the hottest block
    // of the storm rank and the first block of the clear-air one.
    let ids = paper.decomp().blocks_of_rank(STORM_RANK);
    let blocks = paper.rank_blocks(iteration, STORM_RANK);
    let hottest = blocks
        .iter()
        .zip(&ids)
        .max_by(|a, b| {
            let peak = |s: &[f32]| s.iter().copied().fold(f32::MIN, f32::max);
            peak(&a.0.samples()).total_cmp(&peak(&b.0.samples()))
        })
        .map(|(_, id)| *id)
        .expect("a rank holds blocks");
    out.push(digest([&*paper.block(iteration, hottest).samples()]));
    let first_clear = paper.decomp().blocks_of_rank(CLEAR_RANK)[0];
    out.push(digest([&*paper.block(iteration, first_clear).samples()]));

    // (c) + (d): the serving strip, every rank's one block, two iterations.
    for seed in [42u64, 7] {
        let strip = serving_strip(272, seed);
        let iterations = strip.sample_iterations(16);
        let mut h = FNV_OFFSET;
        for it in [iterations[0], iterations[9]] {
            for rank in 0..272 {
                for block in strip.rank_blocks(it, rank) {
                    h = fnv1a(h, &block.samples());
                }
            }
        }
        out.push(h);
    }
    out
}

#[test]
fn generated_fields_keep_their_bits() {
    let actual = actual();
    assert_eq!(actual.len(), PINNED.len());
    let matches = PINNED.iter().zip(&actual).all(|((_, pin), got)| pin == got);
    if !matches {
        let table: String = PINNED
            .iter()
            .zip(&actual)
            .map(|((case, _), got)| format!("    ({case:?}, 0x{got:016x}),\n"))
            .collect();
        panic!("generated field bits moved; actual table:\n{table}");
    }
}
