//! Property-based tests of cross-crate invariants.
//!
//! The cases are generated by the in-tree seeded PRNG
//! ([`apc_par::SplitMix64`]) instead of an external property-testing
//! framework, so every run exercises exactly the same inputs — failures
//! reproduce from the printed case index alone.

use apc_par::SplitMix64;
use insitu::grid::{interp, Dims3};
use insitu::metrics::{by_name, ranks_by_score};
use insitu::pipeline::{adapt_percent, ScoredBlock};

const CASES: usize = 128;

/// One sample heavy in values compression cares about: smooth field
/// values most of the time, specials (NaN payloads, ±inf, -0.0,
/// subnormals) often enough that every case set hits several.
fn chunk_value(rng: &mut SplitMix64) -> f32 {
    match rng.below(12) {
        0 => f32::from_bits(0x7FC0_0001), // NaN with a payload
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => f32::from_bits(rng.below(0x0080_0000) as u32), // subnormal
        _ => rng.range_f32(-1e4, 1e4),
    }
}

/// Algorithm 1 always returns a percentage in [0, 100], whatever the
/// observations.
#[test]
fn adapt_percent_stays_in_range() {
    let mut rng = SplitMix64::new(0xA1);
    for case in 0..CASES {
        let target = rng.range_f64(0.001, 1e4);
        let t_prev = rng.range_f64(0.0, 1e4);
        let p_prev = rng.range_f64(0.0, 100.0);
        let t_cur = rng.range_f64(0.0, 1e4);
        let p_cur = rng.range_f64(0.0, 100.0);
        let p = adapt_percent(target, t_prev, p_prev, t_cur, p_cur);
        assert!((0.0..=100.0).contains(&p), "case {case}: p = {p}");
    }
}

/// On an exactly linear monotone response, two observations put the
/// controller on target (up to clamping).
#[test]
fn adapt_percent_solves_linear_systems() {
    let mut rng = SplitMix64::new(0xA2);
    let mut tested = 0;
    while tested < CASES {
        let a = rng.range_f64(-10.0, -0.01);
        let b = rng.range_f64(10.0, 1000.0);
        let p1 = rng.range_f64(0.0, 100.0);
        let p2 = rng.range_f64(0.0, 100.0);
        let target_frac = rng.range_f64(0.05, 0.95);
        if (p1 - p2).abs() <= 1.0 {
            continue; // mirror the original prop_assume!
        }
        let t = |p: f64| a * p + b;
        // Pick a target inside the achievable band.
        let (lo, hi) = (t(100.0), t(0.0));
        let target = lo + target_frac * (hi - lo);
        if target <= 0.0 {
            continue;
        }
        let p_next = adapt_percent(target, t(p1), p1, t(p2), p2);
        assert!(
            (t(p_next) - target).abs() < 1e-6,
            "t(p_next) = {} vs target {target}",
            t(p_next)
        );
        tested += 1;
    }
}

/// Rank vectors are permutations of 0..n.
#[test]
fn ranks_are_a_permutation() {
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..CASES {
        let n = rng.below(200);
        let scores: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let ranks = ranks_by_score(&scores);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..scores.len()).collect::<Vec<_>>());
    }
}

/// Trilinear reconstruction reproduces the corner values exactly and
/// never exceeds the corners' range (barycentric combination).
#[test]
fn reconstruction_bounded_by_corners() {
    let mut rng = SplitMix64::new(0xA4);
    for case in 0..CASES {
        let mut corners = [0.0f32; 8];
        for c in &mut corners {
            *c = rng.range_f32(-1e3, 1e3);
        }
        let dims = Dims3::new(2 + rng.below(4), 2 + rng.below(4), 2 + rng.below(4));
        let rec = interp::reconstruct_from_corners(&corners, dims);
        let lo = corners.iter().cloned().fold(f32::MAX, f32::min);
        let hi = corners.iter().cloned().fold(f32::MIN, f32::max);
        for v in &rec {
            assert!(
                *v >= lo - 1e-2 && *v <= hi + 1e-2,
                "case {case}: {v} outside [{lo}, {hi}]"
            );
        }
        // Corners exact.
        let c = interp::corners_of(&rec, dims);
        for (got, want) in c.iter().zip(&corners) {
            assert!(
                (got - want).abs() < 1e-3,
                "case {case}: corner {got} vs {want}"
            );
        }
    }
}

/// Every metric gives a flat block a score no higher than the same
/// block plus structured variation.
#[test]
fn metrics_respond_to_information() {
    let mut rng = SplitMix64::new(0xA5);
    for case in 0..32 {
        let amp = rng.range_f32(0.5, 50.0);
        let base = rng.range_f32(-50.0, 50.0);
        let dims = Dims3::new(6, 6, 6);
        let flat = vec![base; dims.len()];
        let varied: Vec<f32> = (0..dims.len())
            .map(|i| base + amp * ((i as f32 * 0.7).sin()))
            .collect();
        for name in ["RANGE", "VAR", "ITL", "LEA", "TRILIN", "FPZIP", "LZ", "ZFP"] {
            let m = by_name(name).unwrap();
            let s_flat = m.score(&flat, dims);
            let s_varied = m.score(&varied, dims);
            assert!(
                s_flat <= s_varied + 1e-9,
                "case {case} {name}: flat {s_flat} > varied {s_varied}"
            );
        }
    }
}

/// Random chunk sets round-trip bit-exactly through sharded Dir and Mem
/// backends under every lossless `CodecKind`, whatever the shard size —
/// including specials, empty-ish geometries and shard groups that end in
/// a partial tail.
#[test]
fn sharded_backends_roundtrip_random_chunks_bit_exactly() {
    use insitu::grid::ProcGrid;
    use insitu::store::{
        ChunkedDataset, CodecKind, DatasetMeta, DirStore, MemStore, ShardedStore, StoreBackend,
    };

    let root = std::env::temp_dir()
        .join("apc_properties_tests")
        .join("sharded-roundtrip");
    let _ = std::fs::remove_dir_all(&root);
    let mut rng = SplitMix64::new(0xA7);
    for case in 0..8 {
        let chunk = Dims3::new(2 + rng.below(4), 2 + rng.below(4), 2 + rng.below(3));
        let procs = ProcGrid::new(1 + rng.below(2), 1 + rng.below(2), 1);
        let blocks_per_rank = 1 + rng.below(3);
        let domain = Dims3::new(
            chunk.nx * procs.px * blocks_per_rank,
            chunk.ny * procs.py,
            chunk.nz * procs.pz,
        );
        let shard_chunks = 1 + rng.below(7);
        let iterations: Vec<usize> = (0..(1 + rng.below(3))).map(|i| (i + 1) * 100).collect();
        let codec = [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz][case % 3];
        let meta = DatasetMeta {
            domain,
            chunk,
            procs,
            codec,
            seed: case as u64,
            iterations: iterations.clone(),
            shard_chunks: Some(shard_chunks),
        };

        let dir_backend = DirStore::create(&root.join(format!("case-{case}"))).unwrap();
        let backends: [std::sync::Arc<dyn StoreBackend>; 2] = [
            std::sync::Arc::new(MemStore::new()),
            std::sync::Arc::new(dir_backend),
        ];
        for backend in backends {
            // Write the same seeded chunk set…
            let store = ChunkedDataset::create(
                ShardedStore::new(std::sync::Arc::clone(&backend), shard_chunks),
                meta.clone(),
            )
            .unwrap();
            let mut chunks = Vec::new();
            let mut wrote = SplitMix64::new(0xBEEF + case as u64);
            for &it in &iterations {
                for id in store.decomp().all_blocks() {
                    let samples: Vec<f32> =
                        (0..chunk.len()).map(|_| chunk_value(&mut wrote)).collect();
                    store.write_chunk(it, id, &samples).unwrap();
                    chunks.push((it, id, samples));
                }
            }
            store.backend().flush().unwrap();

            // …and read it back through a fresh layout-aware open.
            let reopened =
                ChunkedDataset::open_auto(std::sync::Arc::clone(&backend), None).unwrap();
            assert_eq!(reopened.meta().shard_chunks, Some(shard_chunks));
            for (it, id, want) in &chunks {
                let got = reopened.read_chunk(*it, *id).unwrap();
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(want) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case {case} {} chunk {id} iter {it}",
                        codec.name()
                    );
                }
            }
        }
    }
}

/// Sharded and one-file-per-chunk layouts replay **byte-identically**
/// through `Prepared::from_store` sweeps: the layout is pure storage,
/// invisible to every report the pipeline produces.
#[test]
fn sharded_and_flat_layouts_replay_identically() {
    use insitu::cm1::{self, ReflectivityDataset, StoredTimeSeries};
    use insitu::comm::NetModel;
    use insitu::pipeline::{ExecPolicy, PipelineConfig, Prepared};
    use insitu::store::{CodecKind, MemStore, StoreBackend};

    let mut rng = SplitMix64::new(0xA8);
    for case in 0..3 {
        let seed = 10 + case as u64;
        let dataset = ReflectivityDataset::tiny(4, seed).unwrap();
        let iters = dataset.sample_iterations(2);
        let codec = [CodecKind::Fpz, CodecKind::Lz, CodecKind::Raw][case];
        let chunks_per_shard = 1 + rng.below(60);

        let flat: Box<dyn StoreBackend> = Box::new(MemStore::new());
        cm1::write_dataset_to(&dataset, &iters, &flat, codec, None).unwrap();
        let sharded: Box<dyn StoreBackend> = Box::new(MemStore::new());
        cm1::write_dataset_to(&dataset, &iters, &sharded, codec, Some(chunks_per_shard)).unwrap();

        let configs = vec![
            PipelineConfig::default().with_fixed_percent(60.0),
            PipelineConfig::default()
                .with_metric("LEA")
                .with_target(5.0),
        ];
        let sweep = |backend: Box<dyn StoreBackend>| {
            let stored = StoredTimeSeries::from_backend(backend).unwrap();
            Prepared::from_store(stored, ExecPolicy::Serial, NetModel::blue_waters())
                .run_sweep(&configs, &iters)
        };
        assert_eq!(
            sweep(flat),
            sweep(sharded),
            "case {case}: layout leaked into the reports (codec {}, {chunks_per_shard}/shard)",
            codec.name()
        );
    }
}

/// The decoded-chunk cache never perturbs replay: sweeps over flat and
/// sharded datasets produce the reports of the uncached serial
/// `Prepared::from_store` sweep with the cache off and at every budget
/// that changes what the cache does — zero (holds nothing), one decoded
/// chunk (every insert evicts), about half the decoded set (evicts under
/// churn) and the whole set (never evicts) — across `Serial` and
/// `Threads(8)` execution. A cache that answered with a stale or foreign
/// chunk would move a report; every chunk read is one counted lookup.
#[test]
fn chunk_cache_does_not_perturb_replay() {
    use insitu::cm1::{self, ReflectivityDataset, StoredTimeSeries};
    use insitu::comm::{NetModel, Runtime};
    use insitu::pipeline::{run_sweep_in_session, ExecPolicy, PipelineConfig, Prepared};
    use insitu::store::{CodecKind, MemStore, StoreBackend};
    use std::sync::Arc;

    let dataset = ReflectivityDataset::tiny(8, 21).unwrap();
    let iters = dataset.sample_iterations(3);
    let flat: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    cm1::write_dataset_to(&dataset, &iters, Arc::clone(&flat), CodecKind::Fpz, None).unwrap();
    let sharded: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    cm1::write_dataset_to(
        &dataset,
        &iters,
        Arc::clone(&sharded),
        CodecKind::Fpz,
        Some(24),
    )
    .unwrap();

    let configs = vec![
        PipelineConfig::default().with_fixed_percent(60.0),
        PipelineConfig::default()
            .with_metric("LEA")
            .with_target(5.0),
    ];
    let open = |backend: &Arc<dyn StoreBackend>, cache: Option<usize>| {
        let boxed: Box<dyn StoreBackend> = Box::new(Arc::clone(backend));
        match cache {
            Some(bytes) => StoredTimeSeries::from_backend_cached(boxed, bytes).unwrap(),
            None => StoredTimeSeries::from_backend(boxed).unwrap(),
        }
    };
    // The reports plus the cache's final counters. The counters are read
    // after the sweep, so the stored series stays here and the sweep runs
    // on the engine under `Prepared` instead of being moved into one.
    let sweep = |backend: &Arc<dyn StoreBackend>, cache: Option<usize>, exec: ExecPolicy| {
        let stored = open(backend, cache);
        let configs: Vec<PipelineConfig> =
            configs.iter().map(|c| c.clone().with_exec(exec)).collect();
        let reports = run_sweep_in_session(
            &mut Runtime::new(8, NetModel::blue_waters()).session(),
            stored.decomp(),
            stored.coords(),
            &configs,
            &iters,
            &|it, rank| stored.rank_blocks(it, rank).unwrap(),
        );
        (reports, stored.cache_stats())
    };

    let chunk_bytes = dataset.decomp().block_dims().len() * std::mem::size_of::<f32>();
    let set_chunks = dataset.decomp().n_blocks() * iters.len();
    let set_bytes = chunk_bytes * set_chunks;
    let mut reference = None;
    for (layout, backend) in [("flat", &flat), ("sharded", &sharded)] {
        let base = Prepared::from_store(
            open(backend, None),
            ExecPolicy::Serial,
            NetModel::blue_waters(),
        )
        .run_sweep(&configs, &iters);
        let (uncached, stats) = sweep(backend, None, ExecPolicy::Threads(8));
        assert_eq!(base, uncached, "{layout}: cache-off threads diverged");
        assert_eq!(stats, None, "{layout}: an uncached open has no counters");
        for budget in [0, chunk_bytes, set_bytes / 2, set_bytes] {
            for exec in [ExecPolicy::Serial, ExecPolicy::Threads(8)] {
                let (reports, stats) = sweep(backend, Some(budget), exec);
                let case = format!("{layout}: budget {budget} under {exec:?}");
                assert_eq!(
                    base, reports,
                    "{case} diverged from the uncached serial sweep"
                );
                let stats = stats.expect("opened with a cache");
                assert_eq!(
                    stats.hits + stats.misses,
                    set_chunks * configs.len(),
                    "{case}: one lookup per chunk read"
                );
                assert_eq!(
                    stats.insertions == 0,
                    budget == 0,
                    "{case}: a zero budget, and only that, holds nothing"
                );
                assert_eq!(
                    stats.evictions > 0,
                    (1..set_bytes).contains(&budget),
                    "{case}: a budget evicts exactly when it is below the decoded set"
                );
            }
        }
        match &reference {
            None => reference = Some(base),
            Some(r) => assert_eq!(r, &base, "flat vs sharded reports diverged"),
        }
    }
}

/// The score order contract: sorting twice is stable and deterministic.
#[test]
fn score_order_is_total() {
    let mut rng = SplitMix64::new(0xA6);
    for _ in 0..CASES {
        let n = 2 + rng.below(48);
        let mut blocks: Vec<ScoredBlock> = (0..n)
            .map(|_| {
                let id = rng.below(1000) as u32;
                ScoredBlock {
                    id,
                    score: (id % 7) as f64,
                }
            })
            .collect();
        let cmp =
            |a: &ScoredBlock, b: &ScoredBlock| a.score.total_cmp(&b.score).then(a.id.cmp(&b.id));
        blocks.sort_by(cmp);
        let once = blocks.clone();
        blocks.sort_by(cmp);
        assert_eq!(once, blocks);
    }
}
