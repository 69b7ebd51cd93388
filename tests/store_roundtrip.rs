//! The store round-trip acceptance test: a dataset written with
//! `apc_cm1::write_dataset` and reopened through `Prepared::from_store`
//! must produce `IterationReport`s **byte-identical** to the in-memory
//! path, for every lossless codec and for both backends (disk and
//! memory), across the one-shot driver and the sweep engine.

use insitu::cm1::{self, ReflectivityDataset, StoredTimeSeries};
use insitu::comm::NetModel;
use insitu::pipeline::{
    run_experiment, ExecPolicy, IterationReport, PipelineConfig, Prepared, Redistribution,
};
use insitu::store::{CodecKind, DirStore, MemStore, StoreBackend};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("apc_store_roundtrip_tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::default().with_fixed_percent(0.0),
        PipelineConfig::default().with_fixed_percent(70.0),
        PipelineConfig::default()
            .with_metric("LEA")
            .with_redistribution(Redistribution::RoundRobin)
            .with_fixed_percent(50.0),
        PipelineConfig::default().with_target(5.0),
    ]
}

/// The reference: the plain in-memory experiment driver.
fn in_memory_reports(dataset: &ReflectivityDataset, iters: &[usize]) -> Vec<Vec<IterationReport>> {
    configs()
        .into_iter()
        .map(|c| run_experiment(dataset, c, iters))
        .collect()
}

#[test]
fn disk_store_replay_is_byte_identical_to_in_memory() {
    let dataset = ReflectivityDataset::tiny(4, 21).unwrap();
    let iters = dataset.sample_iterations(3);
    let expected = in_memory_reports(&dataset, &iters);

    let dir = tmp_dir("disk");
    cm1::write_dataset(&dataset, &iters, &dir, CodecKind::Fpz, None).unwrap();
    let prepared = Prepared::from_store(
        cm1::open_dataset(&dir).unwrap(),
        ExecPolicy::Serial,
        NetModel::blue_waters(),
    );
    assert_eq!(prepared.iterations, iters);

    // One-shot runs through the store-backed session.
    for (config, want) in configs().into_iter().zip(&expected) {
        assert_eq!(&prepared.run(config, &iters), want, "store replay diverged");
    }
    // And the whole set again as a single sweep over the same session.
    let swept = prepared.run_sweep(&configs(), &iters);
    assert_eq!(swept, expected, "sweep over the store diverged");
}

#[test]
fn every_lossless_codec_replays_identically_from_memory_backend() {
    let dataset = ReflectivityDataset::tiny(4, 33).unwrap();
    let iters = dataset.sample_iterations(2);
    let config = PipelineConfig::default()
        .with_redistribution(Redistribution::RandomShuffle { seed: 5 })
        .with_fixed_percent(60.0);
    let expected = run_experiment(&dataset, config.clone(), &iters);

    for codec in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
        let backend: Box<dyn StoreBackend> = Box::new(MemStore::new());
        cm1::write_dataset_to(&dataset, &iters, &backend, codec, None).unwrap();
        let stored = StoredTimeSeries::from_backend(backend).unwrap();
        assert_eq!(
            stored.rank_blocks(iters[0], 0).unwrap(),
            dataset.rank_blocks(iters[0], 0),
            "codec {} read is not bit-exact",
            codec.name()
        );
        let prepared = Prepared::from_store(stored, ExecPolicy::Serial, NetModel::blue_waters());
        assert_eq!(
            prepared.run(config.clone(), &iters),
            expected,
            "codec {} diverged",
            codec.name()
        );
    }
}

#[test]
fn store_replay_is_deterministic_across_reopenings() {
    // Two independent openings of the same directory must agree with each
    // other (fresh sessions, fresh caches — nothing run-order dependent).
    let dataset = ReflectivityDataset::tiny(4, 8).unwrap();
    let iters = dataset.sample_iterations(2);
    let dir = tmp_dir("reopen");
    cm1::write_dataset(&dataset, &iters, &dir, CodecKind::Lz, None).unwrap();

    let run_once = || {
        let prepared = Prepared::from_store(
            cm1::open_dataset(&dir).unwrap(),
            ExecPolicy::Serial,
            NetModel::blue_waters(),
        );
        prepared.run(PipelineConfig::default().with_fixed_percent(40.0), &iters)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn store_geometry_twin_matches_the_writer() {
    let dataset = ReflectivityDataset::tiny(16, 77).unwrap();
    let iters = [300usize];
    let dir = tmp_dir("geometry");
    cm1::write_dataset(&dataset, &iters, &dir, CodecKind::Raw, None).unwrap();
    let stored = cm1::open_dataset(&dir).unwrap();
    assert_eq!(stored.decomp(), dataset.decomp());
    assert_eq!(stored.coords(), dataset.coords());
    assert_eq!(stored.seed(), 77);
    // The blocks a rank reads are the blocks the simulation produced —
    // bit-exact through the flat layout, the shard containers and the
    // chunk cache (each rank read twice, so cold and warm).
    let sharded_dir = tmp_dir("geometry-sharded");
    cm1::write_dataset(&dataset, &iters, &sharded_dir, CodecKind::Fpz, Some(16)).unwrap();
    let sharded = cm1::open_dataset(&sharded_dir).unwrap();
    let cached = StoredTimeSeries::from_backend_cached(
        Box::new(DirStore::open(&sharded_dir).unwrap()),
        8 << 20,
    )
    .unwrap();
    for (layout, stored) in [
        ("flat", &stored),
        ("sharded", &sharded),
        ("cached", &cached),
    ] {
        for rank in [0usize, 7, 15, 7] {
            assert_eq!(
                stored.rank_blocks(300, rank).unwrap(),
                dataset.rank_blocks(300, rank),
                "{layout} read of rank {rank}"
            );
        }
    }
}
