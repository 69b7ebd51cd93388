//! Acceptance guards for the frame-serving layer: frames persisted by
//! staged runs replay **byte-identically** through every lossless codec,
//! through disk and memory backends, through the serve path, and through
//! fresh vs reused sessions — and damaged frame files surface as
//! errors, never as panics.

use std::sync::Arc;

use insitu::cm1::ReflectivityDataset;
use insitu::comm::{NetModel, Runtime};
use insitu::pipeline::{
    run_staged_in_session, run_staged_serving_in_session, BackpressurePolicy, ExecPolicy,
    FrameSink, FrameStore, PipelineConfig, Prepared, ServeParams, ServePolicy, ServingRun,
    StagedParams,
};
use insitu::serve::{store::frame_key, ServeError};
use insitu::store::{CodecKind, DirStore, MemStore, StoreBackend};

const VIZ: usize = 2;

fn staged_config(sink: FrameSink) -> PipelineConfig {
    let params = StagedParams::new(VIZ, 2, BackpressurePolicy::Block)
        .with_sim_compute(5.0)
        .with_persist(sink);
    PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(40.0)
        .with_staged(params)
}

/// Run the tiny staged workload persisting into `backend`, and return the
/// iterations it rendered.
fn persist_run(backend: Arc<dyn StoreBackend>, run_id: &str, codec: CodecKind) -> Vec<usize> {
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let sink = FrameSink::new(backend, run_id, codec);
    let _ = run_staged_in_session(
        &mut Runtime::new(8, NetModel::blue_waters()).session(),
        dataset.decomp(),
        dataset.coords(),
        &staged_config(sink),
        &iters,
        &|it, rank| dataset.rank_blocks(it, rank),
    );
    iters
}

/// A serving run of the tiny 8-rank workload over a fresh session.
fn serve_fresh(
    dataset: &ReflectivityDataset,
    sink: FrameSink,
    iters: &[usize],
    serve: &ServeParams,
) -> ServingRun {
    run_staged_serving_in_session(
        &mut Runtime::new(8, NetModel::blue_waters()).session(),
        dataset.decomp(),
        dataset.coords(),
        &staged_config(sink),
        iters,
        serve,
        &|it, rank| dataset.rank_blocks(it, rank),
    )
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("apc_frame_serving_tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Frames written through every lossless codec decode to bit-identical
/// pixels, and disk (`DirStore`) holds byte-identical streams to memory
/// (`MemStore`).
#[test]
fn lossless_codecs_replay_frames_byte_identically() {
    let mut reference: Option<Vec<Vec<u32>>> = None; // pixel bits per frame
    for codec in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
        let mem: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let dir_root = tmp_dir(&format!("codec_{}", codec.name()));
        let dir: Arc<dyn StoreBackend> = Arc::new(DirStore::create(&dir_root).unwrap());
        let iters = persist_run(Arc::clone(&mem), "run", codec);
        persist_run(Arc::clone(&dir), "run", codec);

        let mem_store = FrameStore::new(&*mem, "run");
        let dir_store = FrameStore::new(&*dir, "run");
        let mut bits = Vec::new();
        for &it in &iters {
            for stager in 0..VIZ as u32 {
                let a = mem_store.encoded(it as u64, stager).unwrap();
                let b = dir_store.encoded(it as u64, stager).unwrap();
                assert_eq!(a, b, "{}: disk and memory streams differ", codec.name());
                let frame = mem_store.get_frame(it as u64, stager).unwrap();
                bits.push(
                    frame
                        .pixels
                        .iter()
                        .map(|p| p.to_bits())
                        .collect::<Vec<u32>>(),
                );
            }
        }
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(
                r,
                &bits,
                "{}: lossless codecs must agree bit for bit",
                codec.name()
            ),
        }
    }
}

/// The serve path ships exactly the persisted bytes: how hard the
/// stagers are queried — which policy, which cache size — must not
/// perturb the frames they persist. (Every served frame is additionally
/// decoded and key-checked inside the client program itself.)
#[test]
fn serve_path_ships_the_persisted_bytes() {
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let run_with = |serve: &ServeParams| {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let sink = FrameSink::new(Arc::clone(&backend), "run", CodecKind::Fpz);
        let run = serve_fresh(&dataset, sink, &iters, serve);
        (run, backend)
    };
    let (wait, store_a) =
        run_with(&ServeParams::new(4, 8, ServePolicy::WaitForFrame).with_think_time(0.1));
    let (best, store_b) = run_with(
        &ServeParams::new(4, 8, ServePolicy::BestEffort)
            .with_think_time(0.1)
            .with_cache_bytes(0),
    );
    assert_eq!(wait.requests.len(), 4 * 8);
    assert!(wait.frames_served() > 0 && best.frames_served() > 0);

    for &it in &iters {
        for stager in 0..VIZ as u32 {
            let a = store_a.get(&frame_key("run", it as u64, stager)).unwrap();
            let b = store_b.get(&frame_key("run", it as u64, stager)).unwrap();
            assert_eq!(
                a, b,
                "serve policy and cache size must not perturb persisted frames"
            );
        }
    }
    // The staged pipeline observables agree too: serving load shapes
    // service latency, not what was rendered.
    let tri = |r: &ServingRun| {
        r.staged
            .frames
            .iter()
            .map(|f| f.report.triangles_total)
            .collect::<Vec<usize>>()
    };
    assert_eq!(tri(&wait), tri(&best));
    // The serving store additionally carries the run manifest.
    let manifest = FrameStore::new(&*store_a, "run").manifest().unwrap();
    assert_eq!(manifest.iterations, iters);
    assert_eq!(manifest.n_stagers, VIZ);
}

/// PR 8 acceptance pin: serving with the byte-bounded frame cache on vs
/// off. What is *served and persisted* must be identical bytes — staged
/// reports, frame streams on the backend, request traffic — while the
/// virtual read charges are cache-aware (hit = zero charge, miss = the
/// ranged read), so the uncached run's tail latency can only be equal or
/// worse. Each configuration additionally replays **byte-identically**
/// (reports, latencies, and frame bytes) against a rerun of itself.
#[test]
fn cache_on_vs_off_serving_is_pinned() {
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let run_with = |cache_bytes: usize| {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let sink = FrameSink::new(Arc::clone(&backend), "run", CodecKind::Fpz);
        let serve = ServeParams::new(4, 8, ServePolicy::BestEffort)
            .with_think_time(0.1)
            .with_cache_bytes(cache_bytes);
        let run = serve_fresh(&dataset, sink, &iters, &serve);
        (run, backend)
    };

    let (cached, cached_store) = run_with(1 << 20);
    let (cached2, _) = run_with(1 << 20);
    let (uncached, uncached_store) = run_with(0);
    let (uncached2, _) = run_with(0);

    // Replay determinism per configuration: the whole run — reports,
    // per-request latencies, served frame bytes — is byte-identical.
    assert_eq!(cached, cached2, "cache-on run must replay identically");
    assert_eq!(uncached, uncached2, "cache-off run must replay identically");

    // Across configurations, the rendered and persisted frames agree.
    for &it in &iters {
        for stager in 0..VIZ as u32 {
            assert_eq!(
                cached_store
                    .get(&frame_key("run", it as u64, stager))
                    .unwrap(),
                uncached_store
                    .get(&frame_key("run", it as u64, stager))
                    .unwrap(),
                "the cache must not perturb persisted frames"
            );
        }
    }
    let reports = |r: &ServingRun| r.staged.frames.iter().map(|f| f.report).collect::<Vec<_>>();
    assert_eq!(reports(&cached), reports(&uncached));
    assert_eq!(cached.frames_served(), uncached.frames_served());
    assert_eq!(cached.requests.len(), uncached.requests.len());

    // The cache is purely a virtual-latency lever.
    assert!(cached.cache_hit_rate() > 0.0);
    assert_eq!(uncached.cache_hit_rate(), 0.0);
    assert!(
        uncached.latency_percentile(99.0) >= cached.latency_percentile(99.0) - 1e-12,
        "cache misses must not improve tail latency"
    );
}

/// Serving over a fresh session and in-session serving (a `Prepared`'s
/// persistent ranks, replayed twice) produce identical runs and identical
/// stored bytes.
#[test]
fn one_shot_and_in_session_serving_replay_identically() {
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let serve = ServeParams::new(3, 6, ServePolicy::WaitForFrame).with_think_time(0.1);

    let backend_a: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let sink_a = FrameSink::new(Arc::clone(&backend_a), "run", CodecKind::Fpz);
    let one_shot = serve_fresh(&dataset, sink_a, &iters, &serve);

    let prepared = Prepared::from_dataset(
        ReflectivityDataset::tiny(8, 42).unwrap(),
        iters.clone(),
        ExecPolicy::Serial,
        NetModel::blue_waters(),
    );
    let backend_b: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let config = staged_config(FrameSink::new(
        Arc::clone(&backend_b),
        "run",
        CodecKind::Fpz,
    ));
    let first = prepared.run_staged_serving(config.clone(), &iters, &serve);
    let second = prepared.run_staged_serving(config, &iters, &serve);

    assert_eq!(one_shot, first, "fresh vs reused session serving diverged");
    assert_eq!(first, second, "session replay diverged");
    for &it in &iters {
        for stager in 0..VIZ as u32 {
            assert_eq!(
                backend_a.get(&frame_key("run", it as u64, stager)).unwrap(),
                backend_b.get(&frame_key("run", it as u64, stager)).unwrap(),
                "stored frames must be byte-identical across execution styles"
            );
        }
    }
}

/// Damaged frame files on disk surface as `Corrupt` (or a store error),
/// never as a panic — the serve-layer mirror of
/// `compress/tests/adversarial.rs`.
#[test]
fn damaged_frame_files_are_corrupt_not_panics() {
    let dir_root = tmp_dir("damage");
    let backend: Arc<dyn StoreBackend> = Arc::new(DirStore::create(&dir_root).unwrap());
    let iters = persist_run(Arc::clone(&backend), "run", CodecKind::Fpz);
    let store = FrameStore::new(&*backend, "run");
    let it = iters[0] as u64;

    let full = store.encoded(it, 0).unwrap();
    // Truncation at a sweep of prefix lengths.
    for len in [0, 1, 8, full.len() / 2, full.len() - 1] {
        backend.put(&frame_key("run", it, 0), &full[..len]).unwrap();
        assert!(
            matches!(store.get_frame(it, 0), Err(ServeError::Corrupt(_))),
            "truncation to {len} bytes must be Corrupt"
        );
    }
    // Single-bit flips across the stream: decode returns (any) Result.
    for pos in 0..full.len() {
        let mut bad = full.clone();
        bad[pos] ^= 0x10;
        backend.put(&frame_key("run", it, 0), &bad).unwrap();
        let _ = store.get_frame(it, 0); // must not unwind
    }
    // Restore and confirm the store still replays cleanly.
    backend.put(&frame_key("run", it, 0), &full).unwrap();
    assert_eq!(store.get_frame(it, 0).unwrap().iteration, it);
}
