//! Synthetic persisted runs for replay suites and benches.
//!
//! A replay pool serves a run some *earlier* session produced; the
//! fixtures here stand in for that session, writing a deterministic run
//! (SplitMix64 pixels, strictly increasing iterations) straight through
//! the same [`FrameSink`] lifecycle the staged executor uses — manifest,
//! frames, seal — in whatever layout the caller names, on any backend.

use std::sync::Arc;

use apc_par::SplitMix64;
use apc_serve::{Frame, FrameSink, RunManifest};
use apc_store::{CodecKind, StoreBackend};

/// Write a complete synthetic run to `backend` and return its manifest.
/// Pure in everything but the writes: the same arguments always produce
/// byte-identical frames, so replay suites can regenerate the fixture
/// instead of shipping binary artifacts.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per knob of the synthetic run; callers name each at the call site"
)]
pub fn synth_run(
    backend: Arc<dyn StoreBackend>,
    run_id: &str,
    iterations: &[usize],
    n_stagers: usize,
    width: usize,
    height: usize,
    codec: CodecKind,
    shard_chunks: Option<usize>,
) -> RunManifest {
    assert!(!iterations.is_empty(), "a run needs at least one iteration");
    assert!(n_stagers >= 1, "a run needs at least one stager");
    let sink = FrameSink::with_layout(backend, run_id, codec, shard_chunks);
    #[expect(
        clippy::expect_used,
        reason = "fixture setup — a manifest write failure must fail the suite loudly"
    )]
    let manifest = sink
        .begin_run(n_stagers, width, height, iterations)
        .expect("write the fixture manifest");
    for &it in iterations {
        for stager in 0..n_stagers {
            // Pixels keyed by (iteration, stager): frames differ across
            // the run but replay byte-identically.
            let mut rng =
                SplitMix64::new((it as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stager as u64));
            let pixels: Vec<f32> = (0..width * height)
                .map(|_| rng.range_f32(-60.0, 75.0))
                .collect();
            let frame = Frame::new(
                it as u64,
                stager as u32,
                width as u32,
                height as u32,
                pixels,
            )
            .with_render_info(rng.next_u64() % 4096, rng.range_f64(10.0, 90.0));
            sink.persist(&frame);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "fixture setup — failing to seal the run must fail the suite loudly"
    )]
    sink.flush().expect("seal the fixture's tail shards");
    manifest
}

/// Convenience: a small flat in-memory run for unit suites.
// apc-lint: allow(dead-pub): session_stress's replay-pool death and churn cases build their run with it
pub fn small_run(backend: Arc<dyn StoreBackend>, run_id: &str) -> RunManifest {
    synth_run(
        backend,
        run_id,
        &[100, 200, 300, 400, 500, 600, 700, 800],
        4,
        16,
        12,
        CodecKind::Fpz,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_serve::open_run;
    use apc_store::MemStore;

    #[test]
    fn fixture_runs_open_and_replay_byte_identically() {
        for shard in [None, Some(3)] {
            let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
            let m1 = synth_run(
                Arc::clone(&backend),
                "fix",
                &[10, 20, 30],
                2,
                8,
                6,
                CodecKind::Fpz,
                shard,
            );
            let (store, m2) = open_run(Arc::clone(&backend), "fix").expect("open the fixture");
            assert_eq!(m1, m2);
            let other: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
            synth_run(
                Arc::clone(&other),
                "fix",
                &[10, 20, 30],
                2,
                8,
                6,
                CodecKind::Fpz,
                shard,
            );
            let (store2, _) = open_run(other, "fix").expect("open the twin");
            for &it in &m1.iterations {
                for s in 0..m1.n_stagers {
                    let a = store.encoded(it as u64, s as u32).expect("read");
                    let b = store2.encoded(it as u64, s as u32).expect("read twin");
                    assert_eq!(a, b, "fixture frames must be byte-identical");
                    let frame = Frame::decode(&a).expect("decode");
                    assert_eq!(frame.iteration, it as u64);
                    assert_eq!(frame.stager, s as u32);
                }
            }
        }
    }

    #[test]
    fn small_run_covers_four_stagers() {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let m = small_run(Arc::clone(&backend), "small");
        assert_eq!(m.n_stagers, 4);
        assert_eq!(m.iterations.len(), 8);
        let (store, _) = open_run(backend, "small").expect("open");
        assert!(store.contains(800, 3).expect("probe"));
    }
}
