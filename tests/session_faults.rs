//! Session failure stories over the full executors: a rank that dies
//! mid-shard-read, a replay server or a serving stager that dies
//! mid-request, and the replay pool's stealing under session reuse. Each
//! failure must fail the run at once and poison the session, and a fresh
//! session over the same store must then run byte-identically. They
//! drive `apc-store`, `apc-replay`, `apc-core` and `apc-cm1` through
//! `apc-comm`'s session machinery, so they live here rather than under
//! the runtime they exercise (`crates/comm/tests/session_stress.rs` keeps
//! the ones that need only `apc-comm`).

#![expect(
    clippy::disallowed_methods,
    reason = "test-only wall clock: it bounds how long a failure takes to surface"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apc_comm::{NetModel, Runtime};
use apc_store::{MemStore, StoreBackend, StoreError};

/// The sharded-store failure story: ranks read their chunks out of one
/// shared shard container via byte-range partial reads, then meet in a
/// barrier. One rank panics mid-read — after fetching its bytes but
/// before the rendezvous — so its peers are stranded in the barrier.
/// They must fail when the run stalls, the panic must poison the
/// session, and a fresh session must replay the **same shard files**
/// successfully: shard state lives in
/// the store, not the session, so rank death never corrupts it.
#[test]
fn rank_panic_mid_shard_read_poisons_and_recovers() {
    use apc_store::{DirStore, ShardWriter, ShardedStore};

    const NRANKS: usize = 4;
    let root = std::env::temp_dir()
        .join("apc_session_stress_tests")
        .join("shard-read-panic");
    let _ = std::fs::remove_dir_all(&root);
    let store = DirStore::create(&root).unwrap();
    let mut writer = ShardWriter::new();
    let payload_of = |r: usize| vec![r as u8 ^ 0x5C; 512];
    for r in 0..NRANKS {
        writer
            .append(&format!("c/000100/{r:06}"), &payload_of(r))
            .unwrap();
    }
    writer.write_to(&store, "c/000100/s000000").unwrap();

    let runtime = Runtime::new(NRANKS, NetModel::free());
    let mut session = runtime.session();

    let read_own_chunk = |r: usize| {
        ShardedStore::new(&store, NRANKS)
            .get(&format!("c/000100/{r:06}"))
            .unwrap()
    };

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            let r = rank.rank();
            let bytes = read_own_chunk(r);
            if r == 2 {
                // Mid-read: the bytes are in hand but the barrier that
                // publishes them never happens — peers strand there.
                panic!("rank {r} died mid-shard-read");
            }
            rank.barrier();
            bytes
        })
    }));
    assert!(result.is_err(), "the run must fail, not complete");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stranded peers must fail when the run stalls"
    );
    assert!(
        session.is_poisoned(),
        "a mid-read panic poisons the session"
    );

    // Recovery against the *same* shard files: the panic left the
    // container untouched, so a fresh session reads every chunk.
    drop(session);
    let mut fresh = runtime.session();
    let out = fresh.run(|rank| {
        let bytes = read_own_chunk(rank.rank());
        rank.barrier();
        bytes
    });
    for (r, bytes) in out.iter().enumerate() {
        assert_eq!(*bytes, payload_of(r), "rank {r} chunk damaged by the panic");
    }
}

/// A backend that panics on its `nth` read (`get` / `get_range`, counted
/// from 1) of a frame key `f/<run>/<iteration>/…`; every other call goes
/// straight through. A replay server or a serving stager reads frames
/// after receiving a request and before replying, so the panic lands
/// mid-request on whichever rank makes that read.
struct DiesOnFrameRead {
    inner: Arc<dyn StoreBackend>,
    nth: usize,
    reads: AtomicUsize,
}

impl DiesOnFrameRead {
    fn wrap(inner: Arc<dyn StoreBackend>, nth: usize) -> Arc<dyn StoreBackend> {
        Arc::new(Self {
            inner,
            nth,
            reads: AtomicUsize::new(0),
        })
    }

    fn read(&self, key: &str) {
        let frame = key.starts_with("f/") && !key.ends_with("/manifest.json");
        if frame && self.reads.fetch_add(1, Ordering::SeqCst) + 1 == self.nth {
            panic!("dying on frame read {} ({key})", self.nth);
        }
    }
}

impl StoreBackend for DiesOnFrameRead {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.read(key);
        self.inner.get(key)
    }
    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.contains(key)
    }
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.read(key);
        self.inner.get_range(key, offset, len)
    }
    fn size(&self, key: &str) -> Result<u64, StoreError> {
        self.inner.size(key)
    }
}

/// The replay-pool failure story: a replay server dies mid-request (on a
/// cold frame read, after receiving a request, before replying),
/// stranding every client waiting on its replies. The stranded ranks must
/// fail at once, the panic must poison the session — and because the run lives in the store, not
/// the session, a fresh session must replay the same trace
/// byte-identically, twice.
#[test]
fn replay_server_death_mid_request_poisons_and_fresh_session_replays() {
    use apc_core::run_replay_serving_in_session;
    use apc_replay::{small_run, ArrivalTrace, PoolParams, RouteMode, TraceSpec};

    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let manifest = small_run(Arc::clone(&backend), "stress-replay");
    let trace = ArrivalTrace::generate(&TraceSpec::new(6, 6, 17), &manifest);
    let nranks = 4 + trace.clients;
    let runtime = Runtime::new(nranks, NetModel::free());

    let sound = PoolParams::new(4, RouteMode::RoutedStealing);
    let mut session = runtime.session();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_replay_serving_in_session(
            &mut session,
            DiesOnFrameRead::wrap(Arc::clone(&backend), 3),
            "stress-replay",
            &trace,
            &sound,
            apc_par::ExecPolicy::Serial,
        )
    }));
    assert!(
        result.is_err(),
        "the faulted replay must fail, not complete"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stranded replay clients must fail at once"
    );
    assert!(
        session.is_poisoned(),
        "a dead replay server poisons the session"
    );
    drop(session); // must join cleanly, not hang

    // Fresh sessions over the same persisted run replay identically: the
    // panic touched session state only, never the store.
    let replay = |_: usize| {
        let mut fresh = runtime.session();
        run_replay_serving_in_session(
            &mut fresh,
            Arc::clone(&backend),
            "stress-replay",
            &trace,
            &sound,
            apc_par::ExecPolicy::Serial,
        )
    };
    let a = replay(0);
    let b = replay(1);
    assert_eq!(a, b, "fresh sessions must replay byte-identically");
    assert_eq!(
        a.requests.len(),
        trace.len(),
        "the recovered replay answers every recorded arrival"
    );
}

/// Stealing under churn: the same bursty trace replayed many times over
/// one reused session, alternating `Serial` and `Threads(8)` for the
/// resolution pass, must produce one byte-identical result — stealing
/// decisions come from the recorded plan, never from thread timing.
#[test]
fn stealing_under_churn_is_byte_identical_across_exec_policies() {
    use apc_core::run_replay_serving_in_session;
    use apc_replay::{small_run, ArrivalTrace, PoolParams, RouteMode, TraceSpec};

    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let manifest = small_run(Arc::clone(&backend), "stress-churn");
    // Hard bursts so the plan actually steals.
    let spec = TraceSpec::new(16, 8, 29).with_intervals(1e-2, 5e-4);
    let trace = ArrivalTrace::generate(&spec, &manifest);
    let params = PoolParams::new(4, RouteMode::RoutedStealing);
    let runtime = Runtime::new(4 + trace.clients, NetModel::free());
    let mut session = runtime.session();

    let mut runs = Vec::new();
    for i in 0..4 {
        let exec = if i % 2 == 0 {
            apc_par::ExecPolicy::Serial
        } else {
            apc_par::ExecPolicy::Threads(8)
        };
        runs.push(run_replay_serving_in_session(
            &mut session,
            Arc::clone(&backend),
            "stress-churn",
            &trace,
            &params,
            exec,
        ));
    }
    assert!(runs[0].stolen_total > 0, "burst load must trigger steals");
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0], run, "run {i} diverged under churn");
    }
}

/// Adaptive-serving death: a stager running a tight latency budget dies
/// **mid-reply** — on a frame read, after taking the request and before
/// the bytes go out — stranding its clients waiting on replies. The
/// stranded ranks must fail at once and the panic must poison the session; sound fresh sessions
/// over the same configuration then run byte-identically, proving the
/// fault touched session state only.
#[test]
fn stager_death_mid_degraded_reply_fails_at_once_and_poisons() {
    use apc_cm1::ReflectivityDataset;
    use apc_core::{
        run_staged_serving_in_session, BackpressurePolicy, FrameSink, PipelineConfig, ServeParams,
        ServePolicy, ServingRun, StagedParams,
    };
    use apc_store::CodecKind;

    // The tight-budget serving fixture: per-reply service cost far above
    // the latency budget, so the per-stager controller walks the
    // fidelity ladder and replies are degraded. A stager reads the store
    // only on a cache miss, so the faulty run serves uncached (2048 bytes
    // hold every tiny frame) and dies on the run's 10th frame read, deep
    // in the run.
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(4);
    let serve_base = ServeParams::new(4, 6, ServePolicy::BestEffort)
        .with_think_time(0.1)
        .with_cache_bytes(2048)
        .with_serve_costs(0.05, 1e-4)
        .with_latency_budget(0.01);
    let config_for = |backend: &Arc<dyn StoreBackend>| {
        let sink = FrameSink::new(Arc::clone(backend), "stress-serve", CodecKind::Fpz);
        let params = StagedParams::new(2, 2, BackpressurePolicy::Block)
            .with_sim_compute(5.0)
            .with_persist(sink);
        PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0)
            .with_staged(params)
    };
    let runtime = Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters());

    let faulty = serve_base.with_cache_bytes(0);
    let config = config_for(&DiesOnFrameRead::wrap(Arc::new(MemStore::new()), 10));
    let mut session = runtime.session();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_staged_serving_in_session(
            &mut session,
            dataset.decomp(),
            dataset.coords(),
            &config,
            &iters,
            &faulty,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
    }));
    assert!(
        result.is_err(),
        "the faulted serving run must fail, not complete"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stranded serving clients must fail at once"
    );
    assert!(session.is_poisoned(), "a dead stager poisons the session");
    drop(session); // must join cleanly, not hang

    // The fault touched session state only: sound fresh sessions over
    // the same configuration serve byte-identically — the same recovery
    // story as the replay-pool death above.
    let sound = |_: usize| -> ServingRun {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let config = config_for(&backend);
        let mut fresh = runtime.session();
        let run = run_staged_serving_in_session(
            &mut fresh,
            dataset.decomp(),
            dataset.coords(),
            &config,
            &iters,
            &serve_base,
            &|it, rank| dataset.rank_blocks(it, rank),
        );
        assert!(!fresh.is_poisoned(), "a sound run must not poison");
        run
    };
    let a = sound(0);
    let b = sound(1);
    assert_eq!(a, b, "fresh sessions must serve byte-identically");
    assert!(
        a.degraded_replies() > 0,
        "the tight budget must actually degrade replies in the sound runs"
    );
}
