//! Acceptance guards for the standalone replay serving pool: a session of
//! `[servers][clients]` ranks — zero live sim or stage ranks — serves a
//! persisted run byte-identically across repeats, exec policies, session
//! reuse, and frame layouts; routing gives keys stable homes; stealing
//! moves work without changing a single reply; and QoS tiers split the
//! miss path exactly as specified.

use std::sync::Arc;

use insitu::comm::{NetModel, Runtime};
use insitu::pipeline::{run_replay_serving_in_session, ExecPolicy, ReplayRun};
use insitu::replay::{synth_run, ArrivalTrace, PoolParams, QosTier, RouteMode, TraceSpec};
use insitu::store::{CodecKind, MemStore, StoreBackend};

const RUN: &str = "replay-acceptance";
const ITERS: &[usize] = &[100, 200, 300, 400, 500, 600, 700, 800];
const NSERVERS: usize = 4;

fn fixture(shard: Option<usize>) -> Arc<dyn StoreBackend> {
    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    synth_run(
        Arc::clone(&backend),
        RUN,
        ITERS,
        NSERVERS,
        16,
        12,
        CodecKind::Fpz,
        shard,
    );
    backend
}

fn trace(clients: usize, seed: u64) -> ArrivalTrace {
    let spec = TraceSpec::new(clients, 10, seed);
    let backend = fixture(None);
    let (_, manifest) = insitu::serve::open_run(backend, RUN).unwrap();
    ArrivalTrace::generate(&spec, &manifest)
}

/// A replay run over a fresh session of `[servers][clients]` ranks.
fn run_fresh(
    backend: Arc<dyn StoreBackend>,
    tr: &ArrivalTrace,
    params: &PoolParams,
    exec: ExecPolicy,
) -> ReplayRun {
    let nranks = params.nservers + tr.clients;
    let mut session = Runtime::new(nranks, NetModel::blue_waters()).session();
    run_replay_serving_in_session(&mut session, backend, RUN, tr, params, exec)
}

fn run(
    backend: Arc<dyn StoreBackend>,
    tr: &ArrivalTrace,
    mode: RouteMode,
    exec: ExecPolicy,
) -> ReplayRun {
    let params = PoolParams::new(NSERVERS, mode).with_cache_bytes(8 << 10);
    run_fresh(backend, tr, &params, exec)
}

#[test]
fn replay_run_is_byte_identical_across_repeats_and_exec_policies() {
    let tr = trace(12, 7);
    for mode in [
        RouteMode::Pinned,
        RouteMode::Routed,
        RouteMode::RoutedStealing,
    ] {
        let a = run(fixture(None), &tr, mode, ExecPolicy::Serial);
        let b = run(fixture(None), &tr, mode, ExecPolicy::Serial);
        assert_eq!(a, b, "{mode:?}: repeat runs must be byte-identical");
        let c = run(fixture(None), &tr, mode, ExecPolicy::Threads(8));
        assert_eq!(a, c, "{mode:?}: ExecPolicy must not move a byte");
    }
}

#[test]
fn replay_is_identical_across_session_reuse() {
    let tr = trace(8, 3);
    let params = PoolParams::new(NSERVERS, RouteMode::RoutedStealing).with_cache_bytes(8 << 10);
    let backend = fixture(None);
    let mut session = Runtime::new(NSERVERS + tr.clients, NetModel::blue_waters()).session();
    let a = run_replay_serving_in_session(
        &mut session,
        Arc::clone(&backend),
        RUN,
        &tr,
        &params,
        ExecPolicy::Serial,
    );
    let b = run_replay_serving_in_session(
        &mut session,
        Arc::clone(&backend),
        RUN,
        &tr,
        &params,
        ExecPolicy::Serial,
    );
    assert_eq!(a, b, "session reuse must not move a byte");
    let c = run(backend, &tr, RouteMode::RoutedStealing, ExecPolicy::Serial);
    assert_eq!(a, c, "a reused and a fresh session must agree");
}

#[test]
fn flat_and_sharded_runs_serve_identical_replies() {
    let tr = trace(10, 11);
    let flat = run(fixture(None), &tr, RouteMode::Routed, ExecPolicy::Serial);
    let sharded = run(fixture(Some(3)), &tr, RouteMode::Routed, ExecPolicy::Serial);
    // Frame streams ride the same codec either way; the shard container
    // is transparent to every observable.
    assert_eq!(flat, sharded, "frame layout must be invisible to replay");
}

#[test]
fn every_request_is_answered_and_verified() {
    let tr = trace(16, 19);
    let out = run(
        fixture(None),
        &tr,
        RouteMode::RoutedStealing,
        ExecPolicy::Serial,
    );
    assert_eq!(out.requests.len(), tr.len(), "one log per recorded arrival");
    for (slot, log) in out.requests.iter().enumerate() {
        assert_eq!(log.route.slot, slot, "logs come back in trace-slot order");
        assert!(log.latency > 0.0, "latency includes wire + service time");
    }
    assert!(out.frames_served() > 0);
    let served: usize = out.servers.iter().map(|s| s.requests).sum();
    assert_eq!(served, tr.len(), "servers answered every arrival");
    // Per-server cache stats are attributable (satellite: CacheStats per
    // rank, not just aggregate hit counts).
    for s in &out.servers {
        assert_eq!(
            s.cache.hits + s.cache.misses > 0,
            s.frames_served > 0,
            "cache counters track frame reads"
        );
    }
}

#[test]
fn routed_mode_gives_every_key_one_home() {
    let tr = trace(16, 23);
    let out = run(fixture(None), &tr, RouteMode::Routed, ExecPolicy::Serial);
    // Same primary for every occurrence of a frame key — the cache
    // affinity routing exists to create.
    let mut homes: Vec<((u64, u32), usize)> = Vec::new();
    for log in &out.requests {
        let a = &tr.arrivals[log.route.slot];
        let key = insitu::replay::route_key(a.request, a.stager, ITERS);
        match homes.iter().find(|(k, _)| *k == key) {
            Some((_, home)) => assert_eq!(*home, log.route.primary, "key {key:?} moved homes"),
            None => homes.push((key, log.route.primary)),
        }
    }
    assert_eq!(out.stolen_total, 0, "Routed never steals");
}

#[test]
fn stealing_moves_work_but_not_bytes() {
    // A hot seed that funnels arrivals onto few primaries: stealing must
    // fire, and the replies must stay exactly what no-stealing produced.
    let tr = trace(24, 5);
    let routed = run(fixture(None), &tr, RouteMode::Routed, ExecPolicy::Serial);
    let steal = run(
        fixture(None),
        &tr,
        RouteMode::RoutedStealing,
        ExecPolicy::Serial,
    );
    assert!(steal.stolen_total > 0, "burst load must trigger steals");
    assert_eq!(
        steal.servers.iter().map(|s| s.stolen).sum::<usize>(),
        steal.stolen_total
    );
    for (r, s) in routed.requests.iter().zip(&steal.requests) {
        assert_eq!(r.request, s.request);
        assert_eq!(r.frames, s.frames, "stealing must not change reply content");
        assert_eq!(r.exact, s.exact);
        assert_eq!(
            r.route.primary, s.route.primary,
            "stealing never re-routes primaries"
        );
    }
}

#[test]
fn qos_tiers_split_the_miss_path() {
    // One trace carries both tiers, and clients of each ask past the end
    // of the run: the same miss, opposite semantics.
    let tr = trace(16, 19);
    let out = run(fixture(None), &tr, RouteMode::Routed, ExecPolicy::Serial);
    let misses = |tier| {
        out.requests
            .iter()
            .filter(move |r| r.route.tier == tier && !r.exact)
    };
    // Premium: every inexact answer is a typed error carrying no frames.
    assert!(
        misses(QosTier::Premium).count() > 0,
        "premium clients must ask for out-of-run iterations"
    );
    assert!(
        misses(QosTier::Premium).all(|r| r.frames == 0),
        "premium never gets substitutes"
    );
    // Free: out-of-run requests get the newest earlier frame instead.
    assert!(
        misses(QosTier::Free).any(|r| r.frames > 0),
        "free tier substitutes instead of erroring"
    );
    // Per-tier latency accounting sees both tiers.
    for tier in [QosTier::Premium, QosTier::Free] {
        assert!(out.tier_latency_percentile(tier, 99.0) > 0.0, "{tier:?}");
    }
}

#[test]
fn cache_budget_changes_latency_but_never_replies() {
    let tr = trace(12, 13);
    let hot = run(fixture(None), &tr, RouteMode::Routed, ExecPolicy::Serial);
    let cold_params = PoolParams::new(NSERVERS, RouteMode::Routed).with_cache_bytes(0);
    let cold = run_fresh(fixture(None), &tr, &cold_params, ExecPolicy::Serial);
    assert!(
        hot.cache_hit_rate() > 0.0,
        "hot-window skew must produce hits"
    );
    assert_eq!(cold.cache_hit_rate(), 0.0, "budget 0 disables caching");
    for (h, c) in hot.requests.iter().zip(&cold.requests) {
        assert_eq!(h.request, c.request);
        assert_eq!(h.frames, c.frames, "cache must be invisible to content");
        assert_eq!(h.exact, c.exact);
    }
    // All-miss service is never faster.
    assert!(cold.latency_percentile(50.0) >= hot.latency_percentile(50.0));
}
