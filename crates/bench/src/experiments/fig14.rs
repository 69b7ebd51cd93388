//! Fig 14 (extension beyond the paper): standalone replay serving at
//! client fan-out.
//!
//! Unlike fig13 — where stagers answer requests *while* the simulation is
//! still producing frames — every rank in this session is either a replay
//! server or a client. The frames come from a persisted run synthesised
//! up front (`apc-replay`'s deterministic fixture); zero sim or stage
//! ranks participate. The experiment sweeps the client count
//! (64 → 4096) against the three routing modes:
//!
//! * **pinned** — each client is statically pinned to `client % nservers`,
//!   the naive deployment; every server ends up caching the whole hot set;
//! * **routed** — rendezvous hashing gives every frame key exactly one
//!   home, so the pool's aggregate cache is the union of disjoint shards;
//! * **routed+steal** — routing plus virtual-time request stealing: an
//!   idle server takes queued work from the most-loaded peer, replayed
//!   deterministically from the recorded arrival order.
//!
//! Arrivals follow a recorded bursty trace (calm/burst Poisson phases with
//! a sliding hot window); requests split into Premium (`WaitForFrame`
//! semantics — exact or a typed error) and Free (`BestEffort` — newest
//! earlier frame on a miss) QoS tiers with per-tier latency accounting.
//! The headline (largest) configuration is re-run in the same session and
//! must replay byte-identically, and routed+steal p99 must not exceed
//! pinned p99 at equal client count.

// apc-lint: allow-file(unwrap-in-lib): bench harness — panicking on a bad run or I/O error is the failure mode we want
use std::sync::Arc;

use apc_comm::{NetModel, Runtime};
use apc_core::{run_replay_serving_in_session, ReplayRun};
use apc_replay::{synth_run, ArrivalTrace, PoolParams, QosTier, RouteMode, TraceSpec};
use apc_serve::open_run;
use apc_store::{CodecKind, MemStore, StoreBackend};

use crate::harness::{print_table, write_csv, Scale};

const RUN_ID: &str = "fig14-replay";
const NSERVERS: usize = 16;
/// Per-server LRU budget, sized so a routed server holds its rendezvous
/// shard of the hot window while a pinned server thrashes on the full set.
const CACHE_BYTES: usize = 8 << 10;

/// Client fan-out sweep. The top entry is the acceptance bar: 4096 client
/// ranks served from a persisted run with zero live sim/stage ranks.
const CLIENT_SWEEP: &[usize] = &[64, 256, 1024, 4096];

fn fixture() -> (Arc<dyn StoreBackend>, Vec<usize>) {
    let iterations: Vec<usize> = (1..=32).map(|i| i * 100).collect();
    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    synth_run(
        Arc::clone(&backend),
        RUN_ID,
        &iterations,
        8,
        32,
        24,
        CodecKind::Fpz,
        Some(4),
    );
    (backend, iterations)
}

/// Requests per client, shrinking with fan-out so total request volume
/// grows sub-linearly (16k requests at the 4096-client headline).
fn requests_per_client(clients: usize) -> usize {
    (8192 / clients).clamp(4, 32)
}

/// Bursty arrival trace with per-client mean intervals scaled linearly in
/// the client count, holding the pool's aggregate offered load roughly
/// constant across the sweep.
fn trace_for(clients: usize, seed: u64, backend: &Arc<dyn StoreBackend>) -> ArrivalTrace {
    let spec = TraceSpec::new(clients, requests_per_client(clients), seed)
        .with_intervals(2.5e-5 * clients as f64, 2.5e-6 * clients as f64);
    let (_, manifest) = open_run(Arc::clone(backend), RUN_ID).unwrap();
    ArrivalTrace::generate(&spec, &manifest)
}

pub fn run(scale: &Scale) {
    let (backend, _iterations) = fixture();
    println!(
        "\n== Fig 14 — standalone replay serving, {NSERVERS} servers, zero sim/stage ranks, \
         clients {CLIENT_SWEEP:?} x {{pinned, routed, routed+steal}} =="
    );

    let mut csv = Vec::new();
    for &clients in CLIENT_SWEEP {
        let tr = trace_for(clients, scale.seed, &backend);
        let mut session = Runtime::new(NSERVERS + clients, NetModel::blue_waters())
            .stack_size(512 << 10)
            .session();
        let mut run_mode = |mode: RouteMode| -> ReplayRun {
            let params = PoolParams::new(NSERVERS, mode).with_cache_bytes(CACHE_BYTES);
            run_replay_serving_in_session(
                &mut session,
                Arc::clone(&backend),
                RUN_ID,
                &tr,
                &params,
                scale.exec,
            )
        };

        let mut p99_by_mode = Vec::new();
        for mode in [
            RouteMode::Pinned,
            RouteMode::Routed,
            RouteMode::RoutedStealing,
        ] {
            let out = run_mode(mode);
            let hit = out.cache_hit_rate();
            let p50 = out.latency_percentile(50.0);
            let p99 = out.latency_percentile(99.0);
            let prem99 = out.tier_latency_percentile(QosTier::Premium, 99.0);
            let free99 = out.tier_latency_percentile(QosTier::Free, 99.0);
            csv.push(format!(
                "{NSERVERS},{clients},{},{},{},{},{hit:.6},{p50:.6},{p99:.6},{prem99:.6},{free99:.6}",
                mode.name(),
                out.requests.len(),
                out.frames_served(),
                out.stolen_total,
            ));
            p99_by_mode.push((mode, p99, out));
        }

        // Acceptance: at every client count, deterministic stealing must
        // not make the tail worse than the naive pinned deployment.
        let pinned_p99 = p99_by_mode[0].1;
        let steal_p99 = p99_by_mode[2].1;
        assert!(
            steal_p99 <= pinned_p99,
            "{clients} clients: routed+steal p99 ({steal_p99:.4}) exceeds pinned p99 \
             ({pinned_p99:.4})"
        );

        // Byte-determinism in-bin: replay the stealing run in the same
        // session and demand the identical ReplayRun — every latency,
        // every cache counter, every stolen request.
        if clients == *CLIENT_SWEEP.last().unwrap() {
            let again = run_mode(RouteMode::RoutedStealing);
            assert_eq!(
                again, p99_by_mode[2].2,
                "replay must be byte-identical at {clients} clients"
            );
            println!(
                "determinism: {clients}-client routed+steal run replayed byte-identically \
                 ({} requests, {} stolen) ✓",
                again.requests.len(),
                again.stolen_total
            );
        }
    }

    let header = "nservers,clients,mode,requests,frames_served,stolen,cache_hit_rate,\
                  p50_latency,p99_latency,premium_p99,free_p99";
    print_table(
        "replay fan-out vs routing mode (latency in virtual seconds)",
        header,
        &csv,
    );
    let path = write_csv("fig14_replay_fanout.csv", header, &csv);
    println!("csv: {}", path.display());
}
