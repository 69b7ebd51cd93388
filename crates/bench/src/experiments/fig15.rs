//! Fig 15 (extension beyond the paper): performance-constrained serving
//! under a client-load ramp.
//!
//! The paper's Algorithm 1 keeps the *visualization pipeline* inside a
//! time budget by degrading how much data it renders. This experiment
//! points the same controller at the *serving* side: each of the 8
//! stagers runs a [`BudgetController`](apc_core::BudgetController) over a
//! sliding window of its observed virtual reply latencies, and the
//! controller's percent output selects a reply **fidelity ladder** —
//! full frame → lossy `Zfpx` re-encode → score-ranked block dropping →
//! header-only. As the client count ramps 16 → 1024 the per-stager queue
//! grows ~2 → ~128 requests per frame, and per-reply service cost is
//! dominated by a per-byte wire charge, so shrinking replies is the
//! only lever that shortens the tail.
//!
//! Two modes per ramp step:
//!
//! * **fixed** — no budget: every reply ships the full frame, the naive
//!   deployment whose p99 grows linearly with the ramp;
//! * **adaptive** — a per-stager latency budget: the controller walks
//!   the ladder exactly as far as the load requires.
//!
//! Acceptance, asserted in-bin: at the top of the ramp the fixed p99
//! exceeds the budget while the adaptive p99 stays within `budget · 1.1`;
//! a generous budget ships **zero** degraded replies (the controller
//! converges to 0%, not to a plateau above it); and the headline adaptive
//! run replays byte-identically in the same session.

use std::sync::Arc;

use apc_cm1::{ReflectivityDataset, StormModel};
use apc_comm::{NetModel, Runtime};
use apc_core::{
    BackpressurePolicy, FrameSink, PipelineConfig, ServeParams, ServePolicy, ServingRun,
    StagedParams,
};
use apc_grid::{Dims3, DomainDecomp, ProcGrid};
use apc_store::{CodecKind, MemStore};

use crate::harness::{print_table, write_csv, Scale};

const NSIM: usize = 8;
const NSTAGE: usize = 8;
/// Client fan-out ramp. The top entry is the acceptance bar: 128 queued
/// requests per stager per frame.
const CLIENT_SWEEP: &[usize] = &[16, 64, 256, 1024];
/// Requests each client issues, the same at every fan-out: offered load
/// grows linearly with the client count (16384 requests at the headline).
const REQUESTS_PER_CLIENT: usize = 16;

/// Per-reply virtual service cost: a small fixed dispatch charge plus a
/// per-byte wire charge. The byte term dominates for full frames, so the
/// fidelity ladder has real leverage on the tail.
const SERVICE_BASE: f64 = 1e-4;
const REPLY_PER_BYTE: f64 = 2e-6;

/// Frames rendered over the run: enough post-ramp frames for both modes
/// to reach their steady state.
const ITERS: usize = 16;

/// The per-stager latency budget for the adaptive mode, sized so the
/// bottom of the ramp fits comfortably (no degradation) and the top
/// cannot fit at full fidelity (the ladder must engage). The floor the
/// ladder cannot shrink is the quota wait — a request arriving past the
/// current frame's quota waits roughly one frame period (~0.5 virtual
/// seconds at the top of the ramp) — so the budget sits above that floor
/// and well under the fixed mode's multi-second backlog tail.
const BUDGET: f64 = 0.8;

/// Per-client start stagger: client `c` comes online at `c · ramp`, so
/// the top-of-ramp session sees offered load build over ~0.4 virtual
/// seconds (a few frame periods) — the in-run load ramp the controller
/// adapts ahead of — while the bottom's spread is negligible.
const CLIENT_RAMP: f64 = 4e-4;

/// A budget no load on this ramp can violate: the zero-degradation
/// control.
const GENEROUS_BUDGET: f64 = 1e6;

/// One 2×2×8 block per rank at any rank count: a 1-D decomposition whose
/// domain stretches with the session, so the ramp can pick arbitrary
/// client counts without divisibility puzzles. The rendered frame is
/// `n_total`×1 pixels — reply bytes grow with the session, which only
/// sharpens the per-byte dynamics the controller acts on.
fn dataset_for(n_total: usize, seed: u64) -> ReflectivityDataset {
    let decomp = DomainDecomp::new(
        Dims3::new(2 * n_total, 2, 8),
        ProcGrid::new(n_total, 1, 1),
        Dims3::new(2, 2, 8),
    )
    .unwrap();
    ReflectivityDataset::new(decomp, StormModel::new(seed))
}

pub fn run(scale: &Scale) {
    println!(
        "\n== Fig 15 — adaptive serving under a client-load ramp, {NSTAGE} stagers, \
         clients {CLIENT_SWEEP:?} x {{fixed, adaptive(budget {BUDGET})}} =="
    );

    // Steady-state tail: the p99 over each client's second-half requests,
    // after the start ramp has completed and the controller has walked to
    // its operating point. The run-wide p99 additionally absorbs the
    // adaptation transient (the controller starts at full fidelity by
    // design), so the acceptance bar is the steady tail.
    let steady_p99 = |run: &ServingRun| -> f64 {
        let mut seen = vec![0usize; run.client_finish.len()];
        let half = REQUESTS_PER_CLIENT / 2;
        let lat: Vec<f64> = run
            .requests
            .iter()
            .filter_map(|r| {
                seen[r.client] += 1;
                (seen[r.client] > half).then_some(r.latency)
            })
            .collect();
        apc_core::percentile(lat, 99.0)
    };

    let mut csv = Vec::new();
    let headline = *CLIENT_SWEEP.last().unwrap();
    for &clients in CLIENT_SWEEP {
        let n_total = NSIM + NSTAGE + clients;
        let dataset = dataset_for(n_total, scale.seed);
        let iters = dataset.sample_iterations(ITERS);
        let mut session = Runtime::new(n_total, NetModel::blue_waters())
            .stack_size(512 << 10)
            .session();

        let mut run_mode = |mode: &str, budget: Option<f64>| -> ServingRun {
            let sink = FrameSink::new(
                Arc::new(MemStore::new()),
                &format!("fig15-{clients}-{mode}"),
                CodecKind::Fpz,
            );
            let params = StagedParams::new(NSTAGE, 4, BackpressurePolicy::Block)
                .with_sim_compute(0.05)
                .with_persist(sink);
            let mut config = PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(90.0)
                .with_exec(scale.exec)
                .with_staged(params);
            // This figure studies *serving* dynamics: shrink the fixed
            // per-frame render overhead (0.55 s by default, calibrated
            // for the paper-scale figures) so the frame period — and so
            // the latency floor fidelity cannot shrink — stays well
            // below the serving budget.
            config.cost.base = 0.005;
            let mut serve = ServeParams::new(clients, REQUESTS_PER_CLIENT, ServePolicy::BestEffort)
                .with_think_time(0.0)
                .with_cache_bytes(256 << 10)
                .with_serve_costs(SERVICE_BASE, REPLY_PER_BYTE)
                .with_client_ramp(CLIENT_RAMP);
            if let Some(b) = budget {
                serve = serve.with_latency_budget(b);
            }
            apc_core::run_staged_serving_in_session(
                &mut session,
                dataset.decomp(),
                dataset.coords(),
                &config,
                &iters,
                &serve,
                &|it, rank| dataset.rank_blocks(it, rank),
            )
        };

        let report = |mode: &str, run: &ServingRun, csv: &mut Vec<String>| {
            let mix = run.fidelity_mix();
            let p50 = run.latency_percentile(50.0);
            let p99 = run.latency_percentile(99.0);
            let steady = steady_p99(run);
            let final_pct = run
                .servers
                .iter()
                .map(|s| s.final_percent)
                .fold(0.0, f64::max);
            csv.push(format!(
                "{NSTAGE},{clients},{mode},{},{},{:.6},{p50:.6},{p99:.6},{steady:.6},{},{},{},{},{final_pct:.2}",
                run.requests.len(),
                run.frames_served(),
                run.cache_hit_rate(),
                mix.full,
                mix.lossy,
                mix.dropped,
                mix.header_only,
            ));
            println!(
                "  {clients:>5} {mode:<9} p50 {p50:.4}  p99 {p99:.4}  steady99 {steady:.4}  mix {}  final% {final_pct:.1}",
                mix.summary()
            );
            (p99, steady)
        };

        let fixed = run_mode("fixed", None);
        let (_, fixed_steady) = report("fixed", &fixed, &mut csv);
        let adaptive = run_mode("adaptive", Some(BUDGET));
        let (_, adaptive_steady) = report("adaptive", &adaptive, &mut csv);
        assert_eq!(
            fixed.degraded_replies(),
            0,
            "{clients} clients: the fixed mode must never degrade"
        );

        if clients == headline {
            // The ramp's point: at the top, full fidelity cannot fit the
            // budget but the ladder can.
            assert!(
                fixed_steady > BUDGET,
                "{clients} clients: fixed steady p99 ({fixed_steady:.4}) should exceed the \
                 budget ({BUDGET}) — the ramp is too shallow to need adaptation"
            );
            assert!(
                adaptive_steady <= BUDGET * 1.1,
                "{clients} clients: adaptive steady p99 ({adaptive_steady:.4}) must stay \
                 within budget·1.1 ({:.4})",
                BUDGET * 1.1
            );
            assert!(
                adaptive.degraded_replies() > 0,
                "{clients} clients: meeting the budget must have cost fidelity"
            );

            // A generous budget must converge to full fidelity — the
            // controller's first output is 0% and nothing pushes it up.
            let generous = run_mode("generous", Some(GENEROUS_BUDGET));
            assert_eq!(
                generous.degraded_replies(),
                0,
                "{clients} clients: a generous budget must ship zero degraded replies"
            );
            println!(
                "generous budget ({GENEROUS_BUDGET:.0e}): {} replies, zero degraded ✓",
                generous.fidelity_mix().total()
            );

            // Byte-determinism in-bin: the adaptive run — controller
            // trajectory, fidelity mix, every latency — replays
            // identically in the same session.
            let again = run_mode("adaptive", Some(BUDGET));
            assert_eq!(
                again, adaptive,
                "adaptive serving must replay byte-identically at {clients} clients"
            );
            println!(
                "determinism: {clients}-client adaptive run replayed byte-identically \
                 ({} requests, mix {}) ✓",
                again.requests.len(),
                again.fidelity_mix().summary()
            );
        }
    }

    let header = "nstagers,clients,mode,requests,frames_served,cache_hit_rate,p50_latency,\
                  p99_latency,steady_p99,full,lossy,dropped,header_only,final_percent";
    print_table(
        "adaptive vs fixed serving under the client ramp (latency in virtual seconds)",
        header,
        &csv,
    );
    let path = write_csv("fig15_adaptive_serving.csv", header, &csv);
    println!("csv: {}", path.display());
}
