//! Fig 13 (extension beyond the paper): the frame-serving layer under
//! client load.
//!
//! A staged run persists every rendered frame (`apc-serve`) and a pool of
//! simulated client ranks — co-scheduled in the same session — hammers
//! the stagers over the request/reply protocol while the frames are still
//! being produced. The experiment sweeps the client count (1 → 256, as
//! far as the rank budget allows) and the [`ServePolicy`], and reports,
//! per configuration:
//!
//! * **frames served per virtual second** of serving makespan — the
//!   throughput axis of the ROADMAP's "heavy traffic" story;
//! * **cache hit rate** of the stagers' LRU hot-frame caches (misses pay
//!   a virtual store-read);
//! * **p50 / p99 virtual service latency**, including whatever production
//!   wait a `WaitForFrame` reply absorbed;
//! * deferred and inexact reply counts — how each policy degrades when
//!   requests race production.
//!
//! The headline configuration is re-run and must replay byte-identically
//! (the serving engine is deterministic end to end); the bin prints the
//! check explicitly.

use std::sync::Arc;

use apc_core::{
    BackpressurePolicy, FrameSink, PipelineConfig, ServeParams, ServePolicy, ServingRun,
    StagedParams,
};
use apc_store::{CodecKind, MemStore};

use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

/// Client-rank counts to evaluate, capped by what the rank budget allows
/// (at least one simulation rank must remain next to the stager pool).
fn client_counts(nranks: usize, viz: usize) -> Vec<usize> {
    [1usize, 4, 16, 64, 256]
        .into_iter()
        .filter(|&c| viz + c < nranks)
        .collect()
}

pub fn run(ctx: &Ctx, scale: &Scale) {
    // Serve from the largest prepared rank count: the client sweep needs
    // the rank headroom (at 400 ranks the 256-client row still leaves a
    // 136-rank simulation).
    let nranks = *scale
        .rank_counts
        .iter()
        .max()
        .expect("scale names at least one rank count");
    let prepared = ctx.at(nranks);
    let iters = prepared.iterations[..scale.adapt_iters.min(prepared.iterations.len())].to_vec();
    let viz = (nranks / 8).clamp(1, 8);
    let base = PipelineConfig::default().with_fixed_percent(40.0);

    // Give the solver the synchronous pipeline's mean iteration time, the
    // same workload regime fig12 measures overlap in.
    let sync = prepared.run(base.clone(), &iters);
    let (sim_compute, _, _) = stats(sync.iter().map(|r| r.t_total));

    let run_one = |clients: usize, policy: ServePolicy| -> ServingRun {
        let sink = FrameSink::new(
            Arc::new(MemStore::new()),
            &format!("fig13-{clients}-{}", policy.name()),
            CodecKind::Fpz,
        );
        let params = StagedParams::new(viz, 4, BackpressurePolicy::Block)
            .with_sim_compute(sim_compute)
            .with_persist(sink);
        let serve = ServeParams::new(clients, 8, policy)
            .with_think_time(1.0)
            .with_cache_bytes(256 << 10);
        prepared.run_staged_serving(base.clone().with_staged(params), &iters, &serve)
    };

    println!(
        "\n== Fig 13 — frame serving from one stager pool, {nranks} ranks ({viz} stagers), \
         {} iterations, solver compute {sim_compute:.1} s/iter ==",
        iters.len()
    );
    let mut csv = Vec::new();
    let counts = client_counts(nranks, viz);
    for &clients in &counts {
        for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
            let run = run_one(clients, policy);
            let fps = run.frames_per_virtual_second();
            let hit = run.cache_hit_rate();
            let p50 = run.latency_percentile(50.0);
            let p99 = run.latency_percentile(99.0);
            csv.push(format!(
                "{nranks},{viz},{clients},{},{},{},{fps:.6},{hit:.6},{p50:.6},{p99:.6},{},{}",
                policy.name(),
                run.requests.len(),
                run.frames_served(),
                run.total_deferred(),
                run.total_inexact()
            ));
        }
    }
    let header = "nranks,viz_ranks,clients,policy,requests,frames_served,frames_per_vsecond,\
                  cache_hit_rate,p50_latency,p99_latency,deferred,inexact";
    print_table(
        "frame serving vs client count and policy (latency in virtual seconds)",
        header,
        &csv,
    );

    // Byte-determinism of the headline (largest) configuration: the whole
    // serving run — reports, latencies, cache stats — must replay
    // identically.
    if let Some(&clients) = counts.last() {
        let a = run_one(clients, ServePolicy::WaitForFrame);
        let b = run_one(clients, ServePolicy::WaitForFrame);
        assert_eq!(
            a, b,
            "serving runs must replay byte-identically at {clients} clients"
        );
        println!(
            "determinism: {clients}-client serving run replayed byte-identically \
             ({} requests) ✓",
            a.requests.len()
        );
    }

    let path = write_csv("fig13_frame_serving.csv", header, &csv);
    println!("csv: {}", path.display());
}
