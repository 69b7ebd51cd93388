//! Golden-report snapshots for the fig06–fig11 experiment families and
//! the serving executors (fig13–fig15 shapes).
//!
//! Each figure's configuration grid is replayed at test scale (the `tiny`
//! 4-rank geometry) and the resulting [`IterationReport`]s are serialized
//! to CSV and compared **byte-for-byte** against in-repo fixtures under
//! `tests/golden/`. Virtual time is counted, not measured, so these bytes
//! are reproducible run-to-run and machine-to-machine for one build
//! environment; a refactor that changes any paper number — a reordered
//! reduction set, a perturbed cost constant, a broken cache key — fails
//! here with a diff instead of silently shifting the figures.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! APC_UPDATE_GOLDEN=1 cargo test -p apc-bench --test golden_reports
//! ```
//!
//! and review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use apc_cm1::{ReflectivityDataset, StormModel};
use apc_comm::{NetModel, Runtime};
use apc_core::{
    run_replay_serving_in_session, run_staged_serving_in_session, BackpressurePolicy, ExecPolicy,
    FrameSink, IterationReport, PipelineConfig, Prepared, Redistribution, ReplayRun, RequestLog,
    ServeParams, ServePolicy, ServeReport, ServerStats, ServingRun, StagedParams,
};
use apc_grid::{Dims3, DomainDecomp, ProcGrid};
use apc_replay::{synth_run, ArrivalTrace, PoolParams, RouteMode, TraceSpec};
use apc_store::{CodecKind, MemStore, StoreBackend};

/// Seed shared with `Scale::quick()` so shuffle-based rows mirror the
/// real experiments.
const SEED: u64 = 42;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn render_csv(rows: &[(String, Vec<IterationReport>)]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "config,{}",
        IterationReport::csv_header().replace(char::is_whitespace, "")
    )
    .unwrap();
    for (label, reports) in rows {
        for r in reports {
            writeln!(out, "{label},{}", r.to_csv_row()).unwrap();
        }
    }
    out
}

struct Golden {
    prepared: Prepared,
    component_iters: Vec<usize>,
    adapt_iters: Vec<usize>,
    mismatches: Vec<String>,
}

impl Golden {
    fn new() -> Self {
        let dataset = ReflectivityDataset::tiny(4, SEED).expect("tiny decomposition");
        let iterations = dataset.sample_iterations(6);
        let prepared = Prepared::from_dataset(
            dataset,
            iterations.clone(),
            ExecPolicy::Serial,
            NetModel::blue_waters(),
        );
        let component_iters = prepared.subset(3);
        Self {
            prepared,
            component_iters,
            adapt_iters: iterations,
            mismatches: Vec::new(),
        }
    }

    /// Sweep `configs` over `iters` and compare (or rewrite) the fixture.
    fn check(&mut self, name: &str, labeled: Vec<(String, PipelineConfig)>, iters: &[usize]) {
        let configs: Vec<PipelineConfig> = labeled.iter().map(|(_, c)| c.clone()).collect();
        let swept = self.prepared.run_sweep(&configs, iters);
        let rows: Vec<(String, Vec<IterationReport>)> = labeled
            .into_iter()
            .map(|(label, _)| label)
            .zip(swept)
            .collect();
        compare(name, &render_csv(&rows), &mut self.mismatches);
    }
}

/// Compare `got` byte-for-byte against fixture `name` (or rewrite the
/// fixture under `APC_UPDATE_GOLDEN`), recording a mismatch on any diff.
fn compare(name: &str, got: &str, mismatches: &mut Vec<String>) {
    let path = golden_dir().join(format!("{name}.csv"));
    if std::env::var_os("APC_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            mismatches.push(format!(
                "{name}: fixture {} unreadable ({e}); run with APC_UPDATE_GOLDEN=1",
                path.display()
            ));
            return;
        }
    };
    if got != want {
        let diff = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}:\n  -{a}\n  +{b}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line count {} -> {}",
                    want.lines().count(),
                    got.lines().count()
                )
            });
        mismatches.push(format!("{name}: report bytes changed; {diff}"));
    }
}

fn assert_no_mismatches(mismatches: &[String]) {
    assert!(
        mismatches.is_empty(),
        "golden report mismatches:\n{}\n(if the change is intentional, regenerate with \
         APC_UPDATE_GOLDEN=1 and review the fixture diff)",
        mismatches.join("\n")
    );
}

#[test]
fn fig06_to_fig11_reports_match_golden_fixtures() {
    let mut g = Golden::new();

    // Fig 6 family: fixed reduction percentages, VAR, no redistribution.
    g.check(
        "fig06",
        [0.0, 80.0, 90.0, 98.0, 100.0]
            .iter()
            .map(|&p| {
                (
                    format!("p{p:.0}"),
                    PipelineConfig::default().with_fixed_percent(p),
                )
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 7 family: the percentage sweep.
    g.check(
        "fig07",
        [0.0, 20.0, 40.0, 70.0, 90.0, 100.0]
            .iter()
            .map(|&p| {
                (
                    format!("p{p:.0}"),
                    PipelineConfig::default().with_fixed_percent(p),
                )
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 8 family: redistribution (communication) time, LEA metric,
    // round-robin vs seeded random shuffle.
    g.check(
        "fig08",
        [0.0, 60.0, 100.0]
            .iter()
            .flat_map(|&p| {
                [
                    ("rr", Redistribution::RoundRobin),
                    ("shuffle", Redistribution::RandomShuffle { seed: SEED }),
                ]
                .into_iter()
                .map(move |(label, strat)| {
                    (
                        format!("{label}-p{p:.0}"),
                        PipelineConfig::default()
                            .with_metric("LEA")
                            .with_redistribution(strat)
                            .with_fixed_percent(p),
                    )
                })
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 9 family: reduction × redistribution strategy grid.
    g.check(
        "fig09",
        [0.0, 90.0]
            .iter()
            .flat_map(|&p| {
                [
                    ("none", Redistribution::None),
                    ("rr", Redistribution::RoundRobin),
                    ("shuffle", Redistribution::RandomShuffle { seed: SEED }),
                ]
                .into_iter()
                .map(move |(label, strat)| {
                    (
                        format!("{label}-p{p:.0}"),
                        PipelineConfig::default()
                            .with_redistribution(strat)
                            .with_fixed_percent(p),
                    )
                })
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 10 family: adaptation without redistribution.
    g.check(
        "fig10",
        [20.0, 5.0]
            .iter()
            .map(|&t| (format!("t{t:.0}"), PipelineConfig::default().with_target(t)))
            .collect(),
        &g.adapt_iters.clone(),
    );

    // Fig 11 family: adaptation of the full pipeline (round-robin).
    g.check(
        "fig11",
        [10.0, 3.0]
            .iter()
            .map(|&t| {
                (
                    format!("t{t:.0}"),
                    PipelineConfig::default()
                        .with_redistribution(Redistribution::RoundRobin)
                        .with_target(t),
                )
            })
            .collect(),
        &g.adapt_iters.clone(),
    );

    assert_no_mismatches(&g.mismatches);
}

// ---- Serving goldens -----------------------------------------------
//
// One row per request, per server and per client, every field of the
// run's logs and counters; latencies and clocks as `f64::to_bits` hex so
// the fence is bit-exact where a decimal rendering would round:
//
//   <config>,request,client,request,frames,cache_hits,exact,latency,<route or fidelity>
//   <config>,server,index,requests,frames_served,CacheStats{..},<driver counters>
//   <config>,client,index,finish

/// `Debug` of a value as one CSV cell.
fn cell(v: impl std::fmt::Debug) -> String {
    format!("{v:?}").replace(", ", ";")
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render<R>(
    out: &mut String,
    label: &str,
    report: &ServeReport<R>,
    request_extra: impl Fn(&RequestLog<R>) -> String,
    server_extra: impl Fn(&ServerStats) -> String,
) {
    for r in &report.requests {
        let common = [
            r.client.to_string(),
            cell(r.request),
            r.frames.to_string(),
            r.cache_hits.to_string(),
            r.exact.to_string(),
            bits(r.latency),
        ];
        writeln!(
            out,
            "{label},request,{},{}",
            common.join(","),
            request_extra(r)
        )
        .unwrap();
    }
    for (i, s) in report.servers.iter().enumerate() {
        let common = format!("{},{},{}", s.requests, s.frames_served, cell(s.cache));
        writeln!(out, "{label},server,{i},{common},{}", server_extra(s)).unwrap();
    }
    for (i, t) in report.client_finish.iter().enumerate() {
        writeln!(out, "{label},client,{i},{}", bits(*t)).unwrap();
    }
}

fn render_serving(out: &mut String, label: &str, run: &ServingRun) {
    render(
        out,
        label,
        run,
        |r| cell(r.fidelity),
        |s| {
            let mix = cell(s.fidelity);
            let percent = bits(s.final_percent);
            format!(
                "{},{},{},{mix},{percent}",
                s.cache_hits, s.cache_misses, s.deferred
            )
        },
    );
}

fn render_replay(out: &mut String, label: &str, run: &ReplayRun) {
    render(
        out,
        label,
        run,
        |r| {
            let a = r.route;
            let tier = cell(a.tier);
            format!(
                "{},{tier},{},{},{}",
                a.slot, a.primary, a.executor, a.stolen
            )
        },
        |s| format!("{},{},{}", s.stolen, s.premium, bits(s.finish)),
    );
    writeln!(out, "{label},stolen_total,{}", run.stolen_total).unwrap();
}

/// A staged serving run over `dataset`, its ranks split 2 sim / 2 stage /
/// `serve.clients` clients.
fn serving_run(
    dataset: &ReflectivityDataset,
    iters: usize,
    config: &PipelineConfig,
    staged: StagedParams,
    serve: ServeParams,
) -> ServingRun {
    let sink = FrameSink::new(Arc::new(MemStore::new()), "golden", CodecKind::Fpz);
    run_staged_serving_in_session(
        &mut Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters()).session(),
        dataset.decomp(),
        dataset.coords(),
        &config.clone().with_staged(staged.with_persist(sink)),
        &dataset.sample_iterations(iters),
        &serve,
        &|it, rank| dataset.rank_blocks(it, rank),
    )
}

#[test]
fn serving_runs_match_golden_fixtures() {
    let mut mismatches = Vec::new();

    // Fig 13 shape (8 ranks, slow solver): both miss-path policies, cache
    // off and roomy.
    let tiny = ReflectivityDataset::tiny(8, SEED).expect("tiny decomposition");
    let config = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(40.0);
    let mut out = String::new();
    for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
        for cache in [0, 1 << 20] {
            let serve = ServeParams::new(4, 6, policy)
                .with_think_time(0.1)
                .with_cache_bytes(cache);
            let params = StagedParams::new(2, 2, BackpressurePolicy::Block).with_sim_compute(5.0);
            let run = serving_run(&tiny, 4, &config, params, serve);
            render_serving(&mut out, &format!("{}-cache{cache}", policy.name()), &run);
        }
    }
    compare("serve_staged", &out, &mut mismatches);

    // Fig 15 shape (16 ranks, one block each, fast frames, per-byte serve
    // costs, client ramp, a cache that evicts): no budget, a tight one
    // (dropped + header-only rungs), a loose one (lossy + dropped rungs)
    // and one no load can violate.
    let decomp = DomainDecomp::new(
        Dims3::new(32, 2, 8),
        ProcGrid::new(16, 1, 1),
        Dims3::new(2, 2, 8),
    )
    .expect("1-D decomposition");
    let strip = ReflectivityDataset::new(decomp, StormModel::new(SEED));
    let mut config = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(90.0);
    config.cost.base = 0.005;
    let mut out = String::new();
    for (label, budget) in [
        ("none", None),
        ("tight", Some(0.03)),
        ("loose", Some(0.12)),
        ("generous", Some(1e6)),
    ] {
        let serve = ServeParams::new(12, 16, ServePolicy::BestEffort)
            .with_cache_bytes(600)
            .with_serve_costs(1e-3, 4e-5)
            .with_client_ramp(4e-4);
        let serve = budget.map_or(serve, |b| serve.with_latency_budget(b));
        let params = StagedParams::new(2, 4, BackpressurePolicy::Block).with_sim_compute(0.05);
        let run = serving_run(&strip, 12, &config, params, serve);
        render_serving(&mut out, &format!("budget-{label}"), &run);
    }
    compare("serve_adaptive", &out, &mut mismatches);

    // Fig 14 shape: 4 servers + 12 clients over a synthetic persisted
    // run; route modes × frame layouts × cache budgets.
    let iterations: Vec<usize> = (1..=8).map(|i| i * 100).collect();
    let mut out = String::new();
    for (layout, shard) in [("flat", None), ("sharded", Some(3))] {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let manifest = synth_run(
            Arc::clone(&backend),
            "golden",
            &iterations,
            4,
            16,
            12,
            CodecKind::Fpz,
            shard,
        );
        let trace = ArrivalTrace::generate(&TraceSpec::new(12, 8, SEED), &manifest);
        for mode in [
            RouteMode::Pinned,
            RouteMode::Routed,
            RouteMode::RoutedStealing,
        ] {
            for cache in [0, 2048, 64 << 10] {
                let params = PoolParams::new(4, mode).with_cache_bytes(cache);
                let run = run_replay_serving_in_session(
                    &mut Runtime::new(params.nservers + trace.clients, NetModel::blue_waters())
                        .session(),
                    Arc::clone(&backend),
                    "golden",
                    &trace,
                    &params,
                    ExecPolicy::Serial,
                );
                render_replay(&mut out, &format!("{layout}-{mode:?}-cache{cache}"), &run);
            }
        }
    }
    compare("serve_replay", &out, &mut mismatches);

    assert_no_mismatches(&mismatches);
}
