//! Acceptance guards for the staged (dedicated-core, asynchronous) in
//! situ mode:
//!
//! 1. **Determinism.** Staged runs produce byte-identical
//!    [`IterationReport`] streams — and identical staged observables —
//!    across `Serial` vs `Threads(n)` execution policies, across repeated
//!    runs, and across persistent-session reuse, for every backpressure
//!    policy. Asynchrony is modeled in virtual time over fixed receive
//!    orders, so OS scheduling has nothing to perturb.
//! 2. **The point of staging.** At equal total rank count, the staged
//!    mode's simulation-visible in situ time is a small fraction of the
//!    synchronous pipeline's iteration time.
//!
//! The runs call `run_staged_in_session` / `run_staged_serving_in_session`
//! over a fresh session (no exec-policy clamp), so the `Threads(n)`
//! comparison is real even on single-core CI hosts — same reasoning as
//! `exec_policy_determinism.rs`.

use std::sync::Arc;

use insitu::cm1::ReflectivityDataset;
use insitu::comm::{NetModel, Runtime};
use insitu::pipeline::{
    run_staged_in_session, run_staged_serving_in_session, BackpressurePolicy, ExecPolicy, Fidelity,
    FrameSink, PipelineConfig, Prepared, ServeParams, ServePolicy, ServingRun, StagedParams,
    StagedRun,
};
use insitu::store::{CodecKind, MemStore};

fn all_policies() -> [BackpressurePolicy; 3] {
    [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropOldest,
        BackpressurePolicy::DegradeHarder { boost: 20.0 },
    ]
}

fn staged_config(policy: BackpressurePolicy, exec: ExecPolicy) -> PipelineConfig {
    // Adaptation on (a live controller is the hardest state to keep in
    // lockstep) and a modest solver compute so queues see real dynamics.
    let params = StagedParams::new(1, 2, policy).with_sim_compute(5.0);
    PipelineConfig::default()
        .with_target(20.0)
        .with_exec(exec)
        .with_staged(params)
}

/// A staged run over a fresh session of the dataset's rank count.
fn run_fresh(dataset: &ReflectivityDataset, config: &PipelineConfig, iters: &[usize]) -> StagedRun {
    let nranks = dataset.decomp().nranks();
    run_staged_in_session(
        &mut Runtime::new(nranks, NetModel::blue_waters()).session(),
        dataset.decomp(),
        dataset.coords(),
        config,
        iters,
        &|it, rank| dataset.rank_blocks(it, rank),
    )
}

fn run_once(policy: BackpressurePolicy, exec: ExecPolicy) -> StagedRun {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let iters = dataset.sample_iterations(4);
    run_fresh(&dataset, &staged_config(policy, exec), &iters)
}

fn assert_bit_identical(a: &StagedRun, b: &StagedRun, label: &str) {
    assert_eq!(a, b, "{label}: staged runs diverged");
    for (x, y) in a.frames.iter().zip(&b.frames) {
        for (p, q) in [
            (x.report.t_score, y.report.t_score),
            (x.report.t_reduce, y.report.t_reduce),
            (x.report.t_redistribute, y.report.t_redistribute),
            (x.report.t_render, y.report.t_render),
            (x.report.t_total, y.report.t_total),
            (x.t_sim_stall, y.t_sim_stall),
            (x.t_sim_visible, y.t_sim_visible),
        ] {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: virtual time drifted at iteration {}",
                x.report.iteration
            );
        }
    }
}

/// The acceptance pin: `Serial` and `Threads(n)` staged runs are
/// byte-identical, for every backpressure policy.
#[test]
fn staged_reports_identical_across_exec_policies() {
    for policy in all_policies() {
        let serial = run_once(policy, ExecPolicy::Serial);
        let threads = run_once(policy, ExecPolicy::Threads(8));
        assert_bit_identical(&serial, &threads, "Serial vs Threads(8)");
        // Early iterations may predate the storm; the run as a whole must
        // produce geometry.
        assert!(
            serial
                .frames
                .iter()
                .map(|f| f.report.triangles_total)
                .sum::<usize>()
                > 0
        );
    }
}

/// Repeated runs replay bit-identically (fresh sessions each time).
#[test]
fn staged_reports_identical_across_repeated_runs() {
    for policy in all_policies() {
        let a = run_once(policy, ExecPolicy::Serial);
        let b = run_once(policy, ExecPolicy::Serial);
        assert_bit_identical(&a, &b, "repeated run");
    }
}

/// Session reuse through `Prepared` (shared stats cache, persistent rank
/// threads, exec clamp) changes wall-clock only: two staged sweeps over
/// one session match each other and stay internally consistent with a
/// synchronous sweep run through the *same* session in between.
#[test]
fn staged_session_reuse_is_invisible() {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let prepared = Prepared::from_dataset(
        dataset,
        iters.clone(),
        ExecPolicy::Serial,
        NetModel::blue_waters(),
    );
    let params = StagedParams::new(1, 2, BackpressurePolicy::Block).with_sim_compute(5.0);
    let config = PipelineConfig::default()
        .with_fixed_percent(40.0)
        .with_staged(params);

    let first = prepared.run_staged(config.clone(), &iters);
    // Interleave a synchronous run over the same session + cache.
    let sync = prepared.run(PipelineConfig::default().with_fixed_percent(40.0), &iters);
    assert_eq!(sync.len(), iters.len());
    let second = prepared.run_staged(config.clone(), &iters);
    assert_bit_identical(&first, &second, "session reuse");

    // And the sweep-engine dispatch returns exactly the staged reports.
    let swept = prepared.run(config, &iters);
    assert_eq!(
        swept,
        first.reports(),
        "sweep dispatch must match run_staged"
    );
}

/// The headline acceptance: at equal total rank count, staging reduces
/// what the simulation sees of in situ processing to a fraction of the
/// synchronous pipeline time — and with a solver busy enough to overlap,
/// the queue never even stalls.
#[test]
fn staged_mode_cuts_simulation_visible_time() {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let iters = dataset.sample_iterations(4);
    let sync = insitu::pipeline::run_experiment(
        &dataset,
        PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0),
        &iters,
    );
    let sync_mean = sync.iter().map(|r| r.t_total).sum::<f64>() / sync.len() as f64;

    let params = StagedParams::new(1, 2, BackpressurePolicy::Block).with_sim_compute(sync_mean);
    let staged = run_fresh(
        &dataset,
        &PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0)
            .with_staged(params),
        &iters,
    );

    let visible = staged.mean_sim_visible();
    assert!(
        visible < 0.2 * sync_mean,
        "staged sim-visible time {visible:.3} s should be well under the \
         synchronous pipeline's {sync_mean:.3} s"
    );
    assert_eq!(
        staged.mean_sim_stall(),
        0.0,
        "a solver this slow fully hides the stagers"
    );
    assert_eq!(staged.total_dropped(), 0);
}

/// A full serving workload (sims + stagers + clients in one session) for
/// the serving-determinism guards: adaptation on, a request mix that
/// races production, and a fresh `MemStore` per run so nothing persists
/// across runs except what the run itself writes.
fn serving_once(policy: ServePolicy, exec: ExecPolicy) -> ServingRun {
    let serve = ServeParams::new(3, 6, policy)
        .with_think_time(0.1)
        // A deliberately tight byte budget: evictions happen mid-run and
        // must still replay bit-identically.
        .with_cache_bytes(2048);
    serving_once_serve(serve, exec)
}

/// The serving fixture with full control over [`ServeParams`] — the
/// adaptive-serving pins feed budgets and serve costs through here.
fn serving_once_serve(serve: ServeParams, exec: ExecPolicy) -> ServingRun {
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(4);
    let sink = FrameSink::new(Arc::new(MemStore::new()), "det", CodecKind::Fpz);
    let params = StagedParams::new(2, 2, BackpressurePolicy::Block)
        .with_sim_compute(5.0)
        .with_persist(sink);
    let config = PipelineConfig::default()
        .with_target(20.0)
        .with_exec(exec)
        .with_staged(params);
    run_staged_serving_in_session(
        &mut Runtime::new(8, NetModel::blue_waters()).session(),
        dataset.decomp(),
        dataset.coords(),
        &config,
        &iters,
        &serve,
        &|it, rank| dataset.rank_blocks(it, rank),
    )
}

/// [`ServeParams`] for the adaptive-serving pins: explicit serve costs
/// plus either no budget (fixed full fidelity) or a deliberately
/// unmeetable one, so the controller must walk the fidelity ladder
/// mid-run.
fn adaptive_serve(policy: ServePolicy, budget: Option<f64>) -> ServeParams {
    let serve = ServeParams::new(3, 6, policy)
        .with_think_time(0.1)
        .with_cache_bytes(2048)
        .with_serve_costs(0.05, 1e-4);
    match budget {
        Some(b) => serve.with_latency_budget(b),
        None => serve,
    }
}

fn assert_serving_bit_identical(a: &ServingRun, b: &ServingRun, label: &str) {
    assert_eq!(a, b, "{label}: serving runs diverged");
    assert_bit_identical(&a.staged, &b.staged, label);
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(
            x.latency.to_bits(),
            y.latency.to_bits(),
            "{label}: service latency drifted for client {}",
            x.client
        );
    }
    for (x, y) in a.client_finish.iter().zip(&b.client_finish) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: client clock drifted");
    }
}

/// The serving acceptance pin: clients + stagers + sims replay
/// byte-identically across `Serial` vs `Threads(8)`, for both serve
/// policies.
#[test]
fn serving_runs_identical_across_exec_policies() {
    for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
        let serial = serving_once(policy, ExecPolicy::Serial);
        let threads = serving_once(policy, ExecPolicy::Threads(8));
        assert_serving_bit_identical(&serial, &threads, "Serial vs Threads(8)");
        assert!(serial.frames_served() > 0);
    }
}

/// Repeated serving runs (fresh sessions, fresh stores) replay
/// bit-identically, for both serve policies.
#[test]
fn serving_runs_identical_across_repeated_runs() {
    for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
        let a = serving_once(policy, ExecPolicy::Serial);
        let b = serving_once(policy, ExecPolicy::Serial);
        assert_serving_bit_identical(&a, &b, "repeated serving run");
    }
}

/// Serving through a `Prepared`'s persistent session is invisible:
/// replays match each other and survive an interleaved synchronous run
/// over the same session — for both serve policies.
#[test]
fn serving_session_reuse_is_invisible() {
    let iters = ReflectivityDataset::tiny(8, 42)
        .unwrap()
        .sample_iterations(3);
    let prepared = Prepared::from_dataset(
        ReflectivityDataset::tiny(8, 42).unwrap(),
        iters.clone(),
        ExecPolicy::Serial,
        NetModel::blue_waters(),
    );
    for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
        let sink = FrameSink::new(Arc::new(MemStore::new()), "reuse", CodecKind::Fpz);
        let params = StagedParams::new(2, 2, BackpressurePolicy::Block)
            .with_sim_compute(5.0)
            .with_persist(sink);
        let config = PipelineConfig::default()
            .with_fixed_percent(40.0)
            .with_staged(params);
        let serve = ServeParams::new(3, 5, policy).with_think_time(0.1);

        let first = prepared.run_staged_serving(config.clone(), &iters, &serve);
        // Interleave a synchronous run over the same session + cache.
        let sync = prepared.run(PipelineConfig::default().with_fixed_percent(40.0), &iters);
        assert_eq!(sync.len(), iters.len());
        let second = prepared.run_staged_serving(config, &iters, &serve);
        assert_serving_bit_identical(&first, &second, "session reuse");
    }
}

/// Adaptive serving (per-stager `BudgetController` over observed reply
/// latencies, degrading reply fidelity down the ladder) replays
/// byte-identically across exec policies — with the budget on and off,
/// for both serve policies. The tight budget forces mid-run fidelity
/// transitions; the controller state, the degraded re-encodes and every
/// latency they shift must all be pure virtual-time arithmetic.
#[test]
fn adaptive_serving_identical_across_exec_policies() {
    for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
        for budget in [None, Some(0.01)] {
            let serve = adaptive_serve(policy, budget);
            let serial = serving_once_serve(serve, ExecPolicy::Serial);
            let threads = serving_once_serve(serve, ExecPolicy::Threads(8));
            assert_serving_bit_identical(&serial, &threads, "adaptive Serial vs Threads(8)");
            match budget {
                None => assert_eq!(
                    serial.degraded_replies(),
                    0,
                    "no budget, no degradation ({})",
                    policy.name()
                ),
                Some(_) => {
                    // The unmeetable budget must actually move the
                    // ladder mid-run: full-fidelity replies before the
                    // controller reacts, degraded ones after.
                    let mix = serial.fidelity_mix();
                    assert!(mix.degraded() > 0, "{}: {mix:?}", policy.name());
                    assert!(mix.full > 0, "{}: {mix:?}", policy.name());
                    assert!(serial.requests.iter().any(|r| r.fidelity != Fidelity::Full));
                }
            }
        }
    }
}

/// Adaptive serving runs repeat bit-identically (fresh sessions, fresh
/// stores), and per-stager controller state lands in the run's
/// observables identically too.
#[test]
fn adaptive_serving_identical_across_repeated_runs() {
    let serve = adaptive_serve(ServePolicy::BestEffort, Some(0.01));
    let a = serving_once_serve(serve, ExecPolicy::Serial);
    let b = serving_once_serve(serve, ExecPolicy::Serial);
    assert_serving_bit_identical(&a, &b, "repeated adaptive serving run");
    for (x, y) in a.servers.iter().zip(&b.servers) {
        assert_eq!(
            x.final_percent.to_bits(),
            y.final_percent.to_bits(),
            "controller state drifted between replays"
        );
    }
}

/// Adaptive serving through a `Prepared`'s persistent session replays
/// bit-identically across session reuse, budget on and off.
#[test]
fn adaptive_serving_session_reuse_is_invisible() {
    let iters = ReflectivityDataset::tiny(8, 42)
        .unwrap()
        .sample_iterations(3);
    let prepared = Prepared::from_dataset(
        ReflectivityDataset::tiny(8, 42).unwrap(),
        iters.clone(),
        ExecPolicy::Serial,
        NetModel::blue_waters(),
    );
    for budget in [None, Some(0.01)] {
        let sink = FrameSink::new(Arc::new(MemStore::new()), "reuse-adaptive", CodecKind::Fpz);
        let params = StagedParams::new(2, 2, BackpressurePolicy::Block)
            .with_sim_compute(5.0)
            .with_persist(sink);
        let config = PipelineConfig::default()
            .with_fixed_percent(40.0)
            .with_staged(params);
        let serve = match budget {
            Some(b) => adaptive_serve(ServePolicy::BestEffort, Some(b)),
            None => adaptive_serve(ServePolicy::BestEffort, None),
        };
        let serve = ServeParams {
            requests_per_client: 5,
            ..serve
        };
        let first = prepared.run_staged_serving(config.clone(), &iters, &serve);
        let second = prepared.run_staged_serving(config, &iters, &serve);
        assert_serving_bit_identical(&first, &second, "adaptive session reuse");
        if budget.is_some() {
            assert!(first.degraded_replies() > 0, "tight budget must degrade");
        }
    }
}

/// Under pressure (no solver compute, depth-1 queues) the policies
/// diverge exactly as designed: Block stalls and loses nothing,
/// DropOldest sheds frames and never stalls — deterministically.
#[test]
fn policies_respond_to_pressure_as_specified() {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let iters = dataset.sample_iterations(5);
    let run = |policy| {
        let params = StagedParams::new(1, 1, policy);
        run_fresh(
            &dataset,
            &PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(20.0)
                .with_staged(params),
            &iters,
        )
    };
    let block = run(BackpressurePolicy::Block);
    assert!(
        block.mean_sim_stall() > 0.0,
        "back-to-back frames must stall under Block"
    );
    assert_eq!(block.total_dropped(), 0);

    let lossy = run(BackpressurePolicy::DropOldest);
    assert_eq!(
        lossy.mean_sim_stall(),
        0.0,
        "DropOldest never stalls the sim"
    );
    assert!(lossy.total_dropped() > 0, "pressure must shed frames");
    // Shedding frames loses geometry relative to the lossless run.
    let block_tris: usize = block.frames.iter().map(|f| f.report.triangles_total).sum();
    let lossy_tris: usize = lossy.frames.iter().map(|f| f.report.triangles_total).sum();
    assert!(
        lossy_tris < block_tris,
        "dropped slices must cost triangles"
    );
}
