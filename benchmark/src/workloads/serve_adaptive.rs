//! `serve_adaptive`: the staged + serving executor with the latency
//! budget engaged (the fig15 shape).
//!
//! 8 simulation ranks, 8 stagers and 256 client ranks (a 1-D
//! `2n×2×8` decomposition, one block per rank), 16 frames, 16 requests
//! per client, `BestEffort`, `with_serve_costs(1e-4, 4e-5)`,
//! `with_client_ramp(4e-4)`, a `MemStore` frame sink and a 256 KiB
//! frame cache. The render work is trivial; with a budget set, what
//! costs wall time is `apc-serve`'s degrade path — a decode and a
//! re-encode per degraded reply — so this is where reply caching or a
//! cheaper re-encode shows. Bounded queues, `ServeClient/Server` and
//! the stage engine run underneath.
//!
//! One op is a two-budget sweep: a **tight** budget (0.2 virtual
//! seconds: the ladder bottoms out in dropped and header-only replies)
//! then a **loose** one (3.0: the first rung, lossy re-encodes, for the
//! tenth of the replies that arrive at the top of the client ramp). The
//! sweep is what keeps the work the same for every seed. A single
//! middling budget engages all four rungs at once, but the per-stager
//! controllers hunt between them and the rung mix — hence the wall
//! time — moves from seed to seed: dropped replies ranged 432 to 768 of
//! 4096 at budget 1.0, lossy ones 464 to 1168 at 2.5. Only where the
//! controllers saturate does the mix hold (dropped 512 to 720 at 0.2,
//! lossy 288 to 320 at 3.0, over eleven seeds).

use std::time::Instant;

use apc_cm1::{ReflectivityDataset, StormModel};
use apc_comm::{NetModel, Runtime, Session};
use apc_core::{
    BackpressurePolicy, Fidelity, FrameSink, IterationReport, PipelineConfig, ServeParams,
    ServePolicy, ServingRun, StagedParams,
};
use apc_grid::{Dims3, DomainDecomp, ProcGrid};
use apc_store::{CodecKind, MemStore};

use super::{host_notes, setup_median, timed_loop, traced_common, traced_phases, Args, Phase};
use crate::report::{fnv1a64, Report};
use crate::traced_backend::{wrap_if_tracing, BackendCounts};
use crate::{env, probes, stats, trace};

/// The share of this workload's wall that slows with the host kernel
/// (how it was chosen: `crate::host`).
const HOST_SHARE: f64 = 0.8;
pub const NSIM: usize = 8;
pub const NSTAGE: usize = 8;
pub const CLIENTS: usize = 256;
pub const RANKS: usize = NSIM + NSTAGE + CLIENTS;
pub const FRAMES: usize = 16;
pub const REQUESTS_PER_CLIENT: usize = 16;
/// Virtual seconds; tight first.
pub const BUDGETS: [f64; 2] = [0.2, 3.0];
/// The degrade path must use more than this share of the sweep's CPU.
/// Measured 0.43 to 0.53; the issue's 0.4 assumed the unsteady
/// middling budget, where more replies are degraded.
pub const DEGRADE_SHARE_FLOOR: f64 = 0.3;
const RUN_ID: &str = "bench-serve";

struct Setup {
    dataset: ReflectivityDataset,
    iterations: Vec<usize>,
    session: Session,
    spawn_s: f64,
}

impl Setup {
    fn build(seed: u64) -> Self {
        let decomp = DomainDecomp::new(
            Dims3::new(2 * RANKS, 2, 8),
            ProcGrid::new(RANKS, 1, 1),
            Dims3::new(2, 2, 8),
        )
        .expect("one block per rank");
        let dataset = ReflectivityDataset::new(decomp, StormModel::new(seed));
        let iterations = dataset.sample_iterations(FRAMES);
        let t0 = Instant::now();
        let session = Runtime::new(RANKS, NetModel::blue_waters())
            .stack_size(512 << 10)
            .session();
        Self {
            dataset,
            iterations,
            session,
            spawn_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// What one serving run leaves behind besides its `ServingRun`.
struct RunOutput {
    run: ServingRun,
    wall_s: f64,
    sink: FrameSink,
    backend: BackendCounts,
}

/// One run of the executor. `budget: None` is the fixed-fidelity control.
fn serving_run(s: &mut Setup, budget: Option<f64>) -> RunOutput {
    let (backend, counter) = wrap_if_tracing(MemStore::new());
    let sink = FrameSink::new(backend, RUN_ID, CodecKind::Fpz);
    let params = StagedParams::new(NSTAGE, 4, BackpressurePolicy::Block)
        .with_sim_compute(0.05)
        .with_persist(sink.clone());
    let mut config = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(90.0)
        .with_staged(params);
    // As in fig15: shrink the fixed per-frame render overhead so the
    // frame period stays below the serving budgets.
    config.cost.base = 0.005;
    let mut serve = ServeParams::new(CLIENTS, REQUESTS_PER_CLIENT, ServePolicy::BestEffort)
        .with_think_time(0.0)
        .with_cache_bytes(256 << 10)
        .with_serve_costs(1e-4, 4e-5)
        .with_client_ramp(4e-4);
    if let Some(b) = budget {
        serve = serve.with_latency_budget(b);
    }
    let dataset = &s.dataset;
    let t0 = Instant::now();
    let run = apc_core::run_staged_serving_in_session(
        &mut s.session,
        dataset.decomp(),
        dataset.coords(),
        &config,
        &s.iterations,
        &serve,
        &|it, rank| {
            let _span = trace::span("bench.block_source");
            dataset.rank_blocks(it, rank)
        },
    );
    RunOutput {
        run,
        wall_s: t0.elapsed().as_secs_f64(),
        sink,
        backend: counter.map(|c| c.counts()).unwrap_or_default(),
    }
}

fn run_is_sound(run: &ServingRun, reference: &ServingRun) -> bool {
    run == reference
        && run.requests.len() == CLIENTS * REQUESTS_PER_CLIENT
        && run.degraded_replies() > 0
}

struct Workload {
    s: Setup,
    /// One reference run per budget, in `BUDGETS` order.
    reference: Vec<ServingRun>,
    /// The unbudgeted control run degraded nothing.
    control_ok: bool,
    /// Backend counts of the last traced sweep.
    backend: BackendCounts,
}

impl Workload {
    fn cycle(&mut self, phase: &mut Phase) {
        let _op = trace::op("op.sweep");
        let mut wall_s = 0.0;
        let mut sound = self.control_ok;
        let mut requests = 0;
        let mut backend = BackendCounts::default();
        for (budget, reference) in BUDGETS.iter().zip(&self.reference) {
            let out = serving_run(&mut self.s, Some(*budget));
            wall_s += out.wall_s;
            requests += out.run.requests.len();
            sound &= run_is_sound(&out.run, reference);
            backend.put_bytes += out.backend.put_bytes;
            backend.read_bytes += out.backend.read_bytes;
        }
        self.backend = backend;
        phase.op_ms.push(wall_s * 1e3);
        phase.wall_s += wall_s;
        phase.items += requests as u64;
        phase.attempted += 1;
        phase.failed += u64::from(!sound);
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(&args.workload, args.seed, args.seconds, args.traced);
    host_notes(&mut report, RANKS);
    let (mut s, setup) = setup_median(|| Setup::build(args.seed));

    let control = serving_run(&mut s, None);
    let outputs: Vec<RunOutput> = BUDGETS
        .iter()
        .map(|b| serving_run(&mut s, Some(*b)))
        .collect();
    let reference: Vec<ServingRun> = outputs.iter().map(|o| o.run.clone()).collect();
    report.digest = fnv1a64(format!("{reference:?}").as_bytes());
    for (budget, run) in BUDGETS.iter().zip(&reference) {
        report.note(
            &format!("fidelity_mix_budget_{budget}"),
            run.fidelity_mix().summary(),
        );
    }
    let mut w = Workload {
        s,
        reference,
        control_ok: control.run.degraded_replies() == 0,
        backend: BackendCounts::default(),
    };
    if !args.traced {
        let phase = timed_loop(args.seconds, |p| w.cycle(p));
        super::end_to_end(&mut report, &phase, setup, HOST_SHARE);
        return report;
    }
    let phases = traced_phases(args.seconds, |p| w.cycle(p));
    traced_common(&mut report, &phases, setup, HOST_SHARE);
    per_layer(&mut report, &mut w, &outputs, &phases, args.seconds);
    report
}

/// The first fidelity of `rung` the run shipped.
fn chosen(run: &ServingRun, rung: u8) -> Option<Fidelity> {
    run.requests
        .iter()
        .map(|r| r.fidelity)
        .find(|f| f.rung() == rung)
}

fn per_layer(
    report: &mut Report,
    w: &mut Workload,
    outputs: &[RunOutput],
    phases: &super::TracedPhases,
    seconds: f64,
) {
    report.set("comm.session_spawn_ms", w.s.spawn_s * 1e3, 1);

    // Exact counts of one sweep, from the reference runs.
    let mut mix = apc_core::FidelityMix::default();
    let (mut hits, mut misses, mut frames) = (0, 0, 0);
    let mut stall = Vec::new();
    let mut reports: Vec<IterationReport> = Vec::new();
    for run in &w.reference {
        mix.merge(&run.fidelity_mix());
        hits += run.servers.iter().map(|s| s.cache_hits).sum::<usize>();
        misses += run.servers.iter().map(|s| s.cache_misses).sum::<usize>();
        frames += run.staged.frames.len();
        stall.push(run.staged.mean_sim_stall());
        reports.extend(run.staged.reports());
    }
    report.set("serve.fidelity_full", mix.full as f64, 1);
    report.set("serve.fidelity_lossy", mix.lossy as f64, 1);
    report.set("serve.fidelity_dropped", mix.dropped as f64, 1);
    report.set("serve.fidelity_header_only", mix.header_only as f64, 1);
    report.set(
        "serve.degraded_share",
        mix.degraded() as f64 / mix.total() as f64,
        1,
    );
    report.set(
        "serve.virtual_p99_s",
        apc_core::percentile(
            w.reference
                .iter()
                .flat_map(|r| r.requests.iter().map(|q| q.latency)),
            99.0,
        ),
        mix.total(),
    );
    report.set(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses) as f64,
        1,
    );
    report.set("stage.frames", frames as f64, 1);
    report.set(
        "stage.sim_stall_virtual_s",
        stall.iter().sum::<f64>() / stall.len() as f64,
        frames,
    );
    super::pipeline_counts(report, &reports);
    report.set("store.backend_put_bytes", w.backend.put_bytes as f64, 1);
    report.set("store.backend_read_bytes", w.backend.read_bytes as f64, 1);
    let own = trace::self_times_ns(&phases.spans);
    let sweeps = phases.traced.op_ms.len() as f64;
    let (_, backend_s, backend_n) = trace::totals(&phases.spans, &own, "backend.");
    report.set("store.backend_busy_s", backend_s / sweeps, backend_n);

    // The fixed-fidelity control: the same run with no budget, for its
    // wall time and for the CPU a sweep would cost with nothing degraded.
    const CONTROL_RUNS: usize = 6;
    let cpu0 = env::cpu_seconds();
    let control: Vec<f64> = (0..CONTROL_RUNS)
        .map(|_| serving_run(&mut w.s, None).wall_s * 1e3)
        .collect();
    let control_cpu_per_sweep =
        (env::cpu_seconds() - cpu0) / CONTROL_RUNS as f64 * BUDGETS.len() as f64;
    report.set(
        "core.serving_fixed_run_wall_ms",
        stats::median(&control),
        control.len(),
    );

    // Probe pass over the frames the tight run persisted and served.
    let budget = seconds * 0.04;
    let sink = &outputs[0].sink;
    let manifest = sink.store().manifest().expect("the run wrote its manifest");
    let streams: Vec<Vec<u8>> = manifest
        .iterations
        .iter()
        .flat_map(|&it| (0..manifest.n_stagers).map(move |st| (it as u64, st as u32)))
        .map(|(it, st)| sink.store().encoded(it, st).expect("persisted frame"))
        .collect();
    let arrays = probes::frame_arrays(&streams);
    probes::codecs(report, &arrays, budget * 2.0);
    let lossy = chosen(&w.reference[1], 1).expect("the loose budget ships lossy replies");
    let dropped = chosen(&w.reference[0], 2).expect("the tight budget drops blocks");
    report.note("probed_lossy", format!("{lossy:?}").replace('"', ""));
    report.note("probed_dropped", format!("{dropped:?}").replace('"', ""));
    let rungs = probes::serve_wire(
        report,
        &streams,
        CodecKind::Fpz,
        lossy,
        dropped,
        budget * 3.0,
    );
    probes::session_noop(report, &mut w.s.session, budget);
    probes::serve_roundtrip(report, budget);
    probes::par_map_overhead(report, budget);

    // Discrimination: degrading must carry this workload. The share is
    // measured, not estimated: the CPU a budgeted sweep uses beyond
    // what the same sweep uses with no budget, hence nothing to degrade.
    let share = 1.0 - control_cpu_per_sweep / (phases.traced.cpu_s / sweeps);
    report.set("bench.degrade_cpu_share", share, phases.traced.op_ms.len());
    report.set("bench.store_codec_cpu_share", 0.0, 1);
    super::discriminate(report, "degrade", share, DEGRADE_SHARE_FLOOR);
    let degrade_cpu = sweeps
        * (mix.lossy as f64 * rungs.lossy_s
            + mix.dropped as f64 * rungs.dropped_s
            + mix.header_only as f64 * rungs.header_s);
    let us = |name: &str| report.get(name).expect("wire probe ran") * 1e-6;
    let replies = (CLIENTS * REQUESTS_PER_CLIENT * BUDGETS.len()) as f64;
    let wire_cpu = sweeps
        * (replies * (us("serve.reply_encode_us") + us("serve.reply_decode_us"))
            + frames as f64 * NSTAGE as f64 * us("serve.frame_encode_us"));
    report.set(
        "core.unattributed_cpu_share",
        1.0 - (degrade_cpu + wire_cpu) / phases.traced.cpu_s,
        phases.traced.op_ms.len(),
    );
}
