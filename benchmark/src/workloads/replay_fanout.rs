//! `replay_fanout`: the standalone replay pool at client fan-out (the
//! fig14 shape).
//!
//! The same serve and store code as `serve_adaptive`, used differently:
//! every reply is `Full`, so the degrade path does nothing, and the
//! cost is `PoolPlan::plan`, rendezvous routing, the wire codec,
//! `CachedBackend` over shard range reads under eviction churn, and
//! point-to-point traffic among 272 rank threads. A serve-loop refactor
//! or a comm change shows here; a degrade-only change must not.
//!
//! The fixture is `synth_run`: 32 iterations × 8 stagers of 40×40-pixel
//! frames (the paper-scaled block grid), fpz, four frames per shard, on
//! a `DirStore`. 16 servers and 256 clients × 32 requests = 8192
//! requests on the bursty `TraceSpec` with fig14's intervals,
//! `RouteMode::RoutedStealing`, 16 KiB of cache per server (hit rate
//! about 0.17). The seed feeds `TraceSpec::new` — who asks for what,
//! when; the persisted run itself is the same for every seed.
//!
//! One op is one whole run of the pool.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use apc_comm::{NetModel, Runtime, Session};
use apc_core::{run_replay_serving_in_session, ExecPolicy, Fidelity, ReplayRun};
use apc_replay::{
    primary_for, resolve, synth_run, ArrivalTrace, PoolParams, PoolPlan, RouteMode, TraceSpec,
};
use apc_serve::{frame_key, open_run, RunManifest};
use apc_store::{CodecKind, DirStore, StoreBackend};

use super::{host_notes, setup_median, timed_loop, traced_common, traced_phases, Args, Phase};
use crate::env::ScratchDir;
use crate::probes::{self, per_call};
use crate::report::{fnv1a64, Report};
use crate::trace;
use crate::traced_backend::{wrap_if_tracing, BackendCounts};

/// The share of this workload's wall that slows with the host kernel
/// (how it was chosen: `crate::host`).
const HOST_SHARE: f64 = 0.8;
pub const NSERVERS: usize = 16;
pub const CLIENTS: usize = 256;
pub const RANKS: usize = NSERVERS + CLIENTS;
pub const REQUESTS_PER_CLIENT: usize = 32;
pub const CACHE_BYTES: usize = 16 << 10;
const RUN_ID: &str = "bench-replay";

struct Setup {
    manifest: RunManifest,
    spec: TraceSpec,
    arrivals: ArrivalTrace,
    session: Session,
    spawn_s: f64,
}

impl Setup {
    fn build(seed: u64, dir: &Path) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let backend: Arc<dyn StoreBackend> =
            Arc::new(DirStore::create(dir).expect("create the fixture directory"));
        let iterations: Vec<usize> = (1..=32).map(|i| i * 100).collect();
        let manifest = synth_run(
            backend,
            RUN_ID,
            &iterations,
            8,
            40,
            40,
            CodecKind::Fpz,
            Some(4),
        );
        let spec = TraceSpec::new(CLIENTS, REQUESTS_PER_CLIENT, seed)
            .with_intervals(2.5e-5 * CLIENTS as f64, 2.5e-6 * CLIENTS as f64);
        let arrivals = ArrivalTrace::generate(&spec, &manifest);
        let t0 = Instant::now();
        let session = Runtime::new(RANKS, NetModel::blue_waters())
            .stack_size(512 << 10)
            .session();
        Self {
            manifest,
            spec,
            arrivals,
            session,
            spawn_s: t0.elapsed().as_secs_f64(),
        }
    }
}

fn params() -> PoolParams {
    PoolParams::new(NSERVERS, RouteMode::RoutedStealing).with_cache_bytes(CACHE_BYTES)
}

struct Workload {
    s: Setup,
    /// Where the fixture lives.
    dir: PathBuf,
    reference: ReplayRun,
    /// Bottom-backend counts of the last traced run.
    backend: BackendCounts,
}

/// One run of the pool over the fixture in `dir`: the run, its wall
/// seconds, and the bottom backend's counts when tracing is on.
fn pool_run(s: &mut Setup, dir: &Path) -> (ReplayRun, f64, Option<BackendCounts>) {
    let (backend, counter) = wrap_if_tracing(DirStore::open(dir).expect("open the fixture"));
    let _op = trace::op("op.run");
    let t0 = Instant::now();
    let run = run_replay_serving_in_session(
        &mut s.session,
        backend,
        RUN_ID,
        &s.arrivals,
        &params(),
        ExecPolicy::Serial,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    (run, wall_s, counter.map(|c| c.counts()))
}

impl Workload {
    fn cycle(&mut self, phase: &mut Phase) {
        let (run, wall_s, counts) = pool_run(&mut self.s, &self.dir);
        if let Some(counts) = counts {
            self.backend = counts;
        }
        let hit_rate = run.cache_hit_rate();
        let sound = run == self.reference
            && run.requests.len() == self.s.arrivals.len()
            && (0.1..0.6).contains(&hit_rate);
        phase.op_ms.push(wall_s * 1e3);
        phase.wall_s += wall_s;
        phase.items += run.requests.len() as u64;
        phase.attempted += 1;
        phase.failed += u64::from(!sound);
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(&args.workload, args.seed, args.seconds, args.traced);
    host_notes(&mut report, RANKS);
    let scratch = ScratchDir::create().expect("scratch directory inside the checkout");
    let dir = scratch.path("run");
    let (mut s, setup) = setup_median(|| Setup::build(args.seed, &dir));
    let (reference, _, _) = pool_run(&mut s, &dir);
    let mut w = Workload {
        s,
        dir,
        reference,
        backend: BackendCounts::default(),
    };
    report.digest = fnv1a64(format!("{:?}", w.reference).as_bytes());
    report.note("requests", w.reference.requests.len());

    if !args.traced {
        let phase = timed_loop(args.seconds, |p| w.cycle(p));
        super::end_to_end(&mut report, &phase, setup, HOST_SHARE);
        return report;
    }
    let phases = traced_phases(args.seconds, |p| w.cycle(p));
    traced_common(&mut report, &phases, setup, HOST_SHARE);
    per_layer(&mut report, &mut w, &phases, args.seconds);
    report
}

fn per_layer(report: &mut Report, w: &mut Workload, phases: &super::TracedPhases, seconds: f64) {
    let s = &mut w.s;
    let reference = &w.reference;
    report.set("comm.session_spawn_ms", s.spawn_s * 1e3, 1);

    // Exact counts of one run.
    let frames = reference.frames_served();
    report.set("replay.stolen", reference.stolen_total as f64, 1);
    report.set("replay.cache_hit_rate", reference.cache_hit_rate(), frames);
    report.set(
        "replay.virtual_p99_s",
        reference.latency_percentile(99.0),
        reference.requests.len(),
    );
    report.set("store.cache_hit_rate", reference.cache_hit_rate(), frames);
    report.set(
        "store.cache_evictions",
        reference
            .servers
            .iter()
            .map(|sv| sv.cache.evictions)
            .sum::<usize>() as f64,
        1,
    );
    report.set("serve.fidelity_full", frames as f64, 1);
    report.set("serve.degraded_share", 0.0, 1);
    report.set("store.backend_read_bytes", w.backend.read_bytes as f64, 1);
    let own = trace::self_times_ns(&phases.spans);
    let (_, backend_s, backend_n) = trace::totals(&phases.spans, &own, "backend.");
    report.set(
        "store.backend_busy_s",
        backend_s / phases.traced.op_ms.len() as f64,
        backend_n,
    );

    // Probe pass: the planner, the trace generator and routing on this
    // run's own arrivals.
    let budget = seconds * 0.04;
    let backend: Arc<dyn StoreBackend> =
        Arc::new(DirStore::open(&w.dir).expect("open the fixture"));
    let (store, manifest) = open_run(Arc::clone(&backend), RUN_ID).expect("open the run");
    let pool = params();
    // The executor's own pessimistic all-miss cost estimate.
    let est_cost: Vec<f64> = s
        .arrivals
        .arrivals
        .iter()
        .map(|a| {
            let res = resolve(a.request, a.stager, a.tier, &manifest.iterations);
            res.keys()
                .iter()
                .fold(pool.service_base, |cost, &(it, st)| {
                    let bytes = store
                        .backend()
                        .size(&frame_key(RUN_ID, it, st))
                        .unwrap_or(0);
                    cost + pool.miss_read + pool.read_per_byte * bytes as f64
                })
        })
        .collect();
    let (plan_s, calls) = per_call(budget, || {
        PoolPlan::plan(&s.arrivals, &pool, &manifest.iterations, &est_cost).stolen_total
    });
    report.set("replay.plan_ms", plan_s * 1e3, calls);
    let (generate_s, calls) = per_call(budget, || {
        ArrivalTrace::generate(&s.spec, &s.manifest).len()
    });
    report.set("replay.trace_generate_ms", generate_s * 1e3, calls);
    let (route_s, calls) = per_call(budget, || {
        s.arrivals
            .arrivals
            .iter()
            .map(|a| primary_for(pool.mode, a, NSERVERS, &manifest.iterations))
            .sum::<usize>()
    });
    report.set(
        "replay.route_ns_per_key",
        route_s / s.arrivals.len() as f64 * 1e9,
        calls,
    );

    // Codec and wire probes over the frames the pool serves.
    let streams: Vec<Vec<u8>> = manifest
        .iterations
        .iter()
        .step_by(4)
        .flat_map(|&it| (0..manifest.n_stagers).map(move |st| (it as u64, st as u32)))
        .map(|(it, st)| store.encoded(it, st).expect("fixture frame"))
        .collect();
    let arrays = probes::frame_arrays(&streams);
    probes::codecs(report, &arrays, budget * 2.0);
    // The pool ships nothing degraded; the rungs are probed at the
    // ladder's mid-band settings for comparison with `serve_adaptive`.
    probes::serve_wire(
        report,
        &streams,
        CodecKind::Fpz,
        Fidelity::for_percent(25.0),
        Fidelity::for_percent(70.0),
        budget * 3.0,
    );
    probes::session_noop(report, &mut s.session, budget);
    probes::serve_roundtrip(report, budget);
    probes::par_map_overhead(report, budget);

    // Discrimination: the pool has no latency budget, so it degrades
    // no reply: the degrade path's in-run count is zero by construction.
    report.set("bench.degrade_cpu_share", 0.0, 1);
    report.set("bench.store_codec_cpu_share", 0.0, 1);
    super::discriminate_idle(report, "degrade", 0);
    let us = |name: &str| report.get(name).expect("wire probe ran") * 1e-6;
    let runs = phases.traced.op_ms.len() as f64;
    let attributed = runs
        * (reference.requests.len() as f64
            * (us("serve.reply_encode_us") + us("serve.reply_decode_us"))
            + plan_s);
    report.set(
        "core.unattributed_cpu_share",
        1.0 - attributed / phases.traced.cpu_s,
        phases.traced.op_ms.len(),
    );
}
