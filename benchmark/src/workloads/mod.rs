//! The four workloads and what they share: repeated set-up, the timed
//! loop, and turning a timed phase into the end-to-end metrics.
//!
//! Every workload drives its executor through public functions only, on
//! inputs generated from the seed; the driver thread is single and the
//! pipeline runs `ExecPolicy::Serial` inside each rank, so the rank
//! threads are the system under test.

use std::time::Instant;

use apc_cm1::ReflectivityDataset;
use apc_grid::Block;

use crate::env;
use crate::host::{self, HostClock};
use crate::report::Report;
use crate::stats;

pub mod replay_fanout;
pub mod serve_adaptive;
pub mod store_replay;
pub mod sync_adaptive;

/// Set-up runs at least this many times; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// A set-up of milliseconds repeats until this many seconds have been
/// spent on it (at most [`SETUP_REPEATS_MAX`] times), so its median is
/// not the noise of five short readings.
pub const SETUP_MIN_SECONDS: f64 = 1.0;
pub const SETUP_REPEATS_MAX: usize = 30;

/// The paper's rank count for the two pipeline workloads.
pub const PIPELINE_RANKS: usize = 64;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall milliseconds of every op, in execution order.
    pub op_ms: Vec<f64>,
    /// Wall seconds inside timed regions (ops plus the work between
    /// them that a user of the workload also waits for).
    pub wall_s: f64,
    /// Blocks put through the pipeline, or requests answered.
    pub items: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU seconds over the whole phase.
    pub cpu_s: f64,
    /// Peak resident set of every cycle, where the kernel lets the
    /// process restart its high-water mark; empty where it does not.
    pub peak_rss_mb: Vec<f64>,
    /// Wall seconds of the host-speed kernel, sampled between cycles.
    pub host_kernel_s: Vec<f64>,
}

impl Phase {
    pub fn mean_op_ms(&self) -> f64 {
        if self.op_ms.is_empty() {
            return 0.0;
        }
        self.op_ms.iter().sum::<f64>() / self.op_ms.len() as f64
    }
}

/// Run `build` repeatedly (see [`SETUP_REPEATS`]), keep the last
/// product, and report the median wall seconds and how many builds it
/// is the median of. Each earlier product is dropped before the next
/// build starts, so peak memory is that of one. The host-speed kernel
/// is sampled between builds: set-up is read at the host speed of its
/// own seconds, not of the timed phase that follows.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, Timing) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    let mut host = HostClock::new(env::nproc());
    let start = Instant::now();
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_REPEATS_MAX && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(kept.take());
        host.keep_up(start);
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    let timing = Timing {
        seconds: stats::median(&times),
        n: times.len(),
        host_kernel_s: stats::median(host.samples()),
    };
    (kept.expect("SETUP_REPEATS is at least one"), timing)
}

/// A median and the number of readings behind it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub seconds: f64,
    pub n: usize,
    /// Median wall seconds of the host-speed kernel between the readings.
    pub host_kernel_s: f64,
}

/// Call `cycle` until `budget_s` wall seconds have passed (at least
/// once). A cycle times its own ops into the phase it is handed; before
/// each, outside every timed region, the host-speed kernel is sampled.
pub fn timed_loop(budget_s: f64, mut cycle: impl FnMut(&mut Phase)) -> Phase {
    let mut phase = Phase::default();
    let mut host = HostClock::new(env::nproc());
    let cpu0 = env::cpu_seconds();
    let start = Instant::now();
    loop {
        host.keep_up(start);
        let fresh_peak = env::reset_peak_rss();
        cycle(&mut phase);
        if fresh_peak {
            phase.peak_rss_mb.push(env::peak_rss_mb());
        }
        if start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    phase.host_kernel_s = host.samples().to_vec();
    // The kernel kept every core busy for as long as it ran.
    let kernel_cpu_s = phase.host_kernel_s.iter().sum::<f64>() * env::nproc() as f64;
    phase.cpu_s = env::cpu_seconds() - cpu0 - kernel_cpu_s;
    phase
}

/// The four end-to-end metrics of an untraced phase. The three that
/// are times are reported at reference host speed (see [`host`]), the
/// workload's wall slowing with the host kernel by `host_share`; what
/// the clock read stays in the result as `info` lines.
pub fn end_to_end(report: &mut Report, phase: &Phase, setup: Timing, host_share: f64) {
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    let host_kernel_s = stats::median(&phase.host_kernel_s);
    let scale = host::time_scale(host_kernel_s, host_share);
    let setup_scale = host::time_scale(setup.host_kernel_s, host_share);
    let op_ms = stats::median(&phase.op_ms);
    let items_per_s = phase.items as f64 / phase.wall_s;
    report.note("host_kernel_ms", host_kernel_s * 1e3);
    report.note("host_kernel_samples", phase.host_kernel_s.len());
    report.note("host_time_scale", scale);
    report.note("clock_op_wall_ms_p50", op_ms);
    report.note("clock_items_per_s", items_per_s);
    report.note("clock_setup_s", setup.seconds);
    report.note("setup_host_kernel_ms", setup.host_kernel_s * 1e3);
    report.set("op_wall_ms_p50", op_ms * scale, phase.op_ms.len());
    report.set("items_per_s", items_per_s / scale, phase.op_ms.len());
    // The median cycle's peak: a maximum over the whole run would be an
    // extreme value of 64 to 272 threads' allocation timing.
    match phase.peak_rss_mb.len() {
        0 => report.set("peak_rss_mb", env::peak_rss_mb(), 1),
        n => report.set("peak_rss_mb", stats::median(&phase.peak_rss_mb), n),
    }
    report.set("setup_s", setup.seconds * setup_scale, setup.n);
}

/// Host facts every result carries.
pub fn host_notes(report: &mut Report, rank_threads: usize) {
    let nproc = env::nproc();
    report.note("nproc", nproc);
    report.note("rank_threads", rank_threads);
    report.note("oversubscribed", rank_threads > nproc);
    report.note("exec_policy", "Serial");
    for key in ["APC_BENCH_RUSTC", "APC_BENCH_COMMIT"] {
        let value = std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
        report.note(&key["APC_BENCH_".len()..].to_lowercase(), value);
    }
}

/// Every rank's blocks of one iteration, generated over all cores (set-up
/// only; the pipeline itself stays serial). Returns the blocks indexed
/// by rank and the wall seconds generation took.
pub fn generate_blocks(dataset: &ReflectivityDataset, iteration: usize) -> (Vec<Vec<Block>>, f64) {
    let nranks = dataset.decomp().nranks();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut parts: Vec<(usize, Vec<Block>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..env::nproc().min(nranks))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let rank = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if rank >= nranks {
                            return mine;
                        }
                        mine.push((rank, dataset.rank_blocks(iteration, rank)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("block generation does not panic"))
            .collect()
    });
    parts.sort_by_key(|(rank, _)| *rank);
    let secs = t0.elapsed().as_secs_f64();
    (parts.into_iter().map(|(_, blocks)| blocks).collect(), secs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "sync_adaptive" => Ok(sync_adaptive::run(args)),
        "store_replay" => Ok(store_replay::run(args)),
        "serve_adaptive" => Ok(serve_adaptive::run(args)),
        "replay_fanout" => Ok(replay_fanout::run(args)),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            crate::catalog::WORKLOADS
                .iter()
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// The traced run's two timed phases: the first with recording off, the
/// second with it on. The difference is the tracing overhead; the
/// spans of the second feed the per-layer metrics.
pub struct TracedPhases {
    pub plain: Phase,
    pub traced: Phase,
    pub spans: Vec<crate::trace::Span>,
}

/// Each phase of a traced run gets this share of `--seconds`; the probe
/// pass takes about as long again.
pub const TRACED_PHASE_SHARE: f64 = 0.25;

pub fn traced_phases(seconds: f64, mut cycle: impl FnMut(&mut Phase)) -> TracedPhases {
    let budget = seconds * TRACED_PHASE_SHARE;
    let plain = timed_loop(budget, &mut cycle);
    crate::trace::enable();
    let traced = timed_loop(budget, &mut cycle);
    crate::trace::disable();
    TracedPhases {
        plain,
        traced,
        spans: crate::trace::drain(),
    }
}

/// Metrics every traced run reports the same way, and the span file.
pub fn traced_common(report: &mut Report, phases: &TracedPhases, setup: Timing, host_share: f64) {
    end_to_end(report, &phases.plain, setup, host_share);
    report.attempted += phases.traced.attempted;
    report.failed += phases.traced.failed;
    if let Some((p, value)) = stats::tail(&phases.plain.op_ms) {
        report.set("core.op_wall_ms_tail", value, phases.plain.op_ms.len());
        report.note("op_wall_tail_percentile", p);
    }
    report.set(
        "bench.host_kernel_ms",
        stats::median(&phases.plain.host_kernel_s) * 1e3,
        phases.plain.host_kernel_s.len(),
    );
    report.set(
        "bench.clock_op_ms_p50",
        stats::median(&phases.plain.op_ms),
        phases.plain.op_ms.len(),
    );
    report.set(
        "bench.trace_overhead_share",
        phases.traced.mean_op_ms() / phases.plain.mean_op_ms() - 1.0,
        phases.traced.op_ms.len(),
    );
    let written = env::output_dir("trace").and_then(|dir| {
        let path = dir.join(format!("{}.json", report.workload));
        std::fs::write(&path, crate::trace::to_json(&phases.spans)).map(|()| path)
    });
    match written {
        Ok(path) => report.note("trace_file", path.display()),
        Err(e) => report.note("trace_file", format!("not written: {e}")),
    }
    report.note("spans", phases.spans.len());
}

/// `core.iter_busy_*`: mean, and worst-over-mean, of the per-rank
/// `core.run_iteration` span durations, iteration by iteration.
pub fn iteration_busy(report: &mut Report, spans: &[crate::trace::Span]) {
    use std::collections::BTreeMap;
    // (op, thread) -> that rank's iterations in start order.
    let mut by_rank: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "core.run_iteration") {
        by_rank
            .entry((s.op, s.thread))
            .or_default()
            .push((s.start_ns, s.duration_ns()));
    }
    // (op, k) -> durations of iteration k of that op across ranks.
    let mut by_iteration: BTreeMap<(u64, usize), Vec<f64>> = BTreeMap::new();
    for ((op, _), mut seq) in by_rank {
        seq.sort_unstable();
        for (k, (_, ns)) in seq.into_iter().enumerate() {
            by_iteration
                .entry((op, k))
                .or_default()
                .push(ns as f64 * 1e-9);
        }
    }
    let mut means = Vec::new();
    let mut imbalances = Vec::new();
    for durations in by_iteration.values() {
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let max = durations.iter().copied().fold(0.0, f64::max);
        means.push(mean);
        imbalances.push(max / mean);
    }
    if means.is_empty() {
        return;
    }
    let mean = means.iter().sum::<f64>() / means.len() as f64;
    report.set("core.iter_busy_s_mean", mean, means.len());
    report.set(
        "core.iter_busy_imbalance",
        stats::median(&imbalances),
        means.len(),
    );
}

/// The exact counts of a pipeline run: virtual seconds per iteration
/// (means over `reports`), the last percent used, triangles rendered.
pub fn pipeline_counts(report: &mut Report, reports: &[apc_core::IterationReport]) {
    type Field = fn(&apc_core::IterationReport) -> f64;
    let fields: [(&str, Field); 6] = [
        ("core.virtual_iter_s", |r| r.t_total),
        ("core.virtual_t_score_s", |r| r.t_score),
        ("core.virtual_t_sort_s", |r| r.t_sort),
        ("core.virtual_t_reduce_s", |r| r.t_reduce),
        ("core.virtual_t_redistribute_s", |r| r.t_redistribute),
        ("core.virtual_t_render_s", |r| r.t_render),
    ];
    for (name, field) in fields {
        let mean = reports.iter().map(field).sum::<f64>() / reports.len() as f64;
        report.set(name, mean, reports.len());
    }
    let last = reports.last().expect("a run has iterations");
    report.set("core.final_percent", last.percent_reduced, 1);
    report.set(
        "render.triangles_total",
        reports.iter().map(|r| r.triangles_total).sum::<usize>() as f64,
        reports.len(),
    );
}

/// The traced run's discrimination check: `share` of the phase's CPU
/// belongs to the layer this workload exists to exercise and must
/// exceed `floor`. A miss fails the run (after everything is printed).
pub fn discriminate(report: &mut Report, layer: &str, share: f64, floor: f64) {
    let verdict = if share > floor { "ok" } else { "FAILED" };
    report.note(
        "discrimination",
        format!("{verdict}: {layer} share of CPU {share:.3}, floor {floor}"),
    );
    if share <= floor {
        report.attempted += 1;
        report.failed += 1;
    }
}

/// The other half of the check: a layer the workload must bypass saw
/// `calls` calls, and that must be none.
pub fn discriminate_idle(report: &mut Report, layer: &str, calls: usize) {
    let verdict = if calls == 0 { "ok" } else { "FAILED" };
    report.note(
        "discrimination",
        format!("{verdict}: {layer} saw {calls} calls, must be 0"),
    );
    if calls != 0 {
        report.attempted += 1;
        report.failed += 1;
    }
}
