//! `sync_adaptive`: the paper's synchronous pipeline at the paper's 64
//! ranks, under the adaptation controller.
//!
//! Compute and collectives do all the work — scoring (`apc-metrics`),
//! isosurfaces (`apc-render`), block reduction (`apc-grid`), the global
//! sort and the redistribution (`apc-comm`), Algorithm 1 (`apc-core`) —
//! and the store, the codecs, serving and replay do none. A codec,
//! cache or wire change must not move this workload.
//!
//! One run is six pipeline iterations under `with_target(15.0)` with
//! round-robin redistribution and the `VAR` metric, no `StatsCache`,
//! over one pre-generated iteration of the 6400-block paper-scaled
//! storm. Two choices keep the work the same for every seed. Feeding
//! the controller the same blocks six times: with a different iteration
//! each step, the storm's own evolution swamps the controller's
//! two-point fit and the percent trajectory — and with it the work per
//! iteration — jumps from seed to seed (14 % to 100 % reduced in scratch
//! runs). And a 15-second target rather than the paper's 20: the
//! unreduced iteration takes 19 to 30 virtual seconds depending on the
//! seed, and a seed that starts under the target never reduces at all.
//! As it is, every seed walks the same shape: full, a first estimate,
//! everything reduced, back off, back off, everything reduced.
//!
//! One op is one run — six iterations, each starting from a copy of the
//! rank's blocks — timed on the driver thread around `Session::run`.
//! The iterations of a run are not alike (two of the six reduce
//! everything and cost half as much), so a median over single
//! iterations would sit on the boundary between two kinds of work.

use std::time::Instant;

use apc_cm1::ReflectivityDataset;
use apc_comm::{NetModel, Runtime, Session};
use apc_core::{
    BackpressurePolicy, IterationReport, Pipeline, PipelineConfig, Redistribution, StagedParams,
};
use apc_grid::Block;

use super::{
    generate_blocks, host_notes, setup_median, timed_loop, traced_common, traced_phases, Args,
    Phase, PIPELINE_RANKS,
};
use crate::report::{fnv1a64, Report};
use crate::{env, probes, trace};

/// The share of this workload's wall that slows with the host kernel
/// (how it was chosen: `crate::host`).
const HOST_SHARE: f64 = 0.6;
pub const ITERATIONS_PER_RUN: usize = 6;
pub const TARGET_SECONDS: f64 = 15.0;

struct Setup {
    dataset: ReflectivityDataset,
    iteration: usize,
    /// Blocks of `iteration`, by rank.
    blocks: Vec<Vec<Block>>,
    generate_s: f64,
    session: Session,
    spawn_s: f64,
}

impl Setup {
    fn build(seed: u64) -> Self {
        let dataset =
            ReflectivityDataset::paper_scaled(PIPELINE_RANKS, seed).expect("paper geometry");
        let iteration = dataset.sample_iterations(ITERATIONS_PER_RUN)[2];
        let (blocks, generate_s) = generate_blocks(&dataset, iteration);
        let t0 = Instant::now();
        let session = Runtime::new(PIPELINE_RANKS, NetModel::blue_waters()).session();
        Self {
            dataset,
            iteration,
            blocks,
            generate_s,
            session,
            spawn_s: t0.elapsed().as_secs_f64(),
        }
    }

    fn n_blocks(&self) -> usize {
        self.dataset.decomp().n_blocks()
    }
}

fn config() -> PipelineConfig {
    PipelineConfig::default()
        .with_target(TARGET_SECONDS)
        .with_redistribution(Redistribution::RoundRobin)
        .with_metric("VAR")
}

/// One run: rank 0's reports and the wall seconds of the `Session::run`.
fn pipeline_run(s: &mut Setup) -> (Vec<IterationReport>, f64) {
    let config = config();
    let (dataset, blocks, iteration) = (&s.dataset, &s.blocks, s.iteration);
    let _op = trace::op("op.run");
    let t0 = Instant::now();
    let mut per_rank = s.session.run(|rank| {
        let mut pipeline =
            Pipeline::new(config.clone(), *dataset.decomp(), dataset.coords().clone());
        (0..ITERATIONS_PER_RUN)
            .map(|_| {
                let mine = {
                    let _span = trace::span("bench.block_source");
                    blocks[rank.rank()].clone()
                };
                let _span = trace::span("core.run_iteration");
                pipeline.run_iteration(rank, mine, iteration).0
            })
            .collect::<Vec<_>>()
    });
    (per_rank.swap_remove(0), t0.elapsed().as_secs_f64())
}

fn cycle(s: &mut Setup, reference: &[IterationReport], phase: &mut Phase) {
    let (reports, wall_s) = pipeline_run(s);
    let sound = reports == reference
        && reports
            .iter()
            .all(|r| (0.0..=100.0).contains(&r.percent_reduced));
    phase.op_ms.push(wall_s * 1e3);
    phase.wall_s += wall_s;
    phase.items += (s.n_blocks() * ITERATIONS_PER_RUN) as u64;
    phase.attempted += 1;
    phase.failed += u64::from(!sound);
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(&args.workload, args.seed, args.seconds, args.traced);
    host_notes(&mut report, PIPELINE_RANKS);
    let (mut s, setup) = setup_median(|| Setup::build(args.seed));

    // The reference every later run must reproduce bit for bit.
    let (reference, _) = pipeline_run(&mut s);
    report.digest = fnv1a64(format!("{reference:?}").as_bytes());
    report.note(
        "percent_trajectory",
        reference
            .iter()
            .map(|r| format!("{:.1}", r.percent_reduced))
            .collect::<Vec<_>>()
            .join("/"),
    );

    if !args.traced {
        let phase = timed_loop(args.seconds, |p| cycle(&mut s, &reference, p));
        super::end_to_end(&mut report, &phase, setup, HOST_SHARE);
        return report;
    }

    let phases = traced_phases(args.seconds, |p| cycle(&mut s, &reference, p));
    traced_common(&mut report, &phases, setup, HOST_SHARE);
    per_layer(&mut report, &mut s, &reference, &phases, args.seconds);
    report
}

fn per_layer(
    report: &mut Report,
    s: &mut Setup,
    reference: &[IterationReport],
    phases: &super::TracedPhases,
    seconds: f64,
) {
    let points = s.n_blocks() * s.dataset.decomp().block_dims().len();
    report.set("cm1.generate_mpts_s", points as f64 / s.generate_s / 1e6, 1);
    report.note("generate_threads", env::nproc().min(PIPELINE_RANKS));
    report.set("comm.session_spawn_ms", s.spawn_s * 1e3, 1);

    super::pipeline_counts(report, reference);
    super::iteration_busy(report, &phases.spans);
    // Probe pass: the kernels on a strided sample of the run's blocks
    // (storm core and clear air in their real proportion).
    let budget = seconds * 0.05;
    let sample: Vec<Block> = s.blocks.iter().flatten().step_by(20).cloned().collect();
    let isovalue = config().isovalue;
    let kernels =
        probes::pipeline_kernels(report, &sample, s.dataset.coords(), isovalue, budget * 2.0);
    probes::session_noop(report, &mut s.session, budget);
    let sort_s = probes::sort_gsb(report, &mut s.session, budget);
    probes::par_map_overhead(report, budget);

    // A 56:8 staged run over the same blocks: what the staging executor
    // costs on this workload's input (traced run only).
    let staged_cfg = config().with_staged(StagedParams::new(8, 4, BackpressurePolicy::Block));
    let frames: Vec<usize> = (0..4).map(|k| s.iteration + k).collect();
    let t0 = Instant::now();
    let staged = apc_core::run_staged_in_session(
        &mut s.session,
        s.dataset.decomp(),
        s.dataset.coords(),
        &staged_cfg,
        &frames,
        &|_, rank| s.blocks[rank].clone(),
    );
    report.set(
        "stage.staged_run_wall_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        1,
    );
    report.set(
        "stage.sim_stall_virtual_s",
        staged.mean_sim_stall(),
        staged.frames.len(),
    );
    report.set("stage.frames", staged.frames.len() as f64, 1);

    // CPU the kernels and the sort account for in one run, against the
    // CPU the traced phase actually used; the rest is the executor:
    // copies, redistribution, scheduling, waiting at barriers.
    let kernel_cpu = kernels.cpu_seconds(reference, s.n_blocks(), sort_s);
    let runs = phases.traced.op_ms.len() as f64;
    report.set(
        "core.unattributed_cpu_share",
        1.0 - kernel_cpu * runs / phases.traced.cpu_s,
        phases.traced.op_ms.len(),
    );

    // Discrimination: this workload never touches a store or a codec,
    // and the span seams prove it saw no backend call.
    report.set("bench.store_codec_cpu_share", 0.0, 1);
    report.set("bench.degrade_cpu_share", 0.0, 1);
    let store_spans = phases
        .spans
        .iter()
        .filter(|s| s.name.starts_with("backend.") || s.name.starts_with("store."))
        .count();
    super::discriminate_idle(report, "store and codec", store_spans);
}
