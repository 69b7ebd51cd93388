//! The staged (dedicated-core, asynchronous) execution of the in situ
//! pipeline — [`InSituMode::Staged`]'s implementation over the generic
//! frame engine in `engine`.
//!
//! The synchronous pipeline puts all six steps on every rank's critical
//! path. Here the rank group is split by a static sim:viz partition
//! (simulation ranks first, staging ranks last):
//!
//! * **Simulation ranks** replay the solver (a configurable virtual
//!   compute charge per iteration), **score** their blocks with the
//!   config's metric, and deal the scored blocks into bounded per-stager
//!   queues — score-aware: blocks sorted by descending score are dealt
//!   round-robin across the stagers, so each stager receives a balanced
//!   share of the expensive (geometry-rich) blocks, the same idea as the
//!   paper's round-robin redistribution. Then they move on; the only
//!   visualization cost they ever see again is queue backpressure.
//! * **Staging ranks** drain the queues and run the remaining steps with
//!   the existing `apc-core` machinery: the paper's score order
//!   ([`score_order`]), reduction-set selection, block downsampling, the
//!   isosurface render-cost model, and a per-stager Algorithm 1
//!   [`BudgetController`]. Under
//!   [`crate::BackpressurePolicy::DegradeHarder`] a frame that sat in
//!   the queue is reduced `boost` percentage points harder than the
//!   controller asked — the controller then observes the percentage
//!   actually used ([`BudgetController::observe_at`]), so its linear model
//!   stays fed with true `(time, percent)` pairs.
//!
//! One driver runs every staged run. Given [`ServeParams`], it also runs
//! client ranks on the session's last ranks, and the stagers answer them
//! between frames (`crate::serving`); without, the same run has no
//! clients. Each rank returns a per-frame log; [`StagedRun`] merges the
//! logs into the same [`IterationReport`] stream the synchronous pipeline
//! emits (step times are max-over-ranks, triangle counters summed) plus
//! the staged-only observables: simulation-visible stall/in situ time and
//! dropped/degraded frame counts. The merge runs on the driver thread
//! over rank-ordered logs, so staged reports are byte-stable across
//! repeated runs and execution policies exactly like synchronous ones
//! (`tests/staged_determinism.rs` pins this).

mod engine;

use apc_comm::{Rank, Session};
use apc_grid::{Block, DomainDecomp, RectilinearCoords};
use apc_serve::{ReplyChecker, RequestLog, ServeReport, ServerStats};

use crate::config::{InSituMode, PipelineConfig, StagedParams};
use crate::controller::BudgetController;
use crate::pipeline::{reduce_lowest, render_held, score_held};
use crate::redistribute::WireBlock;
use crate::report::IterationReport;
use crate::selection::{score_order, ScoredBlock};
use crate::serving::{client_program, ServeParams, ServingRun, StagerServe};
use engine::{run_staged, Partition, RankLog, SimFrameLog, StageFrameLog};

/// A block slice on the wire: `(block, score)` pairs. Scores ride along so
/// stagers never re-score what the simulation already measured.
type Slice = Vec<(WireBlock, f64)>;

/// What a simulation rank logs per frame (beyond the engine's timing).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimAux {
    t_score: f64,
}

/// What a staging rank logs per frame (beyond the engine's timing).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageOut {
    percent: f64,
    degraded: bool,
    /// Blocks this stager rendered this frame (explicitly zero when every
    /// slice it was dealt was empty or dropped).
    blocks: usize,
    blocks_reduced: usize,
    triangles: usize,
    t_reduce: f64,
    t_render: f64,
}

/// What one rank of a staged run returns: a simulation rank's or
/// stager's log, with a serving stager's totals, or a client's request
/// logs and final clock. Returning the log and a `ServeReport` share as a
/// tuple instead cost ≈ 25 % more wall time and ≈ 40 % more voluntary
/// context switches per `serve_adaptive` op (2 vCPUs, 272 rank threads),
/// with the same digest; the cause was not found.
enum RankOut {
    Staged(RankLog<SimAux, StageOut>, Option<ServerStats>),
    Client(Vec<RequestLog>, f64),
}

/// One staged iteration: the synchronous-compatible report plus the
/// staged-only observables.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedFrame {
    /// The familiar per-iteration report. Staged semantics of the step
    /// fields: `t_score` is the (max-over-sim-ranks) sim-side scoring
    /// time, `t_sort` is zero (stagers sort locally, no collective),
    /// `t_reduce` is the stager reduction, `t_redistribute` the queue
    /// transfer/ingest time visible at the stagers, `t_render` the stager
    /// render step, and `t_total` the end-to-end frame latency from the
    /// last simulation rank finishing the frame's production to the last
    /// stager finishing its render.
    pub report: IterationReport,
    /// Queue-full stall this frame cost the simulation (max over sim
    /// ranks) — the quantity staging exists to minimize.
    pub t_sim_stall: f64,
    /// Everything the simulation saw of in situ processing this frame
    /// (max over sim ranks): scoring + enqueue overhead + stall. The
    /// synchronous equivalent is the whole `t_total`.
    pub t_sim_visible: f64,
    /// Frame slices evicted by `DropOldest` this frame (over all queues).
    pub slices_dropped: usize,
    /// Stagers that rendered this frame at a degraded (boosted) reduction
    /// percentage.
    pub stagers_degraded: usize,
    /// Blocks each stager rendered this frame, in stager-slot order —
    /// always `n_stage` entries, with an **explicit zero** for a stager
    /// that rendered nothing (empty slices, or every slice dropped by
    /// `DropOldest`), so per-stager accounting stays aligned across rank
    /// counts and policies instead of silently losing rows.
    pub blocks_by_stager: Vec<usize>,
}

/// A completed staged run: one [`StagedFrame`] per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedRun {
    pub frames: Vec<StagedFrame>,
}

impl StagedRun {
    /// The run's [`IterationReport`] stream (what sweep callers consume).
    pub fn reports(&self) -> Vec<IterationReport> {
        self.frames.iter().map(|f| f.report).collect()
    }

    /// Total frame slices dropped over the run.
    pub fn total_dropped(&self) -> usize {
        self.frames.iter().map(|f| f.slices_dropped).sum()
    }

    /// Total degraded stager-frames over the run.
    pub fn total_degraded(&self) -> usize {
        self.frames.iter().map(|f| f.stagers_degraded).sum()
    }

    /// Mean simulation-visible in situ time per frame.
    pub fn mean_sim_visible(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.t_sim_visible))
    }

    /// Mean simulation stall per frame.
    pub fn mean_sim_stall(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.t_sim_stall))
    }

    /// Mean end-to-end frame latency.
    pub fn mean_latency(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.report.t_total))
    }

    /// Total blocks rendered per stager over the run, in stager-slot
    /// order. Stagers that rendered nothing contribute explicit zeros,
    /// so the vector length is always the partition's stager count.
    pub fn blocks_by_stager(&self) -> Vec<usize> {
        let n = self.frames.first().map_or(0, |f| f.blocks_by_stager.len());
        let mut totals = vec![0usize; n];
        for f in &self.frames {
            for (t, b) in totals.iter_mut().zip(&f.blocks_by_stager) {
                *t += b;
            }
        }
        totals
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Run a staged configuration over a caller-owned [`Session`] — the staged
/// counterpart of [`crate::run_sweep_in_session`], and what that function
/// dispatches to when it meets an [`InSituMode::Staged`] config. The
/// session's rank count is split by the config's [`StagedParams`]; the
/// dataset decomposition's ranks are folded onto the simulation ranks
/// (sim slot `i` produces the blocks of every dataset rank `r ≡ i` mod
/// `n_sim`), so a staged run at N total ranks visualizes exactly the same
/// domain as a synchronous run at N ranks.
///
/// `_coords` is the dataset's grid; the staged steps never read it (the
/// render step counts, positions play no part).
///
/// Like [`crate::Pipeline::run_iteration`], this low-level entry uses the
/// config's [`crate::ExecPolicy`] exactly as given; the experiment drivers
/// ([`crate::run_sweep_in_session`], [`crate::Prepared`]) clamp it to the
/// host's per-rank thread budget first.
pub fn run_staged_in_session<F>(
    session: &mut Session,
    decomp: &DomainDecomp,
    _coords: &RectilinearCoords,
    config: &PipelineConfig,
    iterations: &[usize],
    blocks: &F,
) -> StagedRun
where
    F: Fn(usize, usize) -> Vec<Block> + Sync,
{
    run(session, decomp, config, iterations, None, blocks).staged
}

/// The one staged driver, with client ranks when `serve` is given
/// ([`crate::run_staged_serving_in_session`]) and without them otherwise.
/// It checks the split of the session's ranks but the last
/// `serve.clients` (the one place a staged split meets a concrete rank
/// count), writes the sink's manifest before any rank starts, runs the
/// simulation, staging and client ranks in one `session.run`, seals the
/// sink, and folds the rank-ordered logs into the run's [`StagedRun`] and
/// [`ServeReport`] (empty without clients).
pub(crate) fn run<F>(
    session: &mut Session,
    decomp: &DomainDecomp,
    config: &PipelineConfig,
    iterations: &[usize],
    serve: Option<&ServeParams>,
    blocks: &F,
) -> ServingRun
where
    F: Fn(usize, usize) -> Vec<Block> + Sync,
{
    #[expect(
        clippy::panic,
        reason = "misconfiguration caught at entry, before any rank spawns"
    )]
    let InSituMode::Staged(params) = &config.mode
    else {
        panic!("a staged run needs an InSituMode::Staged config")
    };
    let nranks = session.nranks();
    assert_eq!(
        nranks,
        decomp.nranks(),
        "session rank count must match the decomposition"
    );
    assert!(
        !iterations.is_empty(),
        "a staged run needs at least one iteration"
    );
    let n_clients = serve.map_or(0, |s| s.clients);
    params.validate(nranks, n_clients);
    // Stagers serve the frames they persist, so serving needs the sink.
    #[expect(
        clippy::expect_used,
        reason = "misconfiguration caught at entry, before any rank spawns"
    )]
    let serving = serve.map(|s| {
        let sink = params.persist.as_ref();
        (
            s,
            sink.expect("serving needs StagedParams::persist — attach a FrameSink"),
        )
    });
    let partition = Partition::new(nranks - n_clients, params.viz_ranks);
    let (n_sim, n_stage) = (partition.n_sim(), partition.n_stage());
    if let Some(sink) = &params.persist {
        let gb = decomp.global_block_grid();
        #[expect(
            clippy::expect_used,
            reason = "driver-level setup — a manifest write failure fails the run before it starts"
        )]
        sink.begin_run(params.viz_ranks, gb.nx, gb.ny, iterations)
            .expect("write the run manifest");
    }

    let checker = ReplyChecker::default();
    let outs = session.run(|rank| {
        let r = rank.rank();
        if let Some((serve, _)) = serving.filter(|_| r >= n_sim + n_stage) {
            let client = r - n_sim - n_stage;
            let server_slot = client % n_stage;
            let (logs, finish) = client_program(
                rank,
                client,
                partition.stage_rank(server_slot),
                server_slot as u32,
                iterations,
                serve,
                &checker,
            );
            return RankOut::Client(logs, finish);
        }
        let mut srv = serving.filter(|_| r >= n_sim).map(|(serve, sink)| {
            let slot = r - n_sim;
            let client_ranks: Vec<usize> = (0..n_clients)
                .filter(|c| c % n_stage == slot)
                .map(|c| n_sim + n_stage + c)
                .collect();
            StagerServe::new(serve, slot as u32, sink, iterations, client_ranks)
        });
        let log = rank_program(
            rank,
            partition,
            params,
            config,
            decomp,
            iterations,
            blocks,
            srv.as_mut(),
        );
        RankOut::Staged(log, srv.map(|s| s.finish(rank.clock())))
    });

    // Seal partially-filled shard groups, so a stored run is complete (and
    // readable through `open_run`) the moment the run call returns.
    if let Some(sink) = &params.persist {
        #[expect(
            clippy::expect_used,
            reason = "driver-level teardown — failing to seal the run is unrecoverable and must be loud"
        )]
        sink.flush().expect("seal the run's tail shards");
    }

    let mut logs = Vec::with_capacity(n_sim + n_stage);
    let mut report = ServeReport::default();
    for out in outs {
        match out {
            RankOut::Staged(log, stats) => {
                logs.push(log);
                report.servers.extend(stats);
            }
            RankOut::Client(requests, finish) => {
                report.requests.extend(requests);
                report.client_finish.push(finish);
            }
        }
    }
    ServingRun {
        staged: merge_logs(partition, iterations, logs),
        report,
    }
}

/// The SPMD program of one staged rank (both roles). `serve` is a
/// stager's serving state in a run with clients — `None` otherwise; when
/// present, the stager also answers its assigned clients' frame requests
/// between frames.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one borrow of the executor's shared inputs; a struct would only rename them"
)]
fn rank_program<F>(
    rank: &mut Rank,
    partition: Partition,
    params: &StagedParams,
    config: &PipelineConfig,
    decomp: &DomainDecomp,
    iterations: &[usize],
    blocks: &F,
    mut serve: Option<&mut StagerServe<'_>>,
) -> RankLog<SimAux, StageOut>
where
    F: Fn(usize, usize) -> Vec<Block> + Sync,
{
    #[expect(
        clippy::panic,
        reason = "misconfiguration caught before the pipeline moves any data"
    )]
    let scorer = apc_metrics::by_name(&config.metric)
        .unwrap_or_else(|| panic!("unknown metric {:?}", config.metric));
    let n_sim = partition.n_sim();
    let n_stage = partition.n_stage();
    let mut controller = config.target_time.map(BudgetController::new);

    run_staged(
        rank,
        params,
        partition,
        iterations.len(),
        // ---- simulation side -------------------------------------------
        |rank, k| {
            let slot = rank.rank(); // sim slots are the low rank ids
            let it = iterations[k];
            // The solver step this frame's visualization overlaps with.
            rank.advance(params.sim_compute);
            // This sim rank stands in for every dataset rank folded onto
            // its slot, producing (and paying to score) their blocks.
            let held: Vec<Block> = (slot..decomp.nranks())
                .step_by(n_sim)
                .flat_map(|r| blocks(it, r))
                .collect();
            let t0 = rank.clock();
            let scores = score_held(rank, scorer.as_ref(), &held, config.exec);
            let t_score = rank.clock() - t0;
            let mut scored: Vec<(Block, ScoredBlock)> = held.into_iter().zip(scores).collect();
            scored.sort_by(|(_, a), (_, b)| score_order(a, b));

            // Score-aware dealing: highest-scored block to stager 0, next
            // to stager 1, ... — every stager gets a balanced share of the
            // expensive blocks.
            let mut batches: Vec<Slice> = (0..n_stage).map(|_| Vec::new()).collect();
            for (pos, (b, sb)) in scored.into_iter().rev().enumerate() {
                batches[pos % n_stage].push((WireBlock(b), sb.score));
            }
            (batches, SimAux { t_score })
        },
        // ---- staging side ----------------------------------------------
        |rank, k, parts, boost| {
            let it = iterations[k];
            // Held in score order: the reduce step compares each block
            // with the cut of this very list, and render counting sums
            // integers, so no other order is observable.
            let mut arrived: Vec<(Block, ScoredBlock)> = Vec::new();
            for (_slot, slice) in parts {
                for (WireBlock(b), score) in slice {
                    let entry = ScoredBlock { id: b.id, score };
                    arrived.push((b, entry));
                }
            }
            arrived.sort_by(|(_, a), (_, b)| score_order(a, b));
            let (mut held, entries): (Vec<Block>, Vec<ScoredBlock>) = arrived.into_iter().unzip();

            let base = controller
                .as_ref()
                .map_or(config.fixed_percent, BudgetController::percent);
            let percent = if boost > 0.0 {
                (base + boost).min(100.0)
            } else {
                base
            };
            let degraded = percent > base;

            let t0 = rank.clock();
            let blocks_reduced =
                reduce_lowest(rank, config, &mut held, &entries, &entries, percent);
            let t_reduce = rank.clock() - t0;

            let t1 = rank.clock();
            let stats = render_held(rank, config, it, &held);
            let t_render = rank.clock() - t1;

            if let Some(ctrl) = &mut controller {
                // The stager's controllable frame time, against the
                // percentage actually used (which the degrade path may
                // have boosted past the controller's own output).
                ctrl.observe_at(t_reduce + t_render, percent);
            }

            if let Some(sink) = &params.persist {
                // The rendered frame as a durable artifact: the plan-view
                // score footprint of the blocks this stager rendered (the
                // paper's Fig 4 scoremap idea, kept as f32 so apc-compress
                // codecs apply). The write is modeled as off the critical
                // path, so persisting charges no virtual time.
                let gb = decomp.global_block_grid();
                let mut pixels = vec![0.0f32; gb.nx * gb.ny];
                for sb in &entries {
                    let (bi, bj, _bk) = decomp.block_coords(sb.id);
                    let px = &mut pixels[bj * gb.nx + bi];
                    *px = px.max(sb.score as f32);
                }
                let slot = rank.rank() - n_sim;
                let frame = apc_serve::Frame::new(
                    it as u64,
                    slot as u32,
                    gb.nx as u32,
                    gb.ny as u32,
                    pixels,
                )
                .with_render_info(stats.triangles as u64, percent);
                let stream = sink.persist_stream(&frame);
                if let Some(srv) = serve.as_deref_mut() {
                    srv.on_frame_rendered(it as u64, stream);
                }
            }
            if let Some(srv) = serve.as_deref_mut() {
                // Serve this stager's clients up to frame k's quota (and
                // flush replies that waited for this frame).
                srv.after_frame(rank, k);
            }

            StageOut {
                percent,
                degraded,
                blocks: held.len(),
                blocks_reduced,
                triangles: stats.triangles,
                t_reduce,
                t_render,
            }
        },
    )
}

/// Fold the per-rank logs into the per-iteration stream. Pure arithmetic
/// over rank-ordered data — deterministic by construction.
fn merge_logs(
    partition: Partition,
    iterations: &[usize],
    logs: Vec<RankLog<SimAux, StageOut>>,
) -> StagedRun {
    let mut sims: Vec<Vec<(SimAux, SimFrameLog)>> = Vec::new();
    let mut stages: Vec<Vec<(StageOut, StageFrameLog)>> = Vec::new();
    for log in logs {
        match log {
            RankLog::Sim(v) => sims.push(v),
            RankLog::Stage(v) => stages.push(v),
        }
    }
    assert_eq!(sims.len(), partition.n_sim());
    assert_eq!(stages.len(), partition.n_stage());

    let mut frames = Vec::with_capacity(iterations.len());
    for (k, &iteration) in iterations.iter().enumerate() {
        let mut t_score = 0.0f64;
        let mut produced = 0.0f64;
        let mut t_sim_stall = 0.0f64;
        let mut t_sim_visible = 0.0f64;
        for sim in &sims {
            let (aux, f) = &sim[k];
            t_score = t_score.max(aux.t_score);
            produced = produced.max(f.produced);
            t_sim_stall = t_sim_stall.max(f.stall);
            t_sim_visible = t_sim_visible.max(f.visible() - (f.produced - f.start) + aux.t_score);
        }
        let mut t_reduce = 0.0f64;
        let mut blocks_reduced = 0usize;
        let mut t_redistribute = 0.0f64;
        let mut t_render = 0.0f64;
        let mut finish = 0.0f64;
        let mut percent = 0.0f64;
        let mut triangles_total = 0usize;
        let mut triangles_max = 0usize;
        let mut slices_dropped = 0usize;
        let mut stagers_degraded = 0usize;
        let mut blocks_by_stager = Vec::with_capacity(stages.len());
        for stage in &stages {
            let (out, f) = &stage[k];
            blocks_by_stager.push(out.blocks);
            let prev_finish = if k == 0 { 0.0 } else { stage[k - 1].1.finish };
            t_reduce = t_reduce.max(out.t_reduce);
            t_redistribute = t_redistribute.max((f.start - f.arrival.max(prev_finish)).max(0.0));
            t_render = t_render.max(out.t_render);
            finish = finish.max(f.finish);
            percent = percent.max(out.percent);
            triangles_total += out.triangles;
            triangles_max = triangles_max.max(out.triangles);
            blocks_reduced += out.blocks_reduced;
            slices_dropped += f.slices_dropped;
            stagers_degraded += usize::from(out.degraded);
        }
        let report = IterationReport {
            iteration,
            percent_reduced: percent,
            blocks_reduced,
            t_score,
            t_sort: 0.0,
            t_reduce,
            t_redistribute,
            t_render,
            t_total: (finish - produced).max(0.0),
            triangles_total,
            triangles_max_rank: triangles_max,
        };
        frames.push(StagedFrame {
            report,
            t_sim_stall,
            t_sim_visible,
            slices_dropped,
            stagers_degraded,
            blocks_by_stager,
        });
    }
    StagedRun { frames }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackpressurePolicy;
    use apc_cm1::ReflectivityDataset;
    use apc_comm::{NetModel, Runtime};

    fn staged_config(params: StagedParams) -> PipelineConfig {
        PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0)
            .with_staged(params)
    }

    /// A staged run over a fresh session of the dataset's rank count.
    fn run_fresh(
        dataset: &ReflectivityDataset,
        config: &PipelineConfig,
        its: &[usize],
    ) -> StagedRun {
        let nranks = dataset.decomp().nranks();
        run_staged_in_session(
            &mut Runtime::new(nranks, NetModel::blue_waters()).session(),
            dataset.decomp(),
            dataset.coords(),
            config,
            its,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
    }

    fn run_tiny(params: StagedParams, iters: usize) -> StagedRun {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let its = dataset.sample_iterations(iters);
        run_fresh(&dataset, &staged_config(params), &its)
    }

    #[test]
    fn staged_run_covers_the_whole_domain() {
        // 3 sim ranks stand in for all 4 dataset ranks; the staged run must
        // render exactly the geometry a synchronous run renders.
        let params = StagedParams::new(1, 2, BackpressurePolicy::Block);
        let staged = run_tiny(params.clone(), 2);
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let its = dataset.sample_iterations(2);
        let sync = crate::run_experiment(
            &dataset,
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(0.0),
            &its,
        );
        assert_eq!(staged.frames.len(), 2);
        for (f, s) in staged.frames.iter().zip(&sync) {
            // 40% reduction drops some geometry; an unreduced staged run
            // must match the sync triangle total exactly.
            assert!(f.report.triangles_total <= s.triangles_total);
            assert!(f.report.triangles_total > 0);
        }
        let unreduced = run_fresh(
            &dataset,
            &PipelineConfig::default()
                .deterministic()
                .with_staged(params),
            &its,
        );
        for (f, s) in unreduced.frames.iter().zip(&sync) {
            assert_eq!(
                f.report.triangles_total, s.triangles_total,
                "same domain, same isovalue, same geometry"
            );
        }
    }

    #[test]
    fn overlap_hides_viz_when_sim_is_slow() {
        // Give the solver plenty of virtual work per iteration: the
        // stager finishes each frame before the next arrives, so the
        // simulation never stalls and its visible in situ time is just
        // scoring + enqueue overhead.
        let params = StagedParams::new(1, 2, BackpressurePolicy::Block).with_sim_compute(500.0);
        let run = run_tiny(params, 3);
        for f in &run.frames {
            assert_eq!(f.t_sim_stall, 0.0, "full overlap expected");
            assert!(
                f.t_sim_visible < 10.0,
                "visible {} should be scoring-scale",
                f.t_sim_visible
            );
            assert_eq!(f.slices_dropped, 0);
        }
    }

    #[test]
    fn backpressure_stalls_a_fast_sim_under_block_policy() {
        // A solver that produces frames back to back outruns the stager;
        // with Block the queue fills and stalls appear.
        let params = StagedParams::new(1, 1, BackpressurePolicy::Block);
        let run = run_tiny(params, 6);
        let late_stall: f64 = run.frames[3..].iter().map(|f| f.t_sim_stall).sum();
        assert!(
            late_stall > 0.0,
            "steady-state stall expected with sim_compute = 0"
        );
        assert_eq!(run.total_dropped(), 0);
    }

    #[test]
    fn drop_policy_sheds_frames_instead_of_stalling() {
        let params = StagedParams::new(1, 1, BackpressurePolicy::DropOldest);
        let run = run_tiny(params, 6);
        assert!(
            run.frames.iter().all(|f| f.t_sim_stall == 0.0),
            "lossy sims never stall"
        );
        assert!(run.total_dropped() > 0, "pressure must shed frames");
    }

    #[test]
    fn degrade_policy_raises_percent_under_pressure() {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let its = dataset.sample_iterations(6);
        let params = StagedParams::new(1, 1, BackpressurePolicy::DegradeHarder { boost: 30.0 });
        // Adaptive config so the controller is live; infeasibly large
        // target keeps its own percentage low, letting the boost show.
        let config = PipelineConfig::default()
            .deterministic()
            .with_target(1e6)
            .with_staged(params);
        let run = run_fresh(&dataset, &config, &its);
        assert!(run.total_degraded() > 0, "backlogged frames must degrade");
        let boosted = run
            .frames
            .iter()
            .filter(|f| f.stagers_degraded > 0)
            .map(|f| f.report.percent_reduced);
        for p in boosted {
            assert!(
                p >= 30.0,
                "boost must show in the effective percent, got {p}"
            );
        }
    }

    /// Attaching a frame sink is invisible to the run's observables (the
    /// write is off the critical path), and every `(iteration, stager)`
    /// frame lands in the store.
    #[test]
    fn persisting_frames_is_invisible_and_durable() {
        use apc_serve::{FrameSink, FrameStore};
        use apc_store::{CodecKind, MemStore, StoreBackend};
        use std::sync::Arc;

        let params = StagedParams::new(2, 2, BackpressurePolicy::Block);
        let plain = run_tiny(params.clone(), 3);

        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let sink = FrameSink::new(Arc::clone(&backend), "staged", CodecKind::Fpz);
        let persisted = run_tiny(params.with_persist(sink), 3);
        assert_eq!(
            plain, persisted,
            "persisting frames must not perturb any report or clock"
        );

        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let its = dataset.sample_iterations(3);
        let store = FrameStore::new(&*backend, "staged");
        // Plain staged runs are self-describing too: the manifest is
        // written even when no serving executor is involved.
        let manifest = store.manifest().unwrap();
        assert_eq!(manifest.n_stagers, 2);
        assert_eq!(manifest.iterations, its);
        for &it in &its {
            for stager in 0..2u32 {
                let frame = store.get_frame(it as u64, stager).unwrap();
                assert_eq!(frame.iteration, it as u64);
                assert_eq!(frame.stager, stager);
                assert!(frame.pixels.iter().any(|&p| p != 0.0), "scores painted");
            }
        }
    }

    /// Per-stager block counts always cover every stager — a stager whose
    /// every slice was dropped contributes an explicit zero, not a
    /// missing row.
    #[test]
    fn blocks_by_stager_emits_explicit_zero_rows() {
        // 1 sim feeding 1 stager, depth-1 lossy queue, back-to-back
        // production: whole frames get dropped, and those frames must
        // still carry a (zero) entry for the stager.
        let dataset = ReflectivityDataset::tiny(2, 42).unwrap();
        let its = dataset.sample_iterations(6);
        let run = run_fresh(
            &dataset,
            &staged_config(StagedParams::new(1, 1, BackpressurePolicy::DropOldest)),
            &its,
        );
        assert!(
            run.frames.iter().all(|f| f.blocks_by_stager.len() == 1),
            "every frame covers every stager"
        );
        let zero_rows = run
            .frames
            .iter()
            .filter(|f| f.blocks_by_stager[0] == 0)
            .count();
        assert!(zero_rows > 0, "fully-dropped frames must appear as zeros");
        for f in &run.frames {
            assert_eq!(
                f.blocks_by_stager[0] == 0,
                f.slices_dropped == 1,
                "a zero row is exactly a fully-dropped frame here"
            );
        }
        assert_eq!(run.blocks_by_stager().len(), 1);
    }

    /// Under a lossless policy the per-stager counts partition the whole
    /// domain every frame.
    #[test]
    fn blocks_by_stager_partitions_the_domain() {
        let run = run_tiny(StagedParams::new(2, 2, BackpressurePolicy::Block), 2);
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        for f in &run.frames {
            assert_eq!(f.blocks_by_stager.len(), 2);
            assert_eq!(
                f.blocks_by_stager.iter().sum::<usize>(),
                dataset.decomp().n_blocks(),
                "every block lands on exactly one stager"
            );
        }
        let totals = run.blocks_by_stager();
        assert_eq!(totals.len(), 2);
        assert!(totals.iter().all(|&t| t > 0));
    }

    /// Only a run that writes a manifest needs its iterations in order: a
    /// staged run without a sink renders them as given.
    #[test]
    fn unpersisted_run_accepts_iterations_in_any_order() {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let mut its = dataset.sample_iterations(4);
        its.swap(1, 2);
        let params = StagedParams::new(1, 2, BackpressurePolicy::Block);
        let run = run_fresh(&dataset, &staged_config(params), &its);
        let rendered: Vec<usize> = run.reports().iter().map(|r| r.iteration).collect();
        assert_eq!(rendered, its);
    }

    #[test]
    #[should_panic(expected = "needs an InSituMode::Staged config")]
    fn sync_config_rejected() {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let _ = run_fresh(&dataset, &PipelineConfig::default(), &[300]);
    }

    #[test]
    #[should_panic(expected = "a staged run needs at least one iteration")]
    fn empty_iteration_list_rejected() {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let params = StagedParams::new(1, 1, BackpressurePolicy::Block);
        let _ = run_fresh(&dataset, &staged_config(params), &[]);
    }

    #[test]
    #[should_panic(expected = "synchronous executor")]
    fn pipeline_rejects_staged_configs() {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let params = StagedParams::new(1, 1, BackpressurePolicy::Block);
        let _ = crate::Pipeline::new(
            staged_config(params),
            *dataset.decomp(),
            dataset.coords().clone(),
        );
    }
}
