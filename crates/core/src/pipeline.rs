//! The six-step pipeline executed inside each rank (paper Fig 2).

use std::sync::Arc;

use apc_comm::{sort, Rank};
use apc_grid::{Block, DomainDecomp, RectilinearCoords};
use apc_metrics::BlockScorer;
use apc_par::{par_map, ExecPolicy};
use apc_render::{block_iso_stats, IsoStats, RenderCostModel};

use crate::config::{PipelineConfig, SortStrategy};
use crate::controller::BudgetController;
use crate::redistribute::{destinations, exchange};
use crate::report::IterationReport;
use crate::selection::{reduction_count, reduction_cut, score_order, ScoredBlock};

/// Virtual cost of reducing one block (a corner copy — negligible, but the
/// step is measured like every other).
const REDUCE_COST_PER_BLOCK: f64 = 2.0e-6;

/// The paper's score step, the one copy both executors run (the
/// synchronous step 1 and the staged simulation side): score `blocks` with
/// `scorer` — real scores on real data, fanned out per block under `exec`
/// — and charge the metric's calibrated per-point cost for the points
/// evaluated. Scores come back in block order and the charge is summed
/// from per-block point counts, so every policy yields the same scores and
/// the same virtual time.
pub(crate) fn score_held(
    rank: &mut Rank,
    scorer: &dyn BlockScorer,
    blocks: &[Block],
    exec: ExecPolicy,
) -> Vec<ScoredBlock> {
    let batch = apc_metrics::score_blocks(scorer, blocks, exec);
    let points: usize = batch.iter().map(|r| r.points).sum();
    rank.advance(points as f64 * scorer.cost_per_point());
    batch
        .iter()
        .map(|r| ScoredBlock {
            id: r.id,
            score: r.score,
        })
        .collect()
}

/// The paper's reduce step, the one copy both executors run (the
/// synchronous step 3 and the stager reduce): downsample the blocks of
/// `held` that are among the `percent`% lowest-scored of the ascending
/// `sorted` list — to 8 corners by default, to a k³ lattice with the
/// downsampling extension — and charge [`REDUCE_COST_PER_BLOCK`] for each.
/// `own[i]` is the scored entry of `held[i]`; each is compared with the
/// list's cut ([`reduction_cut`]), so the step costs what the rank holds.
/// A block that arrives already reduced is neither touched nor charged.
/// Returns the blocks reduced here.
pub(crate) fn reduce_lowest(
    rank: &mut Rank,
    config: &PipelineConfig,
    held: &mut [Block],
    own: &[ScoredBlock],
    sorted: &[ScoredBlock],
    percent: f64,
) -> usize {
    debug_assert!(held.len() == own.len() && held.iter().zip(own).all(|(b, s)| b.id == s.id));
    let reduces = reduction_cut(sorted, percent);
    let mut reduced_here = 0usize;
    for (b, s) in held.iter_mut().zip(own) {
        if reduces(s) && !b.is_reduced() {
            b.downsample(config.reduce_keep);
            reduced_here += 1;
        }
    }
    rank.advance(reduced_here as f64 * REDUCE_COST_PER_BLOCK);
    reduced_here
}

/// The paper's render step, the one copy both executors run: count the
/// isosurface work of the `held` blocks — cells visited, triangles emitted;
/// no mesh is built — and charge the cost model's render time. Counting is
/// fanned out per block under `config.exec`; per-block counters are merged
/// in block order, so the counted work — and with it the virtual render
/// time — is identical under every policy.
pub(crate) fn render_held(
    rank: &mut Rank,
    config: &PipelineConfig,
    iteration: usize,
    held: &[Block],
) -> IsoStats {
    let per_block: Vec<IsoStats> = par_map(
        config
            .exec
            .for_kernel(apc_render::isosurface::recommended_concurrency(held.len())),
        held,
        |b| block_iso_stats(b, config.isovalue),
    );
    let mut stats = IsoStats::default();
    for s in per_block {
        stats.merge(s);
    }
    let render_t = config.cost.render_time(
        stats,
        held.len(),
        RenderCostModel::key(rank.rank(), iteration),
    );
    rank.advance(render_t);
    stats
}

/// A step boundary's charge, paid on this rank's own clock — the first half
/// of [`Rank::barrier`]. Returns the clock, the boundary's where every
/// rank's last charge was the same collective charge; elsewhere the
/// boundary is the next meeting's clock ([`Rank::met_at`]).
fn pay_boundary(rank: &mut Rank) -> f64 {
    rank.advance(rank.net().barrier(rank.nranks()));
    rank.clock()
}

/// A rank-local pipeline instance. Controller state is replicated on every
/// rank and stays identical because it is fed with the globally-agreed
/// iteration time (deterministic adaptation without extra communication).
///
/// The per-block hot kernels (scoring, isosurface counting) run under
/// the config's [`crate::ExecPolicy`]; virtual time is counted, not
/// measured, so the policy never changes the reports:
///
/// ```
/// use apc_cm1::ReflectivityDataset;
/// use apc_comm::{NetModel, Runtime};
/// use apc_core::{ExecPolicy, Pipeline, PipelineConfig};
///
/// let dataset = ReflectivityDataset::tiny(2, 42).unwrap();
/// let config = PipelineConfig::default()
///     .deterministic()
///     .with_fixed_percent(50.0)
///     .with_exec(ExecPolicy::Threads(2)); // fan block kernels out per rank
/// let reports = Runtime::new(2, NetModel::blue_waters()).run(|rank| {
///     let mut p = Pipeline::new(config.clone(), *dataset.decomp(), dataset.coords().clone());
///     let blocks = dataset.rank_blocks(300, rank.rank());
///     p.run_iteration(rank, blocks, 300).0
/// });
/// assert_eq!(reports[0], reports[1], "every rank derives the same report");
/// assert!(reports[0].triangles_total > 0);
/// ```
pub struct Pipeline {
    config: PipelineConfig,
    scorer: Box<dyn BlockScorer>,
    controller: Option<BudgetController>,
}

impl Pipeline {
    /// `_decomp` and `_coords` are the decomposition and grid the blocks
    /// sit in. The pipeline itself needs neither — blocks carry their ids,
    /// the shared sorted list decides where they go, and the render step
    /// counts, positions play no part — but callers construct a pipeline
    /// next to the dataset they render from.
    pub fn new(config: PipelineConfig, _decomp: DomainDecomp, _coords: RectilinearCoords) -> Self {
        assert!(
            matches!(config.mode, crate::config::InSituMode::Synchronous),
            "Pipeline is the synchronous executor; staged configs run through \
             crate::staged (the experiment drivers dispatch on config.mode)"
        );
        #[expect(
            clippy::panic,
            reason = "misconfiguration caught at construction, before any rank spawns"
        )]
        let scorer = apc_metrics::by_name(&config.metric)
            .unwrap_or_else(|| panic!("unknown metric {:?}", config.metric));
        let controller = config.target_time.map(BudgetController::new);
        Self {
            config,
            scorer,
            controller,
        }
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The reduction percentage the next iteration will use.
    pub fn percent(&self) -> f64 {
        self.controller
            .as_ref()
            .map_or(self.config.fixed_percent, BudgetController::percent)
    }

    /// Run one full pipeline iteration on this rank's `blocks`. Returns the
    /// (identical-on-all-ranks) report and the blocks this rank holds after
    /// redistribution — callers that produce images render those.
    pub fn run_iteration(
        &mut self,
        rank: &mut Rank,
        mut blocks: Vec<Block>,
        iteration: usize,
    ) -> (IterationReport, Vec<Block>) {
        let percent = self.percent();
        // A step boundary is as slow as the slowest rank (§IV-D): pay the
        // barrier's charge, then take the clock of the next meeting. A
        // barrier meets with nothing to read only before local work.
        let c0 = rank.barrier();

        // Step 1 — score blocks (in block order: `own[i]` is `blocks[i]`'s).
        let own = score_held(rank, self.scorer.as_ref(), &blocks, self.config.exec);

        // Step 2 — global sort of <id, score> pairs; every rank holds the
        // whole sorted list. Gather-sort-broadcast opens with its meeting;
        // sample sort opens with a local sort, so its boundary meets first.
        // Both sorts leave every rank at one clock.
        let (sorted, c1): (Arc<[ScoredBlock]>, f64) = match self.config.sort {
            SortStrategy::GatherSortBroadcast => {
                pay_boundary(rank);
                let sorted = sort::gather_sort_broadcast(rank, own.clone(), score_order);
                (sorted, rank.met_at())
            }
            SortStrategy::SampleSort => {
                let c1 = rank.barrier();
                (sort::sample_sort(rank, own.clone(), score_order).into(), c1)
            }
        };
        let c2 = pay_boundary(rank);

        // Step 3 — reduce the held blocks among the p% lowest-scored.
        reduce_lowest(rank, &self.config, &mut blocks, &own, &sorted, percent);
        let c3 = rank.barrier();

        // Step 4 — redistribute blocks for load balance. Without a
        // redistribution nothing is charged, and the clocks still agree;
        // after an exchange, which replays each sender's clock, they differ.
        let dests = destinations(self.config.redistribution, &sorted, rank.nranks(), &own);
        let (held, c4) = match dests {
            None => (blocks, pay_boundary(rank)),
            Some(dests) => (exchange(rank, blocks, &dests), rank.barrier()),
        };

        // Step 5 — render the isosurface of the held blocks.
        let stats = render_held(rank, &self.config, iteration, &held);

        // Aggregate work counters; the first allreduce is step 5's meeting.
        pay_boundary(rank);
        let triangles_total = rank.allreduce(stats.triangles as u64, |a, b| a + b) as usize;
        let c5 = rank.met_at();
        let triangles_max_rank = rank.allreduce(stats.triangles as u64, u64::max) as usize;
        let t_total = c5 - c0;

        let report = IterationReport {
            iteration,
            percent_reduced: percent,
            blocks_reduced: reduction_count(sorted.len(), percent),
            t_score: c1 - c0,
            t_sort: c2 - c1,
            t_reduce: c3 - c2,
            t_redistribute: c4 - c3,
            t_render: c5 - c4,
            t_total,
            triangles_total,
            triangles_max_rank,
        };

        // Step 6 — adapt the percentage toward the time budget. Every rank
        // sees the same t_total, so the replicated controllers stay in
        // lockstep.
        if let Some(ctrl) = &mut self.controller {
            ctrl.observe(t_total);
        }

        (report, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Redistribution;
    use apc_cm1::ReflectivityDataset;
    use apc_comm::{NetModel, Runtime};

    fn run_on(nranks: usize, config: PipelineConfig, iters: &[usize]) -> Vec<IterationReport> {
        run_counting(nranks, config, iters).0
    }

    /// [`run_on`], with the number of collectives the ranks met for.
    fn run_counting(
        nranks: usize,
        config: PipelineConfig,
        iters: &[usize],
    ) -> (Vec<IterationReport>, u64) {
        let dataset = ReflectivityDataset::tiny(nranks, 42).unwrap();
        let mut session = Runtime::new(nranks, NetModel::blue_waters()).session();
        let iters = iters.to_vec();
        let all: Vec<Vec<IterationReport>> = session.run(|rank| {
            let mut p = Pipeline::new(config.clone(), *dataset.decomp(), dataset.coords().clone());
            iters
                .iter()
                .map(|&it| {
                    let blocks = dataset.rank_blocks(it, rank.rank());
                    p.run_iteration(rank, blocks, it).0
                })
                .collect()
        });
        // All ranks must agree on every report.
        for r in 1..all.len() {
            assert_eq!(all[0], all[r], "rank {r} report disagrees");
        }
        (all.into_iter().next().unwrap(), session.meetings())
    }

    fn run_tiny(config: PipelineConfig, iters: &[usize]) -> Vec<IterationReport> {
        run_on(4, config, iters)
    }

    #[test]
    fn smoke_no_reduction() {
        let reports = run_tiny(PipelineConfig::default().deterministic(), &[300]);
        let r = &reports[0];
        assert_eq!(r.percent_reduced, 0.0);
        assert_eq!(r.blocks_reduced, 0);
        assert!(r.triangles_total > 0, "the storm must produce geometry");
        assert!(r.t_render > 0.0 && r.t_total >= r.t_render);
        assert!(r.t_score > 0.0 && r.t_sort > 0.0);
    }

    #[test]
    fn full_reduction_collapses_render_time() {
        let base = run_tiny(PipelineConfig::default().deterministic(), &[300]);
        let reduced = run_tiny(
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(100.0),
            &[300],
        );
        assert_eq!(reduced[0].blocks_reduced, 128);
        assert!(
            reduced[0].t_render < base[0].t_render / 3.0,
            "100% reduction should collapse rendering: {} vs {}",
            reduced[0].t_render,
            base[0].t_render
        );
    }

    #[test]
    fn round_robin_balances_triangles() {
        // 16 ranks: the storm is localized on a few subdomains, so the NONE
        // baseline is imbalanced and redistribution has something to fix.
        let none = run_on(16, PipelineConfig::default().deterministic(), &[400]);
        let rr = run_on(
            16,
            PipelineConfig::default()
                .deterministic()
                .with_redistribution(Redistribution::RoundRobin),
            &[400],
        );
        // Same geometry, redistributed.
        assert_eq!(none[0].triangles_total, rr[0].triangles_total);
        assert!(
            rr[0].triangles_max_rank < none[0].triangles_max_rank,
            "round robin must shave the busiest rank: {} vs {}",
            rr[0].triangles_max_rank,
            none[0].triangles_max_rank
        );
        assert!(rr[0].t_render < none[0].t_render);
        assert!(
            rr[0].t_redistribute > 0.0,
            "redistribution step must cost time"
        );
    }

    #[test]
    fn random_shuffle_balances_too() {
        let none = run_on(16, PipelineConfig::default().deterministic(), &[400]);
        let sh = run_on(
            16,
            PipelineConfig::default()
                .deterministic()
                .with_redistribution(Redistribution::RandomShuffle { seed: 5 }),
            &[400],
        );
        assert_eq!(none[0].triangles_total, sh[0].triangles_total);
        assert!(sh[0].t_render < none[0].t_render);
    }

    #[test]
    fn adaptation_reaches_a_feasible_target() {
        // Pick a target between the all-reduced floor and the unreduced time.
        let base = run_tiny(PipelineConfig::default().deterministic(), &[300])[0].t_total;
        let floor = run_tiny(
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(100.0),
            &[300],
        )[0]
        .t_total;
        let target = floor + (base - floor) * 0.5;
        let iters: Vec<usize> = std::iter::repeat_n(300, 16).collect();
        let reports = run_tiny(
            PipelineConfig::default()
                .deterministic()
                .with_target(target),
            &iters,
        );
        assert_eq!(
            reports[0].percent_reduced, 0.0,
            "first iteration is unreduced"
        );
        // Algorithm 1 is best-effort: on plateaus of t(p) it can overshoot
        // and recover (the spikes visible in the paper's Fig 11). Judge by
        // the post-warmup *median*, which the paper's "converge toward a
        // specified run time" claim is about.
        let mut post: Vec<f64> = reports[4..].iter().map(|r| r.t_total).collect();
        post.sort_by(f64::total_cmp);
        let median = post[post.len() / 2];
        let err = (median - target).abs() / target;
        assert!(
            err < 0.35,
            "median post-warmup time {median} should approach target {target}"
        );
    }

    #[test]
    fn sample_sort_strategy_matches_gsb() {
        let mut cfg = PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(60.0);
        cfg.sort = SortStrategy::SampleSort;
        let ss = run_tiny(cfg, &[300]);
        let gsb = run_tiny(
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(60.0),
            &[300],
        );
        // Same blocks reduced ⇒ same geometry and render time.
        assert_eq!(ss[0].blocks_reduced, gsb[0].blocks_reduced);
        assert_eq!(ss[0].triangles_total, gsb[0].triangles_total);
    }

    #[test]
    fn downsampling_lattice_trades_time_for_fidelity() {
        // keep=2 (paper) vs keep=4 (extension) at 100% reduction: the finer
        // lattice keeps more geometry and costs more, but both are far
        // below the unreduced time.
        let full = run_tiny(PipelineConfig::default().deterministic(), &[400]);
        let k2 = run_tiny(
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(100.0),
            &[400],
        );
        let k4 = run_tiny(
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(100.0)
                .with_reduce_keep(4),
            &[400],
        );
        assert!(k4[0].triangles_total > k2[0].triangles_total);
        assert!(k4[0].triangles_total < full[0].triangles_total);
        assert!(k2[0].t_render <= k4[0].t_render);
        assert!(k4[0].t_render < full[0].t_render);
    }

    /// A step boundary pays its charge on the rank's own clock and takes
    /// the clock of the next meeting: the sort's under gather-sort-broadcast,
    /// the first counter allreduce's after rendering, none after the sort or
    /// a step 4 that moves nothing. A boundary read from a rank's own clock
    /// where clocks differ would split the reports `run_counting` compares.
    /// Each iteration meets exactly the collectives that move data, plus a
    /// barrier where the next step starts with local work.
    #[test]
    fn every_rank_derives_the_same_report_from_the_fewest_meetings() {
        let redistributions = [
            Redistribution::None,
            Redistribution::RoundRobin,
            Redistribution::RandomShuffle { seed: 5 },
        ];
        let iters = [300, 400];
        for nranks in [16, 64] {
            for sort in [SortStrategy::GatherSortBroadcast, SortStrategy::SampleSort] {
                for redistribution in redistributions {
                    let mut config = PipelineConfig::default()
                        .deterministic()
                        .with_redistribution(redistribution);
                    config.sort = sort;
                    let per_iteration = match (sort, redistribution) {
                        (SortStrategy::GatherSortBroadcast, Redistribution::None) => 5,
                        (SortStrategy::GatherSortBroadcast, _) => 7,
                        (SortStrategy::SampleSort, Redistribution::None) => 8,
                        (SortStrategy::SampleSort, _) => 10,
                    };
                    let case = format!("{nranks} ranks, {sort:?}, {redistribution:?}");
                    let (fixed, meetings) =
                        run_counting(nranks, config.clone().with_fixed_percent(40.0), &iters);
                    assert_eq!(meetings, per_iteration * iters.len() as u64, "{case}");
                    let target = fixed[0].t_total * 0.7;
                    let (adapted, meetings) =
                        run_counting(nranks, config.with_target(target), &iters);
                    assert_eq!(meetings, per_iteration * iters.len() as u64, "{case}");
                    assert!(adapted[1].percent_reduced > 0.0, "{case}: no adaptation");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics_at_construction() {
        let dataset = ReflectivityDataset::tiny(4, 1).unwrap();
        let _ = Pipeline::new(
            PipelineConfig::default().with_metric("NOPE"),
            *dataset.decomp(),
            dataset.coords().clone(),
        );
    }
}
