//! Fig 12 (extension beyond the paper): staged — dedicated-core,
//! asynchronous — in situ vs the paper's synchronous pipeline, at **equal
//! total rank count**.
//!
//! The synchronous pipeline charges its whole cost to the simulation's
//! critical path every iteration; the staged mode dedicates a few ranks
//! to visualization and the simulation only pays scoring, enqueueing and
//! whatever backpressure the queues develop. This experiment sweeps the
//! sim:viz split, the queue depth and the backpressure policy, and
//! reports, per configuration:
//!
//! * mean end-to-end virtual iteration time (for staged runs: frame
//!   latency from last-producer-done to last-stager-done);
//! * mean **simulation-visible** in situ time — the number the paper's
//!   whole program is about (for the synchronous rows this *is* the
//!   pipeline time);
//! * mean simulation stall (queue-full wait) per iteration;
//! * dropped frame slices (`DropOldest`) and degraded stager-frames
//!   (`DegradeHarder`) over the run.
//!
//! The simulated solver is given the synchronous pipeline's mean
//! iteration time as its per-iteration compute, so the staged runs face
//! exactly the workload regime in which overlap has something to hide.

use apc_core::{BackpressurePolicy, PipelineConfig, StagedParams};

use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

fn policies() -> [(&'static str, BackpressurePolicy); 3] {
    [
        ("block", BackpressurePolicy::Block),
        ("drop-oldest", BackpressurePolicy::DropOldest),
        (
            "degrade+25",
            BackpressurePolicy::DegradeHarder { boost: 25.0 },
        ),
    ]
}

/// Staging-rank counts evaluated for a given total rank count: roughly
/// 1:8 and 1:4 viz shares, always leaving at least one simulation rank.
fn viz_choices(nranks: usize) -> Vec<usize> {
    let mut v = vec![(nranks / 8).max(1), (nranks / 4).max(1)];
    v.dedup();
    v.retain(|&viz| viz < nranks);
    v
}

const HEADER: &str = "nranks,mode,viz_ranks,queue_depth,policy,mean_t_total,mean_sim_visible,\
                      mean_sim_stall,slices_dropped,stagers_degraded,blocks_by_stager";

pub fn run(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters =
            prepared.iterations[..scale.adapt_iters.min(prepared.iterations.len())].to_vec();
        let base = PipelineConfig::default().with_fixed_percent(40.0);

        let sync = prepared.run(base.clone(), &iters);
        let (sync_mean, _, _) = stats(sync.iter().map(|r| r.t_total));
        let sim_compute = sync_mean;

        println!(
            "\n== Fig 12 — staged (dedicated-core) vs synchronous in situ, {nranks} ranks, \
             {} iterations, solver compute {sim_compute:.1} s/iter ==",
            iters.len()
        );
        let first = csv.len();
        csv.push(format!(
            "{nranks},sync,0,0,none,{sync_mean:.6},{sync_mean:.6},0,0,0,-"
        ));

        for viz in viz_choices(nranks) {
            for depth in [1usize, 4] {
                for (pname, policy) in policies() {
                    let params =
                        StagedParams::new(viz, depth, policy).with_sim_compute(sim_compute);
                    let run = prepared.run_staged(base.clone().with_staged(params), &iters);
                    let e2e = run.mean_latency();
                    let visible = run.mean_sim_visible();
                    let stall = run.mean_sim_stall();
                    // One entry per stager, explicit zeros included, so
                    // the column stays aligned across rank counts and
                    // policies (a fully-shedding DropOldest stager still
                    // shows up — as a 0).
                    let per_stager = run
                        .blocks_by_stager()
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<String>>()
                        .join(";");
                    csv.push(format!(
                        "{nranks},staged,{viz},{depth},{pname},{e2e:.6},{visible:.6},\
                         {stall:.6},{},{},{per_stager}",
                        run.total_dropped(),
                        run.total_degraded()
                    ));
                }
            }
        }
        print_table(
            "mean virtual seconds per iteration (sim-visible is the headline)",
            HEADER,
            &csv[first..],
        );
    }
    let path = write_csv("fig12_staged_vs_sync.csv", HEADER, &csv);
    println!("csv: {}", path.display());
}
