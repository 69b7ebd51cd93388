//! Per-iteration measurements of the pipeline.

use apc_comm::Meter;

/// Timing and work measurements of one pipeline iteration, identical on all
/// ranks (each step time is the max over ranks, which is what the paper's
/// per-iteration plots show).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationReport {
    /// Simulation iteration replayed.
    pub iteration: usize,
    /// Reduction percentage used this iteration.
    pub percent_reduced: f64,
    /// Number of blocks actually reduced.
    pub blocks_reduced: usize,
    /// Scoring step time (max over ranks, virtual seconds).
    pub t_score: f64,
    /// Global sort step time.
    pub t_sort: f64,
    /// Block reduction step time.
    pub t_reduce: f64,
    /// Redistribution (communication) step time — Fig 8's quantity.
    pub t_redistribute: f64,
    /// Rendering step time — Figs 5/6/7/9's quantity.
    pub t_render: f64,
    /// Full pipeline time — Figs 10/11's quantity.
    pub t_total: f64,
    /// Total triangles over all ranks.
    pub triangles_total: usize,
    /// Triangles on the busiest rank (load imbalance diagnostic).
    pub triangles_max_rank: usize,
}

impl IterationReport {
    /// CSV header matching [`IterationReport::to_csv_row`].
    // apc-lint: allow(dead-pub): golden_reports writes the fig06-fig11 goldens' header with it
    pub fn csv_header() -> &'static str {
        "iteration,percent_reduced,blocks_reduced,t_score,t_sort,t_reduce,\
         t_redistribute,t_render,t_total,triangles_total,triangles_max_rank"
    }

    // apc-lint: allow(dead-pub): golden_reports writes the fig06-fig11 goldens' rows with it
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.4},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}",
            self.iteration,
            self.percent_reduced,
            self.blocks_reduced,
            self.t_score,
            self.t_sort,
            self.t_reduce,
            self.t_redistribute,
            self.t_render,
            self.t_total,
            self.triangles_total,
            self.triangles_max_rank
        )
    }
}

impl Meter for IterationReport {
    fn nbytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> IterationReport {
        IterationReport {
            iteration: 3,
            percent_reduced: 42.5,
            blocks_reduced: 2720,
            t_score: 0.5,
            t_sort: 0.01,
            t_reduce: 0.002,
            t_redistribute: 0.8,
            t_render: 30.0,
            t_total: 31.5,
            triangles_total: 100_000,
            triangles_max_rank: 40_000,
        }
    }

    #[test]
    fn csv_round_shape() {
        let row = fixture().to_csv_row();
        assert_eq!(
            row.split(',').count(),
            IterationReport::csv_header().split(',').count()
        );
        assert!(row.starts_with("3,42.5"));
    }
}
