//! The calibrated virtual render-time model.
//!
//! Real work counts in, Blue Waters-scale seconds out. Rendering time on a
//! rank is modeled as
//!
//! ```text
//! t = base + n_blocks·PER_BLOCK + cells·PER_CELL + triangles·PER_TRIANGLE
//! ```
//!
//! multiplied by a seeded log-normal jitter that reproduces "the inherent
//! variability of the visualization task" the paper keeps pointing at
//! (§V-D, §V-F). The constants are calibrated (EXPERIMENTS.md) so that on
//! the default 1:5-scale dataset:
//!
//! * all blocks reduced → ≈1 s (paper: 1 s at both scales — a fixed
//!   pipeline overhead);
//! * nothing reduced, no redistribution → ≈160 s on 64 ranks and ≈50 s on
//!   400 ranks (paper Fig 5/6).
//!
//! Because the scaled domain has 25× fewer surface triangles than the
//! paper's full-size grid, the per-triangle constant absorbs that factor;
//! what the model preserves is the *structure*: cost proportional to real,
//! content-dependent triangle counts, so load imbalance, crossovers and
//! speedup ratios emerge from the data rather than from tuning.

use crate::isosurface::IsoStats;

// The calibration, with the default `base` of 0.55 s, against the
// 1:5-scale dataset (see the probe run in EXPERIMENTS.md): NONE ≈ 125–170 s
// on 64 ranks, ≈ 42–52 s on 400 ranks, all-reduced ≈ 1–1.8 s.

/// Per-block dataset handling overhead.
const PER_BLOCK: f64 = 5.0e-4;
/// Marching cost per visited cell.
const PER_CELL: f64 = 2.0e-7;
/// Triangle generation + rasterization cost per emitted triangle.
const PER_TRIANGLE: f64 = 4.2e-3;
/// Jitter stream seed.
const JITTER_SEED: u64 = 0x5EED_CA57;

/// Virtual rendering cost model (per rank, per iteration).
#[derive(Debug, Clone, Copy)]
pub struct RenderCostModel {
    /// Fixed per-iteration pipeline overhead (seconds).
    pub base: f64,
    /// Log-normal jitter sigma (0 disables jitter).
    pub jitter_sigma: f64,
}

impl Default for RenderCostModel {
    fn default() -> Self {
        Self {
            base: 0.55,
            jitter_sigma: 0.06,
        }
    }
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic standard-normal draw for a jitter key (Box–Muller over
/// two hash-derived uniforms).
fn std_normal(key: u64) -> f64 {
    let u1 = (mix64(key ^ JITTER_SEED) >> 11) as f64 / (1u64 << 53) as f64;
    let u2 = (mix64(key.wrapping_mul(0xA24B_AED4_963E_E407) ^ JITTER_SEED) >> 11) as f64
        / (1u64 << 53) as f64;
    let u1 = u1.max(1e-12);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl RenderCostModel {
    /// A noiseless copy (unit tests, deterministic calibration runs).
    pub fn deterministic(mut self) -> Self {
        self.jitter_sigma = 0.0;
        self
    }

    /// Jitter key for a `(rank, iteration)` pair.
    pub fn key(rank: usize, iteration: usize) -> u64 {
        (rank as u64) << 32 ^ iteration as u64
    }

    /// Modeled rendering time for the given work on one rank.
    pub fn render_time(&self, stats: IsoStats, n_blocks: usize, jitter_key: u64) -> f64 {
        let raw = self.base
            + n_blocks as f64 * PER_BLOCK
            + stats.cells as f64 * PER_CELL
            + stats.triangles as f64 * PER_TRIANGLE;
        if self.jitter_sigma == 0.0 {
            raw
        } else {
            raw * (self.jitter_sigma * std_normal(jitter_key)).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cells: usize, triangles: usize) -> IsoStats {
        IsoStats { cells, triangles }
    }

    #[test]
    fn reduced_everything_is_about_a_second() {
        let m = RenderCostModel::default().deterministic();
        // 100 reduced blocks on a 64-rank layout: 100 cells, few triangles.
        let t = m.render_time(stats(100, 40), 100, 0);
        assert!((0.6..1.5).contains(&t), "all-reduced time {t}");
    }

    #[test]
    fn monotone_in_work() {
        let m = RenderCostModel::default().deterministic();
        let t0 = m.render_time(stats(1000, 0), 10, 0);
        let t1 = m.render_time(stats(1000, 5000), 10, 0);
        let t2 = m.render_time(stats(100_000, 5000), 10, 0);
        assert!(t0 < t1 && t1 < t2);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = RenderCostModel::default();
        let a = m.render_time(stats(10_000, 2_000), 10, RenderCostModel::key(3, 7));
        let b = m.render_time(stats(10_000, 2_000), 10, RenderCostModel::key(3, 7));
        assert_eq!(a, b);
        let c = m.render_time(stats(10_000, 2_000), 10, RenderCostModel::key(3, 8));
        assert_ne!(a, c, "different iterations must jitter differently");
        // With sigma 0.06, 5 sigma is ±35%; all draws stay within that.
        let det = m.deterministic().render_time(stats(10_000, 2_000), 10, 0);
        for it in 0..200 {
            let t = m.render_time(stats(10_000, 2_000), 10, RenderCostModel::key(0, it));
            assert!(
                (t / det - 1.0).abs() < 0.35,
                "jitter too wild: {t} vs {det}"
            );
        }
    }

    #[test]
    fn jitter_mean_is_near_one() {
        let m = RenderCostModel::default();
        let det = m.deterministic().render_time(stats(10_000, 2_000), 10, 0);
        let mean: f64 = (0..500)
            .map(|it| m.render_time(stats(10_000, 2_000), 10, RenderCostModel::key(1, it)))
            .sum::<f64>()
            / 500.0;
        assert!((mean / det - 1.0).abs() < 0.02, "mean ratio {}", mean / det);
    }

    #[test]
    fn triangles_dominate_at_storm_scale() {
        // A storm rank (tens of thousands of triangles) must cost far more
        // than an empty rank scanning the same cells.
        let m = RenderCostModel::default().deterministic();
        let empty = m.render_time(stats(225_000, 0), 100, 0);
        let storm = m.render_time(stats(225_000, 50_000), 100, 0);
        assert!(storm > 20.0 * empty, "storm {storm} vs empty {empty}");
    }
}
