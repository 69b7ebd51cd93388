//! Rank analysis of metric outputs: the machinery behind Fig. 3's
//! metric-vs-metric scatter plots and their Spearman correlations.

/// Ranks of blocks when sorted by ascending score, ties broken by index
/// (the paper sorts equal scores by block id, §IV-C). `ranks[b]` is the
/// position block `b` takes in the sorted order.
pub fn ranks_by_score(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // total_cmp, not partial_cmp().unwrap(): a NaN score must produce a
    // deterministic rank order, never a panic mid-analysis (the same bug
    // class as the PR-2 `score_order` fix).
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let mut ranks = vec![0usize; scores.len()];
    for (rank, &block) in order.iter().enumerate() {
        ranks[block] = rank;
    }
    ranks
}

/// Spearman rank correlation between two score vectors (using the
/// tie-by-index ranks above, matching how the pipeline consumes scores).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must have equal length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ra = ranks_by_score(a);
    let rb = ranks_by_score(b);
    let nf = n as f64;
    let d2: f64 = ra
        .iter()
        .zip(&rb)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    1.0 - 6.0 * d2 / (nf * (nf * nf - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple() {
        let scores = [3.0, 1.0, 2.0];
        assert_eq!(ranks_by_score(&scores), vec![2, 0, 1]);
    }

    #[test]
    fn ranks_ties_break_by_index() {
        let scores = [1.0, 1.0, 0.5];
        assert_eq!(ranks_by_score(&scores), vec![1, 2, 0]);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_symmetric() {
        let a = [0.3, 0.9, 0.1, 0.5, 0.7];
        let b = [1.0, 0.2, 0.8, 0.4, 0.6];
        assert!((spearman(&a, &b) - spearman(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn spearman_uncorrelated_near_zero() {
        // A deterministic permutation with low correlation.
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let rho = spearman(&a, &b);
        assert!(rho.abs() < 0.3, "rho = {rho}");
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(spearman(&[], &[]), 1.0);
        assert_eq!(spearman(&[1.0], &[2.0]), 1.0);
    }

    /// Regression for the NaN-unsafe comparator class `clippy.toml` bans
    /// `partial_cmp` for (the `score_order` NaN bug): a NaN score must not
    /// panic the rank sort and must land in a deterministic position
    /// (total_cmp puts positive NaN last).
    #[test]
    fn nan_scores_rank_deterministically_without_panicking() {
        let scores = [0.5, f64::NAN, -0.5, f64::NAN, 0.0];
        let ranks = ranks_by_score(&scores);
        assert_eq!(ranks, ranks_by_score(&scores), "must be deterministic");
        // Non-NaN blocks keep their relative order below the NaNs; NaN
        // ties break by block index.
        assert_eq!(ranks, vec![2, 3, 0, 4, 1]);
    }
}
