//! Scored blocks, the global sort contract, and reduction-set selection
//! (paper §IV-C).

use std::cmp::Ordering;

use apc_comm::Meter;
use apc_grid::BlockId;

/// A `<block id, score>` pair as moved through the global sort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredBlock {
    pub id: BlockId,
    pub score: f64,
}

impl Meter for ScoredBlock {
    fn nbytes(&self) -> usize {
        std::mem::size_of::<BlockId>() + std::mem::size_of::<f64>()
    }
}

/// The paper's total order: increasing score, ties broken by id.
///
/// Uses [`f64::total_cmp`], so it is a total order even if a metric emits
/// a NaN on degenerate input (constant blocks, empty ranges): instead of
/// panicking mid-sort inside a collective — which would take down the
/// whole run — NaNs sort deterministically by their IEEE bit pattern
/// (positive NaN above all finite scores, negative NaN below; every rank
/// agrees, which is what the replicated selection needs). All registered
/// metrics return finite scores on constant blocks — guarded by
/// `apc_metrics`' `every_metric_is_finite_on_constant_blocks` test — so
/// this is defense in depth for user-supplied scorers.
pub fn score_order(a: &ScoredBlock, b: &ScoredBlock) -> Ordering {
    a.score.total_cmp(&b.score).then(a.id.cmp(&b.id))
}

/// Number of blocks reduced at percentage `p` of `n` blocks.
pub fn reduction_count(n: usize, percent: f64) -> usize {
    debug_assert!((0.0..=100.0).contains(&percent));
    ((n as f64 * percent / 100.0).floor() as usize).min(n)
}

/// The reduction rule as one comparison per block: `block` is among the
/// `percent%` lowest-scored of the globally sorted (ascending) list when it
/// orders before the cut `sorted[reduction_count(n, percent)]`, or when the
/// cut is past the end (every block is reduced). `block` is an entry of
/// `sorted` — a rank's own scored block — so each rank decides for the
/// blocks it holds without a table over the whole list (paper §IV-C).
pub(crate) fn reduction_cut(
    sorted: &[ScoredBlock],
    percent: f64,
) -> impl Fn(&ScoredBlock) -> bool + '_ {
    let cut = sorted.get(reduction_count(sorted.len(), percent));
    move |block| cut.is_none_or(|cut| score_order(block, cut) == Ordering::Less)
}

/// The table [`reduction_cut`] replaced, kept as its oracle: which blocks
/// are among the `percent%` lowest-scored of a globally sorted list,
/// indexed by block id — `mask[id]` is set for a reduced block, and ids
/// past the end are kept.
#[cfg(test)]
pub(crate) fn reduction_mask(sorted: &[ScoredBlock], percent: f64) -> Vec<bool> {
    let head = &sorted[..reduction_count(sorted.len(), percent)];
    let len = head.iter().map(|s| s.id as usize + 1).max().unwrap_or(0);
    let mut mask = vec![false; len];
    for s in head {
        mask[s.id as usize] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_fixture() -> Vec<ScoredBlock> {
        let mut v: Vec<ScoredBlock> = (0..10)
            .map(|i| ScoredBlock {
                id: i,
                score: (10 - i) as f64,
            })
            .collect();
        v.sort_by(score_order);
        v
    }

    #[test]
    fn order_is_ascending_with_id_ties() {
        let mut v = [
            ScoredBlock { id: 5, score: 1.0 },
            ScoredBlock { id: 2, score: 1.0 },
            ScoredBlock { id: 9, score: 0.5 },
        ];
        v.sort_by(score_order);
        assert_eq!(v.iter().map(|s| s.id).collect::<Vec<_>>(), vec![9, 2, 5]);
    }

    #[test]
    fn reduction_count_boundaries() {
        assert_eq!(reduction_count(100, 0.0), 0);
        assert_eq!(reduction_count(100, 100.0), 100);
        assert_eq!(reduction_count(100, 50.0), 50);
        assert_eq!(reduction_count(100, 99.9), 99); // floor
        assert_eq!(reduction_count(0, 50.0), 0);
        assert_eq!(reduction_count(3, 50.0), 1);
    }

    fn reduced_ids(sorted: &[ScoredBlock], percent: f64) -> Vec<usize> {
        let mask = reduction_mask(sorted, percent);
        (0..mask.len()).filter(|&id| mask[id]).collect()
    }

    #[test]
    fn reduction_mask_takes_the_lowest_scores() {
        // Lowest scores are blocks 9, 8, 7 (score 1, 2, 3).
        assert_eq!(reduced_ids(&sorted_fixture(), 30.0), vec![7, 8, 9]);
    }

    #[test]
    fn zero_and_full_percent() {
        let sorted = sorted_fixture();
        assert!(reduction_mask(&sorted, 0.0).is_empty());
        assert_eq!(reduced_ids(&sorted, 100.0), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nan_scores_sort_deterministically_instead_of_panicking() {
        // A NaN mid-list used to panic inside the global sort collective;
        // total_cmp gives the IEEE total order: negative NaN below every
        // finite score, positive NaN above, ties by id.
        let mut v = [
            ScoredBlock {
                id: 1,
                score: f64::NAN,
            },
            ScoredBlock { id: 3, score: 2.0 },
            ScoredBlock {
                id: 0,
                score: f64::NAN,
            },
            ScoredBlock {
                id: 4,
                score: -f64::NAN,
            },
            ScoredBlock { id: 2, score: -1.0 },
        ];
        v.sort_by(score_order);
        assert_eq!(
            v.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![4, 2, 3, 0, 1]
        );
        // Selection still works on the NaN-bracketed list.
        assert_eq!(reduced_ids(&v, 40.0), vec![2, 4]);
    }

    #[test]
    fn meter_counts_id_and_score() {
        assert_eq!(ScoredBlock { id: 0, score: 0.0 }.nbytes(), 12);
    }
}
