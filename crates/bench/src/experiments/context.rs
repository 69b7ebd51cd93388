//! Shared experiment context: one prepared dataset per rank count.

use apc_cm1::ReflectivityDataset;
use apc_comm::NetModel;

use crate::harness::{Prepared, Scale};

/// Prepared inputs for every rank count in the scale. Building this once
/// and sharing it across experiments amortizes the synthetic-CM1 data
/// generation the same way the paper amortizes its 3-day CM1 run by
/// replaying a stored dataset. Each [`Prepared`] also owns a persistent
/// rank session, so every figure's configuration sweep reuses one set of
/// rank threads (64 and 400 of them here) for the whole suite instead of
/// re-spawning them per configuration.
///
/// With `APC_DATASET` bound (see [`Scale::from_env`]) nothing is
/// generated at all: the single prepared input replays the stored
/// `apc-store` dataset, each rank lazily reading its own chunks.
pub struct Ctx {
    pub prepared: Vec<Prepared>,
}

impl Ctx {
    pub fn new(scale: &Scale) -> Self {
        let net = NetModel::blue_waters().for_paper_scale();
        let prepared = scale
            .rank_counts
            .iter()
            .map(|&nranks| {
                prepare(scale, nranks, net, |d| {
                    d.sample_iterations(scale.adapt_iters)
                })
            })
            .collect();
        Self { prepared }
    }

    /// The prepared input for a given rank count.
    pub fn at(&self, nranks: usize) -> &Prepared {
        self.prepared
            .iter()
            .find(|p| p.dataset.decomp().nranks() == nranks)
            .unwrap_or_else(|| panic!("no prepared dataset for {nranks} ranks"))
    }
}

/// One prepared input at `nranks`, its session on `net`: the iterations
/// `pick` chooses of the paper-scaled dataset, generated up front — or,
/// with `APC_DATASET` bound, the stored dataset reopened (a cheap metadata
/// read `Scale::from_env` already validated), whatever `pick` says.
pub(crate) fn prepare(
    scale: &Scale,
    nranks: usize,
    net: NetModel,
    pick: impl FnOnce(&ReflectivityDataset) -> Vec<usize>,
) -> Prepared {
    if let Some(dir) = &scale.dataset {
        let stored = apc_cm1::open_dataset(dir)
            .unwrap_or_else(|e| panic!("APC_DATASET={}: {e}", dir.display()));
        return Prepared::from_store(stored, scale.exec, net);
    }
    let dataset =
        ReflectivityDataset::paper_scaled(nranks, scale.seed).expect("paper-scaled decomposition");
    let iters = pick(&dataset);
    eprintln!(
        "[prep] generating {} iterations at {} ranks ...",
        iters.len(),
        nranks
    );
    Prepared::from_dataset(dataset, iters, scale.exec, net)
}
