//! A full block's samples are one shared buffer from the store's chunk
//! cache to the kernels. Sharing is pinned here by pointer identity, layer
//! by layer, so a copy that creeps into the warm path fails a test instead
//! of surfacing as memory and wall-clock in the benchmark.

use std::sync::Arc;

use insitu::cm1::{self, ReflectivityDataset, StoredTimeSeries};
use insitu::comm::{NetModel, Runtime};
use insitu::grid::{Block, BlockData};
use insitu::pipeline::redistribute::exchange;
use insitu::store::{CodecKind, MemStore, StoreBackend};

fn payload(block: &Block) -> &Arc<[f32]> {
    match &block.data {
        BlockData::Full(samples) => samples,
        other => panic!("expected a full block, got {other:?}"),
    }
}

/// `dataset` written sharded with fpz and reopened with a decoded-chunk
/// cache of `cache_bytes`.
fn stored(dataset: &ReflectivityDataset, iters: &[usize], cache_bytes: usize) -> StoredTimeSeries {
    let backend: Box<dyn StoreBackend> = Box::new(MemStore::new());
    cm1::write_dataset_to(dataset, iters, &backend, CodecKind::Fpz, Some(24)).unwrap();
    StoredTimeSeries::from_backend_cached(backend, cache_bytes).unwrap()
}

#[test]
fn warm_rank_blocks_are_the_cached_buffers() {
    let dataset = ReflectivityDataset::tiny(4, 31).unwrap();
    let iters = dataset.sample_iterations(2);
    let stored = stored(&dataset, &iters, 8 << 20);
    let it = iters[1];
    // The buffer a cold read decodes is the one the cache keeps, so all
    // three reads — and a direct chunk read — hand out the same samples.
    let reads: Vec<Vec<Block>> = (0..3).map(|_| stored.rank_blocks(it, 2).unwrap()).collect();
    assert_eq!(reads[0], dataset.rank_blocks(it, 2));
    for (i, cold) in reads[0].iter().enumerate() {
        let chunk = stored.store().read_chunk(it, cold.id).unwrap();
        for read in &reads {
            assert!(
                Arc::ptr_eq(payload(&read[i]), &chunk),
                "block {} was copied on its way out of the cache",
                cold.id
            );
        }
    }
    let stats = stored.cache_stats().unwrap();
    let per_rank = reads[0].len();
    assert_eq!((stats.misses, stats.hits), (per_rank, 3 * per_rank));
}

#[test]
fn clones_and_redistributed_blocks_keep_their_buffer() {
    let dataset = ReflectivityDataset::tiny(4, 31).unwrap();
    let nranks = dataset.decomp().nranks();
    let held: Vec<Vec<Block>> = (0..nranks).map(|r| dataset.rank_blocks(300, r)).collect();
    let block = &held[1][0];
    assert!(Arc::ptr_eq(payload(block), payload(&block.clone())));

    // Every block moves one rank over through the real exchange.
    let received = Runtime::new(nranks, NetModel::blue_waters()).run(|rank| {
        let mine = &held[rank.rank()];
        let dests = vec![(rank.rank() + 1) % nranks; mine.len()];
        exchange(rank, mine.clone(), &dests)
    });
    for (rank, sent) in held.iter().enumerate() {
        let got = &received[(rank + 1) % nranks];
        assert_eq!(got.len(), sent.len());
        for b in sent {
            let arrived = got.iter().find(|g| g.id == b.id).expect("block arrived");
            assert!(
                Arc::ptr_eq(payload(arrived), payload(b)),
                "block {} was copied in transit",
                b.id
            );
        }
    }
}

#[test]
fn held_blocks_outlive_eviction_and_cache_clear() {
    let dataset = ReflectivityDataset::tiny(4, 31).unwrap();
    let iters = dataset.sample_iterations(2);
    let one_chunk = dataset.decomp().block_dims().len() * std::mem::size_of::<f32>();
    let stored = stored(&dataset, &iters, one_chunk);
    let it = iters[0];

    let held = stored.block(it, 5).unwrap();
    stored.block(it, 6).unwrap(); // a one-chunk budget: evicts block 5
    assert_eq!(stored.cache_stats().unwrap().evictions, 1);
    assert_eq!(held, dataset.block(it, 5));

    let held = stored.block(it, 6).unwrap(); // warm: the cached buffer
    stored.cache_clear();
    assert_eq!(held, dataset.block(it, 6));
    let reread = stored.block(it, 6).unwrap();
    assert_eq!(reread, held);
    assert!(!Arc::ptr_eq(payload(&reread), payload(&held)));
}
