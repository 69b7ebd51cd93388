//! Persist a simulated reflectivity time series into an `apc-store`
//! chunked dataset, and reopen it for replay.
//!
//! Chunks align with the block decomposition, each chunk is independently
//! compressed through an `apc-compress` `FloatCodec` (selected by
//! [`CodecKind`]), and a reopened dataset replays through the pipeline
//! **byte-identically** to in-memory generation when the codec is lossless
//! (the workspace `store_roundtrip` integration test pins this).
//!
//! The producing side is [`write_dataset`] (disk) /
//! [`write_dataset_to`] (any backend — tests use `MemStore`), which take
//! the chunk layout as an `Option<usize>` and hand it to `apc-store`
//! (`LayoutWriter` on the way in, `ChunkedDataset::open_auto` on the way
//! back): nothing here decides how a layout is written or read. The
//! consuming side is [`open_dataset`], which yields a
//! [`StoredTimeSeries`]: stored blocks plus the deterministic geometry
//! (decomposition and stretched coordinate axes) rebuilt from the
//! metadata, which is everything `apc-core`'s `Prepared::from_store`
//! needs to drive a rank session with lazy per-chunk reads.

use std::path::Path;

use apc_grid::{Block, BlockData, BlockId, DomainDecomp, RectilinearCoords};
use apc_store::{
    CacheStats, ChunkedDataset, CodecKind, DatasetMeta, DirStore, DynChunkedDataset, LayoutWriter,
    StoreBackend, StoreError,
};

use crate::dataset::ReflectivityDataset;
use crate::storm::StormModel;

/// Write `iterations` of `dataset` into `backend` as a chunked dataset,
/// one chunk per block, compressed with `codec`, laid out as
/// `shard_chunks` says (`None`: one key per chunk; `Some(n)`: `n` chunks
/// per shard container). The layout is recorded in the metadata, so
/// [`open_dataset`] readers need no flag to read it back. Blocks are
/// generated one at a time, so peak memory stays at one block regardless
/// of domain size.
pub fn write_dataset_to<B: StoreBackend>(
    dataset: &ReflectivityDataset,
    iterations: &[usize],
    backend: B,
    codec: CodecKind,
    shard_chunks: Option<usize>,
) -> Result<ChunkedDataset<LayoutWriter<B>>, StoreError> {
    let decomp = dataset.decomp();
    let mut iters: Vec<usize> = iterations.to_vec();
    iters.sort_unstable();
    iters.dedup();
    let meta = DatasetMeta {
        domain: decomp.domain(),
        chunk: decomp.block_dims(),
        procs: decomp.procs(),
        codec,
        seed: dataset.storm().seed,
        iterations: iters,
        shard_chunks,
    };
    let store = ChunkedDataset::create(LayoutWriter::new(backend, shard_chunks), meta)?;
    for &it in store.iterations() {
        for id in decomp.all_blocks() {
            let block = dataset.block(it, id);
            let BlockData::Full(samples) = &block.data else {
                unreachable!("dataset blocks are always full")
            };
            store.write_chunk(it, id, samples)?;
        }
    }
    // Seal the partial tail shard of each iteration now, so readers never
    // depend on the writer staying alive.
    store.backend().flush()?;
    Ok(store)
}

/// [`write_dataset_to`] targeting a directory on disk (created if
/// missing). The directory then holds `meta.json` plus one file per
/// chunk or per shard container — point `APC_DATASET` at it to run
/// experiments from the store.
pub fn write_dataset(
    dataset: &ReflectivityDataset,
    iterations: &[usize],
    dir: &Path,
    codec: CodecKind,
    shard_chunks: Option<usize>,
) -> Result<ChunkedDataset<LayoutWriter<DirStore>>, StoreError> {
    write_dataset_to(
        dataset,
        iterations,
        DirStore::create(dir)?,
        codec,
        shard_chunks,
    )
}

/// Reopen a stored dataset directory written by [`write_dataset`].
pub fn open_dataset(dir: &Path) -> Result<StoredTimeSeries, StoreError> {
    StoredTimeSeries::from_backend(Box::new(DirStore::open(dir)?))
}

/// A reopened stored time series: chunked block data plus the
/// deterministic geometry rebuilt from the metadata.
///
/// Block *data* always comes from the store — the rebuilt
/// [`ReflectivityDataset`] only supplies the decomposition and the
/// CM1-stretched coordinate axes (both fully determined by the stored
/// domain geometry), so a consumer never regenerates the simulation.
pub struct StoredTimeSeries {
    store: DynChunkedDataset,
    geometry: ReflectivityDataset,
}

impl StoredTimeSeries {
    /// Open over any (type-erased) backend; `MemStore`-backed tests and
    /// `DirStore`-backed experiments share this path. The chunk layout
    /// recorded in the metadata is honored transparently: sharded
    /// datasets read back through shard byte ranges, plain ones as-is.
    pub fn from_backend(backend: Box<dyn StoreBackend>) -> Result<Self, StoreError> {
        Self::open(backend, None)
    }

    /// [`StoredTimeSeries::from_backend`] with the dataset's
    /// decoded-chunk cache (`apc_store::ChunkedDataset::open_auto`):
    /// `cache_bytes` is the budget in **decoded** bytes, and a repeat read
    /// of a chunk it holds returns the cached buffer itself — no backend
    /// read, no decode, no copy. Replay results are byte-identical to the
    /// uncached open; only speed and [`StoredTimeSeries::cache_stats`]
    /// change.
    pub fn from_backend_cached(
        backend: Box<dyn StoreBackend>,
        cache_bytes: usize,
    ) -> Result<Self, StoreError> {
        Self::open(backend, Some(cache_bytes))
    }

    fn open(
        backend: Box<dyn StoreBackend>,
        cache_bytes: Option<usize>,
    ) -> Result<Self, StoreError> {
        let store = ChunkedDataset::open_auto(backend, cache_bytes)?;
        let geometry =
            ReflectivityDataset::new(*store.decomp(), StormModel::new(store.meta().seed));
        Ok(Self { store, geometry })
    }

    /// Chunk-cache counters, when this series was opened through
    /// [`StoredTimeSeries::from_backend_cached`].
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.store.cache_stats()
    }

    /// Drop every cached chunk (counters keep counting); no-op without a
    /// cache. Lets benchmarks measure cold reads from a warm process.
    pub fn cache_clear(&self) {
        self.store.cache_clear();
    }

    /// The geometry twin of the stored dataset (decomposition +
    /// coordinates; its field generators are *not* what replay uses).
    pub fn geometry(&self) -> &ReflectivityDataset {
        &self.geometry
    }

    pub fn decomp(&self) -> &DomainDecomp {
        self.store.decomp()
    }

    pub fn coords(&self) -> &RectilinearCoords {
        self.geometry.coords()
    }

    /// Stored iterations, strictly increasing.
    pub fn iterations(&self) -> &[usize] {
        self.store.iterations()
    }

    /// Storm seed recorded at write time (provenance).
    pub fn seed(&self) -> u64 {
        self.store.meta().seed
    }

    pub fn codec(&self) -> CodecKind {
        self.store.meta().codec
    }

    /// The underlying chunked dataset.
    pub fn store(&self) -> &DynChunkedDataset {
        &self.store
    }

    /// One block, read and decompressed from the store (or, warm, the
    /// cached buffer).
    pub fn block(&self, iteration: usize, id: BlockId) -> Result<Block, StoreError> {
        self.store.read_block(iteration, id)
    }

    /// All blocks of `rank` at `iteration` — the lazy per-rank read the
    /// pipeline drives from inside its rank threads.
    pub fn rank_blocks(&self, iteration: usize, rank: usize) -> Result<Vec<Block>, StoreError> {
        self.store.read_rank_blocks(iteration, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_store::MemStore;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("apc_cm1_store_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_roundtrip_matches_generated_blocks() {
        let dataset = ReflectivityDataset::tiny(4, 99).unwrap();
        let dir = tmp_dir("roundtrip");
        let iters = [300, 100, 100]; // unsorted + duplicate on purpose
        write_dataset(&dataset, &iters, &dir, CodecKind::Fpz, None).unwrap();

        let stored = open_dataset(&dir).unwrap();
        assert_eq!(stored.iterations(), &[100, 300]);
        assert_eq!(stored.seed(), 99);
        assert_eq!(stored.decomp(), dataset.decomp());
        assert_eq!(stored.coords(), dataset.coords());
        for &it in &[100usize, 300] {
            for rank in 0..4 {
                assert_eq!(
                    stored.rank_blocks(it, rank).unwrap(),
                    dataset.rank_blocks(it, rank),
                    "iter {it} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn mem_roundtrip_per_lossless_codec() {
        let dataset = ReflectivityDataset::tiny(1, 7).unwrap();
        for codec in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
            let store = write_dataset_to(&dataset, &[200], MemStore::new(), codec, None).unwrap();
            for id in [0u32, 63, 127] {
                assert_eq!(
                    store.read_block(200, id).unwrap(),
                    dataset.block(200, id),
                    "{} block {id}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn lossless_codecs_shrink_the_tiny_dataset() {
        let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
        let measure = |codec: CodecKind| {
            let mem = MemStore::new();
            write_dataset_to(&dataset, &[250], &mem, codec, None).unwrap();
            mem.nbytes()
        };
        let raw_bytes = measure(CodecKind::Raw);
        let fpz_bytes = measure(CodecKind::Fpz);
        assert!(
            fpz_bytes < raw_bytes,
            "fpz should beat raw on storm data: {fpz_bytes} vs {raw_bytes}"
        );
    }

    #[test]
    fn zfpx_store_is_close_but_smaller() {
        let dataset = ReflectivityDataset::tiny(1, 7).unwrap();
        let tol = 0.05f32;
        let store = write_dataset_to(
            &dataset,
            &[200],
            MemStore::new(),
            CodecKind::Zfpx { tolerance: tol },
            None,
        )
        .unwrap();
        let exact = dataset.block(200, 40);
        let lossy = store.read_block(200, 40).unwrap();
        let (BlockData::Full(a), BlockData::Full(b)) = (&exact.data, &lossy.data) else {
            panic!("full blocks expected")
        };
        let max_err = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        // Reflectivity spans ~[-60, 80]; the lifting can amplify the cut
        // by a small factor, so allow the conservative 8x envelope.
        assert!(
            max_err <= 8.0 * tol * 80.0f32.log2().ceil(),
            "err {max_err}"
        );
        assert!(
            max_err > 0.0,
            "zfpx at tol {tol} should not be bit-exact here"
        );
    }

    #[test]
    fn cached_open_replays_identically_and_warm_sweeps_do_not_miss() {
        let dataset = ReflectivityDataset::tiny(4, 55).unwrap();
        let dir = tmp_dir("cached-roundtrip");
        write_dataset(&dataset, &[100, 200, 300], &dir, CodecKind::Fpz, Some(48)).unwrap();

        let plain = open_dataset(&dir).unwrap();
        assert!(plain.cache_stats().is_none());
        let backend = Box::new(DirStore::open(&dir).unwrap());
        let cached = StoredTimeSeries::from_backend_cached(backend, 8 << 20).unwrap();

        // Sequential replay, every rank: bytes identical to the uncached
        // open, every chunk a miss the first time it is asked for.
        for &it in &[100usize, 200, 300] {
            for rank in 0..4 {
                assert_eq!(
                    cached.rank_blocks(it, rank).unwrap(),
                    plain.rank_blocks(it, rank).unwrap(),
                    "iter {it} rank {rank}"
                );
            }
        }
        let first = cached.cache_stats().unwrap();
        assert_eq!((first.hits, first.misses), (0, 3 * 128));

        // A second sweep is answered from memory: no new misses.
        for &it in &[100usize, 200, 300] {
            for rank in 0..4 {
                cached.rank_blocks(it, rank).unwrap();
            }
        }
        let second = cached.cache_stats().unwrap();
        assert_eq!(second.misses, first.misses, "warm sweep must not miss");
        assert_eq!(second.hits, 3 * 128);

        // cache_clear drops contents, so the next sweep misses again.
        cached.cache_clear();
        cached.rank_blocks(100, 0).unwrap();
        assert!(cached.cache_stats().unwrap().misses > second.misses);
    }

    #[test]
    fn open_missing_dir_is_error() {
        assert!(open_dataset(&tmp_dir("never-written")).is_err());
    }

    #[test]
    fn sharded_disk_roundtrip_matches_generated_blocks() {
        let dataset = ReflectivityDataset::tiny(4, 55).unwrap();
        let dir = tmp_dir("sharded-roundtrip");
        // 128 blocks per iteration, 48 per shard → 2 full + 1 tail shard.
        write_dataset(&dataset, &[100, 300], &dir, CodecKind::Fpz, Some(48)).unwrap();
        // The chunk directory holds shard containers, not per-chunk files.
        assert!(dir.join("c/000100/s000000").is_file());
        assert!(!dir.join("c/000100/000000").is_file());

        // open_dataset sees the recorded layout and reads through it.
        let stored = open_dataset(&dir).unwrap();
        assert_eq!(stored.store().meta().shard_chunks, Some(48));
        assert_eq!(stored.iterations(), &[100, 300]);
        for &it in &[100usize, 300] {
            for rank in 0..4 {
                assert_eq!(
                    stored.rank_blocks(it, rank).unwrap(),
                    dataset.rank_blocks(it, rank),
                    "iter {it} rank {rank}"
                );
            }
        }
    }
}
