//! The chunked dataset: a time series of 3D arrays over a backend, and
//! the cache of the chunks it has decoded.
//!
//! # The decoded-chunk cache
//!
//! A dataset opened with a byte budget ([`ChunkedDataset::open_auto`]
//! with `Some(cache_bytes)`) keeps decoded chunks in one
//! [`ChunkCache`] keyed by `(iteration, block id)`, charged at their
//! decoded size (`chunk.len() × 4` bytes). The payload is the shared
//! `Arc<[f32]>` that [`ChunkedDataset::read_chunk`] returns and
//! [`BlockData::Full`] holds, so a warm read is a lock, a lookup and a
//! refcount: the block a rank gets *is* the cached buffer, and it stays
//! valid after the entry is evicted or the cache cleared. The encoded
//! bytes are not kept as well — a second cached form of the same chunk
//! would only add memory. A miss reads and decodes outside the lock, so
//! rank threads decode concurrently.
//!
//! A rank's read ([`ChunkedDataset::read_rank_blocks`]) is one cache
//! transaction: every key of the rank looked up under one lock, the
//! misses read and decoded outside it, and inserted under one more. With
//! 64 rank threads on a few cores the mutex is contended, so a rank takes
//! it twice per read rather than once per chunk.
//!
//! **Transparency.** A cached open returns exactly the samples an
//! uncached one does (the workspace `properties` suite pins the reports
//! at budgets that bypass, evict and hold everything); only wall-clock
//! and the [`CacheStats`] change. A chunk rewritten through the same
//! dataset drops its entry; writes that reach the backend some other way
//! are outside the contract. Under concurrency the *stats* (and eviction
//! victims, when the budget is tight) can depend on thread timing, so
//! they are diagnostics, not replay state. A rank read's counters are
//! diagnostics in the same way: its lookups all come before its inserts,
//! so under a budget that evicts it can hit a chunk that chunk-by-chunk
//! reads would have evicted first. The samples are the same either way.

use std::sync::{Arc, Mutex, MutexGuard};

use apc_grid::{Block, BlockData, BlockId, DomainDecomp};

use crate::backend::StoreBackend;
use crate::cache::{CacheStats, ChunkCache};
use crate::fields;
use crate::layout;
use crate::meta::{DatasetMeta, META_KEY};
use crate::StoreError;

/// Decoded chunks by `(iteration, block id)`.
type DecodedCache = ChunkCache<(usize, BlockId), Arc<[f32]>>;

/// A stored time series of chunked 3D `f32` arrays.
///
/// Chunks coincide with the blocks of the dataset's
/// [`DomainDecomp`], so the pipeline's unit of scoring/reduction and the
/// store's unit of I/O are the same thing: a rank session reads exactly
/// `blocks_per_rank` chunks per iteration, each one seek-free and
/// independently compressed.
///
/// Reads take `&self` and backends are `Sync`, so the rank threads of a
/// session pull their chunks concurrently.
pub struct ChunkedDataset<B> {
    backend: B,
    meta: DatasetMeta,
    decomp: DomainDecomp,
    /// Present when opened with a cache budget (see the module docs).
    cache: Option<Mutex<DecodedCache>>,
}

/// A dataset over a type-erased backend — what crosses crate boundaries
/// (e.g. `apc-core`'s `Prepared::from_store` accepts disk- and
/// memory-backed datasets alike through this alias).
pub type DynChunkedDataset = ChunkedDataset<Arc<dyn StoreBackend>>;

/// Lock the cache. A poisoned lock means a panic unwound mid-update
/// (only possible through a library bug); the entries could be torn,
/// but dropping them restores every invariant — a cache is always
/// allowed to forget.
fn lock(cache: &Mutex<DecodedCache>) -> MutexGuard<'_, DecodedCache> {
    cache.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        guard.clear();
        guard
    })
}

impl<B: StoreBackend> ChunkedDataset<B> {
    /// Create a new dataset: validates the geometry and the iterations
    /// and writes the metadata document. Chunks are written afterwards
    /// with [`ChunkedDataset::write_chunk`].
    pub fn create(backend: B, meta: DatasetMeta) -> Result<Self, StoreError> {
        let decomp = meta.decomp()?;
        fields::check_iterations(&meta.iterations)?;
        backend.put(META_KEY, meta.to_json().as_bytes())?;
        Ok(Self {
            backend,
            meta,
            decomp,
            cache: None,
        })
    }

    /// Open an existing dataset by reading its metadata document.
    pub fn open(backend: B) -> Result<Self, StoreError> {
        let bytes = backend.get(META_KEY).map_err(|e| match e {
            StoreError::NotFound(_) => {
                StoreError::BadMeta("no meta.json — not an apc-store dataset".to_owned())
            }
            other => other,
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|_| StoreError::BadMeta("meta.json is not utf-8".to_owned()))?;
        let meta = DatasetMeta::from_json(&text)?;
        let decomp = meta.decomp()?;
        Ok(Self {
            backend,
            meta,
            decomp,
            cache: None,
        })
    }

    /// Open honoring the chunk layout recorded in the metadata, through
    /// the one read stack of [`layout::reader`]: callers that don't know
    /// (or care) how a dataset was written use this instead of
    /// [`ChunkedDataset::open`]. `cache_bytes` is the byte budget of the
    /// decoded-chunk cache (see the module docs) — **decoded** bytes,
    /// `chunk.len() × 4` per chunk held: `None` opens without a cache,
    /// `Some(0)` with one that holds nothing.
    pub fn open_auto(
        backend: B,
        cache_bytes: Option<usize>,
    ) -> Result<DynChunkedDataset, StoreError>
    where
        B: 'static,
    {
        // meta.json passes through a ShardedStore untouched, so probing
        // the layout through the raw backend is always correct.
        let meta = ChunkedDataset::open(&backend)?.meta;
        let layered = layout::reader(Arc::new(backend), meta.shard_chunks);
        let mut dataset = ChunkedDataset::open(layered)?;
        dataset.cache = cache_bytes.map(|bytes| Mutex::new(ChunkCache::new(bytes)));
        Ok(dataset)
    }

    /// The decoded-chunk cache's counters, when opened with a budget.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| lock(c).stats())
    }

    /// Drop every cached chunk (counters keep counting); no-op without a
    /// cache. Buffers already handed out stay valid.
    pub fn cache_clear(&self) {
        if let Some(c) = &self.cache {
            lock(c).clear();
        }
    }

    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    pub fn decomp(&self) -> &DomainDecomp {
        &self.decomp
    }

    /// Stored iterations, strictly increasing.
    pub fn iterations(&self) -> &[usize] {
        &self.meta.iterations
    }

    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Store key of one chunk.
    pub fn chunk_key(iteration: usize, id: BlockId) -> String {
        format!("c/{iteration:06}/{id:06}")
    }

    fn check_iteration(&self, iteration: usize) -> Result<(), StoreError> {
        if self.meta.iterations.binary_search(&iteration).is_err() {
            return Err(StoreError::NotFound(format!(
                "iteration {iteration} is not in the stored set"
            )));
        }
        Ok(())
    }

    /// Compress and store one chunk (`samples` in x-fastest block layout).
    pub fn write_chunk(
        &self,
        iteration: usize,
        id: BlockId,
        samples: &[f32],
    ) -> Result<(), StoreError> {
        self.check_iteration(iteration)?;
        let dims = self.meta.chunk;
        if samples.len() != dims.len() {
            return Err(StoreError::ChunkShape {
                expected: dims.len(),
                got: samples.len(),
            });
        }
        let bytes = self.meta.codec.encode_chunk(samples, dims);
        self.backend.put(&Self::chunk_key(iteration, id), &bytes)?;
        if let Some(cache) = &self.cache {
            // The chunk was just redefined; what a lossy codec will decode
            // it to is not `samples`, so forget rather than refresh.
            lock(cache).remove(&(iteration, id));
        }
        Ok(())
    }

    /// One chunk's decoded samples, shared: from the cache when this
    /// dataset has one and holds the chunk, otherwise read, decompressed
    /// and (with a cache) kept for the next reader.
    pub fn read_chunk(&self, iteration: usize, id: BlockId) -> Result<Arc<[f32]>, StoreError> {
        // One id in, one chunk out: `read_chunks` returns a chunk per id.
        self.read_chunks(iteration, &[id])?
            .pop()
            .ok_or_else(|| StoreError::NotFound(Self::chunk_key(iteration, id)))
    }

    /// The decoded samples of `ids`, in order, in one cache transaction:
    /// the iteration is checked once, every key is looked up under one
    /// lock, the misses are read and decoded outside it, and they are
    /// inserted under one more.
    fn read_chunks(
        &self,
        iteration: usize,
        ids: &[BlockId],
    ) -> Result<Vec<Arc<[f32]>>, StoreError> {
        self.check_iteration(iteration)?;
        let hits: Vec<Option<Arc<[f32]>>> = match &self.cache {
            Some(cache) => {
                let mut cache = lock(cache);
                ids.iter()
                    .map(|&id| cache.get(&(iteration, id)).cloned())
                    .collect()
            }
            None => vec![None; ids.len()],
        };
        let mut fetched = Vec::new();
        let mut chunks = Vec::with_capacity(ids.len());
        for (&id, hit) in ids.iter().zip(hits) {
            chunks.push(match hit {
                Some(samples) => samples,
                None => {
                    let samples = self.fetch_chunk(iteration, id)?;
                    fetched.push((id, Arc::clone(&samples)));
                    samples
                }
            });
        }
        if let Some(cache) = self.cache.as_ref().filter(|_| !fetched.is_empty()) {
            let mut cache = lock(cache);
            for (id, samples) in fetched {
                cache.put((iteration, id), samples);
            }
        }
        Ok(chunks)
    }

    /// Read and decode one chunk from the backend, bypassing the cache.
    fn fetch_chunk(&self, iteration: usize, id: BlockId) -> Result<Arc<[f32]>, StoreError> {
        let bytes = self.backend.get(&Self::chunk_key(iteration, id))?;
        Ok(self
            .meta
            .codec
            .decode_chunk(&bytes, self.meta.chunk)?
            .into())
    }

    /// Chunk `id`'s decoded samples as a pipeline [`Block`]: the full
    /// payload is the buffer itself, not a copy, and the global extent
    /// comes from the decomposition.
    fn full_block(&self, id: BlockId, samples: Arc<[f32]>) -> Block {
        Block {
            id,
            extent: self.decomp.block_extent(id),
            data: BlockData::Full(samples),
        }
    }

    /// Read one chunk as a pipeline [`Block`] (full payload — the buffer
    /// [`ChunkedDataset::read_chunk`] returned, not a copy — and global
    /// extent from the decomposition).
    pub fn read_block(&self, iteration: usize, id: BlockId) -> Result<Block, StoreError> {
        Ok(self.full_block(id, self.read_chunk(iteration, id)?))
    }

    /// Read all blocks of one rank at `iteration`, in the decomposition's
    /// block order — the per-iteration input of a pipeline rank. This is
    /// the lazy path `Prepared::from_store` drives from inside the rank
    /// threads: nothing outside the rank's own chunks is touched.
    ///
    /// The same blocks as one [`ChunkedDataset::read_block`] per chunk,
    /// read in one cache transaction, so the rank threads of a session
    /// take the cache mutex twice per read, not once per chunk.
    pub fn read_rank_blocks(
        &self,
        iteration: usize,
        rank: usize,
    ) -> Result<Vec<Block>, StoreError> {
        let ids = self.decomp.blocks_of_rank(rank);
        let chunks = self.read_chunks(iteration, &ids)?;
        Ok(ids
            .into_iter()
            .zip(chunks)
            .map(|(id, samples)| self.full_block(id, samples))
            .collect())
    }

    /// Whether every chunk of `iteration` is present (a completeness probe
    /// for partially-written stores).
    // apc-lint: allow(dead-pub): the dataset tests assert what a write, a crash or a reopen left with it
    pub fn iteration_complete(&self, iteration: usize) -> Result<bool, StoreError> {
        self.check_iteration(iteration)?;
        for id in self.decomp.all_blocks() {
            if !self.backend.contains(&Self::chunk_key(iteration, id))? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;
    use crate::codec::CodecKind;
    use crate::layout::LayoutWriter;
    use apc_grid::{Dims3, ProcGrid};

    fn tiny_meta(codec: CodecKind) -> DatasetMeta {
        DatasetMeta {
            domain: Dims3::new(8, 8, 4),
            chunk: Dims3::new(4, 4, 2),
            procs: ProcGrid::new(2, 1, 1),
            codec,
            seed: 9,
            iterations: vec![10, 20],
            shard_chunks: None,
        }
    }

    fn chunk_data(dims: Dims3, salt: f32) -> Vec<f32> {
        (0..dims.len())
            .map(|i| (i as f32 * 0.21 + salt).sin() * 30.0)
            .collect()
    }

    /// `create` checks the iterations by the rule `open` reads by, before
    /// it writes the metadata document.
    #[test]
    fn create_rejects_iterations_open_would_reject() {
        for iterations in [vec![57, 399, 228, 571], vec![300, 300]] {
            let backend = MemStore::new();
            let meta = DatasetMeta {
                iterations: iterations.clone(),
                ..tiny_meta(CodecKind::Raw)
            };
            match ChunkedDataset::create(&backend, meta) {
                Err(StoreError::BadMeta(m)) => assert!(m.contains("strictly increasing"), "{m}"),
                other => panic!("{iterations:?} accepted: {:?}", other.map(|_| ())),
            }
            assert!(!backend.contains(META_KEY).unwrap());
        }
    }

    #[test]
    fn create_open_read_write_roundtrip() {
        let meta = tiny_meta(CodecKind::Fpz);
        let store = ChunkedDataset::create(MemStore::new(), meta.clone()).unwrap();
        let dims = store.decomp().block_dims();
        for &it in &[10usize, 20] {
            for id in store.decomp().all_blocks() {
                store
                    .write_chunk(it, id, &chunk_data(dims, (it + id as usize) as f32))
                    .unwrap();
            }
        }
        assert!(store.iteration_complete(10).unwrap());
        // Reopen over the same backend and read back.
        let reopened = ChunkedDataset::open(store.backend).unwrap();
        assert_eq!(reopened.meta(), &meta);
        for id in reopened.decomp().all_blocks() {
            let got = reopened.read_chunk(20, id).unwrap();
            assert_eq!(
                got[..],
                chunk_data(dims, (20 + id as usize) as f32),
                "chunk {id}"
            );
        }
    }

    #[test]
    fn read_block_carries_extent_and_rank_blocks_cover_rank() {
        let store = ChunkedDataset::create(MemStore::new(), tiny_meta(CodecKind::Raw)).unwrap();
        let dims = store.decomp().block_dims();
        for id in store.decomp().all_blocks() {
            store
                .write_chunk(10, id, &chunk_data(dims, id as f32))
                .unwrap();
        }
        let b = store.read_block(10, 3).unwrap();
        assert_eq!(b.id, 3);
        assert_eq!(b.extent, store.decomp().block_extent(3));
        assert!(!b.is_reduced());
        for rank in 0..store.decomp().nranks() {
            let blocks = store.read_rank_blocks(10, rank).unwrap();
            let ids: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
            assert_eq!(ids, store.decomp().blocks_of_rank(rank));
        }
    }

    #[test]
    fn unknown_iteration_and_missing_chunk_are_errors() {
        let store = ChunkedDataset::create(MemStore::new(), tiny_meta(CodecKind::Raw)).unwrap();
        assert!(matches!(
            store.read_chunk(99, 0),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            store.read_chunk(10, 0),
            Err(StoreError::NotFound(_))
        ));
        assert!(!store.iteration_complete(10).unwrap());
        let dims = store.decomp().block_dims();
        assert!(matches!(
            store.write_chunk(10, 0, &chunk_data(dims, 0.0)[..5]),
            Err(StoreError::ChunkShape { .. })
        ));
    }

    #[test]
    fn open_without_meta_is_bad_meta() {
        assert!(matches!(
            ChunkedDataset::open(MemStore::new()),
            Err(StoreError::BadMeta(_))
        ));
    }

    #[test]
    fn type_erased_dataset_works() {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let store: DynChunkedDataset =
            ChunkedDataset::create(backend, tiny_meta(CodecKind::Lz)).unwrap();
        let dims = store.decomp().block_dims();
        store.write_chunk(10, 0, &chunk_data(dims, 1.0)).unwrap();
        assert_eq!(store.read_chunk(10, 0).unwrap()[..], chunk_data(dims, 1.0));
    }

    #[test]
    fn open_auto_follows_the_recorded_layout() {
        // Write sharded: the meta records shard_chunks and the chunks
        // land inside shard containers rather than one key each.
        let meta = DatasetMeta {
            shard_chunks: Some(3),
            ..tiny_meta(CodecKind::Fpz)
        };
        let inner = Arc::new(MemStore::new());
        let writer = LayoutWriter::new(Arc::clone(&inner), meta.shard_chunks);
        let store = ChunkedDataset::create(writer, meta).unwrap();
        let dims = store.decomp().block_dims();
        for &it in &[10usize, 20] {
            for id in store.decomp().all_blocks() {
                store
                    .write_chunk(it, id, &chunk_data(dims, (it + id as usize) as f32))
                    .unwrap();
            }
        }
        store.backend().flush().unwrap();
        assert!(!inner.contains("c/000010/000000").unwrap());
        assert!(inner.contains("c/000010/s000000").unwrap());

        // open_auto on the *raw* backend reads through the shards…
        let auto = ChunkedDataset::open_auto(Arc::clone(&inner), None).unwrap();
        assert_eq!(auto.meta().shard_chunks, Some(3));
        for id in auto.decomp().all_blocks() {
            assert_eq!(
                auto.read_chunk(20, id).unwrap()[..],
                chunk_data(dims, (20 + id as usize) as f32)
            );
        }
        assert!(auto.iteration_complete(10).unwrap());

        // …and on an unsharded dataset it opens plain.
        let plain = ChunkedDataset::create(MemStore::new(), tiny_meta(CodecKind::Raw)).unwrap();
        plain.write_chunk(10, 0, &chunk_data(dims, 1.0)).unwrap();
        let auto = ChunkedDataset::open_auto(plain.backend, None).unwrap();
        assert_eq!(auto.meta().shard_chunks, None);
        assert_eq!(auto.read_chunk(10, 0).unwrap()[..], chunk_data(dims, 1.0));
    }

    /// The kill case: a sharded writer that never gets to seal (or drop).
    /// What it sealed on the way opens and reads; its unsealed tail is a
    /// typed `NotFound`, never a torn read.
    #[test]
    fn unsealed_tail_of_a_killed_writer_is_not_found() {
        let meta = DatasetMeta {
            shard_chunks: Some(3),
            ..tiny_meta(CodecKind::Raw)
        };
        let inner = Arc::new(MemStore::new());
        let writer = LayoutWriter::new(Arc::clone(&inner), meta.shard_chunks);
        let store = ChunkedDataset::create(writer, meta).unwrap();
        let dims = store.decomp().block_dims();
        // Eight chunks, three per shard: two groups seal, two chunks wait.
        for id in store.decomp().all_blocks() {
            store
                .write_chunk(10, id, &chunk_data(dims, id as f32))
                .unwrap();
        }
        std::mem::forget(store);

        let reopened = ChunkedDataset::open_auto(inner, None).unwrap();
        for id in 0..6 {
            assert_eq!(
                reopened.read_chunk(10, id).unwrap()[..],
                chunk_data(dims, id as f32)
            );
        }
        for id in 6..8 {
            assert!(matches!(
                reopened.read_chunk(10, id),
                Err(StoreError::NotFound(_))
            ));
        }
        assert!(!reopened.iteration_complete(10).unwrap());
    }

    #[test]
    fn corrupt_chunk_is_codec_error() {
        let store = ChunkedDataset::create(MemStore::new(), tiny_meta(CodecKind::Fpz)).unwrap();
        store
            .backend()
            .put(&ChunkedDataset::<MemStore>::chunk_key(10, 0), &[1, 0xFF])
            .unwrap();
        assert!(matches!(store.read_chunk(10, 0), Err(StoreError::Codec(_))));
    }

    /// A flat raw dataset of 16 chunks (8 blocks × 2 iterations, 128
    /// decoded bytes each) reopened with `cache_bytes`.
    fn cached_dataset(cache_bytes: usize) -> DynChunkedDataset {
        written_dataset(CodecKind::Raw, Some(cache_bytes))
    }

    /// The 16 chunks of [`cached_dataset`] written with `codec`, reopened
    /// with `cache_bytes` (`None`: uncached).
    fn written_dataset(codec: CodecKind, cache_bytes: Option<usize>) -> DynChunkedDataset {
        let store = ChunkedDataset::create(MemStore::new(), tiny_meta(codec)).unwrap();
        let dims = store.decomp().block_dims();
        for &it in &[10usize, 20] {
            for id in store.decomp().all_blocks() {
                store
                    .write_chunk(it, id, &chunk_data(dims, (it + id as usize) as f32))
                    .unwrap();
            }
        }
        ChunkedDataset::open_auto(store.backend, cache_bytes).unwrap()
    }

    /// The budget is decoded bytes: `k` chunks' worth (and any remainder
    /// short of one more) holds exactly `k`, every read is one counted
    /// lookup, and what it holds is what a warm read returns.
    #[test]
    fn cache_budget_counts_decoded_bytes() {
        let chunk_bytes = tiny_meta(CodecKind::Raw).chunk.len() * 4;
        for (budget, k) in [(3 * chunk_bytes, 3), (4 * chunk_bytes - 1, 3)] {
            let cached = cached_dataset(budget);
            let mut reads = Vec::new();
            for &it in &[10usize, 20] {
                for id in cached.decomp().all_blocks() {
                    reads.push(((it, id), cached.read_chunk(it, id).unwrap()));
                }
            }
            let held = lock(cached.cache.as_ref().unwrap());
            assert_eq!((held.len(), held.used_bytes()), (k, k * chunk_bytes));
            let s = held.stats();
            assert_eq!((s.hits, s.misses), (0, reads.len()));
            assert_eq!((s.insertions, s.evictions), (reads.len(), reads.len() - k));
            drop(held);

            // The k most recent chunks are warm, and warm means shared.
            for (key, first) in &reads[reads.len() - k..] {
                assert!(Arc::ptr_eq(
                    first,
                    &cached.read_chunk(key.0, key.1).unwrap()
                ));
            }
            let s = cached.cache_stats().unwrap();
            assert_eq!((s.hits, s.misses), (k, reads.len()));
        }
    }

    #[test]
    fn rewriting_a_cached_chunk_drops_the_stale_entry() {
        let cached = cached_dataset(1 << 20);
        let dims = cached.decomp().block_dims();
        let before = cached.read_chunk(10, 3).unwrap();
        let rewritten = chunk_data(dims, 99.0);
        cached.write_chunk(10, 3, &rewritten).unwrap();
        assert_eq!(cached.read_chunk(10, 3).unwrap()[..], rewritten);
        // The buffer handed out earlier is untouched.
        assert_eq!(before[..], chunk_data(dims, 13.0));
        assert_eq!(cached.cache_stats().unwrap().misses, 2);
    }

    /// A rank read is one `read_block` per chunk in one cache transaction:
    /// the same bits uncached and at every budget, the same counters where
    /// no insert can evict a later lookup of the same read (budget 0, hold
    /// all), and one counted lookup per chunk under eviction — where a
    /// rank read's lookups all precede its inserts, so it may hit where
    /// the per-chunk reads missed.
    #[test]
    fn rank_read_equals_per_chunk_reads() {
        let chunk_bytes = tiny_meta(CodecKind::Fpz).chunk.len() * 4;
        let bits = |blocks: &[Block]| -> Vec<(BlockId, Vec<u32>)> {
            blocks
                .iter()
                .map(|b| match &b.data {
                    BlockData::Full(samples) => {
                        (b.id, samples.iter().map(|x| x.to_bits()).collect())
                    }
                    other => panic!("block {} read as {other:?}", b.id),
                })
                .collect()
        };
        for budget in [None, Some(0), Some(3 * chunk_bytes), Some(1 << 20)] {
            let (batched, per_chunk) = (
                written_dataset(CodecKind::Fpz, budget),
                written_dataset(CodecKind::Fpz, budget),
            );
            let mut lookups = 0;
            for _pass in 0..3 {
                for &it in &[10usize, 20] {
                    for rank in 0..batched.decomp().nranks() {
                        let ids = per_chunk.decomp().blocks_of_rank(rank);
                        let one_by_one: Vec<Block> = ids
                            .iter()
                            .map(|&id| per_chunk.read_block(it, id).unwrap())
                            .collect();
                        let read = batched.read_rank_blocks(it, rank).unwrap();
                        assert_eq!(
                            bits(&read),
                            bits(&one_by_one),
                            "{budget:?} it {it} rank {rank}"
                        );
                        lookups += ids.len();
                    }
                }
            }
            let (got, want) = (batched.cache_stats(), per_chunk.cache_stats());
            match budget {
                Some(bytes) if bytes == 3 * chunk_bytes => {
                    let (got, want) = (got.unwrap(), want.unwrap());
                    assert_eq!(got.hits + got.misses, lookups);
                    assert_eq!(want.hits + want.misses, lookups);
                    assert_eq!(got.insertions, got.misses);
                    assert!(got.evictions > 0 && want.evictions > 0, "{got:?} {want:?}");
                }
                _ => assert_eq!(got, want, "budget {budget:?}"),
            }
        }
    }

    /// A chunk that fails to decode in the middle of a rank fails the rank
    /// read with the error the per-chunk reads stop at.
    #[test]
    fn corrupt_chunk_mid_rank_fails_the_rank_read_like_the_per_chunk_path() {
        for budget in [None, Some(0), Some(1 << 20)] {
            let dataset = written_dataset(CodecKind::Fpz, budget);
            let key = ChunkedDataset::<MemStore>::chunk_key(10, 2);
            dataset.backend().put(&key, &[1, 0xFF]).unwrap();
            let ids = dataset.decomp().blocks_of_rank(0);
            assert_eq!(
                ids.iter().position(|&id| id == 2),
                Some(1),
                "chunk 2 is mid-rank"
            );
            let per_chunk = ids
                .iter()
                .map(|&id| dataset.read_block(10, id))
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            let batched = dataset.read_rank_blocks(10, 0).unwrap_err();
            assert!(matches!(per_chunk, StoreError::Codec(_)), "{per_chunk:?}");
            assert_eq!(
                std::mem::discriminant(&batched),
                std::mem::discriminant(&per_chunk),
                "{batched:?} vs {per_chunk:?}"
            );
            // The other rank is untouched.
            assert_eq!(dataset.read_rank_blocks(10, 1).unwrap().len(), ids.len());
        }
    }

    /// Eight readers released together over a two-chunk budget: whatever
    /// the interleaving evicts, every read returns the chunk that was
    /// written and is counted once.
    #[test]
    fn concurrent_readers_under_eviction_read_what_was_written() {
        const READERS: usize = 8;
        let chunk_bytes = tiny_meta(CodecKind::Raw).chunk.len() * 4;
        let cached = cached_dataset(2 * chunk_bytes);
        let dims = cached.decomp().block_dims();
        let start = std::sync::Barrier::new(READERS);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test races real threads on the cache mutex"
        )]
        std::thread::scope(|scope| {
            for reader in 0..READERS {
                let (cached, start) = (&cached, &start);
                scope.spawn(move || {
                    start.wait();
                    for step in 0..64 {
                        let it = [10usize, 20][(reader + step) % 2];
                        let id = ((reader * 3 + step) % 8) as BlockId;
                        assert_eq!(
                            cached.read_chunk(it, id).unwrap()[..],
                            chunk_data(dims, (it + id as usize) as f32)
                        );
                    }
                });
            }
        });
        let s = cached.cache_stats().unwrap();
        assert_eq!(s.hits + s.misses, READERS * 64);
        assert_eq!(s.insertions, s.misses);
    }
}
