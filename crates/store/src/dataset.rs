//! The chunked dataset: a time series of 3D arrays over a backend.

use std::sync::Arc;

use apc_grid::{Block, BlockData, BlockId, Dims3, DomainDecomp};

use crate::backend::StoreBackend;
use crate::cache::SharedCachedBackend;
use crate::layout;
use crate::meta::{DatasetMeta, META_KEY};
use crate::StoreError;

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
}

/// A dataset over a type-erased backend — what crosses crate boundaries
/// (e.g. `apc-core`'s `Prepared::from_store` accepts disk- and
/// memory-backed datasets alike through this alias).
pub type DynChunkedDataset = ChunkedDataset<Arc<dyn StoreBackend>>;

impl<B: StoreBackend> ChunkedDataset<B> {
    /// Create a new dataset: validates the geometry and writes the
    /// metadata document. Chunks are written afterwards with
    /// [`ChunkedDataset::write_chunk`].
    pub fn create(backend: B, meta: DatasetMeta) -> Result<Self, StoreError> {
        let decomp = meta.decomp()?;
        backend.put(META_KEY, meta.to_json().as_bytes())?;
        Ok(Self {
            backend,
            meta,
            decomp,
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
        })
    }

    /// Open honoring the chunk layout recorded in the metadata, through
    /// the one read stack of [`layout::reader`]: callers that don't know
    /// (or care) how a dataset was written use this instead of
    /// [`ChunkedDataset::open`]. With `cache_bytes` the stack gets the
    /// byte-budgeted chunk cache, prefetching along the dataset's own
    /// iteration order, and its handle is returned for statistics and
    /// cache control.
    pub fn open_auto(
        backend: B,
        cache_bytes: Option<usize>,
    ) -> Result<(DynChunkedDataset, Option<SharedCachedBackend>), StoreError>
    where
        B: 'static,
    {
        // meta.json passes through a ShardedStore untouched, so probing
        // the layout through the raw backend is always correct.
        let meta = ChunkedDataset::open(&backend)?.meta;
        let (layered, cache) = layout::reader(
            Arc::new(backend),
            meta.shard_chunks,
            cache_bytes.map(|bytes| (bytes, &meta.iterations[..])),
        );
        Ok((ChunkedDataset::open(layered)?, cache))
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

    /// Chunk dims (≡ block dims of the decomposition).
    pub fn chunk_dims(&self) -> Dims3 {
        self.meta.chunk
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
        self.backend.put(&Self::chunk_key(iteration, id), &bytes)
    }

    /// Read and decompress one chunk's samples.
    pub fn read_chunk(&self, iteration: usize, id: BlockId) -> Result<Vec<f32>, StoreError> {
        self.check_iteration(iteration)?;
        let bytes = self.backend.get(&Self::chunk_key(iteration, id))?;
        self.meta.codec.decode_chunk(&bytes, self.meta.chunk)
    }

    /// Read one chunk as a pipeline [`Block`] (full payload, global
    /// extent from the decomposition).
    pub fn read_block(&self, iteration: usize, id: BlockId) -> Result<Block, StoreError> {
        Ok(Block {
            id,
            extent: self.decomp.block_extent(id),
            data: BlockData::Full(self.read_chunk(iteration, id)?),
        })
    }

    /// Read all blocks of one rank at `iteration`, in the decomposition's
    /// block order — the per-iteration input of a pipeline rank. This is
    /// the lazy path `Prepared::from_store` drives from inside the rank
    /// threads: nothing outside the rank's own chunks is touched.
    pub fn read_rank_blocks(
        &self,
        iteration: usize,
        rank: usize,
    ) -> Result<Vec<Block>, StoreError> {
        self.decomp
            .blocks_of_rank(rank)
            .into_iter()
            .map(|id| self.read_block(iteration, id))
            .collect()
    }

    /// Whether every chunk of `iteration` is present (a completeness probe
    /// for partially-written stores).
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
    use apc_grid::ProcGrid;

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

    #[test]
    fn create_open_read_write_roundtrip() {
        let meta = tiny_meta(CodecKind::Fpz);
        let store = ChunkedDataset::create(MemStore::new(), meta.clone()).unwrap();
        let dims = store.chunk_dims();
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
                got,
                chunk_data(dims, (20 + id as usize) as f32),
                "chunk {id}"
            );
        }
    }

    #[test]
    fn read_block_carries_extent_and_rank_blocks_cover_rank() {
        let store = ChunkedDataset::create(MemStore::new(), tiny_meta(CodecKind::Raw)).unwrap();
        let dims = store.chunk_dims();
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
        let dims = store.chunk_dims();
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
        let dims = store.chunk_dims();
        store.write_chunk(10, 0, &chunk_data(dims, 1.0)).unwrap();
        assert_eq!(store.read_chunk(10, 0).unwrap(), chunk_data(dims, 1.0));
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
        let dims = store.chunk_dims();
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
        let (auto, _) = ChunkedDataset::open_auto(Arc::clone(&inner), None).unwrap();
        assert_eq!(auto.meta().shard_chunks, Some(3));
        for id in auto.decomp().all_blocks() {
            assert_eq!(
                auto.read_chunk(20, id).unwrap(),
                chunk_data(dims, (20 + id as usize) as f32)
            );
        }
        assert!(auto.iteration_complete(10).unwrap());

        // …and on an unsharded dataset it opens plain.
        let plain = ChunkedDataset::create(MemStore::new(), tiny_meta(CodecKind::Raw)).unwrap();
        plain.write_chunk(10, 0, &chunk_data(dims, 1.0)).unwrap();
        let (auto, _) = ChunkedDataset::open_auto(plain.backend, None).unwrap();
        assert_eq!(auto.meta().shard_chunks, None);
        assert_eq!(auto.read_chunk(10, 0).unwrap(), chunk_data(dims, 1.0));
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
        let dims = store.chunk_dims();
        // Eight chunks, three per shard: two groups seal, two chunks wait.
        for id in store.decomp().all_blocks() {
            store
                .write_chunk(10, id, &chunk_data(dims, id as f32))
                .unwrap();
        }
        std::mem::forget(store);

        let (reopened, _) = ChunkedDataset::open_auto(inner, None).unwrap();
        for id in 0..6 {
            assert_eq!(
                reopened.read_chunk(10, id).unwrap(),
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
}
