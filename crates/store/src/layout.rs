//! The one place a stored run's layout turns into adapters.
//!
//! A stored run — a chunk dataset or `apc-serve`'s frame run — records its
//! layout as an optional `shard_chunks` in its metadata document
//! ([`crate::fields::Fields::shard_chunks`]): absent means one store key
//! per value, `n` means values packed `n` per shard container. What
//! follows from that record is decided here — the adapters of a reader
//! and their order ([`reader`]), the buffering and sealing of a writer
//! ([`LayoutWriter`]) — and callers pass it through without branching.

use std::sync::Arc;

use crate::backend::StoreBackend;
use crate::shard::ShardedStore;
use crate::StoreError;

/// The read stack for a run recorded as `shard_chunks`: a
/// [`ShardedStore`] over `backend` when sharded, `backend` itself when
/// flat. Nothing here caches: a dataset caches the chunks it has decoded
/// ([`crate::ChunkedDataset::open_auto`]) and a frame server the streams
/// it has fetched (`apc_serve::ServeCore`), each above this stack.
pub fn reader(
    backend: Arc<dyn StoreBackend>,
    shard_chunks: Option<usize>,
) -> Arc<dyn StoreBackend> {
    match shard_chunks {
        Some(n) => Arc::new(ShardedStore::new(backend, n)),
        None => backend,
    }
}

/// The write side of a layout: the backend a run's values are `put`
/// through, and the [`LayoutWriter::flush`] that seals it. Values stay
/// readable through the writer while buffered; readers of the bottom
/// backend ([`reader`]) see a sharded run complete once it is flushed.
pub struct LayoutWriter<B: StoreBackend>(Inner<B>);

enum Inner<B: StoreBackend> {
    Flat(B),
    Sharded(ShardedStore<B>),
}

impl<B: StoreBackend> LayoutWriter<B> {
    /// Write through `backend` in the layout `shard_chunks` names
    /// (`Some(n)`: `n ≥ 1` values per shard container).
    pub fn new(backend: B, shard_chunks: Option<usize>) -> Self {
        Self(match shard_chunks {
            Some(n) => Inner::Sharded(ShardedStore::new(backend, n)),
            None => Inner::Flat(backend),
        })
    }

    /// The layout to record in the run's metadata document.
    pub fn shard_chunks(&self) -> Option<usize> {
        match &self.0 {
            Inner::Flat(_) => None,
            Inner::Sharded(s) => Some(s.chunks_per_shard()),
        }
    }

    /// Seal partially-filled shard groups. A flat layout has nothing
    /// buffered, so writers call this unconditionally at end of run.
    pub fn flush(&self) -> Result<(), StoreError> {
        match &self.0 {
            Inner::Flat(_) => Ok(()),
            Inner::Sharded(s) => s.flush(),
        }
    }

    fn backend(&self) -> &(dyn StoreBackend + '_) {
        match &self.0 {
            Inner::Flat(b) => b,
            Inner::Sharded(s) => s,
        }
    }
}

impl<B: StoreBackend> StoreBackend for LayoutWriter<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.backend().put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.backend().get(key)
    }
    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        self.backend().contains(key)
    }
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.backend().get_range(key, offset, len)
    }
    fn size(&self, key: &str) -> Result<u64, StoreError> {
        self.backend().size(key)
    }
}
