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
use crate::cache::{CachedBackend, Readahead, SharedCachedBackend};
use crate::shard::ShardedStore;
use crate::StoreError;

/// The read stack for a run recorded as `shard_chunks`: a
/// [`ShardedStore`] over `backend` when sharded, `backend` itself when
/// flat. `cache = Some((byte budget, the run's iterations in replay
/// order))` puts a [`CachedBackend`] with [`Readahead`] on top — above the
/// shard layer, so one entry is one logical value and a warm hit skips the
/// shard index — and returns its handle for statistics and cache control.
pub fn reader(
    backend: Arc<dyn StoreBackend>,
    shard_chunks: Option<usize>,
    cache: Option<(usize, &[usize])>,
) -> (Arc<dyn StoreBackend>, Option<SharedCachedBackend>) {
    let layered: Arc<dyn StoreBackend> = match shard_chunks {
        Some(n) => Arc::new(ShardedStore::new(backend, n)),
        None => backend,
    };
    let Some((budget_bytes, iterations)) = cache else {
        return (layered, None);
    };
    let readahead = Readahead::new(iterations.iter().map(|&i| i as u64).collect());
    let cached = Arc::new(CachedBackend::new(layered, budget_bytes).with_readahead(readahead));
    (Arc::clone(&cached) as Arc<dyn StoreBackend>, Some(cached))
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
