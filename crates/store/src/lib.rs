//! A chunked, compressed, lazily-read array store — the persistence layer
//! the paper assumes (§V-A: the 572-iteration CM1 dataset is "already
//! generated by atmospheric scientists" and reloaded for every experiment).
//!
//! The design is zarr-inspired (see the `zarrs` family of stores), scaled
//! down to exactly what this pipeline needs and implemented with zero
//! external dependencies:
//!
//! * **Directory layout** — one human-readable metadata document
//!   ([`DatasetMeta`], stored as JSON at `meta.json`) plus one file per
//!   chunk under `c/<iteration>/<chunk id>`;
//! * **Chunk grid ≡ block grid** — chunks coincide with the
//!   [`apc_grid::DomainDecomp`] block decomposition, so a rank reads
//!   exactly the chunks it owns and nothing else (the BIL access pattern
//!   the paper relies on);
//! * **Per-chunk codec** — every chunk is compressed through an
//!   [`apc_compress::FloatCodec`] selected by [`CodecKind`] and
//!   self-describes with a one-byte tag, so stores written with different
//!   codecs stay readable;
//! * **Pluggable backends** — [`DirStore`] persists to disk, [`MemStore`]
//!   keeps chunks in memory so tests never touch the filesystem. Both are
//!   `Sync`: rank threads read their chunks concurrently;
//! * **Decoded-chunk cache** — a dataset opened with a byte budget
//!   ([`ChunkedDataset::open_auto`]) keeps the chunks it has decoded in a
//!   deterministic, byte-bounded LRU ([`ChunkCache`], the one caching
//!   implementation `apc-serve` shares; see [`cache`]) as shared
//!   `Arc<[f32]>` buffers: a warm [`ChunkedDataset::read_chunk`] is a
//!   lock, a lookup and a refcount, and the block a rank gets *is* the
//!   cached buffer;
//! * **One owner of the layout decision** — whether a stored run (a chunk
//!   dataset here, a frame run in `apc-serve`) keeps one key per value or
//!   packs values into shard containers is *recorded* as `shard_chunks`
//!   in its metadata document and *decided* in [`layout`]:
//!   [`layout::reader`] builds the read stack (shard → backend) for
//!   [`ChunkedDataset::open_auto`] and `apc_serve::open_run`, and
//!   [`LayoutWriter`] is the write side of `apc_cm1::write_dataset` and
//!   `apc_serve::FrameSink`; nothing else wraps a backend in an adapter;
//! * **One metadata field reader** — [`fields`] reads and writes what
//!   `meta.json` and the run manifest share; every integer range-checked,
//!   every malformed document a [`StoreError::BadMeta`].
//!
//! The typical producer/consumer pair lives one layer up, in `apc-cm1`
//! (`write_dataset` / `open_dataset`) and `apc-core`
//! (`Prepared::from_store`); this crate only knows about shaped `f32`
//! chunks.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod backend;
pub mod cache;
pub mod codec;
pub mod dataset;
pub mod fields;
pub mod json;
pub mod layout;
pub mod meta;
pub mod shard;

pub use backend::{DirStore, MemStore, StoreBackend};
pub use cache::{CacheStats, ChunkCache};
pub use codec::CodecKind;
pub use dataset::{ChunkedDataset, DynChunkedDataset};
pub use layout::LayoutWriter;
pub use meta::DatasetMeta;
pub use shard::{ShardWriter, ShardedStore};

/// Errors produced by store backends, codecs and metadata handling.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failed (disk backend).
    Io(std::io::Error),
    /// A requested key does not exist in the backend.
    NotFound(String),
    /// The metadata document is missing, malformed or unsupported.
    BadMeta(String),
    /// Chunk geometry disagrees with the metadata.
    Geometry(apc_grid::GridError),
    /// A chunk failed to decompress.
    Codec(apc_compress::CodecError),
    /// A chunk payload has the wrong sample count for the chunk grid.
    ChunkShape { expected: usize, got: usize },
    /// A byte-range read fell outside the stored value.
    Range {
        key: String,
        offset: u64,
        len: u64,
        size: u64,
    },
    /// A shard container is malformed (bad footer, index or entries).
    Shard(String),
    /// A key is not a legal `/`-separated store path (it has an empty,
    /// `.` or `..` segment).
    BadKey(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::NotFound(key) => write!(f, "store key not found: {key}"),
            StoreError::BadMeta(what) => write!(f, "bad store metadata: {what}"),
            StoreError::Geometry(e) => write!(f, "bad store geometry: {e}"),
            StoreError::Codec(e) => write!(f, "chunk decode failed: {e}"),
            StoreError::ChunkShape { expected, got } => {
                write!(f, "chunk has {got} samples, chunk grid expects {expected}")
            }
            StoreError::Range {
                key,
                offset,
                len,
                size,
            } => write!(
                f,
                "byte range {offset}+{len} out of bounds for key {key} ({size} bytes)"
            ),
            StoreError::Shard(what) => write!(f, "bad shard container: {what}"),
            StoreError::BadKey(key) => write!(f, "bad store key: {key:?}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Geometry(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<apc_compress::CodecError> for StoreError {
    fn from(e: apc_compress::CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<apc_grid::GridError> for StoreError {
    fn from(e: apc_grid::GridError) -> Self {
        StoreError::Geometry(e)
    }
}
