//! The dataset metadata document and its JSON encoding.
//!
//! Stored at key `meta.json` as a flat, human-readable JSON object (the
//! zarr convention of keeping array geometry out-of-band in plain text).
//! The document is a field list over [`crate::fields`], which owns the
//! parsing, the validation and the fields shared with `apc-serve`'s run
//! manifest.

use apc_grid::{Dims3, DomainDecomp, ProcGrid};

use crate::codec::CodecKind;
use crate::fields::{DocWriter, Fields};
use crate::StoreError;

/// Key under which the metadata document is stored.
pub const META_KEY: &str = "meta.json";

const FORMAT: &str = "apc-store";

/// Everything needed to interpret a stored dataset: the full domain
/// geometry (domain, chunk and process grids — chunks coincide with the
/// `apc-grid` block decomposition), the chunk codec, the stored iteration
/// indices, and the storm seed for provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    pub domain: Dims3,
    /// Chunk dims ≡ block dims of the decomposition.
    pub chunk: Dims3,
    pub procs: ProcGrid,
    pub codec: CodecKind,
    /// Storm seed the dataset was generated from (provenance; also lets a
    /// reader rebuild the deterministic coordinate axes).
    pub seed: u64,
    /// Simulation iterations stored, strictly increasing.
    pub iterations: Vec<usize>,
    /// Chunk layout: `None` means one store key per chunk; `Some(n)`
    /// means chunks are packed `n` per shard container. Recorded only;
    /// [`crate::layout`] turns it into adapters.
    pub shard_chunks: Option<usize>,
}

impl DatasetMeta {
    /// Validate the geometry as a decomposition (exact divisibility).
    pub fn decomp(&self) -> Result<DomainDecomp, StoreError> {
        Ok(DomainDecomp::new(self.domain, self.procs, self.chunk)?)
    }

    /// Serialize to the JSON document stored at [`META_KEY`].
    pub fn to_json(&self) -> String {
        let dims = |nx: usize, ny: usize, nz: usize| format!("[{nx}, {ny}, {nz}]");
        let mut doc = DocWriter::new(FORMAT);
        doc.field(
            "domain",
            dims(self.domain.nx, self.domain.ny, self.domain.nz),
        );
        doc.field("chunk", dims(self.chunk.nx, self.chunk.ny, self.chunk.nz));
        doc.field("procs", dims(self.procs.px, self.procs.py, self.procs.pz));
        doc.codec_and_layout(self.codec, self.shard_chunks);
        doc.field("seed", self.seed);
        doc.finish(&self.iterations)
    }

    /// Parse a document produced by [`DatasetMeta::to_json`] (or written by
    /// hand in the same subset of JSON).
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        let doc = Fields::parse(text, FORMAT)?;
        let procs = doc.dims3("procs")?;
        Ok(Self {
            domain: doc.dims3("domain")?,
            chunk: doc.dims3("chunk")?,
            procs: ProcGrid::new(procs.nx, procs.ny, procs.nz),
            codec: doc.codec()?,
            seed: doc.uint("seed")?,
            iterations: doc.iterations()?,
            shard_chunks: doc.shard_chunks()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DatasetMeta {
        DatasetMeta {
            domain: Dims3::new(80, 80, 16),
            chunk: Dims3::new(10, 10, 8),
            procs: ProcGrid::new(2, 2, 1),
            codec: CodecKind::Fpz,
            seed: 42,
            iterations: vec![100, 250, 400],
            shard_chunks: None,
        }
    }

    /// The stored document, byte for byte: a reader written against an
    /// older store must keep reading what a newer writer emits.
    #[test]
    fn to_json_bytes_are_pinned() {
        assert_eq!(
            sample().to_json(),
            "{\n  \"format\": \"apc-store\",\n  \"version\": 1,\n  \"domain\": [80, 80, 16],\n  \"chunk\": [10, 10, 8],\n  \"procs\": [2, 2, 1],\n  \"codec\": \"fpz\",\n  \"seed\": 42,\n  \"iterations\": [100, 250, 400]\n}"
        );
        let sharded = DatasetMeta {
            shard_chunks: Some(64),
            ..sample()
        };
        assert_eq!(
            sharded.to_json(),
            "{\n  \"format\": \"apc-store\",\n  \"version\": 1,\n  \"domain\": [80, 80, 16],\n  \"chunk\": [10, 10, 8],\n  \"procs\": [2, 2, 1],\n  \"codec\": \"fpz\",\n  \"shard_chunks\": 64,\n  \"seed\": 42,\n  \"iterations\": [100, 250, 400]\n}"
        );
        let lossy = DatasetMeta {
            codec: CodecKind::Zfpx { tolerance: 0.05 },
            shard_chunks: Some(16),
            iterations: vec![],
            ..sample()
        };
        assert_eq!(
            lossy.to_json(),
            "{\n  \"format\": \"apc-store\",\n  \"version\": 1,\n  \"domain\": [80, 80, 16],\n  \"chunk\": [10, 10, 8],\n  \"procs\": [2, 2, 1],\n  \"codec\": \"zfpx\",\n  \"tolerance\": 0.05,\n  \"shard_chunks\": 16,\n  \"seed\": 42,\n  \"iterations\": []\n}"
        );
    }

    #[test]
    fn json_roundtrip() {
        let sharded = DatasetMeta {
            shard_chunks: Some(64),
            ..sample()
        };
        let lossy = DatasetMeta {
            codec: CodecKind::Zfpx { tolerance: 0.25 },
            ..sample()
        };
        for meta in [sample(), sharded, lossy] {
            assert_eq!(DatasetMeta::from_json(&meta.to_json()).unwrap(), meta);
        }
    }

    #[test]
    fn full_u64_seed_range_roundtrips() {
        // Seeds above i64::MAX must survive the JSON round trip — a store
        // that writes successfully must always reopen.
        for seed in [u64::MAX, i64::MAX as u64 + 1, 0] {
            let meta = DatasetMeta { seed, ..sample() };
            assert_eq!(DatasetMeta::from_json(&meta.to_json()).unwrap().seed, seed);
        }
    }

    #[test]
    fn whitespace_and_field_order_are_flexible() {
        let text = "{\"iterations\":[1,2],\"seed\":7,\"codec\":\"raw\",
            \"procs\":[1,1,1],\"chunk\":[2,2,2],\"domain\":[4,4,4],
            \"version\":1,\"format\":\"apc-store\"}";
        let meta = DatasetMeta::from_json(text).unwrap();
        assert_eq!(meta.seed, 7);
        assert_eq!(meta.codec, CodecKind::Raw);
        assert_eq!(meta.iterations, vec![1, 2]);
    }

    #[test]
    fn geometry_validates_as_decomp() {
        let meta = sample();
        let d = meta.decomp().unwrap();
        assert_eq!(d.nranks(), 4);
        assert_eq!(d.n_blocks(), 128);
        let bad = DatasetMeta {
            chunk: Dims3::new(7, 10, 8),
            ..sample()
        };
        assert!(matches!(bad.decomp(), Err(StoreError::Geometry(_))));
    }

    /// Axis lengths that each fit a `usize` but whose product does not
    /// used to reach `Dims3::len` and overflow there.
    #[test]
    fn huge_dims_are_bad_meta_not_an_overflow() {
        let text = sample()
            .to_json()
            .replace("[80, 80, 16]", "[4294967296, 4294967296, 4294967296]");
        let backend = crate::MemStore::new();
        crate::StoreBackend::put(&backend, META_KEY, text.as_bytes()).unwrap();
        assert!(matches!(
            crate::ChunkedDataset::open(backend),
            Err(StoreError::BadMeta(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut text = sample().to_json();
        text.push_str("garbage");
        assert!(DatasetMeta::from_json(&text).is_err());
    }
}
