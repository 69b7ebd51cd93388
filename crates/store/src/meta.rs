//! The dataset metadata document and its JSON encoding.
//!
//! Stored at key `meta.json` as a flat, human-readable JSON object (the
//! zarr convention of keeping array geometry out-of-band in plain text).
//! The parser below covers exactly the subset the document uses — string
//! values, integers, floats, and integer arrays — with no external JSON
//! dependency.

use apc_grid::{Dims3, DomainDecomp, ProcGrid};

use crate::codec::CodecKind;
use crate::json::{parse_object, Value};
use crate::StoreError;

/// Key under which the metadata document is stored.
pub const META_KEY: &str = "meta.json";

const FORMAT: &str = "apc-store";
const VERSION: i64 = 1;

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
    /// means chunks are packed `n` per shard container and readers must
    /// go through a [`crate::ShardedStore`] wrap of the backend.
    pub shard_chunks: Option<usize>,
}

impl DatasetMeta {
    /// Validate the geometry as a decomposition (exact divisibility).
    pub fn decomp(&self) -> Result<DomainDecomp, StoreError> {
        Ok(DomainDecomp::new(self.domain, self.procs, self.chunk)?)
    }

    /// Serialize to the JSON document stored at [`META_KEY`].
    pub fn to_json(&self) -> String {
        let dims = |d: Dims3| format!("[{}, {}, {}]", d.nx, d.ny, d.nz);
        let iters: Vec<String> = self.iterations.iter().map(|i| i.to_string()).collect();
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"format\": \"{FORMAT}\",\n"));
        s.push_str(&format!("  \"version\": {VERSION},\n"));
        s.push_str(&format!("  \"domain\": {},\n", dims(self.domain)));
        s.push_str(&format!("  \"chunk\": {},\n", dims(self.chunk)));
        s.push_str(&format!(
            "  \"procs\": [{}, {}, {}],\n",
            self.procs.px, self.procs.py, self.procs.pz
        ));
        s.push_str(&format!("  \"codec\": \"{}\",\n", self.codec.name()));
        if let Some(tol) = self.codec.tolerance() {
            s.push_str(&format!("  \"tolerance\": {tol},\n"));
        }
        if let Some(n) = self.shard_chunks {
            s.push_str(&format!("  \"shard_chunks\": {n},\n"));
        }
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"iterations\": [{}]\n", iters.join(", ")));
        s.push('}');
        s
    }

    /// Parse a document produced by [`DatasetMeta::to_json`] (or written by
    /// hand in the same subset of JSON).
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        let fields = parse_object(text).map_err(StoreError::BadMeta)?;
        let get = |key: &str| -> Result<&Value, StoreError> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| StoreError::BadMeta(format!("missing field {key:?}")))
        };
        match get("format")? {
            Value::Str(s) if s == FORMAT => {}
            other => return Err(StoreError::BadMeta(format!("bad format field {other:?}"))),
        }
        match get("version")? {
            Value::Int(v) if *v == VERSION as i128 => {}
            other => {
                return Err(StoreError::BadMeta(format!(
                    "unsupported version {other:?}"
                )))
            }
        }
        let dims = |key: &str| -> Result<Dims3, StoreError> {
            match get(key)? {
                Value::Arr(v) if v.len() == 3 && v.iter().all(|x| *x >= 0) => {
                    Ok(Dims3::new(v[0] as usize, v[1] as usize, v[2] as usize))
                }
                other => Err(StoreError::BadMeta(format!("bad {key} field {other:?}"))),
            }
        };
        let domain = dims("domain")?;
        let chunk = dims("chunk")?;
        let p = dims("procs")?;
        let codec_name = match get("codec")? {
            Value::Str(s) => s.clone(),
            other => return Err(StoreError::BadMeta(format!("bad codec field {other:?}"))),
        };
        let tolerance = match fields.iter().find(|(k, _)| k == "tolerance") {
            Some((_, Value::Float(f))) => Some(*f as f32),
            Some((_, Value::Int(i))) => Some(*i as f32),
            Some((_, other)) => {
                return Err(StoreError::BadMeta(format!(
                    "bad tolerance field {other:?}"
                )))
            }
            None => None,
        };
        let codec = CodecKind::from_name(&codec_name, tolerance)?;
        let seed = match get("seed")? {
            Value::Int(v) if (0..=u64::MAX as i128).contains(v) => *v as u64,
            other => return Err(StoreError::BadMeta(format!("bad seed field {other:?}"))),
        };
        let iterations = match get("iterations")? {
            Value::Arr(v) if v.iter().all(|x| *x >= 0) => {
                v.iter().map(|&x| x as usize).collect::<Vec<usize>>()
            }
            other => {
                return Err(StoreError::BadMeta(format!(
                    "bad iterations field {other:?}"
                )))
            }
        };
        if !iterations.windows(2).all(|w| w[1] > w[0]) {
            return Err(StoreError::BadMeta(
                "iterations must be strictly increasing".to_owned(),
            ));
        }
        let shard_chunks = match fields.iter().find(|(k, _)| k == "shard_chunks") {
            Some((_, Value::Int(n))) if *n >= 1 => Some(*n as usize),
            Some((_, other)) => {
                return Err(StoreError::BadMeta(format!(
                    "bad shard_chunks field {other:?}"
                )))
            }
            None => None,
        };
        Ok(Self {
            domain,
            chunk,
            procs: ProcGrid::new(p.nx, p.ny, p.nz),
            codec,
            seed,
            iterations,
            shard_chunks,
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
    fn json_roundtrip_with_shard_layout() {
        let meta = DatasetMeta {
            shard_chunks: Some(64),
            ..sample()
        };
        let back = DatasetMeta::from_json(&meta.to_json()).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.shard_chunks, Some(64));
        // Absent field stays None (documents from older writers).
        assert_eq!(
            DatasetMeta::from_json(&sample().to_json())
                .unwrap()
                .shard_chunks,
            None
        );
        // A nonsense layout is rejected, not clamped.
        let bad = sample()
            .to_json()
            .replace("\"seed\"", "\"shard_chunks\": 0,\n  \"seed\"");
        assert!(matches!(
            DatasetMeta::from_json(&bad),
            Err(StoreError::BadMeta(_))
        ));
    }

    #[test]
    fn json_roundtrip() {
        let meta = sample();
        let back = DatasetMeta::from_json(&meta.to_json()).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn json_roundtrip_with_tolerance() {
        let meta = DatasetMeta {
            codec: CodecKind::Zfpx { tolerance: 0.25 },
            ..sample()
        };
        let back = DatasetMeta::from_json(&meta.to_json()).unwrap();
        assert_eq!(back, meta);
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

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "{}",
            "not json at all",
            "{\"format\": \"zarr\", \"version\": 1}",
            "{\"format\": \"apc-store\", \"version\": 99}",
            // Unsorted iterations.
            "{\"format\":\"apc-store\",\"version\":1,\"domain\":[4,4,4],
              \"chunk\":[2,2,2],\"procs\":[1,1,1],\"codec\":\"raw\",
              \"seed\":1,\"iterations\":[5,2]}",
        ] {
            assert!(
                matches!(DatasetMeta::from_json(text), Err(StoreError::BadMeta(_))),
                "accepted malformed document: {text:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut text = sample().to_json();
        text.push_str("garbage");
        assert!(DatasetMeta::from_json(&text).is_err());
    }
}
