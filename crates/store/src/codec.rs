//! Per-chunk compression, layered on the [`apc_compress::FloatCodec`]s.
//!
//! Every stored chunk is `[1-byte codec tag][codec payload]`, so a reader
//! can decode a chunk regardless of what the dataset-level default codec
//! is — the tag is the source of truth per chunk, which is what makes
//! mixed-codec stores (or a future per-chunk adaptive writer) possible.
//! `zfpx` chunks additionally carry their encode tolerance in the payload
//! header (the zfp-style decoder must know the bit-plane cutoff the
//! encoder used), so they too decode correctly under any dataset codec.

use apc_compress::{FloatCodec, Fpz, Lz77, Zfpx};
use apc_grid::Dims3;

use crate::StoreError;

const TAG_RAW: u8 = 0;
const TAG_FPZ: u8 = 1;
const TAG_LZ: u8 = 2;
const TAG_ZFPX: u8 = 3;

/// Which codec compresses chunks.
///
/// `Raw`, `Fpz` and `Lz` are lossless: a dataset stored with them replays
/// **byte-identically** through the pipeline (the `store_roundtrip`
/// integration test pins this). `Zfpx` trades exactness for size at a
/// fixed absolute `tolerance` — useful for archival copies, but reports
/// produced from a `Zfpx` store are only *approximately* those of the
/// in-memory path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CodecKind {
    /// Little-endian `f32`s, no compression.
    Raw,
    /// The lossless fpzip-like predictive codec (the default).
    #[default]
    Fpz,
    /// Lossless LZ77 over byte-plane-transposed floats.
    Lz,
    /// The lossy zfp-like transform codec at an absolute tolerance.
    Zfpx { tolerance: f32 },
}

impl CodecKind {
    /// Name used in the metadata document.
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::Raw => "raw",
            CodecKind::Fpz => "fpz",
            CodecKind::Lz => "lz",
            CodecKind::Zfpx { .. } => "zfpx",
        }
    }

    /// Inverse of [`CodecKind::name`]; `tolerance` only applies to `zfpx`,
    /// and must be one [`CodecKind::decode_chunk`] accepts in the header of
    /// the chunks it would write (finite, non-negative).
    pub fn from_name(name: &str, tolerance: Option<f32>) -> Result<Self, StoreError> {
        if let Some(bad) = tolerance.filter(|&t| !valid_tolerance(t)) {
            return Err(StoreError::BadMeta(format!("bad tolerance {bad}")));
        }
        match name {
            "raw" => Ok(CodecKind::Raw),
            "fpz" => Ok(CodecKind::Fpz),
            "lz" => Ok(CodecKind::Lz),
            "zfpx" => Ok(CodecKind::Zfpx {
                tolerance: tolerance.unwrap_or_else(|| Zfpx::default().tolerance),
            }),
            other => Err(StoreError::BadMeta(format!("unknown codec {other:?}"))),
        }
    }

    /// Compress one chunk (`samples` shaped `dims`, x-fastest) into a
    /// tagged stream.
    pub fn encode_chunk(&self, samples: &[f32], dims: Dims3) -> Vec<u8> {
        let shape = (dims.nx, dims.ny, dims.nz);
        match self {
            CodecKind::Raw => {
                let mut out = Vec::with_capacity(1 + samples.len() * 4);
                out.push(TAG_RAW);
                for v in samples {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            CodecKind::Fpz => tagged(TAG_FPZ, Fpz.encode(samples, shape)),
            CodecKind::Lz => tagged(TAG_LZ, Lz77.encode(samples, shape)),
            CodecKind::Zfpx { tolerance } => {
                // The decoder needs the encoder's tolerance to know the
                // bit-plane cutoff, so the chunk carries it.
                let stream = Zfpx {
                    tolerance: *tolerance,
                }
                .encode(samples, shape);
                let mut out = Vec::with_capacity(5 + stream.len());
                out.push(TAG_ZFPX);
                out.extend_from_slice(&tolerance.to_le_bytes());
                out.extend_from_slice(&stream);
                out
            }
        }
    }

    /// Decompress a tagged chunk stream back to `dims.len()` samples. The
    /// chunk's own tag (plus, for `zfpx`, the tolerance stored in the
    /// chunk header) fully determines the decoder — `self` carries no
    /// decode state, so chunks from mixed-codec stores always decode
    /// correctly.
    pub fn decode_chunk(&self, stream: &[u8], dims: Dims3) -> Result<Vec<f32>, StoreError> {
        let shape = (dims.nx, dims.ny, dims.nz);
        let Some((&tag, payload)) = stream.split_first() else {
            return Err(StoreError::Codec(apc_compress::CodecError::Corrupt(
                "empty chunk stream",
            )));
        };
        let samples = match tag {
            TAG_RAW => {
                if payload.len() != dims.len() * 4 {
                    return Err(StoreError::ChunkShape {
                        expected: dims.len(),
                        got: payload.len() / 4,
                    });
                }
                payload
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect()
            }
            TAG_FPZ => Fpz.decode(payload, shape)?,
            TAG_LZ => Lz77.decode(payload, shape)?,
            TAG_ZFPX => {
                let Some((tol_bytes, body)) = payload.split_first_chunk::<4>() else {
                    return Err(StoreError::Codec(apc_compress::CodecError::Corrupt(
                        "zfpx chunk too short for its tolerance header",
                    )));
                };
                let tolerance = f32::from_le_bytes(*tol_bytes);
                if !valid_tolerance(tolerance) {
                    return Err(StoreError::Codec(apc_compress::CodecError::Corrupt(
                        "zfpx chunk has a non-finite or negative tolerance",
                    )));
                }
                Zfpx { tolerance }.decode(body, shape)?
            }
            other => {
                return Err(StoreError::BadMeta(format!(
                    "unknown chunk codec tag {other}"
                )))
            }
        };
        if samples.len() != dims.len() {
            return Err(StoreError::ChunkShape {
                expected: dims.len(),
                got: samples.len(),
            });
        }
        Ok(samples)
    }

    /// The `zfpx` tolerance, if any (persisted in the metadata).
    pub fn tolerance(&self) -> Option<f32> {
        match self {
            CodecKind::Zfpx { tolerance } => Some(*tolerance),
            _ => None,
        }
    }
}

/// A `zfpx` tolerance a chunk header may carry and a document may ask for.
fn valid_tolerance(tolerance: f32) -> bool {
    tolerance.is_finite() && tolerance >= 0.0
}

/// `payload` behind its tag byte, in the payload's own buffer (the
/// encoders leave room for it).
fn tagged(tag: u8, mut payload: Vec<u8>) -> Vec<u8> {
    payload.insert(0, tag);
    payload
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.37).sin() * 40.0 + 10.0)
            .collect()
    }

    #[test]
    fn lossless_kinds_roundtrip_bit_exact() {
        let dims = Dims3::new(7, 5, 3);
        let data = wavy(dims.len());
        for kind in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
            let enc = kind.encode_chunk(&data, dims);
            let dec = kind.decode_chunk(&enc, dims).unwrap();
            assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(&dec) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn zfpx_kind_roundtrips_within_tolerance() {
        let dims = Dims3::new(8, 8, 4);
        let data = wavy(dims.len());
        let kind = CodecKind::Zfpx { tolerance: 0.01 };
        let dec = kind
            .decode_chunk(&kind.encode_chunk(&data, dims), dims)
            .unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn decoder_follows_chunk_tag_not_dataset_codec() {
        // A raw-tagged chunk decodes even when the dataset default is fpz.
        let dims = Dims3::new(4, 3, 2);
        let data = wavy(dims.len());
        let enc = CodecKind::Raw.encode_chunk(&data, dims);
        let dec = CodecKind::Fpz.decode_chunk(&enc, dims).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn zfpx_chunk_decodes_under_any_dataset_codec() {
        // The chunk carries its own tolerance: a zfpx chunk written at a
        // non-default tolerance must decode correctly even when the
        // dataset-level codec is something else entirely.
        let dims = Dims3::new(8, 8, 4);
        let data = wavy(dims.len());
        let tol = 0.5f32; // far from the 1e-2 default
        let enc = CodecKind::Zfpx { tolerance: tol }.encode_chunk(&data, dims);
        let dec = CodecKind::Raw.decode_chunk(&enc, dims).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert!((a - b).abs() <= Zfpx::ERROR_ENVELOPE * tol, "{a} vs {b}");
        }
        // A truncated tolerance header is corrupt, not a panic.
        assert!(matches!(
            CodecKind::Raw.decode_chunk(&enc[..3], dims),
            Err(StoreError::Codec(_))
        ));
    }

    #[test]
    fn names_roundtrip() {
        for kind in [
            CodecKind::Raw,
            CodecKind::Fpz,
            CodecKind::Lz,
            CodecKind::Zfpx { tolerance: 0.5 },
        ] {
            let back = CodecKind::from_name(kind.name(), kind.tolerance()).unwrap();
            assert_eq!(back, kind);
        }
        assert!(matches!(
            CodecKind::from_name("gzip", None),
            Err(StoreError::BadMeta(_))
        ));
        // A tolerance `decode_chunk` refuses in a chunk header is refused
        // before a chunk is written with it.
        for tolerance in [f32::INFINITY, f32::NAN, -0.5] {
            assert!(matches!(
                CodecKind::from_name("zfpx", Some(tolerance)),
                Err(StoreError::BadMeta(_))
            ));
        }
    }

    #[test]
    fn bad_streams_are_errors_not_panics() {
        let dims = Dims3::new(4, 4, 4);
        assert!(CodecKind::Fpz.decode_chunk(&[], dims).is_err());
        assert!(CodecKind::Fpz.decode_chunk(&[99, 1, 2, 3], dims).is_err());
        // Raw payload with the wrong byte count.
        assert!(matches!(
            CodecKind::Raw.decode_chunk(&[TAG_RAW, 0, 0, 0], dims),
            Err(StoreError::ChunkShape { .. })
        ));
        // Truncated fpz payload.
        let data = wavy(dims.len());
        let enc = CodecKind::Fpz.encode_chunk(&data, dims);
        assert!(CodecKind::Fpz
            .decode_chunk(&enc[..enc.len() / 2], dims)
            .is_err());
    }

    #[test]
    fn compression_actually_shrinks_smooth_chunks() {
        // A constant-gradient ramp: the Lorenzo predictor nails it.
        let dims = Dims3::new(11, 11, 19);
        let data: Vec<f32> = (0..dims.len()).map(|i| i as f32 * 0.5).collect();
        let raw = CodecKind::Raw.encode_chunk(&data, dims).len();
        let fpz = CodecKind::Fpz.encode_chunk(&data, dims).len();
        let lz = CodecKind::Lz.encode_chunk(&data, dims).len();
        assert!(fpz < raw / 2, "fpz {fpz} vs raw {raw}");
        assert!(lz < raw, "lz {lz} vs raw {raw}");
    }
}
