//! `lz`: LZ77 over byte-plane-transposed float bytes.
//!
//! The paper's third compressor family ("LZ", after Gomez & Cappello 2013,
//! who improve float compression with binary masking before a byte
//! compressor). We apply the same idea as a byte-plane transposition: all
//! sign/exponent bytes first, then each mantissa byte plane. Smooth fields
//! make the high planes nearly constant and long LZ matches appear; noisy
//! storm cores do not — which is what makes the ratio a relevance score.
//! The core is a classic greedy LZ77 with a 4-byte rolling hash table,
//! 64 KiB window and a byte-oriented token format:
//!
//! * control byte `0x00..=0x7F` — literal run of `ctrl + 1` bytes follows;
//! * control byte `0x80..=0xFF` — match of length `(ctrl & 0x7F) + MIN_MATCH`
//!   at the 16-bit little-endian offset that follows.

use crate::{CodecError, FloatCodec, Shape};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7F + MIN_MATCH;
const MAX_LITERALS: usize = 0x80;
const WINDOW: usize = u16::MAX as usize;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn compress_bytes(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0;
    let mut lit_start = 0;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(MAX_LITERALS);
            out.push((n - 1) as u8);
            out.extend_from_slice(&input[s..s + n]);
            s += n;
        }
    };

    while pos < input.len() {
        let mut matched = 0usize;
        let mut offset = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let cand = head[h];
            head[h] = pos;
            if cand != usize::MAX && pos - cand <= WINDOW {
                let mut len = 0;
                let max = (input.len() - pos).min(MAX_MATCH);
                while len < max && input[cand + len] == input[pos + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    matched = len;
                    offset = pos - cand;
                }
            }
        }
        if matched >= MIN_MATCH {
            flush_literals(&mut out, lit_start, pos, input);
            out.push(0x80 | ((matched - MIN_MATCH) as u8));
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            // Insert hashes inside the match so later data can reference it.
            let end = pos + matched;
            let mut p = pos + 1;
            while p + MIN_MATCH <= input.len() && p < end {
                head[hash4(&input[p..])] = p;
                p += 1;
            }
            pos = end;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, lit_start, input.len(), input);
    out
}

fn decompress_bytes(stream: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0;
    while pos < stream.len() {
        let ctrl = stream[pos];
        pos += 1;
        if ctrl < 0x80 {
            let n = ctrl as usize + 1;
            if pos + n > stream.len() {
                return Err(CodecError::Corrupt("literal run past end"));
            }
            out.extend_from_slice(&stream[pos..pos + n]);
            pos += n;
        } else {
            let len = (ctrl & 0x7F) as usize + MIN_MATCH;
            if pos + 2 > stream.len() {
                return Err(CodecError::Corrupt("match token truncated"));
            }
            let offset = u16::from_le_bytes([stream[pos], stream[pos + 1]]) as usize;
            pos += 2;
            if offset == 0 || offset > out.len() {
                return Err(CodecError::Corrupt("match offset out of range"));
            }
            let start = out.len() - offset;
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    if out.len() != expected_len {
        // A stream that decodes cleanly but to the wrong length is a
        // corrupt/truncated stream, not a caller shape error — the caller's
        // shape is what `expected_len` came from.
        return Err(CodecError::Corrupt("decompressed length mismatch"));
    }
    Ok(out)
}

/// The LZ77 codec. Shape-agnostic (treats the array as a byte stream).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lz77;

impl FloatCodec for Lz77 {
    fn name(&self) -> &'static str {
        "LZ"
    }

    fn encode(&self, data: &[f32], shape: Shape) -> Vec<u8> {
        let (nx, ny, nz) = shape;
        assert_eq!(data.len(), nx * ny * nz, "shape/data mismatch");
        // Byte-plane transposition, most significant plane first.
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for plane in (0..4).rev() {
            for v in data {
                bytes.push(v.to_le_bytes()[plane]);
            }
        }
        compress_bytes(&bytes)
    }

    fn decode(&self, stream: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        // No token yields more than `MAX_MATCH` bytes, so a stream cannot
        // decode to more than that per byte of its own: a shape it cannot
        // back fails as the length mismatch it would end in, before
        // anything is sized from it.
        let most = stream.len().saturating_mul(MAX_MATCH);
        let n = crate::checked_volume(shape)
            .filter(|n| n.checked_mul(4).is_some_and(|bytes| bytes <= most))
            .ok_or(CodecError::Corrupt("decompressed length mismatch"))?;
        let bytes = decompress_bytes(stream, n * 4)?;
        let mut out = vec![[0u8; 4]; n];
        for (p, plane) in (0..4).rev().enumerate() {
            for (i, dst) in out.iter_mut().enumerate() {
                dst[plane] = bytes[p * n + i];
            }
        }
        Ok(out.into_iter().map(f32::from_le_bytes).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32], shape: Shape) -> usize {
        let enc = Lz77.encode(data, shape);
        let dec = Lz77.decode(&enc, shape).unwrap();
        assert_eq!(data.len(), dec.len());
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        enc.len()
    }

    #[test]
    fn roundtrip_constant() {
        let n = roundtrip(&[3.5; 1000], (10, 10, 10));
        assert!(n < 200, "constant data should shrink a lot, got {n} bytes");
    }

    #[test]
    fn roundtrip_ramp_and_noise() {
        let ramp: Vec<f32> = (0..512).map(|i| i as f32).collect();
        roundtrip(&ramp, (8, 8, 8));
        let noise: Vec<f32> = (0..512)
            .map(|i| ((i as f32 * 12.9898).sin() * 43758.547).fract())
            .collect();
        let n = roundtrip(&noise, (8, 8, 8));
        // Incompressible data may expand slightly but never by more than
        // 1/128 (one control byte per 128 literals) plus slack.
        assert!(
            n <= 512 * 4 + 512 * 4 / 128 + 8,
            "noise expanded too much: {n}"
        );
    }

    #[test]
    fn roundtrip_empty_and_single() {
        roundtrip(&[], (0, 0, 0));
        roundtrip(&[42.0], (1, 1, 1));
    }

    #[test]
    fn repeating_pattern_compresses() {
        let pattern: Vec<f32> = (0..1024).map(|i| [1.0f32, -2.5, 7.125][i % 3]).collect();
        let n = roundtrip(&pattern, (16, 16, 4));
        assert!(n < 1024, "pattern should compress, got {n} bytes");
    }

    #[test]
    fn overlapping_match_decodes() {
        // RLE-style overlap: offset smaller than length.
        let stream = [0x00, 0xAB, 0x80 | 0x04, 0x01, 0x00]; // literal AB, match len 8 off 1
        let out = decompress_bytes(&stream, 9).unwrap();
        assert_eq!(out, vec![0xAB; 9]);
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert!(
            decompress_bytes(&[0x05, 0x01], 6).is_err(),
            "literal run past end"
        );
        assert!(decompress_bytes(&[0x80], 4).is_err(), "truncated match");
        assert!(
            decompress_bytes(&[0x80, 0x05, 0x00], 4).is_err(),
            "offset into nothing"
        );
        let ok = decompress_bytes(&[0x00, 0x01], 1).unwrap();
        assert_eq!(ok, vec![0x01]);
        assert!(
            decompress_bytes(&[0x00, 0x01], 2).is_err(),
            "length mismatch"
        );
    }
}
