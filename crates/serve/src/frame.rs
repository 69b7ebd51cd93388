//! The frame payload and its self-describing byte encoding.
//!
//! A frame stream is `[1-byte version][fixed header][tagged pixel chunk]`.
//! The pixel chunk reuses [`CodecKind::encode_chunk`] with shape
//! `width × height × 1`, so every `apc-compress` codec — and its
//! self-describing one-byte tag — applies to frames unchanged: lossless
//! kinds replay pixels bit-exactly, `zfpx` trades exactness for size.
//! Decoding is total: truncated or bit-flipped streams come back as
//! [`ServeError::Corrupt`], never as a panic (swept, with every other
//! decoder, by `tests/decoders_never_panic.rs`).

use apc_grid::Dims3;
use apc_store::CodecKind;

use crate::ServeError;

/// Frame stream format version.
const VERSION: u8 = 1;

/// Byte length of the fixed header that follows the version byte:
/// iteration (u64), stager (u32), width (u32), height (u32),
/// triangles (u64), percent (f64).
const HEADER: usize = 8 + 4 + 4 + 4 + 8 + 8;

/// One stager's rendered output for one iteration: a row-major `f32`
/// plan-view image (the per-block score footprint of the blocks this
/// stager rendered) plus render provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Simulation iteration the frame visualizes.
    pub iteration: u64,
    /// Staging slot that rendered it.
    pub stager: u32,
    pub width: u32,
    pub height: u32,
    /// Triangles the stager's isosurface pass produced for this frame.
    pub triangles: u64,
    /// Reduction percentage the frame was rendered at.
    pub percent: f64,
    /// Row-major `width × height` pixels.
    pub pixels: Vec<f32>,
}

impl Frame {
    pub fn new(iteration: u64, stager: u32, width: u32, height: u32, pixels: Vec<f32>) -> Self {
        assert_eq!(
            pixels.len(),
            width as usize * height as usize,
            "pixel count must match the frame dimensions"
        );
        Self {
            iteration,
            stager,
            width,
            height,
            triangles: 0,
            percent: 0.0,
            pixels,
        }
    }

    /// Attach render provenance (triangle count, reduction percentage).
    pub fn with_render_info(mut self, triangles: u64, percent: f64) -> Self {
        self.triangles = triangles;
        self.percent = percent;
        self
    }

    fn dims(&self) -> Dims3 {
        Dims3::new(self.width as usize, self.height as usize, 1)
    }

    /// Serialize to the self-describing frame stream, compressing the
    /// pixels with `codec`.
    pub fn encode(&self, codec: CodecKind) -> Vec<u8> {
        let chunk = codec.encode_chunk(&self.pixels, self.dims());
        let mut out = Vec::with_capacity(1 + HEADER + chunk.len());
        out.push(VERSION);
        out.extend_from_slice(&self.iteration.to_le_bytes());
        out.extend_from_slice(&self.stager.to_le_bytes());
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.triangles.to_le_bytes());
        out.extend_from_slice(&self.percent.to_le_bytes());
        out.extend_from_slice(&chunk);
        out
    }

    /// Parse a frame stream. The pixel chunk's own codec tag drives the
    /// decode, so frames written under any codec are readable.
    pub fn decode(stream: &[u8]) -> Result<Self, ServeError> {
        let Some((&version, rest)) = stream.split_first() else {
            return Err(ServeError::Corrupt("empty frame stream".into()));
        };
        if version != VERSION {
            return Err(ServeError::Corrupt(format!(
                "unsupported frame version {version}"
            )));
        }
        if rest.len() < HEADER {
            return Err(ServeError::Corrupt(format!(
                "frame header truncated: {} of {HEADER} bytes",
                rest.len()
            )));
        }
        let (header, chunk) = rest.split_at(HEADER);
        #[expect(
            clippy::unwrap_used,
            reason = "header is exactly HEADER bytes (length-checked above); fixed-width sub-slices cannot fail"
        )]
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
        #[expect(
            clippy::unwrap_used,
            reason = "header is exactly HEADER bytes (length-checked above); fixed-width sub-slices cannot fail"
        )]
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
        let iteration = u64_at(0);
        let stager = u32_at(8);
        let width = u32_at(12);
        let height = u32_at(16);
        let triangles = u64_at(20);
        #[expect(
            clippy::unwrap_used,
            reason = "header is exactly HEADER bytes (length-checked above); the 8-byte sub-slice cannot fail"
        )]
        let percent = f64::from_le_bytes(header[28..36].try_into().unwrap());
        let npixels = (width as usize).checked_mul(height as usize).filter(|&n| {
            // A bit-flipped dimension must not turn into a huge allocation.
            n <= 1 << 28
        });
        let Some(npixels) = npixels else {
            return Err(ServeError::Corrupt(format!(
                "implausible frame dimensions {width}x{height}"
            )));
        };
        if !percent.is_finite() {
            return Err(ServeError::Corrupt(
                "frame percent field is not finite".into(),
            ));
        }
        let dims = Dims3::new(width as usize, height as usize, 1);
        let pixels = CodecKind::default().decode_chunk(chunk, dims)?;
        debug_assert_eq!(pixels.len(), npixels);
        Ok(Self {
            iteration,
            stager,
            width,
            height,
            triangles,
            percent,
            pixels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        let pixels: Vec<f32> = (0..48).map(|i| (i as f32 * 0.7).sin() * 30.0).collect();
        Frame::new(420, 3, 8, 6, pixels).with_render_info(12345, 62.5)
    }

    #[test]
    fn lossless_codecs_roundtrip_bit_exact() {
        let frame = sample();
        for codec in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
            let back = Frame::decode(&frame.encode(codec)).unwrap();
            assert_eq!(back, frame, "{}", codec.name());
            for (a, b) in frame.pixels.iter().zip(&back.pixels) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn zfpx_roundtrips_within_tolerance() {
        let frame = sample();
        let back = Frame::decode(&frame.encode(CodecKind::Zfpx { tolerance: 0.01 })).unwrap();
        assert_eq!(back.iteration, frame.iteration);
        assert_eq!(back.triangles, frame.triangles);
        for (a, b) in frame.pixels.iter().zip(&back.pixels) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn header_fields_survive() {
        let back = Frame::decode(&sample().encode(CodecKind::Raw)).unwrap();
        assert_eq!(back.iteration, 420);
        assert_eq!(back.stager, 3);
        assert_eq!((back.width, back.height), (8, 6));
        assert_eq!(back.triangles, 12345);
        assert_eq!(back.percent, 62.5);
    }

    #[test]
    fn implausible_dimensions_rejected() {
        let mut enc = sample().encode(CodecKind::Raw);
        // Overwrite width with u32::MAX (1 version + 8 iteration + 4 stager).
        enc[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Frame::decode(&enc), Err(ServeError::Corrupt(_))));
    }

    #[test]
    #[should_panic(expected = "pixel count must match")]
    fn wrong_pixel_count_rejected() {
        let _ = Frame::new(0, 0, 4, 4, vec![0.0; 3]);
    }
}
