//! `fpz`: a lossless fpzip-like predictive floating-point codec.
//!
//! Pipeline per sample (Lindstrom & Isenburg 2006 family):
//!
//! 1. map the IEEE-754 bits to an **order-preserving unsigned integer** so
//!    arithmetic on residuals behaves monotonically;
//! 2. predict each sample with the **3D Lorenzo predictor** (the
//!    inclusion–exclusion sum of the 7 previously-seen corner neighbors);
//! 3. zig-zag the signed residual and store it as a significant-bit-count
//!    (itself delta-coded against the previous sample's count with a
//!    unary zig-zag code — counts are locally stable) followed by the
//!    residual's payload bits.
//!
//! Smooth regions predict well ⇒ tiny residuals ⇒ few payload bits; noisy
//! storm cores predict poorly ⇒ ~32-bit residuals. The compressed size is
//! therefore a direct information measure, which is exactly how the paper's
//! FPZIP metric uses it.
//!
//! Both directions work on a **padded field**: the ordered integers laid out
//! as `(nx+1)·(ny+1)·(nz+1)` with one zero layer in front of each axis, so
//! sample `(i, j, k)` lives at `(i+1) + (nx+1)·((j+1) + (ny+1)·(k+1))`. A
//! neighbor "before the first sample" is then an ordinary zero in the
//! field, the 7-corner prediction is seven unconditional loads at fixed
//! offsets from four row slices, and the coder walks rows instead of
//! re-deriving `(i, j, k)` per sample. The emitted bytes are those of the
//! bounds-checked predictor this replaced (pinned by `tests/format_pin.rs`).

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, FloatCodec, Shape};

/// Order-preserving map from IEEE-754 `f32` bits to `u32`.
#[inline]
fn float_to_ordered(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`float_to_ordered`].
#[inline]
fn ordered_to_float(m: u32) -> f32 {
    let bits = if m & 0x8000_0000 != 0 {
        m & 0x7FFF_FFFF
    } else {
        !m
    };
    f32::from_bits(bits)
}

/// Zig-zag encode a signed (wrapping) residual to an unsigned magnitude.
#[inline]
fn zigzag(r: i32) -> u32 {
    ((r << 1) ^ (r >> 31)) as u32
}

#[inline]
fn unzigzag(m: u32) -> i32 {
    ((m >> 1) as i32) ^ -((m & 1) as i32)
}

/// The padded ordered-integer field (see the module docs) and its walk.
struct Lorenzo {
    field: Vec<u32>,
    /// Length of a padded row (`nx + 1`) and of a padded plane.
    sy: usize,
    sz: usize,
    ny: usize,
    nz: usize,
}

/// The four padded rows a prediction reads, each `nx + 1` long with the
/// zero (or previous-sample) column at index 0: the row being coded, its
/// `j-1` and `k-1` neighbors, and the `j-1, k-1` diagonal.
struct Rows<'a> {
    cur: &'a mut [u32],
    py: &'a [u32],
    pz: &'a [u32],
    pyz: &'a [u32],
}

impl Rows<'_> {
    /// Prediction for padded column `i ≥ 1` from its causal corner neighbors
    /// (the inclusion–exclusion sum over the unit cube behind the sample).
    #[inline]
    fn predict(&self, i: usize) -> u32 {
        self.cur[i - 1]
            .wrapping_add(self.py[i])
            .wrapping_add(self.pz[i])
            .wrapping_sub(self.py[i - 1])
            .wrapping_sub(self.pz[i - 1])
            .wrapping_sub(self.pyz[i])
            .wrapping_add(self.pyz[i - 1])
    }
}

impl Lorenzo {
    /// An all-zero padded field for `shape`.
    fn zeroed((nx, ny, nz): Shape) -> Self {
        let sy = nx + 1;
        let sz = sy * (ny + 1);
        Self {
            field: vec![0; sz * (nz + 1)],
            sy,
            sz,
            ny,
            nz,
        }
    }

    /// Offsets of the padded rows holding samples, in coding order.
    fn row_starts(&self) -> impl Iterator<Item = usize> {
        let (sy, sz, ny) = (self.sy, self.sz, self.ny);
        (1..=self.nz).flat_map(move |k| (1..=ny).map(move |j| k * sz + j * sy))
    }

    /// The rows around the one starting at `start`, the row itself writable.
    #[inline]
    fn rows_mut(&mut self, start: usize) -> Rows<'_> {
        let (sy, sz) = (self.sy, self.sz);
        let (before, after) = self.field.split_at_mut(start);
        Rows {
            cur: &mut after[..sy],
            py: &before[start - sy..],
            pz: &before[start - sz..][..sy],
            pyz: &before[start - sz - sy..][..sy],
        }
    }
}

/// The fpzip-like codec. Stateless; the default instance is what the FPZIP
/// scoring metric uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpz;

impl FloatCodec for Fpz {
    fn name(&self) -> &'static str {
        "FPZIP"
    }

    fn encode(&self, data: &[f32], shape: Shape) -> Vec<u8> {
        let (nx, ny, nz) = shape;
        assert_eq!(data.len(), nx * ny * nz, "shape/data mismatch");
        if data.is_empty() {
            return Vec::new();
        }
        let mut ctx = Lorenzo::zeroed(shape);
        // Smooth data lands well under its raw size and noise just above
        // it; starting there leaves at most one regrowth.
        let mut w = BitWriter::with_capacity(std::mem::size_of_val(data));
        let mut prev_nbits = 0i32;
        for (start, samples) in ctx.row_starts().zip(data.chunks_exact(nx)) {
            let rows = ctx.rows_mut(start);
            for (i, &v) in (1..).zip(samples) {
                let ordered = float_to_ordered(v);
                rows.cur[i] = ordered;
                let residual = ordered.wrapping_sub(rows.predict(i)) as i32;
                let m = zigzag(residual);
                let nbits = (32 - m.leading_zeros()) as i32;
                // Counts are locally stable: delta-code them in unary.
                w.write_unary(zigzag(nbits - prev_nbits));
                prev_nbits = nbits;
                if nbits > 1 {
                    // The MSB of an nbits-wide value is always 1; skip it.
                    w.write_bits((m & !(1 << (nbits - 1))) as u64, nbits as u32 - 1);
                }
            }
        }
        w.into_bytes()
    }

    fn decode(&self, stream: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let (nx, _, _) = shape;
        let mut r = BitReader::new(stream);
        // Every sample costs at least the closing bit of its unary width
        // delta, which also bounds the padded field by the stream length.
        let n = r.at_least_a_bit_each(shape)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(n);
        let mut ctx = Lorenzo::zeroed(shape);
        let mut prev_nbits = 0i32;
        for start in ctx.row_starts() {
            let rows = ctx.rows_mut(start);
            for i in 1..=nx {
                let delta = unzigzag(r.read_unary()?);
                let nbits_i = prev_nbits + delta;
                if !(0..=32).contains(&nbits_i) {
                    return Err(CodecError::Corrupt("residual width out of range"));
                }
                prev_nbits = nbits_i;
                let nbits = nbits_i as u32;
                let m = match nbits {
                    0 => 0u32,
                    1 => 1u32,
                    _ => (r.read_bits(nbits - 1)? as u32) | (1 << (nbits - 1)),
                };
                let residual = unzigzag(m);
                rows.cur[i] = rows.predict(i).wrapping_add(residual as u32);
            }
            out.extend(rows.cur[1..].iter().map(|&m| ordered_to_float(m)));
        }
        Ok(out)
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32], shape: Shape) {
        let codec = Fpz;
        let enc = codec.encode(data, shape);
        let dec = codec.decode(&enc, shape).unwrap();
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless roundtrip violated");
        }
    }

    #[test]
    fn ordered_map_preserves_order() {
        let vals = [-1e30f32, -5.0, -1.0, -0.0, 0.0, 1e-20, 1.0, 5.0, 1e30];
        for w in vals.windows(2) {
            assert!(
                float_to_ordered(w[0]) <= float_to_ordered(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        for v in vals {
            assert_eq!(ordered_to_float(float_to_ordered(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for r in [-5i32, -1, 0, 1, 7, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag(zigzag(r)), r);
        }
    }

    #[test]
    fn roundtrip_smooth() {
        let (nx, ny, nz) = (8, 7, 5);
        let data: Vec<f32> = (0..nx * ny * nz)
            .map(|idx| {
                let i = idx % nx;
                let j = (idx / nx) % ny;
                let k = idx / (nx * ny);
                (i as f32 * 0.3 + j as f32 * 0.1 - k as f32 * 0.2).sin()
            })
            .collect();
        roundtrip(&data, (nx, ny, nz));
    }

    #[test]
    fn roundtrip_constants_and_specials() {
        roundtrip(&[0.0; 27], (3, 3, 3));
        roundtrip(&[-42.5; 27], (3, 3, 3));
        let mut data = vec![1.0f32; 27];
        data[13] = f32::MAX;
        data[5] = f32::MIN_POSITIVE;
        data[20] = -0.0;
        roundtrip(&data, (3, 3, 3));
    }

    #[test]
    fn roundtrip_single_point_and_planes() {
        roundtrip(&[3.25], (1, 1, 1));
        let plane: Vec<f32> = (0..30).map(|i| i as f32 * 0.5).collect();
        roundtrip(&plane, (6, 5, 1));
        roundtrip(&plane, (1, 6, 5));
    }

    #[test]
    fn smooth_beats_noise() {
        let shape = (8, 8, 8);
        let smooth: Vec<f32> = (0..512).map(|i| (i as f32 * 0.01).sin()).collect();
        let noise: Vec<f32> = (0..512)
            .map(|i| ((i as f32 * 12.9898).sin() * 43758.547).fract() * 100.0)
            .collect();
        let c = Fpz;
        assert!(c.encode(&smooth, shape).len() < c.encode(&noise, shape).len());
    }

    #[test]
    fn constant_block_compresses_hard() {
        let shape = (8, 8, 8);
        let data = vec![7.5f32; 512];
        let ratio = Fpz.compressed_ratio(&data, shape);
        assert!(
            ratio < 0.1,
            "constant block ratio should be tiny, got {ratio}"
        );
    }

    #[test]
    fn truncated_stream_is_error() {
        let shape = (4, 4, 4);
        let data: Vec<f32> = (0..64)
            .map(|i| ((i as f32 * 12.9898).sin() * 43758.547).fract())
            .collect();
        let enc = Fpz.encode(&data, shape);
        assert!(Fpz.decode(&enc[..enc.len() / 2], shape).is_err());
    }
}
