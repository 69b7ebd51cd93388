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
//!
//! # How a sample is written and read
//!
//! A sample is a unary run of `u = zigzag(width − previous width)` zeros,
//! the one that closes it, and `pay = width − 1` payload bits (none for a
//! width of 0 or 1). Stream bits are LSB first, so that is the integer
//! `(payload << 1 | 1) << u`, `u + 1 + pay` bits wide.
//!
//! The encoder works on the whole array in three steps: it fills the
//! padded field, computes every residual in one flat pass over it, then
//! packs the rows. The codec is lossless, so no prediction waits on a
//! coded sample: the pass reads the seven corners at fixed offsets (`1`,
//! `sy`, `sz` and their sums) behind each slot, pad slots included (their
//! residuals are never read). The packer ORs each code into a `u64`
//! register above the fewer than 8 bits it holds, stores the register
//! unaligned at its byte cursor and moves the cursor past the bytes that
//! are now whole. A code wider than 56 bits goes in 56-bit pieces: that
//! takes a width jump of 13 or more up or 26 or more down, rare
//! mid-stream, but the first sample of practically every stream is one
//! (`0.0` maps to `0x8000_0000`, so the width goes 0 → 32: `u = 64`,
//! 65 + 31 bits). The buffer grows once per row, by the row's worst case
//! (96 bits a sample) and the 8 bytes the last store touches. The
//! encoder's body is compiled twice, as it is and with AVX2, BMI1/2 and
//! LZCNT enabled; the second is picked at run time on a CPU that has
//! them. Both are the same integer code, so they emit the same bytes
//! (`tests::dispatched_encoder_is_the_portable_encoder` checks it).
//!
//! The decoder keeps the stream in a register window (`BitWindow`):
//! `have` valid bits at the bottom of a `u64`. Before each sample it ORs
//! the unaligned little-endian word at its byte cursor on top of them and
//! counts the bytes that fit whole (56..=63 bits held afterwards); the
//! byte that was cut is read again by the next refill, which is harmless
//! because ORing a stream bit onto itself changes nothing. Inside the
//! last 8 bytes it loads bytewise instead, so the window then holds every
//! bit that is left and a shortfall is an underrun, never a read past the
//! end. With the run's closing one among the first 25 bits, the run, the
//! width check, the underrun check, the payload and the advance all come
//! from that one window (`24 + 1 + 31 = 56`); a longer run is counted
//! window by window and its payload read from a fresh one.
//!
//! The decoder cannot take the flat pass, as each prediction needs the
//! samples before it, so it sums the prediction in a different order than
//! it is written above: the six terms that lie in other rows first, a
//! whole row at a time (`corner_sums` — none of them waits for a sample of
//! the row being decoded), the left neighbor last. Wrapping adds are
//! associative and commutative, so the prediction is the same bits, and
//! the chain from one sample to the next is two adds. `mod tests` keeps the
//! coder both directions replaced — seven terms in source order, a
//! `write_unary` and a `write_bits` per sample, `read_unary` and
//! `read_bits` back — as the oracle: equal bytes on 5 000 arrays, and on
//! damaged streams the same samples or the same error.

use crate::bitio::{BitReader, UNDERRUN};
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

/// For each sample column of a row, its prediction less the left neighbor:
/// the six terms of the inclusion–exclusion sum (over the unit cube behind
/// the sample) that lie in the other three rows, written to `out` (one slot
/// per sample, so `nx` long against the rows' `nx + 1`). None of them waits
/// for a sample of the row being coded, so the whole row is summed at once
/// and the caller adds the left neighbor last — wrapping sums reassociate
/// freely, so the prediction is the same bits.
#[inline]
fn corner_sums(py: &[u32], pz: &[u32], pyz: &[u32], out: &mut [u32]) {
    let n = out.len();
    let (py, pz, pyz) = (&py[..=n], &pz[..=n], &pyz[..=n]);
    for (i, sum) in out.iter_mut().enumerate() {
        *sum = py[i + 1]
            .wrapping_add(pz[i + 1])
            .wrapping_sub(py[i])
            .wrapping_sub(pz[i])
            .wrapping_sub(pyz[i + 1])
            .wrapping_add(pyz[i]);
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

    /// The padded field of `data` (non-empty, shaped `shape`).
    #[inline(always)]
    fn filled(data: &[f32], shape: Shape) -> Self {
        let mut ctx = Self::zeroed(shape);
        let nx = shape.0;
        for (start, samples) in ctx.row_starts().zip(data.chunks_exact(nx)) {
            for (ordered, &v) in ctx.field[start + 1..][..nx].iter_mut().zip(samples) {
                *ordered = float_to_ordered(v);
            }
        }
        ctx
    }

    /// The padded index of the first sample, `(0, 0, 0)`.
    fn first(&self) -> usize {
        self.sz + self.sy + 1
    }

    /// The zig-zagged residual of every padded slot from [`Self::first`] on,
    /// `[p - first]` for slot `p`. The codec is lossless, so no prediction
    /// waits on a coded sample: each is the seven corners at fixed offsets
    /// behind its slot, and the whole field is one flat pass. A pad slot's
    /// entry is computed like the rest and never read.
    #[inline(always)]
    fn residuals(&self) -> Vec<u32> {
        let (field, sy, sz, first) = (&self.field[..], self.sy, self.sz, self.first());
        let n = field.len() - first;
        let behind = |offset: usize| &field[first - offset..][..n];
        let (cur, x, y, z) = (behind(0), behind(1), behind(sy), behind(sz));
        let (xy, xz, yz, xyz) = (
            behind(1 + sy),
            behind(1 + sz),
            behind(sy + sz),
            behind(first),
        );
        (0..n)
            .map(|p| {
                let prediction = x[p]
                    .wrapping_add(y[p])
                    .wrapping_add(z[p])
                    .wrapping_sub(xy[p])
                    .wrapping_sub(xz[p])
                    .wrapping_sub(yz[p])
                    .wrapping_add(xyz[p]);
                zigzag(cur[p].wrapping_sub(prediction) as i32)
            })
            .collect()
    }
}

const WIDTH_RANGE: CodecError = CodecError::Corrupt("residual width out of range");

/// The longest unary run [`BitWindow::read_sample`] takes together with its
/// payload: `24 + 1 + 31` bits are the 56 a refill guarantees.
const SHORT_RUN: u32 = 24;

/// The decoder's view of the stream: a register of the bits at the read
/// position, topped up a word at a time.
struct BitWindow<'a> {
    stream: &'a [u8],
    /// The first byte not yet counted in `have`: the read position is bit
    /// `8 * next - have` of the stream.
    next: usize,
    /// The stream from the read position on, LSB first, `have` bits of it.
    /// A bit at or above `have` is zero or the stream's own bit there, so
    /// a refill that ORs the same byte in a second time changes nothing.
    acc: u64,
    /// `≤ 63`; after [`Self::refill`], `≥ 56` or every bit that is left.
    have: u32,
}

impl<'a> BitWindow<'a> {
    fn new(stream: &'a [u8]) -> Self {
        Self {
            stream,
            next: 0,
            acc: 0,
            have: 0,
        }
    }

    /// Top the window up to at least 56 bits, or to all that is left.
    #[inline]
    fn refill(&mut self) {
        let tail = &self.stream[self.next..];
        if let Some(word) = tail.first_chunk::<8>() {
            // The unaligned word lands on top of the held bits; only the
            // bytes that fit whole under bit 64 are counted, the cut one
            // is read again next time.
            self.acc |= u64::from_le_bytes(*word) << self.have;
            let whole = (63 - self.have) / 8;
            self.next += whole as usize;
            self.have += whole * 8;
        } else {
            for &byte in tail.iter().take(((63 - self.have) / 8) as usize) {
                self.acc |= (byte as u64) << self.have;
                self.next += 1;
                self.have += 8;
            }
        }
    }

    /// Drop `n ≤ have` bits from the front.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.have);
        self.acc >>= n;
        self.have -= n;
    }

    /// One sample: its residual's width (from the unary-coded zig-zag delta
    /// against `prev_nbits`) and the payload bits under the width's MSB.
    #[inline]
    fn read_sample(&mut self, prev_nbits: u32) -> Result<(u32, u32), CodecError> {
        self.refill();
        let run = self.acc.trailing_zeros();
        if run > SHORT_RUN {
            return self.read_sample_after_long_run(prev_nbits);
        }
        // A one at `run ≤ 24` is inside the window: a refilled window is
        // shorter than 56 bits only at the end of the stream, where
        // nothing is set above it.
        debug_assert!(run < self.have);
        let nbits = width_after(prev_nbits, run as usize)?;
        let pay = nbits.saturating_sub(1);
        let used = run + 1 + pay;
        if used > self.have {
            return Err(UNDERRUN);
        }
        let payload = (self.acc >> (run + 1)) as u32 & ((1 << pay) - 1);
        self.consume(used);
        Ok((nbits, payload))
    }

    /// [`Self::read_sample`] when no one shows in the window's first 25
    /// bits: the run is counted window by window, then the payload read
    /// from a fresh one. (Legal runs end at 64; the first sample of most
    /// streams, whose width jumps from 0 to 32, has exactly that.)
    #[cold]
    fn read_sample_after_long_run(&mut self, prev_nbits: u32) -> Result<(u32, u32), CodecError> {
        let mut zeros = 0usize;
        loop {
            if self.have == 0 {
                return Err(UNDERRUN);
            }
            let run = self.acc.trailing_zeros();
            if run < self.have {
                zeros += run as usize;
                self.consume(run + 1);
                break;
            }
            zeros += self.have as usize;
            self.consume(self.have);
            self.refill();
        }
        let nbits = width_after(prev_nbits, zeros)?;
        let pay = nbits.saturating_sub(1);
        self.refill();
        if pay > self.have {
            return Err(UNDERRUN);
        }
        let payload = self.acc as u32 & ((1 << pay) - 1);
        self.consume(pay);
        Ok((nbits, payload))
    }
}

/// The width a unary run of `run` zeros moves `prev_nbits` to, refused
/// outside `0..=32`.
#[inline]
fn width_after(prev_nbits: u32, run: usize) -> Result<u32, CodecError> {
    // The zig-zag of ±32: no legal run is longer, and none that is longer
    // lands in range from a width that is.
    if run > 64 {
        return Err(WIDTH_RANGE);
    }
    let nbits = prev_nbits as i32 + unzigzag(run as u32);
    if !(0..=32).contains(&nbits) {
        return Err(WIDTH_RANGE);
    }
    Ok(nbits as u32)
}

/// The encoder's output: stream bits LSB first. Every byte before `pos` is
/// final; the `pending < 8` bits after them are the bottom of `acc`, every
/// bit above them zero, and sit at `out[pos]` too.
struct Packer {
    out: Vec<u8>,
    pos: usize,
    acc: u64,
    pending: u32,
}

/// The widest code a sample takes: a unary run of 64 (a width jump
/// 0 → 32), its closing one and 31 payload bits.
const WIDEST_CODE_BYTES: usize = 96 / 8;

impl Packer {
    fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            pos: 0,
            acc: 0,
            pending: 0,
        }
    }

    /// Room for `samples` codes of the widest kind, and for the 8-byte
    /// store after the last of them.
    #[inline(always)]
    fn reserve(&mut self, samples: usize) {
        let end = self.pos + samples * WIDEST_CODE_BYTES + 8;
        if self.out.len() < end {
            self.out.resize(end, 0);
        }
    }

    /// Append `code`, `width ≤ 56` bits wide (nothing set above them). The
    /// register is stored whole at the byte cursor, which then moves past
    /// the bytes it completed: at most 63 bits are held, so neither shift
    /// reaches 64.
    #[inline(always)]
    fn put(&mut self, code: u64, width: u32) {
        debug_assert!(width <= 56 && code >> width == 0);
        self.acc |= code << self.pending;
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        let total = self.pending + width;
        self.pos += (total / 8) as usize;
        self.acc >>= total & !7;
        self.pending = total % 8;
    }

    /// [`Self::put`] for a code wider than 56 bits (at most 96), in 56-bit
    /// pieces. (The first sample of practically every stream takes this.)
    /// Inlined too: a call would take the packer's address and keep its
    /// fields out of registers for the whole loop.
    #[inline(always)]
    fn put_wide(&mut self, mut code: u128, mut width: u32) {
        while width > 0 {
            let piece = width.min(56);
            self.put(code as u64 & ((1 << piece) - 1), piece);
            code >>= piece;
            width -= piece;
        }
    }

    /// The stream, its last byte zero-padded.
    fn finish(mut self) -> Vec<u8> {
        self.out
            .truncate(self.pos + self.pending.div_ceil(8) as usize);
        self.out
    }
}

/// [`Fpz`]'s encoder, in three steps over the whole array: the padded field
/// ([`Lorenzo::filled`]), every residual in one flat pass
/// ([`Lorenzo::residuals`]), then the packer over the rows. Compiled here
/// as it is and again, for CPUs that have them, with AVX2, BMI1/2 and LZCNT
/// enabled (`x86::encode`); the source is the same integer code, so the
/// bytes are. It, the two steps and the packer's writes are
/// `#[inline(always)]`, so the second copy's loops are compiled with
/// those features.
#[inline(always)]
fn encode_body(data: &[f32], shape: Shape) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let nx = shape.0;
    let ctx = Lorenzo::filled(data, shape);
    let magnitudes = ctx.residuals();
    // Smooth data lands well under its raw size and noise an eighth above
    // it (≈ 36 bits a sample): room for either, and for the last row's
    // worst case, without regrowth. What is left over is where a store
    // chunk's tag byte goes.
    let raw = std::mem::size_of_val(data);
    let mut packer = Packer::with_capacity(raw + raw / 8 + nx * WIDEST_CODE_BYTES + 16);
    let mut prev_nbits = 0u32;
    for start in ctx.row_starts() {
        packer.reserve(nx);
        for &m in &magnitudes[start + 1 - ctx.first()..][..nx] {
            let nbits = 32 - m.leading_zeros();
            // Counts are locally stable: delta-code them in unary.
            let unary = zigzag(nbits as i32 - prev_nbits as i32);
            prev_nbits = nbits;
            // The MSB of an nbits-wide value is always 1; skip it.
            let pay = nbits.saturating_sub(1);
            let payload = m & ((1 << pay) - 1);
            // The run's closing one under the payload, one code.
            let width = unary + 1 + pay;
            if width <= 56 {
                packer.put((u64::from(payload) << 1 | 1) << unary, width);
            } else {
                packer.put_wide((u128::from(payload) << 1 | 1) << unary, width);
            }
        }
    }
    packer.finish()
}

/// [`encode_body`] compiled for AVX2, BMI1/2 and LZCNT, picked at run time.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::Shape;

    /// The stream of `data` if this CPU has the features, else `None`.
    pub(super) fn encode(data: &[f32], shape: Shape) -> Option<Vec<u8>> {
        let supported = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("bmi1")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("lzcnt");
        supported.then(|| {
            // SAFETY: the CPU was just found to support every feature
            // `kernel` enables.
            unsafe { kernel(data, shape) }
        })
    }

    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt")]
    fn kernel(data: &[f32], shape: Shape) -> Vec<u8> {
        super::encode_body(data, shape)
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
        #[cfg(target_arch = "x86_64")]
        if let Some(stream) = x86::encode(data, shape) {
            return stream;
        }
        encode_body(data, shape)
    }

    fn decode(&self, stream: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        // Every sample costs at least the closing bit of its unary width
        // delta, which also bounds the padded field by the stream length.
        let n = BitReader::new(stream).at_least_a_bit_each(shape)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(n);
        let mut ctx = Lorenzo::zeroed(shape);
        let mut bits = BitWindow::new(stream);
        let mut prev_nbits = 0u32;
        for start in ctx.row_starts() {
            let Rows { cur, py, pz, pyz } = ctx.rows_mut(start);
            let row = &mut cur[1..];
            corner_sums(py, pz, pyz, row);
            let mut left = 0u32;
            for slot in row.iter_mut() {
                let (nbits, payload) = bits.read_sample(prev_nbits)?;
                prev_nbits = nbits;
                // Put back the skipped MSB (a 0-wide residual has none).
                let m = payload | ((1u64 << nbits) >> 1) as u32;
                left = slot.wrapping_add(left).wrapping_add(unzigzag(m) as u32);
                *slot = left;
            }
            out.extend(row.iter().map(|&m| ordered_to_float(m)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use apc_par::SplitMix64;

    /// The per-sample coder the fused one replaced, kept as the reference:
    /// the seven-term prediction in source order, a `write_unary` and a
    /// `write_bits` call per sample one way, `read_unary` and `read_bits`
    /// the other. It shares the padded field and nothing of the coding.
    fn predict_oracle(rows: &Rows<'_>, i: usize) -> u32 {
        rows.cur[i - 1]
            .wrapping_add(rows.py[i])
            .wrapping_add(rows.pz[i])
            .wrapping_sub(rows.py[i - 1])
            .wrapping_sub(rows.pz[i - 1])
            .wrapping_sub(rows.pyz[i])
            .wrapping_add(rows.pyz[i - 1])
    }

    fn encode_oracle(data: &[f32], shape: Shape) -> Vec<u8> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut ctx = Lorenzo::zeroed(shape);
        let mut w = BitWriter::new();
        let mut prev_nbits = 0i32;
        for (start, samples) in ctx.row_starts().zip(data.chunks_exact(shape.0)) {
            let rows = ctx.rows_mut(start);
            for (i, &v) in (1..).zip(samples) {
                let ordered = float_to_ordered(v);
                rows.cur[i] = ordered;
                let m = zigzag(ordered.wrapping_sub(predict_oracle(&rows, i)) as i32);
                let nbits = (32 - m.leading_zeros()) as i32;
                w.write_unary(zigzag(nbits - prev_nbits));
                prev_nbits = nbits;
                if nbits > 1 {
                    w.write_bits((m & !(1 << (nbits - 1))) as u64, nbits as u32 - 1);
                }
            }
        }
        w.into_bytes()
    }

    fn decode_oracle(stream: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let mut r = BitReader::new(stream);
        let n = r.at_least_a_bit_each(shape)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(n);
        let mut ctx = Lorenzo::zeroed(shape);
        let mut prev_nbits = 0i32;
        for start in ctx.row_starts() {
            let rows = ctx.rows_mut(start);
            for i in 1..=shape.0 {
                let nbits = prev_nbits + unzigzag(r.read_unary()?);
                if !(0..=32).contains(&nbits) {
                    return Err(WIDTH_RANGE);
                }
                prev_nbits = nbits;
                let m = match nbits as u32 {
                    0 => 0u32,
                    1 => 1u32,
                    nbits => (r.read_bits(nbits - 1)? as u32) | (1 << (nbits - 1)),
                };
                rows.cur[i] = predict_oracle(&rows, i).wrapping_add(unzigzag(m) as u32);
            }
            out.extend(rows.cur[1..].iter().map(|&m| ordered_to_float(m)));
        }
        Ok(out)
    }

    /// A point, the shortest row with a left neighbor, a long row, the
    /// replay pool's frames, the store's chunks.
    const ORACLE_SHAPES: [Shape; 5] = [(1, 1, 1), (3, 1, 1), (64, 1, 1), (40, 40, 1), (11, 11, 19)];

    /// `n` samples of one of six kinds, from dBZ-like noise (≈ 36 bits a
    /// sample) to raw bit patterns next to zeros (widths swinging by up to
    /// 32 either way, so unary runs of every length up to 64).
    fn oracle_array(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
        let any_bits = |rng: &mut SplitMix64| f32::from_bits(rng.next_u64() as u32);
        match rng.below(6) {
            0 => (0..n).map(|_| rng.range_f32(-60.0, 75.0)).collect(),
            1 => {
                let step = rng.range_f32(0.001, 0.5);
                let wobble = rng.range_f32(0.0, 1e-3);
                (0..n)
                    .map(|i| {
                        (i as f32 * step).sin() * 40.0 + rng.range_f32(-wobble, wobble.max(1e-9))
                    })
                    .collect()
            }
            2 => (0..n).map(|_| any_bits(rng)).collect(),
            3 => (0..n)
                .map(|_| {
                    if rng.below(8) == 0 {
                        rng.range_f32(-60.0, 75.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
            4 => {
                let levels = rng.below(4) + 1;
                (0..n).map(|_| rng.below(levels) as f32 * 12.5).collect()
            }
            _ => (0..n)
                .map(|_| {
                    if rng.below(2) == 0 {
                        any_bits(rng)
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    fn oracle_cases(count: usize) -> impl Iterator<Item = (usize, Shape, Vec<f32>)> {
        let mut rng = SplitMix64::new(0xF2_0AC1E);
        (0..count).map(move |case| {
            let shape = ORACLE_SHAPES[rng.below(ORACLE_SHAPES.len())];
            (
                case,
                shape,
                oracle_array(&mut rng, shape.0 * shape.1 * shape.2),
            )
        })
    }

    fn bits_of(decoded: Result<Vec<f32>, CodecError>) -> Result<Vec<u32>, CodecError> {
        decoded.map(|samples| samples.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn fused_coder_emits_the_oracle_bytes() {
        for (case, shape, data) in oracle_cases(5_000) {
            let stream = Fpz.encode(&data, shape);
            assert_eq!(stream, encode_oracle(&data, shape), "case {case} {shape:?}");
            let expected: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits_of(Fpz.decode(&stream, shape)),
                Ok(expected),
                "case {case} {shape:?}"
            );
        }
    }

    /// Arrays whose residual widths alternate 32 ↔ 0 along a row: ordered
    /// values `0x8000_0000` (0.0) and `0xE000_0000`, each twice, so every
    /// jump up is a 96-bit code and every drop a 64-bit one.
    fn widest_codes(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ordered_to_float([0x8000_0000, 0xE000_0000][i / 2 % 2]))
            .collect()
    }

    #[test]
    fn dispatched_encoder_is_the_portable_encoder() {
        #[cfg(target_arch = "x86_64")]
        if x86::encode(&[], (0, 0, 0)).is_some() {
            let mut rng = SplitMix64::new(0xD15_9A7C4);
            let mut cases: Vec<(Shape, Vec<f32>)> = oracle_cases(5_000)
                .map(|(_, shape, data)| (shape, data))
                .collect();
            for n in 0..=17 {
                for shape in [(n, 1, 1), (1, n, 1), (1, 1, n)] {
                    cases.push((shape, oracle_array(&mut rng, n)));
                }
            }
            // Rows of 200+ samples; with the widest codes they outgrow the
            // buffer's first capacity mid-stream.
            for shape in [(203, 3, 2), (257, 1, 1), (512, 2, 1)] {
                for _ in 0..6 {
                    let n = shape.0 * shape.1 * shape.2;
                    cases.push((shape, oracle_array(&mut rng, n)));
                }
                cases.push((shape, widest_codes(shape.0 * shape.1 * shape.2)));
            }
            // NaN and ±inf planted at the front, the middle and the back.
            let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for shape in [(11, 11, 19), (40, 40, 1), (17, 1, 1)] {
                for special in specials {
                    let n = shape.0 * shape.1 * shape.2;
                    let mut data = oracle_array(&mut rng, n);
                    for at in [0, n / 2, n - 1] {
                        data[at] = special;
                    }
                    cases.push((shape, data));
                }
            }
            for (shape, data) in &cases {
                let portable = encode_body(data, *shape);
                assert_eq!(
                    x86::encode(data, *shape),
                    Some(portable),
                    "{shape:?} on {:?}",
                    &data[..data.len().min(17)]
                );
            }
            return;
        }
        eprintln!("skipped: this CPU has no AVX2/BMI2/LZCNT encoder to compare");
    }

    /// The error contract no byte pin covers: on a damaged stream the window
    /// decoder returns what the reference returns — the same samples bit for
    /// bit, or the same error.
    #[test]
    fn window_decoder_returns_the_oracle_result_on_damaged_streams() {
        let agree = |stream: &[u8], shape: Shape, what: &dyn Fn() -> String| {
            let (got, expected) = (Fpz.decode(stream, shape), decode_oracle(stream, shape));
            assert_eq!(bits_of(got), bits_of(expected), "{}", what());
        };
        let mut rng = SplitMix64::new(0xDA_3A6ED);
        for (case, shape, data) in oracle_cases(5_000).step_by(25) {
            let stream = Fpz.encode(&data, shape);
            let bits = stream.len() * 8;
            // Every truncated prefix. The unoptimised build, where a long
            // stream decodes slowly, takes every cut near both ends of one
            // and 64 seeded cuts between.
            let every_cut = stream.len() <= 1024 || !cfg!(debug_assertions);
            for cut in 0..stream.len() {
                let near_an_end = cut < 32 || stream.len() - cut <= 32;
                if every_cut || near_an_end || rng.below(stream.len()) < 64 {
                    agree(&stream[..cut], shape, &|| {
                        format!("case {case} {shape:?} cut at {cut}")
                    });
                }
            }
            // Every single-bit flip in the first and the last 64 bits, and
            // ten seeded flips anywhere (2 000 over the 200 streams).
            let ends = (0..bits.min(64)).chain(bits.saturating_sub(64)..bits);
            let seeded: Vec<usize> = (0..10).map(|_| rng.below(bits)).collect();
            for bit in ends.chain(seeded) {
                let mut damaged = stream.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                agree(&damaged, shape, &|| {
                    format!("case {case} {shape:?} bit {bit} flipped")
                });
            }
        }
    }

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
