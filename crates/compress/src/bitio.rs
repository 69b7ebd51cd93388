//! Bit-granular I/O over byte buffers, shared by the codecs.
//!
//! The layout is LSB-first: bit `b` of the stream is bit `b % 8` of byte
//! `b / 8`, and a multi-bit value occupies consecutive stream bits starting
//! with its least significant one. That makes a run of stream bits equal to
//! a little-endian integer, so both ends move a word at a time:
//!
//! * [`BitWriter`] ORs values into a `u64` accumulator and appends it to
//!   the buffer, as one whole word, only when a write fills it; the bits
//!   of that write the word had no room for start the next one. The
//!   invariant between calls is **fewer than 64 pending bits**, with every
//!   accumulator bit above them zero, so the buffer holds whole words
//!   until [`BitWriter::into_bytes`] appends the pending bits' bytes.
//! * [`BitReader`] peeks the unaligned little-endian `u64` at its byte
//!   position — zero-extended inside the last 8 bytes of the buffer — and
//!   shifts/masks the answer out of it. Underrun is checked against
//!   [`BitReader::remaining`] before any bit is consumed, so the zero
//!   extension is never mistaken for data.
//!
//! The emitted bytes are pinned by `tests/format_pin.rs`.

use crate::CodecError;

pub(crate) const UNDERRUN: CodecError = CodecError::Corrupt("bitstream underrun");

/// Append-only bit writer (LSB-first within each byte).
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, LSB first; zero at and above bit `pending`.
    acc: u64,
    /// Bits held in `acc`; `< 64` between calls.
    pending: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    // apc-lint: allow(dead-pub): mask_coder_emits_the_oracle_bits checks the decoder reads exactly these
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.pending as usize
    }

    /// Write the low `n` bits of `value` (n ≤ 64), LSB first.
    #[inline]
    pub fn write_bits(&mut self, mut value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n < 64 {
            value &= (1u64 << n) - 1;
        }
        // `pending < 64`, so the shift is in range; the bits of `value` it
        // pushes past bit 63 are re-read from `value` once the word is out.
        self.acc |= value << self.pending;
        let total = self.pending + n;
        if total >= 64 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            // The accumulator took `64 - pending` bits. With nothing
            // pending that is all of `value` (and a shift by 64).
            self.acc = value.checked_shr(64 - self.pending).unwrap_or(0);
            self.pending = total - 64;
        } else {
            self.pending = total;
        }
    }

    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Unary code: `value` zero bits then a one bit.
    #[inline]
    pub fn write_unary(&mut self, mut value: u32) {
        while value >= 64 {
            self.write_bits(0, 64);
            value -= 64;
        }
        self.write_bits(1u64 << value, value + 1);
    }

    /// Finish and return the byte buffer (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let bytes = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.buf
    }
}

/// Bit reader matching [`BitWriter`]'s layout.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bits remaining (counting zero padding in the final byte).
    pub fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// The stream bits from the current position on, LSB first: at least
    /// 57 of them, fewer only where the buffer ends (zeros from there).
    #[inline]
    fn peek(&self) -> u64 {
        let tail = &self.buf[self.pos / 8..];
        let word = match tail.first_chunk::<8>() {
            Some(bytes) => u64::from_le_bytes(*bytes),
            None => {
                let mut bytes = [0u8; 8];
                bytes[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(bytes)
            }
        };
        word >> (self.pos % 8)
    }

    /// The number of units in a `counts.0 × counts.1 × counts.2` grid when
    /// the stream spends at least one bit on each: the underrun their
    /// decode would end in if the count overflows or exceeds the bits
    /// left. Decoders ask before allocating for a caller-supplied shape.
    pub fn at_least_a_bit_each(&self, counts: crate::Shape) -> Result<usize, CodecError> {
        crate::checked_volume(counts)
            .filter(|&n| n <= self.remaining())
            .ok_or(UNDERRUN)
    }

    /// Read `n` bits (n ≤ 64), LSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if self.remaining() < n as usize {
            return Err(UNDERRUN);
        }
        let mut out = self.peek();
        let off = (self.pos % 8) as u32;
        if off + n > 64 {
            // The value straddles nine bytes; `remaining() >= n` says the
            // ninth exists, and `off > 0` keeps the shift in range.
            out |= (self.buf[self.pos / 8 + 8] as u64) << (64 - off);
        }
        if n < 64 {
            out &= (1u64 << n) - 1;
        }
        self.pos += n as usize;
        Ok(out)
    }

    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Read a unary code written by [`BitWriter::write_unary`].
    #[inline]
    pub fn read_unary(&mut self) -> Result<u32, CodecError> {
        let mut zeros = 0usize;
        loop {
            let window = (64 - self.pos % 8).min(self.remaining());
            if window == 0 {
                return Err(UNDERRUN);
            }
            let run = self.peek().trailing_zeros() as usize;
            if run < window {
                self.pos += run + 1;
                // A run past `u32::MAX` (512 MiB of zero bytes) saturates;
                // every caller rejects a count that large.
                return Ok(u32::try_from(zeros + run).unwrap_or(u32::MAX));
            }
            self.pos += window;
            zeros += window;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_par::SplitMix64;

    /// The layout, one bit at a time: stream bit `b` is bit `b % 8` of
    /// byte `b / 8`. Everything above is checked against these two.
    #[derive(Default)]
    struct BitOracle(Vec<bool>);

    impl BitOracle {
        fn write(&mut self, value: u64, n: u32) {
            self.0.extend((0..n).map(|i| value >> i & 1 != 0));
        }

        fn bytes(&self) -> Vec<u8> {
            let fold = |byte: &[bool]| (0..byte.len()).fold(0, |b, i| b | (byte[i] as u8) << i);
            self.0.chunks(8).map(fold).collect()
        }
    }

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 0);
        w.write_bits(0x12345678_9ABCDEF0, 64);
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(64).unwrap(), 0x12345678_9ABCDEF0);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn every_offset_and_width_matches_the_per_bit_oracle() {
        let mut rng = SplitMix64::new(0xB170);
        // Every state the writer can be in between calls: 0..64 pending
        // bits. Width 0 is in the sweep: a no-op at every one of them.
        for offset in 0..64u32 {
            for width in 0..=64u32 {
                // Lead-in, the value under test (unmasked: the writer must
                // drop the bits above `width`), then a value behind it.
                let fields = [
                    (rng.next_u64(), offset),
                    (rng.next_u64(), width),
                    (rng.next_u64(), 13),
                ];
                let mut w = BitWriter::new();
                let mut oracle = BitOracle::default();
                for (value, n) in fields {
                    w.write_bits(value, n);
                    oracle.write(value, n);
                    assert_eq!(w.bit_len(), oracle.0.len(), "{offset}+{width}");
                }
                let bytes = w.into_bytes();
                assert_eq!(bytes, oracle.bytes(), "{offset}+{width}: bytes");

                let mut r = BitReader::new(&bytes);
                for (value, n) in fields {
                    let mask = if n == 64 { u64::MAX } else { (1 << n) - 1 };
                    assert_eq!(r.read_bits(n).unwrap(), value & mask, "{offset}+{width}");
                }
                assert!(r.remaining() < 8, "{offset}+{width}: only padding is left");
            }
        }
    }

    #[test]
    fn unary_roundtrip() {
        // 55..=57 straddle the reader's guaranteed 57-bit window, 63/64
        // the writer's one-word code, 200 takes several windows; over the
        // 64 lead-ins each run meets every writer state.
        let runs = [0u32, 1, 5, 13, 40, 55, 56, 57, 63, 64, 200];
        for offset in 0..64u32 {
            let mut w = BitWriter::new();
            let mut oracle = BitOracle::default();
            w.write_bits(0, offset);
            oracle.write(0, offset);
            for v in runs {
                w.write_unary(v);
                (0..v).for_each(|_| oracle.write(0, 1));
                oracle.write(1, 1);
            }
            let bytes = w.into_bytes();
            assert_eq!(bytes, oracle.bytes(), "offset {offset}");
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(offset).unwrap(), 0);
            for v in runs {
                assert_eq!(r.read_unary().unwrap(), v, "offset {offset}");
            }
        }
    }

    #[test]
    fn reads_inside_the_last_eight_bytes_see_the_data_not_the_zero_extension() {
        let mut rng = SplitMix64::new(0xB171);
        for len in 1..=9usize {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8 | 0x80).collect();
            let bit = |b: usize| bytes[b / 8] >> (b % 8) & 1 != 0;
            for start in 0..len * 8 {
                for n in 0..=(len * 8 - start).min(64) {
                    let mut r = BitReader::new(&bytes);
                    r.pos = start;
                    let expect = (0..n).fold(0u64, |v, i| v | (bit(start + i) as u64) << i);
                    assert_eq!(r.read_bits(n as u32).unwrap(), expect, "{len}/{start}/{n}");
                }
                let mut r = BitReader::new(&bytes);
                r.pos = start;
                // Every byte has its top bit set, so a one always follows.
                let zeros = (start..).take_while(|&b| !bit(b)).count();
                assert_eq!(r.read_unary().unwrap() as usize, zeros, "{len}/{start}");
                assert_eq!(r.pos, start + zeros + 1);
            }
        }
    }

    /// A writer with `pending` random bits written, and their oracle.
    fn with_pending(pending: u32, rng: &mut SplitMix64) -> (BitWriter, BitOracle) {
        let (mut w, mut oracle) = (BitWriter::new(), BitOracle::default());
        let lead_in = rng.next_u64();
        w.write_bits(lead_in, pending);
        oracle.write(lead_in, pending);
        (w, oracle)
    }

    #[test]
    fn bit_len_counts_across_a_filled_accumulator() {
        let mut rng = SplitMix64::new(0xB172);
        for pending in 0..64u32 {
            // One bit short of the word, the word exactly, one bit over.
            for width in (63 - pending..=65 - pending).filter(|w| *w <= 64) {
                let (mut w, mut oracle) = with_pending(pending, &mut rng);
                assert_eq!(w.bit_len(), pending as usize);
                let value = rng.next_u64();
                w.write_bits(value, width);
                oracle.write(value, width);
                assert_eq!(w.bit_len(), (pending + width) as usize, "{pending}+{width}");
                assert_eq!(w.into_bytes(), oracle.bytes(), "{pending}+{width}");
            }
        }
    }

    #[test]
    fn into_bytes_pads_the_pending_bits_to_whole_bytes() {
        let mut rng = SplitMix64::new(0xB173);
        for words in 0..2u32 {
            for pending in [0u32, 1, 7, 8, 9, 63] {
                let (mut w, mut oracle) = with_pending(pending, &mut rng);
                for _ in 0..words {
                    let value = rng.next_u64();
                    w.write_bits(value, 64);
                    oracle.write(value, 64);
                }
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), (words * 8 + pending.div_ceil(8)) as usize);
                assert_eq!(bytes, oracle.bytes(), "{words} words + {pending}");
            }
        }
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn underrun_at_every_position_is_corrupt() {
        let bytes = [0u8, 0, 0xA0];
        for start in 0..=bytes.len() * 8 {
            let left = bytes.len() * 8 - start;
            for n in 0..=64usize {
                let mut r = BitReader::new(&bytes);
                r.pos = start;
                let got = r.read_bits(n as u32);
                if n <= left {
                    assert!(got.is_ok(), "{start}+{n}");
                } else {
                    assert_eq!(got, Err(UNDERRUN), "{start}+{n}");
                    assert_eq!(r.pos, start, "a refused read consumes nothing");
                }
            }
            // Ones sit at stream bits 21 and 23; past the last, a unary
            // code runs off the end into the same error.
            let mut r = BitReader::new(&bytes);
            r.pos = start;
            match r.read_unary() {
                Ok(zeros) => assert!(start + zeros as usize == 21 || start + zeros as usize == 23),
                Err(e) => {
                    assert!(start > 23, "{start}");
                    assert_eq!(e, UNDERRUN);
                }
            }
        }
        assert_eq!(BitReader::new(&[]).read_bit(), Err(UNDERRUN));
        assert_eq!(BitReader::new(&[]).read_unary(), Err(UNDERRUN));
        assert_eq!(BitReader::new(&[]).read_bits(0), Ok(0));
    }

    #[test]
    fn write_masks_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits must land
        w.write_bits(0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x0F]);
    }
}
