//! The frame-serving wire protocol.
//!
//! Clients send a [`FrameRequest`] and block for the matching
//! [`FrameReply`] over the `apc_comm::bounded` serve endpoints
//! ([`apc_comm::ServeClient`] / [`apc_comm::ServeServer`]). Requests
//! cross as their **encoded bytes**: [`FrameRequest::decode`] is the
//! server's trust boundary. Replies cross in process as typed
//! [`FrameReply`]s, metered at [`FrameReply::wire_len`] — exactly the
//! length [`FrameReply::encode`] would produce — so either way the
//! virtual wire cost is the encoded length under the ordinary `NetModel`
//! accounting. Replies ship frames as their *encoded* streams: the server
//! never decodes (a cache or store read is a byte copy), the client
//! verifies each frame ([`crate::ReplyChecker`]). [`FrameReply::decode`]
//! stays the total parser of the reply wire form; the serving executors
//! `debug_assert!` that every reply they send survives it
//! ([`FrameReply::wire_round_trips`]).
//!
//! What happens when a request races frame production is the
//! [`ServePolicy`]'s call:
//!
//! * [`ServePolicy::WaitForFrame`] — the reply is deferred, in virtual
//!   time, until the requested frame has been rendered; the wait shows up
//!   in the client's measured service latency.
//! * [`ServePolicy::BestEffort`] — the server answers immediately with
//!   the newest frame it has (flagged `exact = false`), or
//!   [`FrameReply::NotYet`] when it has nothing.

use apc_compress::Zfpx;

use crate::ServeError;

/// The frame coordinate within a run: `(iteration, stager)`.
pub type FrameKey = (u64, u32);

/// What a client asks a serving stager for. Iterations are simulation
/// iteration numbers (the frame key), not frame indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRequest {
    /// The newest frame the stager has rendered.
    Latest,
    /// The frame of one specific iteration.
    AtIteration(u64),
    /// Every frame in an inclusive iteration window.
    Range { start: u64, end: u64 },
}

/// Wire tags of the request encoding (one byte, then LE u64 operands).
const TAG_LATEST: u8 = 1;
const TAG_AT: u8 = 2;
const TAG_RANGE: u8 = 3;

impl FrameRequest {
    /// Serialize to the one-byte-tag + LE-operand wire form (1, 9 or 17
    /// bytes).
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            FrameRequest::Latest => vec![TAG_LATEST],
            FrameRequest::AtIteration(it) => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_AT);
                out.extend_from_slice(&it.to_le_bytes());
                out
            }
            FrameRequest::Range { start, end } => {
                let mut out = Vec::with_capacity(17);
                out.push(TAG_RANGE);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
                out
            }
        }
    }

    /// Parse a request off the wire. Decoding is total — truncated,
    /// oversized, bit-flipped, or semantically invalid bytes (a `Range`
    /// with `start > end`, which no well-behaved client can produce) come
    /// back as [`ServeError::Corrupt`], never as a panic and never as a
    /// request the server would have to defend against downstream.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let Some((&tag, rest)) = bytes.split_first() else {
            return Err(ServeError::Corrupt("empty frame request".into()));
        };
        let u64_at = |o: usize| -> Result<u64, ServeError> {
            rest.get(o..o + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| {
                    ServeError::Corrupt(format!(
                        "frame request truncated: {} payload bytes",
                        rest.len()
                    ))
                })
        };
        let exact_len = |want: usize| -> Result<(), ServeError> {
            if rest.len() == want {
                Ok(())
            } else {
                Err(ServeError::Corrupt(format!(
                    "frame request payload is {} bytes, tag {tag} takes {want}",
                    rest.len()
                )))
            }
        };
        match tag {
            TAG_LATEST => {
                exact_len(0)?;
                Ok(FrameRequest::Latest)
            }
            TAG_AT => {
                exact_len(8)?;
                Ok(FrameRequest::AtIteration(u64_at(0)?))
            }
            TAG_RANGE => {
                exact_len(16)?;
                let start = u64_at(0)?;
                let end = u64_at(8)?;
                if start > end {
                    return Err(ServeError::Corrupt(format!(
                        "frame request range is inverted: start {start} > end {end}"
                    )));
                }
                Ok(FrameRequest::Range { start, end })
            }
            other => Err(ServeError::Corrupt(format!(
                "unknown frame request tag {other}"
            ))),
        }
    }
}

/// How faithfully a served frame reproduces what the stager rendered.
///
/// The adaptive serving executor walks this ladder under latency
/// pressure: a `BudgetController` over the stager's observed reply
/// latencies emits a reduction percent, and [`Fidelity::for_percent`]
/// maps it to the cheapest reply that still meets the budget. The tag
/// rides the wire with every [`ServedFrame`] so clients (and tests) can
/// attribute degradation instead of inferring it from byte counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// The stream exactly as rendered and persisted.
    Full,
    /// Re-encoded through `Zfpx { tolerance }`: every pixel survives but
    /// only to within [`Zfpx::ERROR_ENVELOPE`]` × tolerance` absolute
    /// error (4× — `tolerance` is the codec's per-coefficient cut, not
    /// its per-pixel bound).
    Lossy { tolerance: f32 },
    /// Score-ranked block dropping: only the top `keep_percent` of
    /// pixels (by reflectivity score) survive, the rest are zeroed, and
    /// the result is re-encoded through `Zfpx { tolerance }` (runs of
    /// zeros compress to almost nothing); survivors are within
    /// [`Zfpx::ERROR_ENVELOPE`]` × tolerance` like `Lossy` ones.
    Dropped { keep_percent: f32, tolerance: f32 },
    /// Provenance only: a 0×0 frame whose header still names the
    /// iteration, stager, triangle count and reduction percent.
    HeaderOnly,
}

/// Wire tags of the fidelity encoding (one byte, then LE f32 operands).
const FID_FULL: u8 = 0;
const FID_LOSSY: u8 = 1;
const FID_DROPPED: u8 = 2;
const FID_HEADER_ONLY: u8 = 3;

impl Fidelity {
    /// Reduction percent (0 = no pressure, 100 = shed everything) →
    /// ladder rung. The bands are chosen so the controller's usual
    /// operating points land on distinct rungs:
    ///
    /// | percent   | fidelity                                                  |
    /// |-----------|-----------------------------------------------------------|
    /// | ≤ 0.5     | `Full`                                                    |
    /// | 0.5 – 50  | `Lossy`, tolerance [`Zfpx::graded_tolerance`]`(p)`        |
    /// | 50 – 90   | `Dropped`, keep `100 − p` %, tolerance `1e-1`             |
    /// | > 90      | `HeaderOnly`                                              |
    pub fn for_percent(percent: f64) -> Self {
        let p = if percent.is_finite() {
            percent.clamp(0.0, 100.0)
        } else {
            100.0
        };
        if p <= 0.5 {
            Fidelity::Full
        } else if p <= 50.0 {
            Fidelity::Lossy {
                tolerance: Zfpx::graded_tolerance(p),
            }
        } else if p <= 90.0 {
            Fidelity::Dropped {
                keep_percent: (100.0 - p) as f32,
                tolerance: 1e-1,
            }
        } else {
            Fidelity::HeaderOnly
        }
    }

    /// Short stable name for CSV/report rows.
    pub fn name(&self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Lossy { .. } => "lossy",
            Fidelity::Dropped { .. } => "dropped",
            Fidelity::HeaderOnly => "header-only",
        }
    }

    /// Ladder rung index: 0 = full … 3 = header-only. Orders fidelities
    /// by severity without comparing codec parameters.
    pub fn rung(&self) -> u8 {
        match self {
            Fidelity::Full => 0,
            Fidelity::Lossy { .. } => 1,
            Fidelity::Dropped { .. } => 2,
            Fidelity::HeaderOnly => 3,
        }
    }

    /// The more degraded of two fidelities (by rung).
    pub fn worst(self, other: Self) -> Self {
        if other.rung() > self.rung() {
            other
        } else {
            self
        }
    }

    /// Bytes `encode_into` writes: the tag plus its f32 operands.
    fn wire_len(&self) -> usize {
        match self {
            Fidelity::Full | Fidelity::HeaderOnly => 1,
            Fidelity::Lossy { .. } => 1 + 4,
            Fidelity::Dropped { .. } => 1 + 4 + 4,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Fidelity::Full => out.push(FID_FULL),
            Fidelity::Lossy { tolerance } => {
                out.push(FID_LOSSY);
                out.extend_from_slice(&tolerance.to_le_bytes());
            }
            Fidelity::Dropped {
                keep_percent,
                tolerance,
            } => {
                out.push(FID_DROPPED);
                out.extend_from_slice(&keep_percent.to_le_bytes());
                out.extend_from_slice(&tolerance.to_le_bytes());
            }
            Fidelity::HeaderOnly => out.push(FID_HEADER_ONLY),
        }
    }
}

/// One served frame: the encoded stream plus its coordinates, whether
/// the serving stager answered it from the hot cache, and at what
/// fidelity the stager shipped it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedFrame {
    pub iteration: u64,
    pub stager: u32,
    /// Answered from the LRU cache (false: a store read was charged).
    pub cache_hit: bool,
    /// Ladder rung the reply was shipped at. Anything but
    /// [`Fidelity::Full`] means `stream` is a degraded re-encode of the
    /// rendered frame.
    pub fidelity: Fidelity,
    /// The frame's encoded stream (decode with `Frame::decode`).
    pub stream: Vec<u8>,
}

/// The server's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameReply {
    /// The served frames (one for `Latest`/`AtIteration`, several for
    /// `Range`). `exact` is false when a best-effort server substituted
    /// newer/fewer frames than the request named.
    Frames {
        exact: bool,
        frames: Vec<ServedFrame>,
    },
    /// Best-effort server with nothing rendered yet (or an empty range).
    NotYet,
    /// The request named an iteration outside the run.
    NoSuchIteration(u64),
}

/// Wire tags of the reply encoding (one byte, then the variant payload).
const REPLY_FRAMES: u8 = 1;
const REPLY_NOT_YET: u8 = 2;
const REPLY_NO_SUCH: u8 = 3;

/// Wire bytes of a served frame around its fidelity and stream:
/// iteration, stager, cache_hit and the stream length.
const FRAME_HEADER_WIRE: usize = 8 + 4 + 1 + 4;

/// Smallest possible wire image of one served frame (empty stream, Full
/// fidelity): bounds the frame count a corrupt header can make the
/// decoder allocate for.
const MIN_FRAME_WIRE: usize = FRAME_HEADER_WIRE + 1;

/// A forward-only cursor over reply wire bytes: every read is
/// bounds-checked and yields a typed [`ServeError::Corrupt`] on
/// truncation, so the decoder stays total under arbitrary damage.
struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ServeError::Corrupt(format!(
                "frame reply truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        #[expect(clippy::unwrap_used, reason = "take(8) returned exactly 8 bytes")]
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, ServeError> {
        #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

/// A decoded fraction/tolerance must be a finite value the encoder could
/// have produced; bit flips that land in NaN/Inf/negative space are
/// damage, not parameters.
fn checked_fraction(v: f32, what: &str, max: f32) -> Result<f32, ServeError> {
    if v.is_finite() && (0.0..=max).contains(&v) {
        Ok(v)
    } else {
        Err(ServeError::Corrupt(format!(
            "frame reply {what} {v} outside [0, {max}]"
        )))
    }
}

fn decode_fidelity(r: &mut WireReader<'_>) -> Result<Fidelity, ServeError> {
    match r.u8()? {
        FID_FULL => Ok(Fidelity::Full),
        FID_LOSSY => Ok(Fidelity::Lossy {
            tolerance: checked_fraction(r.f32()?, "lossy tolerance", f32::MAX)?,
        }),
        FID_DROPPED => Ok(Fidelity::Dropped {
            keep_percent: checked_fraction(r.f32()?, "keep percent", 100.0)?,
            tolerance: checked_fraction(r.f32()?, "drop tolerance", f32::MAX)?,
        }),
        FID_HEADER_ONLY => Ok(Fidelity::HeaderOnly),
        other => Err(ServeError::Corrupt(format!("unknown fidelity tag {other}"))),
    }
}

fn decode_bool(r: &mut WireReader<'_>, what: &str) -> Result<bool, ServeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ServeError::Corrupt(format!(
            "frame reply {what} byte is {other}, not 0/1"
        ))),
    }
}

impl FrameReply {
    /// Frames carried by the reply.
    pub fn frames(&self) -> &[ServedFrame] {
        match self {
            FrameReply::Frames { frames, .. } => frames,
            _ => &[],
        }
    }

    /// Whether the reply answers the request exactly as asked.
    pub fn exact(&self) -> bool {
        matches!(self, FrameReply::Frames { exact: true, .. })
    }

    /// The most degraded fidelity across the reply's frames ([`Fidelity::Full`]
    /// for frameless replies) — what a client records as "how good was
    /// this answer".
    pub fn worst_fidelity(&self) -> Fidelity {
        self.frames()
            .iter()
            .fold(Fidelity::Full, |acc, f| acc.worst(f.fidelity))
    }

    /// The exact length of [`FrameReply::encode`]'s output, computed
    /// without encoding: what the reply is metered at on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            FrameReply::Frames { frames, .. } => {
                let frames: usize = frames
                    .iter()
                    .map(|f| FRAME_HEADER_WIRE + f.fidelity.wire_len() + f.stream.len())
                    .sum();
                1 + 1 + 4 + frames
            }
            FrameReply::NotYet => 1,
            FrameReply::NoSuchIteration(_) => 1 + 8,
        }
    }

    /// Whether the reply survives its wire codec: [`FrameReply::encode`]
    /// writes [`FrameReply::wire_len`] bytes and [`FrameReply::decode`]
    /// gives the reply back. Replies cross the in-process wire typed, so
    /// the serving executors `debug_assert!` this at every send.
    pub fn wire_round_trips(&self) -> bool {
        let wire = self.encode();
        wire.len() == self.wire_len() && FrameReply::decode(&wire).is_ok_and(|back| back == *self)
    }

    /// Serialize to the tagged wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        match self {
            FrameReply::Frames { exact, frames } => {
                out.push(REPLY_FRAMES);
                out.push(u8::from(*exact));
                out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
                for f in frames {
                    out.extend_from_slice(&f.iteration.to_le_bytes());
                    out.extend_from_slice(&f.stager.to_le_bytes());
                    out.push(u8::from(f.cache_hit));
                    f.fidelity.encode_into(&mut out);
                    out.extend_from_slice(&(f.stream.len() as u32).to_le_bytes());
                    out.extend_from_slice(&f.stream);
                }
            }
            FrameReply::NotYet => out.push(REPLY_NOT_YET),
            FrameReply::NoSuchIteration(it) => {
                out.push(REPLY_NO_SUCH);
                out.extend_from_slice(&it.to_le_bytes());
            }
        }
        out
    }

    /// Parse a reply off the wire. Decoding is total — truncated,
    /// oversized, bit-flipped or semantically impossible bytes (a frame
    /// count no payload of this length could hold, a non-boolean flag, a
    /// NaN tolerance) come back as [`ServeError::Corrupt`], never as a
    /// panic and never as an unbounded allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let mut r = WireReader::new(bytes);
        let tag = r.u8().map_err(|_| {
            ServeError::Corrupt("empty frame reply".into()) // empty wire image
        })?;
        let reply = match tag {
            REPLY_FRAMES => {
                let exact = decode_bool(&mut r, "exact")?;
                let count = r.u32()? as usize;
                if count.saturating_mul(MIN_FRAME_WIRE) > r.remaining() {
                    return Err(ServeError::Corrupt(format!(
                        "frame reply claims {count} frames but only {} payload bytes remain",
                        r.remaining()
                    )));
                }
                let mut frames = Vec::with_capacity(count);
                for _ in 0..count {
                    let iteration = r.u64()?;
                    let stager = r.u32()?;
                    let cache_hit = decode_bool(&mut r, "cache_hit")?;
                    let fidelity = decode_fidelity(&mut r)?;
                    let stream_len = r.u32()? as usize;
                    let stream = r.take(stream_len)?.to_vec();
                    frames.push(ServedFrame {
                        iteration,
                        stager,
                        cache_hit,
                        fidelity,
                        stream,
                    });
                }
                FrameReply::Frames { exact, frames }
            }
            REPLY_NOT_YET => FrameReply::NotYet,
            REPLY_NO_SUCH => FrameReply::NoSuchIteration(r.u64()?),
            other => {
                return Err(ServeError::Corrupt(format!(
                    "unknown frame reply tag {other}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(ServeError::Corrupt(format!(
                "frame reply has {} trailing bytes after tag {tag}",
                r.remaining()
            )));
        }
        Ok(reply)
    }
}

/// A reply on the in-process wire is charged exactly what its encoded
/// form would be.
impl apc_comm::Meter for FrameReply {
    fn nbytes(&self) -> usize {
        self.wire_len()
    }
}

/// What a serving stager does with a request whose frame has not been
/// rendered yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePolicy {
    /// Defer the reply until the frame exists; the client's latency
    /// absorbs the production wait. Every answer is exact.
    WaitForFrame,
    /// Answer immediately with the newest rendered frame (`exact =
    /// false`), or [`FrameReply::NotYet`] when nothing has been rendered.
    BestEffort,
}

impl ServePolicy {
    /// Short stable name for CSV/report rows.
    pub fn name(&self) -> &'static str {
        match self {
            ServePolicy::WaitForFrame => "wait-for-frame",
            ServePolicy::BestEffort => "best-effort",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sizes_scale_with_operands() {
        assert_eq!(FrameRequest::Latest.encode().len(), 1);
        assert_eq!(FrameRequest::AtIteration(5).encode().len(), 9);
        assert_eq!(FrameRequest::Range { start: 1, end: 4 }.encode().len(), 17);
    }

    fn served(iteration: u64, fidelity: Fidelity, stream: Vec<u8>) -> ServedFrame {
        ServedFrame {
            iteration,
            stager: 0,
            cache_hit: iteration.is_multiple_of(2),
            fidelity,
            stream,
        }
    }

    /// The wire image is what the virtual network charges for: pin its
    /// size field by field, and pin the typed reply's meter to it — a
    /// reply crosses the in-process wire typed, charged at `nbytes()`, so
    /// this equality is what keeps every virtual second unchanged.
    #[test]
    fn reply_wire_size_is_headers_plus_streams() {
        use apc_comm::Meter;

        // Every length the reply reports must be its encoded length.
        let wire_len = |reply: FrameReply| {
            let encoded = reply.encode().len();
            assert_eq!(reply.wire_len(), encoded, "{reply:?}");
            assert_eq!(Meter::nbytes(&reply), encoded, "{reply:?}");
            assert!(reply.wire_round_trips(), "{reply:?}");
            encoded
        };
        let frames = |frames: Vec<ServedFrame>| FrameReply::Frames {
            exact: true,
            frames,
        };
        // tag + exact + count, then per frame 8 iteration + 4 stager +
        // 1 cache_hit + fidelity tag and operands + 4 stream_len + stream.
        let full = served(3, Fidelity::Full, vec![0; 100]);
        assert_eq!(wire_len(frames(vec![full.clone(), full])), 6 + 2 * 118);
        assert_eq!(wire_len(FrameReply::NotYet), 1);
        assert_eq!(wire_len(FrameReply::NoSuchIteration(9)), 9);
        assert_eq!(wire_len(frames(vec![])), 6);
        let lossy = Fidelity::Lossy { tolerance: 0.5 };
        assert_eq!(
            wire_len(frames(vec![served(0, lossy, vec![0; 10])])),
            6 + 22 + 10
        );
        let dropped = Fidelity::Dropped {
            keep_percent: 25.0,
            tolerance: 0.1,
        };
        assert_eq!(wire_len(frames(vec![served(0, dropped, vec![])])), 6 + 26);
        let header_only = served(5, Fidelity::HeaderOnly, vec![7; 3]);
        assert_eq!(wire_len(frames(vec![header_only])), 6 + 18 + 3);

        // Every fidelity, alone and mixed with every other, with empty
        // and non-empty streams, exact or not.
        let ladder = [Fidelity::Full, lossy, dropped, Fidelity::HeaderOnly];
        for (i, &a) in ladder.iter().enumerate() {
            for (j, &b) in ladder.iter().enumerate() {
                for exact in [true, false] {
                    let reply = FrameReply::Frames {
                        exact,
                        frames: vec![
                            served(i as u64, a, vec![1; 17 * i]),
                            served(j as u64 + 8, b, vec![]),
                            served(u64::MAX, a.worst(b), vec![2; 40]),
                        ],
                    };
                    wire_len(reply);
                }
            }
        }
        for reply in reply_cases() {
            wire_len(reply);
        }
    }

    #[test]
    fn reply_accessors() {
        let reply = FrameReply::Frames {
            exact: true,
            frames: vec![ServedFrame {
                iteration: 1,
                stager: 0,
                cache_hit: false,
                fidelity: Fidelity::Full,
                stream: vec![],
            }],
        };
        assert_eq!(reply.frames().len(), 1);
        assert!(reply.exact());
        assert!(!FrameReply::NotYet.exact());
        assert!(FrameReply::NotYet.frames().is_empty());
        assert!(!FrameReply::NoSuchIteration(2).exact());
    }

    #[test]
    fn fidelity_ladder_bands() {
        assert_eq!(Fidelity::for_percent(0.0), Fidelity::Full);
        assert_eq!(Fidelity::for_percent(-3.0), Fidelity::Full);
        assert_eq!(Fidelity::for_percent(0.5), Fidelity::Full);
        assert!(matches!(
            Fidelity::for_percent(10.0),
            Fidelity::Lossy { .. }
        ));
        assert!(matches!(
            Fidelity::for_percent(70.0),
            Fidelity::Dropped { .. }
        ));
        assert_eq!(Fidelity::for_percent(95.0), Fidelity::HeaderOnly);
        assert_eq!(Fidelity::for_percent(1e9), Fidelity::HeaderOnly);

        // Lossy tolerance grows monotonically with pressure; Dropped
        // keeps less as pressure rises.
        let (t_low, t_high) = match (Fidelity::for_percent(5.0), Fidelity::for_percent(45.0)) {
            (Fidelity::Lossy { tolerance: a }, Fidelity::Lossy { tolerance: b }) => (a, b),
            other => panic!("expected lossy rungs, got {other:?}"),
        };
        assert!(t_low < t_high, "{t_low} !< {t_high}");
        match (Fidelity::for_percent(55.0), Fidelity::for_percent(85.0)) {
            (
                Fidelity::Dropped {
                    keep_percent: a, ..
                },
                Fidelity::Dropped {
                    keep_percent: b, ..
                },
            ) => assert!(a > b, "{a} !> {b}"),
            other => panic!("expected dropped rungs, got {other:?}"),
        }
    }

    #[test]
    fn fidelity_worst_orders_by_rung() {
        let lossy = Fidelity::Lossy { tolerance: 0.1 };
        let dropped = Fidelity::Dropped {
            keep_percent: 10.0,
            tolerance: 0.1,
        };
        assert_eq!(Fidelity::Full.worst(lossy), lossy);
        assert_eq!(lossy.worst(Fidelity::Full), lossy);
        assert_eq!(dropped.worst(Fidelity::HeaderOnly), Fidelity::HeaderOnly);
        assert_eq!(Fidelity::Full.worst(Fidelity::Full), Fidelity::Full);
        for (f, name) in [
            (Fidelity::Full, "full"),
            (lossy, "lossy"),
            (dropped, "dropped"),
            (Fidelity::HeaderOnly, "header-only"),
        ] {
            assert_eq!(f.name(), name);
        }
    }

    fn reply_cases() -> Vec<FrameReply> {
        vec![
            FrameReply::Frames {
                exact: true,
                frames: vec![],
            },
            FrameReply::Frames {
                exact: false,
                frames: vec![served(4, Fidelity::Full, vec![1, 2, 3])],
            },
            FrameReply::Frames {
                exact: true,
                frames: vec![
                    served(1, Fidelity::Lossy { tolerance: 0.25 }, vec![9; 40]),
                    served(
                        2,
                        Fidelity::Dropped {
                            keep_percent: 12.5,
                            tolerance: 0.1,
                        },
                        vec![7; 8],
                    ),
                    served(3, Fidelity::HeaderOnly, vec![]),
                ],
            },
            FrameReply::NotYet,
            FrameReply::NoSuchIteration(u64::MAX),
        ]
    }

    #[test]
    fn reply_codec_round_trips() {
        for reply in reply_cases() {
            assert_eq!(FrameReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn reply_decode_rejects_empty_and_unknown_tags() {
        assert!(FrameReply::decode(&[]).is_err());
        for tag in [0u8, 4, 9, 0xff] {
            let err = FrameReply::decode(&[tag]).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(_)), "tag {tag}: {err}");
        }
    }

    #[test]
    fn reply_decode_rejects_trailing_bytes() {
        for reply in reply_cases() {
            let mut wire = reply.encode();
            wire.push(0);
            let err = FrameReply::decode(&wire).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(_)), "{reply:?}: {err}");
        }
    }

    #[test]
    fn reply_decode_bounds_claimed_frame_counts() {
        // A frames header promising more frames than the payload could
        // possibly hold must fail before allocating for them.
        let mut wire = Vec::new();
        wire.push(1u8); // REPLY_FRAMES
        wire.push(1u8); // exact
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = FrameReply::decode(&wire).unwrap_err();
        match err {
            ServeError::Corrupt(msg) => assert!(msg.contains("claims"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn reply_decode_rejects_non_finite_fidelity_params() {
        for fid in [
            Fidelity::Lossy {
                tolerance: f32::NAN,
            },
            Fidelity::Lossy { tolerance: -1.0 },
            Fidelity::Dropped {
                keep_percent: 120.0,
                tolerance: 0.1,
            },
            Fidelity::Dropped {
                keep_percent: f32::INFINITY,
                tolerance: 0.1,
            },
        ] {
            let reply = FrameReply::Frames {
                exact: true,
                frames: vec![served(0, fid, vec![])],
            };
            let err = FrameReply::decode(&reply.encode()).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(_)), "{fid:?}: {err}");
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ServePolicy::WaitForFrame.name(), "wait-for-frame");
        assert_eq!(ServePolicy::BestEffort.name(), "best-effort");
    }

    #[test]
    fn request_codec_round_trips() {
        let cases = [
            FrameRequest::Latest,
            FrameRequest::AtIteration(0),
            FrameRequest::AtIteration(u64::MAX),
            FrameRequest::Range { start: 0, end: 0 },
            FrameRequest::Range {
                start: 7,
                end: u64::MAX,
            },
        ];
        for req in cases {
            assert_eq!(FrameRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn decode_rejects_empty_and_unknown_tags() {
        assert!(FrameRequest::decode(&[]).is_err());
        for tag in [0u8, 4, 7, 0xff] {
            let err = FrameRequest::decode(&[tag]).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(_)), "tag {tag}: {err}");
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        for req in [
            FrameRequest::Latest,
            FrameRequest::AtIteration(5),
            FrameRequest::Range { start: 1, end: 2 },
        ] {
            let mut wire = req.encode();
            wire.push(0);
            let err = FrameRequest::decode(&wire).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(_)), "{req:?}: {err}");
        }
    }

    #[test]
    fn decode_rejects_inverted_range_as_typed_error() {
        // A well-formed wire image whose semantics are impossible: the
        // decoder must hand back a typed error, not a request the server
        // has to defend against (and certainly not a panic).
        let mut wire = Vec::new();
        wire.push(3u8);
        wire.extend_from_slice(&10u64.to_le_bytes());
        wire.extend_from_slice(&3u64.to_le_bytes());
        let err = FrameRequest::decode(&wire).unwrap_err();
        match err {
            ServeError::Corrupt(msg) => assert!(msg.contains("inverted"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }
}
