//! The serve core: the one fetch → degrade → reply path, request log,
//! server-stats type and run summary both serving executors share (the
//! README's "Serving" section draws it).
//!
//! A driver owns scheduling (when a request is taken, on which clock) and
//! resolution (which frames answer it); everything between a
//! [`Resolution`] and the reply is here, once. The live stager
//! (`apc_core::serving`) and the replay pool server
//! (`apc_core::replay_serving`) are the two drivers.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

use apc_store::{CacheStats, ChunkCache, StoreBackend};

use crate::stats::percentile;
use crate::{
    degrade_stream, Fidelity, Frame, FrameKey, FrameReply, FrameRequest, FrameStore, ServeError,
    ServedFrame,
};

/// What a request resolves to: the frames that answer it, or why none do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Frame keys to read and ship, in iteration order. `exact` is false
    /// when a best-effort resolver substituted other frames than asked.
    Frames { exact: bool, keys: Vec<FrameKey> },
    /// Best-effort request with nothing to substitute.
    NotYet,
    /// The request named an iteration the run never renders.
    NoSuchIteration(u64),
}

impl Resolution {
    /// Keys the resolution ships.
    pub fn keys(&self) -> &[FrameKey] {
        match self {
            Resolution::Frames { keys, .. } => keys,
            _ => &[],
        }
    }

    /// Whether the answer is exactly what was asked.
    pub fn exact(&self) -> bool {
        matches!(self, Resolution::Frames { exact: true, .. })
    }
}

/// How many replies a server shipped at each rung of the fidelity
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FidelityMix {
    pub full: usize,
    pub lossy: usize,
    pub dropped: usize,
    pub header_only: usize,
}

impl FidelityMix {
    /// Record one reply shipped at `fidelity`.
    pub fn count(&mut self, fidelity: Fidelity) {
        match fidelity {
            Fidelity::Full => self.full += 1,
            Fidelity::Lossy { .. } => self.lossy += 1,
            Fidelity::Dropped { .. } => self.dropped += 1,
            Fidelity::HeaderOnly => self.header_only += 1,
        }
    }

    /// Replies shipped below full fidelity.
    pub fn degraded(&self) -> usize {
        self.lossy + self.dropped + self.header_only
    }

    /// All replies counted.
    pub fn total(&self) -> usize {
        self.full + self.degraded()
    }

    /// Merge another mix into this one.
    pub fn merge(&mut self, other: &FidelityMix) {
        self.full += other.full;
        self.lossy += other.lossy;
        self.dropped += other.dropped;
        self.header_only += other.header_only;
    }

    /// Compact `full/lossy/dropped/header` column for report rows.
    pub fn summary(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.full, self.lossy, self.dropped, self.header_only
        )
    }
}

/// Per-server serving totals. The core counts what every server does;
/// the driver-specific counters stay zero under the other driver (a
/// stager never steals, a replay server never defers or degrades).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Requests this server decoded off the wire.
    pub requests: usize,
    /// Frame payloads it shipped.
    pub frames_served: usize,
    /// Cache hits / misses over those payloads (`cache.hits` /
    /// `cache.misses`, filled by [`ServeCore::finish`]).
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// The server's full cache counters (insertions, evictions, evicted
    /// bytes, oversized rejects), so policy comparisons can attribute
    /// hit-rate differences to individual servers.
    pub cache: CacheStats,
    /// Frame-carrying replies by fidelity rung (all-`full` unless a
    /// latency budget degrades them).
    pub fidelity: FidelityMix,
    /// Live stager: replies deferred to a later frame (`WaitForFrame`
    /// racing production).
    pub deferred: usize,
    /// Live stager: final budget-controller output (0 without a budget).
    pub final_percent: f64,
    /// Replay pool: requests a steal moved onto this server.
    pub stolen: usize,
    /// Replay pool: requests from premium-tier clients.
    pub premium: usize,
    /// The server's final virtual clock.
    pub finish: f64,
}

/// One server's fetch → degrade → reply path: the frame store it reads,
/// the hot-frame cache in front of it, and the server's counters.
pub struct ServeCore<B> {
    store: FrameStore<B>,
    cache: ChunkCache<FrameKey>,
    /// Counters so far. Drivers bump their own (`deferred`, `stolen`,
    /// `premium`) directly.
    pub stats: ServerStats,
}

impl<B: StoreBackend> ServeCore<B> {
    /// A server reading `store` through a `cache_bytes` LRU (0 disables
    /// caching — the uncached baseline).
    pub fn new(store: FrameStore<B>, cache_bytes: usize) -> Self {
        Self {
            store,
            cache: ChunkCache::new(cache_bytes),
            stats: ServerStats::default(),
        }
    }

    /// Seed the cache with a stream the caller just persisted.
    pub fn seed(&mut self, key: FrameKey, stream: Vec<u8>) {
        self.cache.put(key, stream);
    }

    /// Decode one request off the wire — the server's trust boundary —
    /// and count it.
    pub fn request(&mut self, wire: &[u8]) -> Result<FrameRequest, ServeError> {
        let request = FrameRequest::decode(wire)?;
        self.stats.requests += 1;
        Ok(request)
    }

    /// Assemble the reply to a resolved request at the `fidelity` in
    /// effect. A cache hit moves no bytes and charges nothing; a miss
    /// reads exactly the encoded stream ([`FrameStore::encoded`], flat or
    /// sharded) and reports its length to `charge_miss`, which charges the
    /// driver's read cost on the driver's clock. The cache always holds
    /// the *full* stream — degradation happens per reply, so a later
    /// recovery to full fidelity serves undamaged bytes from the same
    /// entry.
    pub fn reply(
        &mut self,
        resolution: &Resolution,
        fidelity: Fidelity,
        mut charge_miss: impl FnMut(usize),
    ) -> Result<FrameReply, ServeError> {
        let (exact, keys) = match resolution {
            Resolution::Frames { exact, keys } => (*exact, keys),
            Resolution::NotYet => return Ok(FrameReply::NotYet),
            Resolution::NoSuchIteration(it) => return Ok(FrameReply::NoSuchIteration(*it)),
        };
        let mut frames = Vec::with_capacity(keys.len());
        for &key in keys {
            let (stream, cache_hit) = match self.cache.get(&key) {
                Some(full) => (degrade_stream(full, fidelity)?, true),
                None => {
                    let full = self.store.encoded(key.0, key.1)?;
                    charge_miss(full.len());
                    let stream = degrade_stream(&full, fidelity)?;
                    self.cache.put(key, full);
                    (stream, false)
                }
            };
            frames.push(ServedFrame {
                iteration: key.0,
                stager: key.1,
                cache_hit,
                fidelity,
                stream,
            });
        }
        self.stats.frames_served += frames.len();
        if !frames.is_empty() {
            self.stats.fidelity.count(fidelity);
        }
        Ok(FrameReply::Frames { exact, frames })
    }

    /// Drain into the server's totals at virtual time `clock`.
    pub fn finish(self, clock: f64) -> ServerStats {
        let cache = self.cache.stats();
        ServerStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache,
            finish: clock,
            ..self.stats
        }
    }
}

/// The client side of [`ServeCore::reply`], one per run and shared by
/// every client rank: verify a reply end to end. Every frame must decode,
/// decode to the `(iteration, stager)` it was served as, and carry no
/// pixels when header-only. The serving executors hand it the typed
/// [`FrameReply`] that crossed the in-process wire
/// ([`ReplyChecker::check_reply`]); [`ReplyChecker::check`] takes the
/// reply's wire bytes and decodes them first.
///
/// A full-fidelity frame is a persisted stream shipped verbatim, and a run
/// ships the same few hundred streams thousands of times. So the checker
/// keeps, per key, the first full stream that passed; a later full frame
/// of that key with the same bytes is compared instead of decoded. Any
/// other frame (degraded, or full with bytes not seen before) is decoded.
/// The verdict on every reply is the one a fresh checker gives.
#[derive(Default)]
pub struct ReplyChecker {
    /// The first full stream that passed, by the key it was served as.
    passed: RwLock<BTreeMap<FrameKey, Arc<[u8]>>>,
}

impl ReplyChecker {
    /// Decode one reply off the wire — the reply codec's trust boundary
    /// — then verify it ([`ReplyChecker::check_reply`]).
    pub fn check(&self, wire: &[u8]) -> Result<FrameReply, ServeError> {
        self.check_reply(FrameReply::decode(wire)?)
    }

    /// Verify one typed reply, handing it back when every frame passed.
    pub fn check_reply(&self, reply: FrameReply) -> Result<FrameReply, ServeError> {
        for served in reply.frames() {
            if served.fidelity != Fidelity::Full {
                check_frame(served)?;
                continue;
            }
            let key = (served.iteration, served.stager);
            let passed = self.passed.read().unwrap_or_else(PoisonError::into_inner);
            if passed.get(&key).is_some_and(|s| **s == *served.stream) {
                continue;
            }
            drop(passed);
            check_frame(served)?;
            // Every update is one insert of a stream that passed, so a
            // poisoned map is still valid.
            self.passed
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_insert_with(|| served.stream.as_slice().into());
        }
        Ok(reply)
    }
}

/// Decode one served frame and check it against how it was served.
fn check_frame(served: &ServedFrame) -> Result<(), ServeError> {
    let frame = Frame::decode(&served.stream)?;
    if (frame.iteration, frame.stager) != (served.iteration, served.stager) {
        return Err(ServeError::Corrupt(format!(
            "frame ({}, {}) was served as ({}, {})",
            frame.iteration, frame.stager, served.iteration, served.stager
        )));
    }
    if served.fidelity == Fidelity::HeaderOnly && !frame.pixels.is_empty() {
        return Err(ServeError::Corrupt(format!(
            "header-only frame carries {} pixels",
            frame.pixels.len()
        )));
    }
    Ok(())
}

/// One request as the client experienced it. `route` carries what the
/// driver knows beyond the reply: nothing for the live stager (a client
/// is wired to one stager), the pool's routing facts for the replay pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLog<R = ()> {
    /// Client slot that issued the request.
    pub client: usize,
    pub request: FrameRequest,
    /// Frames the reply carried.
    pub frames: usize,
    /// Of those, how many were answered from the server's cache.
    pub cache_hits: usize,
    /// Whether the reply answered the request exactly as asked
    /// (substitutes, `NotYet` and `NoSuchIteration` are never exact).
    pub exact: bool,
    /// Virtual seconds from issuing the request to holding the reply —
    /// queueing, production waits, service and store reads included.
    pub latency: f64,
    /// The most degraded fidelity across the reply's frames
    /// ([`Fidelity::Full`] for frameless replies).
    pub fidelity: Fidelity,
    pub route: R,
}

impl<R> RequestLog<R> {
    /// Log a reply that passed [`ReplyChecker::check_reply`].
    pub fn new(
        client: usize,
        request: FrameRequest,
        reply: &FrameReply,
        latency: f64,
        route: R,
    ) -> Self {
        Self {
            client,
            request,
            frames: reply.frames().len(),
            cache_hits: reply.frames().iter().filter(|f| f.cache_hit).count(),
            exact: reply.exact(),
            latency,
            fidelity: reply.worst_fidelity(),
            route,
        }
    }
}

/// The serving observables of a completed run, live or replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport<R = ()> {
    /// Per-server totals, in server-slot order.
    pub servers: Vec<ServerStats>,
    /// Every request, in the driver's canonical order.
    pub requests: Vec<RequestLog<R>>,
    /// Each client's final virtual clock, in client-slot order.
    pub client_finish: Vec<f64>,
}

impl<R> ServeReport<R> {
    /// Total frame payloads served.
    pub fn frames_served(&self) -> usize {
        self.servers.iter().map(|s| s.frames_served).sum()
    }

    /// Cache hit rate over all served payloads (0 when nothing was
    /// served).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: usize = self.servers.iter().map(|s| s.cache_hits).sum();
        let misses: usize = self.servers.iter().map(|s| s.cache_misses).sum();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Replies that waited for a frame still in production.
    pub fn total_deferred(&self) -> usize {
        self.servers.iter().map(|s| s.deferred).sum()
    }

    /// Requests answered inexactly (substituted, `NotYet`, or
    /// `NoSuchIteration`).
    pub fn total_inexact(&self) -> usize {
        self.requests.iter().filter(|r| !r.exact).count()
    }

    /// The `p`-th percentile (0–100) of virtual service latency, by the
    /// shared nearest-rank rule ([`percentile`]).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(self.requests.iter().map(|r| r.latency), p)
    }

    /// Replies by fidelity rung, summed over every server.
    pub fn fidelity_mix(&self) -> FidelityMix {
        let mut mix = FidelityMix::default();
        for s in &self.servers {
            mix.merge(&s.fidelity);
        }
        mix
    }

    /// Replies shipped below full fidelity.
    pub fn degraded_replies(&self) -> usize {
        self.fidelity_mix().degraded()
    }

    /// Frames served per virtual second of serving makespan (the last
    /// client's finish time).
    pub fn frames_per_virtual_second(&self) -> f64 {
        let makespan = self.client_finish.iter().copied().fold(0.0, f64::max);
        if makespan <= 0.0 {
            return 0.0;
        }
        self.frames_served() as f64 / makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_store::{CodecKind, MemStore};

    fn frame(iteration: u64) -> Frame {
        let pixels: Vec<f32> = (0..64).map(|i| (i as f32 * 0.31).sin() * 40.0).collect();
        Frame::new(iteration, 1, 8, 8, pixels).with_render_info(99, 35.0)
    }

    fn one(iteration: u64) -> Resolution {
        Resolution::Frames {
            exact: true,
            keys: vec![(iteration, 1)],
        }
    }

    /// A core over a fresh `MemStore` holding frames 100 and 200 of
    /// stager 1, plus the stored stream of frame 100.
    fn core(cache_bytes: usize) -> (ServeCore<MemStore>, Vec<u8>) {
        let store = FrameStore::new(MemStore::new(), "core");
        for it in [100, 200] {
            store.put_frame(&frame(it), CodecKind::Fpz).unwrap();
        }
        let stream = store.encoded(100, 1).unwrap();
        (ServeCore::new(store, cache_bytes), stream)
    }

    #[test]
    fn hit_charges_nothing_and_reads_no_store_bytes() {
        // The seeded key was never persisted: only the cache can answer.
        let (mut core, _) = core(1 << 20);
        let seeded = frame(300).encode(CodecKind::Fpz);
        core.seed((300, 1), seeded.clone());
        let charge = |_| panic!("a hit charged");
        let reply = core.reply(&one(300), Fidelity::Full, charge).unwrap();
        assert!(reply.frames()[0].cache_hit);
        assert_eq!(reply.frames()[0].stream, seeded);
        let stats = core.finish(2.5);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 0));
        assert_eq!((stats.frames_served, stats.fidelity.full), (1, 1));
        assert_eq!(stats.finish, 2.5);
    }

    #[test]
    fn miss_charges_the_stream_length_once_then_hits() {
        let mut charged = Vec::new();
        for (cache_bytes, hits) in [(1 << 20, [false, true]), (0, [false, false])] {
            let (mut core, stream) = core(cache_bytes);
            charged.clear();
            for hit in hits {
                let reply = core
                    .reply(&one(100), Fidelity::Full, |n| charged.push(n))
                    .unwrap();
                assert_eq!(reply.frames()[0].cache_hit, hit);
                assert_eq!(reply.frames()[0].stream, stream);
            }
            // Every miss is charged at exactly the stream's length.
            let misses = hits.iter().filter(|hit| !**hit).count();
            assert_eq!(charged, vec![stream.len(); misses]);
            assert_eq!(core.finish(0.0).cache_misses, misses);
        }
    }

    #[test]
    fn degraded_replies_leave_the_full_stream_cached() {
        let (mut core, stream) = core(1 << 20);
        let dropped = Fidelity::Dropped {
            keep_percent: 25.0,
            tolerance: 0.1,
        };
        let lossy = Fidelity::Lossy { tolerance: 0.5 };
        for fidelity in [lossy, dropped, Fidelity::HeaderOnly] {
            let reply = core.reply(&one(100), fidelity, |_| {}).unwrap();
            assert_eq!(reply.frames()[0].fidelity, fidelity);
            assert_ne!(reply.frames()[0].stream, stream, "{fidelity:?} re-encodes");
            ReplyChecker::default().check(&reply.encode()).unwrap();
            let charge = |_| panic!("the full stream fell out of the cache");
            let full = core.reply(&one(100), Fidelity::Full, charge).unwrap();
            assert_eq!(full.frames()[0].stream, stream, "after {fidelity:?}");
        }
        let mix = core.finish(0.0).fidelity;
        assert_eq!(mix.summary(), "3/1/1/1");
    }

    #[test]
    fn frameless_resolutions_and_requests_pass_through() {
        let (mut core, _) = core(1 << 20);
        let never = |_: usize| panic!("a frameless reply charged");
        let reply = core.reply(&Resolution::NotYet, Fidelity::HeaderOnly, never);
        assert_eq!(reply.unwrap(), FrameReply::NotYet);
        let reply = core.reply(&Resolution::NoSuchIteration(7), Fidelity::Full, never);
        assert_eq!(reply.unwrap(), FrameReply::NoSuchIteration(7));
        let q = FrameRequest::Range { start: 1, end: 9 };
        assert_eq!(core.request(&q.encode()).unwrap(), q);
        assert!(matches!(core.request(&[0xff]), Err(ServeError::Corrupt(_))));
        let stats = core.finish(0.0);
        assert_eq!(stats.requests, 1, "a corrupt request is not counted");
        assert_eq!((stats.frames_served, stats.fidelity.total()), (0, 0));
    }

    #[test]
    fn bad_stored_streams_are_errors_not_panics() {
        let (mut core, _) = core(1 << 20);
        let key = crate::frame_key("core", 300, 1);
        core.store.backend().put(&key, b"not a frame").unwrap();
        let lossy = Fidelity::Lossy { tolerance: 0.5 };
        let corrupt = core.reply(&one(300), lossy, |_| {});
        assert!(matches!(corrupt, Err(ServeError::Corrupt(_))));
        let missing = core.reply(&one(999), Fidelity::Full, |_| {});
        assert!(matches!(missing, Err(ServeError::Store(_))));
    }

    /// One frame's reply on the wire, served as `(iteration, 1)`.
    fn served(iteration: u64, fidelity: Fidelity, stream: &[u8]) -> Vec<u8> {
        FrameReply::Frames {
            exact: true,
            frames: vec![ServedFrame {
                iteration,
                stager: 1,
                cache_hit: false,
                fidelity,
                stream: stream.to_vec(),
            }],
        }
        .encode()
    }

    #[test]
    fn checker_rejects_mismatched_keys_and_fat_headers() {
        let stream = frame(100).encode(CodecKind::Fpz);
        let checker = ReplyChecker::default();
        let good = served(100, Fidelity::Full, &stream);
        let reply = checker.check(&good).unwrap();
        assert_eq!(reply, FrameReply::decode(&good).unwrap());
        // Frame 100's bytes have passed; under another key, or as
        // header-only, they still fail.
        for bad in [
            served(200, Fidelity::Full, &stream),
            served(100, Fidelity::HeaderOnly, &stream),
        ] {
            let checked = checker.check(&bad);
            assert!(matches!(checked, Err(ServeError::Corrupt(_))));
            // The typed path the executors take gives the same verdict.
            let typed = checker.check_reply(FrameReply::decode(&bad).unwrap());
            assert!(matches!(typed, Err(ServeError::Corrupt(_))));
        }
        let typed = checker.check_reply(FrameReply::decode(&good).unwrap());
        assert_eq!(typed.unwrap(), reply);
        assert!(checker.check(&[]).is_err());
    }

    #[test]
    fn checker_keeps_only_the_first_full_stream_that_passed() {
        let stream = frame(100).encode(CodecKind::Fpz);
        let checker = ReplyChecker::default();
        for _ in 0..2 {
            checker
                .check(&served(100, Fidelity::Full, &stream))
                .unwrap();
        }
        // Other bytes under the kept key are decoded, and fail.
        let cut = served(100, Fidelity::Full, &stream[..stream.len() - 1]);
        assert!(matches!(checker.check(&cut), Err(ServeError::Corrupt(_))));
        let passed = checker.passed.read().unwrap();
        assert_eq!(passed.len(), 1);
        assert_eq!(&passed[&(100, 1)][..], &stream[..]);
    }

    #[test]
    fn request_log_and_report_summarize_replies() {
        let (mut core, _) = core(1 << 20);
        let both = Resolution::Frames {
            exact: false,
            keys: vec![(100, 1), (200, 1)],
        };
        core.reply(&one(100), Fidelity::Full, |_| {}).unwrap();
        let reply = core.reply(&both, Fidelity::HeaderOnly, |_| {}).unwrap();
        let log = RequestLog::new(3, FrameRequest::Latest, &reply, 0.25, ());
        assert_eq!((log.frames, log.cache_hits, log.exact), (2, 1, false));
        assert_eq!(log.fidelity, Fidelity::HeaderOnly);
        let report = ServeReport {
            servers: vec![core.finish(1.0)],
            requests: vec![log],
            client_finish: vec![1.5],
        };
        assert_eq!(report.frames_served(), 3);
        assert_eq!(report.cache_hit_rate(), 1.0 / 3.0);
        assert_eq!((report.total_inexact(), report.degraded_replies()), (1, 1));
        assert_eq!(report.latency_percentile(99.0), 0.25);
        assert_eq!(report.frames_per_virtual_second(), 2.0);
    }
}
