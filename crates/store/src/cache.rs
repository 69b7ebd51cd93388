//! The generalized chunk cache: a deterministic, byte-size-bounded LRU
//! ([`ChunkCache`]), an iteration-order prefetch policy ([`Readahead`]),
//! and the [`CachedBackend`] adapter that layers both over any
//! [`StoreBackend`] — the one caching implementation every reader shares
//! (`Prepared::from_store` lazy rank reads, sharded datasets, and the
//! serving executor's hot-frame cache in `apc-core`).
//!
//! # Design
//!
//! * **Byte-bounded, not entry-bounded.** Capacity is a byte budget;
//!   every insert charges the payload length and evicts
//!   least-recently-used entries until the budget holds again. An item
//!   larger than the whole budget *bypasses* the cache (dropping any
//!   stale entry under its key) instead of evicting the entire working
//!   set for a value that can never fit.
//! * **O(log n) recency.** Recency is a sequence-numbered
//!   `BTreeMap<u64, K>` index next to the entry map: a hit removes one
//!   sequence number and inserts the next one — two logarithmic map
//!   operations, never a linear scan. The sequence counter is pure
//!   arithmetic, so eviction order depends only on the access sequence —
//!   no wall-clock anywhere, and replays are deterministic.
//! * **Observable.** [`CacheStats`] counts hits, misses, insertions,
//!   evictions (and their bytes), oversized bypasses, and how many
//!   prefetched entries were actually used — the readahead policy is
//!   measurable, not a matter of faith.
//!
//! # Transparency contract
//!
//! [`CachedBackend`] returns exactly the bytes its inner backend would:
//! reads populate the cache with what the backend returned, and writes go
//! through to the backend before updating the cache. Replaying a pipeline
//! with the cache on is therefore **byte-identical** to replaying with it
//! off (pinned by the workspace `properties` suite); only wall-clock and
//! the stats change. Writes that bypass the adapter and mutate the inner
//! backend directly are outside the contract and can leave stale entries.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::{slice_range, StoreBackend};
use crate::StoreError;

/// The shared caching-layer handle returned by a cached open
/// ([`crate::layout::reader`]): a [`CachedBackend`] over the type-erased
/// stack below it, reference-counted so the reader goes through it while
/// the caller keeps it for statistics and cache control.
pub type SharedCachedBackend = Arc<CachedBackend<Arc<dyn StoreBackend>>>;

/// Counters of one cache's lifetime (monotonic; snapshot via
/// [`ChunkCache::stats`] or [`CachedBackend::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to the backing store.
    pub misses: usize,
    /// Values stored (demand inserts + prefetch inserts + refreshes).
    pub insertions: usize,
    /// Entries evicted to hold the byte budget.
    pub evictions: usize,
    /// Payload bytes those evictions released.
    pub evicted_bytes: u64,
    /// Inserts rejected by the oversized-single-item rule (payload larger
    /// than the whole budget).
    pub oversized_rejects: usize,
    /// Entries inserted by readahead rather than by a demand miss.
    pub prefetched: usize,
    /// Prefetched entries that later served a lookup. `prefetched -
    /// prefetch_used` is the prefetched-but-unused count — the readahead
    /// policy's waste.
    pub prefetch_used: usize,
}

/// One cached payload plus its bookkeeping.
#[derive(Debug)]
struct Entry {
    bytes: Vec<u8>,
    /// This entry's position in the recency index (its key there).
    seq: u64,
    /// Inserted by readahead and not yet used by a lookup.
    prefetched: bool,
}

/// A deterministic, byte-size-bounded LRU cache.
///
/// Generic over the key (`apc-store` readers use `String` store keys;
/// `apc-serve`'s serve core uses `ChunkCache<(u64, u32)>` frame keys).
/// All operations are `O(log n)`: the entry map and the sequence-numbered
/// recency index are both B-trees, and a recency refresh moves exactly one
/// index entry. A budget of `0` is the legal degenerate cache that stores
/// nothing and misses everything — the uncached baseline.
///
/// ```
/// use apc_store::cache::ChunkCache;
///
/// let mut cache: ChunkCache<&str> = ChunkCache::new(8);
/// cache.put("a", vec![0; 5]);
/// cache.put("b", vec![0; 3]); // 8 bytes used: exactly at budget
/// assert!(cache.get(&"a").is_some());
/// cache.put("c", vec![0; 3]); // evicts "b", the least recently used
/// assert!(cache.get(&"b").is_none());
/// assert_eq!(cache.used_bytes(), 8);
/// ```
#[derive(Debug)]
pub struct ChunkCache<K> {
    budget: usize,
    used: usize,
    next_seq: u64,
    entries: BTreeMap<K, Entry>,
    /// Sequence number → key, from least- to most-recently used.
    recency: BTreeMap<u64, K>,
    stats: CacheStats,
}

impl<K: Ord + Clone> ChunkCache<K> {
    /// A cache holding at most `budget_bytes` of payload.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes,
            used: 0,
            next_seq: 0,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Lifetime counters (monotonic).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Lookups answered from the cache (shorthand for `stats().hits`).
    pub fn hits(&self) -> usize {
        self.stats.hits
    }

    /// Lookups that missed (shorthand for `stats().misses`).
    pub fn misses(&self) -> usize {
        self.stats.misses
    }

    /// Look up a payload, counting the hit or miss and refreshing recency
    /// on a hit (one removal and one insert in the recency index —
    /// `O(log n)`, never a scan).
    pub fn get(&mut self, key: &K) -> Option<&[u8]> {
        let old_seq = match self.entries.get(key) {
            Some(e) => e.seq,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        self.stats.hits += 1;
        self.recency.remove(&old_seq);
        self.next_seq += 1;
        let seq = self.next_seq;
        self.recency.insert(seq, key.clone());
        let e = self.entries.get_mut(key)?;
        e.seq = seq;
        if e.prefetched {
            e.prefetched = false;
            self.stats.prefetch_used += 1;
        }
        Some(e.bytes.as_slice())
    }

    /// Probe without touching recency or counting a hit/miss.
    pub fn peek(&self, key: &K) -> Option<&[u8]> {
        self.entries.get(key).map(|e| e.bytes.as_slice())
    }

    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Insert (or refresh) a payload, evicting least-recently-used entries
    /// until the byte budget holds. A refresh with a different-sized
    /// payload re-charges the accounting — shrink frees budget, growth can
    /// itself trigger evictions. Does not count as a hit or miss.
    pub fn put(&mut self, key: K, bytes: Vec<u8>) {
        self.insert(key, bytes, false);
    }

    /// [`ChunkCache::put`] for readahead: the entry is tagged prefetched
    /// until a [`ChunkCache::get`] consumes it, so unused prefetches are
    /// countable.
    pub fn put_prefetched(&mut self, key: K, bytes: Vec<u8>) {
        self.insert(key, bytes, true);
    }

    fn insert(&mut self, key: K, bytes: Vec<u8>, prefetched: bool) {
        if bytes.len() > self.budget || self.budget == 0 {
            // Oversized-single-item rule: admitting this value would evict
            // the entire working set and still not fit (or the budget is
            // the zero/uncached baseline). Bypass — and drop any stale
            // entry under the key, since the caller just redefined it.
            self.stats.oversized_rejects += 1;
            self.remove(&key);
            return;
        }
        self.stats.insertions += 1;
        if prefetched {
            self.stats.prefetched += 1;
        }
        let new_len = bytes.len();
        self.next_seq += 1;
        let seq = self.next_seq;
        if let Some(old) = self.entries.insert(
            key.clone(),
            Entry {
                bytes,
                seq,
                prefetched,
            },
        ) {
            self.used -= old.bytes.len();
            self.recency.remove(&old.seq);
        }
        self.used += new_len;
        self.recency.insert(seq, key);
        self.evict_to_budget();
    }

    /// Remove one entry, releasing its budget charge. Not an eviction:
    /// the stats are untouched.
    pub fn remove(&mut self, key: &K) -> Option<Vec<u8>> {
        let e = self.entries.remove(key)?;
        self.used -= e.bytes.len();
        self.recency.remove(&e.seq);
        Some(e.bytes)
    }

    /// Drop every entry (budget and lifetime stats keep their values).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.used = 0;
    }

    fn evict_to_budget(&mut self) {
        while self.used > self.budget {
            let Some((_, key)) = self.recency.pop_first() else {
                // Unreachable by accounting (used > 0 implies entries
                // exist), but a defensive break beats a panic in a cache.
                break;
            };
            if let Some(e) = self.entries.remove(&key) {
                self.used -= e.bytes.len();
                self.stats.evictions += 1;
                self.stats.evicted_bytes += e.bytes.len() as u64;
            }
        }
    }
}

/// Iteration-order readahead for sequential replay.
///
/// Store keys embed the iteration as their second-to-last `/`-separated
/// segment (`c/000100/000042` chunks, `f/run/000300/0003` frames).
/// Sequential replay walks the recorded iteration list in order, so after
/// reading a key the *next* key is perfectly predictable: same prefix and
/// tail, next iteration. [`Readahead::next_key`] computes it;
/// [`CachedBackend`] prefetches it.
#[derive(Debug, Clone)]
pub struct Readahead {
    /// The dataset's iterations in replay order (strictly increasing, as
    /// recorded in the metadata).
    iterations: Vec<u64>,
}

impl Readahead {
    pub fn new(iterations: Vec<u64>) -> Self {
        Self { iterations }
    }

    /// The key sequential replay will ask for after `key`: the same key
    /// with the iteration segment advanced to the next recorded iteration
    /// (zero-padding preserved). `None` when `key` has no iteration
    /// segment, the iteration is not in the recorded set, or it is the
    /// last one.
    pub fn next_key(&self, key: &str) -> Option<String> {
        let segments: Vec<&str> = key.split('/').collect();
        if segments.len() < 2 {
            return None;
        }
        let it_pos = segments.len() - 2;
        let it_seg = segments[it_pos];
        if it_seg.is_empty() || !it_seg.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let it: u64 = it_seg.parse().ok()?;
        let idx = self.iterations.binary_search(&it).ok()?;
        let next = *self.iterations.get(idx + 1)?;
        let advanced = format!("{next:0width$}", width = it_seg.len());
        let mut out = segments;
        out[it_pos] = &advanced;
        Some(out.join("/"))
    }
}

/// A [`StoreBackend`] adapter layering a shared [`ChunkCache`] (and an
/// optional [`Readahead`]) over any backend.
///
/// * `get` answers from the cache when it can; a miss reads through,
///   caches the value, and — with readahead configured — prefetches the
///   next iteration's key. A hit on a prefetched entry *chains* the
///   prefetch, so a sequential sweep stays one iteration ahead.
/// * `put` writes through to the inner backend first, then refreshes the
///   cache, so re-writing a key through the adapter never leaves a stale
///   entry (and re-charges the byte accounting if the size changed).
/// * `get_range` serves slices out of a cached full value (the bounds
///   arithmetic matches the backend's exactly); otherwise it passes
///   through without caching — partial data is never promoted to a whole
///   value.
///
/// The cache sits behind a `Mutex` because backend reads take `&self`
/// from concurrent rank threads. Returned bytes are always exactly the
/// inner backend's, whatever the interleaving; under concurrency the
/// *stats* (and eviction victims, when the budget is tight) can depend on
/// thread timing, so they are diagnostics, not replay state.
pub struct CachedBackend<B> {
    inner: B,
    cache: Mutex<ChunkCache<String>>,
    readahead: Option<Readahead>,
}

impl<B: StoreBackend> CachedBackend<B> {
    /// Wrap `inner` with a cache of `budget_bytes` (0 = cache nothing).
    pub fn new(inner: B, budget_bytes: usize) -> Self {
        Self {
            inner,
            cache: Mutex::new(ChunkCache::new(budget_bytes)),
            readahead: None,
        }
    }

    /// Enable iteration-order prefetch.
    pub fn with_readahead(mut self, readahead: Readahead) -> Self {
        self.readahead = Some(readahead);
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Snapshot of the cache's lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.lock().len()
    }

    /// Drop every cached entry (stats keep counting) — e.g. to measure a
    /// cold read on a warm process.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Lock the cache. A poisoned lock means a panic unwound mid-update
    /// (only possible through a library bug); the entries could be torn,
    /// but dropping them restores every invariant — a cache is always
    /// allowed to forget.
    fn lock(&self) -> MutexGuard<'_, ChunkCache<String>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        })
    }

    /// Read the predicted next key through the inner backend into the
    /// cache. Absent keys are fine (the last iteration has no successor
    /// on disk); real read errors surface on the eventual demand read.
    fn prefetch_after(&self, key: &str) {
        let Some(readahead) = &self.readahead else {
            return;
        };
        let Some(next) = readahead.next_key(key) else {
            return;
        };
        if self.lock().contains(&next) {
            return;
        }
        // The inner read happens outside the lock: prefetch I/O must not
        // serialize concurrent demand reads.
        let Ok(bytes) = self.inner.get(&next) else {
            return;
        };
        self.lock().put_prefetched(next, bytes);
    }
}

impl<B: StoreBackend> StoreBackend for CachedBackend<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // Write-through: the backend is durable truth; the cache refresh
        // (with its size re-accounting) only happens once that succeeded.
        self.inner.put(key, bytes)?;
        self.lock().put(key.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let owned = key.to_owned();
        {
            let mut cache = self.lock();
            let used_before = cache.stats().prefetch_used;
            if let Some(bytes) = cache.get(&owned) {
                let bytes = bytes.to_vec();
                // Consuming a prefetched entry means the sequential sweep
                // advanced: chain the readahead one key further.
                let chain = cache.stats().prefetch_used > used_before;
                drop(cache);
                if chain {
                    self.prefetch_after(key);
                }
                return Ok(bytes);
            }
        }
        let bytes = self.inner.get(key)?;
        self.lock().put(owned, bytes.clone());
        self.prefetch_after(key);
        Ok(bytes)
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        if self.lock().contains(&key.to_owned()) {
            return Ok(true);
        }
        self.inner.contains(key)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        {
            let mut cache = self.lock();
            if let Some(bytes) = cache.get(&key.to_owned()) {
                // Same bounds arithmetic as the in-memory backends, so a
                // cached hit errors exactly like the inner backend would.
                return slice_range(bytes, key, offset, len);
            }
        }
        self.inner.get_range(key, offset, len)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        if let Some(bytes) = self.lock().peek(&key.to_owned()) {
            return Ok(bytes.len() as u64);
        }
        self.inner.size(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::rc::Rc;

    #[test]
    fn byte_budget_evicts_in_lru_order() {
        let mut cache: ChunkCache<u32> = ChunkCache::new(10);
        cache.put(1, vec![0; 4]);
        cache.put(2, vec![0; 4]);
        assert!(cache.get(&1).is_some()); // 1 is now hottest
        cache.put(3, vec![0; 4]); // 12 > 10: evicts 2, the coldest
        assert!(cache.get(&2).is_none());
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.used_bytes(), 8);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
        assert_eq!((s.evictions, s.evicted_bytes), (1, 4));
    }

    /// The boundary cases of byte accounting: exactly-at-budget fits, one
    /// byte over evicts, and the hit/miss counters track each outcome.
    #[test]
    fn eviction_order_and_stats_at_the_byte_boundary() {
        let mut cache: ChunkCache<&str> = ChunkCache::new(8);
        cache.put("a", vec![1; 3]);
        cache.put("b", vec![2; 5]); // 8 used: exactly at budget, no eviction
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2);

        cache.put("c", vec![3; 1]); // 9 > 8: "a" (LRU) goes first
        assert!(cache.get(&"a").is_none());
        assert_eq!(cache.get(&"b"), Some(&[2u8; 5][..]));
        assert_eq!(cache.used_bytes(), 6);

        // "c" is now LRU ("b" was just touched); 6 + 5 = 11 evicts "c",
        // still 9 > 8, so "b" goes too: multi-eviction in strict LRU order.
        cache.put("d", vec![4; 5]);
        assert!(cache.get(&"c").is_none());
        assert!(cache.get(&"b").is_none());
        assert_eq!(cache.get(&"d"), Some(&[4u8; 5][..]));
        let s = cache.stats();
        assert_eq!(s.evictions, 3);
        assert_eq!(s.evicted_bytes, 3 + 1 + 5);
        assert_eq!((s.hits, s.misses), (2, 3));
    }

    /// The oversized-single-item rule: an item larger than the whole
    /// budget bypasses the cache instead of evicting everything.
    #[test]
    fn oversized_item_bypasses_instead_of_evicting_everything() {
        let mut cache: ChunkCache<&str> = ChunkCache::new(8);
        cache.put("a", vec![0; 4]);
        cache.put("b", vec![0; 4]);
        cache.put("huge", vec![0; 9]); // > budget: rejected
        assert_eq!(cache.len(), 2, "working set must survive");
        assert!(cache.get(&"huge").is_none());
        assert!(cache.get(&"a").is_some());
        assert!(cache.get(&"b").is_some());
        assert_eq!(cache.stats().oversized_rejects, 1);
        assert_eq!(cache.stats().evictions, 0);

        // An oversized re-put of an existing key drops the stale entry
        // rather than serving old bytes for a redefined key.
        cache.put("a", vec![0; 100]);
        assert!(cache.get(&"a").is_none());
        assert_eq!(cache.used_bytes(), 4);
    }

    /// Regression (ISSUE 8): re-put of an existing key with a
    /// different-sized payload must re-charge the byte accounting — and
    /// trigger eviction if the budget is now exceeded. The old FrameCache
    /// swapped payloads without touching any accounting.
    #[test]
    fn reput_with_different_size_recharges_and_evicts() {
        let mut cache: ChunkCache<&str> = ChunkCache::new(10);
        cache.put("a", vec![0; 2]);
        cache.put("b", vec![0; 2]);
        cache.put("c", vec![0; 2]);
        assert_eq!(cache.used_bytes(), 6);

        // Shrink: budget is released.
        cache.put("a", vec![0; 1]);
        assert_eq!(cache.used_bytes(), 5);

        // Grow: 5 - 1 + 7 = 11 > 10, so the LRU survivor ("b") is evicted;
        // the refreshed key itself is hottest and must survive.
        cache.put("a", vec![0; 7]);
        assert_eq!(cache.used_bytes(), 9); // c(2) + a(7)
        assert!(cache.get(&"b").is_none());
        assert_eq!(cache.get(&"a"), Some(&[0u8; 7][..]));
        assert!(cache.get(&"c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_budget_is_the_uncached_baseline() {
        let mut cache: ChunkCache<u32> = ChunkCache::new(0);
        cache.put(1, vec![1]);
        cache.put(2, Vec::new()); // even empty payloads stay out
        assert!(cache.is_empty());
        assert!(cache.get(&1).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    /// A key whose `Ord` counts comparisons: the only work a B-tree does
    /// per key is compare, so total comparisons measure the cache's
    /// recency arithmetic directly — wall-clock never enters.
    #[derive(Clone)]
    struct CountedKey {
        id: u64,
        cmps: Rc<Cell<u64>>,
    }

    impl PartialEq for CountedKey {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for CountedKey {}
    impl PartialOrd for CountedKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for CountedKey {
        fn cmp(&self, other: &Self) -> Ordering {
            self.cmps.set(self.cmps.get() + 1);
            self.id.cmp(&other.id)
        }
    }

    /// Regression (ISSUE 8): `touch` was an O(capacity) `VecDeque`
    /// position scan on every hit. With 10k entries and 100k touches a
    /// scan costs ~10⁹ key comparisons; the sequence-numbered index costs
    /// ~2 B-tree lookups per touch. Budget-asserted by *operation
    /// counting* (comparisons), not wall-clock.
    #[test]
    fn ten_thousand_entries_sustain_100k_touches_without_quadratic_blowup() {
        const ENTRIES: u64 = 10_000;
        const TOUCHES: u64 = 100_000;
        let cmps = Rc::new(Cell::new(0u64));
        let key = |id: u64| CountedKey {
            id,
            cmps: Rc::clone(&cmps),
        };
        let mut cache: ChunkCache<CountedKey> = ChunkCache::new(ENTRIES as usize);
        for id in 0..ENTRIES {
            cache.put(key(id), vec![0]);
        }
        assert_eq!(cache.len(), ENTRIES as usize);

        cmps.set(0);
        for i in 0..TOUCHES {
            // A worst-ish access pattern for an LRU scan: always touch a
            // key that is currently cold.
            assert!(cache.get(&key((i * 7919) % ENTRIES)).is_some());
        }
        let total = cmps.get();
        // Each touch costs ~2 entry-map lookups; a 10k-entry B-tree lookup
        // is ≲ 60 comparisons (11-wide nodes, depth ≤ 5), so ~12M total.
        // The quadratic scan would need ~10⁹. Assert an order-of-magnitude
        // safety margin below that.
        let budget = TOUCHES * 2 * 60;
        assert!(
            total <= budget,
            "recency update is not O(log n): {total} comparisons for \
             {TOUCHES} touches over {ENTRIES} entries (budget {budget})"
        );
    }

    #[test]
    fn prefetch_counters_distinguish_used_from_wasted() {
        let mut cache: ChunkCache<&str> = ChunkCache::new(100);
        cache.put_prefetched("used", vec![1]);
        cache.put_prefetched("wasted", vec![2]);
        assert!(cache.get(&"used").is_some());
        assert!(cache.get(&"used").is_some()); // counted once, not twice
        let s = cache.stats();
        assert_eq!((s.prefetched, s.prefetch_used), (2, 1));
    }

    #[test]
    fn readahead_predicts_the_next_iteration_key() {
        let ra = Readahead::new(vec![100, 300, 700]);
        assert_eq!(
            ra.next_key("c/000100/000042").as_deref(),
            Some("c/000300/000042")
        );
        assert_eq!(
            ra.next_key("f/run/000300/0003").as_deref(),
            Some("f/run/000700/0003")
        );
        // Last iteration, unknown iteration, and non-iteration keys.
        assert_eq!(ra.next_key("c/000700/000001"), None);
        assert_eq!(ra.next_key("c/000200/000001"), None);
        assert_eq!(ra.next_key("meta.json"), None);
        assert_eq!(ra.next_key("f/run-7/manifest.json"), None);
    }

    #[test]
    fn cached_backend_reads_through_and_reports_stats() {
        let inner = MemStore::new();
        inner.put("c/000100/000001", b"alpha").unwrap();
        let cached = CachedBackend::new(inner, 1 << 10);
        assert_eq!(cached.get("c/000100/000001").unwrap(), b"alpha");
        assert_eq!(cached.get("c/000100/000001").unwrap(), b"alpha");
        let s = cached.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // Range reads served from the cached full value, bounds checked.
        assert_eq!(cached.get_range("c/000100/000001", 1, 3).unwrap(), b"lph");
        assert!(matches!(
            cached.get_range("c/000100/000001", 3, 9),
            Err(StoreError::Range { .. })
        ));
        assert_eq!(cached.size("c/000100/000001").unwrap(), 5);
        assert!(cached.contains("c/000100/000001").unwrap());
        assert!(matches!(
            cached.get("c/000100/000099"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn cached_backend_write_through_keeps_cache_coherent() {
        let cached = CachedBackend::new(MemStore::new(), 1 << 10);
        cached.put("k", b"one").unwrap();
        assert_eq!(cached.get("k").unwrap(), b"one");
        cached.put("k", b"twotwo").unwrap();
        // The refreshed value is served (from cache — hit) and the inner
        // backend agrees.
        assert_eq!(cached.get("k").unwrap(), b"twotwo");
        assert_eq!(cached.inner().get("k").unwrap(), b"twotwo");
        assert_eq!(cached.stats().hits, 2);
    }

    #[test]
    fn cached_backend_prefetches_and_chains_on_sequential_reads() {
        let inner = MemStore::new();
        for it in [100u64, 200, 300] {
            inner
                .put(&format!("c/{it:06}/000007"), &[it as u8])
                .unwrap();
        }
        let cached =
            CachedBackend::new(inner, 1 << 10).with_readahead(Readahead::new(vec![100, 200, 300]));
        // Miss on the first iteration prefetches the second; the hit on
        // the second chains the prefetch to the third.
        assert_eq!(cached.get("c/000100/000007").unwrap(), &[100]);
        assert_eq!(cached.get("c/000200/000007").unwrap(), &[200]);
        assert_eq!(cached.get("c/000300/000007").unwrap(), &[44]); // 300 % 256
        let s = cached.stats();
        assert_eq!(s.misses, 1, "only the first read touches the backend");
        assert_eq!(s.prefetched, 2);
        assert_eq!(s.prefetch_used, 2);
    }

    #[test]
    fn clear_resets_contents_but_not_counters() {
        let cached = CachedBackend::new(MemStore::new(), 1 << 10);
        cached.put("k", b"v").unwrap();
        assert_eq!(cached.cached_entries(), 1);
        cached.clear();
        assert_eq!(cached.cached_entries(), 0);
        assert_eq!(cached.get("k").unwrap(), b"v"); // reads through again
        assert_eq!(cached.stats().misses, 1);
    }
}
