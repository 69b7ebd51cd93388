//! The chunk cache: a deterministic, byte-size-bounded LRU
//! ([`ChunkCache`]) with the payload type a parameter — the one caching
//! implementation every reader shares. A cached dataset open
//! ([`crate::ChunkedDataset::open_auto`]) keeps **decoded** chunks in a
//! `ChunkCache<(iteration, block id), Arc<[f32]>>`, so a warm chunk read
//! hands out the cached buffer itself; `apc-serve`'s serve core keeps
//! encoded frame streams in a `ChunkCache<FrameKey>` (the default
//! `Vec<u8>` payload).
//!
//! # Design
//!
//! * **Byte-bounded, not entry-bounded.** Capacity is a byte budget;
//!   every insert charges the payload's size (what it derefs to: a
//!   `Vec<u8>`'s bytes, an `Arc<[f32]>`'s samples × 4) and evicts
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
//!   evictions (and their bytes) and oversized bypasses.
//! * **No policy of its own.** The cache neither reads a backend nor
//!   predicts the next key: its owner looks up, reads through on a miss
//!   and inserts.

use std::collections::BTreeMap;
use std::ops::Deref;

/// Counters of one cache's lifetime (monotonic; snapshot via
/// [`ChunkCache::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to the backing store.
    pub misses: usize,
    /// Values stored (demand inserts + refreshes).
    pub insertions: usize,
    /// Entries evicted to hold the byte budget.
    pub evictions: usize,
    /// Payload bytes those evictions released.
    pub evicted_bytes: u64,
    /// Inserts rejected by the oversized-single-item rule (payload larger
    /// than the whole budget).
    pub oversized_rejects: usize,
    /// Always 0: nothing prefetches. The field stays, with
    /// [`CacheStats::prefetch_used`], for the readers of these counters
    /// that name it (the repo benchmark's report).
    pub prefetched: usize,
    /// Always 0; see [`CacheStats::prefetched`].
    pub prefetch_used: usize,
}

/// One cached payload plus its bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// This entry's position in the recency index (its key there).
    seq: u64,
}

/// A deterministic, byte-size-bounded LRU cache.
///
/// Generic over the key and the payload: datasets cache decoded chunks as
/// `ChunkCache<(usize, BlockId), Arc<[f32]>>`, `apc-serve`'s serve core
/// caches encoded streams as `ChunkCache<(u64, u32)>`. A payload is
/// charged the size of what it derefs to, so both are charged the bytes
/// they keep alive. All operations are `O(log n)`: the entry map and the
/// sequence-numbered recency index are both B-trees, and a recency
/// refresh moves exactly one index entry. A budget of `0` is the legal
/// degenerate cache that stores nothing and misses everything — the
/// uncached baseline.
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
pub struct ChunkCache<K, V = Vec<u8>> {
    budget: usize,
    used: usize,
    next_seq: u64,
    entries: BTreeMap<K, Entry<V>>,
    /// Sequence number → key, from least- to most-recently used.
    recency: BTreeMap<u64, K>,
    stats: CacheStats,
}

/// The bytes `value` is charged: the size of its deref target.
fn charge<V: Deref>(value: &V) -> usize {
    std::mem::size_of_val::<V::Target>(value)
}

impl<K: Ord + Clone, V: Deref> ChunkCache<K, V> {
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
    // apc-lint: allow(dead-pub): the cache and dataset tests assert the LRU's byte charge with it
    pub fn used_bytes(&self) -> usize {
        self.used
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
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let Some(entry) = self.entries.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.recency.remove(&entry.seq);
        self.next_seq += 1;
        entry.seq = self.next_seq;
        self.recency.insert(entry.seq, key.clone());
        Some(&entry.value)
    }

    /// Probe without touching recency or counting a hit/miss.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Insert (or refresh) a payload, evicting least-recently-used entries
    /// until the byte budget holds. A refresh with a different-sized
    /// payload re-charges the accounting — shrink frees budget, growth can
    /// itself trigger evictions. Does not count as a hit or miss.
    pub fn put(&mut self, key: K, value: V) {
        let new_len = charge(&value);
        if new_len > self.budget || self.budget == 0 {
            // Oversized-single-item rule: admitting this value would evict
            // the entire working set and still not fit (or the budget is
            // the zero/uncached baseline). Bypass — and drop any stale
            // entry under the key, since the caller just redefined it.
            self.stats.oversized_rejects += 1;
            self.remove(&key);
            return;
        }
        self.stats.insertions += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        if let Some(old) = self.entries.insert(key.clone(), Entry { value, seq }) {
            self.used -= charge(&old.value);
            self.recency.remove(&old.seq);
        }
        self.used += new_len;
        self.recency.insert(seq, key);
        self.evict_to_budget();
    }

    /// Remove one entry, releasing its budget charge. Not an eviction:
    /// the stats are untouched.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let e = self.entries.remove(key)?;
        self.used -= charge(&e.value);
        self.recency.remove(&e.seq);
        Some(e.value)
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
                let freed = charge(&e.value);
                self.used -= freed;
                self.stats.evictions += 1;
                self.stats.evicted_bytes += freed as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::fmt::Debug;
    use std::rc::Rc;
    use std::sync::Arc;

    /// The two payloads the workspace caches. Every accounting test runs
    /// for both, in units of one element: a byte for encoded streams,
    /// four for decoded samples.
    trait Payload: Deref + PartialEq + Debug + Sized {
        /// Bytes one element is charged.
        const UNIT: usize;
        fn of(len: usize, fill: u8) -> Self;
    }

    impl Payload for Vec<u8> {
        const UNIT: usize = 1;
        fn of(len: usize, fill: u8) -> Self {
            vec![fill; len]
        }
    }

    impl Payload for Arc<[f32]> {
        const UNIT: usize = 4;
        fn of(len: usize, fill: u8) -> Self {
            vec![f32::from(fill); len].into()
        }
    }

    #[test]
    fn byte_budget_evicts_in_lru_order() {
        fn case<V: Payload>() {
            let mut cache: ChunkCache<u32, V> = ChunkCache::new(10 * V::UNIT);
            cache.put(1, V::of(4, 0));
            cache.put(2, V::of(4, 0));
            assert!(cache.get(&1).is_some()); // 1 is now hottest
            cache.put(3, V::of(4, 0)); // 12 > 10: evicts 2, the coldest
            assert!(cache.get(&2).is_none());
            assert!(cache.get(&1).is_some());
            assert!(cache.get(&3).is_some());
            assert_eq!(cache.used_bytes(), 8 * V::UNIT);
            let s = cache.stats();
            assert_eq!((s.hits, s.misses), (3, 1));
            assert_eq!((s.evictions, s.evicted_bytes), (1, 4 * V::UNIT as u64));
        }
        case::<Vec<u8>>();
        case::<Arc<[f32]>>();
    }

    /// The boundary cases of byte accounting: exactly-at-budget fits, one
    /// element over evicts, and the hit/miss counters track each outcome.
    #[test]
    fn eviction_order_and_stats_at_the_byte_boundary() {
        fn case<V: Payload>() {
            let mut cache: ChunkCache<&str, V> = ChunkCache::new(8 * V::UNIT);
            cache.put("a", V::of(3, 1));
            cache.put("b", V::of(5, 2)); // 8 used: exactly at budget, no eviction
            assert_eq!(cache.stats().evictions, 0);
            assert_eq!(cache.len(), 2);

            cache.put("c", V::of(1, 3)); // 9 > 8: "a" (LRU) goes first
            assert!(cache.get(&"a").is_none());
            assert_eq!(cache.get(&"b"), Some(&V::of(5, 2)));
            assert_eq!(cache.used_bytes(), 6 * V::UNIT);

            // "c" is now LRU ("b" was just touched); 6 + 5 = 11 evicts "c",
            // still 9 > 8, so "b" goes too: multi-eviction in strict LRU
            // order.
            cache.put("d", V::of(5, 4));
            assert!(cache.get(&"c").is_none());
            assert!(cache.get(&"b").is_none());
            assert_eq!(cache.get(&"d"), Some(&V::of(5, 4)));
            let s = cache.stats();
            assert_eq!(s.evictions, 3);
            assert_eq!(s.evicted_bytes, ((3 + 1 + 5) * V::UNIT) as u64);
            assert_eq!((s.hits, s.misses), (2, 3));
        }
        case::<Vec<u8>>();
        case::<Arc<[f32]>>();
    }

    /// The oversized-single-item rule: an item larger than the whole
    /// budget bypasses the cache instead of evicting everything.
    #[test]
    fn oversized_item_bypasses_instead_of_evicting_everything() {
        fn case<V: Payload>() {
            let mut cache: ChunkCache<&str, V> = ChunkCache::new(8 * V::UNIT);
            cache.put("a", V::of(4, 0));
            cache.put("b", V::of(4, 0));
            cache.put("huge", V::of(9, 0)); // > budget: rejected
            assert_eq!(cache.len(), 2, "working set must survive");
            assert!(cache.get(&"huge").is_none());
            assert!(cache.get(&"a").is_some());
            assert!(cache.get(&"b").is_some());
            assert_eq!(cache.stats().oversized_rejects, 1);
            assert_eq!(cache.stats().evictions, 0);

            // An oversized re-put of an existing key drops the stale entry
            // rather than serving old bytes for a redefined key.
            cache.put("a", V::of(100, 0));
            assert!(cache.get(&"a").is_none());
            assert_eq!(cache.used_bytes(), 4 * V::UNIT);
        }
        case::<Vec<u8>>();
        case::<Arc<[f32]>>();
    }

    /// Regression (ISSUE 8): re-put of an existing key with a
    /// different-sized payload must re-charge the byte accounting — and
    /// trigger eviction if the budget is now exceeded. The old FrameCache
    /// swapped payloads without touching any accounting.
    #[test]
    fn reput_with_different_size_recharges_and_evicts() {
        fn case<V: Payload>() {
            let mut cache: ChunkCache<&str, V> = ChunkCache::new(10 * V::UNIT);
            cache.put("a", V::of(2, 0));
            cache.put("b", V::of(2, 0));
            cache.put("c", V::of(2, 0));
            assert_eq!(cache.used_bytes(), 6 * V::UNIT);

            // Shrink: budget is released.
            cache.put("a", V::of(1, 0));
            assert_eq!(cache.used_bytes(), 5 * V::UNIT);

            // Grow: 5 - 1 + 7 = 11 > 10, so the LRU survivor ("b") is
            // evicted; the refreshed key itself is hottest and must survive.
            cache.put("a", V::of(7, 0));
            assert_eq!(cache.used_bytes(), 9 * V::UNIT); // c(2) + a(7)
            assert!(cache.get(&"b").is_none());
            assert_eq!(cache.get(&"a"), Some(&V::of(7, 0)));
            assert!(cache.get(&"c").is_some());
            assert_eq!(cache.stats().evictions, 1);
        }
        case::<Vec<u8>>();
        case::<Arc<[f32]>>();
    }

    #[test]
    fn zero_budget_is_the_uncached_baseline() {
        fn case<V: Payload>() {
            let mut cache: ChunkCache<u32, V> = ChunkCache::new(0);
            cache.put(1, V::of(1, 1));
            cache.put(2, V::of(0, 0)); // even empty payloads stay out
            assert!(cache.is_empty());
            assert!(cache.get(&1).is_none());
            assert_eq!((cache.hits(), cache.misses()), (0, 1));
            assert_eq!(cache.stats().insertions, 0);
        }
        case::<Vec<u8>>();
        case::<Arc<[f32]>>();
    }

    /// A shared payload is handed out, not copied: what `get` returns is
    /// the buffer that was `put`, and it outlives its entry.
    #[test]
    fn shared_payloads_are_the_inserted_buffer_and_outlive_eviction() {
        let mut cache: ChunkCache<u32, Arc<[f32]>> = ChunkCache::new(8);
        let first: Arc<[f32]> = vec![1.0, 2.0].into();
        cache.put(1, Arc::clone(&first));
        let held = Arc::clone(cache.get(&1).expect("just inserted"));
        assert!(Arc::ptr_eq(&held, &first));
        cache.put(2, vec![3.0, 4.0].into()); // 16 > 8: evicts 1
        assert!(cache.get(&1).is_none());
        assert_eq!(&held[..], [1.0, 2.0]);
        cache.clear();
        assert_eq!(&held[..], [1.0, 2.0]);
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
        fn case<V: Payload>() {
            let cmps = Rc::new(Cell::new(0u64));
            let key = |id: u64| CountedKey {
                id,
                cmps: Rc::clone(&cmps),
            };
            let mut cache: ChunkCache<CountedKey, V> = ChunkCache::new(ENTRIES as usize * V::UNIT);
            for id in 0..ENTRIES {
                cache.put(key(id), V::of(1, 0));
            }
            assert_eq!(cache.len(), ENTRIES as usize);

            cmps.set(0);
            for i in 0..TOUCHES {
                // A worst-ish access pattern for an LRU scan: always touch
                // a key that is currently cold.
                assert!(cache.get(&key((i * 7919) % ENTRIES)).is_some());
            }
            let total = cmps.get();
            // Each touch costs at most 2 entry-map lookups; a 10k-entry
            // B-tree lookup is ≲ 60 comparisons (11-wide nodes, depth ≤ 5),
            // so ~12M total. The quadratic scan would need ~10⁹. Assert an
            // order-of-magnitude safety margin below that.
            let budget = TOUCHES * 2 * 60;
            assert!(
                total <= budget,
                "recency update is not O(log n): {total} comparisons for \
                 {TOUCHES} touches over {ENTRIES} entries (budget {budget})"
            );
        }
        case::<Vec<u8>>();
        case::<Arc<[f32]>>();
    }
}
