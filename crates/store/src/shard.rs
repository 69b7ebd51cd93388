//! Shard containers: many values packed into one store key, read back
//! through byte ranges.
//!
//! One file per chunk (apc-store) or per frame (apc-serve) hits a
//! filesystem wall at the scale the paper's replay workflow implies —
//! millions of tiny files. The fix, borrowed from the zarr sharding
//! codec, is a container that concatenates many payloads into a single
//! shard value with a trailing index, so a reader resolves
//! `key → (shard, offset, len)` and fetches exactly one payload with one
//! [`StoreBackend::get_range`] call, never the whole shard.
//!
//! # Container format (version 1)
//!
//! ```text
//! [payload 0][payload 1]…[payload n-1][index][index_len: u64 LE][b"APCSHRD"][1u8]
//! ```
//!
//! The index is a sequence of entries, one per payload:
//!
//! ```text
//! [key_len: u16 LE][key: UTF-8][offset: u64 LE][len: u64 LE]
//! ```
//!
//! Offsets are absolute from the start of the shard. The footer sits at
//! the *end* so a writer streams payloads first and a reader bootstraps
//! from two small range reads (16-byte trailer, then the index) without
//! touching any payload bytes.
//!
//! Two layers build on the format:
//!
//! * [`ShardWriter`] packs payloads and emits the container;
//! * [`ShardedStore`] adapts any [`StoreBackend`] so *callers keep using
//!   logical keys*: numeric-tailed keys (`c/000100/000042`,
//!   `f/run/000300/0003`) are grouped `chunks_per_shard` at a time into
//!   shard keys (`c/000100/s000000`), everything else (`meta.json`,
//!   manifests) passes through unsharded. It loads a shard's index with
//!   the two footer reads above, caches it, and serves each payload with
//!   one more range read.
//!
//! Corruption — truncated footers, bit-flipped indexes, out-of-bounds or
//! overlapping entries, zero-entry shards — surfaces as
//! [`StoreError::Shard`], never a panic (the `shard_adversarial`
//! integration tests and `tests/decoders_never_panic.rs` pin this).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::backend::slice_range;
use crate::{StoreBackend, StoreError};

/// Footer magic: 7 identifying bytes plus a one-byte format version.
const MAGIC: &[u8; 7] = b"APCSHRD";
const VERSION: u8 = 1;
/// `[index_len: u64][magic: 7][version: 1]`.
const FOOTER_LEN: u64 = 16;

fn shard_err(shard_key: &str, what: impl std::fmt::Display) -> StoreError {
    StoreError::Shard(format!("{shard_key}: {what}"))
}

/// Map a logical key to the shard key holding it, or `None` if the key
/// is not sharded (no `/`-separated all-digit final segment).
///
/// `c/000100/000042` with 16 chunks per shard maps to `c/000100/s000002`
/// (`42 / 16 = 2`). Shard keys start with `s`, so they can never collide
/// with the all-digit logical keys they contain.
pub fn shard_key_of(key: &str, chunks_per_shard: usize) -> Option<String> {
    let (parent, last) = key.rsplit_once('/')?;
    if last.is_empty() || !last.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let id: u64 = last.parse().ok()?;
    let group = id / chunks_per_shard.max(1) as u64;
    Some(format!("{parent}/s{group:06}"))
}

/// Packs payloads into a shard container.
///
/// Payloads are laid out in append order; [`ShardWriter::finish`] (or
/// [`ShardWriter::write_to`]) emits the trailing index and footer. An
/// empty shard is deliberately unrepresentable — `finish` on a writer
/// with no entries is a typed error, matching the reader which rejects
/// zero-entry containers.
#[derive(Debug, Default)]
pub struct ShardWriter {
    payload: Vec<u8>,
    entries: Vec<(String, u64, u64)>,
    keys: BTreeSet<String>,
}

impl ShardWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one payload under `key`. Duplicate, empty or oversized
    /// (> 64 KiB) keys are errors.
    pub fn append(&mut self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if key.is_empty() {
            return Err(StoreError::Shard("empty entry key".into()));
        }
        if key.len() > u16::MAX as usize {
            return Err(StoreError::Shard(format!(
                "entry key of {} bytes exceeds the u16 key-length field",
                key.len()
            )));
        }
        if !self.keys.insert(key.to_owned()) {
            return Err(StoreError::Shard(format!("duplicate entry key {key:?}")));
        }
        let offset = self.payload.len() as u64;
        self.payload.extend_from_slice(bytes);
        self.entries
            .push((key.to_owned(), offset, bytes.len() as u64));
        Ok(())
    }

    /// Number of appended payloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Emit the complete container: payloads, index, footer.
    pub fn finish(self) -> Result<Vec<u8>, StoreError> {
        if self.entries.is_empty() {
            return Err(StoreError::Shard(
                "refusing to write a zero-entry shard".into(),
            ));
        }
        let mut out = self.payload;
        let index_start = out.len();
        for (key, offset, len) in &self.entries {
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        let index_len = (out.len() - index_start) as u64;
        out.extend_from_slice(&index_len.to_le_bytes());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        Ok(out)
    }

    /// Finish and store the container under `shard_key`.
    pub fn write_to<B: StoreBackend + ?Sized>(
        self,
        backend: &B,
        shard_key: &str,
    ) -> Result<(), StoreError> {
        backend.put(shard_key, &self.finish()?)
    }
}

/// Parsed, validated shard index: every entry in bounds, non-overlapping
/// and uniquely keyed.
#[derive(Debug)]
struct ShardIndex {
    /// Entries in index order (the writer's append order).
    entries: Vec<(String, u64, u64)>,
    by_key: BTreeMap<String, (u64, u64)>,
}

impl ShardIndex {
    /// Load the index via footer-only range reads — payload bytes are
    /// never touched.
    fn load<B: StoreBackend + ?Sized>(
        backend: &B,
        shard_key: &str,
    ) -> Result<ShardIndex, StoreError> {
        let size = backend.size(shard_key)?;
        if size < FOOTER_LEN {
            return Err(shard_err(
                shard_key,
                format_args!("{size} bytes is shorter than the {FOOTER_LEN}-byte footer"),
            ));
        }
        let footer = backend.get_range(shard_key, size - FOOTER_LEN, FOOTER_LEN)?;
        if &footer[8..15] != MAGIC {
            return Err(shard_err(shard_key, "footer magic mismatch"));
        }
        if footer[15] != VERSION {
            return Err(shard_err(
                shard_key,
                format_args!("unsupported shard version {}", footer[15]),
            ));
        }
        #[expect(
            clippy::expect_used,
            reason = "footer is FOOTER_LEN bytes by the read above; the 8-byte sub-slice is infallible"
        )]
        let index_len = u64::from_le_bytes(footer[..8].try_into().expect("8-byte slice"));
        if index_len == 0 {
            return Err(shard_err(shard_key, "zero-entry shard"));
        }
        if index_len > size - FOOTER_LEN {
            return Err(shard_err(
                shard_key,
                format_args!("index of {index_len} bytes does not fit a {size}-byte shard"),
            ));
        }
        let payload_end = size - FOOTER_LEN - index_len;
        let index = backend.get_range(shard_key, payload_end, index_len)?;
        Self::parse(&index, payload_end, shard_key)
    }

    fn parse(index: &[u8], payload_end: u64, shard_key: &str) -> Result<ShardIndex, StoreError> {
        let mut entries = Vec::new();
        let mut by_key = BTreeMap::new();
        let mut cur = 0usize;
        let take = |cur: &mut usize, n: usize| -> Result<std::ops::Range<usize>, StoreError> {
            let end = cur
                .checked_add(n)
                .filter(|&e| e <= index.len())
                .ok_or_else(|| shard_err(shard_key, "truncated index entry"))?;
            let r = *cur..end;
            *cur = end;
            Ok(r)
        };
        while cur < index.len() {
            #[expect(
                clippy::expect_used,
                reason = "`take` returned exactly 2 bytes; the convert is infallible"
            )]
            let key_len =
                u16::from_le_bytes(index[take(&mut cur, 2)?].try_into().expect("2 bytes")) as usize;
            if key_len == 0 {
                return Err(shard_err(shard_key, "index entry with an empty key"));
            }
            let key = std::str::from_utf8(&index[take(&mut cur, key_len)?])
                .map_err(|_| shard_err(shard_key, "index entry key is not UTF-8"))?
                .to_owned();
            #[expect(
                clippy::expect_used,
                reason = "`take` returned exactly 8 bytes; the convert is infallible"
            )]
            let offset = u64::from_le_bytes(index[take(&mut cur, 8)?].try_into().expect("8 bytes"));
            #[expect(
                clippy::expect_used,
                reason = "`take` returned exactly 8 bytes; the convert is infallible"
            )]
            let len = u64::from_le_bytes(index[take(&mut cur, 8)?].try_into().expect("8 bytes"));
            if offset
                .checked_add(len)
                .filter(|&e| e <= payload_end)
                .is_none()
            {
                return Err(shard_err(
                    shard_key,
                    format_args!(
                        "entry {key:?} at {offset}+{len} exceeds the {payload_end}-byte payload region"
                    ),
                ));
            }
            if by_key.insert(key.clone(), (offset, len)).is_some() {
                return Err(shard_err(
                    shard_key,
                    format_args!("duplicate index entry for key {key:?}"),
                ));
            }
            entries.push((key, offset, len));
        }
        // Payload regions must not overlap: sorted by offset, each entry
        // must start at or after the previous one's end.
        let mut spans: Vec<(u64, u64)> = entries.iter().map(|(_, o, l)| (*o, *l)).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (prev_off, prev_len) = w[0];
            if w[1].0 < prev_off + prev_len {
                return Err(shard_err(shard_key, "overlapping index entries"));
            }
        }
        Ok(ShardIndex { entries, by_key })
    }
}

type Pending = BTreeMap<String, Vec<(String, Vec<u8>)>>;

/// A [`StoreBackend`] adapter that packs numeric-tailed keys into shard
/// containers, `chunks_per_shard` at a time, while non-numeric keys
/// (metadata, manifests) pass straight through to the inner backend.
///
/// Writes buffer in memory per shard group and seal automatically once a
/// group reaches `chunks_per_shard` entries; call [`ShardedStore::flush`]
/// to seal partial tail groups (dropping the store flushes best-effort).
/// A `put` whose seal fails returns the error with its payload still
/// buffered, so the next `put` to the group or the final `flush` retries.
/// Reads check the pending buffer first, then resolve
/// `key → (shard, offset, len)` through a cached shard index and issue a
/// single range read — so readers and writers interleave safely, which is
/// what the serving executor's cache-miss path needs.
///
/// Re-putting a key that already sealed rewrites its shard on the next
/// seal of that group (merge semantics); the common append-only workloads
/// never take that path.
pub struct ShardedStore<B: StoreBackend> {
    inner: B,
    chunks_per_shard: usize,
    pending: Mutex<Pending>,
    indexes: RwLock<BTreeMap<String, Arc<ShardIndex>>>,
}

impl<B: StoreBackend> ShardedStore<B> {
    /// Wrap `inner`, grouping `chunks_per_shard` (≥ 1) payloads per shard.
    pub fn new(inner: B, chunks_per_shard: usize) -> Self {
        assert!(chunks_per_shard > 0, "chunks_per_shard must be ≥ 1");
        Self {
            inner,
            chunks_per_shard,
            pending: Mutex::new(BTreeMap::new()),
            indexes: RwLock::new(BTreeMap::new()),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn chunks_per_shard(&self) -> usize {
        self.chunks_per_shard
    }

    fn map_key(&self, key: &str) -> Option<String> {
        shard_key_of(key, self.chunks_per_shard)
    }

    /// Pending (buffered, unsealed) payload count — diagnostics.
    // apc-lint: allow(dead-pub): the shard tests assert what flush seals and what stays buffered with it
    pub fn pending_len(&self) -> usize {
        lock(&self.pending).values().map(Vec::len).sum()
    }

    /// Seal every partially-filled shard group, in shard-key order.
    /// Idempotent. A group whose seal fails stays pending (and readable),
    /// so a later `flush` retries it.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut pending = lock(&self.pending);
        while let Some(group) = pending.first_entry() {
            self.seal(group.key(), group.get())?;
            group.remove();
        }
        Ok(())
    }

    /// Cached shard index for `shard_key`, or `None` if no such shard.
    fn index_of(&self, shard_key: &str) -> Result<Option<Arc<ShardIndex>>, StoreError> {
        if let Some(idx) = rlock(&self.indexes).get(shard_key) {
            return Ok(Some(Arc::clone(idx)));
        }
        // Readers that missed together queue on the write lock: the first
        // loads the trailer, the rest find its entry and read nothing.
        let mut indexes = wlock(&self.indexes);
        if let Some(idx) = indexes.get(shard_key) {
            return Ok(Some(Arc::clone(idx)));
        }
        match ShardIndex::load(&self.inner, shard_key) {
            Ok(idx) => {
                let idx = Arc::new(idx);
                indexes.insert(shard_key.to_owned(), Arc::clone(&idx));
                Ok(Some(idx))
            }
            Err(StoreError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Write `items` (plus anything already sealed under `shard_key` and
    /// not overridden) as one container, in sorted key order. The caller
    /// drops `items` from the pending buffer only once this returned `Ok`:
    /// a `put` that was acknowledged is never lost to a failed seal.
    fn seal(&self, shard_key: &str, items: &[(String, Vec<u8>)]) -> Result<(), StoreError> {
        let mut sealed: Vec<(String, Vec<u8>)> = Vec::new();
        if let Some(existing) = self.index_of(shard_key)? {
            for (key, offset, len) in &existing.entries {
                sealed.push((key.clone(), self.inner.get_range(shard_key, *offset, *len)?));
            }
        }
        let merged: BTreeMap<&str, &[u8]> = sealed
            .iter()
            .chain(items)
            .map(|(key, bytes)| (key.as_str(), bytes.as_slice()))
            .collect();
        let mut writer = ShardWriter::new();
        for (key, bytes) in merged {
            writer.append(key, bytes)?;
        }
        writer.write_to(&self.inner, shard_key)?;
        wlock(&self.indexes).remove(shard_key);
        Ok(())
    }

    /// Pending bytes for `key` within its shard group, if buffered.
    fn pending_get(&self, shard_key: &str, key: &str) -> Option<Vec<u8>> {
        lock(&self.pending)
            .get(shard_key)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, b)| b.clone())
    }

    /// Sealed `(offset, len)` span for `key`, or `NotFound`.
    fn sealed_entry(&self, shard_key: &str, key: &str) -> Result<(u64, u64), StoreError> {
        self.index_of(shard_key)?
            .and_then(|idx| idx.by_key.get(key).copied())
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A rank thread that panics mid-write must not wedge recovery runs
    // against the same store: recover the guard, the data is still
    // consistent (puts are whole-value).
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rlock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn wlock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

impl<B: StoreBackend> StoreBackend for ShardedStore<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let Some(sk) = self.map_key(key) else {
            return self.inner.put(key, bytes);
        };
        let mut pending = lock(&self.pending);
        let group = pending.entry(sk.clone()).or_default();
        match group.iter_mut().find(|(k, _)| k == key) {
            Some((_, b)) => *b = bytes.to_vec(),
            None => group.push((key.to_owned(), bytes.to_vec())),
        }
        if group.len() >= self.chunks_per_shard {
            self.seal(&sk, group)?;
            pending.remove(&sk);
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let Some(sk) = self.map_key(key) else {
            return self.inner.get(key);
        };
        if let Some(bytes) = self.pending_get(&sk, key) {
            return Ok(bytes);
        }
        let (offset, len) = self.sealed_entry(&sk, key)?;
        self.inner.get_range(&sk, offset, len)
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        let Some(sk) = self.map_key(key) else {
            return self.inner.contains(key);
        };
        if self.pending_get(&sk, key).is_some() {
            return Ok(true);
        }
        Ok(self
            .index_of(&sk)?
            .is_some_and(|idx| idx.by_key.contains_key(key)))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let Some(sk) = self.map_key(key) else {
            return self.inner.get_range(key, offset, len);
        };
        if let Some(bytes) = self.pending_get(&sk, key) {
            return slice_range(&bytes, key, offset, len);
        }
        let (base, total) = self.sealed_entry(&sk, key)?;
        if offset.checked_add(len).filter(|&e| e <= total).is_none() {
            return Err(StoreError::Range {
                key: key.to_owned(),
                offset,
                len,
                size: total,
            });
        }
        self.inner.get_range(&sk, base + offset, len)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        let Some(sk) = self.map_key(key) else {
            return self.inner.size(key);
        };
        if let Some(bytes) = self.pending_get(&sk, key) {
            return Ok(bytes.len() as u64);
        }
        Ok(self.sealed_entry(&sk, key)?.1)
    }
}

impl<B: StoreBackend> Drop for ShardedStore<B> {
    fn drop(&mut self) {
        // Best-effort tail seal for stores dropped without an explicit
        // flush; skipped mid-panic so a failing test reports its own
        // assertion rather than a double panic.
        if !std::thread::panicking() {
            let _ = self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn key_mapping_groups_numeric_tails_only() {
        assert_eq!(
            shard_key_of("c/000100/000042", 16).as_deref(),
            Some("c/000100/s000002")
        );
        assert_eq!(
            shard_key_of("f/run/000300/0003", 8).as_deref(),
            Some("f/run/000300/s000000")
        );
        assert_eq!(shard_key_of("meta.json", 16), None);
        assert_eq!(shard_key_of("f/run/manifest.json", 16), None);
        assert_eq!(shard_key_of("c/000100/s000002", 16), None);
        assert_eq!(shard_key_of("c/000100/", 16), None);
    }

    /// The payload of `key` in the container at `shard_key`, read through
    /// its index; `None` if the index has no such entry.
    fn read_entry(backend: &impl StoreBackend, shard_key: &str, key: &str) -> Option<Vec<u8>> {
        let index = ShardIndex::load(backend, shard_key).unwrap();
        let &(offset, len) = index.by_key.get(key)?;
        Some(backend.get_range(shard_key, offset, len).unwrap())
    }

    #[test]
    fn writer_reader_roundtrip_preserves_order_and_bytes() {
        let mem = MemStore::new();
        let mut w = ShardWriter::new();
        w.append("c/000000/000000", b"alpha").unwrap();
        w.append("c/000000/000001", b"").unwrap();
        w.append("c/000000/000002", b"gamma!").unwrap();
        assert_eq!(w.len(), 3);
        w.write_to(&mem, "c/000000/s000000").unwrap();

        let sk = "c/000000/s000000";
        let index = ShardIndex::load(&mem, sk).unwrap();
        assert_eq!(
            index.entries.iter().map(|(k, _, _)| k).collect::<Vec<_>>(),
            ["c/000000/000000", "c/000000/000001", "c/000000/000002"]
        );
        assert_eq!(read_entry(&mem, sk, "c/000000/000000").unwrap(), b"alpha");
        assert_eq!(read_entry(&mem, sk, "c/000000/000001").unwrap(), b"");
        assert_eq!(read_entry(&mem, sk, "c/000000/000002").unwrap(), b"gamma!");
        assert_eq!(read_entry(&mem, sk, "c/000000/000009"), None);
    }

    #[test]
    fn writer_rejects_duplicates_and_empty_shards() {
        let mut w = ShardWriter::new();
        w.append("k/0", b"x").unwrap();
        assert!(matches!(w.append("k/0", b"y"), Err(StoreError::Shard(_))));
        assert!(matches!(w.append("", b"y"), Err(StoreError::Shard(_))));
        assert!(matches!(
            ShardWriter::new().finish(),
            Err(StoreError::Shard(_))
        ));
    }

    #[test]
    fn sharded_store_seals_full_groups_and_reads_back() {
        let store = ShardedStore::new(MemStore::new(), 4);
        for id in 0..10u32 {
            let key = format!("c/000000/{id:06}");
            store.put(&key, format!("payload-{id}").as_bytes()).unwrap();
        }
        // Two full groups sealed, one pending tail of 2.
        assert_eq!(store.inner().len(), 2);
        assert_eq!(store.pending_len(), 2);
        for id in 0..10u32 {
            let key = format!("c/000000/{id:06}");
            assert!(store.contains(&key).unwrap());
            assert_eq!(store.get(&key).unwrap(), format!("payload-{id}").as_bytes());
        }
        store.flush().unwrap();
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.inner().len(), 3);
        // Everything still readable after the tail sealed.
        for id in 0..10u32 {
            let key = format!("c/000000/{id:06}");
            assert_eq!(store.get(&key).unwrap(), format!("payload-{id}").as_bytes());
            assert_eq!(
                store.size(&key).unwrap(),
                format!("payload-{id}").len() as u64
            );
        }
        assert!(!store.contains("c/000000/000010").unwrap());
        assert!(matches!(
            store.get("c/000000/000010"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn non_numeric_keys_pass_through_unsharded() {
        let store = ShardedStore::new(MemStore::new(), 4);
        store.put("meta.json", b"{}").unwrap();
        assert_eq!(store.get("meta.json").unwrap(), b"{}");
        assert_eq!(store.inner().get("meta.json").unwrap(), b"{}");
    }

    #[test]
    fn get_range_reads_sub_spans_of_pending_and_sealed_values() {
        let store = ShardedStore::new(MemStore::new(), 2);
        store.put("c/0/000000", b"abcdef").unwrap(); // pending
        assert_eq!(store.get_range("c/0/000000", 2, 3).unwrap(), b"cde");
        store.put("c/0/000001", b"ghijkl").unwrap(); // seals the group
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.get_range("c/0/000000", 2, 3).unwrap(), b"cde");
        assert_eq!(store.get_range("c/0/000001", 0, 6).unwrap(), b"ghijkl");
        assert!(matches!(
            store.get_range("c/0/000001", 4, 3),
            Err(StoreError::Range { .. })
        ));
    }

    #[test]
    fn reput_of_sealed_key_merges_on_next_seal() {
        let store = ShardedStore::new(MemStore::new(), 2);
        store.put("c/0/000000", b"old-0").unwrap();
        store.put("c/0/000001", b"old-1").unwrap(); // sealed
        store.put("c/0/000000", b"new-0").unwrap(); // pending override
        assert_eq!(store.get("c/0/000000").unwrap(), b"new-0");
        assert_eq!(store.get("c/0/000001").unwrap(), b"old-1");
        store.flush().unwrap();
        assert_eq!(store.get("c/0/000000").unwrap(), b"new-0");
        assert_eq!(store.get("c/0/000001").unwrap(), b"old-1");
    }

    /// A backend whose next `put` fails once, then works again.
    #[derive(Default)]
    struct FailOnce {
        inner: MemStore,
        fail_next_put: std::sync::atomic::AtomicBool,
    }

    impl StoreBackend for FailOnce {
        fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
            if self
                .fail_next_put
                .swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                return Err(StoreError::Io(std::io::Error::other("disk full")));
            }
            self.inner.put(key, bytes)
        }
        fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
            self.inner.get(key)
        }
        fn contains(&self, key: &str) -> Result<bool, StoreError> {
            self.inner.contains(key)
        }
    }

    /// A seal that fails must not take the group with it: the first,
    /// acknowledged `put` and the one that triggered the seal both stay
    /// buffered and readable, and the next `flush` lands them.
    #[test]
    fn failed_seal_keeps_accepted_puts() {
        let store = ShardedStore::new(FailOnce::default(), 2);
        store.put("c/0/000000", b"first").unwrap();
        store
            .inner()
            .fail_next_put
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(
            store.put("c/0/000001", b"second"),
            Err(StoreError::Io(_))
        ));
        assert_eq!(store.pending_len(), 2);
        assert_eq!(store.get("c/0/000000").unwrap(), b"first");
        store.flush().unwrap();
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.get("c/0/000000").unwrap(), b"first");
        assert_eq!(store.get("c/0/000001").unwrap(), b"second");

        // The same through `flush`: a failed tail seal leaves the tail
        // pending for the retry.
        store.put("c/1/000000", b"tail").unwrap();
        store
            .inner()
            .fail_next_put
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(store.flush().is_err());
        assert_eq!(store.get("c/1/000000").unwrap(), b"tail");
        store.flush().unwrap();
        let sealed = read_entry(&store.inner().inner, "c/1/s000000", "c/1/000000");
        assert_eq!(sealed.unwrap(), b"tail");
    }

    #[test]
    fn drop_flushes_pending_tail() {
        let inner = Arc::new(MemStore::new());
        {
            let store = ShardedStore::new(Arc::clone(&inner), 8);
            store.put("c/0/000000", b"tail").unwrap();
        }
        let sealed = read_entry(inner.as_ref(), "c/0/s000000", "c/0/000000");
        assert_eq!(sealed.unwrap(), b"tail");
    }
}
