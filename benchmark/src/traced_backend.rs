//! A `StoreBackend` that counts and times what passes through it.
//!
//! The traced run slides it under the shard and cache adapters, so the
//! counts are what the store layers actually asked of the bottom
//! backend (a cache hit never reaches it). Results and errors of the
//! inner backend pass through untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use apc_store::{StoreBackend, StoreError};

use crate::trace;

/// Calls and bytes seen so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendCounts {
    pub puts: u64,
    pub put_bytes: u64,
    pub gets: u64,
    pub range_reads: u64,
    /// Bytes returned by `get` and `get_range`.
    pub read_bytes: u64,
    pub contains: u64,
    pub sizes: u64,
}

impl BackendCounts {
    /// Counts accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &BackendCounts) -> BackendCounts {
        BackendCounts {
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            gets: self.gets - earlier.gets,
            range_reads: self.range_reads - earlier.range_reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            contains: self.contains - earlier.contains,
            sizes: self.sizes - earlier.sizes,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    puts: AtomicU64,
    put_bytes: AtomicU64,
    gets: AtomicU64,
    range_reads: AtomicU64,
    read_bytes: AtomicU64,
    contains: AtomicU64,
    sizes: AtomicU64,
}

/// See the module documentation.
#[derive(Debug)]
pub struct TracedBackend<B> {
    inner: B,
    counters: Counters,
}

impl<B: StoreBackend> TracedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            counters: Counters::default(),
        }
    }

    pub fn counts(&self) -> BackendCounts {
        // Relaxed: statistics, read after the threads that bump them
        // were joined or passed a session barrier.
        let c = &self.counters;
        BackendCounts {
            puts: c.puts.load(Ordering::Relaxed),
            put_bytes: c.put_bytes.load(Ordering::Relaxed),
            gets: c.gets.load(Ordering::Relaxed),
            range_reads: c.range_reads.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            contains: c.contains.load(Ordering::Relaxed),
            sizes: c.sizes.load(Ordering::Relaxed),
        }
    }
}

/// `inner` as the trait object an executor takes: behind a
/// [`TracedBackend`] while the recorder is on (the handle comes back
/// for its counts), bare otherwise, so untraced runs pay nothing.
pub fn wrap_if_tracing<B: StoreBackend + 'static>(
    inner: B,
) -> (Arc<dyn StoreBackend>, Option<Arc<TracedBackend<B>>>) {
    if trace::enabled() {
        let traced = Arc::new(TracedBackend::new(inner));
        (Arc::clone(&traced) as Arc<dyn StoreBackend>, Some(traced))
    } else {
        (Arc::new(inner), None)
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

impl<B: StoreBackend> StoreBackend for TracedBackend<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let _span = trace::span("backend.put");
        bump(&self.counters.puts, 1);
        bump(&self.counters.put_bytes, bytes.len() as u64);
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let _span = trace::span("backend.get");
        bump(&self.counters.gets, 1);
        let out = self.inner.get(key);
        if let Ok(bytes) = &out {
            bump(&self.counters.read_bytes, bytes.len() as u64);
        }
        out
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        let _span = trace::span("backend.contains");
        bump(&self.counters.contains, 1);
        self.inner.contains(key)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let _span = trace::span("backend.get_range");
        bump(&self.counters.range_reads, 1);
        let out = self.inner.get_range(key, offset, len);
        if let Ok(bytes) = &out {
            bump(&self.counters.read_bytes, bytes.len() as u64);
        }
        out
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        let _span = trace::span("backend.size");
        bump(&self.counters.sizes, 1);
        self.inner.size(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_store::{DirStore, MemStore};

    /// The same script against a bare and a traced backend: every result
    /// and every error, rendered, in call order.
    fn script(b: &dyn StoreBackend) -> Vec<String> {
        let show = |r: Result<Vec<u8>, StoreError>| match r {
            Ok(bytes) => format!("ok {bytes:?}"),
            Err(e) => format!("err {e}"),
        };
        vec![
            format!(
                "{:?}",
                b.put("a/one", &[1, 2, 3, 4, 5]).map_err(|e| e.to_string())
            ),
            format!("{:?}", b.put("a/two", &[]).map_err(|e| e.to_string())),
            format!("{:?}", b.put("a/", &[9]).map_err(|e| e.to_string())),
            show(b.get("a/one")),
            show(b.get("a/two")),
            show(b.get("missing")),
            show(b.get_range("a/one", 1, 3)),
            show(b.get_range("a/one", 4, 2)),
            show(b.get_range("a/one", u64::MAX, 2)),
            show(b.get_range("missing", 0, 1)),
            format!("{:?}", b.contains("a/one").map_err(|e| e.to_string())),
            format!("{:?}", b.contains("missing").map_err(|e| e.to_string())),
            format!("{:?}", b.size("a/one").map_err(|e| e.to_string())),
            format!("{:?}", b.size("missing").map_err(|e| e.to_string())),
        ]
    }

    fn expect_counts(counts: BackendCounts) {
        assert_eq!(counts.puts, 3, "a refused put is still a call");
        assert_eq!(counts.put_bytes, 5 + 1);
        assert_eq!(counts.gets, 3);
        assert_eq!(counts.range_reads, 4);
        assert_eq!(
            counts.read_bytes,
            5 + 3,
            "only successful reads return bytes"
        );
        assert_eq!(counts.contains, 2);
        assert_eq!(counts.sizes, 2);
    }

    #[test]
    fn transparent_over_mem_store() {
        let traced = TracedBackend::new(MemStore::new());
        assert_eq!(script(&traced), script(&MemStore::new()));
        expect_counts(traced.counts());
    }

    #[test]
    fn transparent_over_dir_store() {
        let root = std::env::temp_dir().join(format!("apc-benchmark-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let bare = DirStore::create(&root.join("bare")).unwrap();
        let traced = TracedBackend::new(DirStore::create(&root.join("traced")).unwrap());
        let (a, b) = (script(&traced), script(&bare));
        let counts = traced.counts();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(a, b);
        assert!(
            a[2].starts_with("Err"),
            "DirStore refuses the key a/: {}",
            a[2]
        );
        expect_counts(counts);
    }

    #[test]
    fn since_subtracts_a_snapshot() {
        let traced = TracedBackend::new(MemStore::new());
        traced.put("k", &[1, 2]).unwrap();
        let before = traced.counts();
        traced.put("k", &[1, 2, 3]).unwrap();
        traced.get("k").unwrap();
        let delta = traced.counts().since(&before);
        assert_eq!((delta.puts, delta.put_bytes), (1, 3));
        assert_eq!((delta.gets, delta.read_bytes), (1, 3));
    }
}
