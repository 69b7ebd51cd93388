//! Partial-read guarantees of the shard container, pinned with an
//! instrumented backend: reading one chunk out of a shard must cost a
//! few small byte-range reads, never a full-shard (or full-file) read.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use apc_store::{MemStore, ShardedStore, StoreBackend, StoreError};

/// A [`MemStore`] wrapper that counts how each byte reaches the caller:
/// whole-value `get`s versus `get_range` calls and the bytes they return.
#[derive(Default)]
struct CountingBackend {
    inner: MemStore,
    full_gets: AtomicUsize,
    range_reads: AtomicUsize,
    range_bytes: AtomicUsize,
}

impl CountingBackend {
    fn reset(&self) {
        self.full_gets.store(0, Ordering::SeqCst);
        self.range_reads.store(0, Ordering::SeqCst);
        self.range_bytes.store(0, Ordering::SeqCst);
    }

    fn full_gets(&self) -> usize {
        self.full_gets.load(Ordering::SeqCst)
    }

    fn range_reads(&self) -> usize {
        self.range_reads.load(Ordering::SeqCst)
    }

    fn range_bytes(&self) -> usize {
        self.range_bytes.load(Ordering::SeqCst)
    }
}

impl StoreBackend for CountingBackend {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.full_gets.fetch_add(1, Ordering::SeqCst);
        self.inner.get(key)
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.contains(key)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.range_reads.fetch_add(1, Ordering::SeqCst);
        self.range_bytes.fetch_add(len as usize, Ordering::SeqCst);
        self.inner.get_range(key, offset, len)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        // An index load starts here; hand the CPU to the other readers
        // mid-load, so a second loader gets in if nothing keeps it out.
        std::thread::yield_now();
        self.inner.size(key)
    }
}

/// 1 KiB of deterministic per-chunk filler.
fn chunk_payload(id: u32) -> Vec<u8> {
    (0..1024u32)
        .map(|i| (i.wrapping_mul(31).wrapping_add(id * 7) & 0xFF) as u8)
        .collect()
}

/// The ISSUE's acceptance criterion: a shard holding ≥ 64 chunks serves a
/// single-chunk read through `get_range` without reading the full shard.
#[test]
fn single_chunk_read_from_a_64_chunk_shard_is_partial() {
    const CHUNKS: u32 = 64;
    let counting = Arc::new(CountingBackend::default());
    let writer_store = ShardedStore::new(Arc::clone(&counting), CHUNKS as usize);
    for id in 0..CHUNKS {
        writer_store
            .put(&format!("c/000100/{id:06}"), &chunk_payload(id))
            .unwrap();
    }
    drop(writer_store); // group sealed at CHUNKS puts; nothing pending
    let shard_size = counting.size("c/000100/s000000").unwrap() as usize;
    assert!(
        shard_size > CHUNKS as usize * 1024,
        "all {CHUNKS} chunks live in one container"
    );

    // A fresh adapter (cold index cache) reads exactly one chunk.
    let reader_store = ShardedStore::new(Arc::clone(&counting), CHUNKS as usize);
    counting.reset();
    let got = reader_store.get("c/000100/000037").unwrap();
    assert_eq!(got, chunk_payload(37));

    // No whole-shard read: zero full `get`s, three range reads (trailer,
    // index, payload) whose bytes stay far below the shard size.
    assert_eq!(counting.full_gets(), 0, "no full-value read allowed");
    assert_eq!(counting.range_reads(), 3, "trailer + index + payload");
    assert!(
        counting.range_bytes() < shard_size / 2,
        "read {} of {} shard bytes — not a partial read",
        counting.range_bytes(),
        shard_size
    );

    // With the index now cached, the next chunk costs exactly one range
    // read of exactly the chunk's bytes.
    counting.reset();
    let got = reader_store.get("c/000100/000000").unwrap();
    assert_eq!(got, chunk_payload(0));
    assert_eq!(counting.full_gets(), 0);
    assert_eq!(counting.range_reads(), 1);
    assert_eq!(counting.range_bytes(), 1024);
}

/// The `get_range` default implementation (via `get`) and the real
/// partial-I/O overrides agree byte for byte, Dir and Mem alike.
#[test]
fn dir_and_mem_range_reads_agree() {
    let root = std::env::temp_dir()
        .join("apc_store_sharding_tests")
        .join("range-agree");
    let _ = std::fs::remove_dir_all(&root);
    let dir = apc_store::DirStore::create(&root).unwrap();
    let mem = MemStore::new();
    let payload = chunk_payload(9);
    dir.put("v/000001", &payload).unwrap();
    mem.put("v/000001", &payload).unwrap();
    for (offset, len) in [(0u64, 1024u64), (0, 0), (1023, 1), (100, 512)] {
        let d = dir.get_range("v/000001", offset, len).unwrap();
        let m = mem.get_range("v/000001", offset, len).unwrap();
        assert_eq!(d, m, "{offset}+{len}");
        assert_eq!(d, payload[offset as usize..(offset + len) as usize]);
    }
    assert_eq!(dir.size("v/000001").unwrap(), 1024);
    assert_eq!(mem.size("v/000001").unwrap(), 1024);
    for backend in [&dir as &dyn StoreBackend, &mem] {
        assert!(matches!(
            backend.get_range("v/000001", 1020, 5),
            Err(StoreError::Range { .. })
        ));
        assert!(matches!(
            backend.get_range("v/000001", u64::MAX, 2),
            Err(StoreError::Range { .. })
        ));
        assert!(matches!(
            backend.get_range("v/missing", 0, 1),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            backend.size("v/missing"),
            Err(StoreError::NotFound(_))
        ));
    }
}

/// Readers that miss a shard's index together load it once: the first
/// holds the write lock through the load, the rest find its entry.
#[test]
fn concurrent_readers_load_each_shard_index_once() {
    const SHARDS: u32 = 6;
    const PER_SHARD: u32 = 4;
    const READERS: usize = 16;
    let counting = Arc::new(CountingBackend::default());
    let key = |id: u32| format!("c/000000/{id:06}");
    let writer = ShardedStore::new(Arc::clone(&counting), PER_SHARD as usize);
    for id in 0..SHARDS * PER_SHARD {
        writer.put(&key(id), &chunk_payload(id)).unwrap();
    }
    drop(writer);

    for round in 0..20 {
        // A fresh adapter: every index is cold again.
        let store = ShardedStore::new(Arc::clone(&counting), PER_SHARD as usize);
        counting.reset();
        let start = Barrier::new(READERS);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test races real threads on cold shard indexes"
        )]
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    for id in 0..SHARDS * PER_SHARD {
                        assert_eq!(store.get(&key(id)).unwrap(), chunk_payload(id));
                    }
                });
            }
        });
        // One range read per chunk read; the rest are index loads, two
        // (trailer + index) per shard touched.
        let payload_reads = READERS * (SHARDS * PER_SHARD) as usize;
        assert_eq!(
            counting.range_reads() - payload_reads,
            2 * SHARDS as usize,
            "round {round}: index loads"
        );
    }
}
