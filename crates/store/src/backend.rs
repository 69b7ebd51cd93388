//! Key/value chunk backends: a directory on disk, or memory for tests.
//!
//! Keys are `/`-separated UTF-8 paths (`meta.json`, `c/000100/000042`);
//! the directory backend maps them straight onto the filesystem. All
//! methods take `&self` and every backend is `Sync`, because chunk reads
//! happen concurrently from the rank threads of a session run.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::StoreError;

/// Validate and extract `offset..offset + len` of `bytes` — the shared
/// bounds arithmetic of every in-memory [`StoreBackend::get_range`].
pub fn slice_range(bytes: &[u8], key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
    let size = bytes.len() as u64;
    let end = offset.checked_add(len).filter(|&e| e <= size);
    match end {
        Some(end) => Ok(bytes[offset as usize..end as usize].to_vec()),
        None => Err(StoreError::Range {
            key: key.to_owned(),
            offset,
            len,
            size,
        }),
    }
}

/// A flat key → bytes store. `get` on a missing key is
/// [`StoreError::NotFound`]; use [`StoreBackend::contains`] to probe.
///
/// Byte-range reads ([`StoreBackend::get_range`] / [`StoreBackend::size`])
/// have `get`-based defaults so every backend supports them, but a real
/// backend should override both with genuine partial I/O — the shard
/// container ([`crate::ShardedStore`]) depends on range reads touching only
/// the requested bytes, not the whole shard.
pub trait StoreBackend: Send + Sync {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError>;
    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError>;
    fn contains(&self, key: &str) -> Result<bool, StoreError>;

    /// Read exactly `len` bytes of `key` starting at `offset`. A range
    /// extending past the value is [`StoreError::Range`], never a short
    /// read.
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        slice_range(&self.get(key)?, key, offset, len)
    }

    /// Total byte length of the value stored at `key`.
    fn size(&self, key: &str) -> Result<u64, StoreError> {
        Ok(self.get(key)?.len() as u64)
    }
}

macro_rules! forward_backend {
    ($wrapper:ty) => {
        impl<B: StoreBackend + ?Sized> StoreBackend for $wrapper {
            fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
                (**self).put(key, bytes)
            }
            fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
                (**self).get(key)
            }
            fn contains(&self, key: &str) -> Result<bool, StoreError> {
                (**self).contains(key)
            }
            fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
                (**self).get_range(key, offset, len)
            }
            fn size(&self, key: &str) -> Result<u64, StoreError> {
                (**self).size(key)
            }
        }
    };
}

forward_backend!(Box<B>);
forward_backend!(Arc<B>);
forward_backend!(&B);

/// Most files a [`DirStore`] and its clones keep open for range reads:
/// above the ≈ 200 shards one replay cycle reads, below the usual
/// 1024-descriptor soft limit.
const MAX_OPEN_FILES: usize = 256;

/// A file held open for range reads, with the length it had when opened.
#[derive(Debug)]
struct OpenFile {
    file: Mutex<File>,
    len: u64,
}

/// On-disk backend: one file per key under a root directory.
///
/// Writes create parent directories on demand. A range read opens its
/// file once and keeps it: later reads of the key seek and read through
/// that handle (each handle has its own lock), so a shard read many
/// times costs one `open`. The handles are shared by clones, at most
/// 256 of them; a full set is dropped whole and reopened on demand.
/// `put` forgets the key's handle, so a store and its clones always read
/// their own writes; a file another writer replaces is seen by a store
/// opened after that write.
#[derive(Debug, Clone)]
pub struct DirStore {
    root: PathBuf,
    open: Arc<Mutex<BTreeMap<String, Arc<OpenFile>>>>,
}

impl DirStore {
    /// Bind to `root` (created, along with parents, if missing).
    pub fn create(root: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(root)?;
        Ok(Self::bind(root))
    }

    /// Bind to an existing `root`.
    pub fn open(root: &Path) -> Result<Self, StoreError> {
        if !root.is_dir() {
            return Err(StoreError::NotFound(root.display().to_string()));
        }
        Ok(Self::bind(root))
    }

    fn bind(root: &Path) -> Self {
        Self {
            root: root.to_path_buf(),
            open: Arc::default(),
        }
    }

    /// The file a key names. Keys are relative paths of plain segments:
    /// an empty, `.` or `..` segment (so also an absolute key) would alias
    /// another key or leave the root, and is a [`StoreError::BadKey`] for
    /// every operation.
    fn path_of(&self, key: &str) -> Result<PathBuf, StoreError> {
        let mut p = self.root.clone();
        for part in key.split('/') {
            if matches!(part, "" | "." | "..") {
                return Err(StoreError::BadKey(key.to_owned()));
            }
            p.push(part);
        }
        Ok(p)
    }

    /// The handle map, even if a reader panicked holding it: an entry is
    /// an open file or absent, so a poisoned lock exposes no torn state.
    fn open_files(&self) -> MutexGuard<'_, BTreeMap<String, Arc<OpenFile>>> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The held handle of `key`, opening the file on a miss. The open
    /// runs under the map lock, so it cannot race `put`'s forget and
    /// cache the file a finished `put` replaced.
    fn open_file(&self, key: &str) -> Result<Arc<OpenFile>, StoreError> {
        let mut open = self.open_files();
        if let Some(held) = open.get(key) {
            return Ok(Arc::clone(held));
        }
        let file = match File::open(self.path_of(key)?) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(StoreError::NotFound(key.to_owned()))
            }
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        if open.len() >= MAX_OPEN_FILES {
            open.clear();
        }
        let held = Arc::new(OpenFile {
            file: Mutex::new(file),
            len,
        });
        open.insert(key.to_owned(), Arc::clone(&held));
        Ok(held)
    }

    /// Handles currently held (at most [`MAX_OPEN_FILES`]).
    #[cfg(test)]
    fn held_files(&self) -> usize {
        self.open_files().len()
    }
}

impl StoreBackend for DirStore {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Write-then-rename so a key is either absent or complete: an
        // interrupted writer (kill, ENOSPC) must not leave a truncated
        // chunk that `contains` would report as present.
        let last = key.rsplit('/').next().unwrap_or(key);
        let tmp = path.with_file_name(format!(".{last}.tmp"));
        std::fs::write(&tmp, bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                // After the rename: a read that opens the key from here
                // on gets the new file.
                self.open_files().remove(key);
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        match std::fs::read(self.path_of(key)?) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == ErrorKind::NotFound => Err(StoreError::NotFound(key.to_owned())),
            Err(e) => Err(e.into()),
        }
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        Ok(self.path_of(key)?.is_file())
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        // Genuine partial I/O: seek + exact read, never the whole file.
        let held = self.open_file(key)?;
        let size = held.len;
        if offset.checked_add(len).filter(|&end| end <= size).is_none() {
            return Err(StoreError::Range {
                key: key.to_owned(),
                offset,
                len,
                size,
            });
        }
        let mut buf = vec![0u8; len as usize];
        // A reader that panicked here left only the file position behind,
        // and every read seeks first.
        let mut file = held.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        match std::fs::metadata(self.path_of(key)?) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == ErrorKind::NotFound => Err(StoreError::NotFound(key.to_owned())),
            Err(e) => Err(e.into()),
        }
    }
}

/// In-memory backend for tests and benchmarks: a `BTreeMap` behind an
/// `RwLock` (many concurrent readers, exclusive writers; deterministic
/// key order for diagnostics that iterate).
#[derive(Debug, Default)]
pub struct MemStore {
    map: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the map even if a writer panicked mid-`put`: values are plain
    /// byte vectors, so a poisoned lock cannot expose a torn invariant.
    fn read_map(&self) -> RwLockReadGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_map(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of stored keys (diagnostics).
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes over all keys (compression diagnostics).
    pub fn nbytes(&self) -> usize {
        self.read_map().values().map(Vec::len).sum()
    }
}

impl StoreBackend for MemStore {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.write_map().insert(key.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.read_map()
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        Ok(self.read_map().contains_key(key))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        // Slice under the read lock: no full-value clone for range reads.
        let map = self.read_map();
        let bytes = map
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))?;
        slice_range(bytes, key, offset, len)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        let map = self.read_map();
        map.get(key)
            .map(|b| b.len() as u64)
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StoreBackend) {
        assert!(!backend.contains("a/b").unwrap());
        assert!(matches!(backend.get("a/b"), Err(StoreError::NotFound(_))));
        backend.put("a/b", b"hello").unwrap();
        assert!(backend.contains("a/b").unwrap());
        assert_eq!(backend.get("a/b").unwrap(), b"hello");
        backend.put("a/b", b"rewritten").unwrap();
        assert_eq!(backend.get("a/b").unwrap(), b"rewritten");
        backend.put("top", b"").unwrap();
        assert_eq!(backend.get("top").unwrap(), b"");
    }

    #[test]
    fn mem_store_basics() {
        let store = MemStore::new();
        exercise(&store);
        assert_eq!(store.len(), 2);
        assert_eq!(store.nbytes(), b"rewritten".len());
    }

    #[test]
    fn dir_store_basics() {
        let root = std::env::temp_dir()
            .join("apc_store_backend_tests")
            .join("basics");
        let _ = std::fs::remove_dir_all(&root);
        let store = DirStore::create(&root).unwrap();
        exercise(&store);
        // Keys map to real nested files.
        assert!(root.join("a").join("b").is_file());
        // Reopen sees the same content.
        let again = DirStore::open(&root).unwrap();
        assert_eq!(again.get("a/b").unwrap(), b"rewritten");
    }

    /// A range read keeps its file open; a `put` of the key, through the
    /// store or a clone, must not leave either reading the old file.
    #[test]
    fn dir_store_range_reads_see_their_own_writes() {
        let root = std::env::temp_dir()
            .join("apc_store_backend_tests")
            .join("held_writes");
        let _ = std::fs::remove_dir_all(&root);
        let store = DirStore::create(&root).unwrap();
        let clone = store.clone();
        store.put("c/s0", b"first version").unwrap();
        assert_eq!(store.get_range("c/s0", 6, 7).unwrap(), b"version");
        assert_eq!(clone.get_range("c/s0", 0, 5).unwrap(), b"first");
        assert_eq!(store.held_files(), 1, "clones share the held handles");

        clone.put("c/s0", b"second, longer version").unwrap();
        assert_eq!(store.get_range("c/s0", 0, 6).unwrap(), b"second");
        assert_eq!(clone.get_range("c/s0", 15, 7).unwrap(), b"version");
        store.put("c/s0", b"third").unwrap();
        assert_eq!(clone.get_range("c/s0", 0, 5).unwrap(), b"third");
        assert_eq!(store.get_range("c/s0", 0, 5).unwrap(), b"third");

        // Bounds come from the length recorded at open: the current one.
        for (offset, len) in [(0, 6), (5, 1), (4, 2), (u64::MAX, 1)] {
            match store.get_range("c/s0", offset, len) {
                Err(StoreError::Range {
                    key,
                    offset: o,
                    len: l,
                    size,
                }) => assert_eq!((key.as_str(), o, l, size), ("c/s0", offset, len, 5)),
                other => panic!("range {offset}+{len}: {other:?}"),
            }
        }
        assert_eq!(store.get_range("c/s0", 5, 0).unwrap(), b"");
        assert!(matches!(
            store.get_range("c/absent", 0, 1),
            Err(StoreError::NotFound(_))
        ));
    }

    /// Reading more distinct files than the cap succeeds, and the store
    /// never holds more than [`MAX_OPEN_FILES`] handles.
    #[test]
    fn dir_store_holds_at_most_the_capped_handles() {
        let root = std::env::temp_dir()
            .join("apc_store_backend_tests")
            .join("held_cap");
        let _ = std::fs::remove_dir_all(&root);
        let store = DirStore::create(&root).unwrap();
        let files = MAX_OPEN_FILES + 44;
        let key = |i: usize| format!("c/s{i:06}");
        for i in 0..files {
            store.put(&key(i), &(i as u32).to_le_bytes()).unwrap();
        }
        let mut most = 0;
        for pass in 0..2 {
            for i in 0..files {
                let bytes = store.get_range(&key(i), 0, 4).unwrap();
                assert_eq!(bytes, (i as u32).to_le_bytes(), "pass {pass}, file {i}");
                most = most.max(store.held_files());
            }
        }
        assert_eq!(most, MAX_OPEN_FILES);
        // A re-read of a held file opens nothing new.
        let held = store.held_files();
        assert!(held > 0);
        store.get_range(&key(files - 1), 1, 2).unwrap();
        assert_eq!(store.held_files(), held);
    }

    #[test]
    fn dir_store_keys_cannot_leave_the_root() {
        let base = std::env::temp_dir()
            .join("apc_store_backend_tests")
            .join("badkey");
        let _ = std::fs::remove_dir_all(&base);
        let root = base.join("root");
        let store = DirStore::create(&root).unwrap();
        // A file next to the root that an escaping key would reach.
        std::fs::write(base.join("escaped"), b"outside").unwrap();
        for key in [
            "",
            "..",
            "a/..",
            "../escaped",
            "a/../../escaped",
            ".",
            "a/./b",
            "a//b",
            "a/",
            "/abs",
        ] {
            let bad = |r: Result<(), StoreError>| matches!(r, Err(StoreError::BadKey(_)));
            assert!(bad(store.put(key, b"x")), "put {key:?}");
            assert!(bad(store.get(key).map(drop)), "get {key:?}");
            assert!(bad(store.contains(key).map(drop)), "contains {key:?}");
            assert!(bad(store.size(key).map(drop)), "size {key:?}");
            assert!(
                bad(store.get_range(key, 0, 1).map(drop)),
                "get_range {key:?}"
            );
        }
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
        assert_eq!(std::fs::read(base.join("escaped")).unwrap(), b"outside");
    }

    /// A writer killed between `put`'s temp write and its rename leaves a
    /// torn `.<last>.tmp` beside the key: beside an absent shard (killed
    /// mid-first-seal) and beside a sealed one (killed mid-rewrite).
    /// Readers see the key absent or its previous bytes, and the next
    /// `put` of the key succeeds over the leftover.
    #[test]
    fn dir_store_torn_temp_write_is_invisible_and_overwritten() {
        use crate::{ShardWriter, ShardedStore};

        let root = std::env::temp_dir()
            .join("apc_store_backend_tests")
            .join("torn");
        let _ = std::fs::remove_dir_all(&root);
        let store = DirStore::create(&root).unwrap();
        let chunk = |id: u32| format!("c/000100/{id:06}");
        let v1 = |id: u32| vec![id as u8; 64];
        let mut sealed = ShardWriter::new();
        for id in 4..8 {
            sealed.append(&chunk(id), &v1(id)).unwrap();
        }
        sealed.write_to(&store, "c/000100/s000001").unwrap();
        let before = store.get("c/000100/s000001").unwrap();
        // The torn temps: half of the sealed container, under both names.
        for last in ["s000000", "s000001"] {
            let tmp = root.join(format!("c/000100/.{last}.tmp"));
            std::fs::write(tmp, &before[..before.len() / 2]).unwrap();
        }

        let absent = "c/000100/s000000";
        assert!(!store.contains(absent).unwrap());
        let not_found = |r: Result<(), StoreError>| matches!(r, Err(StoreError::NotFound(_)));
        assert!(not_found(store.get(absent).map(drop)));
        assert!(not_found(store.size(absent).map(drop)));
        assert!(not_found(store.get_range(absent, 0, 1).map(drop)));
        assert_eq!(store.get("c/000100/s000001").unwrap(), before);

        let sharded = ShardedStore::new(&store, 4);
        for id in 0..4 {
            assert!(!sharded.contains(&chunk(id)).unwrap());
            assert!(not_found(sharded.get(&chunk(id)).map(drop)));
            assert!(not_found(sharded.size(&chunk(id)).map(drop)));
            assert!(not_found(sharded.get_range(&chunk(id), 0, 1).map(drop)));
        }
        for id in 4..8 {
            assert!(sharded.contains(&chunk(id)).unwrap());
            assert_eq!(sharded.get(&chunk(id)).unwrap(), v1(id));
            assert_eq!(sharded.size(&chunk(id)).unwrap(), 64);
            assert_eq!(sharded.get_range(&chunk(id), 8, 4).unwrap(), v1(id)[8..12]);
        }

        // The next puts seal both groups over the leftovers.
        let v2 = |id: u32| vec![!(id as u8); 32];
        for id in 0..8 {
            sharded.put(&chunk(id), &v2(id)).unwrap();
        }
        drop(sharded);
        let reopened = ShardedStore::new(&store, 4);
        for id in 0..8 {
            assert_eq!(reopened.get(&chunk(id)).unwrap(), v2(id));
        }
        for last in ["s000000", "s000001"] {
            assert!(!root.join(format!("c/000100/.{last}.tmp")).exists());
        }
    }

    #[test]
    fn dir_store_open_missing_root_is_error() {
        let root = std::env::temp_dir()
            .join("apc_store_backend_tests")
            .join("missing");
        let _ = std::fs::remove_dir_all(&root);
        assert!(matches!(
            DirStore::open(&root),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn boxed_backend_delegates() {
        let boxed: Box<dyn StoreBackend> = Box::new(MemStore::new());
        boxed.put("k", b"v").unwrap();
        assert_eq!(boxed.get("k").unwrap(), b"v");
        assert!(boxed.contains("k").unwrap());
    }
}
