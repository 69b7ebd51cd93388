//! Key/value chunk backends: a directory on disk, or memory for tests.
//!
//! Keys are `/`-separated UTF-8 paths (`meta.json`, `c/000100/000042`);
//! the directory backend maps them straight onto the filesystem. All
//! methods take `&self` and every backend is `Sync`, because chunk reads
//! happen concurrently from the rank threads of a session run.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// On-disk backend: one file per key under a root directory.
///
/// Writes create parent directories on demand. Reads open the file per
/// call, so concurrent rank threads never contend on shared handles.
#[derive(Debug, Clone)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Bind to `root` (created, along with parents, if missing).
    pub fn create(root: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(root)?;
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// Bind to an existing `root`.
    pub fn open(root: &Path) -> Result<Self, StoreError> {
        if !root.is_dir() {
            return Err(StoreError::NotFound(root.display().to_string()));
        }
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
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
            Ok(()) => Ok(()),
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
        let mut file = match std::fs::File::open(self.path_of(key)?) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(StoreError::NotFound(key.to_owned()))
            }
            Err(e) => return Err(e.into()),
        };
        let size = file.metadata()?.len();
        if offset.checked_add(len).filter(|&end| end <= size).is_none() {
            return Err(StoreError::Range {
                key: key.to_owned(),
                offset,
                len,
                size,
            });
        }
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
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
