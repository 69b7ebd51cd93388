//! Adversarial shard-container tests — the mirror of
//! `compress/tests/adversarial.rs` for the shard layer.
//!
//! A shard file that comes back from disk damaged must surface as a
//! typed [`StoreError`], never a panic and never an unbounded
//! allocation. The every-prefix and every-bit-flip sweep lives in
//! `tests/decoders_never_panic.rs`; this file keeps what only the shard
//! format promises:
//!
//! 1. **Hand-forged indexes** — out-of-bounds, overlapping, duplicate,
//!    empty-key and non-UTF-8 entries are all rejected when the index
//!    loads;
//! 2. **Degenerate containers** — zero-entry shards, sub-footer-size
//!    files, wrong magic or version;
//! 3. **The adapter** — corruption surfaces as the same typed error
//!    through `ShardedStore`.

use apc_par::SplitMix64;
use apc_store::{MemStore, ShardWriter, ShardedStore, StoreBackend, StoreError};

const SHARD_KEY: &str = "c/000000/s000000";

/// A small valid container: `n` entries of varied sizes (including an
/// empty payload), plus the list of its keys.
fn valid_shard(n: u32, rng: &mut SplitMix64) -> (Vec<u8>, Vec<String>) {
    let mut writer = ShardWriter::new();
    let mut keys = Vec::new();
    for id in 0..n {
        let key = format!("c/000000/{id:06}");
        let len = if id == 1 { 0 } else { rng.below(200) + 1 };
        let payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        writer.append(&key, &payload).unwrap();
        keys.push(key);
    }
    (writer.finish().unwrap(), keys)
}

/// Store `bytes` at [`SHARD_KEY`] and probe its first key through
/// `ShardedStore`, which loads and validates the index on that first read.
/// The group size is large enough that every `c/000000/<id>` key maps to
/// [`SHARD_KEY`].
fn open_bytes(bytes: &[u8]) -> Result<(), StoreError> {
    let mem = MemStore::new();
    mem.put(SHARD_KEY, bytes).unwrap();
    ShardedStore::new(mem, usize::MAX)
        .contains("c/000000/000000")
        .map(|_| ())
}

/// Forge a container from raw index entries, bypassing the writer's
/// validation — how on-disk damage that a writer would never produce
/// gets into a test.
fn forged(payload: &[u8], entries: &[(&[u8], u64, u64)]) -> Vec<u8> {
    let mut out = payload.to_vec();
    let index_start = out.len();
    for (key, offset, len) in entries {
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    let index_len = (out.len() - index_start) as u64;
    out.extend_from_slice(&index_len.to_le_bytes());
    out.extend_from_slice(b"APCSHRD");
    out.push(1);
    out
}

#[test]
fn out_of_bounds_entries_are_rejected() {
    let payload = [7u8; 64];
    for (offset, len) in [
        (0u64, 65u64),     // past the payload region
        (64, 1),           // starts exactly at the boundary
        (u64::MAX, 1),     // offset + len overflows
        (u64::MAX - 1, 2), // overflow to exactly 0
        (0, u64::MAX),     // absurd length must not allocate
    ] {
        let bytes = forged(&payload, &[(b"k/000000", offset, len)]);
        assert!(
            matches!(open_bytes(&bytes), Err(StoreError::Shard(_))),
            "entry {offset}+{len} accepted"
        );
    }
}

#[test]
fn overlapping_entries_are_rejected() {
    let payload = [7u8; 64];
    let bytes = forged(&payload, &[(b"k/000000", 0, 40), (b"k/000001", 39, 10)]);
    assert!(matches!(open_bytes(&bytes), Err(StoreError::Shard(_))));
    // Adjacent (touching, not overlapping) entries are fine.
    let bytes = forged(&payload, &[(b"k/000000", 0, 40), (b"k/000001", 40, 10)]);
    open_bytes(&bytes).unwrap();
}

#[test]
fn duplicate_empty_and_non_utf8_keys_are_rejected() {
    let payload = [7u8; 64];
    for entries in [
        vec![
            (b"k/000000".as_slice(), 0u64, 8u64),
            (b"k/000000".as_slice(), 8, 8),
        ],
        vec![(b"".as_slice(), 0, 8)],
        vec![(b"\xFF\xFE".as_slice(), 0, 8)],
    ] {
        let bytes = forged(&payload, &entries);
        assert!(
            matches!(open_bytes(&bytes), Err(StoreError::Shard(_))),
            "forged key set accepted: {entries:?}"
        );
    }
}

#[test]
fn zero_entry_shards_are_rejected_everywhere() {
    // The writer refuses to produce one…
    assert!(matches!(
        ShardWriter::new().finish(),
        Err(StoreError::Shard(_))
    ));
    // …and the reader refuses a forged one (16-byte file: empty payload,
    // empty index, valid magic).
    let bytes = forged(&[], &[]);
    assert_eq!(bytes.len(), 16);
    assert!(matches!(open_bytes(&bytes), Err(StoreError::Shard(_))));
}

#[test]
fn sub_footer_files_and_bad_magic_are_rejected() {
    for n in 0..16 {
        let bytes = vec![0u8; n];
        assert!(
            matches!(open_bytes(&bytes), Err(StoreError::Shard(_))),
            "{n}-byte file accepted"
        );
    }
    let mut rng = SplitMix64::new(0x5A03);
    let (mut shard, _) = valid_shard(3, &mut rng);
    let magic_at = shard.len() - 8;
    shard[magic_at] = b'Z';
    assert!(matches!(open_bytes(&shard), Err(StoreError::Shard(_))));
    shard[magic_at] = b'A'; // restore magic, damage the version
    *shard.last_mut().unwrap() = 9;
    assert!(matches!(open_bytes(&shard), Err(StoreError::Shard(_))));
}

/// Corruption surfaces identically through the `ShardedStore` adapter —
/// the layer the pipeline actually reads through.
#[test]
fn sharded_store_reads_of_corrupt_shards_are_typed_errors() {
    let mut rng = SplitMix64::new(0x5A04);
    let (shard, keys) = valid_shard(4, &mut rng);
    let mem = MemStore::new();
    // Damage the footer's index_len field.
    let mut copy = shard;
    let at = copy.len() - 12;
    copy[at] ^= 0xFF;
    mem.put(SHARD_KEY, &copy).unwrap();
    let store = ShardedStore::new(mem, 4);
    for key in &keys {
        assert!(
            matches!(store.get(key), Err(StoreError::Shard(_))),
            "corrupt shard served {key}"
        );
        assert!(matches!(store.contains(key), Err(StoreError::Shard(_))));
    }
}
