//! What opening and reading a stored run costs the bottom backend, per
//! layout and cache choice: one table over the public open functions
//! (`StoredTimeSeries::from_backend{,_cached}` for chunk datasets,
//! `open_run` for frame runs) with every backend read recorded — the
//! operation, the key, and the byte span it asked for.
//!
//! The adapter stack a reader ends up with (shard above backend, the
//! dataset's decoded-chunk cache above both) is only observable from
//! below, so this is its pin: a change to which adapters wrap the backend,
//! or in which order, moves a row. The rows were recorded before the
//! layout decision moved behind one owner in `apc-store` and must not be
//! regenerated by a refactor.
//!
//! The two cached dataset rows are the exception, and they moved with the
//! cache, not by a refactor: the cached open used to put a caching adapter
//! with iteration-order readahead on top of the backend stack, so a miss
//! also read the next iteration's chunk. The cache now belongs to the
//! dataset, holds decoded chunks and prefetches nothing, so a cached open
//! reads what the uncached one does except that a repeat reads nothing.
//! The rows are derived from the uncached ones ([`without_repeat_reads`]),
//! which stay byte-identical.

use std::sync::{Arc, Mutex};

use insitu::cm1::StoredTimeSeries;
use insitu::grid::{Dims3, ProcGrid};
use insitu::replay::synth_run;
use insitu::serve::open_run;
use insitu::store::{
    ChunkedDataset, CodecKind, DatasetMeta, MemStore, ShardedStore, StoreBackend, StoreError,
};

/// A [`MemStore`] that logs every read it serves (writes are not the
/// subject and stay silent).
#[derive(Default)]
struct Recorder {
    inner: MemStore,
    log: Mutex<Vec<String>>,
}

impl Recorder {
    fn note(&self, line: String) {
        self.log.lock().unwrap().push(line);
    }

    /// The reads since the last call, one per line.
    fn take(&self) -> String {
        std::mem::take(&mut *self.log.lock().unwrap()).join("\n")
    }
}

impl StoreBackend for Recorder {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let got = self.inner.get(key);
        let len = got.as_ref().map_or(0, Vec::len);
        self.note(format!("get {key} = {len}"));
        got
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        self.note(format!("contains {key}"));
        self.inner.contains(key)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.note(format!("range {key} {offset}+{len}"));
        self.inner.get_range(key, offset, len)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        self.note(format!("size {key}"));
        self.inner.size(key)
    }
}

const ITERATIONS: [usize; 3] = [100, 200, 300];

fn chunk(iteration: usize, id: u32) -> Vec<f32> {
    (0..32)
        .map(|i| (iteration * 1000 + id as usize * 32 + i) as f32)
        .collect()
}

/// An 8×8×4 domain in 4×4×2 chunks (8 per iteration), three iterations,
/// flat or packed `n` chunks per shard.
fn write_dataset(backend: &Arc<Recorder>, shard_chunks: Option<usize>) {
    let meta = DatasetMeta {
        domain: Dims3::new(8, 8, 4),
        chunk: Dims3::new(4, 4, 2),
        procs: ProcGrid::new(2, 1, 1),
        codec: CodecKind::Raw,
        seed: 7,
        iterations: ITERATIONS.to_vec(),
        shard_chunks,
    };
    fn fill<B: StoreBackend>(store: &ChunkedDataset<B>) {
        for it in ITERATIONS {
            for id in 0..8 {
                store.write_chunk(it, id, &chunk(it, id)).unwrap();
            }
        }
    }
    match shard_chunks {
        Some(n) => {
            let store =
                ChunkedDataset::create(ShardedStore::new(Arc::clone(backend), n), meta).unwrap();
            fill(&store);
            store.backend().flush().unwrap();
        }
        None => fill(&ChunkedDataset::create(Arc::clone(backend), meta).unwrap()),
    }
    backend.take();
}

/// Open a chunk dataset and read chunk 5 of iteration 100 twice, then its
/// shard neighbour 6, then chunk 5 of the next iteration: what each step
/// read from the backend.
fn chunk_dataset_row(shard_chunks: Option<usize>, cache_bytes: Option<usize>) -> String {
    let backend = Arc::new(Recorder::default());
    write_dataset(&backend, shard_chunks);
    let boxed: Box<dyn StoreBackend> = Box::new(Arc::clone(&backend));
    let stored = match cache_bytes {
        Some(bytes) => StoredTimeSeries::from_backend_cached(boxed, bytes),
        None => StoredTimeSeries::from_backend(boxed),
    }
    .unwrap();
    let mut row = format!("open\n{}\n", backend.take());
    for (step, it, id) in [
        ("cold", 100, 5),
        ("again", 100, 5),
        ("neighbour", 100, 6),
        ("next iteration", 200, 5),
    ] {
        let block = stored.block(it, id).unwrap();
        assert_eq!(
            block.data,
            insitu::grid::BlockData::Full(chunk(it, id).into()),
            "{step}"
        );
        row.push_str(&format!("{step}\n{}\n", backend.take()));
    }
    row
}

/// Open a frame run (3 iterations × 2 stagers of 4×3 raw pixels) and read
/// one frame twice, then the other stager's, then probe a missing one.
fn frame_run_row(shard_chunks: Option<usize>) -> String {
    let backend = Arc::new(Recorder::default());
    let erased: Arc<dyn StoreBackend> = Arc::clone(&backend) as _;
    synth_run(
        Arc::clone(&erased),
        "run",
        &ITERATIONS,
        2,
        4,
        3,
        CodecKind::Raw,
        shard_chunks,
    );
    backend.take();
    let (store, manifest) = open_run(erased, "run").unwrap();
    assert_eq!(manifest.shard_chunks, shard_chunks);
    let mut row = format!("open\n{}\n", backend.take());
    for (step, it, stager) in [("cold", 200, 1), ("again", 200, 1), ("neighbour", 200, 0)] {
        let frame = store.get_frame(it, stager).unwrap();
        assert_eq!((frame.iteration, frame.stager), (it, stager), "{step}");
        row.push_str(&format!("{step}\n{}\n", backend.take()));
    }
    assert!(!store.contains(400, 0).unwrap());
    row.push_str(&format!("missing\n{}\n", backend.take()));
    row
}

/// Flat, uncached: the open reads `meta.json` twice (the layout probe, then
/// the dataset over the layered backend); every chunk read is one full
/// `get` of the chunk's own 129-byte key (1 tag byte + 32 raw samples).
const DATASET_FLAT: &str = "\
open
get meta.json = 174
get meta.json = 174
cold
get c/000100/000005 = 129
again
get c/000100/000005 = 129
neighbour
get c/000100/000006 = 129
next iteration
get c/000200/000005 = 129
";
/// Sharded, uncached: the first read of a shard costs its size, trailer and
/// index plus the payload — three range reads — and one range read of
/// exactly the chunk after that, never a full `get`.
const DATASET_SHARDED: &str = "\
open
get meta.json = 195
get meta.json = 195
cold
size c/000100/s000001
range c/000100/s000001 648+16
range c/000100/s000001 516+132
range c/000100/s000001 129+129
again
range c/000100/s000001 129+129
neighbour
range c/000100/s000001 258+129
next iteration
size c/000200/s000001
range c/000200/s000001 648+16
range c/000200/s000001 516+132
range c/000200/s000001 129+129
";
/// The cached row of an uncached one: the same reads, step for step,
/// except that `again` — the one repeat — reads nothing.
fn without_repeat_reads(uncached: &str) -> String {
    let (before, rest) = uncached.split_once("again\n").unwrap();
    let (_repeat, after) = rest.split_once("neighbour\n").unwrap();
    format!("{before}again\n\nneighbour\n{after}")
}

/// A flat frame run: one manifest read at open, one `get` per frame read
/// (the run's cache lives in the serve core, not in this stack).
const RUN_FLAT: &str = "\
open
get f/run/manifest.json = 160
cold
get f/run/000200/0001 = 86
again
get f/run/000200/0001 = 86
neighbour
get f/run/000200/0000 = 86
missing
contains f/run/000400/0000
";
/// A sharded frame run: the same three-then-one range reads as a sharded
/// dataset; a missing frame costs one `size` probe of its absent shard.
const RUN_SHARDED: &str = "\
open
get f/run/manifest.json = 181
cold
size f/run/000200/s000000
range f/run/000200/s000000 242+16
range f/run/000200/s000000 172+70
range f/run/000200/s000000 86+86
again
range f/run/000200/s000000 86+86
neighbour
range f/run/000200/s000000 0+86
missing
size f/run/000400/s000000
";

#[test]
fn open_paths_read_the_backend_as_recorded() {
    let rows = [
        ("dataset flat", chunk_dataset_row(None, None), DATASET_FLAT),
        (
            "dataset sharded",
            chunk_dataset_row(Some(4), None),
            DATASET_SHARDED,
        ),
        (
            "dataset flat cached",
            chunk_dataset_row(None, Some(1 << 20)),
            &without_repeat_reads(DATASET_FLAT),
        ),
        (
            "dataset sharded cached",
            chunk_dataset_row(Some(4), Some(1 << 20)),
            &without_repeat_reads(DATASET_SHARDED),
        ),
        ("run flat", frame_run_row(None), RUN_FLAT),
        ("run sharded", frame_run_row(Some(4)), RUN_SHARDED),
    ];
    for (name, got, want) in rows {
        assert_eq!(got, want, "{name}:\n{got}");
    }
}
