//! Frame persistence: the on-store layout and its handles.
//!
//! One serving run occupies one `run_id` namespace inside any
//! [`StoreBackend`]:
//!
//! ```text
//! f/<run_id>/manifest.json          run-level metadata (RunManifest)
//! f/<run_id>/<iteration>/<stager>   one frame stream per rendered frame
//! ```
//!
//! Frame keys are pure functions of `(run_id, iteration, stager)`, so
//! concurrent stagers write disjoint keys with no coordination, and any
//! reader that knows the manifest can address every frame of the run.
//! `run_id` namespacing is what lets several runs (or several datasets —
//! the multi-dataset ROADMAP item) share one backend.
//!
//! Whether a run's frames sit one per key or packed into shard containers
//! is recorded in the manifest and decided in `apc_store::layout`:
//! [`FrameSink`] writes through its `LayoutWriter`, [`open_run`] reads
//! through its `reader`, and nothing here branches on the layout.

use std::sync::Arc;

use apc_store::fields::{DocWriter, Fields};
use apc_store::{layout, CodecKind, LayoutWriter, StoreBackend};

use crate::frame::Frame;
use crate::ServeError;

const FORMAT: &str = "apc-serve";

/// Key of the run-level manifest document.
fn manifest_key(run_id: &str) -> String {
    format!("f/{run_id}/manifest.json")
}

/// Run ids are a single path segment that must also survive the manifest's
/// JSON round trip verbatim (the strict parser has no escape sequences),
/// so the alphabet is locked down rather than blacklisted.
fn validate_run_id(run_id: &str) {
    assert!(
        !run_id.is_empty()
            && run_id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')),
        "run id must be a non-empty single path segment of [A-Za-z0-9._-], got {run_id:?}"
    );
}

/// Key of one frame stream.
pub fn frame_key(run_id: &str, iteration: u64, stager: u32) -> String {
    format!("f/{run_id}/{iteration:06}/{stager:04}")
}

/// Run-level metadata: which frames a stored run contains and how they
/// were encoded. Written once by the run driver before the rank program
/// starts, so readers never depend on backend key listing (which the
/// `StoreBackend` trait deliberately does not offer).
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    pub run_id: String,
    /// Staging slots that render (and persist) frames.
    pub n_stagers: usize,
    /// Frame dimensions (all frames of a run share them).
    pub width: usize,
    pub height: usize,
    /// Codec the run's frames were written with (per-frame streams still
    /// self-describe; this records the writer's intent).
    pub codec: CodecKind,
    /// Simulation iterations the run renders, strictly increasing.
    pub iterations: Vec<usize>,
    /// Frame layout: `None` means one store key per frame; `Some(n)`
    /// means frames are packed `n` per shard container. Recorded only:
    /// [`open_run`] hands it to [`apc_store::layout::reader`].
    pub shard_chunks: Option<usize>,
}

impl RunManifest {
    pub fn to_json(&self) -> String {
        let mut doc = DocWriter::new(FORMAT);
        doc.str_field("run_id", &self.run_id);
        doc.field("n_stagers", self.n_stagers);
        doc.field("width", self.width);
        doc.field("height", self.height);
        doc.codec_and_layout(self.codec, self.shard_chunks);
        doc.finish(&self.iterations)
    }

    /// Parse a stored manifest; a malformed or out-of-range field is
    /// [`ServeError::Corrupt`].
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        let doc = Fields::parse(text, FORMAT)?;
        Ok(Self {
            run_id: doc.str("run_id")?.to_owned(),
            n_stagers: doc.uint("n_stagers")?,
            width: doc.uint("width")?,
            height: doc.uint("height")?,
            codec: doc.codec()?,
            iterations: doc.iterations()?,
            shard_chunks: doc.shard_chunks()?,
        })
    }
}

/// Frame persistence over one backend, scoped to one `run_id`.
#[derive(Debug)]
pub struct FrameStore<B> {
    backend: B,
    run_id: String,
}

impl<B: StoreBackend> FrameStore<B> {
    pub fn new(backend: B, run_id: &str) -> Self {
        validate_run_id(run_id);
        Self {
            backend,
            run_id: run_id.to_owned(),
        }
    }

    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Persist `frame` under its `(run_id, iteration, stager)` key,
    /// returning the stored stream size in bytes.
    // apc-lint: allow(dead-pub): the apc-serve tests and crate doc seed stores frame by frame with it
    pub fn put_frame(&self, frame: &Frame, codec: CodecKind) -> Result<usize, ServeError> {
        let stream = frame.encode(codec);
        self.backend.put(
            &frame_key(&self.run_id, frame.iteration, frame.stager),
            &stream,
        )?;
        Ok(stream.len())
    }

    /// Read a frame's raw encoded stream (what the serve path ships over
    /// the wire — decoding is the client's business).
    pub fn encoded(&self, iteration: u64, stager: u32) -> Result<Vec<u8>, ServeError> {
        Ok(self
            .backend
            .get(&frame_key(&self.run_id, iteration, stager))?)
    }

    /// Read and decode a frame.
    // apc-lint: allow(dead-pub): frame_serving and open_paths read persisted frames back with it
    pub fn get_frame(&self, iteration: u64, stager: u32) -> Result<Frame, ServeError> {
        Frame::decode(&self.encoded(iteration, stager)?)
    }

    pub fn contains(&self, iteration: u64, stager: u32) -> Result<bool, ServeError> {
        Ok(self
            .backend
            .contains(&frame_key(&self.run_id, iteration, stager))?)
    }

    /// Read the run-level manifest. A stored document naming another run
    /// is `Corrupt`: its frame keys would address that run's namespace,
    /// not this handle's.
    pub fn manifest(&self) -> Result<RunManifest, ServeError> {
        let bytes = self.backend.get(&manifest_key(&self.run_id))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| ServeError::Corrupt("manifest is not utf-8".into()))?;
        let manifest = RunManifest::from_json(text)?;
        if manifest.run_id != self.run_id {
            return Err(ServeError::Corrupt(format!(
                "manifest of run {:?} stored under run {:?}",
                manifest.run_id, self.run_id
            )));
        }
        Ok(manifest)
    }
}

/// Open a completed run for reading, honoring the frame layout its
/// manifest records (the read stack is [`apc_store::layout::reader`]'s:
/// shard byte-range reads for a sharded run, the backend as-is for a flat
/// one). The layout probe is safe either way because `manifest.json`
/// always passes through a shard layer unsharded.
pub fn open_run(
    backend: Arc<dyn StoreBackend>,
    run_id: &str,
) -> Result<(FrameStore<Arc<dyn StoreBackend>>, RunManifest), ServeError> {
    let manifest = FrameStore::new(Arc::clone(&backend), run_id).manifest()?;
    let reader = layout::reader(backend, manifest.shard_chunks);
    Ok((FrameStore::new(reader, run_id), manifest))
}

/// The cloneable write handle the staged executor threads through
/// `StagedParams::persist`: a shared layout writer, a run id, and the
/// codec to write frames with. Every stager clones the handle and writes
/// its own disjoint keys. The sink also owns the run's lifecycle:
/// [`FrameSink::begin_run`] writes the manifest before the first frame,
/// [`FrameSink::flush`] seals the run after the last.
#[derive(Clone)]
pub struct FrameSink {
    writer: Arc<LayoutWriter<Arc<dyn StoreBackend>>>,
    run_id: String,
    codec: CodecKind,
}

impl FrameSink {
    /// A sink writing one store key per frame.
    pub fn new(backend: Arc<dyn StoreBackend>, run_id: &str, codec: CodecKind) -> Self {
        Self::with_layout(backend, run_id, codec, None)
    }

    /// A sink writing in the layout `shard_chunks` names — `Some(n)`
    /// packs frames `n` at a time into shard containers on `backend`.
    /// Frames stay readable through the sink (and its
    /// [`FrameSink::store`] views) while buffered; call
    /// [`FrameSink::flush`] once the run completes so external readers
    /// ([`open_run`]) see sealed shards.
    pub fn with_layout(
        backend: Arc<dyn StoreBackend>,
        run_id: &str,
        codec: CodecKind,
        shard_chunks: Option<usize>,
    ) -> Self {
        validate_run_id(run_id);
        Self {
            writer: Arc::new(LayoutWriter::new(backend, shard_chunks)),
            run_id: run_id.to_owned(),
            codec,
        }
    }

    /// Make the stored run self-describing before any frame lands:
    /// backends deliberately offer no key listing, so the manifest is how
    /// a later reader discovers what this run persisted. The sink knows
    /// the run id, codec and layout; the driver supplies the rest.
    pub fn begin_run(
        &self,
        n_stagers: usize,
        width: usize,
        height: usize,
        iterations: &[usize],
    ) -> Result<RunManifest, ServeError> {
        let manifest = RunManifest {
            run_id: self.run_id.clone(),
            n_stagers,
            width,
            height,
            codec: self.codec,
            iterations: iterations.to_vec(),
            shard_chunks: self.writer.shard_chunks(),
        };
        self.writer
            .put(&manifest_key(&self.run_id), manifest.to_json().as_bytes())?;
        Ok(manifest)
    }

    /// Seal any partially-filled shard groups. A no-op for flat sinks, so
    /// run drivers call it unconditionally at end of run.
    pub fn flush(&self) -> Result<(), ServeError> {
        Ok(self.writer.flush()?)
    }

    /// A [`FrameStore`] view over the sink's writer and run id.
    pub fn store(&self) -> FrameStore<&dyn StoreBackend> {
        FrameStore::new(&*self.writer, &self.run_id)
    }

    /// Persist one frame with the sink's codec; returns the stored bytes.
    /// A failed write panics: inside a rank program that fails the run
    /// loudly and poisons the session, the same contract as a failed
    /// chunk read in `Prepared::from_store`.
    pub fn persist(&self, frame: &Frame) -> usize {
        self.persist_stream(frame).len()
    }

    /// [`FrameSink::persist`] returning the encoded stream itself, so a
    /// serving stager can seed its hot cache without encoding twice.
    pub fn persist_stream(&self, frame: &Frame) -> Vec<u8> {
        let stream = frame.encode(self.codec);
        #[expect(
            clippy::panic,
            reason = "documented contract — a failed write fails the run loudly and poisons the session"
        )]
        self.writer
            .put(
                &frame_key(&self.run_id, frame.iteration, frame.stager),
                &stream,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "failed to persist frame (run {}, iteration {}, stager {}): {e}",
                    self.run_id, frame.iteration, frame.stager
                )
            });
        stream
    }
}

impl std::fmt::Debug for FrameSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameSink")
            .field("run_id", &self.run_id)
            .field("codec", &self.codec)
            .finish_non_exhaustive()
    }
}

/// Two sinks are equal when they write the same run through the same
/// writer — what config equality needs (`PipelineConfig` cloning must
/// compare equal to its source).
impl PartialEq for FrameSink {
    fn eq(&self, other: &Self) -> bool {
        self.run_id == other.run_id
            && self.codec == other.codec
            && Arc::ptr_eq(&self.writer, &other.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_store::{DirStore, MemStore, StoreError};

    fn sample_frame(iteration: u64, stager: u32) -> Frame {
        let pixels: Vec<f32> = (0..24)
            .map(|i| (i as f32 + iteration as f32 * 0.1).cos() * 10.0)
            .collect();
        Frame::new(iteration, stager, 6, 4, pixels).with_render_info(99, 30.0)
    }

    #[test]
    fn frame_keys_are_stable_and_disjoint() {
        assert_eq!(frame_key("r", 300, 2), "f/r/000300/0002");
        assert_ne!(frame_key("r", 300, 2), frame_key("r", 300, 3));
        assert_ne!(frame_key("a", 300, 2), frame_key("b", 300, 2));
    }

    #[test]
    fn put_get_roundtrip_mem_and_dir() {
        let mem = FrameStore::new(MemStore::new(), "run");
        let dir_root = std::env::temp_dir()
            .join("apc_serve_store_tests")
            .join("roundtrip");
        let _ = std::fs::remove_dir_all(&dir_root);
        let dir = FrameStore::new(DirStore::create(&dir_root).unwrap(), "run");
        let frame = sample_frame(300, 1);
        for codec in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
            mem.put_frame(&frame, codec).unwrap();
            dir.put_frame(&frame, codec).unwrap();
            assert_eq!(mem.get_frame(300, 1).unwrap(), frame);
            assert_eq!(dir.get_frame(300, 1).unwrap(), frame);
            // Disk and memory hold byte-identical streams.
            assert_eq!(
                mem.encoded(300, 1).unwrap(),
                dir.encoded(300, 1).unwrap(),
                "{}",
                codec.name()
            );
        }
        assert!(mem.contains(300, 1).unwrap());
        assert!(!mem.contains(301, 1).unwrap());
    }

    #[test]
    fn missing_frame_is_store_not_found() {
        let store = FrameStore::new(MemStore::new(), "run");
        assert!(matches!(
            store.get_frame(1, 0),
            Err(ServeError::Store(StoreError::NotFound(_)))
        ));
    }

    #[test]
    fn truncated_stored_frame_is_corrupt() {
        let store = FrameStore::new(MemStore::new(), "run");
        let frame = sample_frame(10, 0);
        store.put_frame(&frame, CodecKind::Fpz).unwrap();
        let full = store.encoded(10, 0).unwrap();
        store
            .backend()
            .put(&frame_key("run", 10, 0), &full[..full.len() / 2])
            .unwrap();
        assert!(matches!(
            store.get_frame(10, 0),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_roundtrip() {
        let sink = FrameSink::new(Arc::new(MemStore::new()), "run", CodecKind::Lz);
        let manifest = sink.begin_run(4, 8, 8, &[100, 250, 400]).unwrap();
        assert_eq!(manifest.n_stagers, 4);
        assert_eq!(manifest.shard_chunks, None);
        assert_eq!(sink.store().manifest().unwrap(), manifest);
    }

    /// The stored manifest, byte for byte: flat, sharded, and a lossy
    /// codec with its tolerance.
    #[test]
    fn manifest_to_json_bytes_are_pinned() {
        let flat = RunManifest {
            run_id: "run".into(),
            n_stagers: 4,
            width: 8,
            height: 6,
            codec: CodecKind::Lz,
            iterations: vec![100, 250, 400],
            shard_chunks: None,
        };
        assert_eq!(
            flat.to_json(),
            "{\n  \"format\": \"apc-serve\",\n  \"version\": 1,\n  \"run_id\": \"run\",\n  \"n_stagers\": 4,\n  \"width\": 8,\n  \"height\": 6,\n  \"codec\": \"lz\",\n  \"iterations\": [100, 250, 400]\n}"
        );
        let sharded = RunManifest {
            shard_chunks: Some(16),
            ..flat.clone()
        };
        assert_eq!(
            sharded.to_json(),
            "{\n  \"format\": \"apc-serve\",\n  \"version\": 1,\n  \"run_id\": \"run\",\n  \"n_stagers\": 4,\n  \"width\": 8,\n  \"height\": 6,\n  \"codec\": \"lz\",\n  \"shard_chunks\": 16,\n  \"iterations\": [100, 250, 400]\n}"
        );
        let lossy = RunManifest {
            codec: CodecKind::Zfpx { tolerance: 0.05 },
            shard_chunks: Some(3),
            iterations: vec![],
            ..flat
        };
        assert_eq!(
            lossy.to_json(),
            "{\n  \"format\": \"apc-serve\",\n  \"version\": 1,\n  \"run_id\": \"run\",\n  \"n_stagers\": 4,\n  \"width\": 8,\n  \"height\": 6,\n  \"codec\": \"zfpx\",\n  \"tolerance\": 0.05,\n  \"shard_chunks\": 3,\n  \"iterations\": []\n}"
        );
    }

    /// A sink only ever writes its own run's manifest; a document that
    /// names run `a` but sits under run `b`'s key must not open as `b`.
    #[test]
    fn manifest_of_another_run_is_corrupt() {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let manifest = RunManifest {
            run_id: "a".into(),
            n_stagers: 1,
            width: 2,
            height: 2,
            codec: CodecKind::Raw,
            iterations: vec![1],
            shard_chunks: None,
        };
        backend
            .put(&manifest_key("b"), manifest.to_json().as_bytes())
            .unwrap();
        assert!(matches!(
            FrameStore::new(Arc::clone(&backend), "b").manifest(),
            Err(ServeError::Corrupt(_))
        ));
        assert!(matches!(
            open_run(backend, "b"),
            Err(ServeError::Corrupt(_))
        ));
    }

    /// The `{iteration:06}`/`{stager:04}` padding saturates: beyond it,
    /// keys stay unique and readable but no longer sort numerically as
    /// strings ("1000000" sorts before "999999"), so readers follow the
    /// manifest's iteration order, never a sorted key listing.
    #[test]
    fn frame_keys_past_padding_stay_unique_and_round_trip() {
        // Boundary: padding exactly exhausted / exceeded.
        assert_eq!(frame_key("r", 999_999, 9_999), "f/r/999999/9999");
        assert_eq!(frame_key("r", 1_000_000, 10_000), "f/r/1000000/10000");
        assert_ne!(frame_key("r", 1_000_000, 0), frame_key("r", 100_000, 0));

        // Frames at and past the boundary round-trip through the store.
        let store = FrameStore::new(MemStore::new(), "r");
        for (it, stager) in [(999_999, 9_999), (1_000_000, 10_000), (1_000_001, 0)] {
            let frame = Frame::new(it, stager, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
            store.put_frame(&frame, CodecKind::Raw).unwrap();
            assert_eq!(store.get_frame(it, stager).unwrap(), frame);
        }
    }

    /// A manifest integer that does not fit is `Corrupt` (2^65 used to
    /// truncate to a width of 0), as is everything else
    /// `apc_store::fields` rejects.
    #[test]
    fn out_of_range_manifest_fields_are_corrupt() {
        let manifest = RunManifest {
            run_id: "r".into(),
            n_stagers: 1,
            width: 2,
            height: 2,
            codec: CodecKind::Raw,
            iterations: vec![1, 5],
            shard_chunks: None,
        };
        let text = manifest.to_json();
        assert_eq!(RunManifest::from_json(&text).unwrap(), manifest);
        for (from, to) in [
            ("\"width\": 2", "\"width\": 36893488147419103232"),
            ("\"n_stagers\": 1", "\"n_stagers\": -1"),
            ("[1, 5]", "[5, 1]"),
            ("apc-serve", "apc-store"),
        ] {
            assert!(text.contains(from));
            assert!(
                matches!(
                    RunManifest::from_json(&text.replace(from, to)),
                    Err(ServeError::Corrupt(_))
                ),
                "{to}"
            );
        }
    }

    #[test]
    fn sink_persists_and_compares() {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let sink = FrameSink::new(Arc::clone(&backend), "run", CodecKind::Fpz);
        let frame = sample_frame(42, 0);
        let bytes = sink.persist(&frame);
        assert!(bytes > 0);
        assert_eq!(sink.store().get_frame(42, 0).unwrap(), frame);
        assert_eq!(sink, sink.clone(), "clones compare equal");
        let other = FrameSink::new(Arc::new(MemStore::new()), "run", CodecKind::Fpz);
        assert_ne!(sink, other, "different backends are different sinks");
    }

    #[test]
    fn sharded_sink_roundtrips_and_open_run_follows_the_manifest() {
        let inner: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let sink = FrameSink::with_layout(Arc::clone(&inner), "run", CodecKind::Fpz, Some(4));
        let manifest = sink.begin_run(2, 6, 4, &[100, 200, 300]).unwrap();
        assert_eq!(manifest.shard_chunks, Some(4));
        assert_eq!(
            (manifest.run_id.as_str(), manifest.codec),
            ("run", CodecKind::Fpz)
        );
        let mut streams = Vec::new();
        for &it in &manifest.iterations {
            for stager in 0..manifest.n_stagers as u32 {
                let frame = sample_frame(it as u64, stager);
                streams.push(sink.persist_stream(&frame));
                // Buffered frames are immediately readable through the
                // sink — the serving cache-miss path depends on this.
                assert_eq!(sink.store().get_frame(it as u64, stager).unwrap(), frame);
            }
        }
        sink.flush().unwrap();

        // The raw backend holds shard containers, not per-frame keys.
        assert!(!inner.contains(&frame_key("run", 100, 0)).unwrap());
        assert!(inner.contains("f/run/000100/s000000").unwrap());

        // A fresh reader over the raw backend follows the manifest.
        let (store, read_back) = open_run(Arc::clone(&inner), "run").unwrap();
        assert_eq!(read_back, manifest);
        let keys = manifest.iterations.iter().flat_map(|&it| {
            (0..manifest.n_stagers as u32).map(move |stager| frame_key("run", it as u64, stager))
        });
        for (key, want) in keys.zip(&streams) {
            assert_eq!(&store.backend().get(&key).unwrap(), want, "{key}");
        }
        // And a flat sink round-trips through the same open_run.
        let plain: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let sink = FrameSink::new(Arc::clone(&plain), "run", CodecKind::Fpz);
        sink.begin_run(2, 6, 4, &[100]).unwrap();
        sink.persist(&sample_frame(100, 0));
        sink.flush().unwrap(); // no-op
        let (store, m) = open_run(plain, "run").unwrap();
        assert_eq!(m.shard_chunks, None);
        assert_eq!(store.get_frame(100, 0).unwrap(), sample_frame(100, 0));
    }

    #[test]
    #[should_panic(expected = "single path segment")]
    fn slash_in_run_id_rejected() {
        let _ = FrameStore::new(MemStore::new(), "a/b");
    }

    /// A run id that would corrupt the manifest's JSON (no escape support
    /// in the strict parser) is rejected at construction, not at read
    /// time after the run already wrote its data.
    #[test]
    #[should_panic(expected = "single path segment")]
    fn quote_in_run_id_rejected() {
        let _ = FrameSink::new(Arc::new(MemStore::new()), "run\"A", CodecKind::Raw);
    }
}
