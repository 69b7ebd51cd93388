//! Frame persistence and serving — the layer between the staged in situ
//! pipeline and its viewers.
//!
//! The staged runtime (`apc-stage` / `apc-core`) renders one frame per
//! stager per iteration; before this crate those frames were counted and
//! discarded. Here they become durable, addressable artifacts:
//!
//! * [`Frame`] — a stager's rendered output for one iteration: an `f32`
//!   plan-view image plus provenance (iteration, stager slot, triangle
//!   count, reduction percentage);
//! * [`FrameStore`] — persistence over any [`apc_store::StoreBackend`]
//!   (disk or memory), one key per `(run id, iteration, stager)` with a
//!   per-frame [`apc_store::CodecKind`] codec — lossless codecs replay
//!   frames byte-identically; a [`RunManifest`] document makes a stored
//!   run self-describing;
//! * [`FrameSink`] — the cloneable write handle `apc-core` threads through
//!   `StagedParams::persist` so stagers persist frames as they render;
//! * [`FrameRequest`] / [`FrameReply`] — the deterministic request/reply
//!   protocol served over `apc_comm::bounded`'s request/reply lanes (both
//!   cross as typed values metered at their encoded length), with a
//!   [`ServePolicy`] deciding what happens when a request races frame
//!   production (wait for the frame, or answer best-effort with the
//!   newest one available);
//! * [`Fidelity`] / [`degrade_stream`] — the reply-fidelity ladder the
//!   adaptive serving executor walks under latency pressure (full →
//!   lossy zfpx re-encode → score-ranked dropping → header-only), plus
//!   the deterministic re-encode that implements each rung;
//! * [`Resolution::of`] — the one rule for which frames answer a request,
//!   given the policy and how many of the run's frames are rendered;
//! * [`ServeCore`] — the per-request serve path both executors drive:
//!   fetch each resolved frame through a byte-bounded LRU
//!   ([`apc_store::ChunkCache`] keyed by [`FrameKey`]) or the store,
//!   degrade, assemble the reply — plus its client-side twin
//!   [`ReplyChecker`] and the shared observables ([`RequestLog`],
//!   [`ServerStats`], [`ServeReport`]).
//!
//! Payloads, persistence, resolution, the serve core and its summaries
//! live here, all deterministic; what stays in `apc-core` is scheduling —
//! the SPMD rank programs that decide when a request is taken and on which
//! virtual clock (`core/src/serving.rs` for the live stager pool,
//! `core/src/replay_serving.rs` for the replay pool).
//!
//! ```
//! use apc_serve::{Frame, FrameStore};
//! use apc_store::{CodecKind, MemStore};
//!
//! let store = FrameStore::new(MemStore::new(), "demo");
//! let frame = Frame::new(300, 0, 2, 2, vec![0.0, 1.5, -2.0, 45.0])
//!     .with_render_info(128, 40.0);
//! store.put_frame(&frame, CodecKind::Fpz).unwrap();
//! let back = store.get_frame(300, 0).unwrap();
//! assert_eq!(back, frame); // lossless codec: bit-exact replay
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod degrade;
pub mod frame;
pub mod protocol;
pub mod serve_core;
pub mod stats;
pub mod store;

pub use degrade::degrade_stream;
pub use frame::Frame;
pub use protocol::{Fidelity, FrameKey, FrameReply, FrameRequest, ServePolicy, ServedFrame};
pub use serve_core::{
    FidelityMix, ReplyChecker, RequestLog, Resolution, ServeCore, ServeReport, ServerStats,
};
pub use stats::percentile;
pub use store::{frame_key, open_run, FrameSink, FrameStore, RunManifest};

/// Errors of frame persistence and decoding.
#[derive(Debug)]
pub enum ServeError {
    /// The backend failed or the frame key does not exist.
    Store(apc_store::StoreError),
    /// A frame stream is structurally damaged (truncated header,
    /// bit-flipped tag, payload/shape mismatch). Never a panic: corrupt
    /// bytes from disk must surface as data, not as control flow.
    Corrupt(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "frame store error: {e}"),
            ServeError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Corrupt(_) => None,
        }
    }
}

impl From<apc_store::StoreError> for ServeError {
    fn from(e: apc_store::StoreError) -> Self {
        // Codec and shape failures inside a chunk payload mean the frame
        // bytes are damaged; everything else is a backend/key problem.
        match e {
            apc_store::StoreError::Codec(c) => ServeError::Corrupt(format!("chunk decode: {c}")),
            apc_store::StoreError::ChunkShape { expected, got } => ServeError::Corrupt(format!(
                "pixel payload holds {got} samples, frame header promises {expected}"
            )),
            apc_store::StoreError::BadMeta(m) => ServeError::Corrupt(m),
            apc_store::StoreError::Shard(m) => ServeError::Corrupt(format!("shard container: {m}")),
            other => ServeError::Store(other),
        }
    }
}
