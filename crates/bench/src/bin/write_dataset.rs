//! Persist a synthetic reflectivity time series as an `apc-store` chunked
//! dataset directory — the "generate once, replay forever" half of the
//! paper's §V-A workflow. Point `APC_DATASET` at the resulting directory
//! and every figure binary replays it instead of regenerating the
//! simulation in memory:
//!
//! ```text
//! cargo run --release -p apc-bench --bin write_dataset -- target/dataset
//! APC_DATASET=target/dataset cargo run --release -p apc-bench --bin fig07_percent_sweep
//! ```
//!
//! Knobs (environment):
//!
//! * `APC_GEOM`  — `paper` (default, 440×440×76), `tiny` (80×80×16 test
//!   geometry) or `full` (2200×2200×380 — bench-cluster territory);
//! * `APC_RANKS` — rank count of the decomposition (default 64);
//! * `APC_SEED`  — storm seed (default 42);
//! * `APC_STORE_ITERS` — how many equally-spaced iterations to store
//!   (default 12, matching the quick-scale adaptation runs);
//! * `APC_CODEC` — `fpz` (default), `raw`, `lz`, or `zfpx[:tolerance]`
//!   (lossy; replay is then only approximately the in-memory result);
//! * `APC_SHARD_CHUNKS` — when set to `n` ≥ 1, pack chunks `n` at a time
//!   into shard containers instead of one file per chunk. The layout is
//!   recorded in `meta.json`, so readers need no flag to replay it.

use std::path::PathBuf;
use std::time::Instant;

use apc_cm1::{write_dataset, ReflectivityDataset};
use apc_store::CodecKind;

fn env_opt_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().map(|s| {
        s.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got {s:?}"))
    })
}

fn env_usize(name: &str, default: usize) -> usize {
    env_opt_usize(name).unwrap_or(default)
}

fn env_codec() -> CodecKind {
    let Ok(raw) = std::env::var("APC_CODEC") else {
        return CodecKind::Fpz;
    };
    let s = raw.trim();
    if let Some(tol) = s.strip_prefix("zfpx") {
        let tolerance = match tol.strip_prefix(':') {
            None if tol.is_empty() => 1e-2,
            Some(t) => t
                .parse()
                .unwrap_or_else(|_| panic!("APC_CODEC zfpx tolerance must be a float: {raw:?}")),
            _ => panic!("APC_CODEC must be raw|fpz|lz|zfpx[:tol], got {raw:?}"),
        };
        return CodecKind::from_name("zfpx", Some(tolerance)).unwrap_or_else(|_| {
            panic!("APC_CODEC zfpx tolerance must be finite and non-negative: {raw:?}")
        });
    }
    CodecKind::from_name(s, None)
        .unwrap_or_else(|_| panic!("APC_CODEC must be raw|fpz|lz|zfpx[:tol], got {raw:?}"))
}

fn dir_size(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read store dir") {
            let entry = entry.expect("dir entry");
            let meta = entry.metadata().expect("entry metadata");
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    total
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments/dataset"));
    let nranks = env_usize("APC_RANKS", 64);
    let seed = env_usize("APC_SEED", 42) as u64;
    let n_iters = env_usize("APC_STORE_ITERS", 12);
    let codec = env_codec();
    // Unset = one key per chunk. The layout owner rejects 0 ("chunks_per_shard
    // must be ≥ 1", from `apc_store::LayoutWriter::new`, before any key is written).
    let shard_chunks = env_opt_usize("APC_SHARD_CHUNKS");

    let geom = std::env::var("APC_GEOM").unwrap_or_else(|_| "paper".into());
    let dataset = match geom.as_str() {
        "paper" => ReflectivityDataset::paper_scaled(nranks, seed),
        "tiny" => ReflectivityDataset::tiny(nranks, seed),
        "full" => ReflectivityDataset::paper_full(nranks, seed),
        other => panic!("APC_GEOM must be paper|tiny|full, got {other:?}"),
    }
    .expect("decomposition");
    let iterations = dataset.sample_iterations(n_iters);

    let d = dataset.decomp();
    let raw_bytes = d.domain().len() as u64 * 4 * iterations.len() as u64;
    println!(
        "writing {} iterations of {} ({} ranks, {} blocks of {}) with codec {} (shard_chunks {shard_chunks:?}) -> {}",
        iterations.len(),
        d.domain(),
        d.nranks(),
        d.n_blocks(),
        d.block_dims(),
        codec.name(),
        dir.display(),
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "measuring the harness's real elapsed time is this bench's purpose"
    )]
    let t0 = Instant::now();
    write_dataset(&dataset, &iterations, &dir, codec, shard_chunks).expect("write dataset");
    let secs = t0.elapsed().as_secs_f64();

    let stored_bytes = dir_size(&dir);
    println!(
        "done in {:.1} s: {:.1} MB stored ({:.1} MB raw, ratio {:.3})",
        secs,
        stored_bytes as f64 / 1e6,
        raw_bytes as f64 / 1e6,
        stored_bytes as f64 / raw_bytes as f64,
    );
    println!(
        "replay with: APC_DATASET={} cargo run --release -p apc-bench --bin <figure>",
        dir.display()
    );
}
