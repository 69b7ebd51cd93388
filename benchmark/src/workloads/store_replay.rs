//! `store_replay`: the pipeline of `sync_adaptive` fed from disk.
//!
//! The read path does most of the work: every replayed iteration pulls
//! 6400 fpz chunks through `ChunkedDataset` → chunk cache → shard range
//! reads → `DirStore`, cold on the first pass of a sweep and warm on the
//! next two — the figure-sweep traffic the store exists for. The write
//! phase runs the same codec and shard layer in the other direction, so
//! a read win bought with a slower encode or a fatter index shows in
//! the throughput, whose clock covers the whole cycle.
//!
//! One cycle: **write** two pre-generated iterations (12 800 chunks)
//! through `ChunkedDataset::create(ShardedStore::new(DirStore, 64))` +
//! `write_chunk` + `flush`, fpz; **open** with
//! `StoredTimeSeries::from_backend_cached` (256 MiB, more than the
//! encoded set, readahead on); **replay** a three-config sweep
//! (`fixed_percent` 80, 90, 100; round-robin; `VAR`) over both
//! iterations, every rank reading its own blocks with `rank_blocks`;
//! remove the directory. A fixed percent keeps the work per iteration
//! the same for every seed.
//!
//! One op is one step of the sweep — both stored iterations replayed
//! under one config, every rank reading its blocks first — timed on the
//! driver thread around `Session::run`. (Timed per iteration on rank 0
//! the numbers mislead: ranks that finish an iteration early read ahead
//! into the next while rank 0 still waits at a barrier, so the first
//! iteration of a step looked three times as slow as the second.)
//! `items_per_s` counts blocks replayed over the wall time of whole
//! cycles, write and open included.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use apc_cm1::{ReflectivityDataset, StoredTimeSeries};
use apc_comm::{NetModel, Runtime, Session};
use apc_core::{IterationReport, Pipeline, PipelineConfig, Redistribution};
use apc_grid::{Block, BlockData};
use apc_store::{
    CacheStats, ChunkedDataset, CodecKind, DatasetMeta, DirStore, ShardedStore, StoreBackend,
};

use super::{
    generate_blocks, host_notes, setup_median, timed_loop, traced_common, traced_phases, Args,
    Phase, PIPELINE_RANKS,
};
use crate::env::ScratchDir;
use crate::report::{fnv1a64, Report};
use crate::traced_backend::{wrap_if_tracing, BackendCounts, TracedBackend};
use crate::{env, probes, stats, trace};

/// The share of this workload's wall that slows with the host kernel
/// (how it was chosen: `crate::host`).
const HOST_SHARE: f64 = 0.6;
pub const STORED_ITERATIONS: usize = 2;
pub const SWEEP_PERCENTS: [f64; 3] = [80.0, 90.0, 100.0];
pub const CHUNKS_PER_SHARD: usize = 64;
pub const CACHE_BYTES: usize = 256 << 20;
/// Chunks compared bit for bit against the generated blocks per cycle.
pub const VERIFIED_CHUNKS: usize = 64;

struct Setup {
    dataset: ReflectivityDataset,
    iterations: Vec<usize>,
    /// `blocks[k][rank]`: the blocks of `iterations[k]`.
    blocks: Vec<Vec<Vec<Block>>>,
    /// Block id → `(rank, index within the rank)`.
    by_id: Vec<(usize, usize)>,
    generate_s: f64,
    session: Session,
    spawn_s: f64,
}

impl Setup {
    fn build(seed: u64) -> Self {
        let dataset =
            ReflectivityDataset::paper_scaled(PIPELINE_RANKS, seed).expect("paper geometry");
        let iterations: Vec<usize> =
            dataset.sample_iterations(6)[2..2 + STORED_ITERATIONS].to_vec();
        let mut blocks = Vec::new();
        let mut generate_s = 0.0;
        for &it in &iterations {
            let (set, secs) = generate_blocks(&dataset, it);
            blocks.push(set);
            generate_s += secs;
        }
        let mut by_id = vec![(0, 0); dataset.decomp().n_blocks()];
        for (rank, mine) in blocks[0].iter().enumerate() {
            for (index, b) in mine.iter().enumerate() {
                by_id[b.id as usize] = (rank, index);
            }
        }
        let t0 = Instant::now();
        let session = Runtime::new(PIPELINE_RANKS, NetModel::blue_waters()).session();
        Self {
            dataset,
            iterations,
            blocks,
            by_id,
            generate_s,
            session,
            spawn_s: t0.elapsed().as_secs_f64(),
        }
    }

    fn n_blocks(&self) -> usize {
        self.by_id.len()
    }

    fn block(&self, k: usize, id: usize) -> &Block {
        let (rank, index) = self.by_id[id];
        &self.blocks[k][rank][index]
    }

    fn meta(&self, iterations: &[usize]) -> DatasetMeta {
        let decomp = self.dataset.decomp();
        DatasetMeta {
            domain: decomp.domain(),
            chunk: decomp.block_dims(),
            procs: decomp.procs(),
            codec: CodecKind::Fpz,
            seed: self.dataset.storm().seed,
            iterations: iterations.to_vec(),
            shard_chunks: Some(CHUNKS_PER_SHARD),
        }
    }

    /// Write `iterations[..n]` to `backend` the way a producer would:
    /// chunk by chunk in block order, then seal the tail shards.
    fn write(&self, backend: Box<dyn StoreBackend>, n: usize) {
        let meta = self.meta(&self.iterations[..n]);
        let store = ChunkedDataset::create(ShardedStore::new(backend, CHUNKS_PER_SHARD), meta)
            .expect("create the dataset");
        for (k, &it) in self.iterations[..n].iter().enumerate() {
            for id in 0..self.n_blocks() {
                let block = self.block(k, id);
                let BlockData::Full(samples) = &block.data else {
                    unreachable!("generated blocks are full")
                };
                store
                    .write_chunk(it, block.id, samples)
                    .expect("write a chunk");
            }
        }
        store.backend().flush().expect("seal the tail shards");
    }
}

fn sweep_config(percent: f64) -> PipelineConfig {
    PipelineConfig::default()
        .with_fixed_percent(percent)
        .with_redistribution(Redistribution::RoundRobin)
        .with_metric("VAR")
}

/// One sweep step over `source`: rank 0's reports and the wall seconds
/// of the `Session::run`.
fn replay_step<F>(s: &mut Setup, percent: f64, source: &F) -> (Vec<IterationReport>, f64)
where
    F: Fn(usize, usize, usize) -> Vec<Block> + Sync,
{
    let config = sweep_config(percent);
    let (dataset, iterations) = (&s.dataset, &s.iterations);
    let _op = trace::op("op.replay");
    let t0 = Instant::now();
    let mut per_rank = s.session.run(|rank| {
        let mut pipeline =
            Pipeline::new(config.clone(), *dataset.decomp(), dataset.coords().clone());
        iterations
            .iter()
            .enumerate()
            .map(|(k, &it)| {
                let mine = {
                    let _span = trace::span("store.rank_blocks");
                    source(k, it, rank.rank())
                };
                let _span = trace::span("core.run_iteration");
                pipeline.run_iteration(rank, mine, it).0
            })
            .collect::<Vec<_>>()
    });
    (per_rank.swap_remove(0), t0.elapsed().as_secs_f64())
}

/// What one cycle did besides its ops.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CycleFacts {
    traced: bool,
    write_s: f64,
    cache: CacheStats,
    backend: BackendCounts,
}

struct Workload {
    s: Setup,
    scratch: ScratchDir,
    /// `reference[config][k]`: the same sweep over the in-memory blocks.
    reference: Vec<Vec<IterationReport>>,
    facts: Vec<CycleFacts>,
}

impl Workload {
    fn cycle(&mut self, phase: &mut Phase) {
        let dir = self.scratch.path("store");
        let (shared, counter) = wrap_if_tracing(dir_store(&dir));
        let backend = || -> Box<dyn StoreBackend> { Box::new(Arc::clone(&shared)) };

        let t0 = Instant::now();
        {
            let _op = trace::op("op.write");
            self.s.write(backend(), STORED_ITERATIONS);
        }
        let write_s = t0.elapsed().as_secs_f64();
        let stored = StoredTimeSeries::from_backend_cached(backend(), CACHE_BYTES)
            .expect("reopen the dataset");
        let mut failed = 0;
        for (percent, want) in SWEEP_PERCENTS.iter().zip(&self.reference) {
            let (reports, wall_s) = replay_step(&mut self.s, *percent, &|_, it, rank| {
                stored.rank_blocks(it, rank).expect("read a rank's blocks")
            });
            failed += usize::from(&reports != want);
            phase.op_ms.push(wall_s * 1e3);
        }
        let mut timed_s = t0.elapsed().as_secs_f64();
        let cache = stored.cache_stats().expect("opened with a cache");

        // Outside the clock: sampled chunks against the generated blocks.
        let intact = (0..VERIFIED_CHUNKS).all(|j| {
            let (k, id) = (j % STORED_ITERATIONS, (j * 100 + 7) % self.s.n_blocks());
            stored
                .block(self.s.iterations[k], id as u32)
                .is_ok_and(|b| &b == self.s.block(k, id))
        });

        let t1 = Instant::now();
        drop(stored);
        std::fs::remove_dir_all(&dir).expect("remove the cycle's store");
        timed_s += t1.elapsed().as_secs_f64();

        let ops = SWEEP_PERCENTS.len();
        phase.wall_s += timed_s;
        phase.items += (self.s.n_blocks() * STORED_ITERATIONS * ops) as u64;
        phase.attempted += ops as u64;
        // A damaged store fails every op that read it.
        phase.failed += if intact { failed as u64 } else { ops as u64 };
        self.facts.push(CycleFacts {
            traced: counter.is_some(),
            write_s,
            cache,
            backend: counter.map(|c| c.counts()).unwrap_or_default(),
        });
    }
}

fn dir_store(dir: &Path) -> DirStore {
    DirStore::create(dir).expect("create the store directory")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(&args.workload, args.seed, args.seconds, args.traced);
    host_notes(&mut report, PIPELINE_RANKS);
    let scratch = ScratchDir::create().expect("scratch directory inside the checkout");
    let (mut s, setup) = setup_median(|| Setup::build(args.seed));

    // The reference: the same sweep over the blocks still in memory.
    let mut reference = Vec::new();
    for percent in SWEEP_PERCENTS {
        let blocks = std::mem::take(&mut s.blocks);
        let (reports, _) = replay_step(&mut s, percent, &|k, _, rank| blocks[k][rank].clone());
        s.blocks = blocks;
        reference.push(reports);
    }
    report.digest = fnv1a64(format!("{reference:?}").as_bytes());

    let mut w = Workload {
        s,
        scratch,
        reference,
        facts: Vec::new(),
    };
    if !args.traced {
        let phase = timed_loop(args.seconds, |p| w.cycle(p));
        super::end_to_end(&mut report, &phase, setup, HOST_SHARE);
        return report;
    }
    let phases = traced_phases(args.seconds, |p| w.cycle(p));
    traced_common(&mut report, &phases, setup, HOST_SHARE);
    per_layer(&mut report, &mut w, &phases, args.seconds);
    report
}

fn per_layer(report: &mut Report, w: &mut Workload, phases: &super::TracedPhases, seconds: f64) {
    let s = &mut w.s;
    let chunk_points = s.dataset.decomp().block_dims().len();
    let points = s.n_blocks() * chunk_points * STORED_ITERATIONS;
    report.set("cm1.generate_mpts_s", points as f64 / s.generate_s / 1e6, 1);
    report.note("generate_threads", env::nproc().min(PIPELINE_RANKS));
    report.set("comm.session_spawn_ms", s.spawn_s * 1e3, 1);
    let flat: Vec<IterationReport> = w.reference.iter().flatten().copied().collect();
    super::pipeline_counts(report, &flat);
    super::iteration_busy(report, &phases.spans);

    // Write phase, from the cycles that ran with tracing off.
    let chunks_per_cycle = (s.n_blocks() * STORED_ITERATIONS) as f64;
    let raw_mb = chunks_per_cycle * chunk_points as f64 * 4.0 / 1e6;
    let plain_writes: Vec<f64> = w
        .facts
        .iter()
        .filter(|f| !f.traced)
        .map(|f| f.write_s)
        .collect();
    let write_s = stats::median(&plain_writes);
    report.set("store.write_mb_s", raw_mb / write_s, plain_writes.len());
    report.set(
        "store.write_chunk_us",
        write_s / chunks_per_cycle * 1e6,
        plain_writes.len(),
    );

    // Counts of one traced cycle; every traced cycle must agree.
    let traced: Vec<&CycleFacts> = w.facts.iter().filter(|f| f.traced).collect();
    let last = **traced.last().expect("the traced phase ran a cycle");
    let same = traced
        .iter()
        .all(|f| (f.cache, f.backend.put_bytes) == (last.cache, last.backend.put_bytes));
    report.note("cycle_counts_identical", same);
    let reads = (last.cache.hits + last.cache.misses) as f64;
    report.set("store.cache_hit_rate", last.cache.hits as f64 / reads, 1);
    report.set("store.cache_evictions", last.cache.evictions as f64, 1);
    report.set(
        "store.prefetch_used_share",
        last.cache.prefetch_used as f64 / (last.cache.prefetched.max(1)) as f64,
        1,
    );
    report.set(
        "store.backend_read_bytes",
        last.backend.read_bytes as f64,
        1,
    );
    report.set("store.backend_put_bytes", last.backend.put_bytes as f64, 1);

    // Span seams: thread-seconds in the block source per replayed
    // iteration, and self time inside the bottom backend per cycle.
    let own = trace::self_times_ns(&phases.spans);
    let (source_s, _, source_n) = trace::totals(&phases.spans, &own, "store.rank_blocks");
    report.set(
        "store.rank_blocks_busy_s",
        source_s / (phases.traced.op_ms.len() * STORED_ITERATIONS) as f64,
        source_n,
    );
    let (_, backend_s, backend_n) = trace::totals(&phases.spans, &own, "backend.");
    report.set(
        "store.backend_busy_s",
        backend_s / traced.len() as f64,
        backend_n,
    );

    // Probe pass.
    let budget = seconds * 0.04;
    let sample: Vec<Block> = s.blocks[0].iter().flatten().step_by(20).cloned().collect();
    let dims = s.dataset.decomp().block_dims();
    let arrays: probes::Arrays = sample
        .iter()
        .map(|b| (b.samples().into_owned(), (dims.nx, dims.ny, dims.nz)))
        .collect();
    probes::codecs(report, &arrays, budget * 2.0);
    let isovalue = sweep_config(0.0).isovalue;
    let kernels =
        probes::pipeline_kernels(report, &sample, s.dataset.coords(), isovalue, budget * 2.0);
    probes::session_noop(report, &mut s.session, budget);
    let sort_s = probes::sort_gsb(report, &mut s.session, budget);
    probes::par_map_overhead(report, budget);
    let (cold_s, warm_s) = read_probe(report, s, &w.scratch);
    let decode_s = chunk_points as f64 * 4.0
        / 1e6
        / report
            .get("compress.fpz_decode_mb_s")
            .expect("codec probe ran");
    report.set("store.decode_share", decode_s / warm_s, 1);

    // Discrimination: the store and the codecs must carry this workload.
    // The share is measured, not estimated: the CPU a cycle uses beyond
    // what the same sweep uses over the blocks still in memory.
    let cpu0 = env::cpu_seconds();
    for percent in SWEEP_PERCENTS {
        let blocks = std::mem::take(&mut s.blocks);
        replay_step(s, percent, &|k, _, rank| blocks[k][rank].clone());
        s.blocks = blocks;
    }
    let in_memory_cpu = env::cpu_seconds() - cpu0;
    let share = 1.0 - in_memory_cpu / (phases.traced.cpu_s / traced.len() as f64);
    report.set("bench.store_codec_cpu_share", share, traced.len());
    report.set("bench.degrade_cpu_share", 0.0, 1);
    super::discriminate(report, "store and codec", share, 0.5);
    let store_cpu: f64 = traced
        .iter()
        .map(|f| f.cache.misses as f64 * cold_s + f.cache.hits as f64 * warm_s + write_s)
        .sum();
    let kernel_cpu = kernels.cpu_seconds(&flat, s.n_blocks(), sort_s);
    report.set(
        "core.unattributed_cpu_share",
        1.0 - (store_cpu + kernel_cpu * traced.len() as f64) / phases.traced.cpu_s,
        traced.len(),
    );
}

/// Single-threaded chunk reads through the same cached, sharded stack:
/// seconds per chunk cold (cache emptied first) and warm, and the
/// bottom backend's range reads per chunk on a fresh open.
fn read_probe(report: &mut Report, s: &Setup, scratch: &ScratchDir) -> (f64, f64) {
    const PROBED_RANKS: usize = 16;
    let dir = scratch.path("probe");
    s.write(Box::new(dir_store(&dir)), 1);
    let counter = Arc::new(TracedBackend::new(dir_store(&dir)));
    let stored = StoredTimeSeries::from_backend_cached(Box::new(Arc::clone(&counter)), CACHE_BYTES)
        .expect("reopen the probe dataset");
    let it = s.iterations[0];
    let read = |ranks: usize| {
        (0..ranks)
            .map(|rank| stored.rank_blocks(it, rank).expect("probe read").len())
            .sum::<usize>()
    };
    let before = counter.counts();
    let chunks = read(PIPELINE_RANKS);
    let fresh = counter.counts().since(&before);
    report.set(
        "store.backend_range_reads_per_chunk",
        fresh.range_reads as f64 / chunks as f64,
        chunks,
    );
    let per_chunk = (s.n_blocks() / PIPELINE_RANKS * PROBED_RANKS) as f64;
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..5 {
        stored.cache_clear();
        let t0 = Instant::now();
        read(PROBED_RANKS);
        cold.push(t0.elapsed().as_secs_f64() / per_chunk);
        let t1 = Instant::now();
        read(PROBED_RANKS);
        warm.push(t1.elapsed().as_secs_f64() / per_chunk);
    }
    drop(stored);
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_s, warm_s) = (stats::median(&cold), stats::median(&warm));
    report.set("store.read_chunk_cold_us", cold_s * 1e6, cold.len());
    report.set("store.read_chunk_warm_us", warm_s * 1e6, warm.len());
    (cold_s, warm_s)
}
