//! The probe pass of the traced run: what the executors hide from the
//! span seams (codec, degrade, wire, plan, sort, scoring, isosurface) is
//! timed by calling the layer's public function, single-threaded, on
//! the inputs the workload actually fed it. Every time is a median over
//! repeated calls and is normalised per chunk, block or MB so layers
//! compare.

use std::hint::black_box;
use std::time::Instant;

use apc_comm::{NetModel, Runtime, ServeClient, ServeServer, Session};
use apc_compress::{FloatCodec, Fpz, Lz77, Zfpx};
use apc_core::{ExecPolicy, Fidelity, FrameReply, FrameRequest, IterationReport};
use apc_grid::{Block, RectilinearCoords};
use apc_serve::{degrade_stream, Frame, ServedFrame};
use apc_store::CodecKind;

use crate::report::Report;
use crate::stats;

/// Median seconds per call of `f`, and how many calls were timed: calls
/// repeat until `budget_s` is used, at least 5 and at most 400 times.
pub fn per_call<R>(budget_s: f64, mut f: impl FnMut() -> R) -> (f64, usize) {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 400 && start.elapsed().as_secs_f64() < budget_s) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&samples), samples.len())
}

/// `(samples, shape)` arrays a codec probe runs over.
pub type Arrays = Vec<(Vec<f32>, (usize, usize, usize))>;

/// Codec throughput over the workload's own chunks or frames. One call
/// encodes (or decodes) every array; MB are raw `f32` megabytes.
pub fn codecs(report: &mut Report, arrays: &Arrays, budget_s: f64) {
    let raw_mb = arrays.iter().map(|(d, _)| d.len() * 4).sum::<usize>() as f64 / 1e6;
    let each = budget_s / 5.0;
    let zfpx = Zfpx::default();
    let encode_all = |codec: &dyn FloatCodec| -> Vec<Vec<u8>> {
        arrays.iter().map(|(d, s)| codec.encode(d, *s)).collect()
    };
    let mut rate = |name: &str, secs_n: (f64, usize)| {
        report.set(name, raw_mb / secs_n.0, secs_n.1);
    };
    rate(
        "compress.fpz_encode_mb_s",
        per_call(each, || encode_all(&Fpz)),
    );
    rate(
        "compress.zfpx_encode_mb_s",
        per_call(each, || encode_all(&zfpx)),
    );
    rate(
        "compress.lz_encode_mb_s",
        per_call(each, || encode_all(&Lz77)),
    );
    let fpz_streams = encode_all(&Fpz);
    let zfpx_streams = encode_all(&zfpx);
    let decode_all = |codec: &dyn FloatCodec, streams: &[Vec<u8>]| -> usize {
        streams
            .iter()
            .zip(arrays)
            .map(|(st, (_, shape))| codec.decode(st, *shape).expect("own stream decodes").len())
            .sum()
    };
    rate(
        "compress.fpz_decode_mb_s",
        per_call(each, || decode_all(&Fpz, &fpz_streams)),
    );
    rate(
        "compress.zfpx_decode_mb_s",
        per_call(each, || decode_all(&zfpx, &zfpx_streams)),
    );
    let encoded: usize = fpz_streams.iter().map(Vec::len).sum();
    report.set(
        "compress.fpz_ratio",
        encoded as f64 / (raw_mb * 1e6),
        arrays.len(),
    );
}

/// Per-block unit costs of the pipeline's compute kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    pub score_var_s: f64,
    pub iso_full_s: f64,
    pub iso_reduced_s: f64,
    pub reduce_s: f64,
}

impl KernelCosts {
    /// CPU seconds the kernels and the global sort (`sort_s` of wall on
    /// every core) account for over the iterations `reports` describe.
    pub fn cpu_seconds(&self, reports: &[IterationReport], blocks: usize, sort_s: f64) -> f64 {
        let cores = crate::env::nproc() as f64;
        reports
            .iter()
            .map(|r| {
                let (blocks, reduced) = (blocks as f64, r.blocks_reduced as f64);
                blocks * self.score_var_s
                    + reduced * (self.reduce_s + self.iso_reduced_s)
                    + (blocks - reduced) * self.iso_full_s
                    + sort_s * cores
            })
            .sum()
    }
}

/// The pixel arrays of encoded frame streams, for [`codecs`].
pub fn frame_arrays(streams: &[Vec<u8>]) -> Arrays {
    streams
        .iter()
        .map(|s| {
            let f = Frame::decode(s).expect("persisted frame decodes");
            let shape = (f.width as usize, f.height as usize, 1);
            (f.pixels, shape)
        })
        .collect()
}

/// Scoring, isosurface extraction and block reduction over `blocks` (a
/// strided sample of the workload's own blocks, all full).
pub fn pipeline_kernels(
    report: &mut Report,
    blocks: &[Block],
    coords: &RectilinearCoords,
    isovalue: f32,
    budget_s: f64,
) -> KernelCosts {
    let n = blocks.len() as f64;
    let each = budget_s / 5.0;
    let mut costs = KernelCosts::default();
    for (metric, name) in [
        ("VAR", "metrics.score_var_us_per_block"),
        ("FPZIP", "metrics.score_fpzip_us_per_block"),
    ] {
        let scorer = apc_metrics::by_name(metric).expect("registered metric");
        let (secs, calls) = per_call(each, || {
            apc_metrics::score_blocks(scorer.as_ref(), blocks, ExecPolicy::Serial)
        });
        report.set(name, secs / n * 1e6, calls);
        if metric == "VAR" {
            costs.score_var_s = secs / n;
        }
    }
    let iso = |set: &[Block]| {
        per_call(each, || {
            apc_render::batch_isosurface_stats(set, coords, isovalue, ExecPolicy::Serial)
        })
    };
    let (secs, calls) = iso(blocks);
    report.set("render.isosurface_us_per_block", secs / n * 1e6, calls);
    costs.iso_full_s = secs / n;
    let reduced: Vec<Block> = blocks.iter().map(|b| b.downsampled(2)).collect();
    costs.iso_reduced_s = iso(&reduced).0 / n;
    // Reduction mutates, so every call reduces a fresh copy, made
    // outside the timed region.
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (samples.len() < 400 && start.elapsed().as_secs_f64() < each) {
        let mut copy = blocks.to_vec();
        let t0 = Instant::now();
        for b in &mut copy {
            b.downsample(2);
        }
        samples.push(t0.elapsed().as_secs_f64());
        black_box(copy);
    }
    costs.reduce_s = stats::median(&samples) / n;
    report.set(
        "grid.reduce_us_per_block",
        costs.reduce_s * 1e6,
        samples.len(),
    );
    costs
}

/// An empty `Session::run` at the workload's rank count.
pub fn session_noop(report: &mut Report, session: &mut Session, budget_s: f64) {
    let (secs, calls) = per_call(budget_s, || session.run(|rank| rank.rank()).len());
    report.set("comm.session_noop_us", secs * 1e6, calls);
}

/// The pipeline's global sort: 6400 `<id, score>` pairs over the
/// session's ranks. Returns wall seconds per sort.
pub fn sort_gsb(report: &mut Report, session: &mut Session, budget_s: f64) -> f64 {
    let per_rank = 6400 / session.nranks();
    let input = |rank: usize| -> Vec<(u32, f64)> {
        (0..per_rank as u32)
            .map(|i| {
                let id = (rank * per_rank) as u32 + i;
                (id, ((f64::from(id) * 0.61803).sin() * 1e3).round())
            })
            .collect()
    };
    let cmp = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    let (secs, calls) = per_call(budget_s, || {
        session
            .run(|rank| apc_comm::sort::gather_sort_broadcast(rank, input(rank.rank()), cmp).len())
            .len()
    });
    report.set("comm.sort_gsb_ms", secs * 1e3, calls);
    secs
}

/// One request/reply round trip over `ServeClient`/`ServeServer`
/// between two ranks, averaged over a burst per call.
pub fn serve_roundtrip(report: &mut Report, budget_s: f64) {
    const BURST: usize = 256;
    let mut session = Runtime::new(2, NetModel::blue_waters()).session();
    let (secs, calls) = per_call(budget_s, || {
        session.run(|rank| {
            if rank.rank() == 0 {
                let mut client = ServeClient::new(1, 0);
                for i in 0..BURST as u64 {
                    client.send_request(rank, i);
                    black_box(client.recv_reply::<u64>(rank).msg);
                }
            } else {
                let mut server = ServeServer::new(0, 0);
                for _ in 0..BURST {
                    let request = server.recv_request::<u64>(rank).msg;
                    server.send_reply(rank, request + 1);
                }
            }
        })
    });
    report.set("comm.serve_roundtrip_us", secs / BURST as f64 * 1e6, calls);
}

/// Fan-out cost of `par_map`: 64 no-op items under `Threads(nproc)`
/// against `Serial`.
pub fn par_map_overhead(report: &mut Report, budget_s: f64) {
    let items = [0u64; 64];
    let threads = ExecPolicy::Threads(crate::env::nproc().max(2));
    let run = |policy| {
        per_call(budget_s / 2.0, || {
            apc_par::par_map(policy, &items, |x| x + 1)
        })
    };
    let (serial, _) = run(ExecPolicy::Serial);
    let (fanned, calls) = run(threads);
    report.set(
        "par.par_map_overhead_us",
        (fanned - serial).max(0.0) * 1e6,
        calls,
    );
}

/// Per-reply unit costs of the fidelity ladder's degraded rungs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradeCosts {
    pub lossy_s: f64,
    pub dropped_s: f64,
    pub header_s: f64,
}

/// Frame codec, the three degraded rungs, and the reply and request
/// wire codecs, over persisted frame streams the workload served.
/// `lossy` and `dropped` are rungs the ladder actually chose.
pub fn serve_wire(
    report: &mut Report,
    streams: &[Vec<u8>],
    persist_codec: CodecKind,
    lossy: Fidelity,
    dropped: Fidelity,
    budget_s: f64,
) -> DegradeCosts {
    let n = streams.len() as f64;
    let each = budget_s / 8.0;
    let frames: Vec<Frame> = streams
        .iter()
        .map(|s| Frame::decode(s).expect("persisted frame decodes"))
        .collect();
    let mut set = |name: &str, secs_n: (f64, usize), scale: f64| {
        report.set(name, secs_n.0 / n * scale, secs_n.1);
        secs_n.0 / n
    };
    set(
        "serve.frame_encode_us",
        per_call(each, || {
            frames
                .iter()
                .map(|f| f.encode(persist_codec).len())
                .sum::<usize>()
        }),
        1e6,
    );
    set(
        "serve.frame_decode_us",
        per_call(each, || {
            streams
                .iter()
                .map(|s| Frame::decode(s).expect("decodes").pixels.len())
                .sum::<usize>()
        }),
        1e6,
    );
    let mut rung = |name: &str, fidelity: Fidelity| {
        set(
            name,
            per_call(each, || {
                streams
                    .iter()
                    .map(|s| degrade_stream(s, fidelity).expect("degrades").len())
                    .sum::<usize>()
            }),
            1e6,
        )
    };
    let costs = DegradeCosts {
        lossy_s: rung("serve.degrade_lossy_us", lossy),
        dropped_s: rung("serve.degrade_dropped_us", dropped),
        header_s: rung("serve.degrade_header_us", Fidelity::HeaderOnly),
    };
    let replies: Vec<FrameReply> = frames
        .iter()
        .zip(streams)
        .map(|(f, s)| FrameReply::Frames {
            exact: true,
            frames: vec![ServedFrame {
                iteration: f.iteration,
                stager: f.stager,
                cache_hit: false,
                fidelity: Fidelity::Full,
                stream: s.clone(),
            }],
        })
        .collect();
    set(
        "serve.reply_encode_us",
        per_call(each, || {
            replies.iter().map(|r| r.encode().len()).sum::<usize>()
        }),
        1e6,
    );
    let wire: Vec<Vec<u8>> = replies.iter().map(FrameReply::encode).collect();
    set(
        "serve.reply_decode_us",
        per_call(each, || {
            wire.iter()
                .map(|w| FrameReply::decode(w).expect("decodes").frames().len())
                .sum::<usize>()
        }),
        1e6,
    );
    let requests: Vec<FrameRequest> = frames
        .iter()
        .map(|f| FrameRequest::AtIteration(f.iteration))
        .collect();
    set(
        "serve.request_codec_ns",
        per_call(each, || {
            requests
                .iter()
                .map(|r| FrameRequest::decode(&r.encode()).expect("decodes"))
                .filter(|r| matches!(r, FrameRequest::AtIteration(_)))
                .count()
        }),
        1e9,
    );
    costs
}
