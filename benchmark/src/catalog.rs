//! Every metric the benchmark reports, by name: the single list that
//! `BENCHMARK.json`, the result lines and `run.sh --check` agree on.
//!
//! End-to-end metrics are wall-clock (plus memory), measured with
//! tracing off, and carry the regression bound. Per-layer metrics come
//! from the traced run; the ones marked `exact` are counts — virtual
//! seconds included — that repeat bit for bit on the same seed, so two
//! runs of the same code must agree on them exactly.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly on the same seed.
    pub exact: bool,
}

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sync_adaptive",
        "compute and collectives only (score, sort, reduce, redistribute, render, controller); store, codecs, serve and replay idle, so a codec, cache or wire change must not move it",
    ),
    (
        "store_replay",
        "the same pipeline fed from a sharded fpz store through the chunk cache, cold once and warm twice, after writing it: decode and shard reads dominate",
    ),
    (
        "serve_adaptive",
        "staged serving with the latency budget engaged, tight then loose, so every rung of the fidelity ladder runs and reply degrading dominates the wall",
    ),
    (
        "replay_fanout",
        "replay pool at fan-out: every reply full, so degrading is idle and planning, routing, wire codec, cached shard reads and p2p among 272 ranks set the wall",
    ),
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn wall(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    wall("cm1.generate_mpts_s", "Mpts/s", Higher),
    wall("compress.fpz_encode_mb_s", "MB/s", Higher),
    wall("compress.fpz_decode_mb_s", "MB/s", Higher),
    wall("compress.zfpx_encode_mb_s", "MB/s", Higher),
    wall("compress.zfpx_decode_mb_s", "MB/s", Higher),
    wall("compress.lz_encode_mb_s", "MB/s", Higher),
    count("compress.fpz_ratio", "ratio", Lower),
    wall("store.read_chunk_cold_us", "us", Lower),
    wall("store.read_chunk_warm_us", "us", Lower),
    wall("store.decode_share", "ratio", Lower),
    wall("store.write_chunk_us", "us", Lower),
    wall("store.write_mb_s", "MB/s", Higher),
    wall("store.rank_blocks_busy_s", "s", Lower),
    count("store.backend_range_reads_per_chunk", "count", Lower),
    wall("store.backend_read_bytes", "bytes", Lower),
    count("store.backend_put_bytes", "bytes", Lower),
    wall("store.backend_busy_s", "s", Lower),
    count("store.cache_hit_rate", "ratio", Higher),
    count("store.cache_evictions", "count", Lower),
    count("store.prefetch_used_share", "ratio", Higher),
    wall("metrics.score_var_us_per_block", "us", Lower),
    wall("metrics.score_fpzip_us_per_block", "us", Lower),
    wall("render.isosurface_us_per_block", "us", Lower),
    count("render.triangles_total", "count", Lower),
    wall("grid.reduce_us_per_block", "us", Lower),
    wall("comm.session_spawn_ms", "ms", Lower),
    wall("comm.session_noop_us", "us", Lower),
    wall("comm.sort_gsb_ms", "ms", Lower),
    wall("comm.serve_roundtrip_us", "us", Lower),
    wall("par.par_map_overhead_us", "us", Lower),
    wall("core.iter_busy_s_mean", "s", Lower),
    wall("core.iter_busy_imbalance", "ratio", Lower),
    wall("core.op_wall_ms_tail", "ms", Lower),
    wall("core.unattributed_cpu_share", "ratio", Lower),
    count("core.virtual_iter_s", "s", Lower),
    count("core.virtual_t_score_s", "s", Lower),
    count("core.virtual_t_sort_s", "s", Lower),
    count("core.virtual_t_reduce_s", "s", Lower),
    count("core.virtual_t_redistribute_s", "s", Lower),
    count("core.virtual_t_render_s", "s", Lower),
    count("core.final_percent", "%", Lower),
    wall("core.serving_fixed_run_wall_ms", "ms", Lower),
    count("stage.sim_stall_virtual_s", "s", Lower),
    count("stage.frames", "count", Higher),
    wall("stage.staged_run_wall_ms", "ms", Lower),
    wall("serve.frame_encode_us", "us", Lower),
    wall("serve.frame_decode_us", "us", Lower),
    wall("serve.degrade_lossy_us", "us", Lower),
    wall("serve.degrade_dropped_us", "us", Lower),
    wall("serve.degrade_header_us", "us", Lower),
    wall("serve.reply_encode_us", "us", Lower),
    wall("serve.reply_decode_us", "us", Lower),
    wall("serve.request_codec_ns", "ns", Lower),
    count("serve.fidelity_full", "count", Higher),
    count("serve.fidelity_lossy", "count", Lower),
    count("serve.fidelity_dropped", "count", Lower),
    count("serve.fidelity_header_only", "count", Lower),
    count("serve.degraded_share", "ratio", Lower),
    count("serve.virtual_p99_s", "s", Lower),
    count("serve.cache_hit_rate", "ratio", Higher),
    wall("replay.plan_ms", "ms", Lower),
    wall("replay.trace_generate_ms", "ms", Lower),
    wall("replay.route_ns_per_key", "ns", Lower),
    count("replay.stolen", "count", Lower),
    count("replay.cache_hit_rate", "ratio", Higher),
    count("replay.virtual_p99_s", "s", Lower),
    wall("bench.trace_overhead_share", "ratio", Lower),
    wall("bench.store_codec_cpu_share", "ratio", Lower),
    wall("bench.degrade_cpu_share", "ratio", Lower),
    wall("bench.host_kernel_ms", "ms", Lower),
    wall("bench.clock_op_ms_p50", "ms", Lower),
];

pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from the tables above so the file the
/// driver reads and the names the program prints cannot drift apart.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{name} why");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `apc-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 << 10);
    }
}
