#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package
# (release, offline) and then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in this process's child; the last line
#       of standard output is the result JSON (the driver's contract);
#
#   run.sh [--seed <n>] [--seconds <s>] [--trace]
#       a full set: every workload in its own process (so peak_rss_mb is
#       per workload), every metric printed as `metric <name> <unit>
#       <value> <n>`, one result file per run plus the merged
#       target/results/<label>.json; --trace adds the traced run;
#
#   run.sh --check [--seed <n>] [--seconds <s>]
#       two full sets with traced runs, advancing together workload by
#       workload, then the comparison: every
#       end-to-end metric within its bound, every count exactly equal,
#       zero failed ops;
#
#   run.sh --spread [--seconds <s>]
#       ten seeds of every workload, then the run-to-run spread of each
#       end-to-end metric (quartile distance over median) against a
#       third of its bound.
#
# Everything it writes stays under benchmark/target/ (or under
# $CARGO_TARGET_DIR for the build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/apc-benchmark"

export APC_BENCH_DIR="$here/target"
# What .cargo/config.toml gives everything cargo runs: a deadlocked
# receive fails in two minutes instead of hanging for five.
export APC_RECV_TIMEOUT="${APC_RECV_TIMEOUT:-120}"
export APC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export APC_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

mode=set
seed=42
seconds=""
traced=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) mode=one; pass+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; pass+=("$1" "$2"); shift 2 ;;
        --seconds) seconds="$2"; pass+=("$1" "$2"); shift 2 ;;
        --trace)
            # `--trace <0|1>` for one run, bare `--trace` for a full set.
            if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
                traced="$2"; pass+=("$1" "$2"); shift 2
            else
                traced=1; shift
            fi ;;
        --check) mode=check; shift ;;
        --spread) mode=spread; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ "$mode" = one ]; then
    exec "$bin" "${pass[@]}"
fi

# One run into $1/<workload>-trace<t>-seed<n>.json; prints the readable
# lines and drops the driver's JSON line.
run_one() {
    local dir="$1" workload="$2" trace="$3" run_seed="$4"
    local out="$dir/$workload-trace$trace-seed$run_seed.json"
    local args=(--workload "$workload" --seed "$run_seed" --trace "$trace" --out "$out")
    [ -n "$seconds" ] && args+=(--seconds "$seconds")
    "$bin" "${args[@]}" | grep -v '^{'
}

# Full sets into target/results/<label>/, one per label, each merged into
# <label>.json. The sets advance together — every label runs a workload
# before any moves to the next — so that sets being compared see the
# machine in the same state, minutes of drift apart at most seconds.
run_sets() {
    local with_trace="$1" run_seed="$2"
    shift 2
    local label dir workload trace
    for label in "$@"; do
        dir="$here/target/results/$label"
        rm -rf "$dir"
        mkdir -p "$dir"
    done
    for workload in $("$bin" workloads); do
        for trace in 0 1; do
            [ "$trace" = 1 ] && [ "$with_trace" = 0 ] && continue
            for label in "$@"; do
                run_one "$here/target/results/$label" "$workload" "$trace" "$run_seed"
            done
        done
    done
    for label in "$@"; do
        dir="$here/target/results/$label"
        {
            printf '{"schema": 1, "results": [\n'
            local first=1 f
            for f in "$dir"/*.json; do
                [ $first = 1 ] || printf ',\n'
                first=0
                cat "$f"
            done
            printf ']}\n'
        } > "$dir.json"
        echo "merged results: $dir.json" >&2
    done
}

case "$mode" in
    set)
        run_sets "$traced" "$seed" "seed$seed" ;;
    check)
        run_sets 1 "$seed" check-a check-b
        "$bin" check "$here/target/results/check-a" "$here/target/results/check-b" ;;
    spread)
        dir="$here/target/results/spread"
        rm -rf "$dir"
        mkdir -p "$dir"
        for workload in $("$bin" workloads); do
            for s in 1 2 3 4 5 6 7 8 9 10; do
                run_one "$dir" "$workload" 0 "$s" | grep -E '^(result|metric)'
            done
        done
        "$bin" spread "$dir" ;;
esac
