#!/bin/sh
# Regenerate machine-readable benchmark results, compare them against
# the checked-in BENCH_*.json baselines with bench_gate, and append
# each run's records to the accumulated perf trajectory. The benches
# are the three aggregation kernels and `machine_micro` (simulator
# cache/TLB models and interpreter throughput).
#
#   scripts/bench-trajectory.sh [--threshold X]
#
# The gate's threshold is deliberately generous (default 4.0x): the
# baselines were recorded on one machine and CI runs on another, so
# only algorithmic regressions should trip it. To (re)record a
# baseline after an intentional perf change:
#
#   cp target/bench-json/BENCH_store_aggregation.json BENCH_store_aggregation.json
#
# Every run also appends one line per bench to bench-trajectory.jsonl
# — `{"rev", "date", "nproc", "bench", "records"}` — so the checked-in
# file accumulates the perf history across PRs, each line stamped with
# the core count it was measured on. Set
# BENCH_TRAJECTORY_APPEND=0 to skip the append (e.g. for throwaway
# local runs).
set -eu
cd "$(dirname "$0")/.."

BENCHES="store_aggregation view_aggregation merged_store_aggregation machine_micro"
TRAJECTORY="bench-trajectory.jsonl"
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
nproc=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
mkdir -p target/bench-json
fail=0
for b in $BENCHES; do
    # Absolute path: cargo runs bench binaries from the package dir,
    # not the workspace root.
    out="$PWD/target/bench-json/BENCH_$b.json"
    rm -f "$out"
    CRITERION_JSON="$out" cargo bench -p mcf-bench --bench "$b" --offline
    if [ "${BENCH_TRAJECTORY_APPEND:-1}" != 0 ]; then
        printf '{"rev":"%s","date":"%s","nproc":%s,"bench":"%s","records":%s}\n' \
            "$rev" "$date" "$nproc" "$b" "$(tr -d '\n' < "$out")" >> "$TRAJECTORY"
    fi
    # Machine-relative scaling shape: over-sharding must never lose
    # to the serial path (the kernel caps shard requests to the
    # hardware, so shards_8 on any host should track shards_1). On a
    # host with fewer cores than a clause's shard count, bench_gate
    # reports the clause as not applicable instead of passing it.
    case $b in
    store_aggregation)
        scaling="--assert-scaling store_aggregation/aggregate_shards_8:store_aggregation/aggregate_shards_1:1.10"
        ;;
    view_aggregation)
        scaling="--assert-scaling view_aggregation/aggregate_by_shards_8:view_aggregation/aggregate_by_shards_1:1.10"
        ;;
    merged_store_aggregation)
        scaling="--assert-scaling merged_store_aggregation/aggregate_shards_8:merged_store_aggregation/aggregate_shards_1:1.10 \
                 --assert-scaling merged_store_aggregation/merge_shards_4:merged_store_aggregation/merge_shards_1:1.10"
        ;;
    *) scaling="" ;;
    esac
    if [ -f "BENCH_$b.json" ]; then
        # shellcheck disable=SC2086  # $scaling is a flag list
        cargo run -q --release --offline -p mcf-bench --bin bench_gate -- \
            "BENCH_$b.json" "$out" $scaling "$@" || fail=1
    else
        echo "bench-trajectory: no baseline BENCH_$b.json checked in;"
        echo "  cp $out BENCH_$b.json   # to record one"
        fail=1
    fi
done
if [ "${BENCH_TRAJECTORY_APPEND:-1}" != 0 ]; then
    echo "bench-trajectory: appended $(echo "$BENCHES" | wc -w | tr -d ' ') runs to $TRAJECTORY ($(wc -l < "$TRAJECTORY" | tr -d ' ') lines total)"
fi
exit $fail
