#!/bin/sh
# Hold mp-bench's byte metrics to their recorded values. Runs no
# benchmark itself: produce the result with mp-bench first, e.g.
#
#   cargo run --release --offline --manifest-path examples/mp-bench/Cargo.toml -- run --seconds 3
#   scripts/check-bench-bytes.sh [RESULT.json]
#
# RESULT.json defaults to target/mp-bench/result.json.
# scripts/bench-bytes.json records each workload's
# stream_bytes_per_event and packed_bytes_per_event. Both are
# deterministic for a given seed and build: they count encoded bytes,
# not time. The check fails when any run of any workload exceeds its
# recorded value by more than that metric's bound in BENCHMARK.json,
# or when a run's workload or metric has no recorded value. A change
# that makes the format smaller re-records the file.
set -eu
cd "$(dirname "$0")/.."

result=${1:-target/mp-bench/result.json}
jq -n -r \
  --slurpfile bench BENCHMARK.json \
  --slurpfile recorded scripts/bench-bytes.json \
  --slurpfile result "$result" '
  ($bench[0].end_to_end | map({key: .name, value: .bound}) | from_entries) as $bound
  | [ $result[0].runs[] as $run
      | ("stream_bytes_per_event", "packed_bytes_per_event") as $metric
      | { workload: $run.workload, seed: $run.seed, metric: $metric,
          got: $run.metrics[$metric].value,
          want: $recorded[0].workloads[$run.workload][$metric] }
      | . + { ok: (.got != null and .want != null
                   and .got <= .want * (1 + $bound[$metric])) } ]
  | map("\(.workload) seed \(.seed) \(.metric) \(.got) (recorded \(.want), bound \($bound[.metric] * 100)%): \(if .ok then "ok" else "FAIL" end)")
      as $lines
  | if all(.[]; .ok) then $lines | join("\n")
    else ($lines | join("\n")) + "\ncheck-bench-bytes: a byte metric exceeds its recorded value\n" | halt_error(1)
    end
'
