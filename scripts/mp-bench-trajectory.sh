#!/bin/sh
# Append an mp-bench result to the accumulated perf trajectory, one
# line per workload. Runs no benchmark itself: produce the result with
# mp-bench first, e.g.
#
#   cargo run --release --offline --manifest-path examples/mp-bench/Cargo.toml -- run --repeat 10
#   scripts/mp-bench-trajectory.sh [RESULT.json]
#
# RESULT.json defaults to target/mp-bench/result.json. Each line of
# bench-trajectory.jsonl it appends is
#
#   {"rev", "date", "nproc", "bench": "mp-bench", "workload", "seeds",
#    "attempted", "failed", "metrics": {"<end-to-end metric>": [run values]}}
#
# `nproc` is the result's own core count; `rev` is the commit of the
# checkout the result was written in (`-dirty` when that checkout had
# uncommitted changes), so a parent's result can be recorded from its
# own checkout. `attempted`/`failed` sum the workload's runs, and each
# end-to-end metric lists its value in every run, in run order.
set -eu
cd "$(dirname "$0")/.."

result=${1:-target/mp-bench/result.json}
TRAJECTORY="bench-trajectory.jsonl"
rev=$(git -C "$(dirname "$result")" describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
before=$(wc -l < "$TRAJECTORY")
jq -c --arg rev "$rev" --arg date "$date" '
  .nproc as $nproc
  | .runs
  | group_by(.workload)[]
  | . as $runs
  | {rev: $rev, date: $date, nproc: $nproc, bench: "mp-bench",
     workload: $runs[0].workload,
     seeds: [$runs[].seed],
     attempted: ([$runs[].attempted] | add),
     failed: ([$runs[].failed] | add),
     metrics: ($runs[0].metrics | keys_unsorted
               | map({key: ., value: [$runs[].metrics[.].value]}) | from_entries)}
' "$result" >> "$TRAJECTORY"
echo "mp-bench-trajectory: appended $(($(wc -l < "$TRAJECTORY") - before)) workload(s) of $result ($rev) to $TRAJECTORY"
