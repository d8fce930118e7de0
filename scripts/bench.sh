#!/usr/bin/env bash
# Runs the in-repo microbenchmarks and collects machine-readable output.
#
#   scripts/bench.sh [out.jsonl]
#
# The bench binary (crates/bench/benches/substrate.rs, the only one)
# prints human-readable ns/iter lines; with PRISM_BENCH_JSON set (as
# this script does) the runner also appends one JSON line per bench:
# {"bench": "<group/name>", "ns_per_iter": <f64>}. PRISM_BENCH_MS bounds
# per-bench measurement time (default here 200 ms for stable numbers;
# CI smoke uses 50 ms).
#
# Which ledger is authoritative: perf/results/BENCH_07.json for end-to-end
# numbers (`prism-perf`, BENCHMARK.json's workloads), and a run of this
# script for micro rows. Everything below is historical.
#
# results/BENCH_02.json was assembled from two such runs — one at the
# pre-fast-path commit, one after — joined per bench name.
#
# results/BENCH_03.json (open-loop engine + event core) drew its
# wheel-vs-heap pair from des/64k_events_16k_timers_{wheel,heap} in one
# run (the heap row no longer exists: the heap is now only the reference
# model in crates/simnet/tests/wheel_oracle.rs), its wire numbers from
# the wire/chain4_* benches, and its latency-under-load curves from
# `cargo run --release -p prism-harness --bin fig_openloop [--million]`.
#
# results/BENCH_04.json (sharded scale-out) drew its shard-count
# scaling curve (1/2/4/8 shards, aggregate Mops + CO-free tails) from
# `cargo run --release -p prism-harness --bin fig_openloop -- --scaling`
# and its before/after rows (memory/crc32_512, wire/decode_3op_chain,
# primitive/enhanced_cas_16 and primitive/allocate_free_512) from two
# runs of this script joined per bench name.
#
# results/BENCH_06.json (gray-failure tolerance, hedged tails) draws
# its hedged-vs-unhedged curves from `cargo run --release -p
# prism-harness --bin fig_hedge` (straggler factors 1/2/4/8, same-seed
# policy on/off pairs) and its overload row from the gray_gate knee
# test's printed counters. scripts/ci.sh runs its quick smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-results/bench_latest.jsonl}"
mkdir -p "$(dirname "$OUT")"
rm -f "$OUT"

echo "== bench (PRISM_BENCH_MS=${PRISM_BENCH_MS:-200}, JSON -> $OUT) =="
PRISM_BENCH_MS="${PRISM_BENCH_MS:-200}" PRISM_BENCH_JSON="$OUT" \
    cargo bench -q --offline -p prism-bench

echo "bench.sh: wrote $(wc -l < "$OUT") results to $OUT"
