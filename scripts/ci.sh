#!/usr/bin/env bash
# The repo's verify command: everything CI (and a reviewer) needs to
# trust a change, runnable from a clean checkout with no network.
#
#   scripts/ci.sh
#
# Steps (each prints its wall seconds, so what a step costs — the
# second-seed pass in particular — is a number, not a feeling):
#   1. hermeticity check  — all deps are path-only and .cargo/config.toml
#                           names no source, registry or network table
#                           (scripts/check_hermetic.sh)
#      unsafe audit       — `unsafe {` occurs exactly three times
#                           under crates/, counted per file: once in
#                           crates/core/src/crc.rs (the CRC kernel's
#                           dispatch call) and twice in
#                           crates/rdma/src/arena.rs (the prefetch and
#                           the huge-page madvise) (DESIGN.md §5.6); a
#                           fourth block anywhere, in those files too,
#                           is a design decision, not a drive-by
#   2. offline release build — fat LTO, one codegen unit
#                           (.cargo/config.toml; the bench smoke of step
#                           7 builds the same way)
#      recovery footprint — tests/recovery_footprint.rs in release: its
#      (release)            headroom check (a restart's wipe must not
#                           touch memory the store never used) can only
#                           fail in an optimised build, where the
#                           arena's zero-fill leaves untouched pages
#                           unmapped; step 3 runs it in debug as well
#      huge pages         — crates/rdma/tests/huge_pages.rs in release:
#      (release)            a written 8 MiB arena's advised mapping must
#                           hold 2 MiB pages (AnonHugePages in
#                           /proc/self/smaps) where THP is on; a debug
#                           build stores every word before the advice,
#                           so step 3 checks only the advice itself
#      hedging smoke      — the BENCH_06 figure at quick scale
#                           (fig_hedge --quick) must finish, hedge at
#                           least once, and beat the unhedged p99 at the
#                           4x straggler severity
#   3. offline test run   — every unit, integration, and property suite
#                           at the default seed. That includes the gate
#                           suites: fault matrix (loss / crash / both),
#                           chaos gate (linearizable histories under
#                           amnesia, partitions, loss; replay bit-exact),
#                           corruption matrix (flips, torn writes, rot:
#                           detected or repaired, counters conserved),
#                           durability gate + store properties (replay
#                           vs delta resync, torn tails, format fuzz),
#                           golden recovery images and the recovery
#                           footprint test (a restart may not grow the
#                           peak resident set by 2.5 % of the log),
#                           open-loop smoke (coordinated-omission
#                           regression, bit-exact sweeps), and the gray
#                           gate (stragglers, hedging, shedding, golden
#                           schedules).
#   4. migration gates    — live 2→4 reshard fired mid-chaos-run by a
#                           control event, over PRISM-RS groups and over
#                           PRISM-KV shards: linearizable through the
#                           move, zero lost / duplicate registers,
#                           replay bit-exact (run explicitly, by exact
#                           name, and counted: a rename or a filter
#                           change in the chaos suite fails the step
#                           instead of silently running nothing)
#   5. perf/ tests        — perf/ is its own workspace, so a harness
#                           signature change compiles green everywhere
#                           above and would only explode in the
#                           benchmark pipeline; its tests (smoke scale,
#                           including traced-equals-untraced
#                           bit-identity) build it against this tree
#   6. second-seed pass   — the gate suites, the transaction replay
#                           (PRISM-TX and FaRM, pristine and lossy
#                           fabrics), the store properties and the
#                           wire-format properties (round trips, mutated
#                           and truncated frames, decode totality), then
#                           both migration gates, again under
#                           PRISM_TEST_SEED=1806242025, so the gates don't
#                           ossify around one lucky schedule. The value
#                           is XORed into every gate's base seed and
#                           every property's case stream
#                           (prism_testkit::seed_or): each property runs
#                           its full case count at another point. One
#                           background process that runs
#                           alongside step 7 (the test binaries exist
#                           by now and the benches build into another
#                           profile); its output and wall seconds are
#                           printed when it is waited on, before step 8
#   7. bench smoke        — every row of the one bench binary (substrate)
#                           at 50 ms/bench, so a perf regression that
#                           breaks the bench harness (or an arena change
#                           that deadlocks it) fails CI; includes the
#                           primitive/* rows, crc32/{4,8,12,15,64,530,4096}/{kernel,table},
#                           the wire/*_530 frame encoders and
#                           wire/decode_3op_chain, kv/{prism_kv,pilaf}_*,
#                           rs/prism_rs_*_3replicas,
#                           tx/{rmw_txn_local,farm_rmw_commit},
#                           workload/zipf_new_262144/{miss,hit},
#                           chain/get_indirect_cold/{unhinted,hinted},
#                           arena/first_touch_64MiB (the set-up fault
#                           path) and des/send_with_lookahead
#   8. cargo fmt --check  — skipped with a notice if rustfmt is absent
#   9. cargo clippy       — -D warnings; skipped with a notice if
#                           clippy is not installed
#  10. rustdoc            — cargo doc over the workspace with
#                           RUSTDOCFLAGS="-D warnings": a doc link that
#                           a move or rename broke, a link to a private
#                           item, or an unescaped citation like [44]
#                           fails CI instead of rendering wrong
#  11. size ledger        — informational, never fails: lines of code
#                           and of test per file of crates/, tests/ and
#                           examples/ (scripts/loc.sh), so a PR that
#                           claims to shrink something quotes a
#                           command's output
#
# The property suites print the PRISM_TEST_SEED value a failure ran
# under and its case index; re-run the named test under that value to
# reach the same case and reproduce the exact failing input.
set -euo pipefail

cd "$(dirname "$0")/.."

# step <title> <command...>: runs the command and reports its wall time.
step() {
    local title=$1 start=$SECONDS
    shift
    echo "== $title =="
    "$@"
    echo "-- $title: $((SECONDS - start)) s"
}

# The workspace's whole budget of unsafe code is three blocks: two
# enter a safe `#[target_feature]` function (the PCLMULQDQ CRC kernel
# after run-time feature detection, the SSE prefetch behind a
# compile-time `cfg`) and one is an FFI call (the arena's
# `madvise(MADV_HUGEPAGE)`). Counted per file, so a block added beside
# an audited one fails as surely as one anywhere else.
unsafe_audit() {
    local want="crates/core/src/crc.rs:1 crates/rdma/src/arena.rs:2" hits found
    hits=$(grep -rn --include='*.rs' 'unsafe {' crates || true)
    found=$(cut -d: -f1 <<<"$hits" | sort | uniq -c | awk 'NF == 2 { print $2 ":" $1 }' | xargs)
    if [[ $found != "$want" ]]; then
        echo "unsafe audit: want exactly three 'unsafe {' under crates/," \
            "per file: $want; found:"
        echo "${hits:-  (none)}"
        return 1
    fi
    echo "unsafe audit: ok"
    echo "$hits"
}

# fig_hedge --quick's 4x straggler pair: the hedged p99 must beat the
# unhedged one, with at least one hedge fired.
hedging_smoke() {
    cargo run -q --release --offline -p prism-harness --bin fig_hedge -- --quick \
        | tee -a /dev/stderr \
        | awk '
        /^hedge factor=4 mode=unhedged/ { for (i=1;i<=NF;i++) if ($i ~ /^p99_us=/) { sub("p99_us=","",$i); un=$i } }
        /^hedge factor=4 mode=hedged/   { for (i=1;i<=NF;i++) { if ($i ~ /^p99_us=/) { sub("p99_us=","",$i); he=$i }
                                                                if ($i ~ /^hedges=/) { sub("hedges=","",$i); n=$i } } }
        END {
            if (un == "" || he == "") { print "hedging smoke: missing curve points" > "/dev/stderr"; exit 1 }
            if (n + 0 == 0)           { print "hedging smoke: no hedge ever fired" > "/dev/stderr"; exit 1 }
            if (he + 0 >= un + 0)     { printf "hedging smoke: hedged p99 %s did not beat unhedged %s\n", he, un > "/dev/stderr"; exit 1 }
            printf "hedging smoke: ok (4x straggler: hedged p99 %sus < unhedged %sus, %s hedges)\n", he, un, n
        }'
}

MIGRATION_GATE=(rs_migration_chaos_stays_linearizable_through_live_reshard
    kv_migration_chaos_stays_linearizable_through_live_reshard)
GATES=(--test fault_matrix --test chaos_gate --test corruption_matrix
    --test durability_gate --test store_properties
    --test openloop_smoke --test gray_gate --test tx_replay
    --test wire_properties)
SECOND_SEED=1806242025

# Both reshard gates, by exact name; fails unless exactly those ran.
migration_gates() {
    local out
    out=$(cargo test -q --offline -p prism-harness --test chaos_gate -- \
        --exact "${MIGRATION_GATE[@]}" 2>&1) || {
        echo "$out"
        return 1
    }
    echo "$out"
    grep -q "test result: ok. ${#MIGRATION_GATE[@]} passed" <<<"$out" || {
        echo "migration gates: want ${#MIGRATION_GATE[@]} tests run: ${MIGRATION_GATE[*]}"
        return 1
    }
}

second_seed() {
    export PRISM_TEST_SEED=$SECOND_SEED
    cargo test -q --offline -p prism-harness "${GATES[@]}"
    migration_gates
}

step "hermeticity" ./scripts/check_hermetic.sh
step "unsafe audit" unsafe_audit
step "build (release, offline)" cargo build --release --offline
step "recovery footprint (release)" \
    cargo test --release --offline -p prism-harness --test recovery_footprint
step "huge pages (release)" \
    cargo test --release --offline -p prism-rdma --test huge_pages -- --nocapture
step "hedging smoke (fig_hedge --quick: hedged p99 < unhedged at 4x)" hedging_smoke
step "test (offline, default seed, all suites)" cargo test -q --offline
step "migration gates (live 2->4 reshard under chaos, RS and KV)" migration_gates
step "perf/ tests (the benchmark's view of the harness)" \
    cargo test -q --offline --manifest-path perf/Cargo.toml

second_seed_log=target/ci-second-seed.log
(step "second-seed pass (gate suites, then both migration gates)" second_seed) \
    >"$second_seed_log" 2>&1 &
second_seed_pid=$!
trap 'kill "$second_seed_pid" 2>/dev/null || true' EXIT
step "bench smoke (substrate, 50 ms/bench)" \
    env PRISM_BENCH_MS=50 cargo bench -q --offline -p prism-bench --bench substrate
wait "$second_seed_pid" && second_seed_rc=0 || second_seed_rc=$?
cat "$second_seed_log"
if [[ $second_seed_rc -ne 0 ]]; then
    echo "second-seed pass failed (exit $second_seed_rc)"
    exit 1
fi

if command -v rustfmt >/dev/null 2>&1; then
    step "fmt" cargo fmt --check
else
    echo "== fmt skipped (rustfmt not installed) =="
fi

if command -v cargo-clippy >/dev/null 2>&1; then
    step "clippy (-D warnings)" cargo clippy -q --offline --all-targets -- -D warnings
else
    echo "== clippy skipped (clippy not installed) =="
fi

step "rustdoc (-D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

step "size ledger (crates tests examples; informational)" \
    ./scripts/loc.sh crates tests examples || true

echo "ci.sh: all checks passed"
