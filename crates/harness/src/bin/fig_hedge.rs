//! Hedged-vs-unhedged tail curves with one degraded shard — the
//! BENCH_06 experiment. A two-shard PRISM-KV cluster serves a GET-only
//! closed loop under background loss and delivery jitter while shard 1
//! is stretched by a gray straggler window of increasing severity
//! (1x = healthy, then 2x/4x/8x). Each severity runs twice on the same
//! seed: once with the tail policy off (fixed timeouts, no hedging) and
//! once with adaptive timeouts + hedged reads armed. The unhedged tail
//! pins to the fixed timeout as soon as the straggler bites; the hedged
//! tail stays within a small multiple of the healthy baseline because a
//! copy issued after the tracked p99 covers the slow shard, and every
//! losing copy is harvested through the stale-reply path.
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_hedge
//! [--quick] [--seed <n>]`
//!
//! Each point prints a machine-readable `hedge ...` line for results
//! assembly (results/BENCH_06.json). The run is
//! [`Scenario::straggler`], the one `tests/gray_gate.rs` pins a golden
//! row on at `--quick` scale.

use prism_harness::chaos::Scenario;
use prism_harness::figure::Flags;
use prism_simnet::fault::TailPolicy;
use prism_simnet::time::SimDuration;

fn main() {
    let flags = Flags::parse();
    let seed = flags.value("--seed").unwrap_or(0x64A9_0003u64);
    let (warmup, measure) = flags.scale(
        || (SimDuration::micros(400), SimDuration::micros(2_400)),
        || (SimDuration::millis(1), SimDuration::millis(10)),
    );
    let hedged_policy = TailPolicy {
        adaptive_timeout: true,
        hedge: true,
        admission_ns: 0,
        retry_deadline: SimDuration::ZERO,
    };
    println!(
        "fig_hedge: 2-shard KV, GET-only, loss=0.05 jitter=8us timeout=60us, \
         shard 1 straggling (seed={seed:#x})"
    );
    for factor in [1u32, 2, 4, 8] {
        for (mode, tail) in [
            ("unhedged", TailPolicy::default()),
            ("hedged", hedged_policy.clone()),
        ] {
            let r = Scenario::straggler(seed, factor, tail, warmup, measure)
                .run(seed)
                .result;
            println!(
                "hedge factor={factor} mode={mode} tput_ops={:.0} mean_us={:.2} \
                 p99_us={:.2} timeouts={} retries={} hedges={} wins={} stale={}",
                r.tput_ops,
                r.mean_us,
                r.p99_us,
                r.timeouts,
                r.retries,
                r.hedges,
                r.hedge_wins,
                r.stale_harvested,
            );
        }
    }
}
