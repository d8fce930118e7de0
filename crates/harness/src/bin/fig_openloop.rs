//! Open-loop latency-under-load curves: coordinated-omission-free
//! latency vs offered Poisson arrival rate for PRISM-KV, PRISM-RS, and
//! PRISM-TX, with up to 10⁵+ multiplexed logical clients.
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_openloop
//! [--quick] [--csv] [--system kv|rs|tx] [--million] [--scaling]`
//!
//! `--million` runs a single PRISM-KV point with 10⁶ logical clients
//! multiplexed over the on-NIC connection budget and reports engine
//! throughput (completed sim-ops per wall-clock second) alongside the
//! CO-free latency quantiles.
//!
//! `--scaling` sweeps PRISM-KV shard counts 1/2/4/8 (the BENCH_04
//! scale-out curve): per shard count the offered-rate grid scales
//! with the shard count so the knee stays in frame, and each point
//! prints a machine-readable `scaling ...` line for results assembly.

use prism_harness::figure::{emit, rate_table, Flags};
use prism_harness::kv_exp::{self, KvExpConfig};
use prism_harness::openloop::OpenLoopKnobs;
use prism_harness::rs_exp::{self, RsExpConfig};
use prism_harness::tx_exp::{self, TxExpConfig};
use prism_simnet::time::SimDuration;

fn main() {
    let flags = Flags::parse();
    let kv_cfg = || flags.scale(|| KvExpConfig::quick(1.0), || KvExpConfig::paper(1.0));
    if flags.has("--million") {
        // One sustained point with a 10⁶-logical-client population
        // multiplexed over the on-NIC connection budget, offered below
        // the ~8.2 Mops single-server knee so the run is stable. The
        // window is sized so the population's aggregate stream
        // delivers over a million measured arrivals.
        let knobs = OpenLoopKnobs {
            rates_per_sec: vec![6e6],
            logical_clients: 1_000_000,
            measure: SimDuration::millis(200),
            ..OpenLoopKnobs::paper()
        };
        let t0 = std::time::Instant::now();
        let (t, results) = kv_exp::open_loop_sharded(&KvExpConfig::paper(1.0), &knobs, 1);
        let wall = t0.elapsed();
        emit(&t, flags.csv);
        let r = &results[0].1;
        println!(
            "million_clients completed={} backlogged={} wall_s={:.2} sim_ops_per_wall_sec={:.0}",
            r.completed,
            r.backlogged,
            wall.as_secs_f64(),
            r.completed as f64 / wall.as_secs_f64()
        );
        return;
    }
    let knobs = flags.scale(OpenLoopKnobs::quick, OpenLoopKnobs::paper);
    if flags.has("--scaling") {
        // Shard-count scaling sweep at 10⁵ logical clients. The
        // per-server connection budget is respected at every shard
        // count (each live slot opens one connection per shard, so a
        // server's table never exceeds the live-slot cap); the offered
        // grid brackets the expected knee at ~8.2 Mops per shard.
        let cfg = kv_cfg();
        for shards in [1usize, 2, 4, 8] {
            let mut knobs = knobs.clone();
            if !flags.quick {
                knobs.rates_per_sec = [2e6, 4e6, 6e6, 8e6, 10e6, 12e6]
                    .iter()
                    .map(|r| r * shards as f64)
                    .collect();
            }
            let t0 = std::time::Instant::now();
            let (_, results) = kv_exp::open_loop_sharded(&cfg, &knobs, shards);
            let wall = t0.elapsed();
            // `open_loop_sharded` titles one shard as the single-server
            // sweep; the scaling curve names its shard count at every
            // point.
            let title = format!(
                "Open-loop PRISM-KV latency under load ({shards} shards, {} logical clients on {} aggregates, 100% reads)",
                knobs.logical_clients, knobs.actors
            );
            emit(&rate_table(&title, "ops", &results), flags.csv);
            for (rate, r) in &results {
                println!(
                    "scaling shards={} rate_mops={:.2} tput_mops={:.3} mean_us={:.2} \
                     p50_us={:.2} p99_us={:.2} p999_us={:.2} completed={} backlogged={}",
                    shards,
                    rate / 1e6,
                    r.tput_ops / 1e6,
                    r.mean_us,
                    r.p50_us,
                    r.p99_us,
                    r.p999_us,
                    r.completed,
                    r.backlogged
                );
            }
            println!("scaling shards={shards} wall_s={:.1}", wall.as_secs_f64());
        }
        return;
    }
    // Replicated writes and commit protocols saturate earlier than KV
    // reads; RS and TX sweep a quarter of the rates so the knee stays in
    // frame.
    let mut quarter = knobs.clone();
    quarter.rates_per_sec = knobs.rates_per_sec.iter().map(|r| r / 4.0).collect();
    let system = flags.value::<String>("--system");
    let want = |s: &str| system.as_deref().is_none_or(|w| w == s);
    if want("kv") {
        let (t, _) = kv_exp::open_loop_sharded(&kv_cfg(), &knobs, 1);
        emit(&t, flags.csv);
    }
    if want("rs") {
        let cfg = flags.scale(RsExpConfig::quick, RsExpConfig::paper);
        emit(&rs_exp::open_loop(&cfg, &quarter).0, flags.csv);
    }
    if want("tx") {
        let cfg = flags.scale(TxExpConfig::quick, TxExpConfig::paper);
        emit(&tx_exp::open_loop(&cfg, &quarter).0, flags.csv);
    }
}
