//! Smoke tests for the figure harness: each experiment runs at quick
//! scale and the paper's headline inequality for that figure must hold.
//! (The full-scale runs are `cargo run --release -p prism-harness --bin
//! all_figures`; results are recorded in EXPERIMENTS.md.)
//!
//! The quick configs are wall-clock bounded: every `quick()` reads its
//! measurement window through `prism_harness::smoke`, so
//! `PRISM_SMOKE_MEASURE_US=<us>` shrinks (or grows) the whole suite at
//! once. The budget test below keeps the default scale honest.
//!
//! Every quick table also carries a golden row: its CSV and its peaks,
//! folded (`support::table_key`), checked at the default window only.

use prism_harness::openloop::OpenLoopKnobs;
use prism_harness::table::Table;
use prism_harness::{kv_exp, micro, rs_exp, smoke, tx_exp, vsize_exp};

mod support;
use support::{assert_golden, table_key};

/// Checks a quick table's golden row, unless `PRISM_SMOKE_MEASURE_US`
/// rescales the run.
#[track_caller]
fn pin(what: &str, t: &Table, peaks: &[f64], want: u64) {
    if std::env::var_os(smoke::MEASURE_ENV).is_none() {
        assert_golden(what, &[table_key(t, peaks)], &[want]);
    }
}

fn col(table: &prism_harness::table::Table, system: &str, col: usize) -> Vec<f64> {
    table
        .to_csv()
        .lines()
        .skip(1)
        .filter_map(|l| {
            let c: Vec<&str> = l.split(',').collect();
            (c[0] == system).then(|| c[col].parse().unwrap())
        })
        .collect()
}

#[test]
fn figure1_and_2_render() {
    let f1 = micro::figure1().render();
    assert!(f1.contains("Indirect Read") && f1.contains("PRISM SW"));
    let f2 = micro::figure2().render();
    assert!(f2.contains("datacenter"));
    let s2 = micro::section2().render();
    assert!(s2.contains("eRPC"));
}

#[test]
fn figure3_headline_prism_kv_wins_reads() {
    let cfg = kv_exp::KvExpConfig::quick(1.0);
    let (t, peaks) = kv_exp::run(&cfg);
    // Headline: PRISM-KV reads at lower latency and higher peak
    // throughput than Pilaf (§6.2, "22% higher read throughput").
    assert!(peaks[0] > peaks[1]);
    let prism_lat = col(&t, "PRISM-KV", 3)[0];
    let pilaf_lat = col(&t, "Pilaf", 3)[0];
    assert!(prism_lat < pilaf_lat);
    pin("figure 3", &t, &peaks, 0xb8a5_6df2_0a97_325a);
}

#[test]
fn figure4_headline_mixed_workload_competitive() {
    let cfg = kv_exp::KvExpConfig::quick(0.5);
    let (t, peaks) = kv_exp::run(&cfg);
    // §6.2: PRISM-KV "matches" Pilaf for 50/50 mixed workloads (PUTs
    // cost 2 round trips against Pilaf's single RPC), so the assertion
    // is parity within 2x — not strict ordering.
    assert!(
        peaks[0] > 0.5 * peaks[1],
        "PRISM {} vs Pilaf {}",
        peaks[0],
        peaks[1]
    );
    assert!(
        peaks[0] > 0.5 * peaks[2],
        "PRISM {} vs Pilaf-sw {}",
        peaks[0],
        peaks[2]
    );
    pin("figure 4", &t, &peaks, 0x3087_815e_1946_38f2);
}

#[test]
fn figure6_headline_prism_rs_wins() {
    let cfg = rs_exp::RsExpConfig::quick();
    let (t, peaks) = rs_exp::figure6(&cfg);
    // The paper's headline — PRISM-RS beats both baselines — holds at
    // any measurement window. The ordering *between* the baselines is a
    // sub-0.2% effect that only resolves at the full 4 ms quick window,
    // so it is skipped when PRISM_SMOKE_MEASURE_US shrinks the run.
    assert!(peaks[0] > peaks[1] && peaks[0] > peaks[2]);
    if cfg.measure >= prism_simnet::time::SimDuration::millis(4) {
        assert!(peaks[1] > peaks[2], "ABDLOCK must beat the ABD baseline");
    }
    let prism_lat = col(&t, "PRISM-RS", 3)[0];
    let abd_lat = col(&t, "ABDLOCK", 3)[0];
    assert!(
        prism_lat < abd_lat,
        "PRISM-RS {prism_lat} vs ABDLOCK {abd_lat}"
    );
    pin("figure 6", &t, &peaks, 0x1419_627e_b8ad_74a0);
}

#[test]
fn figure7_headline_contention_immunity() {
    let cfg = rs_exp::RsExpConfig::quick();
    let t = rs_exp::figure7(&cfg);
    let prism = col(&t, "PRISM-RS", 3);
    let abd = col(&t, "ABDLOCK", 3);
    let prism_growth = prism.last().unwrap() / prism[0];
    let abd_growth = abd.last().unwrap() / abd[0];
    assert!(
        abd_growth > prism_growth,
        "ABDLOCK must degrade more under skew"
    );
    pin("figure 7", &t, &[], 0xbd8a_a000_443e_094a);
}

#[test]
fn figure9_headline_prism_tx_wins() {
    let cfg = tx_exp::TxExpConfig::quick();
    let (t, peaks) = tx_exp::figure9(&cfg);
    assert!(
        peaks[0] > peaks[1],
        "PRISM-TX {} vs FaRM {}",
        peaks[0],
        peaks[1]
    );
    let prism_lat = col(&t, "PRISM-TX", 3)[0];
    let farm_lat = col(&t, "FaRM", 3)[0];
    assert!(prism_lat < farm_lat);
    pin("figure 9", &t, &peaks, 0xadfe_bf6d_eb22_2da1);
}

#[test]
fn figure10_headline_advantage_survives_skew() {
    let cfg = tx_exp::TxExpConfig::quick();
    let t = tx_exp::figure10(&cfg);
    let prism = col(&t, "PRISM-TX", 2);
    let farm = col(&t, "FaRM", 2);
    // Uncontended: strict ordering. Under skew: at least FaRM's
    // throughput, each point on a settled cluster.
    assert!(
        prism[0] > farm[0],
        "uncontended: PRISM {} vs FaRM {}",
        prism[0],
        farm[0]
    );
    for (i, (p, f)) in prism.iter().zip(farm.iter()).enumerate() {
        assert!(p >= f, "zipf point {i}: PRISM {p} vs FaRM {f}");
    }
    pin("figure 10", &t, &[], 0x8066_0cf4_dd36_f2e0);
}

#[test]
fn value_size_table_is_pinned() {
    let t = vsize_exp::run(&vsize_exp::VsizeConfig::quick());
    pin("value size", &t, &[], 0xb3fd_e4a5_f6ee_a22e);
}

/// The three latency-under-load tables `fig_openloop --quick` prints,
/// at its rate scaling: RS and TX offered a quarter of KV's rates.
#[test]
fn open_loop_tables_are_pinned() {
    let knobs = OpenLoopKnobs::quick();
    let mut quarter = knobs.clone();
    quarter.rates_per_sec = knobs.rates_per_sec.iter().map(|r| r / 4.0).collect();
    let (t, _) = kv_exp::open_loop_sharded(&kv_exp::KvExpConfig::quick(1.0), &knobs, 1);
    pin("KV open loop", &t, &[], 0xcefa_ee88_a034_0028);
    let (t, _) = rs_exp::open_loop(&rs_exp::RsExpConfig::quick(), &quarter);
    pin("RS open loop", &t, &[], 0x8c21_0ffc_ad23_c18f);
    let (t, _) = tx_exp::open_loop(&tx_exp::TxExpConfig::quick(), &quarter);
    pin("TX open loop", &t, &[], 0xe7dc_e452_a92e_619b);
}

/// The quick configs must stay smoke-test sized: one full KV experiment
/// (the heaviest single figure here) finishes in seconds, keeping the
/// whole suite well under a minute even on a loaded machine. If this
/// trips, a quick() config grew past smoke scale — shrink it or move
/// the heavy variant to the paper() config.
#[test]
fn quick_configs_fit_the_smoke_budget() {
    let start = std::time::Instant::now();
    let cfg = kv_exp::KvExpConfig::quick(1.0);
    let _ = kv_exp::run(&cfg);
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "quick KV experiment took {elapsed:?}; smoke scale has drifted"
    );
}
