//! Figures 6 and 7: PRISM-RS vs lock-based ABD.
//!
//! Figure 6 sweeps closed-loop clients on a uniform 50 %-write workload
//! over 3 replicas (§7.4). Figure 7 fixes 100 clients and sweeps the
//! Zipf coefficient: PRISM-RS stays flat while ABDLOCK's lock
//! contention sends latency off the chart.

use std::sync::Arc;

use prism_rs::abdlock::{AbdLockCluster, AbdLockConfig};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_simnet::time::SimDuration;
use prism_workload::KeyDist;

use crate::adapters::{batching_spares, AbdLockAdapter, PrismRsAdapter};
use crate::figure::{self, Axis, Row};
use crate::netsim::VerbPath;
use crate::openloop::{OpenLoopKnobs, OpenLoopResult};
use crate::table::Table;

/// Block value size (512 in the paper).
pub const BLOCK_SIZE: u64 = 512;
/// Write fraction (0.5 in §7.4).
pub const WRITE_FRACTION: f64 = 0.5;

/// Experiment parameters (§7.4 at reduced block count).
#[derive(Debug, Clone)]
pub struct RsExpConfig {
    /// Number of blocks per replica.
    pub n_blocks: u64,
    /// Client counts for the throughput sweep (Figure 6).
    pub clients: Vec<usize>,
    /// Zipf coefficients for the contention sweep (Figure 7).
    pub zipf: Vec<f64>,
    /// Clients used in the Zipf sweep (100 in the paper).
    pub zipf_clients: usize,
    /// Warm-up per point.
    pub warmup: SimDuration,
    /// Measurement per point.
    pub measure: SimDuration,
    /// Run seed.
    pub seed: u64,
}

impl RsExpConfig {
    /// Full-scale run.
    pub fn paper() -> Self {
        RsExpConfig {
            n_blocks: 65_536,
            clients: vec![1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256, 384],
            zipf: vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 1.1, 1.2],
            zipf_clients: 100,
            warmup: SimDuration::millis(2),
            measure: SimDuration::millis(20),
            seed: 43,
        }
    }

    /// Reduced run for smoke tests. The top client count must push all
    /// three systems into saturation or the peak-throughput ordering
    /// cannot be observed.
    pub fn quick() -> Self {
        RsExpConfig {
            n_blocks: 512,
            clients: vec![1, 16, 192],
            zipf: vec![0.0, 0.99],
            zipf_clients: 24,
            warmup: SimDuration::micros(500),
            measure: crate::smoke::measure_window(4_000),
            seed: 43,
        }
    }
}

/// The two systems' 3-replica clusters.
fn build(cfg: &RsExpConfig) -> (RsCluster, AbdLockCluster) {
    let max_clients = cfg.clients.iter().fold(cfg.zipf_clients, |m, &n| m.max(n));
    let mut rs_config = RsConfig::paper(cfg.n_blocks, BLOCK_SIZE);
    rs_config.spare_buffers += batching_spares(max_clients);
    let abd = AbdLockConfig {
        n_blocks: cfg.n_blocks,
        block_size: BLOCK_SIZE,
    };
    (RsCluster::new(3, &rs_config), AbdLockCluster::new(3, &abd))
}

/// PRISM-RS's row over `n_blocks` blocks, Zipf-distributed at each
/// point's coefficient.
fn prism_row<'a>(
    prism: &'a RsCluster,
    n_blocks: u64,
    seed: impl Fn(usize, f64) -> u64 + 'a,
) -> Row<'a> {
    Row::new("PRISM-RS", VerbPath::Nic, prism, seed, move |_, z, _| {
        Box::new(PrismRsAdapter::new(
            prism.open_client(),
            KeyDist::zipf(n_blocks, z),
            BLOCK_SIZE as usize,
            WRITE_FRACTION,
        ))
    })
}

/// An ABDLOCK row: client `i` is seeded `seed ^ i` from its point's run
/// seed. A measurement window's end abandons in-flight operations, and
/// settling the cluster before the next point clears the locks they
/// held (the force-release §7.2 calls for).
fn abd_row<'a>(
    abd: &'a AbdLockCluster,
    n_blocks: u64,
    (label, path): (&'static str, VerbPath),
    seed: impl Fn(usize, f64) -> u64 + 'a,
) -> Row<'a> {
    Row::new(label, path, abd, seed, move |i, z, seed| {
        Box::new(AbdLockAdapter::new(
            abd.open_client(seed ^ i as u64),
            KeyDist::zipf(n_blocks, z),
            BLOCK_SIZE as usize,
            WRITE_FRACTION,
        ))
    })
}

/// Figure 6: throughput-latency sweep, uniform keys.
pub fn figure6(cfg: &RsExpConfig) -> (Table, Vec<f64>) {
    let title = format!(
        "Figure 6: PRISM-RS vs ABDLOCK, {:.0}% writes, uniform ({} blocks x {BLOCK_SIZE} B, 3 replicas)",
        WRITE_FRACTION * 100.0,
        cfg.n_blocks,
    );
    let (prism, abd) = build(cfg);
    let abd_seed = |n: usize, _| cfg.seed ^ ((n as u64) << 8);
    let rows = [
        prism_row(&prism, cfg.n_blocks, |n, _| cfg.seed ^ n as u64),
        abd_row(&abd, cfg.n_blocks, ("ABDLOCK", VerbPath::Nic), abd_seed),
        abd_row(
            &abd,
            cfg.n_blocks,
            ("ABDLOCK (software RDMA)", VerbPath::Cpu),
            abd_seed,
        ),
    ];
    let x = Axis::Clients(&cfg.clients);
    figure::curves(&title, "ops", x, &rows, cfg.warmup, cfg.measure)
}

/// Figure 7: mean latency vs Zipf coefficient at fixed client count.
pub fn figure7(cfg: &RsExpConfig) -> Table {
    let title = format!(
        "Figure 7: latency vs contention, {} closed-loop clients",
        cfg.zipf_clients
    );
    let (prism, abd) = build(cfg);
    let z100 = |z: f64| (z * 100.0) as u64;
    let rows = [
        prism_row(&prism, cfg.n_blocks, |_, z| cfg.seed ^ z100(z)),
        abd_row(&abd, cfg.n_blocks, ("ABDLOCK", VerbPath::Nic), |_, z| {
            cfg.seed ^ 0x5000 ^ z100(z)
        }),
    ];
    let x = Axis::Zipf(cfg.zipf_clients, &cfg.zipf);
    figure::curves(&title, "ops", x, &rows, cfg.warmup, cfg.measure).0
}

/// Open-loop latency-under-load sweep for PRISM-RS (uniform keys,
/// [`WRITE_FRACTION`] writes, 3 replicas): the replicated-store
/// counterpart of [`crate::kv_exp::open_loop_sharded`].
pub fn open_loop(cfg: &RsExpConfig, knobs: &OpenLoopKnobs) -> (Table, Vec<(f64, OpenLoopResult)>) {
    let mut rs_config = RsConfig::paper(cfg.n_blocks, BLOCK_SIZE);
    // Provision for the live slots, not the logical population.
    rs_config.spare_buffers += batching_spares(knobs.live_slots());
    // One 3-replica cluster for the whole sweep: each point's adapters
    // reopen connections from the recycled slot pool (see
    // `sweep_rates`).
    let cluster = Arc::new(RsCluster::new(3, &rs_config));
    let (group, n_blocks) = (Arc::clone(&cluster), cfg.n_blocks);
    let title = format!(
        "Open-loop PRISM-RS latency under load ({} logical clients on {} aggregates, {:.0}% writes, 3 replicas)",
        knobs.logical_clients,
        knobs.actors,
        WRITE_FRACTION * 100.0
    );
    figure::open_loop(&title, "ops", &*cluster, knobs, cfg.seed, move |_| {
        Box::new(PrismRsAdapter::new(
            group.open_client(),
            KeyDist::uniform(n_blocks),
            BLOCK_SIZE as usize,
            WRITE_FRACTION,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies(t: &Table, system: &str) -> Vec<(f64, f64)> {
        // (x, mean_us) rows for one system.
        t.to_csv()
            .lines()
            .skip(1)
            .filter_map(|l| {
                let c: Vec<&str> = l.split(',').collect();
                (c[0] == system).then(|| (c[1].parse().unwrap(), c[3].parse().unwrap()))
            })
            .collect()
    }

    #[test]
    fn figure6_shape() {
        let cfg = RsExpConfig::quick();
        let (t, peaks) = figure6(&cfg);
        // PRISM-RS outperforms ABDLOCK in peak throughput, which in turn
        // beats the software-RDMA variant (Figure 6).
        assert!(
            peaks[0] > peaks[1],
            "PRISM {} vs ABDLOCK {}",
            peaks[0],
            peaks[1]
        );
        assert!(
            peaks[1] > peaks[2],
            "ABDLOCK HW {} vs SW {}",
            peaks[1],
            peaks[2]
        );
        // Unloaded latency: PRISM-RS (2 round trips) beats ABDLOCK (4).
        let p = latencies(&t, "PRISM-RS")[0].1;
        let a = latencies(&t, "ABDLOCK")[0].1;
        assert!(p < a, "PRISM-RS {p}us vs ABDLOCK {a}us at 1 client");
    }

    #[test]
    fn figure7_contention_shape() {
        let cfg = RsExpConfig::quick();
        let t = figure7(&cfg);
        let prism = latencies(&t, "PRISM-RS");
        let abd = latencies(&t, "ABDLOCK");
        // PRISM-RS stays roughly flat from uniform to high skew...
        let prism_growth = prism.last().unwrap().1 / prism[0].1;
        assert!(
            prism_growth < 2.0,
            "PRISM-RS grew {prism_growth}x under skew"
        );
        // ...while ABDLOCK degrades much more.
        let abd_growth = abd.last().unwrap().1 / abd[0].1;
        assert!(
            abd_growth > prism_growth * 1.5,
            "ABDLOCK growth {abd_growth}x vs PRISM {prism_growth}x"
        );
    }

    #[test]
    fn open_loop_rs_completes_offered_load() {
        let cfg = RsExpConfig::quick();
        let mut knobs = OpenLoopKnobs::quick();
        // Replicated writes cost more than KV GETs; keep the rates
        // comfortably below the 3-replica saturation point.
        knobs.rates_per_sec = vec![50_000.0, 200_000.0];
        let (_t, results) = open_loop(&cfg, &knobs);
        for (rate, r) in &results {
            assert!(r.completed > 0, "no completions at {rate} ops/s");
            let ratio = r.tput_ops / rate;
            assert!(
                (0.6..1.4).contains(&ratio),
                "offered {rate} vs delivered {} (ratio {ratio})",
                r.tput_ops
            );
        }
    }
}
