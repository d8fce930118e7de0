//! Figures 6 and 7: PRISM-RS vs lock-based ABD.
//!
//! Figure 6 sweeps closed-loop clients on a uniform 50 %-write workload
//! over 3 replicas (§7.4). Figure 7 fixes 100 clients and sweeps the
//! Zipf coefficient: PRISM-RS stays flat while ABDLOCK's lock
//! contention sends latency off the chart.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use prism_rs::abdlock::{AbdLockCluster, AbdLockConfig};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::time::SimDuration;
use prism_workload::KeyDist;

use crate::adapters::{AbdLockAdapter, PrismRsAdapter};
use crate::netsim::{run_closed_loop, ProtoAdapter, VerbPath};
use crate::openloop::{rate_table, sweep_rates, AdapterFactory, OpenLoopKnobs, OpenLoopResult};
use crate::table::{f2, mops, Table};

/// Experiment parameters (§7.4 at reduced block count).
#[derive(Debug, Clone)]
pub struct RsExpConfig {
    /// Number of blocks per replica.
    pub n_blocks: u64,
    /// Block value size (512 in the paper).
    pub block_size: u64,
    /// Write fraction (0.5 in §7.4).
    pub write_fraction: f64,
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
            block_size: 512,
            write_fraction: 0.5,
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
            block_size: 512,
            write_fraction: 0.5,
            clients: vec![1, 16, 192],
            zipf: vec![0.0, 0.99],
            zipf_clients: 24,
            warmup: SimDuration::micros(500),
            measure: crate::smoke::measure_window(4_000),
            seed: 43,
        }
    }
}

struct Systems {
    prism: RsCluster,
    abd: AbdLockCluster,
}

fn build(cfg: &RsExpConfig) -> Systems {
    // Spare buffers must cover client-side free batching: every client
    // may hold up to a batch of reclaimed buffers per replica before
    // flushing.
    let max_clients = cfg
        .clients
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(cfg.zipf_clients) as u64;
    let mut rs_config = RsConfig::paper(cfg.n_blocks, cfg.block_size);
    rs_config.spare_buffers += 32 * (max_clients + 16);
    Systems {
        prism: RsCluster::new(3, &rs_config),
        abd: AbdLockCluster::new(
            3,
            &AbdLockConfig {
                n_blocks: cfg.n_blocks,
                block_size: cfg.block_size,
            },
        ),
    }
}

fn prism_servers(s: &Systems) -> Vec<Arc<prism_core::PrismServer>> {
    (0..3)
        .map(|i| Arc::clone(s.prism.replica(i).server()))
        .collect()
}

fn abd_servers(s: &Systems) -> Vec<Arc<prism_core::PrismServer>> {
    (0..3)
        .map(|i| Arc::clone(s.abd.replica(i).server()))
        .collect()
}

/// Figure 6: throughput-latency sweep, uniform keys.
pub fn figure6(cfg: &RsExpConfig) -> (Table, [f64; 3]) {
    let model = CostModel::testbed();
    let mut t = Table::new(
        &format!(
            "Figure 6: PRISM-RS vs ABDLOCK, {:.0}% writes, uniform ({} blocks x {} B, 3 replicas)",
            cfg.write_fraction * 100.0,
            cfg.n_blocks,
            cfg.block_size
        ),
        &["system", "clients", "tput_Mops", "mean_us", "p99_us"],
    );
    let sys = build(cfg);
    let mut peaks = [0.0f64; 3];

    for &n in &cfg.clients {
        let r = run_closed_loop(
            &prism_servers(&sys),
            &model,
            VerbPath::Nic,
            n,
            &mut |_| {
                Box::new(PrismRsAdapter::new(
                    sys.prism.open_client(),
                    KeyDist::uniform(cfg.n_blocks),
                    cfg.block_size as usize,
                    cfg.write_fraction,
                ))
            },
            cfg.warmup,
            cfg.measure,
            cfg.seed ^ n as u64,
            &FaultPlan::default(),
        );
        t.row(&[
            "PRISM-RS".into(),
            n.to_string(),
            mops(r.tput_ops),
            f2(r.mean_us),
            f2(r.p99_us),
        ]);
        peaks[0] = peaks[0].max(r.tput_ops);
    }

    for (slot, (label, path)) in [
        ("ABDLOCK", VerbPath::Nic),
        ("ABDLOCK (software RDMA)", VerbPath::Cpu),
    ]
    .into_iter()
    .enumerate()
    {
        for &n in &cfg.clients {
            // A measurement window's end abandons in-flight operations;
            // clear their leaked locks before the next point (lock-lease
            // recovery, §7.2).
            sys.abd.reset_locks();
            let seed = cfg.seed ^ (n as u64) << 8;
            let r = run_closed_loop(
                &abd_servers(&sys),
                &model,
                path,
                n,
                &mut |i| {
                    Box::new(AbdLockAdapter::new(
                        sys.abd.open_client(seed ^ i as u64),
                        KeyDist::uniform(cfg.n_blocks),
                        cfg.block_size as usize,
                        cfg.write_fraction,
                    ))
                },
                cfg.warmup,
                cfg.measure,
                seed,
                &FaultPlan::default(),
            );
            t.row(&[
                label.into(),
                n.to_string(),
                mops(r.tput_ops),
                f2(r.mean_us),
                f2(r.p99_us),
            ]);
            peaks[slot + 1] = peaks[slot + 1].max(r.tput_ops);
        }
    }
    (t, peaks)
}

/// Figure 7: mean latency vs Zipf coefficient at fixed client count.
pub fn figure7(cfg: &RsExpConfig) -> Table {
    let model = CostModel::testbed();
    let mut t = Table::new(
        &format!(
            "Figure 7: latency vs contention, {} closed-loop clients",
            cfg.zipf_clients
        ),
        &["system", "zipf", "tput_Mops", "mean_us", "p99_us"],
    );
    let sys = build(cfg);
    for &z in &cfg.zipf {
        let r = run_closed_loop(
            &prism_servers(&sys),
            &model,
            VerbPath::Nic,
            cfg.zipf_clients,
            &mut |_| {
                Box::new(PrismRsAdapter::new(
                    sys.prism.open_client(),
                    KeyDist::zipf(cfg.n_blocks, z),
                    cfg.block_size as usize,
                    cfg.write_fraction,
                ))
            },
            cfg.warmup,
            cfg.measure,
            cfg.seed ^ (z * 100.0) as u64,
            &FaultPlan::default(),
        );
        t.row(&[
            "PRISM-RS".into(),
            format!("{z:.2}"),
            mops(r.tput_ops),
            f2(r.mean_us),
            f2(r.p99_us),
        ]);
    }
    for &z in &cfg.zipf {
        sys.abd.reset_locks();
        let seed = cfg.seed ^ 0x5000 ^ (z * 100.0) as u64;
        let r = run_closed_loop(
            &abd_servers(&sys),
            &model,
            VerbPath::Nic,
            cfg.zipf_clients,
            &mut |i| {
                Box::new(AbdLockAdapter::new(
                    sys.abd.open_client(seed ^ i as u64),
                    KeyDist::zipf(cfg.n_blocks, z),
                    cfg.block_size as usize,
                    cfg.write_fraction,
                ))
            },
            cfg.warmup,
            cfg.measure,
            seed,
            &FaultPlan::default(),
        );
        t.row(&[
            "ABDLOCK".into(),
            format!("{z:.2}"),
            mops(r.tput_ops),
            f2(r.mean_us),
            f2(r.p99_us),
        ]);
    }
    t
}

/// Open-loop latency-under-load sweep for PRISM-RS (uniform keys,
/// `cfg.write_fraction` writes, 3 replicas): the replicated-store
/// counterpart of [`crate::kv_exp::open_loop`].
pub fn open_loop(cfg: &RsExpConfig, knobs: &OpenLoopKnobs) -> (Table, Vec<(f64, OpenLoopResult)>) {
    let mut rs_config = RsConfig::paper(cfg.n_blocks, cfg.block_size);
    // Same spare sizing rationale as the KV open-loop sweep: provision
    // for the live slots, not the logical population.
    rs_config.spare_buffers += 32 * (knobs.live_slots() as u64 + 16);
    let n_blocks = cfg.n_blocks;
    let block_size = cfg.block_size as usize;
    let write_fraction = cfg.write_fraction;
    // One 3-replica cluster for the whole sweep: each point's adapters
    // reopen connections from the recycled slot pool (see
    // `sweep_rates`).
    let cluster = Rc::new(RsCluster::new(3, &rs_config));
    let servers: Vec<Arc<prism_core::PrismServer>> = (0..3)
        .map(|i| Arc::clone(cluster.replica(i).server()))
        .collect();
    let results = sweep_rates(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        knobs,
        cfg.seed,
        &FaultPlan::default(),
        || {
            let cluster = Rc::clone(&cluster);
            Rc::new(RefCell::new(move |_i: usize| {
                Box::new(PrismRsAdapter::new(
                    cluster.open_client(),
                    KeyDist::uniform(n_blocks),
                    block_size,
                    write_fraction,
                )) as Box<dyn ProtoAdapter>
            })) as AdapterFactory
        },
    );
    let title = format!(
        "Open-loop PRISM-RS latency under load ({} logical clients on {} aggregates, {:.0}% writes, 3 replicas)",
        knobs.logical_clients,
        knobs.actors,
        cfg.write_fraction * 100.0
    );
    (rate_table(&title, "ops", &results), results)
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
