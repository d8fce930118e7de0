//! Figures 9 and 10: PRISM-TX vs FaRM.
//!
//! YCSB-T short read-modify-write transactions over 512-byte objects
//! (§8.3); a single shard, like the paper's testbed, but running the
//! full distributed commit protocol. Figure 9 sweeps clients under
//! uniform access; Figure 10 sweeps the Zipf coefficient and reports
//! peak committed-transaction throughput.

use std::sync::Arc;

use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;
use prism_tx::farm::{FarmCluster, FarmConfig};
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen};

use crate::adapters::{batching_spares, FarmAdapter, PrismTxAdapter};
use crate::figure::{self, Axis, Row};
use crate::netsim::VerbPath;
use crate::openloop::{OpenLoopKnobs, OpenLoopResult};
use crate::table::{f2, mops, Table};

/// Value size (512-byte objects in the paper).
pub const VALUE_LEN: u64 = 512;

/// Experiment parameters (§8.3 at reduced key count). One shard, like
/// the paper's testbed, and one key per transaction: YCSB-T wraps single
/// YCSB operations in transactions, so the paper's "short
/// read-modify-write transactions" touch one key (multi-key, multi-shard
/// transactions are exercised by the integration tests).
#[derive(Debug, Clone)]
pub struct TxExpConfig {
    /// Keys (the paper uses 8 M 512-byte objects).
    pub n_keys: u64,
    /// Client counts for Figure 9.
    pub clients: Vec<usize>,
    /// Zipf coefficients for Figure 10.
    pub zipf: Vec<f64>,
    /// Clients used for the Figure 10 peak-throughput runs.
    pub zipf_clients: usize,
    /// Warm-up per point.
    pub warmup: SimDuration,
    /// Measurement per point.
    pub measure: SimDuration,
    /// Run seed.
    pub seed: u64,
}

impl TxExpConfig {
    /// Full-scale run.
    pub fn paper() -> Self {
        TxExpConfig {
            n_keys: 262_144,
            clients: vec![1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256],
            zipf: vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 1.2, 1.4, 1.6],
            zipf_clients: 128,
            warmup: SimDuration::millis(2),
            measure: SimDuration::millis(20),
            seed: 44,
        }
    }

    /// Reduced run for smoke tests. Key count stays high enough that
    /// the uniform workload is genuinely low-contention (the paper uses
    /// 8 M keys; with too few keys, concurrent prepares collide and the
    /// figure's "low contention" premise no longer holds).
    pub fn quick() -> Self {
        TxExpConfig {
            n_keys: 32_768,
            clients: vec![1, 16, 64],
            zipf: vec![0.0, 0.99],
            zipf_clients: 32,
            warmup: SimDuration::micros(500),
            measure: crate::smoke::measure_window(4_000),
            seed: 44,
        }
    }
}

/// The two systems' stores, one shard each.
fn build(cfg: &TxExpConfig) -> (TxCluster, FarmCluster) {
    let max_clients = cfg.clients.iter().fold(cfg.zipf_clients, |m, &n| m.max(n));
    let mut tx_config = TxConfig::paper(cfg.n_keys, VALUE_LEN);
    tx_config.spare_buffers += batching_spares(max_clients);
    let farm = FarmConfig {
        keys_per_shard: cfg.n_keys,
        value_len: VALUE_LEN,
    };
    (TxCluster::new(1, &tx_config), FarmCluster::new(1, &farm))
}

fn txn_gen(n_keys: u64, zipf: f64, seed: u64) -> TxnGen {
    let dist = KeyDist::zipf(n_keys, zipf);
    TxnGen::new(dist, 1, VALUE_LEN as usize, SimRng::new(seed))
}

/// PRISM-TX's row; client `i` draws its transactions from
/// `seed ^ (i+1)*31`.
fn prism_row<'a>(
    prism: &'a TxCluster,
    cfg: &'a TxExpConfig,
    seed: impl Fn(usize, f64) -> u64 + 'a,
) -> Row<'a> {
    Row::new("PRISM-TX", VerbPath::Nic, prism, seed, move |i, z, _| {
        let gen = txn_gen(cfg.n_keys, z, cfg.seed ^ ((i as u64 + 1) * 31));
        Box::new(PrismTxAdapter::new(prism.open_client(), gen))
    })
}

/// A FaRM row; client `i` draws its transactions from `seed ^ (i+1)*37`.
fn farm_row<'a>(
    farm: &'a FarmCluster,
    cfg: &'a TxExpConfig,
    (label, path): (&'static str, VerbPath),
    seed: impl Fn(usize, f64) -> u64 + 'a,
) -> Row<'a> {
    Row::new(label, path, farm, seed, move |i, z, _| {
        let gen = txn_gen(cfg.n_keys, z, cfg.seed ^ ((i as u64 + 1) * 37));
        Box::new(FarmAdapter::new(farm.open_client(), gen))
    })
}

/// Figure 9: throughput-latency sweep, uniform access. Returns the
/// table and each row's peak throughput (PRISM-TX, FaRM, FaRM on
/// software RDMA).
pub fn figure9(cfg: &TxExpConfig) -> (Table, Vec<f64>) {
    let title = format!(
        "Figure 9: PRISM-TX vs FaRM, YCSB-T uniform ({} keys x {VALUE_LEN} B, 1 keys/txn)",
        cfg.n_keys
    );
    let (prism, farm) = build(cfg);
    let farm_seed = |n: usize, _| cfg.seed ^ ((n as u64) << 9);
    let rows = [
        prism_row(&prism, cfg, |n, _| cfg.seed ^ n as u64),
        farm_row(&farm, cfg, ("FaRM", VerbPath::Nic), farm_seed),
        farm_row(
            &farm,
            cfg,
            ("FaRM (software RDMA)", VerbPath::Cpu),
            farm_seed,
        ),
    ];
    let x = Axis::Clients(&cfg.clients);
    figure::curves(&title, "txn", x, &rows, cfg.warmup, cfg.measure)
}

/// Figure 10: peak committed throughput vs Zipf coefficient.
///
/// "Peak" means over client counts, as the paper's methodology implies:
/// under skew the throughput-maximizing offered load shrinks (more
/// clients only add conflict), so each point reports the best of a
/// small client sweep.
pub fn figure10(cfg: &TxExpConfig) -> Table {
    let mut t = Table::new(
        &format!(
            "Figure 10: peak throughput vs contention (best of <= {} clients)",
            cfg.zipf_clients
        ),
        &[
            "system",
            "zipf",
            "tput_Mtxn",
            "mean_us",
            "aborts_per_commit",
            "clients_at_peak",
        ],
    );
    let (prism, farm) = build(cfg);
    let clients: Vec<usize> = std::iter::successors(Some(cfg.zipf_clients), |n| Some(n / 4))
        .take_while(|&n| n >= 8)
        .collect();
    let point = |n: usize, z: f64| (z * 100.0) as u64 ^ ((n as u64) << 16);
    let rows = [
        prism_row(&prism, cfg, |n, z| cfg.seed ^ point(n, z)),
        farm_row(&farm, cfg, ("FaRM", VerbPath::Nic), |n, z| {
            cfg.seed ^ 0x9000 ^ point(n, z)
        }),
    ];
    let points: Vec<_> = cfg
        .zipf
        .iter()
        .flat_map(|&z| clients.iter().map(move |&n| (n, z)))
        .collect();
    let runs = figure::sweep(&rows, &points, cfg.warmup, cfg.measure);
    for (row, runs) in rows.iter().zip(runs) {
        for (&z, runs) in cfg.zipf.iter().zip(runs.chunks(clients.len())) {
            // The best throughput; on a tie, the first client count.
            let (n, r) = clients
                .iter()
                .zip(runs)
                .min_by(|a, b| b.1.tput_ops.total_cmp(&a.1.tput_ops))
                .expect("sweep nonempty");
            let commits = (r.tput_ops * cfg.measure.as_micros_f64() / 1e6).max(1.0);
            t.row(&[
                row.label().into(),
                format!("{z:.2}"),
                mops(r.tput_ops),
                f2(r.mean_us),
                f2(r.backoffs as f64 / commits),
                n.to_string(),
            ]);
        }
    }
    t
}

/// Open-loop latency-under-load sweep for PRISM-TX (uniform YCSB-T
/// transactions): the transactional counterpart of
/// [`crate::kv_exp::open_loop_sharded`].
pub fn open_loop(cfg: &TxExpConfig, knobs: &OpenLoopKnobs) -> (Table, Vec<(f64, OpenLoopResult)>) {
    let mut tx_config = TxConfig::paper(cfg.n_keys, VALUE_LEN);
    // Provision for the live slots, not the logical population.
    tx_config.spare_buffers += batching_spares(knobs.live_slots());
    // One cluster for the whole sweep: each point's adapters reopen
    // connections from the recycled slot pool (see `sweep_rates`).
    let cluster = Arc::new(TxCluster::new(1, &tx_config));
    let (shards, n_keys, seed) = (Arc::clone(&cluster), cfg.n_keys, cfg.seed);
    let title = format!(
        "Open-loop PRISM-TX latency under load ({} logical clients on {} aggregates, 1 keys/txn)",
        knobs.logical_clients, knobs.actors
    );
    figure::open_loop(&title, "txn", &*cluster, knobs, seed, move |i| {
        let gen = txn_gen(n_keys, 0.0, seed ^ ((i as u64 + 1) * 31));
        Box::new(PrismTxAdapter::new(shards.open_client(), gen))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(t: &Table, system: &str) -> Vec<(f64, f64, f64)> {
        t.to_csv()
            .lines()
            .skip(1)
            .filter_map(|l| {
                let c: Vec<&str> = l.split(',').collect();
                (c[0] == system).then(|| {
                    (
                        c[1].parse().unwrap(),
                        c[2].parse().unwrap(),
                        c[3].parse().unwrap(),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn figure9_shape() {
        let cfg = TxExpConfig::quick();
        let (t, peaks) = figure9(&cfg);
        // Paper: PRISM-TX > FaRM in throughput, lower in latency.
        assert!(
            peaks[0] > peaks[1],
            "PRISM {} vs FaRM {}",
            peaks[0],
            peaks[1]
        );
        assert!(
            peaks[1] > peaks[2],
            "FaRM HW {} vs SW {}",
            peaks[1],
            peaks[2]
        );
        let prism_lat = series(&t, "PRISM-TX")[0].2;
        let farm_lat = series(&t, "FaRM")[0].2;
        assert!(
            prism_lat < farm_lat,
            "PRISM-TX {prism_lat}us vs FaRM {farm_lat}us at 1 client"
        );
    }

    #[test]
    fn figure10_prism_keeps_advantage_under_skew() {
        let cfg = TxExpConfig::quick();
        let t = figure10(&cfg);
        let prism = series(&t, "PRISM-TX");
        let farm = series(&t, "FaRM");
        // Uncontended: strict win (Figure 9's ordering).
        assert!(
            prism[0].1 > farm[0].1,
            "uncontended: PRISM {} vs FaRM {}",
            prism[0].1,
            farm[0].1
        );
        // Under skew both collapse toward the hot key's serialization
        // ceiling; PRISM-TX, each point on a settled cluster, must keep
        // at least FaRM's throughput.
        for (p, f) in prism.iter().zip(farm.iter()) {
            assert!(
                p.1 >= f.1,
                "PRISM-TX fell behind FaRM at zipf {} ({} vs {})",
                p.0,
                p.1,
                f.1
            );
        }
    }

    #[test]
    fn open_loop_tx_completes_offered_load() {
        let cfg = TxExpConfig::quick();
        let mut knobs = OpenLoopKnobs::quick();
        // Commit protocols cost several round trips; stay below the
        // single-shard saturation point.
        knobs.rates_per_sec = vec![50_000.0, 200_000.0];
        let (_t, results) = open_loop(&cfg, &knobs);
        for (rate, r) in &results {
            assert!(r.completed > 0, "no commits at {rate} txn/s");
            let ratio = r.tput_ops / rate;
            assert!(
                (0.6..1.4).contains(&ratio),
                "offered {rate} vs committed {} (ratio {ratio})",
                r.tput_ops
            );
        }
    }
}
