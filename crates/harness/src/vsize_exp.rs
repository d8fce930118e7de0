//! Extension experiment (beyond the paper's figures): GET cost vs value
//! size.
//!
//! The bounded indirect READ (§3.1) is what lets PRISM-KV serve
//! variable-length values in one round trip; Pilaf pays its second READ
//! at every size, plus CRC work that grows with the value. This sweep
//! quantifies both effects from 64 B to 4 KiB — the gap widens with
//! payload because Pilaf's extra round trip and checksums scale while
//! PRISM's single reply only adds serialization.

use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_simnet::time::SimDuration;
use prism_workload::ycsb::YcsbConfig;
use prism_workload::KeyDist;

use crate::figure;
use crate::kv_exp::{self, pilaf_row, prism_row};
use crate::netsim::VerbPath;
use crate::table::{f2, mops, Table};

/// Parameters for the value-size sweep.
#[derive(Debug, Clone)]
pub struct VsizeConfig {
    /// Value sizes to sweep.
    pub sizes: Vec<usize>,
    /// Keys per store (small: the sweep isolates payload cost).
    pub n_keys: u64,
    /// Clients for the saturated-throughput measurement.
    pub sat_clients: usize,
    /// Warm-up per point.
    pub warmup: SimDuration,
    /// Measurement per point.
    pub measure: SimDuration,
    /// Run seed.
    pub seed: u64,
}

impl VsizeConfig {
    /// Full sweep.
    pub fn paper() -> Self {
        VsizeConfig {
            sizes: vec![64, 128, 256, 512, 1024, 2048, 4096],
            n_keys: 16_384,
            sat_clients: 192,
            warmup: SimDuration::millis(1),
            measure: SimDuration::millis(10),
            seed: 45,
        }
    }

    /// Reduced sweep for smoke tests.
    pub fn quick() -> Self {
        VsizeConfig {
            sizes: vec![64, 1024],
            n_keys: 1_024,
            sat_clients: 64,
            warmup: SimDuration::micros(500),
            measure: crate::smoke::measure_window(3_000),
            seed: 45,
        }
    }
}

/// Runs the sweep: for each value size, unloaded GET latency and
/// saturated GET throughput for PRISM-KV and Pilaf.
pub fn run(cfg: &VsizeConfig) -> Table {
    let mut t = Table::new(
        "Extension: GET cost vs value size (100% reads, uniform)",
        &[
            "value_B",
            "prism_us",
            "pilaf_us",
            "prism_sat_Mops",
            "pilaf_sat_Mops",
        ],
    );
    for &size in &cfg.sizes {
        let ycsb = YcsbConfig {
            dist: KeyDist::uniform(cfg.n_keys),
            read_fraction: 1.0,
            value_len: size,
        };
        let prism = PrismKvServer::new(&PrismKvConfig::paper(cfg.n_keys, size));
        kv_exp::preload_prism(&prism, cfg.n_keys, size);
        let pilaf = PilafServer::new(&PilafConfig::paper(cfg.n_keys, size));
        kv_exp::preload_pilaf(&pilaf, cfg.n_keys, size);

        // One client for the unloaded latency, `sat_clients` for the
        // saturated throughput; each run's clients on streams of their own.
        let seed = |n: usize, _| cfg.seed ^ size as u64 ^ ((n as u64) << 20);
        let run = |n, (prism_stride, pilaf_stride)| {
            let rows = [
                prism_row(&prism, ycsb.clone(), (cfg.seed, prism_stride), seed),
                pilaf_row(
                    &pilaf,
                    ("Pilaf", VerbPath::Nic),
                    ycsb.clone(),
                    (cfg.seed, pilaf_stride),
                    seed,
                ),
            ];
            figure::sweep(&rows, &[(n, 0.0)], cfg.warmup, cfg.measure)
        };
        let lat = run(1, (1, 7));
        let sat = run(cfg.sat_clients, (31, 37));
        t.row(&[
            size.to_string(),
            f2(lat[0][0].mean_us),
            f2(lat[1][0].mean_us),
            mops(sat[0][0].tput_ops),
            mops(sat[1][0].tput_ops),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prism_wins_at_every_size_and_gap_is_real() {
        let cfg = VsizeConfig::quick();
        let t = run(&cfg);
        for line in t.to_csv().lines().skip(1) {
            let c: Vec<&str> = line.split(',').collect();
            let prism_us: f64 = c[1].parse().unwrap();
            let pilaf_us: f64 = c[2].parse().unwrap();
            let prism_sat: f64 = c[3].parse().unwrap();
            let pilaf_sat: f64 = c[4].parse().unwrap();
            assert!(
                prism_us < pilaf_us,
                "size {}: PRISM {prism_us}us vs Pilaf {pilaf_us}us",
                c[0]
            );
            assert!(
                prism_sat > pilaf_sat,
                "size {}: PRISM {prism_sat} vs Pilaf {pilaf_sat} Mops",
                c[0]
            );
        }
    }
}
