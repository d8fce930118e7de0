//! Extension experiment (beyond the paper's figures): GET cost vs value
//! size.
//!
//! The bounded indirect READ (§3.1) is what lets PRISM-KV serve
//! variable-length values in one round trip; Pilaf pays its second READ
//! at every size, plus CRC work that grows with the value. This sweep
//! quantifies both effects from 64 B to 4 KiB — the gap widens with
//! payload because Pilaf's extra round trip and checksums scale while
//! PRISM's single reply only adds serialization.

use std::sync::Arc;

use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;
use prism_workload::ycsb::YcsbConfig;
use prism_workload::KeyDist;

use crate::adapters::{PilafAdapter, PrismKvAdapter};
use crate::kv_exp;
use crate::netsim::{run_closed_loop, VerbPath};
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
    let model = CostModel::testbed();
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
        let prism_servers = vec![Arc::clone(prism.server())];

        let pilaf = PilafServer::new(&PilafConfig::paper(cfg.n_keys, size));
        kv_exp::preload_pilaf(&pilaf, cfg.n_keys, size);
        let pilaf_servers = vec![Arc::clone(pilaf.server())];

        let point =
            |servers: &[Arc<prism_core::PrismServer>],
             path: VerbPath,
             clients: usize,
             mk: &mut dyn FnMut(usize) -> Box<dyn crate::netsim::ProtoAdapter>| {
                run_closed_loop(
                    servers,
                    &model,
                    path,
                    clients,
                    mk,
                    cfg.warmup,
                    cfg.measure,
                    cfg.seed ^ size as u64 ^ ((clients as u64) << 20),
                    &FaultPlan::default(),
                )
            };

        let seed = cfg.seed;
        let ycsb_p = ycsb.clone();
        let prism_lat = point(&prism_servers, VerbPath::Nic, 1, &mut |i| {
            Box::new(PrismKvAdapter::new(
                prism.open_client(),
                ycsb_p.clone(),
                SimRng::new(seed ^ (i as u64 + 1)),
            ))
        });
        let ycsb_p = ycsb.clone();
        let prism_sat = point(&prism_servers, VerbPath::Nic, cfg.sat_clients, &mut |i| {
            Box::new(PrismKvAdapter::new(
                prism.open_client(),
                ycsb_p.clone(),
                SimRng::new(seed ^ ((i as u64 + 1) * 31)),
            ))
        });
        let ycsb_l = ycsb.clone();
        let pilaf_lat = point(&pilaf_servers, VerbPath::Nic, 1, &mut |i| {
            Box::new(PilafAdapter::new(
                pilaf.open_client(),
                ycsb_l.clone(),
                SimRng::new(seed ^ ((i as u64 + 1) * 7)),
            ))
        });
        let ycsb_l = ycsb.clone();
        let pilaf_sat = point(&pilaf_servers, VerbPath::Nic, cfg.sat_clients, &mut |i| {
            Box::new(PilafAdapter::new(
                pilaf.open_client(),
                ycsb_l.clone(),
                SimRng::new(seed ^ ((i as u64 + 1) * 37)),
            ))
        });

        t.row(&[
            size.to_string(),
            f2(prism_lat.mean_us),
            f2(pilaf_lat.mean_us),
            mops(prism_sat.tput_ops),
            mops(pilaf_sat.tput_ops),
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
