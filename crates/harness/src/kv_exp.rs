//! Figures 3 and 4: PRISM-KV vs Pilaf throughput-latency curves.
//!
//! Figure 3 is YCSB-C (100 % reads); Figure 4 is YCSB-A (50/50). Both
//! use uniform key popularity, 8-byte keys, 512-byte values, and a
//! collisionless hash (§6.2). Three systems run: PRISM-KV (chains on
//! the software data plane), Pilaf over hardware RDMA (one-sided READs
//! on the NIC, PUT RPCs on the CPU), and Pilaf over software RDMA
//! (READs also executed by dispatch cores).

use std::sync::Arc;

use prism_kv::hash::key_bytes;
use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_kv::{drive, KvProtocol};
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;
use prism_workload::ycsb::{value_bytes, YcsbConfig};
use prism_workload::KeyDist;

use crate::adapters::{batching_spares, PilafAdapter, PrismKvAdapter};
use crate::cluster::{KvCluster, ShardedStore};
use crate::figure::{self, Axis, Row};
use crate::netsim::VerbPath;
use crate::openloop::{OpenLoopKnobs, OpenLoopResult};
use crate::table::Table;

/// Value bytes (512 in the paper).
pub const VALUE_LEN: usize = 512;

/// Experiment parameters (defaults mirror §6.2 at reduced key count;
/// see EXPERIMENTS.md for the scaling note).
#[derive(Debug, Clone)]
pub struct KvExpConfig {
    /// Key count (the paper uses 8 M; we default lower to fit RAM).
    pub n_keys: u64,
    /// Fraction of GETs (1.0 = YCSB-C, 0.5 = YCSB-A).
    pub read_fraction: f64,
    /// Closed-loop client counts to sweep.
    pub clients: Vec<usize>,
    /// Warm-up time per point.
    pub warmup: SimDuration,
    /// Measurement time per point.
    pub measure: SimDuration,
    /// Run seed.
    pub seed: u64,
}

impl KvExpConfig {
    /// Full-scale run (several seconds of wall clock in release mode).
    pub fn paper(read_fraction: f64) -> Self {
        KvExpConfig {
            n_keys: 262_144,
            read_fraction,
            clients: vec![1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256],
            warmup: SimDuration::millis(2),
            measure: SimDuration::millis(20),
            seed: 42,
        }
    }

    /// Reduced run for smoke tests.
    pub fn quick(read_fraction: f64) -> Self {
        KvExpConfig {
            n_keys: 1_024,
            read_fraction,
            clients: vec![1, 16, 64],
            warmup: SimDuration::micros(500),
            measure: crate::smoke::measure_window(4_000),
            seed: 42,
        }
    }

    /// The YCSB mix over uniform keys.
    fn ycsb(&self) -> YcsbConfig {
        YcsbConfig {
            dist: KeyDist::uniform(self.n_keys),
            read_fraction: self.read_fraction,
            value_len: VALUE_LEN,
        }
    }
}

/// Preloads keys `0..n_keys` with `value_len`-byte values so GETs
/// always hit (the YCSB load phase), server-side through
/// [`PrismKvServer::load`].
///
/// The load shares with a PUT the entry encoding, the version counter
/// of the client it opens, and the install-record writer the durable
/// tap uses; with replay it shares the install step. It no longer runs
/// the engine or the chain observer. The store comes out byte-identical
/// to one loaded by a PUT per key — arena, free lists and disk log — as
/// the golden load image and the PUT-per-key oracle property in
/// `tests/kv_integration.rs` check.
///
/// # Panics
///
/// Panics unless every key's slot is empty and every entry fits a size
/// class with a buffer to spare: `server` must be fresh, under the
/// collisionless layout of [`PrismKvConfig::paper`] with room for
/// `n_keys` keys. A refused key is a caller error, not a fallback.
pub fn preload_prism(server: &PrismKvServer, n_keys: u64, value_len: usize) {
    let entries = (0..n_keys).map(|k| (key_bytes(k), value_bytes(k, 0, value_len)));
    if let Err(e) = server.load(entries) {
        panic!("preload_prism: {e}");
    }
}

/// Preloads a Pilaf store the same way.
pub fn preload_pilaf(server: &PilafServer, n_keys: u64, value_len: usize) {
    let client = server.open_client();
    for k in 0..n_keys {
        let (mut op, req) = client.start(&key_bytes(k), Some(&value_bytes(k, 0, value_len)));
        drive(server.server(), req, |r| client.on_reply(&mut op, r));
    }
}

/// PRISM-KV's row: client `i` draws `ycsb` operations from
/// `rng ^ (i+1)*stride`.
pub(crate) fn prism_row<'a>(
    prism: &'a PrismKvServer,
    ycsb: YcsbConfig,
    (rng, stride): (u64, u64),
    seed: impl Fn(usize, f64) -> u64 + 'a,
) -> Row<'a> {
    Row::new("PRISM-KV", VerbPath::Nic, prism, seed, move |i, _, _| {
        let rng = SimRng::new(rng ^ ((i as u64 + 1) * stride));
        Box::new(PrismKvAdapter::new(prism.open_client(), ycsb.clone(), rng))
    })
}

/// A Pilaf row: client `i` draws `ycsb` operations from
/// `rng ^ (i+1)*stride`.
pub(crate) fn pilaf_row<'a>(
    pilaf: &'a PilafServer,
    (label, path): (&'static str, VerbPath),
    ycsb: YcsbConfig,
    (rng, stride): (u64, u64),
    seed: impl Fn(usize, f64) -> u64 + 'a,
) -> Row<'a> {
    Row::new(label, path, pilaf, seed, move |i, _, _| {
        let rng = SimRng::new(rng ^ ((i as u64 + 1) * stride));
        Box::new(PilafAdapter::new(pilaf.open_client(), ycsb.clone(), rng))
    })
}

/// Runs the full experiment; returns the results table and the peak
/// throughput per system (PRISM-KV, Pilaf, Pilaf-sw).
pub fn run(cfg: &KvExpConfig) -> (Table, Vec<f64>) {
    let title = format!(
        "Figure {}: PRISM-KV vs Pilaf, {:.0}% reads, uniform ({} keys x {VALUE_LEN} B)",
        if cfg.read_fraction >= 1.0 { "3" } else { "4" },
        cfg.read_fraction * 100.0,
        cfg.n_keys,
    );
    // PRISM-KV.
    let max_clients = cfg.clients.iter().copied().max().unwrap_or(0);
    let mut prism_cfg = PrismKvConfig::paper(cfg.n_keys, VALUE_LEN);
    for class in &mut prism_cfg.classes {
        class.count += batching_spares(max_clients);
    }
    let prism = PrismKvServer::new(&prism_cfg);
    preload_prism(&prism, cfg.n_keys, VALUE_LEN);
    // Pilaf over hardware RDMA and software RDMA.
    let pilaf = PilafServer::new(&PilafConfig::paper(cfg.n_keys, VALUE_LEN));
    preload_pilaf(&pilaf, cfg.n_keys, VALUE_LEN);

    let seed = |n: usize, _| cfg.seed ^ n as u64;
    let on_pilaf = |system| pilaf_row(&pilaf, system, cfg.ycsb(), (cfg.seed, 104_729), seed);
    let rows = [
        prism_row(&prism, cfg.ycsb(), (cfg.seed, 7919), seed),
        on_pilaf(("Pilaf", VerbPath::Nic)),
        on_pilaf(("Pilaf (software RDMA)", VerbPath::Cpu)),
    ];
    let x = Axis::Clients(&cfg.clients);
    figure::curves(&title, "ops", x, &rows, cfg.warmup, cfg.measure)
}

/// Open-loop latency-under-load sweep for PRISM-KV over an N-shard
/// [`KvCluster`]: Poisson arrivals at each offered rate over
/// `knobs.logical_clients` multiplexed logical clients, recording the
/// coordinated-omission-free latency distribution. Complements the
/// closed-loop throughput-latency curves of Figures 3–4 with the
/// question they cannot answer: what latency does a *fixed offered
/// load* observe as it approaches and passes the saturation point?
///
/// Every adapter slot routes per-key through the cluster's seeded shard
/// map, so each logical client's stream spreads across all N links and
/// dispatch pools; per-server connection tables still see at most
/// `knobs.live_slots()` connections (each live slot opens one
/// connection per shard), so the on-NIC budget holds at any shard count
/// without touching the knobs. One shard is the single-server sweep,
/// and its title says so.
pub fn open_loop_sharded(
    cfg: &KvExpConfig,
    knobs: &OpenLoopKnobs,
    shards: usize,
) -> (Table, Vec<(f64, OpenLoopResult)>) {
    let mut prism_cfg = PrismKvConfig::paper(cfg.n_keys, VALUE_LEN);
    // Provision for the slots that can be live at once — bounded by the
    // in-flight cap, not the logical population, so a 10⁵-logical-client
    // run does not preallocate for clients that are only ever
    // backlogged. Free batching is per (live slot, shard), so each shard
    // provisions for every slot.
    for class in &mut prism_cfg.classes {
        class.count += batching_spares(knobs.live_slots());
    }
    // One cluster for the whole sweep, preloaded with each key on its
    // home shard only; points reopen recycled connection slots (see
    // `sweep_rates`).
    let cluster = Arc::new(KvCluster::new(shards, &prism_cfg, cfg.seed));
    cluster.preload(cfg.n_keys, VALUE_LEN);
    let (clients, map) = (Arc::clone(&cluster), cluster.map());
    let (ycsb, seed) = (cfg.ycsb(), cfg.seed);
    let on = if shards == 1 {
        String::new()
    } else {
        format!("{shards} shards, ")
    };
    let title = format!(
        "Open-loop PRISM-KV latency under load ({on}{} logical clients on {} aggregates, {:.0}% reads)",
        knobs.logical_clients,
        knobs.actors,
        cfg.read_fraction * 100.0
    );
    figure::open_loop(&title, "ops", &*cluster, knobs, seed, move |i| {
        Box::new(PrismKvAdapter::sharded(
            clients.open_clients(),
            map.clone(),
            ycsb.clone(),
            SimRng::new(seed ^ ((i as u64 + 1) * 7919)),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_shape_prism_beats_pilaf_on_reads() {
        let cfg = KvExpConfig::quick(1.0);
        let (_t, peaks) = run(&cfg);
        // Single-client latency comparison happens inside sweep results;
        // here we assert the throughput ordering the paper reports:
        // PRISM-KV > Pilaf-HW > Pilaf-SW at saturation (Figure 3).
        assert!(
            peaks[0] > peaks[1],
            "PRISM {} vs Pilaf {}",
            peaks[0],
            peaks[1]
        );
        assert!(peaks[1] > peaks[2], "Pilaf HW vs SW");
    }

    #[test]
    fn figure3_latency_ordering_at_low_load() {
        // One client: PRISM GET (1 indirect read) must beat Pilaf
        // (2 reads + CRC) — the paper's "75% of Pilaf" claim.
        let mut cfg = KvExpConfig::quick(1.0);
        cfg.clients = vec![1];
        let (t, _) = run(&cfg);
        let csv = t.to_csv();
        let mut lat = std::collections::HashMap::new();
        for line in csv.lines().skip(1) {
            let c: Vec<&str> = line.split(',').collect();
            lat.insert(c[0].to_string(), c[3].parse::<f64>().unwrap());
        }
        let prism = lat["PRISM-KV"];
        let pilaf = lat["Pilaf"];
        assert!(prism < pilaf, "PRISM {prism} vs Pilaf {pilaf}");
        let ratio = prism / pilaf;
        assert!(
            (0.5..0.95).contains(&ratio),
            "PRISM/Pilaf latency ratio {ratio} (paper: ~0.75)"
        );
    }

    #[test]
    fn open_loop_kv_tracks_offered_load_when_unsaturated() {
        let cfg = KvExpConfig::quick(1.0);
        let knobs = OpenLoopKnobs::quick();
        let (_t, results) = open_loop_sharded(&cfg, &knobs, 1);
        assert_eq!(results.len(), knobs.rates_per_sec.len());
        for (rate, r) in &results {
            assert!(r.completed > 0, "no completions at {rate} ops/s");
            assert!(r.mean_us > 0.0 && r.p99_us >= r.p50_us);
            // Below saturation an open-loop system completes what is
            // offered: delivered throughput within ±40 % of the rate
            // (Poisson noise over a short window is the slack).
            let ratio = r.tput_ops / rate;
            assert!(
                (0.6..1.4).contains(&ratio),
                "offered {rate} vs delivered {} (ratio {ratio})",
                r.tput_ops
            );
        }
    }
}
