//! Serializability checking for PRISM-TX (and FaRM, as a sanity
//! baseline): committed transactions carry version observations whose
//! dependency graph must be acyclic, plus whole-history invariants.

use std::sync::{Arc, Mutex};

use prism_tx::farm;
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_tx::{drive, run_rmw, TxOutcome, TxProtocol};

mod support;
use support::metrics_key;

const VALUE: u64 = 32;

fn enc(n: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE as usize];
    v[0..8].copy_from_slice(&n.to_le_bytes());
    v
}

fn dec(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[0..8].try_into().unwrap())
}

/// Each committed transaction records, per key, the counter value it
/// read and the value it wrote (read + 1). If the final counter equals
/// the number of committed increments and every read value was some
/// previous write, the history serializes as a simple chain.
fn counter_chain_is_gapless<P>(cluster: P::Cluster, open: fn(&P::Cluster) -> P)
where
    P: TxProtocol + 'static,
    P::Cluster: Send + Sync + 'static,
{
    let cluster = Arc::new(cluster);
    let observations: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let cluster = Arc::clone(&cluster);
            let observations = Arc::clone(&observations);
            std::thread::spawn(move || {
                let mut client = open(&cluster);
                for _ in 0..50 {
                    let (o, _) = run_rmw(
                        &*cluster,
                        &mut client,
                        &[5],
                        |_, vals| enc(dec(&vals[&5]) + 1),
                        100_000,
                    );
                    match o {
                        TxOutcome::Committed(vals) => {
                            observations.lock().unwrap().push(dec(&vals[&5]));
                        }
                        other => panic!("{other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // 200 committed increments: the observed read values must be exactly
    // 0..=199 in some order — any duplicate means two transactions read
    // the same version (a lost update); any gap means a phantom version.
    let mut obs = observations.lock().unwrap().clone();
    obs.sort_unstable();
    let expected: Vec<u64> = (0..200).collect();
    assert_eq!(obs, expected, "increment chain has gaps or duplicates");
    // And the final value is 200.
    let mut client = open(&cluster);
    let (op, step) = client.begin(vec![5]);
    match drive(&*cluster, &mut client, op, step, |_| vec![]) {
        TxOutcome::Committed(vals) => assert_eq!(dec(&vals[&5]), 200),
        o => panic!("{o:?}"),
    }
}

#[test]
fn prism_tx_counter_chain_is_gapless() {
    let cluster = TxCluster::new(2, &TxConfig::paper(8, VALUE));
    counter_chain_is_gapless(cluster, TxCluster::open_client);
}

/// The same gapless-counter property must hold for the FaRM baseline —
/// if it doesn't, figure comparisons would be comparing against a
/// broken implementation.
#[test]
fn farm_counter_chain_is_gapless() {
    let config = farm::FarmConfig {
        keys_per_shard: 8,
        value_len: VALUE,
    };
    counter_chain_is_gapless(
        farm::FarmCluster::new(2, &config),
        farm::FarmCluster::open_client,
    );
}

/// Snapshot consistency across keys: writers keep `a + b` constant;
/// read-only transactions must never observe a broken invariant.
#[test]
fn prism_tx_readers_see_consistent_snapshots() {
    let cluster = Arc::new(TxCluster::new(2, &TxConfig::paper(8, VALUE)));
    {
        let mut c = cluster.open_client();
        for (k, v) in [(0u64, 500u64), (1, 500)] {
            let (op, step) = c.begin(vec![]);
            assert!(matches!(
                drive(&*cluster, &mut c, op, step, |_| vec![(k, enc(v))]),
                TxOutcome::Committed(_)
            ));
        }
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = cluster.open_client();
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let delta = 1 + (i + t) % 7;
                    let _ = run_rmw(
                        &*cluster,
                        &mut client,
                        &[0, 1],
                        move |k, vals| {
                            let a = dec(&vals[&0]);
                            let b = dec(&vals[&1]);
                            let (na, nb) = if a >= delta {
                                (a - delta, b + delta)
                            } else {
                                (a, b)
                            };
                            enc(if k == 0 { na } else { nb })
                        },
                        1_000,
                    );
                    i += 1;
                }
            })
        })
        .collect();
    let mut client = cluster.open_client();
    let mut checked = 0;
    while checked < 300 {
        let (op, step) = client.begin(vec![0, 1]);
        match drive(&*cluster, &mut client, op, step, |_| vec![]) {
            TxOutcome::Committed(vals) => {
                let total = dec(&vals[&0]) + dec(&vals[&1]);
                assert_eq!(total, 1000, "reader saw a torn snapshot");
                checked += 1;
            }
            TxOutcome::Aborted => {}
            o => panic!("{o:?}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in writers {
        t.join().unwrap();
    }
}

/// Write-skew shape: two transactions each read both keys and write one.
/// Under serializability at most one of a conflicting pair commits on
/// stale reads; the invariant `a + b <= 10` (enforced in the write
/// logic from the values read) must hold at quiescence.
#[test]
fn prism_tx_prevents_write_skew() {
    let cluster = Arc::new(TxCluster::new(1, &TxConfig::paper(4, VALUE)));
    // a = b = 0 initially; each txn wants to set its key to 10 - (a+b),
    // keeping a + b <= 10 *if reads are consistent*. Write skew (both
    // reading 0,0 and both writing 10) would give a + b = 20.
    let threads: Vec<_> = (0..2u64)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let mut client = cluster.open_client();
                let my_key = t; // 0 or 1
                for _ in 0..50 {
                    let _ = run_rmw(
                        &*cluster,
                        &mut client,
                        &[0, 1],
                        move |k, vals| {
                            let a = dec(&vals[&0]);
                            let b = dec(&vals[&1]);
                            if k == my_key {
                                let headroom = 10u64.saturating_sub(a + b);
                                enc(dec(&vals[&k]).min(10) + headroom.min(1))
                            } else {
                                enc(dec(&vals[&k]))
                            }
                        },
                        10_000,
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut client = cluster.open_client();
    let (op, step) = client.begin(vec![0, 1]);
    match drive(&*cluster, &mut client, op, step, |_| vec![]) {
        TxOutcome::Committed(vals) => {
            let total = dec(&vals[&0]) + dec(&vals[&1]);
            assert!(total <= 10, "write skew: a + b = {total}");
        }
        o => panic!("{o:?}"),
    }
}

/// Tentpole acceptance: a seeded fault plan (message loss, duplication,
/// and a shard crash/restart window) injected under the closed-loop
/// simulation never panics a PRISM-TX client. Lost exec/prepare replies
/// surface as aborts (retried with backoff), lost commit replies as
/// counted indeterminate failures, and two runs under the same seed
/// produce identical metrics. Each run ends settled: whatever prepares
/// the faults left dangling, the lease takes back, and the pool keeps
/// its law once reclaimed.
#[test]
fn faulted_tx_runs_complete_and_metrics_are_deterministic() {
    use prism_harness::adapters::{batching_spares, PrismTxAdapter};
    use prism_harness::cluster::System;
    use prism_harness::netsim::{run_closed_loop, VerbPath};
    use prism_simnet::fault::FaultPlan;
    use prism_simnet::latency::CostModel;
    use prism_simnet::rng::SimRng;
    use prism_simnet::time::{SimDuration, SimTime};
    use prism_tx::prism_tx::TxConfig;
    use prism_workload::{KeyDist, TxnGen};

    let seed = prism_testkit::seed_or(13);
    let plan = FaultPlan::seeded(seed ^ 0x7A_B71C)
        .with_loss(0.02, 0.01)
        .with_timeout(SimDuration::micros(60))
        .with_crash(
            0,
            SimTime::from_nanos(1_500_000),
            SimTime::from_nanos(2_200_000),
        );
    let clients = 4;
    let run = || {
        let mut config = TxConfig::paper(64, VALUE);
        config.spare_buffers += batching_spares(clients);
        let cluster = Arc::new(TxCluster::new(1, &config));
        let r = run_closed_loop(
            &cluster.servers(),
            &CostModel::testbed(),
            VerbPath::Nic,
            clients,
            &mut |i| {
                Box::new(PrismTxAdapter::new(
                    cluster.open_client(),
                    TxnGen::new(
                        KeyDist::uniform(64),
                        1,
                        VALUE as usize,
                        SimRng::new(seed ^ ((i as u64 + 1) * 31)),
                    ),
                ))
            },
            SimDuration::millis(1),
            SimDuration::millis(4),
            seed,
            &plan,
        );
        support::assert_settled(&*cluster, "faulted tx");
        r
    };
    let a = run();
    let b = run();
    assert!(
        a.tput_ops > 0.0,
        "no transaction committed under faults: {a:?}"
    );
    assert!(
        a.drops > 0 && a.timeouts > 0 && a.crash_drops > 0,
        "fault plan did not bite: {a:?}"
    );
    assert_eq!(
        metrics_key(&a),
        metrics_key(&b),
        "same seed must reproduce identical fault metrics"
    );
}
