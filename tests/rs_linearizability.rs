//! Linearizability checking for PRISM-RS.
//!
//! Concurrent clients run tagged operations against one register while a
//! recorder collects `(invocation, response, value)` intervals, which
//! `chaos::check_history` (the chaos gates' Wing–Gong checker) searches
//! for a legal linearization. Also checks crash/recovery schedules and
//! quorum-intersection invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prism_harness::chaos::{check_history, HistKind, HistOp};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_rs::{drive, RsOutcome, RsProtocol};
use prism_simnet::time::SimTime;

const BLOCK: u64 = 64;

/// Runs concurrent clients against one PRISM-RS register and verifies
/// the collected history linearizes.
#[test]
fn concurrent_history_is_linearizable() {
    for seed in 0..4u64 {
        let cluster = Arc::new(RsCluster::new(3, &RsConfig::paper(4, BLOCK)));
        let clock = Arc::new(AtomicU64::new(1));
        let history = Arc::new(Mutex::new(Vec::new()));
        let threads: Vec<_> = (0..3u8)
            .map(|t| {
                let cluster = Arc::clone(&cluster);
                let clock = Arc::clone(&clock);
                let history = Arc::clone(&history);
                std::thread::spawn(move || {
                    let mut client = cluster.open_client();
                    for i in 0..8u8 {
                        let write = (t + i + seed as u8).is_multiple_of(2);
                        let start = clock.fetch_add(1, Ordering::SeqCst);
                        let kind = if write {
                            let v = t * 10 + i + 1;
                            let (op, step) = client.put(0, vec![v; BLOCK as usize]);
                            assert_eq!(
                                drive(&*cluster, &mut client, op, step, &[false; 3]),
                                RsOutcome::Written
                            );
                            HistKind::Put { nonce: v.into() }
                        } else {
                            let (op, step) = client.get(0);
                            match drive(&*cluster, &mut client, op, step, &[false; 3]) {
                                RsOutcome::Value(v) => HistKind::Get { nonce: v[0].into() },
                                o => panic!("{o:?}"),
                            }
                        };
                        let end = clock.fetch_add(1, Ordering::SeqCst);
                        history.lock().unwrap().push(HistOp {
                            client: t.into(),
                            key: 0,
                            invoke: SimTime::from_nanos(start),
                            complete: Some(SimTime::from_nanos(end)),
                            kind,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let history = history.lock().unwrap().clone();
        check_history(&history).unwrap_or_else(|e| panic!("seed {seed}: {e}: {history:?}"));
    }
}

/// Crash/recovery schedule: values survive any single-replica failure
/// pattern across operations (quorum intersection).
#[test]
fn values_survive_rolling_single_failures() {
    let cluster = RsCluster::new(3, &RsConfig::paper(4, BLOCK));
    let mut client = cluster.open_client();
    let mut crashed;
    let mut last = vec![0u8; BLOCK as usize];
    for round in 0..12u8 {
        // Rotate which replica is down.
        crashed = [false; 3];
        crashed[(round % 3) as usize] = true;
        // Read must return the last completed write.
        let (op, step) = client.get(1);
        match drive(&cluster, &mut client, op, step, &crashed) {
            RsOutcome::Value(v) => assert_eq!(v, last, "round {round}"),
            o => panic!("round {round}: {o:?}"),
        }
        // Write a new value through the current majority.
        last = vec![round + 1; BLOCK as usize];
        let (op, step) = client.put(1, last.clone());
        assert_eq!(
            drive(&cluster, &mut client, op, step, &crashed),
            RsOutcome::Written,
            "round {round}"
        );
    }
}

/// ABD invariant: after any completed write, the tag at a majority of
/// replicas is at least the writer's tag.
#[test]
fn completed_writes_reach_a_majority() {
    let cluster = RsCluster::new(5, &RsConfig::paper(2, BLOCK));
    let mut client = cluster.open_client();
    for i in 1..=10u64 {
        let (op, step) = client.put(0, vec![i as u8; BLOCK as usize]);
        assert_eq!(
            drive(&cluster, &mut client, op, step, &[false; 5]),
            RsOutcome::Written
        );
        let with_tag = (0..5)
            .filter(|&r| {
                let v = cluster.replica(r).view().clone();
                let meta = cluster
                    .replica(r)
                    .server()
                    .arena()
                    .read(v.meta(0), 16)
                    .unwrap();
                prism_rs::Tag::from_bytes(&meta[..8]).ts >= i
            })
            .count();
        assert!(with_tag >= 3, "write {i} only reached {with_tag} replicas");
    }
}

/// Tentpole acceptance: a seeded fault plan (message loss, duplication,
/// and a replica crash/restart window) injected under the closed-loop
/// simulation never panics a PRISM-RS client. Every operation either
/// completes through quorum retries or is surfaced as a counted
/// failure, and the run is bit-deterministic: two runs under the same
/// seed produce identical metrics. Each run's pools keep their law once
/// reclaimed.
#[test]
fn faulted_rs_runs_complete_and_metrics_are_deterministic() {
    use prism_harness::adapters::{batching_spares, PrismRsAdapter};
    use prism_harness::cluster::System;
    use prism_harness::netsim::{run_closed_loop, VerbPath};
    use prism_simnet::fault::FaultPlan;
    use prism_simnet::latency::CostModel;
    use prism_simnet::time::{SimDuration, SimTime};
    use prism_workload::KeyDist;

    let seed = prism_testkit::seed_or(9);
    let plan = FaultPlan::seeded(seed ^ 0xFA_B71C)
        .with_loss(0.02, 0.01)
        .with_timeout(SimDuration::micros(60))
        .with_crash(
            1,
            SimTime::from_nanos(1_500_000),
            SimTime::from_nanos(2_200_000),
        );
    let clients = 4;
    let run = || {
        let mut config = RsConfig::paper(8, BLOCK);
        config.spare_buffers += batching_spares(clients);
        let cluster = RsCluster::new(3, &config);
        let r = run_closed_loop(
            &cluster.servers(),
            &CostModel::testbed(),
            VerbPath::Nic,
            clients,
            &mut |_| {
                Box::new(PrismRsAdapter::new(
                    cluster.open_client(),
                    KeyDist::uniform(8),
                    BLOCK as usize,
                    0.5,
                ))
            },
            SimDuration::millis(1),
            SimDuration::millis(4),
            seed,
            &plan,
        );
        cluster.reclaim();
        assert_eq!(cluster.free_deficit(), 0, "a reclaimed pool keeps its law");
        r
    };
    let a = run();
    let b = run();
    assert!(
        a.tput_ops > 0.0,
        "no operation completed under faults: {a:?}"
    );
    assert!(
        a.drops > 0 && a.timeouts > 0 && a.crash_drops > 0,
        "fault plan did not bite: {a:?}"
    );
    assert_eq!(a.tput_ops.to_bits(), b.tput_ops.to_bits());
    assert_eq!(a.mean_us.to_bits(), b.mean_us.to_bits());
    assert_eq!(a.p99_us.to_bits(), b.p99_us.to_bits());
    assert_eq!(
        (
            a.failed,
            a.backoffs,
            a.drops,
            a.dups,
            a.timeouts,
            a.retries,
            a.crash_drops
        ),
        (
            b.failed,
            b.backoffs,
            b.drops,
            b.dups,
            b.timeouts,
            b.retries,
            b.crash_drops
        ),
        "same seed must reproduce identical fault metrics"
    );
}
