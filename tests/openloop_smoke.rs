//! Open-loop engine gate: the coordinated-omission regression and the
//! fixed-seed determinism smoke that `scripts/ci.sh` runs at two seeds.
//!
//! The coordinated-omission test is the reason the open-loop engine
//! exists: stall a server mid-window and the closed-loop driver's tail
//! barely moves (each blocked client simply stops *offering* the
//! requests whose latencies would have recorded the stall), while the
//! open-loop driver — whose arrival instants are fixed in advance and
//! whose latencies are measured from those intended instants — charges
//! the full stall to every request that arrived during it.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use prism_core::PrismServer;
use prism_harness::kv_exp::{self, KvExpConfig};
use prism_harness::netsim::{run_closed_loop, ProtoAdapter, RecoveryHooks, VerbPath};
use prism_harness::openloop::{
    run_open_loop, AdapterFactory, OpenLoopConfig, OpenLoopKnobs, OpenLoopResult,
};
use prism_rdma::region::AccessFlags;
use prism_simnet::fault::{CrashMode, CrashWindow, FaultPlan};
use prism_simnet::latency::CostModel;
use prism_simnet::time::{SimDuration, SimTime};
use prism_testkit::seed_or;
use prism_workload::ArrivalSpec;

mod support;
use support::{open_loop_key, RetryingRead};

/// The smoke seed, moved by `PRISM_TEST_SEED` as in the fault matrix and
/// chaos gate.
fn seed() -> u64 {
    seed_or(42)
}

fn stall_server() -> (Arc<PrismServer>, u64, u32) {
    let s = Arc::new(PrismServer::new(1 << 20));
    let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
    (s, addr, rkey.0)
}

/// A 400 µs fail-recover outage in the middle of a 2 ms measurement
/// window, with a short client timeout so blocked requests keep
/// retrying into the wall.
fn stall_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        timeout: SimDuration::micros(25),
        crashes: vec![CrashWindow {
            server: 0,
            from: SimTime::from_nanos(700_000),
            until: SimTime::from_nanos(1_100_000),
            mode: CrashMode::Recover,
        }],
        ..FaultPlan::default()
    }
}

const WARMUP: SimDuration = SimDuration::micros(200);
const MEASURE: SimDuration = SimDuration::millis(2);

/// The regression itself: same server, same stall, same retrying
/// adapter; the closed-loop p99 stays near the unloaded RTT while the
/// open-loop p99 is dominated by the stall. If this ratio collapses,
/// the engine has started measuring from operation start instead of
/// intended arrival (or arrivals have become coupled to service times)
/// — coordinated omission reintroduced.
#[test]
fn stalled_server_inflates_open_loop_p99_far_beyond_closed_loop() {
    let seed = seed();
    let model = CostModel::testbed();
    let faults = stall_plan(seed);

    let (s, addr, rkey) = stall_server();
    let closed = run_closed_loop(
        &[Arc::clone(&s)],
        &model,
        VerbPath::Nic,
        16,
        &mut |_| Box::new(RetryingRead { addr, rkey }),
        WARMUP,
        MEASURE,
        seed,
        &faults,
    );

    let (s, addr, rkey) = stall_server();
    let factory: AdapterFactory = Rc::new(RefCell::new(move |_i: usize| {
        Box::new(RetryingRead { addr, rkey }) as Box<dyn ProtoAdapter>
    }));
    let cfg = OpenLoopConfig {
        arrivals: ArrivalSpec::Poisson {
            rate_per_sec: 500_000.0,
        },
        logical_clients: 1_024,
        max_inflight: 0,
        actors: 4,
        warmup: WARMUP,
        measure: MEASURE,
        seed,
        faults,
    };
    let open = run_open_loop(
        &[s],
        &model,
        VerbPath::Nic,
        &cfg,
        factory,
        &RecoveryHooks::default(),
    );

    assert!(closed.p99_us > 0.0, "closed-loop run produced no samples");
    assert!(open.completed > 0, "open-loop run produced no samples");
    // ~20 % of the window's arrivals land inside the stall, so the
    // open-loop p99 is on the order of the 400 µs outage; the
    // closed-loop p99 sees at most 16 stall-spanning samples out of
    // hundreds and stays near the unloaded RTT.
    assert!(
        closed.p99_us < 100.0,
        "closed-loop p99 {} µs unexpectedly saw the stall",
        closed.p99_us
    );
    assert!(
        open.p99_us > 100.0,
        "open-loop p99 {} µs failed to record the stall",
        open.p99_us
    );
    assert!(
        open.p99_us > 10.0 * closed.p99_us,
        "open-loop p99 {} µs vs closed-loop {} µs: coordinated omission regression",
        open.p99_us,
        closed.p99_us
    );
}

/// Fixed-seed smoke over the real PRISM-KV system on `shards` servers
/// (seeded rendezvous routing, per-key client-side placement): nonzero
/// completions at every swept rate, and the whole sweep — every counter
/// and every quantile — replays bit-exactly, so shard routing, per-shard
/// preload, and cross-shard completion merging introduce no
/// nondeterminism. CI runs this at the default seed and again under
/// `PRISM_TEST_SEED=1806242025`.
fn assert_kv_sweep_replays(shards: usize) -> Vec<(f64, OpenLoopResult)> {
    let mut cfg = KvExpConfig::quick(1.0);
    cfg.seed ^= seed();
    let knobs = OpenLoopKnobs::quick();
    let (_t, a) = kv_exp::open_loop_sharded(&cfg, &knobs, shards);
    let (_t, b) = kv_exp::open_loop_sharded(&cfg, &knobs, shards);
    assert_eq!(
        a, b,
        "same seed must replay the sweep bit-exactly on {shards} shards"
    );
    for (rate, r) in &a {
        assert!(
            r.completed > 0,
            "no completions at {rate} ops/s on {shards} shards"
        );
    }
    a
}

#[test]
fn kv_open_loop_sweep_replays_bit_exactly() {
    let a = assert_kv_sweep_replays(1);
    // Golden row (default seed only), captured on the commit before the
    // two client actors were folded into one transport: the pristine-
    // fabric 500 kops/s point, every result field.
    if seed() == 42 {
        assert_eq!(
            open_loop_key(&a[1].1),
            [
                4,
                4096,
                934,
                0x411c_80e0_0000_0000,
                0x4016_2c5d_3c03_c580,
                0x4016_24dd_2f1a_9fbe,
                0x4016_a7ef_9db2_2d0e,
                0x4016_e978_d4fd_f3b6,
                0x4017_0312_6e97_8d50,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
            ],
            "the pristine open-loop sweep point diverged from the pre-transport golden schedule"
        );
    }
}

#[test]
fn sharded_kv_open_loop_sweep_replays_bit_exactly() {
    assert_kv_sweep_replays(4);
}

/// Trace-driven arrivals are deterministic by construction: a burst
/// trace replayed through the engine completes exactly the trace's
/// arrival count (no arrival lost to striping or slot recycling), twice
/// over.
#[test]
fn trace_replay_completes_every_arrival() {
    let (s, addr, rkey) = stall_server();
    let model = CostModel::testbed();
    // 300 arrivals: a 3 µs-spaced ramp, then a 100-wide instantaneous
    // burst (gap 0), then sparse stragglers — all inside the window.
    let mut gaps = vec![3_000u64; 100];
    gaps.extend(std::iter::repeat_n(0, 100));
    gaps.extend(std::iter::repeat_n(10_000, 100));
    let cfg = OpenLoopConfig {
        arrivals: ArrivalSpec::Trace { gaps },
        logical_clients: 64,
        max_inflight: 0,
        actors: 4,
        warmup: SimDuration::ZERO,
        measure: SimDuration::millis(5),
        seed: seed(),
        faults: FaultPlan::default(),
    };
    let factory: AdapterFactory = Rc::new(RefCell::new(move |_i: usize| {
        Box::new(RetryingRead { addr, rkey }) as Box<dyn ProtoAdapter>
    }));
    let a = run_open_loop(
        &[Arc::clone(&s)],
        &model,
        VerbPath::Nic,
        &cfg,
        Rc::clone(&factory),
        &RecoveryHooks::default(),
    );
    assert_eq!(a.completed, 300, "every trace arrival must complete");
    assert!(
        a.backlogged > 0,
        "the 100-wide burst must overflow 64 slots into the backlog"
    );
    let b = run_open_loop(
        &[s],
        &model,
        VerbPath::Nic,
        &cfg,
        factory,
        &RecoveryHooks::default(),
    );
    assert_eq!(a, b, "trace replay must be bit-exact");
}

/// The connection-recycling contract behind [`sweep_rates`]: one system
/// serves every swept rate. Each point's adapters open a connection per
/// live slot, and the sweep hangs all of them up between points
/// ([`prism_core::PrismServer::close_all_connections`]), so the
/// recycled slots absorb the next point's opens. Three points × 1 500
/// connections = 4 500 opens against a 4 096-slot scratch table — the
/// sweep only completes because slots are freed and reused; before
/// recycling this forced a cold-started system per point.
#[test]
fn rate_sweep_reuses_one_system_through_recycled_connections() {
    use prism_harness::openloop::sweep_rates;
    let (s, addr, rkey) = stall_server();
    let knobs = OpenLoopKnobs {
        rates_per_sec: vec![1e5, 2e5, 3e5],
        logical_clients: 1_500,
        max_inflight: 0,
        actors: 4,
        warmup: SimDuration::micros(100),
        measure: SimDuration::millis(1),
    };
    let server = Arc::clone(&s);
    let factory: AdapterFactory = Rc::new(RefCell::new(move |_i: usize| {
        // One on-NIC scratch slot per live adapter slot, held until the
        // sweep hangs up between points.
        let _conn = server.open_connection();
        Box::new(RetryingRead { addr, rkey }) as Box<dyn ProtoAdapter>
    }));
    let results = sweep_rates(&[Arc::clone(&s)], &knobs, seed(), factory);
    assert_eq!(results.len(), 3, "every swept rate must produce a point");
    for (rate, r) in &results {
        assert!(r.completed > 0, "no completions at {rate} ops/s");
    }
    assert_eq!(
        s.connections_open(),
        0,
        "the sweep must hang up every connection it opened"
    );
}
