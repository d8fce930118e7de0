//! What the benchmark is: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics with the
//! end-to-end metric each is predicted to move. `BENCHMARK.json` at the
//! repo root states the same contract for the driver; a test keeps the
//! two in step.

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LiveKvYcsbA,
    SimTxClosed,
    SimKvOpen1m,
    SimRsChaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LiveKvYcsbA,
        Workload::SimTxClosed,
        Workload::SimKvOpen1m,
        Workload::SimRsChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveKvYcsbA => "live_kv_ycsb_a",
            Workload::SimTxClosed => "sim_tx_closed",
            Workload::SimKvOpen1m => "sim_kv_open_1m",
            Workload::SimRsChaos => "sim_rs_chaos",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, with its frozen sizes (the `why` of
    /// `BENCHMARK.json`; the README has the long form).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LiveKvYcsbA => {
                "live mode, no simulator: one thread, YCSB-A Zipf 0.99 over 262144 keys x 512 B \
                 through the framed loopback, 200000 ops per fresh store; loads rdma/core/wire/kv/store"
            }
            Workload::SimTxClosed => {
                "closed loop, pristine fabric: 64 clients, YCSB-T RMW Zipf 0.8 over 262144 keys, \
                 2+50 ms simulated per fresh cluster; loads ClientActor/adapters/tx/DES, bypasses faults"
            }
            Workload::SimKvOpen1m => {
                "open loop: 10^6 logical clients on 16 aggregates, uniform GETs, Poisson 4/6/8/10 Mops \
                 x 50 ms on one 262144-key store; loads OpenLoopActor/arrivals/timer wheel, set-up loads store"
            }
            Workload::SimRsChaos => {
                "gate-scale adversity: 50 seeded episodes per rep of the rs_chaos gate (crashes, loss, flips, \
                 disk tear+rot), each checked linearizable; loads fault scans/retry/replay/resync/checker"
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured on untraced runs, on every workload,
/// on the host clock.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "wall seconds to build a fresh system up to its first timed op \
                  (servers, preload, connections, warm-up); median over the run's set-ups",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "completed application ops (sim workloads: simulated ops) per wall second \
                  of the timed work",
    },
    EndToEnd {
        name: "cpu_ns_per_op",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        meaning: "utime+stime from /proc/self/stat over the timed work, per completed op",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        meaning: "VmHWM of the process at exit",
    },
];

/// A per-layer metric: from the traced run, the counters at the layer
/// boundaries, or the simulated clock. Unbounded.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The prediction: which end-to-end metric it should move, where.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const LIVE_OPS: &str = "ops_per_s, cpu_ns_per_op on live_kv_ycsb_a";
const LIVE_ONLY: &str =
    "ops_per_s on live_kv_ycsb_a; none on the pristine sim_* (their path never encodes)";
const CORE: &str =
    "ops_per_s on live_kv_ycsb_a; at most its ~10 % share of ops_per_s on sim_kv_open_1m";
const RDMA: &str = "via core.execute_* -> ops_per_s on live_kv_ycsb_a";
const STORE: &str = "ops_per_s, peak_rss_mb on live_kv_ycsb_a; setup_s on sim_kv_open_1m; \
                     ops_per_s on sim_rs_chaos; none on sim_tx_closed";
const DES: &str =
    "ops_per_s, cpu_ns_per_op on the three sim_* in proportion to des.kernel_share; none on live";
const SIMNET_ALL: &str = "ops_per_s on all sim_*";
const ACTOR: &str = "ops_per_s on the sim_* workload whose actor it is; a change to one client \
                     transport moves one of sim_tx_closed / sim_kv_open_1m, not the other";
const PROTO: &str = "ops_per_s on the sim_* workload running that protocol (tx / kv / rs)";
const TRANSPORT: &str = "sim.mean_us, sim.p99_us and the failed count of its sim_* workload";
const RECOVERY: &str = "failed count and sim.tput_mops on sim_rs_chaos";
const SIM_CLOCK: &str =
    "exact for a seed: a host-only change leaves it identical on every sim_* workload";

pub const PER_LAYER: &[PerLayer] = &[
    lower(
        "workload.gen_ns_per_op",
        "ns",
        "ops_per_s on live_kv_ycsb_a (small share)",
    ),
    lower("kv.get_ns_p50", "ns", LIVE_OPS),
    lower("kv.put_ns_p50", "ns", LIVE_OPS),
    lower("kv.get_ns_p99", "ns", LIVE_OPS),
    lower("kv.put_ns_p99", "ns", LIVE_OPS),
    lower("kv.put_cost_growth", "ratio", LIVE_OPS),
    lower("kv.get_build_ns", "ns", LIVE_OPS),
    lower("kv.get_on_reply_ns", "ns", LIVE_OPS),
    lower("kv.put_build_ns", "ns", LIVE_OPS),
    lower("kv.put_on_reply_ns", "ns", LIVE_OPS),
    lower("kv.round_trips_per_get", "count", LIVE_OPS),
    lower("kv.round_trips_per_put", "count", LIVE_OPS),
    lower("kv.background_reqs_per_put", "count", LIVE_OPS),
    lower("wire.req_encode_ns", "ns", LIVE_ONLY),
    lower("wire.req_decode_ns", "ns", LIVE_ONLY),
    lower("wire.reply_encode_ns", "ns", LIVE_ONLY),
    lower("wire.reply_decode_ns", "ns", LIVE_ONLY),
    lower("wire.frame_bytes_per_op", "B", LIVE_ONLY),
    lower("core.execute_ns_get_req", "ns", CORE),
    lower("core.execute_ns_put_req", "ns", CORE),
    lower("core.chain_ops_per_req", "count", CORE),
    lower("core.requests_per_op", "count", CORE),
    lower("rdma.read_512_ns", "ns", RDMA),
    lower("rdma.write_512_ns", "ns", RDMA),
    lower("rdma.cas64_ns", "ns", RDMA),
    lower("store.append_barrier_ns", "ns", STORE),
    lower("store.log_bytes_per_user_byte", "ratio", STORE),
    lower("store.segments", "count", STORE),
    lower("store.replay_s", "s", STORE),
    higher("store.replayed_records", "count", STORE),
    lower("des.events", "count", DES),
    lower("des.events_per_op", "count", DES),
    higher("des.events_per_s", "1/s", DES),
    lower("des.kernel_ns_per_event", "ns", DES),
    lower("des.kernel_share", "ratio", DES),
    lower("simnet.metrics_add_ns", "ns", SIMNET_ALL),
    lower("simnet.hist_record_ns", "ns", SIMNET_ALL),
    lower("simnet.fault_query_ns_noop", "ns", SIMNET_ALL),
    lower(
        "simnet.fault_query_ns_chaos",
        "ns",
        "ops_per_s on sim_rs_chaos only",
    ),
    lower(
        "simnet.fault_plan_clone_ns",
        "ns",
        "setup_s and per-episode build on sim_rs_chaos (one clone per actor)",
    ),
    lower("harness.server_actor_ns_per_msg", "ns", ACTOR),
    lower("harness.server_actor_share", "ratio", ACTOR),
    lower("harness.client_actor_ns_per_msg", "ns", ACTOR),
    lower("harness.client_actor_share", "ratio", ACTOR),
    lower(
        "harness.check_history_ns_per_op",
        "ns",
        "ops_per_s on sim_rs_chaos",
    ),
    lower(
        "harness.check_history_share",
        "ratio",
        "ops_per_s on sim_rs_chaos",
    ),
    lower(
        "harness.episode_build_share",
        "ratio",
        "ops_per_s on sim_rs_chaos",
    ),
    higher("harness.episodes_per_s", "1/s", "ops_per_s on sim_rs_chaos"),
    lower("proto.adapter_ns_per_call", "ns", PROTO),
    lower("proto.adapter_share", "ratio", PROTO),
    lower("proto.calls_per_op", "count", PROTO),
    lower("proto.outbound_per_op", "count", PROTO),
    lower("transport.timeouts_per_op", "count", TRANSPORT),
    lower("transport.retries_per_op", "count", TRANSPORT),
    lower("transport.backoffs_per_op", "count", TRANSPORT),
    lower("transport.giveups", "count", TRANSPORT),
    lower("transport.backlogged", "count", TRANSPORT),
    lower("transport.stale_harvested", "count", TRANSPORT),
    lower("transport.busy_nacks", "count", TRANSPORT),
    higher("recovery.restarts", "count", RECOVERY),
    higher("recovery.rejoins", "count", RECOVERY),
    higher("recovery.replayed", "count", RECOVERY),
    lower("recovery.delta_resynced", "count", RECOVERY),
    higher("recovery.corruptions_detected", "count", RECOVERY),
    higher("sim.tput_mops", "Mops", SIM_CLOCK),
    lower("sim.mean_us", "us", SIM_CLOCK),
    lower("sim.p99_us", "us", SIM_CLOCK),
    higher("sim.rate_at_slo_mops", "Mops", SIM_CLOCK),
    lower("sim.fingerprint", "count", SIM_CLOCK),
    lower(
        "trace.overhead_frac",
        "ratio",
        "none: the cost of the traced run itself",
    ),
    lower(
        "trace.residual_frac",
        "ratio",
        "none: the share of the timed wall no span covers",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is hand-written for the driver; this keeps it
    /// equal to the registry the program prints from.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Value::Str("perf".into())]);

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, entry) in Workload::ALL.iter().zip(workloads) {
            assert_eq!(entry.members().unwrap().len(), 2);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name()));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why()));
        }

        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, entry) in END_TO_END.iter().zip(e2e) {
            assert_eq!(entry.members().unwrap().len(), 4);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(entry.get("better").unwrap().as_str(), Some(m.better.name()));
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(m.bound));
        }

        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, entry) in PER_LAYER.iter().zip(layers) {
            assert_eq!(entry.members().unwrap().len(), 3);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(entry.get("better").unwrap().as_str(), Some(m.better.name()));
        }
    }
}
