//! Chaos linearizability gate: what a gate run is ([`Scenario`]), the
//! history recorder, the gates' workload, and the invariants a run is
//! held to — a bounded Wing–Gong checker and the owner audit.
//!
//! A [`Scenario`] is data: a topology, a client count and write mix, a
//! fault plan (seeded crash/partition/loss schedule, see
//! [`prism_simnet::fault::FaultPlan::chaos`]), a window, and optionally
//! a live reshard. [`Scenario::run`] stands the system up, takes its
//! recovery hooks from it ([`RecoveryHooks::over`]), and drives the real
//! protocol stacks through the DES — the same [`KvDriver`] and
//! [`RsDriver`] the figures run — while a [`Recorder`] appends every
//! operation's invocation time, completion time, and observed/written
//! value to a shared history. The [`Outcome`] hands back the counters,
//! the history and the system; [`check_history`] verifies the history is
//! linearizable per register: there exists a total order of operations,
//! consistent with real-time precedence, under which every read
//! returns the latest written value.
//!
//! Values are reduced to 64-bit nonces: each write stamps a globally
//! unique nonce into the first eight bytes of its value ([`NonceOps`]),
//! so a read's observation identifies exactly one write (nonce 0 is the
//! initial, never-written state). Operations cut short by client
//! crashes, give-ups, or the end of the run are *uncertain*: an
//! unfinished read observed nothing and is discarded, while an
//! unfinished write may or may not have taken effect, so the checker is
//! free to place it anywhere after its invocation — or nowhere at all.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use prism_core::integrity::IntegrityStats;
use prism_kv::prism_kv::{PrismKvClient, PrismKvConfig};
use prism_rs::prism_rs::{RsClient, RsConfig};
use prism_simnet::fault::{ChaosSpec, FaultPlan, TailPolicy};
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};

use crate::adapters::{KvDriver, LogicalOp, OpObserver, OpSource, RsDriver};
use crate::cluster::{KvCluster, MigrateError, RsShards, ShardMap, System};
use crate::netsim::{run_closed_loop_with, ProtoAdapter, RecoveryHooks, RunResult, VerbPath};

/// What one recorded operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// A read that observed `nonce` (0 = the initial value).
    Get {
        /// The nonce extracted from the value read.
        nonce: u64,
    },
    /// A write of `nonce`.
    Put {
        /// The nonce stamped into the value written.
        nonce: u64,
    },
}

/// One operation in a chaos history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistOp {
    /// Index of the invoking client.
    pub client: usize,
    /// The register operated on (block or key id).
    pub key: u64,
    /// Virtual time of the invocation.
    pub invoke: SimTime,
    /// Virtual time of the completion; `None` for an operation the
    /// client abandoned (crash, give-up, or run end) whose effect is
    /// therefore uncertain.
    pub complete: Option<SimTime>,
    /// What the operation did.
    pub kind: HistKind,
}

/// Shared sink the recorders append to.
pub type History = Arc<Mutex<Vec<HistOp>>>;

/// A unique write nonce: client in the high bits, a per-client counter
/// below, never 0 (0 is the initial register value).
fn nonce(client: usize, ctr: u64) -> u64 {
    ((client as u64 + 1) << 40) | ctr
}

/// A value of `len` bytes (at least eight) carrying `nonce` up front.
pub(crate) fn stamp(len: usize, nonce: u64) -> Vec<u8> {
    let mut v = vec![0u8; len.max(8)];
    v[..8].copy_from_slice(&nonce.to_le_bytes());
    v
}

fn read_nonce(value: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = value.len().min(8);
    b[..n].copy_from_slice(&value[..n]);
    u64::from_le_bytes(b)
}

/// The gates' workload: a uniform register, a write with probability
/// `write_fraction` — two draws on the client actor's stream — and each
/// write's value stamped with the client's next nonce (a counter, not a
/// draw).
pub struct NonceOps {
    client: usize,
    registers: u64,
    value_len: usize,
    write_fraction: f64,
    writes: u64,
}

impl NonceOps {
    /// The workload of client `client` over `registers` keys or blocks.
    pub fn new(client: usize, registers: u64, value_len: usize, write_fraction: f64) -> Self {
        NonceOps {
            client,
            registers,
            value_len,
            write_fraction,
            writes: 0,
        }
    }
}

impl OpSource for NonceOps {
    fn draw(&mut self, rng: &mut SimRng) -> LogicalOp {
        let key = rng.gen_range(self.registers);
        let value = rng.gen_bool(self.write_fraction).then(|| {
            self.writes += 1;
            stamp(self.value_len, nonce(self.client, self.writes))
        });
        (key, value)
    }
}

/// Appends one client's operations to a shared [`History`], stamped
/// with the time the driver last noted.
///
/// Each invocation opens a record; a completion closes it (a read with
/// the nonce it observed — an absent key reads as nonce 0, so the store
/// needs no preload). A record is left open, `complete == None`, when
/// its operation ends any other way: given up or shed, failed by the
/// protocol, or cut short by a client crash — the next invocation simply
/// opens a new record over it. The checker discards such a read and
/// treats such a write as uncertain. A reissue or a reroute opens
/// nothing: it is the same logical operation, and the checker sees it as
/// ordinary concurrency.
pub struct Recorder {
    client: usize,
    now: SimTime,
    open: Option<usize>,
    history: History,
}

impl Recorder {
    /// A recorder for client `client`, appending to `history`.
    pub fn new(client: usize, history: History) -> Self {
        Recorder {
            client,
            now: SimTime::ZERO,
            open: None,
            history,
        }
    }
}

impl OpObserver for Recorder {
    fn note_time(&mut self, now: SimTime) {
        self.now = now;
    }

    fn invoked(&mut self, (key, value): &LogicalOp) {
        let kind = match value {
            Some(v) => HistKind::Put {
                nonce: read_nonce(v),
            },
            None => HistKind::Get { nonce: 0 },
        };
        let mut h = self.history.lock().expect("history lock");
        h.push(HistOp {
            client: self.client,
            key: *key,
            invoke: self.now,
            complete: None,
            kind,
        });
        self.open = Some(h.len() - 1);
    }

    fn completed(&mut self, read: Option<&[u8]>) {
        if let Some(i) = self.open.take() {
            let mut h = self.history.lock().expect("history lock");
            h[i].complete = Some(self.now);
            if let Some(v) = read {
                h[i].kind = HistKind::Get {
                    nonce: read_nonce(v),
                };
            }
        }
    }

    fn unresolved(&mut self) {
        self.open = None;
    }
}

/// Closed-loop PRISM-RS client that records a linearizability history:
/// the figures' [`RsDriver`] fed by [`NonceOps`] and heard by a
/// [`Recorder`], reclamation sent raw. [`Scenario::run`] builds the
/// routed form ([`RsDriver::routed`]).
pub type ChaosRsAdapter = RsDriver<RsClient, NonceOps, Recorder>;

impl ChaosRsAdapter {
    /// Creates the single-group adapter for client `id`.
    pub fn new(
        client: RsClient,
        id: usize,
        n_blocks: u64,
        block_size: usize,
        write_fraction: f64,
        history: History,
    ) -> Self {
        let ops = NonceOps::new(id, n_blocks, block_size, write_fraction);
        let recorder = Recorder::new(id, history);
        RsDriver::routed(vec![client], ShardMap::single(), ops, recorder)
    }
}

/// Closed-loop PRISM-KV client that records a linearizability history:
/// the figures' [`KvDriver`] fed by [`NonceOps`] and heard by a
/// [`Recorder`], reclamation sent raw. [`Scenario::run`] builds the
/// routed form ([`KvDriver::routed`]).
pub type ChaosKvAdapter = KvDriver<NonceOps, Recorder>;

impl ChaosKvAdapter {
    /// Creates the single-server adapter for client `id`.
    pub fn new(
        client: PrismKvClient,
        id: usize,
        n_keys: u64,
        value_len: usize,
        write_fraction: f64,
        history: History,
    ) -> Self {
        let ops = NonceOps::new(id, n_keys, value_len, write_fraction);
        let recorder = Recorder::new(id, history);
        KvDriver::routed(vec![client], ShardMap::single(), ops, recorder)
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Registers (keys or blocks) every scenario runs over.
pub const REGISTERS: u64 = 8;
/// Bytes per value.
pub const VALUE: usize = 64;
/// The fixed request timeout every scenario's plan carries.
pub const TIMEOUT: SimDuration = SimDuration::micros(60);

/// The system a scenario stands up: `provisioned` homes of which the
/// shard map routes over the first `active` (the rest are what a live
/// reshard grows into).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// PRISM-KV shards, one server each.
    Kv {
        /// Shards built.
        provisioned: usize,
        /// Shards routed to at the start.
        active: usize,
    },
    /// PRISM-RS replica groups.
    Rs {
        /// Groups built.
        provisioned: usize,
        /// Groups routed to at the start.
        active: usize,
        /// Replicas per group.
        replicas: usize,
    },
}

impl Topology {
    /// Servers in flat order — what a [`ChaosSpec`] draws targets from.
    pub fn servers(&self) -> usize {
        match *self {
            Topology::Kv { provisioned, .. } => provisioned,
            Topology::Rs {
                provisioned,
                replicas,
                ..
            } => provisioned * replicas,
        }
    }
}

/// One history-recording run, as data. Everything not named here is the
/// same in every run: [`REGISTERS`] registers of [`VALUE`] bytes, the
/// testbed cost model, verbs on the NIC.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The system under test.
    pub topology: Topology,
    /// Closed-loop clients.
    pub clients: usize,
    /// Probability that an operation is a write.
    pub write_fraction: f64,
    /// The adversity ([`chaos_plan`], or built by hand).
    pub plan: FaultPlan,
    /// Virtual time run and discarded.
    pub warmup: SimDuration,
    /// Virtual time measured.
    pub measure: SimDuration,
    /// A live reshard: at the instant, grow the map over the first
    /// `usize` homes (one control event, atomic in virtual time).
    pub grow: Option<(SimTime, usize)>,
}

/// [`FaultPlan::chaos`] carrying the scenarios' [`TIMEOUT`].
pub fn chaos_plan(seed: u64, spec: &ChaosSpec) -> FaultPlan {
    let mut plan = FaultPlan::chaos(seed, spec);
    plan.timeout = TIMEOUT;
    plan
}

/// What a [`Scenario::run`] hands back.
pub struct Outcome {
    /// The run's counters.
    pub result: RunResult,
    /// Every operation the clients invoked, in invocation order (and,
    /// after [`Outcome::audit_owners`], the audit's final reads).
    pub history: Vec<HistOp>,
    /// Replicas that rejoined their group after an amnesia restart.
    pub rejoins: u64,
    /// Blocks those rejoins repaired from peers.
    pub resyncs: u64,
    /// What the scenario's `grow` returned, once its instant has come:
    /// `(new map, registers moved)`.
    pub migration: Option<Result<(ShardMap, u64), MigrateError>>,
    /// The map the run started under.
    pub initial_map: ShardMap,
    /// When the run stopped.
    pub end: SimTime,
    /// The system as the run left it, for post-run audits.
    pub system: Arc<dyn System>,
}

impl Scenario {
    /// The BENCH_06 tail experiment: two KV shards, four GET-only
    /// clients, 5 % loss and 8 µs jitter, shard 1 stretched `factor`×
    /// for the whole run (`factor < 2`: healthy), `tail` the client
    /// policy under test. Loss is what gives hedging its opening (a
    /// dropped leg otherwise waits out the fixed timeout); jitter keeps
    /// some live primaries past the tracked p99, so hedge races — and
    /// the harvest of their losers — are real.
    pub fn straggler(
        seed: u64,
        factor: u32,
        tail: TailPolicy,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> Self {
        let mut plan = FaultPlan::seeded(seed)
            .with_loss(0.05, 0.0)
            .with_jitter(8_000)
            .with_tail_policy(tail);
        if factor >= 2 {
            plan = plan.with_slowdown(1, SimTime::ZERO, SimTime::ZERO + warmup + measure, factor);
        }
        plan.timeout = TIMEOUT;
        Scenario {
            topology: Topology::Kv {
                provisioned: 2,
                active: 2,
            },
            clients: 4,
            write_fraction: 0.0,
            plan,
            warmup,
            measure,
            grow: None,
        }
    }

    /// Runs the scenario on a fresh system seeded with `seed` — a pure
    /// function of `(self, seed)`. Every client shares one integrity
    /// sink and one history; the hooks are the system's own.
    pub fn run(&self, seed: u64) -> Outcome {
        let history: History = Arc::default();
        let integrity = Arc::new(IntegrityStats::new());
        // Client `i`'s workload and listener.
        let recording = {
            let (history, write_fraction) = (Arc::clone(&history), self.write_fraction);
            move |i| {
                (
                    NonceOps::new(i, REGISTERS, VALUE, write_fraction),
                    Recorder::new(i, Arc::clone(&history)),
                )
            }
        };
        let sink = Arc::clone(&integrity);
        // One client per home (standby ones included) under the live
        // map handle, opened afresh for each adapter.
        type MkAdapter = Box<dyn FnMut(usize) -> Box<dyn ProtoAdapter>>;
        let (system, mut mk_adapter): (Arc<dyn System>, MkAdapter) = match self.topology {
            Topology::Kv {
                provisioned,
                active,
            } => {
                let config = PrismKvConfig::paper(REGISTERS, VALUE);
                let kv = Arc::new(KvCluster::with_active(provisioned, active, &config, seed));
                let cluster = Arc::clone(&kv);
                let mk = move |i| {
                    let clients = cluster.open_clients().into_iter();
                    let clients = clients.map(|c| c.with_integrity(Arc::clone(&sink)));
                    let (ops, recorder) = recording(i);
                    let route = cluster.map_handle();
                    Box::new(ChaosKvAdapter::routed(
                        clients.collect(),
                        route,
                        ops,
                        recorder,
                    )) as Box<dyn ProtoAdapter>
                };
                (kv, Box::new(mk))
            }
            Topology::Rs {
                provisioned,
                active,
                replicas,
            } => {
                let config = RsConfig::paper(REGISTERS, VALUE as u64);
                let rs = RsShards::with_active(provisioned, active, replicas, &config, seed);
                let rs = Arc::new(rs);
                let shards = Arc::clone(&rs);
                let mk = move |i| {
                    let clients = shards.open_clients().into_iter();
                    let clients = clients.map(|c| c.with_integrity(Arc::clone(&sink)));
                    let (ops, recorder) = recording(i);
                    let route = shards.map_handle();
                    Box::new(ChaosRsAdapter::routed(
                        clients.collect(),
                        route,
                        ops,
                        recorder,
                    )) as Box<dyn ProtoAdapter>
                };
                (rs, Box::new(mk))
            }
        };
        let migration = Arc::new(Mutex::new(None));
        let mut hooks = RecoveryHooks::over(Arc::clone(&system), integrity);
        if let Some((at, to)) = self.grow {
            let (system, migration) = (Arc::clone(&system), Arc::clone(&migration));
            let grow = move || {
                let moved = system.migrate_grow(to, REGISTERS);
                *migration.lock().expect("migration lock") = Some(moved);
            };
            hooks.control = Some((at, Arc::new(grow)));
        }
        let initial_map = system.map();
        let result = run_closed_loop_with(
            &system.servers(),
            &CostModel::testbed(),
            VerbPath::Nic,
            self.clients,
            &mut mk_adapter,
            self.warmup,
            self.measure,
            seed,
            &self.plan,
            &hooks,
        );
        let history = history.lock().expect("history lock").clone();
        let migration = migration.lock().expect("migration lock").take();
        let (rejoins, resyncs) = system.recoveries();
        Outcome {
            result,
            history,
            rejoins,
            resyncs,
            migration,
            initial_map,
            end: SimTime::ZERO + self.warmup + self.measure,
            system,
        }
    }
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

impl Outcome {
    /// The lost/duplicate-owner audit. Every register must be readable
    /// at the home the published map gives it (nothing lost), and a
    /// register that moved must not be served by its old home any more
    /// (no second owner behind the epoch fence). The reads go on the
    /// control-plane path after the run and are appended to
    /// [`Outcome::history`] as one more client's, so [`check_history`]
    /// vouches for the final values too. A migration that failed is an
    /// error here.
    pub fn audit_owners(&mut self) -> Result<(), String> {
        if let Some(Err(e)) = &self.migration {
            return Err(e.to_string());
        }
        let now = self.system.map();
        let after =
            |us: u64, b: u64| self.end + SimDuration::micros(us) + SimDuration::from_nanos(b);
        for b in 0..REGISTERS {
            let home = now.shard_of_id(b);
            let read = self
                .system
                .read_direct(home, b)
                .map_err(|why| format!("register {b} lost at its home {home}: {why}"))?;
            self.history.push(HistOp {
                client: 999,
                key: b,
                invoke: after(200, b),
                complete: Some(after(300, b)),
                kind: HistKind::Get {
                    nonce: read.as_deref().map_or(0, read_nonce),
                },
            });
            let old_home = self.initial_map.shard_of_id(b);
            if old_home != home && matches!(self.system.read_direct(old_home, b), Ok(Some(_))) {
                return Err(format!(
                    "moved register {b} still served by its fenced old home {old_home}"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Linearizability checker
// ---------------------------------------------------------------------

/// Checks a whole history for per-register linearizability.
///
/// Operations are grouped by `key` (each key is an independent
/// register) and each group is checked with a memoized Wing–Gong
/// search. Returns the first non-linearizable key and its operation
/// count on failure.
pub fn check_history(history: &[HistOp]) -> Result<(), String> {
    let mut by_key: BTreeMap<u64, Vec<&HistOp>> = BTreeMap::new();
    for op in history {
        // An unfinished read observed nothing and constrains nothing.
        if op.complete.is_none() && matches!(op.kind, HistKind::Get { .. }) {
            continue;
        }
        by_key.entry(op.key).or_default().push(op);
    }
    for (key, mut ops) in by_key {
        ops.sort_by_key(|o| (o.invoke, o.complete, o.client));
        if !check_register(&ops) {
            return Err(format!(
                "key {key}: history of {} ops is not linearizable",
                ops.len()
            ));
        }
    }
    Ok(())
}

/// Wing–Gong linearizability check for one register, with memoization
/// on (done-set, register-value) states.
///
/// An operation may be linearized next only if no other pending
/// operation completed before it was invoked (real-time order is
/// preserved); a read is valid only if its observed nonce equals the
/// register. Writes with `complete == None` are uncertain: they may be
/// linearized anywhere after their invocation or skipped entirely, so
/// the search succeeds once every *certain* operation is placed.
fn check_register(ops: &[&HistOp]) -> bool {
    let n = ops.len();
    let certain = ops.iter().filter(|o| o.complete.is_some()).count();
    let mut done = vec![0u64; n.div_ceil(64)];
    let mut seen: HashSet<(Vec<u64>, u64)> = HashSet::new();
    dfs(ops, &mut done, 0, certain, &mut seen)
}

fn dfs(
    ops: &[&HistOp],
    done: &mut Vec<u64>,
    reg: u64,
    certain_left: usize,
    seen: &mut HashSet<(Vec<u64>, u64)>,
) -> bool {
    if certain_left == 0 {
        return true;
    }
    if !seen.insert((done.clone(), reg)) {
        return false;
    }
    // The earliest completion among pending certain ops bounds which
    // ops may linearize next: anything invoked after it must come
    // later.
    let mut bound = None;
    for (i, op) in ops.iter().enumerate() {
        if done[i / 64] & (1 << (i % 64)) == 0 {
            if let Some(c) = op.complete {
                bound = Some(bound.map_or(c, |b: SimTime| b.min(c)));
            }
        }
    }
    for (i, op) in ops.iter().enumerate() {
        if done[i / 64] & (1 << (i % 64)) != 0 {
            continue;
        }
        if let Some(b) = bound {
            if op.invoke > b {
                // Ops are sorted by invoke; everything later is also
                // past the bound.
                break;
            }
        }
        let next_reg = match op.kind {
            HistKind::Get { nonce } => {
                if nonce != reg {
                    continue;
                }
                reg
            }
            HistKind::Put { nonce } => nonce,
        };
        done[i / 64] |= 1 << (i % 64);
        let left = certain_left - usize::from(op.complete.is_some());
        if dfs(ops, done, next_reg, left, seen) {
            return true;
        }
        done[i / 64] &= !(1 << (i % 64));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(client: usize, invoke: u64, complete: Option<u64>, key: u64, kind: HistKind) -> HistOp {
        HistOp {
            client,
            key,
            invoke: SimTime::from_nanos(invoke),
            complete: complete.map(SimTime::from_nanos),
            kind,
        }
    }

    /// `Scenario::run` is a pure function of `(scenario, seed)`: at gate
    /// scale, under crashes, loss, flips and disk tears, a second run
    /// agrees on every counter (floats by bits), the whole history, the
    /// recoveries and what the reshard moved.
    #[test]
    fn a_scenario_run_is_a_pure_function_of_scenario_and_seed() {
        let horizon = SimDuration::micros(2_800);
        let grow = Some((SimTime::from_nanos(1_600_000), 4));
        for (seed, topology, grow) in [
            (
                0x5CE7_0001,
                Topology::Kv {
                    provisioned: 4,
                    active: 2,
                },
                grow,
            ),
            (
                0x5CE7_0002,
                Topology::Rs {
                    provisioned: 2,
                    active: 2,
                    replicas: 3,
                },
                None,
            ),
        ] {
            let spec = ChaosSpec {
                server_crashes: 2,
                amnesia_fraction: 1.0,
                client_crashes: 1,
                partitions: 1,
                drop_prob: 0.01,
                dup_prob: 0.005,
                jitter_ns: 1_000,
                flip_req_prob: 0.01,
                flip_reply_prob: 0.01,
                torn_write_prob: 0.05,
                disk_torn_prob: 0.9,
                ..ChaosSpec::quiet(topology.servers(), 4, horizon)
            };
            let scenario = Scenario {
                topology,
                clients: 4,
                write_fraction: 0.5,
                plan: chaos_plan(seed, &spec),
                warmup: SimDuration::micros(400),
                measure: SimDuration::micros(2_400),
                grow,
            };
            let (a, b) = (scenario.run(seed), scenario.run(seed));
            assert!(a.result.restarts > 0 && !a.history.is_empty());
            // Debug prints every field, and an f64 in the shortest form
            // that reads back to the same bits.
            assert_eq!(format!("{:?}", a.result), format!("{:?}", b.result));
            for (x, y) in [
                (a.result.tput_ops, b.result.tput_ops),
                (a.result.mean_us, b.result.mean_us),
                (a.result.p99_us, b.result.p99_us),
            ] {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.history, b.history);
            assert_eq!((a.rejoins, a.resyncs), (b.rejoins, b.resyncs));
            assert_eq!(a.migration, b.migration);
            assert_eq!(a.migration.is_some(), grow.is_some());
        }
    }

    /// The owner audit on hand-built violations: a clean reshard
    /// passes, a moved key re-installed at its old shard is a second
    /// owner, and a failed migration is a failing verdict.
    #[test]
    fn owner_audit_rejects_a_second_owner_and_a_failed_migration() {
        use crate::cluster::MigrateStep;
        use prism_kv::prism_kv::drive;
        let kv = Arc::new(KvCluster::with_active(
            4,
            2,
            &PrismKvConfig::paper(REGISTERS, VALUE),
            42,
        ));
        kv.preload(REGISTERS, VALUE);
        let initial_map = kv.map();
        let moved = kv.migrate_grow(4, REGISTERS);
        let new_map = moved.clone().expect("migration").0;
        // The audit reads the system, the maps and the migration's
        // verdict; the counters come from any run at all.
        let any_run = Scenario::straggler(1, 1, TailPolicy::default(), TIMEOUT, TIMEOUT).run(1);
        let mut out = Outcome {
            history: Vec::new(),
            migration: Some(moved),
            initial_map: initial_map.clone(),
            system: Arc::clone(&kv) as Arc<dyn System>,
            ..any_run
        };
        out.audit_owners()
            .expect("a clean reshard has one owner per key");
        assert_eq!(out.history.len() as u64, REGISTERS, "one final read each");

        let b = (0..REGISTERS)
            .find(|&b| initial_map.shard_of_id(b) != new_map.shard_of_id(b))
            .expect("a 2→4 grow moves something");
        let old_home = initial_map.shard_of_id(b);
        let client = kv.shard(old_home).open_client();
        let (mut op, req) = client.put(&b.to_le_bytes(), &stamp(VALUE, 7));
        drive(kv.shard(old_home).server(), req, |r| {
            op.on_reply(&client, r)
        });
        let err = out
            .audit_owners()
            .expect_err("the old shard serves it again");
        assert!(err.contains("still served"), "{err}");

        out.migration = Some(Err(MigrateError {
            register: b,
            step: MigrateStep::Install,
            reason: "allocation failed".into(),
        }));
        let err = out
            .audit_owners()
            .expect_err("a failed migration fails the run");
        assert!(err.contains("stopped at Install"), "{err}");
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(0, 20, Some(30), 1, HistKind::Get { nonce: 7 }),
            op(1, 40, Some(50), 1, HistKind::Put { nonce: 9 }),
            op(1, 60, Some(70), 1, HistKind::Get { nonce: 9 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn stale_read_after_overwrite_is_rejected() {
        // W(7) then W(9) complete strictly before the read, which
        // nevertheless observes 7: no valid order exists.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(0, 20, Some(30), 1, HistKind::Put { nonce: 9 }),
            op(1, 40, Some(50), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_err());
        // A read of a value no one ever wrote has no place at all.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 20, Some(30), 1, HistKind::Get { nonce: 8 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn stale_read_after_acked_write_is_rejected() {
        // The write is acknowledged (certain) strictly before the read
        // begins, yet the read observes the initial value: a lost
        // update no serial order can explain.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 20, Some(30), 1, HistKind::Get { nonce: 0 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn split_brain_register_is_rejected() {
        // Two concurrent writes both complete; two later,
        // non-overlapping reads then observe *different* winners — each
        // side of a split brain believes its own write took effect. The
        // writes may linearize in either order, but the register cannot
        // hold 7 and then 9 (or 9 and then 7) with no write in between.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 0, Some(10), 1, HistKind::Put { nonce: 9 }),
            op(0, 20, Some(30), 1, HistKind::Get { nonce: 7 }),
            op(1, 40, Some(50), 1, HistKind::Get { nonce: 9 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn concurrent_ops_may_linearize_in_either_order() {
        // Two overlapping writes, then reads observing each in turn —
        // valid because the second-observed write may linearize last.
        let h = vec![
            op(0, 0, Some(100), 1, HistKind::Put { nonce: 7 }),
            op(1, 0, Some(100), 1, HistKind::Put { nonce: 9 }),
            op(2, 110, Some(120), 1, HistKind::Get { nonce: 9 }),
        ];
        assert!(check_history(&h).is_ok());
        // A read during a write may see the old value, and a later one
        // during the same write the new value.
        let h = vec![
            op(0, 0, Some(100), 1, HistKind::Put { nonce: 7 }),
            op(1, 10, Some(20), 1, HistKind::Get { nonce: 0 }),
            op(1, 30, Some(40), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn read_of_initial_value_uses_nonce_zero() {
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Get { nonce: 0 }),
            op(0, 20, Some(30), 1, HistKind::Put { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn uncertain_write_may_take_effect_or_not() {
        // A crashed client's write has no completion; reads observing
        // it (or not) are both valid.
        let observed = vec![
            op(0, 0, None, 1, HistKind::Put { nonce: 7 }),
            op(1, 50, Some(60), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&observed).is_ok());
        let unobserved = vec![
            op(0, 0, None, 1, HistKind::Put { nonce: 7 }),
            op(1, 50, Some(60), 1, HistKind::Get { nonce: 0 }),
        ];
        assert!(check_history(&unobserved).is_ok());
    }

    #[test]
    fn uncertain_write_cannot_linearize_before_its_invocation() {
        // The read completes before the uncertain write is even
        // invoked, yet observes its nonce: impossible.
        let h = vec![
            op(1, 0, Some(10), 1, HistKind::Get { nonce: 7 }),
            op(0, 50, None, 1, HistKind::Put { nonce: 7 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn unfinished_reads_are_discarded() {
        // An abandoned read's nonce field is meaningless; it must not
        // constrain the order.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 20, None, 1, HistKind::Get { nonce: 999 }),
            op(0, 30, Some(40), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn keys_are_independent_registers() {
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 0, Some(10), 2, HistKind::Put { nonce: 9 }),
            op(0, 20, Some(30), 2, HistKind::Get { nonce: 9 }),
            op(1, 20, Some(30), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }
}
