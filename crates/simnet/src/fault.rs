//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes the adversity a run is subjected to:
//! per-message drop and duplication probabilities, extra delivery
//! jitter, scheduled server crash/restart windows, and client↔server
//! partition windows. The plan itself is pure data — the harness's
//! actors consult it at message-delivery time and draw all fault
//! randomness from dedicated [`SimRng`] streams
//! forked off [`FaultPlan::seed`], so:
//!
//! * a run with the default (no-op) plan consumes exactly the same
//!   random numbers as a build without the fault layer, keeping every
//!   calibrated latency/throughput figure bit-identical, and
//! * two runs with the same plan and the same run seed produce
//!   identical schedules, metrics, and outcomes (`PRISM_TEST_SEED`
//!   replay works under faults).
//!
//! The failure model (see DESIGN.md §9): a crashed server silently
//!   drops every request that arrives inside its window — replies
//!   already serialized onto the wire still deliver, like a real
//!   network holding packets in flight. A [`CrashMode::Recover`] window
//!   restarts with memory intact (fail-recover); a
//!   [`CrashMode::Amnesia`] window restarts with the arena wiped under
//!   a bumped incarnation (fail-stop-amnesia — the failure class the
//!   paper's replication and recovery protocols exist for, §7–8).
//!   Client-crash windows model the other side: a crashed client drops
//!   its in-flight state and restarts fresh, leaving whatever server
//!   metadata it owned (TX prepares, FaRM locks) dangling for the
//!   lease sweeps to reclaim. Partitions sever the client→server
//!   request leg. Clients recover lost traffic via request timeouts
//!   that synthesize error replies, which the protocol machines treat
//!   exactly like a NACK from the transport.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What a server's memory looks like when its crash window ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// Fail-recover: the server restarts with its memory intact.
    #[default]
    Recover,
    /// Fail-stop-amnesia: the server restarts with its arena wiped and
    /// its incarnation bumped; every pre-crash rkey is fenced and the
    /// application-level recovery protocol (RS rejoin, lock reset) must
    /// run before the replica is useful again.
    Amnesia,
}

/// A scheduled outage of one server: every request arriving at
/// `server` within `[from, until)` is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Index of the crashed server (experiment server-list order).
    pub server: usize,
    /// Start of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive) — the restart instant.
    pub until: SimTime,
    /// Memory semantics of the restart.
    pub mode: CrashMode,
}

impl CrashWindow {
    /// Whether this window covers `server` at time `at`.
    pub fn covers(&self, server: usize, at: SimTime) -> bool {
        self.server == server && at >= self.from && at < self.until
    }
}

/// A scheduled partition: requests from `client` to `server` sent
/// within `[from, until)` are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Index of the partitioned client (experiment client order).
    pub client: usize,
    /// Index of the unreachable server.
    pub server: usize,
    /// Start of the partition (inclusive).
    pub from: SimTime,
    /// End of the partition (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Whether this partition severs `client`→`server` at time `at`.
    pub fn covers(&self, client: usize, server: usize, at: SimTime) -> bool {
        self.client == client && self.server == server && at >= self.from && at < self.until
    }
}

/// A scheduled client crash: within `[from, until)` the client is dead
/// (incoming replies, timers, and kicks are dropped); at `until` it
/// restarts with fresh protocol state, abandoning whatever operation —
/// and whatever server-side metadata — it had in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientCrashWindow {
    /// Index of the crashed client (experiment client order).
    pub client: usize,
    /// Start of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive) — the restart instant.
    pub until: SimTime,
}

impl ClientCrashWindow {
    /// Whether this window covers `client` at time `at`.
    pub fn covers(&self, client: usize, at: SimTime) -> bool {
        self.client == client && at >= self.from && at < self.until
    }
}

/// A scheduled gray-failure slowdown: while `[from, until)` covers
/// `server`, every message it processes or emits takes `factor`× its
/// normal service and propagation time. The server stays alive — it
/// answers everything, just late — which is exactly the failure class
/// binary crash detection cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowdownWindow {
    /// Index of the degraded server (experiment server-list order).
    pub server: usize,
    /// Start of the degradation (inclusive).
    pub from: SimTime,
    /// End of the degradation (exclusive).
    pub until: SimTime,
    /// Latency multiplier applied to the server's processing and reply
    /// path while the window is active (≥ 2).
    pub factor: u32,
}

impl SlowdownWindow {
    /// Whether this window covers `server` at time `at`.
    pub fn covers(&self, server: usize, at: SimTime) -> bool {
        self.server == server && at >= self.from && at < self.until
    }
}

/// A flapping link: within `[from, until)` the `client`↔`server` link
/// cycles deterministically — up for `up`, then down for the remainder
/// of each `period`, starting from `from`. Both legs are severed during
/// the down phase. The schedule is pure data (no RNG draws at delivery
/// time), so zero-knob plans stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapWindow {
    /// Index of the flapping client (experiment client order).
    pub client: usize,
    /// Index of the server at the other end of the link.
    pub server: usize,
    /// Start of the flapping regime (inclusive).
    pub from: SimTime,
    /// End of the flapping regime (exclusive).
    pub until: SimTime,
    /// Full up+down cycle length.
    pub period: SimDuration,
    /// Up-phase length at the start of each cycle (`< period`).
    pub up: SimDuration,
}

impl FlapWindow {
    /// Whether the link is in a down phase for this pair at time `at`.
    pub fn down(&self, client: usize, server: usize, at: SimTime) -> bool {
        if self.client != client || self.server != server || at < self.from || at >= self.until {
            return false;
        }
        let phase = (at.as_nanos() - self.from.as_nanos()) % self.period.as_nanos().max(1);
        phase >= self.up.as_nanos()
    }
}

/// Client/server tail-tolerance policy: the mitigation half of the
/// gray-failure story. Every knob is opt-in (default off) because each
/// one changes event timing — arming any of them forfeits bit-identity
/// with policy-free runs, exactly like arming a fault.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TailPolicy {
    /// Adaptive per-request timeout: a windowed-quantile RTT estimate
    /// replaces the fixed plan timeout once enough samples accumulate,
    /// so the timeout tracks the fabric tier instead of a constant.
    pub adaptive_timeout: bool,
    /// Hedge idempotent reads: re-issue a still-outstanding eligible
    /// request after an adaptive-p99 delay; the losing reply is
    /// harvested through the stale-reply path, so nothing leaks.
    pub hedge: bool,
    /// Server-side admission bound: a request whose queueing delay
    /// would exceed this many nanoseconds is refused with a typed
    /// `Busy` NACK instead of joining the convoy. `0` disables.
    pub admission_ns: u64,
    /// Deadline-aware retry budget: once an operation has been in
    /// flight this long, further transport retries are shed (the op is
    /// abandoned and counted) instead of joining a retry storm.
    /// `ZERO` disables.
    pub retry_deadline: SimDuration,
}

impl TailPolicy {
    /// Whether every knob is at its default (policy disabled).
    pub fn is_off(&self) -> bool {
        *self == TailPolicy::default()
    }
}

/// A scheduled at-rest bit-rot event: at `at`, `bits` seeded single-bit
/// flips land inside `[addr, addr + len)` of `server`'s arena.
///
/// Rot models the memory-corruption half of the failure model — a
/// partially-failed DIMM, a torn persist, radiation — and is therefore
/// constrained to crash windows: live PRISM servers hand their memory
/// to the NIC, and the simulator's arena is otherwise only mutated by
/// verbs. [`FaultPlan::validate`] enforces the constraint loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotEvent {
    /// Index of the affected server.
    pub server: usize,
    /// When the rot lands; must fall inside a crash window of `server`.
    pub at: SimTime,
    /// Base of the damaged byte range (arena address).
    pub addr: u64,
    /// Length of the damaged byte range.
    pub len: u64,
    /// How many seeded single-bit flips to scatter over the range.
    pub bits: u32,
}

/// A scheduled at-rest *disk* bit-rot event: at `at`, `bits` seeded
/// single-bit flips land somewhere on `server`'s simulated disk.
///
/// Unlike memory rot ([`RotEvent`]), disk rot is not confined to crash
/// windows — segment files are at rest the moment they are written, and
/// media decay does not wait for an outage. The damage stays latent
/// until the next amnesia replay, where the segment CRCs detect it and
/// the torn/corrupt tail is truncated and healed from replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRotEvent {
    /// Index of the affected server.
    pub server: usize,
    /// When the rot lands.
    pub at: SimTime,
    /// How many seeded single-bit flips to scatter over the disk.
    pub bits: u32,
}

/// A deterministic fault schedule for one simulation run.
///
/// The [`Default`] plan is a no-op: nothing is dropped, duplicated,
/// delayed, crashed, partitioned, or corrupted, and the harness
/// bypasses the fault machinery entirely (no extra events, no extra
/// RNG draws). Build an adversarial plan from [`FaultPlan::seeded`]
/// plus the `with_*` combinators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault-decision RNG streams (independent of the run
    /// seed so the same workload can be replayed under different
    /// adversity, and vice versa).
    pub seed: u64,
    /// Probability that any request or reply is dropped in flight.
    pub drop_prob: f64,
    /// Probability that a reply is delivered twice. Only the reply leg
    /// duplicates: re-delivering a request would re-execute
    /// non-idempotent chains (an ALLOCATE would leak a buffer per
    /// duplicate), which models a NIC retransmitting *into* memory —
    /// a different failure class than the fabric's.
    pub dup_prob: f64,
    /// Maximum extra per-message delivery delay, in nanoseconds
    /// (uniform in `[0, jitter_ns)`).
    pub jitter_ns: u64,
    /// Per-request client timeout. When it fires before the reply, the
    /// client synthesizes a transport-error reply for that request and
    /// the protocol machine takes its failure path. `ZERO` disables
    /// timeouts (only sensible for jitter-only plans).
    pub timeout: SimDuration,
    /// Scheduled server outages.
    pub crashes: Vec<CrashWindow>,
    /// Scheduled client→server partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled client crashes.
    pub client_crashes: Vec<ClientCrashWindow>,
    /// Probability that a request is corrupted in flight (one seeded
    /// bit of its encoded frame flipped before delivery).
    pub flip_req_prob: f64,
    /// Probability that a reply is corrupted in flight.
    pub flip_reply_prob: f64,
    /// Probability that a multi-line WRITE arriving at a *crashed*
    /// server is torn: a seeded prefix of its 64-byte cache-line groups
    /// lands in memory before the crash takes the rest. Requires at
    /// least one crash window to ever fire.
    pub torn_write_prob: f64,
    /// Scheduled at-rest bit-rot events (each inside a crash window).
    pub rot: Vec<RotEvent>,
    /// Probability that an amnesia crash tears the server's simulated
    /// disk: a seeded suffix of each file's *unsynced* tail is dropped
    /// before the restart replays the log. Draws from a dedicated
    /// per-server RNG stream; requires at least one amnesia window.
    pub disk_torn_prob: f64,
    /// Scheduled at-rest disk bit-rot events (each on its own RNG
    /// stream, so zero-knob plans stay bit-identical).
    pub disk_rot: Vec<DiskRotEvent>,
    /// Scheduled gray-failure slowdown windows (server alive but slow).
    pub slowdowns: Vec<SlowdownWindow>,
    /// Scheduled one-way partitions severing only the server→client
    /// *reply* leg (requests execute; the answers vanish). The symmetric
    /// request-leg class stays in [`FaultPlan::partitions`].
    pub reply_partitions: Vec<Partition>,
    /// Scheduled flapping links (deterministic duty-cycle up/down).
    pub flaps: Vec<FlapWindow>,
    /// Tail-tolerance policy (adaptive timeouts, hedging, admission
    /// control, deadline shedding). Defaults to fully off.
    pub tail: TailPolicy,
}

impl FaultPlan {
    /// A plan with fault RNG seeded and the default request timeout
    /// (200 µs — an order of magnitude above the testbed's unloaded
    /// round trips, small enough to retry many times per run) but no
    /// faults enabled yet. Combine with the `with_*` methods.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            timeout: SimDuration::micros(200),
            ..FaultPlan::default()
        }
    }

    /// Sets message loss and reply duplication probabilities.
    pub fn with_loss(mut self, drop_prob: f64, dup_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob out of range");
        assert!((0.0..=1.0).contains(&dup_prob), "dup_prob out of range");
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self
    }

    /// Sets the maximum extra per-message delivery jitter.
    pub fn with_jitter(mut self, jitter_ns: u64) -> Self {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Overrides the per-request timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Adds a fail-recover crash/restart window for `server`.
    pub fn with_crash(mut self, server: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty crash window");
        self.crashes.push(CrashWindow {
            server,
            from,
            until,
            mode: CrashMode::Recover,
        });
        self
    }

    /// Adds a fail-stop-amnesia crash window for `server`: at `until`
    /// the server restarts with its memory wiped and incarnation bumped.
    pub fn with_amnesia_crash(mut self, server: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty crash window");
        self.crashes.push(CrashWindow {
            server,
            from,
            until,
            mode: CrashMode::Amnesia,
        });
        self
    }

    /// Adds a client crash window: at `until` the client restarts with
    /// fresh protocol state.
    pub fn with_client_crash(mut self, client: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty client crash window");
        self.client_crashes.push(ClientCrashWindow {
            client,
            from,
            until,
        });
        self
    }

    /// Sets in-flight corruption probabilities for the request and
    /// reply legs. Each corrupted frame has one seeded bit flipped, so
    /// the CRC framing detects it with certainty — `corrupt detected`
    /// equals `corrupt injected` for flip-only plans.
    pub fn with_flips(mut self, flip_req_prob: f64, flip_reply_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_req_prob),
            "flip_req_prob out of range"
        );
        assert!(
            (0.0..=1.0).contains(&flip_reply_prob),
            "flip_reply_prob out of range"
        );
        self.flip_req_prob = flip_req_prob;
        self.flip_reply_prob = flip_reply_prob;
        self
    }

    /// Sets the torn-write probability for WRITEs arriving at crashed
    /// servers. [`validate`](Self::validate) rejects a plan that arms
    /// this without any crash window — it could never fire.
    pub fn with_torn_writes(mut self, torn_write_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&torn_write_prob),
            "torn_write_prob out of range"
        );
        self.torn_write_prob = torn_write_prob;
        self
    }

    /// Adds an at-rest rot event: `bits` seeded bit flips over
    /// `[addr, addr + len)` of `server`'s arena at time `at`, which
    /// must fall inside one of `server`'s crash windows (add the crash
    /// first; [`validate`](Self::validate) enforces the coverage).
    pub fn with_rot(mut self, server: usize, at: SimTime, addr: u64, len: u64, bits: u32) -> Self {
        assert!(len > 0, "empty rot range");
        assert!(bits > 0, "rot event with zero bit flips");
        self.rot.push(RotEvent {
            server,
            at,
            addr,
            len,
            bits,
        });
        self
    }

    /// Sets the disk-tear probability for amnesia restarts: with this
    /// probability the crash drops a seeded suffix of every file's
    /// unsynced tail before the restart replays the log.
    /// [`validate`](Self::validate) rejects a plan that arms this
    /// without any amnesia window — it could never fire.
    pub fn with_disk_torn_writes(mut self, disk_torn_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&disk_torn_prob),
            "disk_torn_prob out of range"
        );
        self.disk_torn_prob = disk_torn_prob;
        self
    }

    /// Adds an at-rest disk rot event: `bits` seeded bit flips land on
    /// `server`'s simulated disk at time `at`. Disk rot needs no crash
    /// window — segment files are at rest whenever they are not being
    /// appended, and the damage stays latent until the next replay.
    pub fn with_disk_rot(mut self, server: usize, at: SimTime, bits: u32) -> Self {
        assert!(bits > 0, "disk rot event with zero bit flips");
        self.disk_rot.push(DiskRotEvent { server, at, bits });
        self
    }

    /// Adds a gray-failure slowdown window: while it covers `server`,
    /// every message the server processes or emits is stretched by
    /// `factor`×.
    pub fn with_slowdown(
        mut self,
        server: usize,
        from: SimTime,
        until: SimTime,
        factor: u32,
    ) -> Self {
        assert!(from < until, "empty slowdown window");
        assert!(factor >= 2, "slowdown factor below 2 is not a slowdown");
        self.slowdowns.push(SlowdownWindow {
            server,
            from,
            until,
            factor,
        });
        self
    }

    /// Adds a one-way partition severing only the server→client reply
    /// leg within `[from, until)`: requests still arrive and execute,
    /// but the answers vanish — the asymmetric half of the gray model.
    pub fn with_reply_partition(
        mut self,
        client: usize,
        server: usize,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(from < until, "empty reply-partition window");
        self.reply_partitions.push(Partition {
            client,
            server,
            from,
            until,
        });
        self
    }

    /// Adds a flapping link for the `client`↔`server` pair: within
    /// `[from, until)` the link cycles up for `up` then down for the
    /// rest of each `period`, severing both legs during down phases.
    pub fn with_flap(
        mut self,
        client: usize,
        server: usize,
        from: SimTime,
        until: SimTime,
        period: SimDuration,
        up: SimDuration,
    ) -> Self {
        assert!(from < until, "empty flap window");
        assert!(period > SimDuration::ZERO, "flap period must be positive");
        assert!(up < period, "flap up phase must leave a down phase");
        self.flaps.push(FlapWindow {
            client,
            server,
            from,
            until,
            period,
            up,
        });
        self
    }

    /// Installs the tail-tolerance policy (adaptive timeouts, hedging,
    /// admission control, deadline shedding). Any non-default knob arms
    /// the fault layer: policies change event timing, so a policy run
    /// can never be bit-identical to a policy-free one.
    pub fn with_tail_policy(mut self, tail: TailPolicy) -> Self {
        self.tail = tail;
        self
    }

    /// Adds a partition window between `client` and `server`.
    pub fn with_partition(
        mut self,
        client: usize,
        server: usize,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(from < until, "empty partition window");
        self.partitions.push(Partition {
            client,
            server,
            from,
            until,
        });
        self
    }

    /// Whether the plan injects no faults at all. The harness uses this
    /// to bypass the fault machinery so default runs stay bit-identical
    /// to a fault-free build (`timeout` alone does not arm the layer —
    /// with no faults there is nothing to time out).
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.jitter_ns == 0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.client_crashes.is_empty()
            && !self.injects_corruption()
            && !self.injects_disk_faults()
            && !self.injects_gray()
            && self.tail.is_off()
    }

    /// Whether the plan injects gray failures (slowdown windows,
    /// reply-leg partitions, or flapping links). All three classes are
    /// pure schedule data consulted at delivery time — no RNG draws —
    /// so plans without them replay the exact draw sequences they had
    /// before the gray class existed.
    pub fn injects_gray(&self) -> bool {
        !self.slowdowns.is_empty() || !self.reply_partitions.is_empty() || !self.flaps.is_empty()
    }

    /// Whether the plan injects disk faults (crash tears of unsynced
    /// segment tails, or at-rest disk rot). When false, the harness
    /// creates no disk-fault RNG streams, so pre-existing plans replay
    /// the exact draw sequences they had before the durable tier
    /// existed.
    pub fn injects_disk_faults(&self) -> bool {
        self.disk_torn_prob > 0.0 || !self.disk_rot.is_empty()
    }

    /// Whether the plan injects any corruption (in-flight flips, torn
    /// writes, or at-rest rot). When false, the harness draws nothing
    /// from the corruption RNG streams, so pre-existing plans replay
    /// the exact draw sequences they had before the corruption layer
    /// existed.
    pub fn injects_corruption(&self) -> bool {
        self.flip_req_prob > 0.0
            || self.flip_reply_prob > 0.0
            || self.torn_write_prob > 0.0
            || !self.rot.is_empty()
    }

    /// Whether `server` is inside any crash window at `at`.
    pub fn crashed(&self, server: usize, at: SimTime) -> bool {
        self.crashes.iter().any(|w| w.covers(server, at))
    }

    /// Whether `client`→`server` is severed at `at`. Flap down phases
    /// sever the request leg exactly like a symmetric partition.
    pub fn partitioned(&self, client: usize, server: usize, at: SimTime) -> bool {
        self.partitions.iter().any(|p| p.covers(client, server, at))
            || self.flaps.iter().any(|f| f.down(client, server, at))
    }

    /// Whether the `server`→`client` reply leg is severed at `at`
    /// (one-way partition, or a flap down phase).
    pub fn reply_partitioned(&self, client: usize, server: usize, at: SimTime) -> bool {
        self.reply_partitions
            .iter()
            .any(|p| p.covers(client, server, at))
            || self.flaps.iter().any(|f| f.down(client, server, at))
    }

    /// Latency multiplier for `server` at `at`: the largest factor of
    /// any covering slowdown window, or 1 when healthy.
    pub fn slowdown_factor(&self, server: usize, at: SimTime) -> u64 {
        self.slowdowns
            .iter()
            .filter(|w| w.covers(server, at))
            .map(|w| w.factor as u64)
            .max()
            .unwrap_or(1)
    }

    /// Whether `client` is inside any client crash window at `at`.
    pub fn client_crashed(&self, client: usize, at: SimTime) -> bool {
        self.client_crashes.iter().any(|w| w.covers(client, at))
    }

    /// Restart instants (window ends) of `server`'s amnesia windows, in
    /// schedule order. The harness schedules a wipe-and-rejoin event at
    /// each; fail-recover windows need no event — the memory was never
    /// lost.
    pub fn amnesia_restarts(&self, server: usize) -> Vec<SimTime> {
        self.crashes
            .iter()
            .filter(|w| w.server == server && w.mode == CrashMode::Amnesia)
            .map(|w| w.until)
            .collect()
    }

    /// Restart instants of `client`'s crash windows, in schedule order.
    pub fn client_restarts(&self, client: usize) -> Vec<SimTime> {
        self.client_crashes
            .iter()
            .filter(|w| w.client == client)
            .map(|w| w.until)
            .collect()
    }

    /// Checks every window against the run's actual topology, so a
    /// window naming a server or client that does not exist fails loudly
    /// at run start instead of silently never firing.
    ///
    /// # Panics
    ///
    /// Panics on any out-of-range server or client index.
    pub fn validate(&self, n_servers: usize, n_clients: usize) {
        for w in &self.crashes {
            assert!(
                w.server < n_servers,
                "crash window names server {} but the run has {n_servers}",
                w.server
            );
        }
        for p in &self.partitions {
            assert!(
                p.server < n_servers,
                "partition names server {} but the run has {n_servers}",
                p.server
            );
            assert!(
                p.client < n_clients,
                "partition names client {} but the run has {n_clients}",
                p.client
            );
        }
        for w in &self.client_crashes {
            assert!(
                w.client < n_clients,
                "client crash window names client {} but the run has {n_clients}",
                w.client
            );
        }
        assert!(
            self.torn_write_prob == 0.0 || !self.crashes.is_empty(),
            "torn writes armed but no crash window is scheduled — they could never fire"
        );
        for r in &self.rot {
            assert!(
                r.server < n_servers,
                "rot event names server {} but the run has {n_servers}",
                r.server
            );
            assert!(
                self.crashes.iter().any(|w| w.covers(r.server, r.at)),
                "rot event at t={}ns is outside every crash window of server {} — \
                 at-rest rot only lands while the server is down",
                r.at.as_nanos(),
                r.server
            );
        }
        assert!(
            self.disk_torn_prob == 0.0 || self.crashes.iter().any(|w| w.mode == CrashMode::Amnesia),
            "disk tears armed but no amnesia window is scheduled — they could never fire"
        );
        for r in &self.disk_rot {
            assert!(
                r.server < n_servers,
                "disk rot event names server {} but the run has {n_servers}",
                r.server
            );
        }
        for w in &self.slowdowns {
            assert!(
                w.server < n_servers,
                "slowdown window names server {} but the run has {n_servers}",
                w.server
            );
        }
        for p in &self.reply_partitions {
            assert!(
                p.server < n_servers,
                "reply partition names server {} but the run has {n_servers}",
                p.server
            );
            assert!(
                p.client < n_clients,
                "reply partition names client {} but the run has {n_clients}",
                p.client
            );
        }
        for f in &self.flaps {
            assert!(
                f.server < n_servers,
                "flap window names server {} but the run has {n_servers}",
                f.server
            );
            assert!(
                f.client < n_clients,
                "flap window names client {} but the run has {n_clients}",
                f.client
            );
        }
    }

    /// Generates a composed chaos schedule from a seed: `spec.horizon`
    /// is sliced into per-fault lanes and each requested fault gets a
    /// window with seeded start and length. Pure function of
    /// `(seed, spec)`, so two calls produce identical plans and a
    /// chaos run replays bit-exactly from its seed.
    pub fn chaos(seed: u64, spec: &ChaosSpec) -> FaultPlan {
        let mut rng = SimRng::new(seed ^ 0xC4A0_5CAD);
        let horizon = spec.horizon.as_nanos().max(16);
        // Windows live in the middle half of the horizon so clients
        // observe both pre-fault and post-recovery service.
        let lo = horizon / 4;
        let hi = horizon * 3 / 4;
        let window = |rng: &mut SimRng| {
            let len = (horizon / 64 + rng.gen_range(horizon / 16)).max(1);
            let from = lo + rng.gen_range(hi - lo);
            let until = (from + len).min(horizon - 1);
            (
                SimTime::from_nanos(from),
                SimTime::from_nanos(until.max(from + 1)),
            )
        };
        let mut plan = FaultPlan::seeded(seed).with_loss(spec.drop_prob, spec.dup_prob);
        plan.jitter_ns = spec.jitter_ns;
        // Corruption knobs copy straight across (no RNG draws, so specs
        // that leave them zero generate the exact plans they always did).
        plan.flip_req_prob = spec.flip_req_prob;
        plan.flip_reply_prob = spec.flip_reply_prob;
        for _ in 0..spec.server_crashes {
            let server = rng.gen_range(spec.servers as u64) as usize;
            let (from, until) = window(&mut rng);
            plan = if rng.gen_bool(spec.amnesia_fraction) {
                plan.with_amnesia_crash(server, from, until)
            } else {
                plan.with_crash(server, from, until)
            };
        }
        for _ in 0..spec.client_crashes {
            let client = rng.gen_range(spec.clients as u64) as usize;
            let (from, until) = window(&mut rng);
            plan = plan.with_client_crash(client, from, until);
        }
        for _ in 0..spec.partitions {
            let client = rng.gen_range(spec.clients as u64) as usize;
            let server = rng.gen_range(spec.servers as u64) as usize;
            let (from, until) = window(&mut rng);
            plan = plan.with_partition(client, server, from, until);
        }
        // Torn writes need a crash window to fire in; arming them on a
        // crash-free schedule would fail validation.
        if !plan.crashes.is_empty() {
            plan.torn_write_prob = spec.torn_write_prob;
        }
        // Disk tears fire at amnesia restarts; arm them only when the
        // drawn schedule has one (a straight copy, no draws).
        if plan.crashes.iter().any(|w| w.mode == CrashMode::Amnesia) {
            plan.disk_torn_prob = spec.disk_torn_prob;
        }
        // Disk rot draws come after the crash/partition classes, so
        // specs that leave the knob zero generate byte-identical plans
        // to the pre-durability fabric.
        for _ in 0..spec.disk_rot_events {
            let server = rng.gen_range(spec.servers as u64) as usize;
            let at = SimTime::from_nanos(lo + rng.gen_range(hi - lo));
            let bits = 1 + rng.gen_range(3) as u32;
            plan = plan.with_disk_rot(server, at, bits);
        }
        // Gray-failure draws come last of all (the newest class draws
        // after every older one, per the standing convention), so
        // zero-knob specs reproduce the exact plans the pre-gray
        // fabric generated.
        for _ in 0..spec.slowdowns {
            let server = rng.gen_range(spec.servers as u64) as usize;
            let (from, until) = window(&mut rng);
            plan = plan.with_slowdown(server, from, until, spec.slowdown_factor.max(2));
        }
        for _ in 0..spec.reply_partitions {
            let client = rng.gen_range(spec.clients as u64) as usize;
            let server = rng.gen_range(spec.servers as u64) as usize;
            let (from, until) = window(&mut rng);
            plan = plan.with_reply_partition(client, server, from, until);
        }
        for _ in 0..spec.flaps {
            let client = rng.gen_range(spec.clients as u64) as usize;
            let server = rng.gen_range(spec.servers as u64) as usize;
            let (from, until) = window(&mut rng);
            let period = (horizon / 128).max(2) + rng.gen_range((horizon / 64).max(1));
            plan = plan.with_flap(
                client,
                server,
                from,
                until,
                SimDuration::from_nanos(period),
                SimDuration::from_nanos(period / 2),
            );
        }
        // The tail policy copies straight across: pure config, no draws.
        plan.tail = spec.tail.clone();
        plan.validate(spec.servers, spec.clients);
        plan
    }
}

/// Shape of a generated chaos schedule (see [`FaultPlan::chaos`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Servers in the run (window targets are drawn from this range).
    pub servers: usize,
    /// Clients in the run.
    pub clients: usize,
    /// Length of the run being subjected to chaos; all windows land in
    /// its middle half.
    pub horizon: SimDuration,
    /// Number of server crash windows to schedule.
    pub server_crashes: usize,
    /// Probability that a server crash is amnesia rather than recover.
    pub amnesia_fraction: f64,
    /// Number of client crash windows to schedule.
    pub client_crashes: usize,
    /// Number of partition windows to schedule.
    pub partitions: usize,
    /// Background message-loss probability.
    pub drop_prob: f64,
    /// Background reply-duplication probability.
    pub dup_prob: f64,
    /// Background delivery jitter, in nanoseconds.
    pub jitter_ns: u64,
    /// Background request-leg corruption probability.
    pub flip_req_prob: f64,
    /// Background reply-leg corruption probability.
    pub flip_reply_prob: f64,
    /// Torn-write probability for WRITEs hitting crashed servers (only
    /// takes effect when the schedule includes server crashes).
    pub torn_write_prob: f64,
    /// Disk-tear probability for amnesia restarts (only takes effect
    /// when the drawn schedule includes an amnesia window).
    pub disk_torn_prob: f64,
    /// Number of at-rest disk bit-rot events to schedule.
    pub disk_rot_events: usize,
    /// Number of gray slowdown windows to schedule.
    pub slowdowns: usize,
    /// Latency multiplier for drawn slowdown windows (clamped to ≥ 2).
    pub slowdown_factor: u32,
    /// Number of one-way (reply-leg) partition windows to schedule.
    pub reply_partitions: usize,
    /// Number of flapping-link windows to schedule.
    pub flaps: usize,
    /// Tail-tolerance policy copied onto the generated plan.
    pub tail: TailPolicy,
}

impl ChaosSpec {
    /// The schedule with nothing in it: every count and probability
    /// zero, the tail policy off. A scenario names only the faults it
    /// wants (`ChaosSpec { server_crashes: 2, ..ChaosSpec::quiet(..) }`).
    pub fn quiet(servers: usize, clients: usize, horizon: SimDuration) -> Self {
        ChaosSpec {
            servers,
            clients,
            horizon,
            server_crashes: 0,
            amnesia_fraction: 0.0,
            client_crashes: 0,
            partitions: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter_ns: 0,
            flip_req_prob: 0.0,
            flip_reply_prob: 0.0,
            torn_write_prob: 0.0,
            disk_torn_prob: 0.0,
            disk_rot_events: 0,
            slowdowns: 0,
            slowdown_factor: 0,
            reply_partitions: 0,
            flaps: 0,
            tail: TailPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        let p = FaultPlan::default();
        assert!(p.is_noop());
        assert!(!p.crashed(0, SimTime::ZERO));
        assert!(!p.partitioned(0, 0, SimTime::ZERO));
    }

    #[test]
    fn seeded_plan_without_faults_is_still_noop() {
        // A timeout alone must not arm the fault layer: nothing can be
        // lost, so nothing can time out, and default runs stay
        // bit-identical.
        assert!(FaultPlan::seeded(7).is_noop());
        assert!(!FaultPlan::seeded(7).with_loss(0.01, 0.0).is_noop());
    }

    #[test]
    fn crash_window_is_half_open() {
        let p =
            FaultPlan::seeded(1).with_crash(2, SimTime::from_nanos(100), SimTime::from_nanos(200));
        assert!(!p.crashed(2, SimTime::from_nanos(99)));
        assert!(p.crashed(2, SimTime::from_nanos(100)));
        assert!(p.crashed(2, SimTime::from_nanos(199)));
        assert!(!p.crashed(2, SimTime::from_nanos(200)));
        assert!(!p.crashed(1, SimTime::from_nanos(150)));
    }

    #[test]
    fn partition_matches_exact_pair() {
        let p = FaultPlan::seeded(1).with_partition(3, 0, SimTime::ZERO, SimTime::from_nanos(50));
        assert!(p.partitioned(3, 0, SimTime::from_nanos(10)));
        assert!(!p.partitioned(3, 1, SimTime::from_nanos(10)));
        assert!(!p.partitioned(2, 0, SimTime::from_nanos(10)));
        assert!(!p.partitioned(3, 0, SimTime::from_nanos(50)));
    }

    #[test]
    #[should_panic(expected = "drop_prob out of range")]
    fn loss_probability_is_validated() {
        let _ = FaultPlan::seeded(1).with_loss(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_crash_window_rejected() {
        let _ = FaultPlan::seeded(1).with_crash(0, SimTime::from_nanos(5), SimTime::from_nanos(5));
    }

    #[test]
    fn amnesia_and_client_windows_arm_the_plan() {
        let t = SimTime::from_nanos;
        let p = FaultPlan::seeded(2).with_amnesia_crash(1, t(10), t(20));
        assert!(!p.is_noop());
        assert_eq!(p.crashes[0].mode, CrashMode::Amnesia);
        assert_eq!(p.amnesia_restarts(1), vec![t(20)]);
        assert!(p.amnesia_restarts(0).is_empty());
        // A recover crash schedules no amnesia restart.
        let p = FaultPlan::seeded(2).with_crash(0, t(10), t(20));
        assert!(p.amnesia_restarts(0).is_empty());

        let p = FaultPlan::seeded(3).with_client_crash(4, t(30), t(50));
        assert!(!p.is_noop());
        assert!(p.client_crashed(4, t(30)));
        assert!(p.client_crashed(4, t(49)));
        assert!(!p.client_crashed(4, t(50)));
        assert!(!p.client_crashed(3, t(40)));
        assert_eq!(p.client_restarts(4), vec![t(50)]);
    }

    #[test]
    #[should_panic(expected = "names server 3 but the run has 2")]
    fn validate_rejects_out_of_range_server() {
        FaultPlan::seeded(1)
            .with_crash(3, SimTime::ZERO, SimTime::from_nanos(1))
            .validate(2, 4);
    }

    #[test]
    #[should_panic(expected = "names client 9 but the run has 4")]
    fn validate_rejects_out_of_range_client() {
        FaultPlan::seeded(1)
            .with_client_crash(9, SimTime::ZERO, SimTime::from_nanos(1))
            .validate(2, 4);
    }

    #[test]
    #[should_panic(expected = "partition names client")]
    fn validate_rejects_out_of_range_partition_client() {
        FaultPlan::seeded(1)
            .with_partition(7, 0, SimTime::ZERO, SimTime::from_nanos(1))
            .validate(2, 4);
    }

    #[test]
    fn corruption_modes_arm_the_plan() {
        let t = SimTime::from_nanos;
        assert!(FaultPlan::seeded(1).with_flips(0.0, 0.0).is_noop());
        assert!(!FaultPlan::seeded(1).with_flips(0.01, 0.0).is_noop());
        assert!(!FaultPlan::seeded(1).with_flips(0.0, 0.01).is_noop());
        let p = FaultPlan::seeded(1)
            .with_crash(0, t(10), t(20))
            .with_torn_writes(0.5);
        assert!(!p.is_noop() && p.injects_corruption());
        let p =
            FaultPlan::seeded(1)
                .with_crash(0, t(10), t(20))
                .with_rot(0, t(15), 0x1_0000, 64, 3);
        assert!(p.injects_corruption());
        p.validate(1, 1);
        // Loss-only plans report no corruption, so the harness draws
        // nothing from the corruption streams for them.
        assert!(!FaultPlan::seeded(1)
            .with_loss(0.1, 0.1)
            .injects_corruption());
    }

    #[test]
    #[should_panic(expected = "flip_req_prob out of range")]
    fn flip_probability_is_validated() {
        let _ = FaultPlan::seeded(1).with_flips(2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "torn writes armed but no crash window")]
    fn torn_writes_require_a_crash_window() {
        FaultPlan::seeded(1).with_torn_writes(0.5).validate(2, 2);
    }

    #[test]
    fn disk_faults_arm_the_plan() {
        let t = SimTime::from_nanos;
        let p = FaultPlan::seeded(1)
            .with_amnesia_crash(0, t(10), t(20))
            .with_disk_torn_writes(0.5);
        assert!(!p.is_noop() && p.injects_disk_faults());
        assert!(!p.injects_corruption(), "disk faults are their own class");
        p.validate(1, 1);
        let p = FaultPlan::seeded(1).with_disk_rot(0, t(30), 2);
        assert!(!p.is_noop() && p.injects_disk_faults());
        // Disk rot needs no crash window: the damage is at rest.
        p.validate(1, 1);
    }

    #[test]
    #[should_panic(expected = "disk tears armed but no amnesia window")]
    fn disk_tears_require_an_amnesia_window() {
        let t = SimTime::from_nanos;
        // A recover window is not enough: recover restarts never replay.
        FaultPlan::seeded(1)
            .with_crash(0, t(10), t(20))
            .with_disk_torn_writes(0.5)
            .validate(2, 2);
    }

    #[test]
    #[should_panic(expected = "disk rot event names server 7")]
    fn disk_rot_on_unknown_server_rejected() {
        FaultPlan::seeded(1)
            .with_disk_rot(7, SimTime::from_nanos(5), 1)
            .validate(2, 2);
    }

    #[test]
    #[should_panic(expected = "outside every crash window")]
    fn rot_outside_crash_windows_rejected() {
        let t = SimTime::from_nanos;
        FaultPlan::seeded(1)
            .with_crash(0, t(10), t(20))
            .with_rot(0, t(25), 0x1_0000, 64, 1)
            .validate(2, 2)
    }

    #[test]
    #[should_panic(expected = "rot event names server 5")]
    fn rot_on_unknown_server_rejected() {
        let t = SimTime::from_nanos;
        let mut p = FaultPlan::seeded(1).with_crash(1, t(10), t(20));
        p.rot.push(RotEvent {
            server: 5,
            at: t(15),
            addr: 0x1_0000,
            len: 64,
            bits: 1,
        });
        p.validate(2, 2)
    }

    // Satellite: window-composition semantics under overlap and shared
    // boundaries. Any set of windows must behave as the half-open union
    // of its members — crashed(s, t) iff some window [from, until)
    // contains t — with adjacency ([a,b) + [b,c)) leaving no gap at b
    // and no coverage at c.
    prism_testkit::prop_check!(
        window_composition_is_half_open_union,
        cases = 128,
        prism_testkit::gens::vec(
            prism_testkit::gens::t3(
                prism_testkit::gens::range_u64(0..3),  // server
                prism_testkit::gens::range_u64(0..60), // from
                prism_testkit::gens::range_u64(1..40), // length
            ),
            1..6,
        ),
        |windows: &Vec<(u64, u64, u64)>| {
            let mut plan = FaultPlan::seeded(11);
            for &(server, from, len) in windows {
                plan = plan.with_crash(
                    server as usize,
                    SimTime::from_nanos(from),
                    SimTime::from_nanos(from + len),
                );
            }
            for server in 0..3usize {
                for t in 0..110u64 {
                    let expect = windows
                        .iter()
                        .any(|&(s, from, len)| s as usize == server && t >= from && t < from + len);
                    assert_eq!(
                        plan.crashed(server, SimTime::from_nanos(t)),
                        expect,
                        "server {server} at t={t}"
                    );
                }
            }
            // Adjacent windows sharing a boundary: appending [until,
            // until+len) to the first window leaves no gap at the shared
            // edge, and coverage stays exactly the union (the far edge
            // is covered only if some *other* window already covers it).
            if let Some(&(s, from, len)) = windows.first() {
                let p2 = plan.clone().with_crash(
                    s as usize,
                    SimTime::from_nanos(from + len),
                    SimTime::from_nanos(from + 2 * len),
                );
                assert!(p2.crashed(s as usize, SimTime::from_nanos(from + len)));
                let far = from + 2 * len;
                let covered_elsewhere = windows
                    .iter()
                    .any(|&(s2, f2, l2)| s2 == s && far >= f2 && far < f2 + l2);
                assert_eq!(
                    p2.crashed(s as usize, SimTime::from_nanos(far)),
                    covered_elsewhere
                );
            }
        }
    );

    // Satellite: the chaos generator is a pure function of (seed, spec),
    // and every generated plan validates against its own topology with
    // windows inside the horizon.
    prism_testkit::prop_check!(
        chaos_schedules_are_deterministic_and_in_range,
        cases = 64,
        prism_testkit::gens::t2(
            prism_testkit::gens::u64s(),
            prism_testkit::gens::range_u64(0..4),
        ),
        |&(seed, knobs): &(u64, u64)| {
            let spec = ChaosSpec {
                servers: 3,
                clients: 4,
                horizon: SimDuration::micros(500),
                server_crashes: knobs as usize,
                amnesia_fraction: 0.5,
                client_crashes: knobs as usize,
                partitions: knobs as usize,
                drop_prob: 0.01,
                dup_prob: 0.005,
                jitter_ns: 100,
                flip_req_prob: 0.002,
                flip_reply_prob: 0.002,
                torn_write_prob: 0.5,
                disk_torn_prob: 0.5,
                disk_rot_events: knobs as usize,
                slowdowns: knobs as usize,
                slowdown_factor: 8,
                reply_partitions: knobs as usize,
                flaps: knobs as usize,
                tail: TailPolicy {
                    adaptive_timeout: true,
                    hedge: true,
                    admission_ns: 50_000,
                    retry_deadline: SimDuration::micros(300),
                },
            };
            let a = FaultPlan::chaos(seed, &spec);
            let b = FaultPlan::chaos(seed, &spec);
            assert_eq!(a, b, "same (seed, spec) must produce identical plans");
            assert_eq!(a.flip_req_prob, spec.flip_req_prob);
            assert_eq!(
                a.torn_write_prob,
                if a.crashes.is_empty() { 0.0 } else { 0.5 },
                "torn writes only armed when a crash window exists"
            );
            assert_eq!(
                a.disk_torn_prob,
                if a.crashes.iter().any(|w| w.mode == CrashMode::Amnesia) {
                    0.5
                } else {
                    0.0
                },
                "disk tears only armed when an amnesia window exists"
            );
            assert_eq!(a.disk_rot.len(), spec.disk_rot_events);
            // Corruption and disk knobs draw nothing (disk rot draws
            // come last): zeroing them reproduces the exact same
            // windows.
            let mut clean_spec = spec.clone();
            clean_spec.flip_req_prob = 0.0;
            clean_spec.flip_reply_prob = 0.0;
            clean_spec.torn_write_prob = 0.0;
            clean_spec.disk_torn_prob = 0.0;
            clean_spec.disk_rot_events = 0;
            clean_spec.slowdowns = 0;
            clean_spec.reply_partitions = 0;
            clean_spec.flaps = 0;
            clean_spec.tail = TailPolicy::default();
            let clean = FaultPlan::chaos(seed, &clean_spec);
            assert_eq!(clean.crashes, a.crashes);
            assert_eq!(clean.partitions, a.partitions);
            assert_eq!(clean.client_crashes, a.client_crashes);
            assert!(clean.disk_rot.is_empty() && clean.disk_torn_prob == 0.0);
            assert!(!clean.injects_gray() && clean.tail.is_off());
            // Gray draws come last: zeroing only the gray knobs leaves
            // every older class (disk rot included) byte-identical.
            let mut gray_free = spec.clone();
            gray_free.slowdowns = 0;
            gray_free.reply_partitions = 0;
            gray_free.flaps = 0;
            gray_free.tail = TailPolicy::default();
            let gf = FaultPlan::chaos(seed, &gray_free);
            assert_eq!(gf.crashes, a.crashes);
            assert_eq!(gf.partitions, a.partitions);
            assert_eq!(gf.client_crashes, a.client_crashes);
            assert_eq!(gf.disk_rot, a.disk_rot);
            assert!(!gf.injects_gray());
            assert_eq!(a.crashes.len(), spec.server_crashes);
            assert_eq!(a.client_crashes.len(), spec.client_crashes);
            assert_eq!(a.partitions.len(), spec.partitions);
            assert_eq!(a.slowdowns.len(), spec.slowdowns);
            assert_eq!(a.reply_partitions.len(), spec.reply_partitions);
            assert_eq!(a.flaps.len(), spec.flaps);
            assert_eq!(a.tail, spec.tail);
            let horizon = spec.horizon.as_nanos();
            for w in &a.crashes {
                assert!(w.from < w.until && w.until.as_nanos() < horizon);
            }
            for w in &a.client_crashes {
                assert!(w.from < w.until && w.until.as_nanos() < horizon);
            }
            for p in &a.partitions {
                assert!(p.from < p.until && p.until.as_nanos() < horizon);
            }
            for w in &a.slowdowns {
                assert!(w.from < w.until && w.until.as_nanos() < horizon);
                assert!(w.factor >= 2);
            }
            for p in &a.reply_partitions {
                assert!(p.from < p.until && p.until.as_nanos() < horizon);
            }
            for f in &a.flaps {
                assert!(f.from < f.until && f.until.as_nanos() < horizon);
                assert!(f.up < f.period);
            }
        }
    );

    #[test]
    fn gray_windows_arm_the_plan() {
        let t = SimTime::from_nanos;
        let p = FaultPlan::seeded(5).with_slowdown(1, t(100), t(200), 8);
        assert!(!p.is_noop() && p.injects_gray());
        assert_eq!(p.slowdown_factor(1, t(99)), 1);
        assert_eq!(p.slowdown_factor(1, t(100)), 8);
        assert_eq!(p.slowdown_factor(1, t(199)), 8);
        assert_eq!(p.slowdown_factor(1, t(200)), 1);
        assert_eq!(p.slowdown_factor(0, t(150)), 1);
        // Overlapping windows take the worst factor.
        let p = p.with_slowdown(1, t(150), t(180), 16);
        assert_eq!(p.slowdown_factor(1, t(160)), 16);
        assert_eq!(p.slowdown_factor(1, t(190)), 8);
        p.validate(2, 1);

        let p = FaultPlan::seeded(5).with_reply_partition(2, 0, t(10), t(50));
        assert!(!p.is_noop() && p.injects_gray());
        assert!(p.reply_partitioned(2, 0, t(10)));
        assert!(p.reply_partitioned(2, 0, t(49)));
        assert!(!p.reply_partitioned(2, 0, t(50)));
        // The request leg stays up: that is what makes it one-way.
        assert!(!p.partitioned(2, 0, t(20)));
        p.validate(1, 3);
    }

    #[test]
    fn flap_duty_cycle_is_deterministic() {
        let t = SimTime::from_nanos;
        let p = FaultPlan::seeded(5).with_flap(
            0,
            1,
            t(100),
            t(300),
            SimDuration::from_nanos(40),
            SimDuration::from_nanos(10),
        );
        assert!(!p.is_noop() && p.injects_gray());
        // Cycle 1: up [100,110), down [110,140). Both legs sever in the
        // down phase.
        for (at, down) in [(100, false), (109, false), (110, true), (139, true)] {
            assert_eq!(p.partitioned(0, 1, t(at)), down, "req leg at t={at}");
            assert_eq!(
                p.reply_partitioned(0, 1, t(at)),
                down,
                "reply leg at t={at}"
            );
        }
        // Cycle 2 repeats the pattern; outside the window the link is up.
        assert!(!p.partitioned(0, 1, t(140)));
        assert!(p.partitioned(0, 1, t(150)));
        assert!(!p.partitioned(0, 1, t(300)));
        assert!(!p.partitioned(1, 1, t(115)), "other client unaffected");
        p.validate(2, 1);
    }

    #[test]
    fn tail_policy_arms_the_plan() {
        let mut p = FaultPlan::seeded(5);
        assert!(p.is_noop());
        p.tail.adaptive_timeout = true;
        assert!(!p.is_noop(), "adaptive timeouts change event timing");
        let p = FaultPlan::seeded(5).with_tail_policy(TailPolicy {
            hedge: true,
            ..TailPolicy::default()
        });
        assert!(!p.is_noop() && !p.injects_gray());
    }

    #[test]
    #[should_panic(expected = "slowdown factor below 2")]
    fn unit_slowdown_factor_rejected() {
        let _ = FaultPlan::seeded(1).with_slowdown(0, SimTime::ZERO, SimTime::from_nanos(1), 1);
    }

    #[test]
    #[should_panic(expected = "flap up phase must leave a down phase")]
    fn flap_without_down_phase_rejected() {
        let _ = FaultPlan::seeded(1).with_flap(
            0,
            0,
            SimTime::ZERO,
            SimTime::from_nanos(100),
            SimDuration::from_nanos(10),
            SimDuration::from_nanos(10),
        );
    }

    #[test]
    #[should_panic(expected = "slowdown window names server 4")]
    fn slowdown_on_unknown_server_rejected() {
        FaultPlan::seeded(1)
            .with_slowdown(4, SimTime::ZERO, SimTime::from_nanos(1), 4)
            .validate(2, 2);
    }

    #[test]
    #[should_panic(expected = "reply partition names client 9")]
    fn reply_partition_on_unknown_client_rejected() {
        FaultPlan::seeded(1)
            .with_reply_partition(9, 0, SimTime::ZERO, SimTime::from_nanos(1))
            .validate(2, 4);
    }
}
