//! The server side of the simulation: [`ServerActor`] executes requests
//! against a real [`PrismServer`], charges link, core, and PCIe time for
//! them, applies the reply-leg faults of a [`FaultPlan`], and runs the
//! recovery hooks a run installs.

use std::sync::Arc;

use prism_core::engine::PendingHint;
use prism_core::integrity::IntegrityStats;
use prism_core::msg::{self, Reply, Request};
use prism_core::op::{DataArg, PrismOp};
use prism_core::PrismServer;
use prism_rdma::RdmaError;
use prism_simnet::engine::{Actor, ActorId, Context};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::resources::{LinkShaper, ServiceCenter};
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_store::DurableStats;

use super::{post_delay, SimMsg};

/// A recovery callback invoked with the server index.
pub type ServerHook = Arc<dyn Fn(usize) + Send + Sync>;

/// A disk-tear callback invoked with the server index and a dedicated
/// randomness stream (tear-point draws must never touch the request
/// schedule's RNGs).
pub type DiskHook = Arc<dyn Fn(usize, &mut SimRng) + Send + Sync>;

/// A disk-rot callback: server index, the event's seeded stream, and
/// the number of bits to flip.
pub type DiskRotHook = Arc<dyn Fn(usize, &mut SimRng, u32) + Send + Sync>;

/// Recovery-protocol hooks a run installs on its servers.
///
/// The default has no hooks and schedules zero extra events, so every
/// existing experiment stays bit-identical to a build without the
/// recovery layer.
#[derive(Clone, Default)]
pub struct RecoveryHooks {
    /// Invoked with the server's index at each amnesia-window close,
    /// *instead of* the bare [`PrismServer::amnesia_restart`]: the
    /// application-level rejoin (wipe, re-register, quorum resync) runs
    /// here, and completes before any post-restart request is served.
    pub on_restart: Option<ServerHook>,
    /// Periodic server-side recovery sweep: `(interval, callback)`.
    /// The callback runs with the server's index every interval of
    /// virtual time, on every server.
    pub sweep: Option<(SimDuration, ServerHook)>,
    /// Value-layer integrity counters shared with the run's protocol
    /// clients (via their `with_integrity` constructors). Reset at the
    /// warmup/measure boundary and folded into the corruption fields of
    /// [`super::RunResult`] alongside the fabric's frame-level counters.
    pub integrity: Option<Arc<IntegrityStats>>,
    /// One-shot control-plane event: `(instant, callback)`. The
    /// callback runs exactly once at the instant, synchronously inside
    /// the DES (scheduled on server actor 0, drawing no randomness), so
    /// everything it does — e.g. a live [`crate::cluster`] migration:
    /// grow, stream, fence, epoch flip, map publish — is atomic with
    /// respect to every request: traffic sent before the instant
    /// arrives after it stamped with the old epoch and is fenced.
    pub control: Option<(SimTime, Arc<dyn Fn() + Send + Sync>)>,
    /// Tears the server's durable segment log at an amnesia-window
    /// close, when the plan's `disk_torn_prob` fires: invoked with the
    /// server index and the actor's dedicated disk-fault stream,
    /// *before* `on_restart`, so the rejoin replays the damaged log.
    pub disk_tear: Option<DiskHook>,
    /// Applies at-rest rot to the server's segment log for one
    /// [`prism_simnet::fault::DiskRotEvent`]: invoked with the server
    /// index, the event's own seeded stream, and the bit count.
    pub disk_rot: Option<DiskRotHook>,
    /// Durable-recovery counters shared with the run's clusters (via
    /// their `durable_stats` accessors). Reset at the warmup/measure
    /// boundary and folded into the replay/delta-resync fields of
    /// [`super::RunResult`].
    pub durable: Option<Arc<DurableStats>>,
}

impl std::fmt::Debug for RecoveryHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryHooks")
            .field("on_restart", &self.on_restart.is_some())
            .field("sweep_interval", &self.sweep.as_ref().map(|(i, _)| *i))
            .field("integrity", &self.integrity.is_some())
            .field("control_at", &self.control.as_ref().map(|(t, _)| *t))
            .field("disk_tear", &self.disk_tear.is_some())
            .field("disk_rot", &self.disk_rot.is_some())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

/// Whether one-sided verbs execute on the NIC or on dispatch cores
/// ("software RDMA" baselines, §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbPath {
    /// Hardware NIC: one PCIe round trip, no core occupancy.
    Nic,
    /// Software stack: DMA to host plus a dispatch-core execution.
    Cpu,
}

/// A host in the simulation: executes requests against its real
/// [`PrismServer`] and charges simulated time for them.
pub struct ServerActor {
    server: Arc<PrismServer>,
    model: CostModel,
    verb_path: VerbPath,
    rx: LinkShaper,
    tx: LinkShaper,
    cores: ServiceCenter,
    /// This server's index in the experiment's server list (the
    /// identity [`FaultPlan`] crash windows refer to).
    index: usize,
    faults: FaultPlan,
    /// Fault randomness is drawn from a dedicated stream forked off the
    /// plan's seed, never from the kernel RNG, so a no-fault plan
    /// leaves every existing schedule bit-identical.
    fault_rng: SimRng,
    /// Corruption randomness (reply-leg flips, torn-write line counts)
    /// gets its own stream on top: arming the corruption modes must not
    /// perturb where an existing plan's drops and jitter land.
    corrupt_rng: SimRng,
    /// Disk-fault randomness (tear fire/point draws) on its own stream
    /// again: arming the durable-tier faults must not perturb where the
    /// memory-level corruption of an existing plan lands.
    disk_rng: SimRng,
    hooks: RecoveryHooks,
    /// Stage two of the lookahead hint for the request shown last,
    /// owed until the next request is shown or delivered — by then the
    /// pointer line stage one asked for has had time to arrive. Host
    /// cache state only: nothing simulated reads it.
    pending_hint: Option<PendingHint>,
}

impl ServerActor {
    /// Creates a host actor. `index` is the server's position in the
    /// experiment's server list, which is how [`FaultPlan`] crash
    /// windows name it.
    pub fn new(
        server: Arc<PrismServer>,
        model: CostModel,
        verb_path: VerbPath,
        index: usize,
        faults: FaultPlan,
        hooks: RecoveryHooks,
    ) -> Self {
        let gbps = model.link_gbps;
        let cores = ServiceCenter::new(model.server_cores);
        let fault_rng = SimRng::new(faults.seed ^ 0x5E7E_C7ED ^ ((index as u64 + 1) << 24));
        let corrupt_rng = SimRng::new(faults.seed ^ 0xB17F_0B17 ^ ((index as u64 + 1) << 24));
        let disk_rng = SimRng::new(faults.seed ^ 0xD15C_7EA2 ^ ((index as u64 + 1) << 24));
        ServerActor {
            server,
            model,
            verb_path,
            rx: LinkShaper::new_gbps(gbps),
            tx: LinkShaper::new_gbps(gbps),
            cores,
            index,
            faults,
            fault_rng,
            corrupt_rng,
            disk_rng,
            hooks,
            pending_hint: None,
        }
    }

    /// Follows the pointer of the request hinted last, if one is owed.
    fn resolve_hint(&mut self) {
        if let Some(pending) = self.pending_hint.take() {
            self.server.engine().hint_target(pending);
        }
    }

    /// Decomposes `req`'s processing into `(dma, occupancy, post)`:
    /// `dma` precedes core admission, `occupancy` holds a dispatch core
    /// (None = hardware NIC path), and `post` is latency beyond the
    /// occupied interval (polling/dispatch slack). Unloaded end-to-end
    /// latency is `dma + occupancy + post`, matching the closed forms of
    /// [`CostModel`].
    fn processing(&self, req: &Request) -> (SimDuration, Option<SimDuration>, SimDuration) {
        let m = &self.model;
        match req {
            Request::Verb(v) => match self.verb_path {
                // Hardware atomics serialize a read-modify-write on the
                // NIC and measure slightly slower than READs (Kalia et
                // al.'s design guidelines; visible in Figure 1's CAS bar).
                VerbPath::Nic => {
                    let extra = if matches!(v, msg::Verb::Cas64 { .. }) {
                        SimDuration::from_nanos(300)
                    } else {
                        SimDuration::ZERO
                    };
                    (m.pcie_rt + extra, None, SimDuration::ZERO)
                }
                VerbPath::Cpu => {
                    // Executed like a 1-op chain on a dispatch core.
                    let occ = m.prism_chain_occupancy(1);
                    (m.host_dma, Some(occ), m.sw_chain_latency(1) - occ)
                }
            },
            Request::Chain(c) => {
                let n = c.len().max(1) as u64;
                let occ = m.prism_chain_occupancy(n);
                (m.host_dma, Some(occ), m.sw_chain_latency(n) - occ)
            }
            Request::Rpc(_) => (m.host_dma, Some(m.rpc_core_occupancy), m.rpc_dispatch),
        }
    }

    /// Refuses a request unexecuted with a typed error reply: the frame
    /// finished arriving at `rx_done`, the NACK is turned around after
    /// one host DMA and serialized through the tx link like any reply,
    /// stamped with the incarnation in force.
    fn nack(
        &mut self,
        to: ActorId,
        tag: u64,
        attempt: u64,
        rx_done: SimTime,
        err: RdmaError,
        ctx: &mut Context<'_, SimMsg>,
    ) {
        let inc = self.server.regions().current_incarnation();
        let reply = Reply::Verb(Err(err));
        let tx_done = self.tx.transmit(
            rx_done + self.model.host_dma,
            reply.wire_len() + self.model.header_bytes,
        );
        ctx.send_at(
            to,
            tx_done + post_delay(&self.model),
            SimMsg::Reply {
                tag,
                attempt,
                server: self.index,
                inc,
                reply,
            },
        );
    }
}

impl Actor<SimMsg> for ServerActor {
    fn on_start(&mut self, ctx: &mut Context<'_, SimMsg>) {
        let me = ctx.self_id();
        // Amnesia restarts fire at each window's closing edge. `on_start`
        // events enqueue ahead of all message traffic, so a restart at
        // time T delivers before requests arriving at T: the half-open
        // window guarantees those requests see the new incarnation.
        for at in self.faults.amnesia_restarts(self.index) {
            ctx.send_at(me, at, SimMsg::Restart);
        }
        for (i, ev) in self.faults.rot.iter().enumerate() {
            if ev.server == self.index {
                ctx.send_at(me, ev.at, SimMsg::Rot(i));
            }
        }
        for (i, ev) in self.faults.disk_rot.iter().enumerate() {
            if ev.server == self.index {
                ctx.send_at(me, ev.at, SimMsg::DiskRot(i));
            }
        }
        if let Some((interval, _)) = &self.hooks.sweep {
            ctx.send_in(me, *interval, SimMsg::Sweep);
        }
        // The control event is global, so exactly one actor schedules it.
        if self.index == 0 {
            if let Some((at, _)) = &self.hooks.control {
                ctx.send_at(me, *at, SimMsg::Control);
            }
        }
    }

    fn on_message(&mut self, msg: SimMsg, ctx: &mut Context<'_, SimMsg>) {
        let (from, tag, attempt, req, respond, corrupt, epoch) = match msg {
            SimMsg::Req {
                from,
                tag,
                attempt,
                req,
                respond,
                corrupt,
                epoch,
            } => (from, tag, attempt, req, respond, corrupt, epoch),
            SimMsg::Control => {
                // Control plane, not this host's process: runs even
                // inside a crash window (the driver is external), draws
                // no randomness, and completes atomically before the
                // next data-plane event.
                if let Some((_, f)) = &self.hooks.control {
                    f();
                }
                ctx.metrics().add("control_events", 1);
                return;
            }
            SimMsg::Rot(i) => {
                // At-rest bit rot: seeded positions inside the event's
                // byte range flip while the host is down. The positions
                // come from a per-event stream, so request traffic never
                // perturbs where the rot lands.
                let (addr, len, bits) = {
                    let ev = &self.faults.rot[i];
                    (ev.addr, ev.len, ev.bits)
                };
                let mut rng = SimRng::new(self.faults.seed ^ 0xB17F_707E ^ ((i as u64 + 1) << 8));
                for _ in 0..bits {
                    let off = rng.gen_range(len);
                    let bit = rng.gen_range(8) as u8;
                    let _ = self.server.arena().flip_bit(addr + off, bit);
                }
                ctx.metrics().add("fault_corrupt_injected", 1);
                return;
            }
            SimMsg::DiskRot(i) => {
                // At-rest rot on the durable segment log: bit positions
                // come from a per-event stream, so request traffic never
                // perturbs where the rot lands. The damage is latent —
                // it only bites when a later amnesia replay hits the
                // corrupt frame and the CRC rejects it.
                let bits = self.faults.disk_rot[i].bits;
                let mut rng = SimRng::new(self.faults.seed ^ 0xD15C_0707 ^ ((i as u64 + 1) << 8));
                if let Some(f) = &self.hooks.disk_rot {
                    f(self.index, &mut rng, bits);
                    ctx.metrics().add("fault_disk_rot_events", 1);
                }
                return;
            }
            SimMsg::Restart => {
                // The amnesia window closed: the host reboots empty
                // under a bumped incarnation. The rejoin hook (if any)
                // runs the application-level recovery — wipe,
                // re-register, quorum resync — before any post-restart
                // request is processed. Restarts run even if another
                // crash window still covers this instant: the wipe is
                // what the overlapping window's requests must not see
                // surviving.
                //
                // Disk tears fire first: the crash that took the host
                // down also cut whatever the log was flushing mid-write,
                // and the rejoin below must replay the *damaged* log.
                if self.faults.disk_torn_prob > 0.0
                    && self.disk_rng.gen_bool(self.faults.disk_torn_prob)
                {
                    if let Some(f) = &self.hooks.disk_tear {
                        f(self.index, &mut self.disk_rng);
                        ctx.metrics().add("fault_disk_tears", 1);
                    }
                }
                ctx.metrics().add("fault_restarts", 1);
                match &self.hooks.on_restart {
                    Some(f) => f(self.index),
                    None => {
                        self.server.amnesia_restart();
                    }
                }
                return;
            }
            SimMsg::Sweep => {
                if let Some((interval, f)) = self.hooks.sweep.clone() {
                    f(self.index);
                    let me = ctx.self_id();
                    ctx.send_in(me, interval, SimMsg::Sweep);
                }
                return;
            }
            _ => unreachable!("servers only receive requests"),
        };
        // A sender gone quiet must not leave its last hint half done.
        self.resolve_hint();
        let now = ctx.now();
        // Crash windows gate request execution *before* the
        // linearization point: a crashed server neither executes nor
        // replies (its memory survives the window — fail-recover). The
        // client's timeout turns the silence into an error reply.
        if self.faults.crashed(self.index, now) {
            if self.faults.torn_write_prob > 0.0
                && self.corrupt_rng.gen_bool(self.faults.torn_write_prob)
            {
                if let Some(torn) = tear_request(&req, &mut self.corrupt_rng) {
                    // The host died mid-DMA: a prefix of the payload's
                    // 64-byte line groups landed, the rest of the write
                    // — and every later op of the chain — did not. No
                    // reply; the client's timeout turns the silence
                    // into a retry against different state.
                    ctx.metrics().add("fault_corrupt_injected", 1);
                    ctx.metrics().add("fault_torn_writes", 1);
                    msg::execute_local(&self.server, &torn);
                    return;
                }
            }
            ctx.metrics().add("fault_crash_drops", 1);
            return;
        }
        if corrupt {
            // The frame failed its CRC check at the receiving NIC:
            // NACK (or silently discard fire-and-forget traffic)
            // without executing — damaged requests never reach the
            // execution engine, so they cannot corrupt server state.
            if respond {
                let rx_done = self
                    .rx
                    .transmit(now, req.wire_len() + self.model.header_bytes);
                self.nack(from, tag, attempt, rx_done, RdmaError::Corrupt, ctx);
            }
            return;
        }
        // Epoch fencing: a request stamped with an older shard-map
        // epoch was routed by a client that has not yet learned of a
        // reshard, so the key it targets may live elsewhere now. The
        // deterministic NACK (the routing analog of the incarnation
        // fence) is sent *before* execution — a stale-routed write
        // must not land, a stale-routed read must not answer.
        // Epoch 0 marks unsharded traffic and is never fenced.
        let current_epoch = self.server.current_epoch();
        if epoch != 0 && epoch < current_epoch {
            ctx.metrics().add("epoch_fenced", 1);
            if respond {
                let rx_done = self
                    .rx
                    .transmit(now, req.wire_len() + self.model.header_bytes);
                let err = RdmaError::StaleEpoch {
                    seen: epoch,
                    current: current_epoch,
                };
                self.nack(from, tag, attempt, rx_done, err, ctx);
            }
            return;
        }
        // Inbound serialization through this host's rx direction
        // (payload plus per-message wire headers).
        let rx_done = self
            .rx
            .transmit(now, req.wire_len() + self.model.header_bytes);
        // Processing: DMA, then (for software paths) a FIFO dispatch-core
        // occupancy, then post-execution slack.
        let (dma, occupancy, post) = self.processing(&req);
        // Gray-failure slowdown: a covering window stretches this host's
        // processing — DMA, core occupancy, dispatch slack — by the
        // window's factor. The host stays alive and correct, it is just
        // slow; the stretched occupancy is also what backs convoys up
        // behind a straggling server. Pure schedule data, no RNG draw,
        // so window-free plans stay bit-identical.
        let slow = self.faults.slowdown_factor(self.index, now);
        let (dma, occupancy, post) = if slow > 1 {
            ctx.metrics().add("fault_slowdown_hits", 1);
            (dma * slow, occupancy.map(|o| o * slow), post * slow)
        } else {
            (dma, occupancy, post)
        };
        // Admission control: when the plan bounds the dispatch queue, a
        // request whose queueing delay would exceed the bound is refused
        // with a typed Busy NACK *before* execution and without
        // consuming a core — a degraded server fails fast instead of
        // building a convoy. Hardware-path verbs never queue on cores
        // and are never refused.
        if self.faults.tail.admission_ns > 0 && respond {
            if let Some(_occ) = occupancy {
                let wait = self.cores.would_wait(rx_done + dma);
                if wait.as_nanos() > self.faults.tail.admission_ns {
                    ctx.metrics().add("busy_nacks", 1);
                    let err = RdmaError::Busy {
                        wait_ns: wait.as_nanos(),
                    };
                    self.nack(from, tag, attempt, rx_done, err, ctx);
                    return;
                }
            }
        }
        let proc_done = match occupancy {
            Some(occ) => self.cores.admit(rx_done + dma, occ) + post,
            None => rx_done + dma + post,
        };
        // The real execution against real memory happens "at" the
        // processing instant; the DES serializes actor callbacks so this
        // is the operation's linearization point.
        let mut reply = msg::execute_local(&self.server, &req);
        if respond {
            // Replies are stamped with the incarnation in force when
            // they leave: a reply executed before an amnesia restart
            // but delivered after carries the old stamp, which is
            // exactly what lets the client fence it.
            let inc = self.server.regions().current_incarnation();
            let tx_done = self
                .tx
                .transmit(proc_done, reply.wire_len() + self.model.header_bytes);
            let mut post = post_delay(&self.model);
            if !self.faults.is_noop() {
                // Reply-leg faults. The request already executed (the
                // linearization point is above), so a dropped reply
                // models the classic "did it happen?" ambiguity.
                // Duplication is injected on this leg only: duplicating
                // the *request* leg would re-execute non-idempotent
                // ALLOCATE chains.
                if self.faults.drop_prob > 0.0 && self.fault_rng.gen_bool(self.faults.drop_prob) {
                    ctx.metrics().add("fault_drops", 1);
                    return;
                }
                if self.faults.jitter_ns > 0 {
                    post +=
                        SimDuration::from_nanos(self.fault_rng.gen_range(self.faults.jitter_ns));
                }
                if self.faults.dup_prob > 0.0 && self.fault_rng.gen_bool(self.faults.dup_prob) {
                    ctx.metrics().add("fault_dups", 1);
                    let extra = SimDuration::from_nanos(
                        self.fault_rng.gen_range(self.faults.jitter_ns.max(1_000)),
                    );
                    ctx.send_at(
                        from,
                        tx_done + post + extra,
                        SimMsg::Reply {
                            tag,
                            attempt,
                            server: self.index,
                            inc,
                            // The duplicate carries the clean copy: the
                            // flip below damages one frame, not the
                            // operation's every delivery.
                            reply: reply.clone(),
                        },
                    );
                }
                if self.faults.flip_reply_prob > 0.0
                    && self.corrupt_rng.gen_bool(self.faults.flip_reply_prob)
                {
                    // In-flight reply corruption, applied to the real
                    // encoded frame: flip one seeded bit and verify the
                    // frame CRCs catch it (they provably do for any
                    // single-bit flip — detection is counted at the
                    // injection site for exactly that reason). What the
                    // client receives is the typed Corrupt NACK its
                    // decode failure would synthesize.
                    ctx.metrics().add("fault_corrupt_injected", 1);
                    ctx.metrics().add("fault_corrupt_detected", 1);
                    if let Ok(mut bytes) = reply.encode() {
                        let pos = self.corrupt_rng.gen_range(bytes.len() as u64 * 8);
                        bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
                        debug_assert!(
                            Reply::decode(&bytes).is_err(),
                            "a single-bit flip must not survive the frame CRCs"
                        );
                    }
                    reply = Reply::Verb(Err(RdmaError::Corrupt));
                }
            }
            ctx.send_at(
                from,
                tx_done + post,
                SimMsg::Reply {
                    tag,
                    attempt,
                    server: self.index,
                    inc,
                    reply,
                },
            );
        }
    }

    /// The request is still a wire delay away, which is tens of host
    /// events: start its cache misses now, so execution finds memory
    /// the way a server finds it after a NIC's DMA or a dispatcher's
    /// poll-ahead (DESIGN.md §8). Depth one — stage one for this
    /// request, stage two for the one shown before it — because the
    /// pointer word must arrive before it can be followed, and one
    /// send's worth of host time is enough for that. A frame that will
    /// fail its CRC is never executed, so it is not hinted.
    fn lookahead(&mut self, msg: &SimMsg) {
        if let SimMsg::Req {
            req,
            corrupt: false,
            ..
        } = msg
        {
            self.resolve_hint();
            self.pending_hint = msg::hint_local(&self.server, req);
        }
    }
}

/// Models a host dying mid-DMA: truncates the first multi-line inline
/// WRITE/ALLOCATE payload of `req` to a seeded prefix of its 64-byte
/// line groups (at least one, never all) and drops every later op of
/// the chain. Returns `None` when the request carries no payload a torn
/// write could bite — plain reads, RPCs, single-line writes — which
/// crash-drop whole instead.
fn tear_request(req: &Request, rng: &mut SimRng) -> Option<Request> {
    let Request::Chain(chain) = req else {
        return None;
    };
    for (i, op) in chain.iter().enumerate() {
        let payload_len = match op {
            PrismOp::Write {
                data: DataArg::Inline(d),
                ..
            } => d.len(),
            PrismOp::Allocate { data, .. } => data.len(),
            _ => 0,
        };
        if payload_len <= 64 {
            continue;
        }
        let lines = payload_len.div_ceil(64);
        let keep = 1 + rng.gen_range(lines as u64 - 1) as usize;
        let keep_bytes = (keep * 64).min(payload_len);
        let mut torn = chain[..=i].to_vec();
        match &mut torn[i] {
            PrismOp::Write {
                data: DataArg::Inline(d),
                len,
                ..
            } => {
                d.truncate(keep_bytes);
                *len = keep_bytes as u32;
            }
            PrismOp::Allocate { data, .. } => data.truncate(keep_bytes),
            _ => unreachable!("only payload-bearing ops are torn"),
        }
        return Some(Request::Chain(torn));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::run_closed_loop;
    use crate::netsim::test_support::{faulty_read, read_adapter, test_server};
    use prism_core::builder::ops;

    #[test]
    fn amnesia_restart_bumps_incarnation_and_fences() {
        // Hook-less amnesia: the server wipes and re-registers under a
        // bumped incarnation; clients that keep using their pre-crash
        // rkey get StaleIncarnation NACKs (surfacing as failed ops), not
        // stale data.
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let faults = FaultPlan::seeded(5)
            .with_timeout(SimDuration::micros(50))
            .with_amnesia_crash(
                0,
                SimTime::from_nanos(2_000_000),
                SimTime::from_nanos(2_200_000),
            );
        let r = run_closed_loop(
            std::slice::from_ref(&s),
            &model,
            VerbPath::Nic,
            2,
            &mut |_| faulty_read(addr, rkey, 2, false),
            SimDuration::millis(1),
            SimDuration::millis(4),
            9,
            &faults,
        );
        assert_eq!(r.restarts, 1, "one amnesia window, one restart");
        assert_eq!(s.regions().current_incarnation(), 1);
        assert!(r.tput_ops > 0.0, "pre-crash ops complete");
        assert!(
            r.failed > 0,
            "post-restart reads with the stale rkey must fail, not serve wiped memory"
        );
    }

    #[test]
    fn software_verbs_cost_more_and_occupy_cores() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let hw = run_closed_loop(
            std::slice::from_ref(&s),
            &model,
            VerbPath::Nic,
            1,
            &mut |_| read_adapter(addr, rkey, false, 0),
            SimDuration::millis(1),
            SimDuration::millis(4),
            1,
            &FaultPlan::default(),
        );
        let sw = run_closed_loop(
            &[s],
            &model,
            VerbPath::Cpu,
            1,
            &mut |_| read_adapter(addr, rkey, false, 0),
            SimDuration::millis(1),
            SimDuration::millis(4),
            1,
            &FaultPlan::default(),
        );
        let delta = sw.mean_us - hw.mean_us;
        assert!(
            (2.0..3.5).contains(&delta),
            "software RDMA adds ~2.5us (got {delta})"
        );
    }

    #[test]
    fn slowdown_window_stretches_latency_and_counts() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let run = |faults: &FaultPlan| {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                1,
                &mut |_| read_adapter(addr, rkey, false, 0),
                SimDuration::millis(1),
                SimDuration::millis(5),
                5,
                faults,
            )
        };
        let healthy = run(&FaultPlan::seeded(5).with_timeout(SimDuration::micros(300)));
        let gray = FaultPlan::seeded(5)
            .with_timeout(SimDuration::micros(300))
            .with_slowdown(
                0,
                SimTime::from_nanos(1_000_000),
                SimTime::from_nanos(6_000_000),
                8,
            );
        let a = run(&gray);
        assert!(
            a.slowdown_windows > 0,
            "requests inside the window must be counted"
        );
        assert!(
            a.mean_us > healthy.mean_us * 2.0,
            "an 8x slowdown must visibly stretch latency ({} vs {})",
            a.mean_us,
            healthy.mean_us
        );
        assert_eq!(a.timeouts, 0, "the 300 µs timeout out-waits the slowdown");
        let b = run(&gray);
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(a.slowdown_windows, b.slowdown_windows);
    }

    #[test]
    fn admission_bound_busy_nacks_a_convoy_behind_a_straggler() {
        // A 32x straggler on the software path backs a convoy up behind
        // its dispatch cores; the admission bound refuses the overflow
        // with typed Busy NACKs instead of letting the queue build.
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let tail = prism_simnet::fault::TailPolicy {
            admission_ns: 5_000,
            ..Default::default()
        };
        let faults = FaultPlan::seeded(7)
            .with_timeout(SimDuration::micros(400))
            .with_slowdown(
                0,
                SimTime::from_nanos(1_000_000),
                SimTime::from_nanos(5_000_000),
                32,
            )
            .with_tail_policy(tail);
        let run = || {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Cpu,
                24,
                &mut |_| faulty_read(addr, rkey, 2, false),
                SimDuration::millis(1),
                SimDuration::millis(5),
                9,
                &faults,
            )
        };
        let a = run();
        assert!(a.busy_nacks > 0, "the convoy must be refused admission");
        assert!(a.tput_ops > 0.0, "ops still complete around the NACKs");
        let b = run();
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(a.busy_nacks, b.busy_nacks);
    }

    #[test]
    fn rot_events_flip_bits_inside_crash_windows() {
        let (s, addr, rkey) = test_server();
        s.arena().write(addr, &[0u8; 64]).unwrap();
        let model = CostModel::testbed();
        let faults = FaultPlan::seeded(13)
            .with_timeout(SimDuration::micros(50))
            .with_crash(
                0,
                SimTime::from_nanos(2_000_000),
                SimTime::from_nanos(2_400_000),
            )
            .with_rot(0, SimTime::from_nanos(2_100_000), addr, 64, 3);
        let r = run_closed_loop(
            std::slice::from_ref(&s),
            &model,
            VerbPath::Nic,
            2,
            &mut |_| faulty_read(addr, rkey, 2, false),
            SimDuration::millis(1),
            SimDuration::millis(4),
            5,
            &faults,
        );
        assert_eq!(r.corruptions_injected, 1, "one rot event, one corruption");
        let after = s.arena().read(addr, 64).unwrap();
        assert_ne!(after, vec![0u8; 64], "the rot must land in server memory");
    }

    #[test]
    fn tear_request_truncates_multi_line_payloads_only() {
        let mut rng = SimRng::new(17);
        // No payload to tear: verbs, RPCs, single-line writes.
        assert!(tear_request(&Request::Rpc(vec![1, 2, 3]), &mut rng).is_none());
        assert!(
            tear_request(&Request::Chain(vec![ops::read(0x1_0000, 512, 1)]), &mut rng).is_none()
        );
        assert!(tear_request(
            &Request::Chain(vec![ops::write(0x1_0000, vec![7u8; 64], 1)]),
            &mut rng
        )
        .is_none());
        // A 256-byte write tears to a 64-byte-aligned strict prefix, and
        // the trailing op of the chain is dropped.
        for _ in 0..32 {
            let chain = Request::Chain(vec![
                ops::read(0x1_0000, 8, 1),
                ops::write(0x1_0000, vec![7u8; 256], 1),
                ops::read(0x1_0000, 8, 1),
            ]);
            let torn = tear_request(&chain, &mut rng).expect("multi-line write tears");
            let Request::Chain(ops2) = torn else {
                panic!("torn request stays a chain")
            };
            assert_eq!(ops2.len(), 2, "ops after the torn write are dropped");
            let PrismOp::Write {
                data: DataArg::Inline(d),
                len,
                ..
            } = &ops2[1]
            else {
                panic!("second op stays a write")
            };
            assert_eq!(d.len() as u32, *len);
            assert!(d.len() % 64 == 0 && !d.is_empty() && d.len() < 256);
        }
    }
}
