//! The one client transport, and the operation lifecycle on top of it.
//!
//! Everything a client does between "the adapter wants this sent" and
//! "the adapter sees this reply" lives here, once: timeout arming,
//! `(tag, attempt)` dedup, incarnation fencing, the request-leg fault
//! gauntlet, hedged copies, Karn's rule, the adaptive timeout and
//! backoff, and how an [`AdapterStep`] settles an operation. The
//! closed-loop [`super::ClientActor`] and the open-loop
//! [`crate::openloop::OpenLoopActor`] are *arrival policies* over it:
//! they decide when operations start and what a send is called on the
//! wire, and nothing else.
//!
//! The transport is tag-agnostic. Callers name every send with a `wire`
//! closure (closed loop: the adapter's own tag; open loop: a fresh
//! per-actor tag it routes back to a slot) and the transport keys all of
//! its state by that name. State changes need no simulation (`arm`,
//! `transmit`, `classify_reply`, `classify_timer`, `hedge_copy`,
//! `retry_wait`: the clock in, a verdict out, counters into a
//! [`Metrics`] sink); the methods taking a [`Context`] only turn
//! verdicts into timers and sends.
//!
//! With a no-op [`FaultPlan`] none of the maps is touched, no timer is
//! armed, and every send is stamped attempt 0: a pristine run's
//! schedule is bit-identical to a build without the fault layer.

use prism_core::msg::{Reply, Request};
use prism_rdma::hash::IntMap;
use prism_rdma::RdmaError;
use prism_simnet::engine::{ActorId, Context};
use prism_simnet::estimator::RttEstimator;
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::metrics::Metrics;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};

use super::{post_delay, pre_delay, AdapterStep, Outbound, ProtoAdapter, SimMsg};

/// What an arriving reply is, decided before any adapter sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyVerdict {
    /// Matches the outstanding attempt (the primary's or, for a hedged
    /// tag, the copy's): feed it to the adapter. `straggler` says a
    /// hedge race was on: the slower copy is still in flight and will
    /// classify `Stale`.
    Live {
        /// Whether a second copy of the request is still in flight.
        straggler: bool,
    },
    /// First delivery of a straggler — it raced its own timeout, lost a
    /// hedge race, or answers a tag since reissued. The op it belongs
    /// to is settled, but the reply may prove a server-side allocation
    /// exists: offer it to [`ProtoAdapter::on_stale_reply`], once.
    Stale,
    /// Repeat delivery of an attempt already consumed: dropped.
    Duplicate,
    /// Stamped with an incarnation older than one already seen from
    /// that server: a pre-crash straggler describing memory that no
    /// longer exists, rejected before the dedup maps see it (Storm's
    /// stale-completion rule).
    Fenced,
    /// Severed on the server→client leg (asymmetric partition or flap
    /// down phase): the request executed, but this client never hears
    /// the answer, and a reply that never arrives touches no state.
    Dropped,
}

/// What a firing [`SimMsg::Timeout`] timer means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerVerdict {
    /// The outstanding attempt timed out with no other copy in flight:
    /// the adapter must be fed [`timeout_reply`].
    Expired,
    /// The primary timed out while its hedge copy is in flight: the
    /// copy becomes the outstanding attempt — its own timer, armed at
    /// hedge send, decides its fate — and the adapter hears nothing.
    PromotedHedge,
    /// The hedge copy timed out while the primary is still outstanding
    /// (and still has a live timer): the copy is forgotten.
    HedgeForgotten,
    /// The reply arrived first, or the tag was reissued.
    StaleTimer,
}

/// The transport-level failure the protocol machines already
/// understand: the stand-in their sequential drivers use for a crashed
/// replica.
pub(crate) fn timeout_reply() -> Reply {
    Reply::Verb(Err(RdmaError::ReceiverNotReady))
}

/// The timers one armed send needs, as delays from now.
struct Armed {
    attempt: u64,
    timeout: SimDuration,
    hedge: Option<SimDuration>,
}

/// Per-operation state the lifecycle keeps for whoever runs the op.
pub(crate) struct OpState {
    /// The latency clock's origin. Open loop: the *intended* arrival
    /// instant, which predates `started` whenever the arrival queued.
    origin: SimTime,
    /// When the op actually began. The deadline-aware retry budget
    /// clocks from here: backlog queueing is the load's fault, not the
    /// op's, and must not trigger sheds by itself.
    started: SimTime,
    /// A Corrupt NACK reached the adapter during this op. How the op
    /// ends decides whether the incident counts as repaired (the retry
    /// succeeded) or aborted (the op failed or gave up cleanly).
    corrupt_op: bool,
    /// Consecutive transport retries, driving the adaptive backoff.
    op_retries: u32,
}

impl OpState {
    /// A fresh operation clocked from `origin`, beginning at `started`.
    pub(crate) fn begin(origin: SimTime, started: SimTime) -> Self {
        OpState {
            origin,
            started,
            corrupt_op: false,
            op_retries: 0,
        }
    }
}

/// What the arrival policy must do after an adapter step.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Nothing: the op is waiting on in-flight replies.
    Continue,
    /// Call [`Transport::drive`] (resume) after this wait; the op's
    /// latency clock keeps running.
    ResumeAfter(SimDuration),
    /// The op is over at this instant (now, or after trailing client
    /// compute): whatever ran it is free for the next one then.
    Ended(SimTime),
}

/// One client's connection to the (possibly faulty) fabric.
pub(crate) struct Transport {
    servers: Vec<ActorId>,
    /// Fixed client→server delay of an undisturbed request.
    pre: SimDuration,
    /// One unloaded fixed-path round trip, the floor of the adaptive
    /// timeout and hedge delay.
    round_trip: SimDuration,
    /// This client's index (the identity [`FaultPlan`] partitions refer
    /// to).
    index: usize,
    faults: FaultPlan,
    /// `!faults.is_noop()`, decided once: the plan never changes.
    armed: bool,
    /// Fault randomness is drawn from a dedicated stream forked off the
    /// plan's seed, never from the kernel RNG, so a no-fault plan
    /// leaves every schedule bit-identical. Draw order per send: drop,
    /// jitter; per retry: backoff jitter.
    fault_rng: SimRng,
    /// Request-leg flips (decision, then bit position) get their own
    /// stream, so arming corruption never moves an existing plan's
    /// drops or jitter.
    corrupt_rng: SimRng,
    /// Tags awaiting a reply, stamped with their send attempt. Under a
    /// fault plan every reply must pass through this map: a tag absent
    /// from it (duplicate delivery, or a reply racing its own timeout)
    /// never reaches `on_reply`.
    outstanding: IntMap<u64, u64>,
    /// The last attempt per tag whose reply was consumed — fed to the
    /// adapter, or offered to [`ProtoAdapter::on_stale_reply`]. The
    /// attempt counter is monotonic, so `(tag, attempt)` names one send
    /// exactly: a reply matching this map is a duplicate delivery; a
    /// mismatched reply absent from it is a straggler the harvest hook
    /// sees exactly once. Never cleared (client restarts included): a
    /// pre-restart attempt harvested twice could double-free the buffer
    /// its reply carries.
    last_done: IntMap<u64, u64>,
    attempt_ctr: u64,
    /// Highest incarnation stamp seen per server.
    seen_inc: Vec<u64>,
    /// Windowed-quantile RTT tracker feeding the adaptive timeout,
    /// hedge delay, and backoff when the plan's tail policy arms them.
    /// Only live completions feed it — a timed-out attempt contributes
    /// no sample (Karn's rule), so retransmission ambiguity never
    /// poisons the estimate.
    estimator: RttEstimator,
    /// Send instant per `(tag, attempt)`, kept while the tail policy is
    /// active so completions can be turned into RTT samples.
    sent_at: IntMap<(u64, u64), SimTime>,
    /// The hedge copy in flight per tag (its attempt stamp). At most
    /// one hedge per primary: two copies of an idempotent read are a
    /// tail fix, N copies are an outage amplifier.
    hedged: IntMap<u64, u64>,
    /// The send behind each hedge-eligible outstanding tag, so the
    /// hedge timer can re-issue a byte-identical copy.
    hedge_req: IntMap<u64, Outbound>,
}

impl Transport {
    /// A transport for client `index` over the given server actors.
    pub(crate) fn new(
        servers: Vec<ActorId>,
        model: &CostModel,
        index: usize,
        faults: FaultPlan,
    ) -> Self {
        let fault_rng = SimRng::new(faults.seed ^ 0xC0FF_EE00 ^ ((index as u64 + 1) << 16));
        let corrupt_rng = SimRng::new(faults.seed ^ 0xB17F_C11E ^ ((index as u64 + 1) << 16));
        let pre = pre_delay(model);
        Transport {
            seen_inc: vec![0; servers.len()],
            servers,
            pre,
            round_trip: pre + post_delay(model),
            index,
            armed: !faults.is_noop(),
            faults,
            fault_rng,
            corrupt_rng,
            outstanding: IntMap::default(),
            last_done: IntMap::default(),
            attempt_ctr: 0,
            estimator: RttEstimator::p99(),
            sent_at: IntMap::default(),
            hedged: IntMap::default(),
            hedge_req: IntMap::default(),
        }
    }

    /// The closing edges of this client's crash windows.
    pub(crate) fn client_restarts(&self) -> Vec<SimTime> {
        self.faults.client_restarts(self.index)
    }

    /// Whether this client's process is inside a crash window at `now`.
    pub(crate) fn client_crashed(&self, now: SimTime) -> bool {
        self.armed && self.faults.client_crashed(self.index, now)
    }

    /// Whether the tail policy needs RTT samples.
    fn tail_tracks_rtt(&self) -> bool {
        self.faults.tail.adaptive_timeout || self.faults.tail.hedge
    }

    /// The per-request timeout: the plan's fixed value, or — under the
    /// adaptive policy — four times the tracked p99, clamped between
    /// two unloaded fixed-path round trips and eight fixed timeouts.
    fn effective_timeout(&self) -> SimDuration {
        if !self.faults.tail.adaptive_timeout {
            return self.faults.timeout;
        }
        let t = self.faults.timeout;
        self.estimator.timeout(4, self.round_trip * 2, t * 8, t)
    }

    /// How long a hedge-eligible read stays solo before its copy is
    /// issued: the tracked p99 (i.e. once the first copy is
    /// statistically in the tail), floored at one unloaded fixed-path
    /// round trip; half the fixed timeout until the window warms up.
    fn hedge_delay(&self) -> SimDuration {
        let fallback = SimDuration::from_nanos(self.faults.timeout.as_nanos() / 2);
        self.estimator.hedge_delay(self.round_trip, fallback)
    }

    // ---- send path ---------------------------------------------------

    /// Registers one send that expects a reply: stamps a fresh attempt,
    /// marks the tag outstanding, and says which timers to arm. `None`
    /// (attempt 0, no state touched) for background traffic and for
    /// every send of an unarmed plan.
    fn arm(&mut self, tag: u64, out: &Outbound, adapter: &dyn ProtoAdapter) -> Option<Armed> {
        if !self.armed || out.background {
            return None;
        }
        self.attempt_ctr += 1;
        let attempt = self.attempt_ctr;
        self.outstanding.insert(tag, attempt);
        let timeout = self.pre + self.effective_timeout();
        let mut hedge = None;
        if self.faults.tail.hedge && adapter.hedge_eligible(out.tag) {
            // Keep a byte-identical copy to re-issue if the first lands
            // in the tail.
            self.hedge_req.insert(tag, out.clone());
            hedge = Some(self.pre + self.hedge_delay());
        }
        Some(Armed {
            attempt,
            timeout,
            hedge,
        })
    }

    /// Takes one request copy through the client→server gauntlet under
    /// wire name `tag` (`out.tag`, the adapter's own name for it, is not
    /// used here): `None` if the fabric loses it, else where, after how
    /// long, and what to deliver. Hedge copies take the same gauntlet
    /// as primaries.
    fn transmit(
        &mut self,
        from: ActorId,
        tag: u64,
        attempt: u64,
        out: Outbound,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> Option<(ActorId, SimDuration, SimMsg)> {
        let mut pre = self.pre;
        let mut corrupt = false;
        if self.armed {
            if !out.background && self.tail_tracks_rtt() {
                self.sent_at.insert((tag, attempt), now);
            }
            // Partitions (asymmetric ones included, plus flap-window
            // down phases) sever the request leg here: replies already
            // in flight when a partition begins still deliver.
            if self.faults.partitioned(self.index, out.server, now)
                || (self.faults.drop_prob > 0.0 && self.fault_rng.gen_bool(self.faults.drop_prob))
            {
                metrics.add("fault_drops", 1);
                return None;
            }
            if self.faults.jitter_ns > 0 {
                pre += SimDuration::from_nanos(self.fault_rng.gen_range(self.faults.jitter_ns));
            }
            let flip = self.faults.flip_req_prob;
            if flip > 0.0 && self.corrupt_rng.gen_bool(flip) {
                // Request-leg corruption, applied to the real encoded
                // frame — epoch word included (see the reply-leg twin
                // in `ServerActor`): flip one seeded bit, verify the
                // frame CRCs catch it (they provably do for any
                // single-bit flip — detection is counted at the
                // injection site for exactly that reason), and deliver
                // the request marked corrupt so the server NACKs it
                // unexecuted. A flipped epoch can thus never masquerade
                // as a fresher (or staler) route.
                metrics.add("fault_corrupt_injected", 1);
                metrics.add("fault_corrupt_detected", 1);
                if let Ok(mut bytes) = out.req.encode_epoch(out.epoch) {
                    let pos = self.corrupt_rng.gen_range(bytes.len() as u64 * 8);
                    bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
                    debug_assert!(
                        Request::decode_epoch(&bytes).is_err(),
                        "a single-bit flip must not survive the frame CRCs"
                    );
                }
                corrupt = true;
            }
        }
        let msg = SimMsg::Req {
            from,
            tag,
            attempt,
            req: out.req,
            respond: !out.background,
            corrupt,
            epoch: out.epoch,
        };
        Some((self.servers[out.server], pre, msg))
    }

    /// Sends an adapter's outbound traffic, each send under the name
    /// `wire` gives it. Per send, in this order (DES ties break by
    /// insertion order): the timeout timer, the hedge timer, the
    /// request. The timeout is armed before the request's fate is
    /// decided: a dropped or partitioned request must still time out.
    pub(crate) fn dispatch<F: FnMut(&Outbound) -> u64>(
        &mut self,
        adapter: &dyn ProtoAdapter,
        sends: Vec<Outbound>,
        wire: &mut F,
        ctx: &mut Context<'_, SimMsg>,
    ) {
        let me = ctx.self_id();
        for out in sends {
            let tag = wire(&out);
            let mut attempt = 0;
            if let Some(armed) = self.arm(tag, &out, adapter) {
                attempt = armed.attempt;
                ctx.send_in(me, armed.timeout, SimMsg::Timeout { tag, attempt });
                if let Some(delay) = armed.hedge {
                    ctx.send_in(me, delay, SimMsg::Hedge { tag, attempt });
                }
            }
            let copy = self.transmit(me, tag, attempt, out, ctx.now(), ctx.metrics());
            if let Some((dst, pre, msg)) = copy {
                ctx.send_in(dst, pre, msg);
            }
        }
    }

    // ---- receive path ------------------------------------------------

    /// Classifies a reply arriving at `now` and consumes the state it
    /// settles. Unarmed plans deliver every reply exactly once, so
    /// everything is `Live`.
    pub(crate) fn classify_reply(
        &mut self,
        tag: u64,
        attempt: u64,
        server: usize,
        inc: u64,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> ReplyVerdict {
        if !self.armed {
            return ReplyVerdict::Live { straggler: false };
        }
        if self.faults.injects_gray() && self.faults.reply_partitioned(self.index, server, now) {
            metrics.add("fault_drops", 1);
            return ReplyVerdict::Dropped;
        }
        if inc < self.seen_inc[server] {
            metrics.add("fault_fenced", 1);
            return ReplyVerdict::Fenced;
        }
        self.seen_inc[server] = inc;
        let primary = self.outstanding.get(&tag).copied();
        let hedge = self.hedged.get(&tag).copied();
        if primary != Some(attempt) && hedge != Some(attempt) {
            if self.last_done.get(&tag) == Some(&attempt) {
                return ReplyVerdict::Duplicate;
            }
            self.last_done.insert(tag, attempt);
            return ReplyVerdict::Stale;
        }
        // First copy home settles the op. The slower copy (if one is in
        // flight) is deliberately *not* recorded as done: its arrival
        // must classify `Stale` so reclamation still lands.
        if hedge == Some(attempt) {
            metrics.add("hedge_wins", 1);
        }
        self.outstanding.remove(&tag);
        self.hedged.remove(&tag);
        self.hedge_req.remove(&tag);
        self.last_done.insert(tag, attempt);
        if self.tail_tracks_rtt() {
            if let Some(sent) = self.sent_at.remove(&(tag, attempt)) {
                self.estimator.observe(now.since(sent));
            }
            // The loser never becomes a sample (Karn's rule); drop its
            // entry to keep the map bounded.
            for a in [primary, hedge].into_iter().flatten() {
                self.sent_at.remove(&(tag, a));
            }
        }
        ReplyVerdict::Live {
            straggler: hedge.is_some(),
        }
    }

    /// Offers a `Stale` reply to the adapter's reclamation hook and
    /// sends whatever cleanup it asks for. `tag` is the adapter's tag.
    pub(crate) fn harvest<F: FnMut(&Outbound) -> u64>(
        &mut self,
        adapter: &mut dyn ProtoAdapter,
        tag: u64,
        server: usize,
        reply: Reply,
        wire: &mut F,
        ctx: &mut Context<'_, SimMsg>,
    ) {
        ctx.metrics().add("stale_harvested", 1);
        let sends = adapter.on_stale_reply(tag, server, reply);
        self.dispatch(adapter, sends, wire, ctx);
    }

    /// Classifies a firing timeout timer and consumes what it expires.
    /// A timed-out attempt's send instant is dropped, never sampled.
    pub(crate) fn classify_timer(
        &mut self,
        tag: u64,
        attempt: u64,
        metrics: &mut Metrics,
    ) -> TimerVerdict {
        if self.outstanding.get(&tag) == Some(&attempt) {
            self.sent_at.remove(&(tag, attempt));
            if let Some(h) = self.hedged.remove(&tag) {
                self.outstanding.insert(tag, h);
                return TimerVerdict::PromotedHedge;
            }
            self.outstanding.remove(&tag);
            self.hedge_req.remove(&tag);
            metrics.add("timeouts", 1);
            return TimerVerdict::Expired;
        }
        if self.hedged.get(&tag) == Some(&attempt) {
            self.hedged.remove(&tag);
            self.sent_at.remove(&(tag, attempt));
            return TimerVerdict::HedgeForgotten;
        }
        TimerVerdict::StaleTimer
    }

    /// The copy a firing hedge timer issues: only while the exact
    /// primary attempt the timer was armed for is still outstanding,
    /// and at most once per primary. Returns the copy's attempt stamp
    /// and the request to re-send.
    fn hedge_copy(&mut self, tag: u64, attempt: u64) -> Option<(u64, Outbound)> {
        if self.outstanding.get(&tag) != Some(&attempt) || self.hedged.contains_key(&tag) {
            return None;
        }
        let out = self.hedge_req.get(&tag)?.clone();
        self.attempt_ctr += 1;
        self.hedged.insert(tag, self.attempt_ctr);
        Some((self.attempt_ctr, out))
    }

    /// Handles a firing [`SimMsg::Hedge`] timer. The copy gets its own
    /// timeout and takes the same faulty fabric as any primary send.
    /// First reply home settles the op; the slower copy becomes a
    /// straggler the harvest hook reclaims.
    pub(crate) fn on_hedge_timer(&mut self, tag: u64, attempt: u64, ctx: &mut Context<'_, SimMsg>) {
        let Some((copy, out)) = self.hedge_copy(tag, attempt) else {
            return;
        };
        ctx.metrics().add("hedges", 1);
        let me = ctx.self_id();
        let timeout = self.pre + self.effective_timeout();
        ctx.send_in(me, timeout, SimMsg::Timeout { tag, attempt: copy });
        let sent = self.transmit(me, tag, copy, out, ctx.now(), ctx.metrics());
        if let Some((dst, pre, msg)) = sent {
            ctx.send_in(dst, pre, msg);
        }
    }

    /// The client process restarted: every in-flight attempt, hedge
    /// copy, and send-time sample dies with it, and their stragglers
    /// take the harvest path. `last_done` survives (see its invariant).
    pub(crate) fn forget_in_flight(&mut self) {
        self.outstanding.clear();
        self.hedged.clear();
        self.hedge_req.clear();
        self.sent_at.clear();
    }

    // ---- operation lifecycle -----------------------------------------

    /// Starts the adapter's next operation (`start_rng` given) or
    /// resumes the one in flight after a wait, and sends what it asks
    /// for.
    pub(crate) fn drive<F: FnMut(&Outbound) -> u64>(
        &mut self,
        adapter: &mut dyn ProtoAdapter,
        start_rng: Option<&mut SimRng>,
        wire: &mut F,
        ctx: &mut Context<'_, SimMsg>,
    ) {
        adapter.note_time(ctx.now());
        let sends = match start_rng {
            Some(rng) => adapter.start(rng),
            None => adapter.resume(),
        };
        self.dispatch(adapter, sends, wire, ctx);
    }

    /// Routes a reply (real or synthesized) through the adapter, acts
    /// on the step it answers with — flushes its sends, keeps the books
    /// — and tells the arrival policy what to schedule. `tag` is the
    /// adapter's.
    pub(crate) fn feed_reply<F: FnMut(&Outbound) -> u64>(
        &mut self,
        op: &mut OpState,
        adapter: &mut dyn ProtoAdapter,
        tag: u64,
        reply: Reply,
        wire: &mut F,
        ctx: &mut Context<'_, SimMsg>,
    ) -> Settled {
        if matches!(reply, Reply::Verb(Err(RdmaError::Corrupt))) {
            // A corrupt frame was NACKed somewhere in this op's round
            // trips; remember it so the op's eventual outcome settles
            // the incident as repaired or aborted.
            op.corrupt_op = true;
        }
        let now = ctx.now();
        adapter.note_time(now);
        match adapter.on_reply(tag, reply) {
            AdapterStep::Wait(sends) => {
                self.dispatch(adapter, sends, wire, ctx);
                Settled::Continue
            }
            AdapterStep::Done {
                sends,
                client_compute,
                failed,
            } => {
                self.dispatch(adapter, sends, wire, ctx);
                let end = now + client_compute;
                if failed {
                    return abort(op, None, end, ctx.metrics());
                }
                if std::mem::take(&mut op.corrupt_op) {
                    ctx.metrics().add("fault_corrupt_repaired", 1);
                }
                ctx.metrics().record("lat", end.since(op.origin));
                ctx.metrics().add("ops", 1);
                Settled::Ended(end)
            }
            AdapterStep::Backoff { sends, wait } => {
                self.dispatch(adapter, sends, wire, ctx);
                ctx.metrics().add("backoffs", 1);
                Settled::ResumeAfter(wait)
            }
            AdapterStep::Retry { sends, wait } => {
                self.dispatch(adapter, sends, wire, ctx);
                let deadline = self.faults.tail.retry_deadline;
                if deadline > SimDuration::ZERO && now.since(op.started) >= deadline {
                    // Deadline-aware retry budget: the op has already
                    // burned its deadline on lost round trips, so shed
                    // it instead of joining the retry storm. The
                    // adapter parks its outstanding stragglers (so
                    // their replies still reclaim resources) and the
                    // policy moves on to fresh work.
                    let sends = adapter.abandon();
                    self.dispatch(adapter, sends, wire, ctx);
                    return abort(op, Some("shed"), now, ctx.metrics());
                }
                ctx.metrics().add("retries", 1);
                op.op_retries += 1;
                Settled::ResumeAfter(self.retry_wait(op.op_retries, wait))
            }
            AdapterStep::GiveUp { sends } => {
                self.dispatch(adapter, sends, wire, ctx);
                abort(op, Some("giveups"), now, ctx.metrics())
            }
        }
    }

    /// How long retry number `op_retries` of an op waits, given the
    /// adapter's fixed `wait`.
    fn retry_wait(&mut self, op_retries: u32, mut wait: SimDuration) -> SimDuration {
        if self.faults.tail.adaptive_timeout {
            // The adaptive schedule replaces the adapter's fixed
            // backoff once the RTT window is warm: the wait scales
            // with what the fabric actually measures.
            wait = self.estimator.backoff(op_retries, wait);
        }
        if self.armed {
            // Seeded jitter from the dedicated fault stream
            // desynchronizes the retry storm that forms when a crash
            // window times out a whole client cohort at once. Same
            // seed, same jitter: replay stays bit-exact.
            let span = wait.as_nanos().max(2) / 2;
            wait += SimDuration::from_nanos(self.fault_rng.gen_range(span));
        }
        wait
    }
}

/// Ends an op as failed at `at`, under `cause` when the transport
/// (rather than the protocol) ended it; a corruption incident it
/// carried settles as cleanly aborted.
fn abort(op: &mut OpState, cause: Option<&str>, at: SimTime, metrics: &mut Metrics) -> Settled {
    if std::mem::take(&mut op.corrupt_op) {
        metrics.add("fault_corrupt_aborted", 1);
    }
    if let Some(cause) = cause {
        metrics.add(cause, 1);
    }
    metrics.add("failed", 1);
    Settled::Ended(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::test_support::faulty_read;
    use prism_simnet::fault::TailPolicy;

    const TAG: u64 = 7;

    fn transport(faults: FaultPlan) -> Transport {
        let servers = vec![ActorId::from_index(0)];
        Transport::new(servers, &CostModel::testbed(), 0, faults)
    }

    /// A fault-free fabric with the fault layer armed by the tail
    /// policy: hedging and the adaptive timeout on.
    fn hedging() -> Transport {
        transport(
            FaultPlan::seeded(1)
                .with_timeout(SimDuration::micros(60))
                .with_tail_policy(TailPolicy {
                    hedge: true,
                    adaptive_timeout: true,
                    ..TailPolicy::default()
                }),
        )
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    /// What `dispatch` does for one hedge-eligible read, minus the
    /// simulator: arm, then run the gauntlet. Returns the attempt stamp
    /// and the message that would be delivered.
    fn send(t: &mut Transport, now: SimTime, m: &mut Metrics) -> (u64, Option<SimMsg>) {
        let mut adapter = faulty_read(0x1000, 1, 2, true);
        let out = adapter.start(&mut SimRng::new(0)).remove(0);
        let attempt = t.arm(TAG, &out, &*adapter).map_or(0, |a| a.attempt);
        let me = ActorId::from_index(1);
        let sent = t.transmit(me, TAG, attempt, out, now, m);
        (attempt, sent.map(|(_, _, msg)| msg))
    }

    /// Issues the hedge copy the way `on_hedge_timer` does.
    fn hedge(t: &mut Transport, primary: u64, now: SimTime, m: &mut Metrics) -> u64 {
        let (copy, out) = t.hedge_copy(TAG, primary).expect("primary is outstanding");
        t.transmit(ActorId::from_index(1), TAG, copy, out, now, m);
        copy
    }

    fn reply(t: &mut Transport, attempt: u64, now: SimTime, m: &mut Metrics) -> ReplyVerdict {
        t.classify_reply(TAG, attempt, 0, 0, now, m)
    }

    const LIVE: ReplyVerdict = ReplyVerdict::Live { straggler: false };

    #[test]
    fn a_consumed_attempt_delivered_again_is_a_duplicate() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        assert_eq!(reply(&mut t, a, at(5), &mut m), LIVE);
        assert_eq!(reply(&mut t, a, at(6), &mut m), ReplyVerdict::Duplicate);
    }

    #[test]
    fn a_straggler_is_offered_to_harvest_exactly_once_and_never_sampled() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        assert_eq!(t.classify_timer(TAG, a, &mut m), TimerVerdict::Expired);
        assert_eq!(m.counter("timeouts"), 1);
        assert_eq!(reply(&mut t, a, at(90), &mut m), ReplyVerdict::Stale);
        assert_eq!(reply(&mut t, a, at(91), &mut m), ReplyVerdict::Duplicate);
        // Karn's rule: the timed-out attempt left no RTT sample; the
        // next live completion does.
        assert_eq!(t.estimator.samples(), 0);
        let (b, _) = send(&mut t, at(100), &mut m);
        assert_eq!(reply(&mut t, b, at(105), &mut m), LIVE);
        assert_eq!(t.estimator.samples(), 1);
        // The first attempt's timer, firing late, is stale.
        assert_eq!(t.classify_timer(TAG, a, &mut m), TimerVerdict::StaleTimer);
    }

    #[test]
    fn a_winning_hedge_copy_counts_and_the_loser_is_stale_never_live() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        let copy = hedge(&mut t, a, at(10), &mut m);
        assert!(
            t.hedge_copy(TAG, a).is_none(),
            "at most one hedge per primary"
        );
        let won = reply(&mut t, copy, at(15), &mut m);
        assert_eq!(won, ReplyVerdict::Live { straggler: true });
        assert_eq!(m.counter("hedge_wins"), 1);
        assert_eq!(reply(&mut t, a, at(40), &mut m), ReplyVerdict::Stale);
        assert_eq!(reply(&mut t, a, at(41), &mut m), ReplyVerdict::Duplicate);
        assert_eq!(t.estimator.samples(), 1, "only the winner is a sample");
        assert!(t.sent_at.is_empty() && t.hedge_req.is_empty());
    }

    #[test]
    fn a_primary_timeout_with_a_hedge_in_flight_promotes_it_silently() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        let copy = hedge(&mut t, a, at(10), &mut m);
        assert_eq!(
            t.classify_timer(TAG, a, &mut m),
            TimerVerdict::PromotedHedge
        );
        assert_eq!(m.counter("timeouts"), 0, "the adapter hears nothing");
        assert_eq!(reply(&mut t, copy, at(70), &mut m), LIVE);
        assert_eq!(m.counter("hedge_wins"), 0, "a promoted copy races no one");
        assert_eq!(reply(&mut t, a, at(80), &mut m), ReplyVerdict::Stale);
    }

    #[test]
    fn a_hedge_timeout_alone_keeps_the_primary() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        let copy = hedge(&mut t, a, at(10), &mut m);
        assert_eq!(
            t.classify_timer(TAG, copy, &mut m),
            TimerVerdict::HedgeForgotten
        );
        assert_eq!(m.counter("timeouts"), 0);
        assert_eq!(reply(&mut t, a, at(75), &mut m), LIVE);
        assert_eq!(reply(&mut t, copy, at(90), &mut m), ReplyVerdict::Stale);
    }

    #[test]
    fn a_restart_forgets_everything_in_flight_but_not_what_was_consumed() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        assert_eq!(reply(&mut t, a, at(5), &mut m), LIVE);
        let (b, _) = send(&mut t, at(10), &mut m);
        hedge(&mut t, b, at(20), &mut m);
        t.forget_in_flight();
        assert!(t.outstanding.is_empty() && t.hedged.is_empty());
        assert!(t.hedge_req.is_empty() && t.sent_at.is_empty());
        // A pre-restart attempt harvested twice could double-free.
        assert_eq!(reply(&mut t, a, at(30), &mut m), ReplyVerdict::Duplicate);
        assert_eq!(reply(&mut t, b, at(31), &mut m), ReplyVerdict::Stale);
    }

    #[test]
    fn replies_from_an_older_incarnation_are_fenced() {
        let (mut t, mut m) = (hedging(), Metrics::new());
        let (a, _) = send(&mut t, at(0), &mut m);
        assert_eq!(t.classify_reply(TAG, a, 0, 3, at(5), &mut m), LIVE);
        let (b, _) = send(&mut t, at(10), &mut m);
        let old = t.classify_reply(TAG, b, 0, 2, at(15), &mut m);
        assert_eq!(old, ReplyVerdict::Fenced);
        assert_eq!(m.counter("fault_fenced"), 1);
        assert_eq!(
            t.outstanding.get(&TAG),
            Some(&b),
            "fenced replies touch nothing"
        );
    }

    #[test]
    fn a_pristine_fabric_touches_no_map_and_stamps_attempt_zero() {
        let (mut t, mut m) = (transport(FaultPlan::default()), Metrics::new());
        let (attempt, msg) = send(&mut t, at(0), &mut m);
        assert_eq!(attempt, 0);
        let Some(SimMsg::Req {
            attempt, corrupt, ..
        }) = msg
        else {
            panic!("a pristine fabric delivers every request");
        };
        assert!(attempt == 0 && !corrupt);
        assert_eq!(reply(&mut t, 0, at(5), &mut m), LIVE);
        assert_eq!(t.classify_timer(TAG, 0, &mut m), TimerVerdict::StaleTimer);
        assert!(t.outstanding.is_empty() && t.last_done.is_empty() && t.sent_at.is_empty());
        assert!(t.hedged.is_empty() && t.hedge_req.is_empty() && t.attempt_ctr == 0);
        assert_eq!(m.counters().count(), 0);
    }
}
