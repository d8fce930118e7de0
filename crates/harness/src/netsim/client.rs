//! The closed-loop arrival policy: one client, one operation at a time,
//! the next one started when the previous one ends.

use prism_core::msg::Reply;
use prism_simnet::engine::{Actor, ActorId, Context};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};

use super::transport::{timeout_reply, OpState, ReplyVerdict, Settled, TimerVerdict, Transport};
use super::{Outbound, ProtoAdapter, SimMsg};

/// A closed-loop client actor: runs one operation at a time through its
/// adapter, recording per-op latency and op counts. Everything between
/// the adapter and the wire is the shared transport; what this actor
/// adds is the closed loop itself (a `Kick` when each op ends) and
/// client-crash epochs.
pub struct ClientActor {
    adapter: Box<dyn ProtoAdapter>,
    rng: SimRng,
    transport: Transport,
    op: OpState,
    /// Bumped at each client restart; kicks scheduled by a dead epoch
    /// are discarded on delivery.
    epoch: u64,
}

/// Closed-loop sends go out under the adapter's own tags: one adapter
/// per actor, so they are already unique on this actor's wire.
fn own_tag(out: &Outbound) -> u64 {
    out.tag
}

impl ClientActor {
    /// Creates a client over the given server actors. `index` is the
    /// client's position in the experiment's client list, which is how
    /// [`FaultPlan`] partitions name it.
    pub fn new(
        adapter: Box<dyn ProtoAdapter>,
        servers: Vec<ActorId>,
        model: CostModel,
        rng: SimRng,
        index: usize,
        faults: FaultPlan,
    ) -> Self {
        ClientActor {
            adapter,
            rng,
            transport: Transport::new(servers, &model, index, faults),
            op: OpState::begin(SimTime::ZERO, SimTime::ZERO),
            epoch: 0,
        }
    }

    /// Starts a fresh operation now.
    fn start_op(&mut self, ctx: &mut Context<'_, SimMsg>) {
        self.op = OpState::begin(ctx.now(), ctx.now());
        let rng = Some(&mut self.rng);
        self.transport
            .drive(&mut *self.adapter, rng, &mut own_tag, ctx);
    }

    /// Feeds the adapter a reply (real or synthesized) and closes the
    /// loop on what the lifecycle says comes next.
    fn feed(&mut self, tag: u64, reply: Reply, ctx: &mut Context<'_, SimMsg>) {
        let adapter = &mut *self.adapter;
        let settled =
            self.transport
                .feed_reply(&mut self.op, adapter, tag, reply, &mut own_tag, ctx);
        let (at, resume) = match settled {
            Settled::Continue => return,
            // Backoff waits stay inside the op's latency.
            Settled::ResumeAfter(wait) => (ctx.now() + wait, true),
            Settled::Ended(at) => (at, false),
        };
        let (me, epoch) = (ctx.self_id(), self.epoch);
        ctx.send_at(me, at, SimMsg::Kick { resume, epoch });
    }
}

impl Actor<SimMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_, SimMsg>) {
        let me = ctx.self_id();
        // Client crash windows end in a restart, exactly like server
        // amnesia windows.
        for at in self.transport.client_restarts() {
            ctx.send_at(me, at, SimMsg::Restart);
        }
        // Stagger client start times slightly to avoid lockstep.
        let jitter = SimDuration::from_nanos(ctx.rng().gen_range(1_000));
        ctx.send_in(
            me,
            jitter,
            SimMsg::Kick {
                resume: false,
                epoch: 0,
            },
        );
    }

    fn on_message(&mut self, msg: SimMsg, ctx: &mut Context<'_, SimMsg>) {
        if self.transport.client_crashed(ctx.now()) {
            // The client process is down: every delivery — replies,
            // timers, kicks, even a restart scheduled at the close of an
            // earlier overlapping window — is lost. The restart at the
            // final covering window's closing edge revives it.
            ctx.metrics().add("fault_client_drops", 1);
            return;
        }
        match msg {
            SimMsg::Kick { resume, epoch } => {
                if epoch != self.epoch {
                    // Scheduled before a crash the client has since
                    // restarted through; the op it would drive no longer
                    // exists.
                    return;
                }
                if resume {
                    self.transport
                        .drive(&mut *self.adapter, None, &mut own_tag, ctx);
                } else {
                    self.start_op(ctx);
                }
            }
            SimMsg::Reply {
                tag,
                attempt,
                server,
                inc,
                reply,
            } => match self.transport.classify_reply(
                tag,
                attempt,
                server,
                inc,
                ctx.now(),
                ctx.metrics(),
            ) {
                ReplyVerdict::Live { .. } => self.feed(tag, reply, ctx),
                // Hedge losers land here too: whichever copy arrives
                // second is harvested, never fed.
                ReplyVerdict::Stale => {
                    let adapter = &mut *self.adapter;
                    self.transport
                        .harvest(adapter, tag, server, reply, &mut own_tag, ctx)
                }
                ReplyVerdict::Duplicate | ReplyVerdict::Fenced | ReplyVerdict::Dropped => {}
            },
            SimMsg::Timeout { tag, attempt } => {
                if self.transport.classify_timer(tag, attempt, ctx.metrics())
                    == TimerVerdict::Expired
                {
                    self.feed(tag, timeout_reply(), ctx);
                }
            }
            SimMsg::Hedge { tag, attempt } => self.transport.on_hedge_timer(tag, attempt, ctx),
            SimMsg::Restart => {
                // Rebooted with amnesia: every in-flight operation is
                // forgotten mid-flight. Its server-side effects —
                // prepared transaction records, held lock words — dangle
                // by design; the recovery sweeps must reclaim them. The
                // epoch bump fences the dead client's surviving timers.
                self.epoch += 1;
                self.transport.forget_in_flight();
                ctx.metrics().add("fault_client_restarts", 1);
                self.start_op(ctx);
            }
            _ => unreachable!(
                "clients receive neither requests, server self-messages, nor open-loop timers"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::netsim::test_support::{faulty_read, test_server};
    use crate::netsim::{run_closed_loop, RunResult, VerbPath};
    use prism_simnet::fault::FaultPlan;
    use prism_simnet::latency::CostModel;
    use prism_simnet::time::{SimDuration, SimTime};

    #[test]
    fn fault_plan_injects_and_is_deterministic() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let faults = FaultPlan::seeded(11)
            .with_loss(0.05, 0.02)
            .with_jitter(2_000)
            .with_timeout(SimDuration::micros(50))
            .with_crash(
                0,
                SimTime::from_nanos(2_000_000),
                SimTime::from_nanos(2_500_000),
            );
        let run = || {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                4,
                &mut |_| faulty_read(addr, rkey, 2, false),
                SimDuration::millis(1),
                SimDuration::millis(5),
                3,
                &faults,
            )
        };
        let a = run();
        let b = run();
        assert!(a.tput_ops > 0.0, "ops must complete under faults");
        assert!(a.drops > 0, "losses must be injected");
        assert!(a.dups > 0, "duplicates must be injected");
        assert!(a.timeouts > 0, "lost round trips must time out");
        assert!(a.retries > 0, "timed-out requests must be retried");
        assert!(a.giveups > 0, "exhausted budgets must surface as giveups");
        assert!(a.failed >= a.giveups, "every giveup is also a failure");
        assert!(a.crash_drops > 0, "the crash window must swallow requests");
        // Same seed, same plan: bit-identical metrics — including the
        // jittered retry schedule, whose randomness comes only from the
        // dedicated per-client fault streams.
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(a.mean_us, b.mean_us);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(
            (
                a.failed,
                a.drops,
                a.dups,
                a.timeouts,
                a.retries,
                a.crash_drops,
                a.giveups
            ),
            (
                b.failed,
                b.drops,
                b.dups,
                b.timeouts,
                b.retries,
                b.crash_drops,
                b.giveups
            )
        );
    }

    #[test]
    fn client_crash_window_restarts_the_client() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let faults = FaultPlan::seeded(6)
            .with_timeout(SimDuration::micros(50))
            .with_client_crash(
                1,
                SimTime::from_nanos(2_000_000),
                SimTime::from_nanos(2_300_000),
            );
        let run = || {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                2,
                &mut |_| faulty_read(addr, rkey, 2, false),
                SimDuration::millis(1),
                SimDuration::millis(4),
                4,
                &faults,
            )
        };
        let a = run();
        assert_eq!(a.client_restarts, 1, "one crash window, one restart");
        assert!(
            a.tput_ops > 0.0,
            "the surviving client keeps completing ops"
        );
        let b = run();
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(a.client_restarts, b.client_restarts);
    }

    #[test]
    fn bit_flips_are_detected_conserved_and_deterministic() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let faults = FaultPlan::seeded(21)
            .with_timeout(SimDuration::micros(50))
            .with_flips(0.05, 0.05);
        let run = || {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                4,
                &mut |_| faulty_read(addr, rkey, 2, false),
                SimDuration::millis(1),
                SimDuration::millis(5),
                3,
                &faults,
            )
        };
        let a = run();
        assert!(a.corruptions_injected > 0, "flips must be injected");
        assert_eq!(
            a.corruptions_detected, a.corruptions_injected,
            "every single-bit flip must be caught by the frame CRCs"
        );
        assert!(
            a.corruptions_repaired + a.aborted_corrupt > 0,
            "corrupt ops must settle as repaired or cleanly aborted"
        );
        assert!(a.tput_ops > 0.0, "ops still complete under corruption");
        let b = run();
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(
            (
                a.corruptions_injected,
                a.corruptions_repaired,
                a.aborted_corrupt
            ),
            (
                b.corruptions_injected,
                b.corruptions_repaired,
                b.aborted_corrupt
            )
        );
    }

    #[test]
    fn zeroed_corruption_knobs_leave_a_fault_run_bit_identical() {
        // The corruption streams are separate from the fault streams and
        // every draw is gated on its knob, so arming the machinery with
        // zero probabilities must not move a single event.
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let base = FaultPlan::seeded(11)
            .with_loss(0.05, 0.02)
            .with_jitter(2_000)
            .with_timeout(SimDuration::micros(50));
        let armed = base.clone().with_flips(0.0, 0.0).with_torn_writes(0.0);
        let run = |faults: &FaultPlan| {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                4,
                &mut |_| faulty_read(addr, rkey, 2, false),
                SimDuration::millis(1),
                SimDuration::millis(5),
                3,
                faults,
            )
        };
        let a = run(&base);
        let b = run(&armed);
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(a.mean_us, b.mean_us);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(
            (a.failed, a.drops, a.dups, a.timeouts, a.retries),
            (b.failed, b.drops, b.dups, b.timeouts, b.retries)
        );
        assert_eq!(b.corruptions_injected, 0);
        assert_eq!(b.corruptions_detected, 0);
    }

    #[test]
    fn zeroed_gray_knobs_leave_a_fault_run_bit_identical() {
        // Gray faults are pure schedule data (no delivery-time RNG) and
        // the tail policy draws nothing, so arming the machinery with
        // windows that never cover the run — and a default-off policy —
        // must not move a single event of an existing fault run.
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let base = FaultPlan::seeded(11)
            .with_loss(0.05, 0.02)
            .with_jitter(2_000)
            .with_timeout(SimDuration::micros(50));
        let far = SimTime::from_nanos(50_000_000); // past the 6 ms horizon
        let far_end = SimTime::from_nanos(51_000_000);
        let armed = base
            .clone()
            .with_tail_policy(prism_simnet::fault::TailPolicy::default())
            .with_slowdown(0, far, far_end, 8)
            .with_reply_partition(0, 0, far, far_end)
            .with_flap(
                0,
                0,
                far,
                far_end,
                SimDuration::micros(40),
                SimDuration::micros(10),
            );
        assert!(armed.injects_gray());
        let run = |faults: &FaultPlan| {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                4,
                &mut |_| faulty_read(addr, rkey, 2, false),
                SimDuration::millis(1),
                SimDuration::millis(5),
                3,
                faults,
            )
        };
        let a = run(&base);
        let b = run(&armed);
        assert_eq!(a.tput_ops, b.tput_ops);
        assert_eq!(a.mean_us, b.mean_us);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(
            (a.failed, a.drops, a.dups, a.timeouts, a.retries, a.giveups),
            (b.failed, b.drops, b.dups, b.timeouts, b.retries, b.giveups)
        );
        assert_eq!(
            (
                b.hedges,
                b.hedge_wins,
                b.shed,
                b.busy_nacks,
                b.slowdown_windows
            ),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn retry_deadline_sheds_partitioned_ops() {
        // Client 0 is partitioned for the whole run and its adapter
        // would retry forever; the deadline budget sheds each op after
        // 150 µs instead. The unpartitioned client keeps completing.
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let tail = prism_simnet::fault::TailPolicy {
            retry_deadline: SimDuration::micros(150),
            ..Default::default()
        };
        let faults = FaultPlan::seeded(8)
            .with_timeout(SimDuration::micros(50))
            .with_partition(0, 0, SimTime::ZERO, SimTime::from_nanos(6_000_000))
            .with_tail_policy(tail);
        let run = || {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                2,
                &mut |_| faulty_read(addr, rkey, u32::MAX, false),
                SimDuration::millis(1),
                SimDuration::millis(5),
                6,
                &faults,
            )
        };
        let a = run();
        assert!(
            a.shed > 0,
            "deadlined ops must be shed, not retried forever"
        );
        assert!(a.failed >= a.shed, "every shed op is also a failure");
        assert!(a.tput_ops > 0.0, "the healthy client keeps completing");
        let b = run();
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.tput_ops, b.tput_ops);
    }

    #[test]
    fn hedged_reads_win_races_and_cut_timeouts() {
        // 30% request-leg loss: unhedged, every lost request burns a
        // full timeout. Hedged, the copy usually survives and answers
        // while the primary's timer is still pending — timeouts drop by
        // an order of magnitude and `hedge_wins` records the races.
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let base = FaultPlan::seeded(5)
            .with_loss(0.3, 0.0)
            .with_timeout(SimDuration::micros(60));
        let hedged_plan = base
            .clone()
            .with_tail_policy(prism_simnet::fault::TailPolicy {
                hedge: true,
                adaptive_timeout: true,
                ..Default::default()
            });
        let run = |faults: &FaultPlan| {
            run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                4,
                &mut |_| faulty_read(addr, rkey, 2, true),
                SimDuration::millis(1),
                SimDuration::millis(5),
                3,
                faults,
            )
        };
        let unhedged = run(&base);
        let hedged = run(&hedged_plan);
        assert!(hedged.hedges > 0, "hedge copies must be issued");
        assert!(hedged.hedge_wins > 0, "some copies must win the race");
        // The adaptive timeout also shortens the recovery path, so the
        // hedged run completes far more ops in the same window; compare
        // the per-op timeout *rate*, not raw counts. A timeout now needs
        // BOTH copies lost (9% vs 30%), so the achievable cut is bounded
        // at 3.3×; demand at least 2×.
        let rate = |r: &RunResult| r.timeouts as f64 / r.tput_ops.max(1.0);
        assert!(
            rate(&hedged) * 2.0 < rate(&unhedged),
            "hedging must cut the per-op timeout rate sharply ({:.2e} vs {:.2e})",
            rate(&hedged),
            rate(&unhedged)
        );
        assert!(
            hedged.tput_ops > unhedged.tput_ops,
            "fewer burned timeouts means more completed ops"
        );
        let again = run(&hedged_plan);
        assert_eq!(hedged.tput_ops, again.tput_ops);
        assert_eq!(
            (hedged.hedges, hedged.hedge_wins, hedged.stale_harvested),
            (again.hedges, again.hedge_wins, again.stale_harvested)
        );
    }
}
