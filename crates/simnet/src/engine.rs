//! The discrete-event simulation engine: a virtual clock, a deterministic
//! event queue, and a set of message-driven actors.
//!
//! Actors implement [`Actor`] and communicate only through messages
//! scheduled on the virtual clock. Ties in delivery time are broken by
//! insertion order, so a run is fully deterministic given its seed and the
//! order in which actors are registered.
//!
//! # Event queue
//!
//! The kernel dispatches events in `(time, sequence)` order from a
//! bucketed hierarchical timer wheel: ten levels of 64 slots each (6 bits
//! of nanoseconds per level, covering 2^60 ns ≈ 36 years of virtual
//! time), a per-level occupancy bitmap for O(1) next-slot search, and a
//! far-future overflow heap for the rare event beyond the wheel's
//! horizon. Event records live in a slab with intrusive free/next links,
//! so steady-state scheduling allocates nothing, and all events sharing
//! a timestamp are drained as one batch and dispatched in sequence
//! order. `crates/simnet/tests/wheel_oracle.rs` checks that order against
//! a `BinaryHeap<(time, seq)>` reference model on random schedules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(usize);

impl ActorId {
    /// The raw index of the actor, in registration order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index, for callers that compute peer ids
    /// from known registration order. Sending to an id that was never
    /// registered panics at *send* time ([`Context::send_in`],
    /// [`Context::send_at`], [`Simulation::post`]), so a misconfigured
    /// experiment fails at the line that computed the bad id rather
    /// than deep inside the event loop.
    pub fn from_index(i: usize) -> ActorId {
        ActorId(i)
    }
}

/// A simulation participant driven entirely by messages.
pub trait Actor<M> {
    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called for every message delivered to this actor.
    fn on_message(&mut self, msg: M, ctx: &mut Context<'_, M>);

    /// Shown each message another actor sends to this one, when it is
    /// sent — before it is queued, so at least its delay ahead of the
    /// [`Actor::on_message`] that delivers it, and in send order. This
    /// is the lookahead a NIC or a polling dispatcher has while a frame
    /// is still on the wire: the actor may warm host state the message
    /// names (caches, translations) and nothing else. The hook gets no
    /// [`Context`], so it cannot schedule, read the clock, draw
    /// randomness or count; an implementation must leave every
    /// simulated result exactly as the default no-op would. Messages an
    /// actor sends to itself and [`Simulation::post`] are not shown.
    fn lookahead(&mut self, msg: &M) {
        let _ = msg;
    }
}

/// One event of a same-timestamp dispatch batch. The message is taken
/// out (leaving `None`) when delivered.
struct BatchEntry<M> {
    seq: u64,
    dst: ActorId,
    msg: Option<M>,
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 10;
/// Events whose timestamp differs from the cursor in bit 60 or above
/// overflow the wheel and wait in a far-future heap.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
const NIL: u32 = u32::MAX;

/// Slab-resident event record with an intrusive link, shared by the
/// per-slot lists and the free list.
struct SlabEntry<M> {
    at: u64,
    seq: u64,
    dst: ActorId,
    next: u32,
    msg: Option<M>,
}

/// Bucketed hierarchical timer wheel.
///
/// Level `l` buckets events by bits `[6l, 6l+6)` of their absolute
/// nanosecond timestamp. An event is filed at the *highest level where
/// its timestamp digit differs from the cursor's* — which makes the slot
/// index unambiguous (no modular aliasing) and guarantees every filed
/// event sits strictly ahead of the cursor at its level. When the cursor
/// enters a higher-level slot, that slot's events cascade down to finer
/// levels; by the time an event's timestamp is reached it sits in a
/// level-0 slot holding exactly the events of that nanosecond, which is
/// drained as one batch and dispatched in sequence order.
struct TimerWheel<M> {
    slab: Vec<SlabEntry<M>>,
    /// Head of the slab free list.
    free: u32,
    /// Per-level, per-slot intrusive list heads.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    /// The wheel cursor: only advances to slot starts and batch times
    /// already cleared for dispatch, so it never passes the kernel
    /// clock. Inserts always satisfy `at >= cursor`.
    cursor: u64,
    /// Events beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    len: usize,
}

impl<M> TimerWheel<M> {
    fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occ: [0; LEVELS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    fn push(&mut self, at: SimTime, seq: u64, dst: ActorId, msg: M) {
        let at = at.as_nanos();
        debug_assert!(at >= self.cursor, "wheel insert behind the cursor");
        let idx = if self.free != NIL {
            let idx = self.free;
            let e = &mut self.slab[idx as usize];
            self.free = e.next;
            e.at = at;
            e.seq = seq;
            e.dst = dst;
            e.next = NIL;
            e.msg = Some(msg);
            idx
        } else {
            let idx = self.slab.len();
            assert!(idx < NIL as usize, "event slab exhausted");
            self.slab.push(SlabEntry {
                at,
                seq,
                dst,
                next: NIL,
                msg: Some(msg),
            });
            idx as u32
        };
        self.len += 1;
        self.file(idx);
    }

    /// Files a slab entry into the level/slot derived from its
    /// timestamp's highest digit differing from the cursor, or into the
    /// overflow heap when that digit is beyond the wheel horizon.
    fn file(&mut self, idx: u32) {
        let e = &self.slab[idx as usize];
        let (at, seq) = (e.at, e.seq);
        let x = at ^ self.cursor;
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push(Reverse((at, seq, idx)));
            return;
        }
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let e = &mut self.slab[idx as usize];
        e.next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.occ[level] |= 1 << slot;
    }

    /// Re-files every event of a level `>= 1` slot the cursor just
    /// entered; each lands at a strictly lower level (its digit at
    /// `level` now matches the cursor's).
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut idx = self.heads[level][slot];
        self.heads[level][slot] = NIL;
        self.occ[level] &= !(1 << slot);
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.file(idx);
            idx = next;
        }
    }

    /// Drains the level-0 slot holding timestamp `t` into `out`, sorted
    /// by sequence number, returning entries to the free list.
    fn drain_slot(&mut self, slot: usize, out: &mut Vec<BatchEntry<M>>) {
        let start = out.len();
        let mut idx = self.heads[0][slot];
        self.heads[0][slot] = NIL;
        self.occ[0] &= !(1 << slot);
        while idx != NIL {
            let e = &mut self.slab[idx as usize];
            out.push(BatchEntry {
                seq: e.seq,
                dst: e.dst,
                msg: e.msg.take(),
            });
            let next = e.next;
            e.next = self.free;
            self.free = idx;
            idx = next;
            self.len -= 1;
        }
        out[start..].sort_unstable_by_key(|b| b.seq);
    }

    /// Finds the earliest pending timestamp, and — if it does not exceed
    /// `limit` — advances the cursor to it, drains its whole batch into
    /// `out` (sequence order) and returns it. Returns `None`, with the
    /// cursor parked at or before `limit`, when the queue is empty or
    /// the next event lies past `limit`.
    fn pop_batch(&mut self, limit: u64, out: &mut Vec<BatchEntry<M>>) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: events inside the cursor's current 64 ns window.
            let cur0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let bits = self.occ[0] & (!0u64 << cur0);
            if bits != 0 {
                let slot = bits.trailing_zeros() as u64;
                let t = (self.cursor & !(SLOTS as u64 - 1)) + slot;
                if t > limit {
                    return None;
                }
                self.cursor = t;
                self.drain_slot(slot as usize, out);
                return Some(t);
            }
            // Climb: enter the nearest occupied slot of the lowest
            // level that has one ahead of the cursor, cascading its
            // events down, then rescan from level 0.
            let mut advanced = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let cur = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let bits = self.occ[level] & (!0u64 << cur);
                if bits == 0 {
                    continue;
                }
                let slot = bits.trailing_zeros() as u64;
                let slot_start =
                    (self.cursor & !((1u64 << (shift + SLOT_BITS)) - 1)) | (slot << shift);
                if slot_start > limit {
                    return None;
                }
                self.cursor = slot_start;
                self.cascade(level, slot as usize);
                advanced = true;
                break;
            }
            if advanced {
                continue;
            }
            // The wheel proper is empty: jump the cursor to the first
            // overflow event and pull in everything now within horizon.
            let &Reverse((at, _, _)) = self.overflow.peek()?;
            if at > limit {
                return None;
            }
            self.cursor = at;
            while let Some(&Reverse((a, _, _))) = self.overflow.peek() {
                if (a ^ self.cursor) >> WHEEL_BITS != 0 {
                    break;
                }
                let Reverse((_, _, idx)) = self.overflow.pop().expect("peeked entry vanished");
                self.file(idx);
            }
        }
    }
}

/// The mutable simulation state shared with actors during a callback.
struct Kernel<M> {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<M>,
    /// The same-timestamp batch currently being dispatched, and the
    /// next entry to deliver. Reused across batches: zero allocation in
    /// steady state.
    batch: Vec<BatchEntry<M>>,
    batch_pos: usize,
    rng: SimRng,
    metrics: Metrics,
    stopped: bool,
    /// Number of registered actors, mirrored from the simulation so
    /// sends can be validated without borrowing the actor table.
    actors: usize,
}

impl<M> Kernel<M> {
    fn push(&mut self, at: SimTime, dst: ActorId, msg: M) {
        assert!(
            dst.0 < self.actors,
            "message for unregistered actor {dst:?} ({} registered); \
             check the id passed to send_in/send_at/post",
            self.actors
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, dst, msg);
    }
}

/// Handle given to actors while they process a message.
///
/// Allows scheduling new messages, reading the clock, drawing random
/// numbers, and recording metrics.
pub struct Context<'a, M> {
    kernel: &'a mut Kernel<M>,
    /// The actor table, for [`Actor::lookahead`]. The running actor's
    /// own entry holds [`Inert`] for the length of its callback.
    actors: &'a mut [Box<dyn Actor<M>>],
    self_id: ActorId,
}

impl<M> Context<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The id of the actor currently running.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Delivers `msg` to `dst` after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was never registered, naming the bad id — so a
    /// miscomputed [`ActorId::from_index`] fails here, at the send
    /// site, not later inside the event loop.
    pub fn send_in(&mut self, dst: ActorId, delay: SimDuration, msg: M) {
        let at = self.kernel.now + delay;
        self.push(at, dst, msg);
    }

    /// Delivers `msg` to `dst` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (the simulator cannot rewind) or
    /// if `dst` was never registered.
    pub fn send_at(&mut self, dst: ActorId, at: SimTime, msg: M) {
        assert!(at >= self.kernel.now, "Context::send_at: time in the past");
        self.push(at, dst, msg);
    }

    /// Shows `msg` to its destination ([`Actor::lookahead`]), then
    /// queues it. A self-send hints nobody (the sender's entry holds
    /// [`Inert`] anyway; timers are most of a run's sends, so they skip
    /// the call); an unregistered `dst` is left for [`Kernel::push`] to
    /// reject by name.
    fn push(&mut self, at: SimTime, dst: ActorId, msg: M) {
        if dst != self.self_id {
            if let Some(actor) = self.actors.get_mut(dst.0) {
                actor.lookahead(&msg);
            }
        }
        self.kernel.push(at, dst, msg);
    }

    /// The simulation's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.kernel.rng
    }

    /// The simulation's metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// Requests that the simulation stop after the current callback.
    pub fn stop(&mut self) {
        self.kernel.stopped = true;
    }
}

/// A complete simulation: actors plus the event queue and clock.
pub struct Simulation<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    kernel: Kernel<M>,
    started: bool,
}

impl<M> Simulation<M> {
    /// Creates an empty simulation with the given random seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            actors: Vec::new(),
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                queue: TimerWheel::new(),
                batch: Vec::new(),
                batch_pos: 0,
                rng: SimRng::new(seed),
                metrics: Metrics::new(),
                stopped: false,
                actors: 0,
            },
            started: false,
        }
    }

    /// Registers an actor and returns its id. Registration order is part of
    /// the deterministic run definition.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(actor);
        self.kernel.actors = self.actors.len();
        id
    }

    /// Enqueues a message for delivery at the current time (time zero before
    /// the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `dst` was never registered.
    pub fn post(&mut self, dst: ActorId, msg: M) {
        let now = self.kernel.now;
        self.kernel.push(now, dst, msg);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Read access to collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.kernel.metrics
    }

    /// Mutable access to collected metrics (e.g. to reset after warm-up).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.actors.len() {
            let id = ActorId(idx);
            // Temporarily move the actor out so the kernel can be borrowed
            // mutably alongside it without aliasing.
            let mut actor = std::mem::replace(&mut self.actors[idx], Box::new(Inert));
            actor.on_start(&mut Context {
                kernel: &mut self.kernel,
                actors: &mut self.actors,
                self_id: id,
            });
            self.actors[idx] = actor;
        }
    }

    /// Runs until the event queue drains or an actor calls [`Context::stop`].
    pub fn run(&mut self) {
        self.run_until(SimTime::from_nanos(u64::MAX));
    }

    /// Runs until `deadline` (inclusive), the queue drains, or an actor
    /// calls [`Context::stop`]. The clock never advances past `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if a message targets an unregistered actor (a backstop —
    /// sends validate their destination eagerly, so this only fires if
    /// an event somehow bypassed [`Context`]/[`Simulation::post`]).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        while !self.kernel.stopped {
            // Deliver the in-progress same-timestamp batch first: new
            // events landing on the current instant carry higher
            // sequence numbers than everything batched, so they are
            // picked up by the next drain, in order.
            if self.kernel.batch_pos < self.kernel.batch.len() {
                let pos = self.kernel.batch_pos;
                self.kernel.batch_pos += 1;
                let dst = self.kernel.batch[pos].dst;
                let msg = self.kernel.batch[pos]
                    .msg
                    .take()
                    .expect("batch entry delivered twice");
                assert!(
                    dst.0 < self.actors.len(),
                    "message for unregistered actor {dst:?}"
                );
                let mut actor = std::mem::replace(&mut self.actors[dst.0], Box::new(Inert));
                actor.on_message(
                    msg,
                    &mut Context {
                        kernel: &mut self.kernel,
                        actors: &mut self.actors,
                        self_id: dst,
                    },
                );
                self.actors[dst.0] = actor;
                continue;
            }
            self.kernel.batch.clear();
            self.kernel.batch_pos = 0;
            match self
                .kernel
                .queue
                .pop_batch(deadline.as_nanos(), &mut self.kernel.batch)
            {
                Some(t) => self.kernel.now = SimTime::from_nanos(t),
                None => {
                    if self.kernel.queue.len > 0 {
                        // Events remain past the deadline: park the
                        // clock there so a later run resumes cleanly.
                        self.kernel.now = deadline;
                    }
                    break;
                }
            }
        }
    }

    /// Runs for `span` of virtual time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.kernel.now + span;
        self.run_until(deadline);
    }

    /// Whether [`Context::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.kernel.stopped
    }

    /// Consumes the simulation and returns its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.kernel.metrics
    }
}

/// Placeholder actor swapped in while the real actor is running, so that a
/// re-entrant send to self is queued rather than delivered re-entrantly.
struct Inert;

impl<M> Actor<M> for Inert {
    fn on_message(&mut self, _msg: M, _ctx: &mut Context<'_, M>) {
        unreachable!("Inert actor should never receive messages");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes each message back to the sender with a 1 us delay, counting
    /// deliveries.
    struct Counter {
        seen: Vec<u32>,
    }

    impl Actor<u32> for Counter {
        fn on_message(&mut self, msg: u32, _ctx: &mut Context<'_, u32>) {
            self.seen.push(msg);
        }
    }

    #[test]
    fn delivers_in_time_order() {
        struct Driver;
        impl Actor<u32> for Driver {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let dst = ActorId(1);
                ctx.send_in(dst, SimDuration::micros(5), 5);
                ctx.send_in(dst, SimDuration::micros(1), 1);
                ctx.send_in(dst, SimDuration::micros(3), 3);
            }
            fn on_message(&mut self, _: u32, _: &mut Context<'_, u32>) {}
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Driver));
        let c = sim.add_actor(Box::new(Counter { seen: vec![] }));
        sim.run();
        assert_eq!(c.index(), 1);
        assert_eq!(sim.now().as_nanos(), 5_000);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        struct Probe {
            order: Vec<u32>,
        }
        impl Actor<u32> for Probe {
            fn on_message(&mut self, msg: u32, _: &mut Context<'_, u32>) {
                self.order.push(msg);
            }
        }
        struct Driver;
        impl Actor<u32> for Driver {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for i in 0..4 {
                    ctx.send_in(ActorId(1), SimDuration::micros(1), i);
                }
            }
            fn on_message(&mut self, _: u32, _: &mut Context<'_, u32>) {}
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Driver));
        sim.add_actor(Box::new(Probe { order: vec![] }));
        // Drive and inspect via metrics channel: use a fresh sim whose probe
        // records into metrics instead, to keep actor state observable.
        sim.run();
        // The probe actor is owned by the simulation; re-run the scenario
        // with counters in metrics to assert ordering.
        let mut sim = Simulation::new(0);
        struct Probe2;
        impl Actor<u32> for Probe2 {
            fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                let n = ctx.metrics().counter("n");
                ctx.metrics().add("n", 1);
                assert_eq!(msg as u64, n, "messages delivered out of order");
            }
        }
        struct Driver2;
        impl Actor<u32> for Driver2 {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for i in 0..4 {
                    ctx.send_in(ActorId(1), SimDuration::micros(1), i);
                }
            }
            fn on_message(&mut self, _: u32, _: &mut Context<'_, u32>) {}
        }
        sim.add_actor(Box::new(Driver2));
        sim.add_actor(Box::new(Probe2));
        sim.run();
        assert_eq!(sim.metrics().counter("n"), 4);
    }

    #[test]
    fn run_until_respects_deadline() {
        struct SelfPing;
        impl Actor<u32> for SelfPing {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.send_in(me, SimDuration::micros(1), 0);
            }
            fn on_message(&mut self, _: u32, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.metrics().add("ticks", 1);
                ctx.send_in(me, SimDuration::micros(1), 0);
            }
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(SelfPing));
        sim.run_until(SimTime::from_nanos(10_500));
        assert_eq!(sim.metrics().counter("ticks"), 10);
        assert_eq!(sim.now().as_nanos(), 10_500);
        // Continuing resumes from the deadline without replaying events.
        sim.run_until(SimTime::from_nanos(20_500));
        assert_eq!(sim.metrics().counter("ticks"), 20);
    }

    #[test]
    fn stop_halts_immediately() {
        struct Stopper;
        impl Actor<u32> for Stopper {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.send_in(me, SimDuration::micros(1), 0);
                ctx.send_in(me, SimDuration::micros(2), 1);
            }
            fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                assert_eq!(msg, 0, "second message must not be delivered");
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Stopper));
        sim.run();
        assert!(sim.is_stopped());
        assert_eq!(sim.now().as_nanos(), 1_000);
    }

    #[test]
    fn stop_discards_rest_of_same_instant_batch() {
        // Two messages at the same timestamp: the first stops the
        // simulation, so the second must not be delivered even though it
        // was drained into the same dispatch batch.
        struct Stopper;
        impl Actor<u32> for Stopper {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.send_in(me, SimDuration::micros(1), 0);
                ctx.send_in(me, SimDuration::micros(1), 1);
            }
            fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                assert_eq!(msg, 0, "stop must halt the rest of the batch");
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Stopper));
        sim.run();
        assert!(sim.is_stopped());
        assert_eq!(sim.now().as_nanos(), 1_000);
    }

    #[test]
    #[should_panic(expected = "unregistered actor")]
    fn unknown_destination_panics() {
        let mut sim: Simulation<u32> = Simulation::new(0);
        sim.add_actor(Box::new(Counter { seen: vec![] }));
        sim.post(ActorId(5), 1);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "unregistered actor ActorId(9)")]
    fn send_to_unregistered_actor_fails_at_send_time() {
        // The panic must fire inside the sending callback (send time),
        // naming the bad id — not later when the event loop would have
        // tried to deliver it.
        struct BadSender;
        impl Actor<u32> for BadSender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send_in(ActorId::from_index(9), SimDuration::micros(1), 0);
                unreachable!("send_in must reject the unregistered destination");
            }
            fn on_message(&mut self, _: u32, _: &mut Context<'_, u32>) {}
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(BadSender));
        sim.run();
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        fn run(seed: u64) -> u64 {
            struct Random;
            impl Actor<u32> for Random {
                fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                    let me = ctx.self_id();
                    ctx.send_in(me, SimDuration::micros(1), 0);
                }
                fn on_message(&mut self, _: u32, ctx: &mut Context<'_, u32>) {
                    let jitter = ctx.rng().gen_range(1_000);
                    ctx.metrics().add("sum", jitter);
                    if ctx.metrics().counter("sum") < 50_000 {
                        let me = ctx.self_id();
                        ctx.send_in(me, SimDuration::from_nanos(jitter + 1), 0);
                    }
                }
            }
            let mut sim = Simulation::new(seed);
            sim.add_actor(Box::new(Random));
            sim.run();
            sim.now().as_nanos()
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn lookahead_shows_each_cross_actor_send_once_before_delivery() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Debug, PartialEq)]
        enum Seen {
            Shown(u32),
            Got(u32),
        }
        type Log = Rc<RefCell<Vec<Seen>>>;

        /// Logs what it is shown and what it is delivered; on message
        /// 10 it also sends to itself, which must not be shown.
        struct Watcher(Log);
        impl Actor<u32> for Watcher {
            fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                self.0.borrow_mut().push(Seen::Got(msg));
                if msg == 10 {
                    let me = ctx.self_id();
                    ctx.send_in(me, SimDuration::from_nanos(1), 99);
                    ctx.send_at(me, ctx.now(), 98);
                }
            }
            fn lookahead(&mut self, msg: &u32) {
                self.0.borrow_mut().push(Seen::Shown(*msg));
            }
        }
        /// Sends so that delivery order (10, 30, 20) differs from send
        /// order (20, 10, 30), through both send methods.
        struct Driver;
        impl Actor<u32> for Driver {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let dst = ActorId(1);
                ctx.send_in(dst, SimDuration::micros(3), 20);
                ctx.send_at(dst, SimTime::from_nanos(1_000), 10);
                ctx.send_in(dst, SimDuration::micros(2), 30);
            }
            fn on_message(&mut self, _: u32, _: &mut Context<'_, u32>) {}
        }
        use Seen::{Got, Shown};
        let log: Log = Rc::default();
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Driver));
        let w = sim.add_actor(Box::new(Watcher(Rc::clone(&log))));
        sim.post(w, 7);
        sim.run();
        assert_eq!(
            *log.borrow(),
            [
                // on_start runs before any delivery: all three sends
                // are shown, in send order, ahead of the posted message
                // that is delivered first.
                Shown(20),
                Shown(10),
                Shown(30),
                Got(7),
                Got(10),
                Got(98),
                Got(99),
                Got(30),
                Got(20),
            ]
        );
    }

    /// Delivers `script` hops, each re-armed from the previous one, and
    /// records each delivery time into the metrics channel.
    struct Hopper {
        hops: Vec<u64>,
        pos: usize,
    }
    impl Actor<u32> for Hopper {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let me = ctx.self_id();
            ctx.send_in(me, SimDuration::from_nanos(self.hops[0]), 0);
        }
        fn on_message(&mut self, _: u32, ctx: &mut Context<'_, u32>) {
            let now = ctx.now().as_nanos();
            ctx.metrics().add("hops", 1);
            ctx.metrics().add("time_sum", now);
            self.pos += 1;
            if self.pos < self.hops.len() {
                let me = ctx.self_id();
                ctx.send_in(me, SimDuration::from_nanos(self.hops[self.pos]), 0);
            }
        }
    }

    fn hop_signature(hops: &[u64]) -> (u64, u64, u64) {
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Hopper {
            hops: hops.to_vec(),
            pos: 0,
        }));
        sim.run();
        (
            sim.metrics().counter("hops"),
            sim.metrics().counter("time_sum"),
            sim.now().as_nanos(),
        )
    }

    #[test]
    fn wheel_crosses_epoch_boundaries_like_the_heap() {
        // Regression for wheel epoch rollover: each hop lands exactly
        // on or just past a 64^k slot boundary, the carry cases where a
        // naive delta-based wheel files events into already-passed
        // slots. Correct behaviour is what a heap would do with one
        // re-armed timer: hop `i` lands at the sum of the first `i + 1`
        // spans.
        let spans: &[u64] = &[
            63,
            1, // crosses the level-0 window at 64
            4031,
            1, // crosses the level-1 window at 4096
            258_047,
            1, // crosses the level-2 window at 262144
            16_513_023,
            1, // crosses the level-3 window at 16777216
            (1u64 << 36) - 16_775_232,
            1, // crosses a level-6 digit
        ];
        let arrivals: Vec<u64> = spans
            .iter()
            .scan(0, |t, s| {
                *t += s;
                Some(*t)
            })
            .collect();
        assert_eq!(
            hop_signature(spans),
            (
                arrivals.len() as u64,
                arrivals.iter().sum(),
                *arrivals.last().unwrap()
            )
        );
    }

    #[test]
    fn far_future_events_take_the_overflow_heap() {
        // Deltas wider than the 2^60 ns wheel horizon must park in the
        // overflow heap and still dispatch in (time, seq) order.
        struct Far;
        impl Actor<u32> for Far {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.send_at(me, SimTime::from_nanos(1u64 << 61), 1);
                ctx.send_at(me, SimTime::from_nanos((1u64 << 61) + 5), 2);
                ctx.send_at(me, SimTime::from_nanos(500), 0);
            }
            fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                let n = ctx.metrics().counter("n");
                assert_eq!(msg as u64, n, "overflow events out of order");
                ctx.metrics().add("n", 1);
            }
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Far));
        sim.run();
        assert_eq!(sim.metrics().counter("n"), 3);
        assert_eq!(sim.now().as_nanos(), (1u64 << 61) + 5);
    }

    #[test]
    fn clock_saturates_at_the_far_future_horizon() {
        // Regression for the latent u64 tick overflow: scheduling past
        // u64::MAX used to wrap (release) or panic (debug) inside
        // `SimTime + SimDuration`. It now saturates: the event lands at
        // the horizon and the run terminates cleanly.
        struct Edge;
        impl Actor<u32> for Edge {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.send_at(me, SimTime::from_nanos(u64::MAX - 10), 0);
            }
            fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                ctx.metrics().add("n", 1);
                if msg == 0 {
                    let me = ctx.self_id();
                    // now + 100 overflows u64: saturates to u64::MAX.
                    ctx.send_in(me, SimDuration::from_nanos(100), 1);
                }
            }
        }
        let mut sim = Simulation::new(0);
        sim.add_actor(Box::new(Edge));
        sim.run();
        assert_eq!(sim.metrics().counter("n"), 2);
        assert_eq!(sim.now().as_nanos(), u64::MAX);
    }
}
