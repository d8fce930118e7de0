//! Differential property test: the `Simulation`'s timer-wheel event
//! queue dispatches exactly like a `BinaryHeap<(time, seq)>` reference
//! model.
//!
//! Random schedule scripts — mixed-magnitude delays spanning every wheel
//! level, same-instant ties, fan-out cascades from inside callbacks, and
//! `run_until` segmentation at arbitrary deadlines — must produce
//! *identical* delivery logs (time, item, destination, in order) and
//! identical clocks after every segment in the simulation and in
//! [`reference`]. The two share only [`react`], what a delivery sends.
//! Failures shrink to a minimal script and print a `PRISM_TEST_SEED` for
//! exact replay.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use prism_simnet::engine::{Actor, ActorId, Context, Simulation};
use prism_simnet::time::{SimDuration, SimTime};
use prism_testkit::{for_all, gens, Config};

const ACTORS: usize = 3;
const DELIVERY_BUDGET: u32 = 400;

/// One script item: a delay (built from a magnitude and raw bits, so
/// delays cover everything from 0 ns ties to multi-level wheel hops) and
/// a fan-out count for messages scheduled from inside the callback.
type Script = Vec<(u64, u64, u64)>;

/// Deliveries as `(time, item, destination)`, in delivery order.
type Log = Vec<(u64, u64, u64)>;

fn item_delay(shift: u64, raw: u64) -> u64 {
    // Uniform in [0, 2^(shift % 45)): small shifts exercise level-0
    // batching, large ones the upper wheel levels and their carries.
    raw & ((1u64 << (shift % 45)) - 1)
}

/// The messages sent when item `id` is delivered, as `(delay, dst,
/// child item)` in send order, debiting the shared delivery budget.
fn react(script: &Script, budget: &Cell<u32>, id: u64) -> Vec<(u64, usize, u64)> {
    let left = budget.get();
    if left == 0 {
        return Vec::new();
    }
    let (_, _, fanout) = script[id as usize % script.len()];
    let spawn = fanout % 3;
    budget.set(left.saturating_sub(spawn.max(1) as u32));
    (0..spawn)
        .map(|k| {
            let child = (id.wrapping_mul(31).wrapping_add(k + 1)) % script.len() as u64;
            let (shift, raw, _) = script[child as usize];
            let dst = ((id + k) as usize + 1) % ACTORS;
            (item_delay(shift, raw), dst, child)
        })
        .collect()
}

/// The `run_until` deadlines a script is run to: the running sums of
/// `deadlines`, then the end of time.
fn segments(deadlines: &[u64]) -> impl Iterator<Item = u64> + '_ {
    deadlines
        .iter()
        .scan(0u64, |t, &inc| {
            *t = t.saturating_add(inc);
            Some(*t)
        })
        .chain([u64::MAX])
}

/// Replays `script` on a [`Simulation`] and returns the full delivery
/// log plus the clock observed after every segment.
fn run_script(script: &Script, deadlines: &[u64]) -> (Log, Vec<u64>) {
    struct Node {
        log: Rc<RefCell<Log>>,
        script: Rc<Script>,
        budget: Rc<Cell<u32>>,
    }
    impl Actor<u64> for Node {
        fn on_message(&mut self, id: u64, ctx: &mut Context<'_, u64>) {
            let me = ctx.self_id().index() as u64;
            self.log.borrow_mut().push((ctx.now().as_nanos(), id, me));
            for (delay, dst, child) in react(&self.script, &self.budget, id) {
                ctx.send_in(
                    ActorId::from_index(dst),
                    SimDuration::from_nanos(delay),
                    child,
                );
            }
        }
    }

    let log = Rc::new(RefCell::new(Vec::new()));
    let budget = Rc::new(Cell::new(DELIVERY_BUDGET));
    let script = Rc::new(script.clone());
    let mut sim = Simulation::new(0);
    for _ in 0..ACTORS {
        sim.add_actor(Box::new(Node {
            log: Rc::clone(&log),
            script: Rc::clone(&script),
            budget: Rc::clone(&budget),
        }));
    }
    // Seed the run from time zero, one message per item: same-instant
    // ties from the start.
    for i in 0..script.len() {
        sim.post(ActorId::from_index(i % ACTORS), i as u64);
    }
    let clocks = segments(deadlines)
        .map(|deadline| {
            sim.run_until(SimTime::from_nanos(deadline));
            sim.now().as_nanos()
        })
        .collect();
    let log = log.borrow().clone();
    (log, clocks)
}

/// The same run on the reference model: one binary heap of
/// `(time, seq, dst, item)`, popped in order up to each deadline. The
/// clock parks at the deadline while events remain past it.
fn reference(script: &Script, deadlines: &[u64]) -> (Log, Vec<u64>) {
    let budget = Cell::new(DELIVERY_BUDGET);
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>> = (0..script.len())
        .map(|i| Reverse((0, i as u64, i % ACTORS, i as u64)))
        .collect();
    let mut seq = script.len() as u64;
    let (mut now, mut log, mut clocks) = (0, Vec::new(), Vec::new());
    for deadline in segments(deadlines) {
        while let Some(&Reverse((at, _, dst, id))) = heap.peek() {
            if at > deadline {
                now = deadline;
                break;
            }
            heap.pop();
            now = at;
            log.push((at, id, dst as u64));
            for (delay, dst, child) in react(script, &budget, id) {
                heap.push(Reverse((now + delay, seq, dst, child)));
                seq += 1;
            }
        }
        clocks.push(now);
    }
    (log, clocks)
}

/// The wheel dispatches every random script exactly like the heap
/// reference model: same (time, sequence) order, same destinations, same
/// clocks at every `run_until` segment boundary.
#[test]
fn wheel_matches_heap_oracle_on_random_schedules() {
    let gen = gens::t2(
        gens::vec(
            gens::t3(gens::range_u64(0..45), gens::u64s(), gens::range_u64(0..16)),
            1..24,
        ),
        gens::vec(gens::range_u64(0..1 << 30), 0..5),
    );
    for_all(
        "wheel_matches_heap_oracle_on_random_schedules",
        &Config::with_cases(96),
        &gen,
        |(script, deadlines)| {
            let wheel = run_script(script, deadlines);
            let heap = reference(script, deadlines);
            assert_eq!(
                wheel.1, heap.1,
                "segment clocks diverged between wheel and heap"
            );
            assert_eq!(
                wheel.0.len(),
                heap.0.len(),
                "delivery counts diverged between wheel and heap"
            );
            for (i, (w, h)) in wheel.0.iter().zip(heap.0.iter()).enumerate() {
                assert_eq!(w, h, "delivery #{i} diverged between wheel and heap");
            }
        },
    );
}
