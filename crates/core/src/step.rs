//! The one step type every protocol client returns, and the one local
//! delivery loop over it. Each call a driver makes on a sans-I/O client
//! machine answers with a [`Step`]; [`drive_local`] delivers its requests
//! to local servers (control plane, live mode, tests), and the simulator's
//! adapters (`prism_harness::adapters`) over the simulated fabric.

use crate::msg::{execute_local, Reply, Request};
use crate::PrismServer;
use prism_rdma::RdmaError;

/// What a driver should do after feeding a machine. `done` is set once;
/// a machine keeps accepting late replies after it, answering only with
/// `background` traffic (buffer frees, stale-lock rollbacks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step<O> {
    /// Requests to send, tagged `(dest, phase, index)`: index 0 where
    /// replies are told apart by destination (a replica).
    pub send: Vec<(usize, u32, u32, Request)>,
    /// Fire-and-forget requests, owed no reply.
    pub background: Vec<(usize, Request)>,
    /// Wait this long, then resume the machine (ABDLOCK's lock backoff).
    pub backoff_ns: Option<u64>,
    /// A transaction attempt's reads are in: resume it with its writes.
    /// The pausing step carries nothing else.
    pub awaiting_writes: bool,
    /// The operation's outcome, once it completes.
    pub done: Option<O>,
}

impl<O> Default for Step<O> {
    fn default() -> Self {
        Step {
            send: Vec::new(),
            background: Vec::new(),
            backoff_ns: None,
            awaiting_writes: false,
            done: None,
        }
    }
}

impl<O> Step<O> {
    /// A step that only sends.
    pub fn sends(send: Vec<(usize, u32, u32, Request)>) -> Self {
        Step {
            send,
            ..Default::default()
        }
    }

    /// A step that ends the operation with `outcome`.
    pub fn finished(outcome: O) -> Self {
        Step {
            done: Some(outcome),
            ..Default::default()
        }
    }

    /// A step that pauses a transaction attempt for its writes.
    pub fn paused() -> Self {
        Step {
            awaiting_writes: true,
            ..Default::default()
        }
    }
}

/// What [`drive_local`] feeds the machine it drives.
#[derive(Debug)]
pub enum Input {
    /// The reply to the request tagged `(dest, phase, index)`.
    Reply(usize, u32, u32, Reply),
    /// The machine's backoff is over, or it paused: continue it.
    Resume,
}

/// Drives a machine from `first` to its end against local destinations
/// in queue-pair order: the next delivery is the oldest request queued to
/// the destination of the newest one, so requests to one destination land
/// in the order sent. A request runs on its destination's `server`, and
/// `feed` hands the machine its reply and returns its next step. A down
/// destination (no server) drops its background requests and answers
/// [`Reply::Verb`]`(Err(`[`RdmaError::ReceiverNotReady`]`))`. Background
/// requests run before each delivery and at the end. A backoff yields the
/// thread, then feeds [`Input::Resume`]; so does a pause, without the
/// yield. Replies after the outcome are still fed. Returns the first
/// outcome and the requests delivered (round trips).
pub fn drive_local<'a, O>(
    first: Step<O>,
    server: impl Fn(usize) -> Option<&'a PrismServer>,
    mut feed: impl FnMut(Input) -> Step<O>,
) -> (Option<O>, u32) {
    let (mut queue, mut background) = (Vec::new(), Vec::new());
    let (mut outcome, mut round_trips) = (None, 0);
    let mut step = first;
    loop {
        queue.extend(step.send);
        background.extend(step.background);
        outcome = outcome.or(step.done);
        if step.backoff_ns.is_some() {
            std::thread::yield_now();
        }
        if step.backoff_ns.is_some() || step.awaiting_writes {
            step = feed(Input::Resume);
            continue;
        }
        let live = |(dest, req): (usize, Request)| Some((server(dest)?, req));
        for (host, req) in background.drain(..).filter_map(live) {
            execute_local(host, &req);
        }
        let Some(&(last, ..)) = queue.last() else {
            return (outcome, round_trips);
        };
        let next = queue.iter().position(|&(dest, ..)| dest == last);
        let (dest, phase, index, req) = queue.remove(next.expect("`last` is queued"));
        round_trips += 1;
        let down = Reply::Verb(Err(RdmaError::ReceiverNotReady));
        let reply = server(dest).map_or(down, |host| execute_local(host, &req));
        step = feed(Input::Reply(dest, phase, index, reply));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use prism_testkit::{for_all, gens, Config, Gen};

    /// One scripted step: destinations of its sends and of its
    /// background requests, whether it ends the operation, and whether
    /// it waits (a backoff, or a pause on odd steps).
    type Scripted = (Vec<usize>, Vec<usize>, bool, bool);

    /// A destination count (1–3), which destinations are down, and the
    /// steps a machine returns: the first, then one per feed.
    type Script = (usize, Vec<bool>, Vec<Scripted>);

    fn script_gen() -> Gen<Script> {
        let dests = |len| gens::vec(gens::range_usize(0..3), len);
        let step = gens::t4(dests(0..4), dests(0..3), gens::bools(), gens::bools());
        gens::t3(
            gens::range_usize(1..4),
            gens::vec_exact(gens::bools(), 3),
            gens::vec(step, 1..12),
        )
    }

    /// What happened, in order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        /// The machine returned its `n`th step (0: the first).
        Returned(usize),
        /// `exec` ran request `id`.
        Exec {
            dest: usize,
            id: u32,
            background: bool,
        },
        /// The machine was fed the reply to request `id`.
        Fed { dest: usize, id: u32, reply: Reply },
        /// The machine was resumed.
        Resumed,
    }

    /// The steps a script returns, and each one's background requests
    /// as `(dest, id)`.
    type Built = (Vec<Step<usize>>, Vec<Vec<(usize, u32)>>);

    fn rpc(id: u32) -> Request {
        Request::Rpc(id.to_le_bytes().to_vec())
    }

    /// The script's steps, every request numbered in send order (its
    /// foreground tag is `(id, id)`), with the ids of each step's
    /// background requests. The first step that ends the operation also
    /// sends, so at least one reply always arrives after the outcome.
    fn build(n: usize, steps: &[Scripted]) -> Built {
        let mut id = 0;
        let mut next = || {
            id += 1;
            id
        };
        let mut first_done = true;
        let (mut built, mut bgs) = (Vec::new(), Vec::new());
        for (i, (sends, background, done, wait)) in steps.iter().enumerate() {
            let mut step = Step::default();
            let mut dests: Vec<usize> = sends.iter().map(|d| d % n).collect();
            if *done && std::mem::take(&mut first_done) {
                dests.push(i % n);
            }
            for d in dests {
                let id = next();
                step.send.push((d, id, id, rpc(id)));
            }
            let bg: Vec<(usize, u32)> = background.iter().map(|d| (d % n, next())).collect();
            step.background = bg.iter().map(|&(d, id)| (d, rpc(id))).collect();
            step.done = done.then_some(i);
            if *wait && i % 2 == 0 {
                step.backoff_ns = Some(1);
            } else if *wait {
                step.awaiting_writes = true;
            }
            built.push(step);
            bgs.push(bg);
        }
        (built, bgs)
    }

    /// Generated multi-destination machines, some destinations down:
    /// every request is delivered once and fed back, in send order per
    /// destination, executed only if its destination is up; a step's
    /// background requests run before the next delivery, and never on a
    /// down destination; a wait is resumed before anything is
    /// delivered; replies after the outcome are still fed; the first
    /// outcome is kept, and every delivery counts as a round trip.
    #[test]
    fn delivers_in_queue_pair_order() {
        for_all(
            "delivers_in_queue_pair_order",
            &Config::default(),
            &script_gen(),
            |(n, down, steps)| {
                let up = |d: usize| !down[d];
                let (built, bgs) = build(*n, steps);
                let log = Arc::new(Mutex::new(vec![Event::Returned(0)]));
                let mut script = built.clone().into_iter();
                let first = script.next().expect("one step at least");
                let fg: Arc<Vec<u32>> = Arc::new(
                    built
                        .iter()
                        .flat_map(|s| s.send.iter().map(|t| t.1))
                        .collect(),
                );
                let servers: Vec<PrismServer> = (0..*n)
                    .map(|dest| {
                        let server = PrismServer::new(1 << 12);
                        let (log, fg) = (Arc::clone(&log), Arc::clone(&fg));
                        server
                            .set_rpc_handler(Arc::new(move |req: &[u8]| {
                                let id = u32::from_le_bytes(req.try_into().unwrap());
                                let background = !fg.contains(&id);
                                let exec = Event::Exec {
                                    dest,
                                    id,
                                    background,
                                };
                                log.lock().unwrap().push(exec);
                                req.to_vec()
                            }))
                            .unwrap();
                        server
                    })
                    .collect();
                let server = |d: usize| up(d).then(|| &servers[d]);
                let mut returned = 0;
                let feed = |input| {
                    log.lock().unwrap().push(match input {
                        Input::Reply(dest, phase, index, reply) => {
                            assert_eq!(phase, index);
                            Event::Fed {
                                dest,
                                id: phase,
                                reply,
                            }
                        }
                        Input::Resume => Event::Resumed,
                    });
                    returned += 1;
                    log.lock().unwrap().push(Event::Returned(returned));
                    script.next().unwrap_or_default()
                };
                let (outcome, round_trips) = drive_local(first, server, feed);
                let log = log.lock().unwrap().clone();

                // Every request sent is fed back once, in send order per
                // destination, with its reply or the down stand-in.
                let sent: Vec<(usize, u32)> = (0..=returned.min(built.len() - 1))
                    .flat_map(|i| built[i].send.iter().map(|t| (t.0, t.1)))
                    .collect();
                let fed: Vec<(usize, u32)> = log
                    .iter()
                    .filter_map(|e| match e {
                        Event::Fed { dest, id, reply } => {
                            let want = if up(*dest) {
                                Reply::Rpc(id.to_le_bytes().to_vec())
                            } else {
                                Reply::Verb(Err(RdmaError::ReceiverNotReady))
                            };
                            assert_eq!(reply, &want, "request {id}");
                            Some((*dest, *id))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(round_trips as usize, fed.len());
                let (mut a, mut b) = (sent.clone(), fed.clone());
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "each request delivered once");
                for d in 0..*n {
                    let ids: Vec<u32> = fed.iter().filter(|f| f.0 == d).map(|f| f.1).collect();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "dest {d}: {ids:?}");
                }

                // Nothing runs on a down destination, and a foreground
                // request runs as it is fed.
                for (i, e) in log.iter().enumerate() {
                    if let Event::Exec {
                        dest,
                        id,
                        background,
                    } = e
                    {
                        assert!(up(*dest), "request {id} ran on down dest {dest}");
                        if !background {
                            assert!(matches!(&log[i + 1], Event::Fed { id: f, .. } if f == id));
                        }
                    }
                }

                // A step's background requests run after it returns and
                // before the next delivery; a wait is resumed at once.
                for (i, e) in log.iter().enumerate() {
                    let Event::Returned(s) = *e else { continue };
                    let until = log[i + 1..]
                        .iter()
                        .position(|e| matches!(e, Event::Fed { .. }))
                        .map_or(log.len(), |p| i + 1 + p);
                    let window = &log[i + 1..until];
                    for &(dest, id) in bgs.get(s).into_iter().flatten() {
                        let ran = window.iter().any(|e| {
                            matches!(e, Event::Exec { id: x, background: true, .. } if *x == id)
                        });
                        assert_eq!(ran, up(dest), "step {s}'s background request {id}");
                    }
                    let waits = built
                        .get(s)
                        .is_some_and(|b| b.backoff_ns.is_some() || b.awaiting_writes);
                    if waits {
                        assert_eq!(log.get(i + 1), Some(&Event::Resumed), "step {s}");
                    }
                }

                // The first outcome wins, and at least one reply came
                // after it.
                let first_done = built[..=returned.min(built.len() - 1)]
                    .iter()
                    .find_map(|s| s.done);
                assert_eq!(outcome, first_done);
                if let Some(s) = first_done {
                    let at = log.iter().position(|e| *e == Event::Returned(s)).unwrap();
                    assert!(log[at..].iter().any(|e| matches!(e, Event::Fed { .. })));
                }
            },
        );
    }
}
