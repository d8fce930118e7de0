//! The client contract both replicated-register protocols implement,
//! and the one local driver over it.
//!
//! PRISM-RS and ABDLOCK run the same ABD protocol and differ in every
//! request they send, but not in how a caller drives them:
//! [`RsProtocol::get`] or [`RsProtocol::put`] returns an operation and
//! its first [`RsStep`]; each request is tagged `(replica, phase)`, and
//! each reply fed back through [`RsProtocol::on_reply`] yields the next
//! step, until one carries the operation's [`RsOutcome`]. A step that
//! asks for a backoff ([`RsStep::backoff_ns`]) is answered, after the
//! wait, with [`RsProtocol::reissue`]. [`drive`] runs that loop against
//! local replicas; the simulator's closed-loop adapter
//! (`prism_harness::adapters::RsDriver`) runs it over the simulated
//! fabric.

use prism_core::msg::{execute_local, Reply, Request};
use prism_core::PrismServer;
use prism_rdma::RdmaError;

/// Final outcome of a replicated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsOutcome {
    /// GET result: the block's value (registers always hold a value;
    /// fresh blocks read as zeroes).
    Value(Vec<u8>),
    /// PUT completed.
    Written,
    /// Too many replicas failed to answer usefully.
    Failed(&'static str),
}

/// What the driver should do after feeding the machine.
///
/// `done` is set exactly once, when the operation completes; a machine
/// keeps accepting late replies afterwards (emitting only `background`
/// traffic: PRISM-RS's buffer frees, ABDLOCK's stale-lock rollbacks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RsStep {
    /// Requests to send, tagged with the phase they belong to.
    pub send: Vec<(usize, u32, Request)>,
    /// Fire-and-forget requests, owed no reply.
    pub background: Vec<(usize, Request)>,
    /// Wait this long, then call [`RsProtocol::reissue`] (ABDLOCK's
    /// lock backoff; PRISM-RS never waits).
    pub backoff_ns: Option<u64>,
    /// Set when the operation completes.
    pub done: Option<RsOutcome>,
}

impl RsStep {
    /// A step that only sends.
    pub(crate) fn sends(send: Vec<(usize, u32, Request)>) -> Self {
        RsStep {
            send,
            ..Default::default()
        }
    }

    /// A step that ends the operation with `outcome`.
    pub(crate) fn finished(outcome: RsOutcome) -> Self {
        RsStep {
            done: Some(outcome),
            ..Default::default()
        }
    }
}

/// A replicated-register client as a driver sees it.
pub trait RsProtocol {
    /// The replica group the client's requests address.
    type Cluster;
    /// One operation in flight. A driver clones it to park the attempt
    /// it reissues, so that attempt's late replies still resolve.
    type Op: Clone;

    /// Whether a GET's legs may be hedged (sent twice, first reply
    /// wins). A property of the protocol, not an option: it holds only
    /// if executing any leg of a GET twice is harmless.
    const HEDGE_GETS: bool;

    /// Replica `replica`'s host, for a local driver to execute requests
    /// on.
    fn server(cluster: &Self::Cluster, replica: usize) -> &PrismServer;

    /// Replica count.
    fn n(&self) -> usize;

    /// Starts a GET of `block`.
    fn get(&mut self, block: u64) -> (Self::Op, RsStep);

    /// Starts a PUT of `value` (must be exactly one block).
    ///
    /// # Panics
    ///
    /// Panics on a wrong-sized value — blocks are fixed-size (§7.2).
    fn put(&mut self, block: u64, value: Vec<u8>) -> (Self::Op, RsStep);

    /// Feeds one replica's reply for the given phase. A reply of the
    /// wrong kind — the fault layer's synthesized timeout among them —
    /// is a failed replica, never a panic.
    fn on_reply(&mut self, op: &mut Self::Op, phase: u32, replica: usize, reply: Reply) -> RsStep;

    /// Re-arms `op` for another attempt: after a backoff, a failed
    /// quorum, or a fence.
    fn reissue(&mut self, op: &mut Self::Op) -> RsStep;

    /// Adopts replica `replica`'s new incarnation `inc` after an
    /// amnesia rejoin.
    fn refence(&mut self, replica: usize, inc: u64);

    /// The buffer a reply orphaned when it reached no machine (it raced
    /// its own timeout, or lost a hedge): the free the machine would
    /// have emitted for it, which the driver sends instead. `None` when
    /// the reply leaves nothing behind.
    fn harvest(reply: Reply) -> Option<u64>;
}

/// Drives an operation to completion against local replicas (live mode
/// / tests). Requests to one replica are delivered in the order they
/// were sent, as a queue pair delivers them: the next delivery is the
/// oldest request queued to the replica sent to last, so a superseded
/// phase's request (ABDLOCK's in-place WRITE) lands before a later one
/// (its unlock) to the same replica. Background requests are delivered
/// before each reply; replies that arrive after completion are still
/// fed (their reclamation lands). `crashed[r]` makes replica `r` answer
/// every request with [`RdmaError::ReceiverNotReady`] (the stand-in for
/// a timeout) and drop background traffic. A backoff yields the thread,
/// then reissues.
pub fn drive<P: RsProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    mut op: P::Op,
    first: RsStep,
    crashed: &[bool],
) -> RsOutcome {
    let up = |r: usize| !crashed.get(r).copied().unwrap_or(false);
    let mut queue: Vec<(usize, u32, Request)> = Vec::new();
    let mut bg: Vec<(usize, Request)> = Vec::new();
    let mut outcome = None;
    let mut step = first;
    loop {
        queue.extend(step.send);
        bg.extend(step.background);
        if outcome.is_none() {
            outcome = step.done;
        }
        if step.backoff_ns.is_some() {
            std::thread::yield_now();
            step = client.reissue(&mut op);
            continue;
        }
        let Some(&(last, ..)) = queue.last() else {
            break;
        };
        let next = queue.iter().position(|&(r, ..)| r == last);
        let (r, phase, req) = queue.remove(next.expect("`last` is queued"));
        for (replica, breq) in bg.drain(..).filter(|(replica, _)| up(*replica)) {
            execute_local(P::server(cluster, replica), &breq);
        }
        let reply = if up(r) {
            execute_local(P::server(cluster, r), &req)
        } else {
            Reply::Verb(Err(RdmaError::ReceiverNotReady))
        };
        step = client.on_reply(&mut op, phase, r, reply);
    }
    for (replica, breq) in bg.into_iter().filter(|(replica, _)| up(*replica)) {
        execute_local(P::server(cluster, replica), &breq);
    }
    outcome.unwrap_or(RsOutcome::Failed("no quorum reachable"))
}
