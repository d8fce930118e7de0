//! The client contract both replicated-register protocols implement,
//! and the one local driver over it.
//!
//! PRISM-RS and ABDLOCK run the same ABD protocol and differ in every
//! request they send, but not in how a caller drives them:
//! [`RsProtocol::get`] or [`RsProtocol::put`] returns an operation and
//! its first [`RsStep`]; each request is tagged `(replica, phase, 0)`, and
//! each reply fed back through [`RsProtocol::on_reply`] yields the next
//! step, until one carries the operation's [`RsOutcome`]. A step that
//! asks for a backoff ([`Step::backoff_ns`]) is answered, after the
//! wait, with [`RsProtocol::reissue`]. [`drive`] runs that loop against
//! local replicas through `prism_core`'s one delivery loop
//! ([`drive_local`]); the simulator's closed-loop adapter
//! (`prism_harness::adapters::Driver`) runs it over the simulated
//! fabric.

use prism_core::msg::Reply;
use prism_core::step::{drive_local, Input, Step};
use prism_core::PrismServer;

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

/// What the driver should do after feeding the machine; its requests are
/// tagged `(replica, phase, 0)`.
pub type RsStep = Step<RsOutcome>;

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
/// / tests) through [`drive_local`], whose queue-pair order lands a
/// superseded phase's request (ABDLOCK's in-place WRITE) before a later
/// one to the same replica (its unlock). Replica `r` is down if
/// `crashed[r]`. A backoff yields the thread, then reissues.
pub fn drive<P: RsProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    mut op: P::Op,
    first: RsStep,
    crashed: &[bool],
) -> RsOutcome {
    let server = |r| (crashed.get(r) != Some(&true)).then(|| P::server(cluster, r));
    let feed = |input| match input {
        Input::Reply(dest, phase, _, reply) => client.on_reply(&mut op, phase, dest, reply),
        Input::Resume => client.reissue(&mut op),
    };
    let (outcome, _) = drive_local(first, server, feed);
    outcome.unwrap_or(RsOutcome::Failed("no quorum reachable"))
}
