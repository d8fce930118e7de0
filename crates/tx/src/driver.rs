//! The client contract both commit protocols implement, and the one
//! local driver over it.
//!
//! PRISM-TX and FaRM differ in every request they send but not in how a
//! caller drives them: [`TxProtocol::begin`] (or
//! [`TxProtocol::begin_rmw`]) returns an attempt and its first
//! [`TxStep`]; each request is tagged `(shard, phase, index)`, and each
//! reply fed back through [`TxProtocol::on_reply`] yields the next step,
//! until one carries the attempt's [`TxOutcome`]. [`drive`] and
//! [`run_rmw`] run that loop against local shards; the simulator's
//! closed-loop adapter (`prism_harness::adapters::TxDriver`) runs it
//! over the simulated fabric.

use std::collections::HashMap;

use prism_core::msg::{execute_local, Reply, Request};
use prism_core::PrismServer;

/// Outcome of a transaction attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// Validated and (for non-read-only transactions) installed; carries
    /// the values read during execution.
    Committed(HashMap<u64, Vec<u8>>),
    /// A validation check failed; the caller may retry with fresh reads.
    Aborted,
    /// Infrastructure failure (e.g. buffer pool exhausted mid-commit, or
    /// a lost commit reply: the writes may or may not have landed).
    Failed(&'static str),
}

/// What the driver should do next. `done` is set exactly once.
#[derive(Debug, Clone, Default)]
pub struct TxStep {
    /// `(shard, phase, request-index, request)` to send.
    pub send: Vec<(usize, u32, u32, Request)>,
    /// Fire-and-forget requests (PRISM-TX's buffer frees and abort
    /// `C`-bumps; FaRM sends none).
    pub background: Vec<(usize, Request)>,
    /// A deferred-write transaction finished its execution phase: the
    /// caller must compute its writes from [`TxProtocol::values`] and
    /// call [`TxProtocol::supply_writes`] to continue (the
    /// read-modify-write shape — computing writes from a *separate*
    /// earlier transaction's reads would reintroduce the lost-update
    /// window OCC exists to prevent).
    pub awaiting_writes: bool,
    /// Set when the transaction attempt completes.
    pub done: Option<TxOutcome>,
}

impl TxStep {
    /// A step that ends the attempt with `outcome`.
    pub(crate) fn finished(outcome: TxOutcome) -> Self {
        TxStep {
            done: Some(outcome),
            ..Default::default()
        }
    }

    /// A step that pauses a deferred attempt for its writes.
    pub(crate) fn paused() -> Self {
        TxStep {
            awaiting_writes: true,
            ..Default::default()
        }
    }
}

/// A transaction client as a driver sees it.
pub trait TxProtocol {
    /// The deployment whose shards the client's requests address.
    type Cluster;
    /// One transaction attempt in flight.
    type Op;

    /// Shard `shard`'s host, for a local driver to execute requests on.
    fn server(cluster: &Self::Cluster, shard: usize) -> &PrismServer;

    /// Starts a transaction that reads `read_keys` and then writes
    /// `writes` (write keys need not be read first).
    ///
    /// # Panics
    ///
    /// Panics if a write value has the wrong length or a key is out of
    /// range.
    fn begin(&mut self, read_keys: Vec<u64>, writes: Vec<(u64, Vec<u8>)>) -> (Self::Op, TxStep);

    /// Starts a read-modify-write transaction: executes the reads, then
    /// pauses ([`TxStep::awaiting_writes`]) so the caller can compute the
    /// write set from the values actually read.
    fn begin_rmw(&mut self, read_keys: Vec<u64>) -> (Self::Op, TxStep);

    /// Feeds one reply. A reply of the wrong kind — the fault layer's
    /// synthesized timeout among them — is a lost round trip, never a
    /// panic.
    fn on_reply(&mut self, op: &mut Self::Op, phase: u32, req_idx: u32, reply: Reply) -> TxStep;

    /// Continues a [`TxProtocol::begin_rmw`] transaction into its commit
    /// protocol with the supplied write set.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is not a deferred one paused after its
    /// execution phase.
    fn supply_writes(&mut self, op: &mut Self::Op, writes: Vec<(u64, Vec<u8>)>) -> TxStep;

    /// Values read during execution (keyed by global key). A commit
    /// moves them into [`TxOutcome::Committed`], so the map is empty
    /// once the attempt is done.
    fn values(op: &Self::Op) -> &HashMap<u64, Vec<u8>>;

    /// Takes the read-key list back out of an attempt that is done, so
    /// that a retry can begin over the same keys without copying them.
    /// An attempt still in flight needs its keys: call this only after
    /// [`TxStep::done`] was set.
    fn take_read_keys(op: &mut Self::Op) -> Vec<u64>;
}

/// Executes `first`'s requests against the local shards and feeds every
/// reply back until nothing is left to send — background requests go
/// out before the next reply is fed. Returns the attempt's outcome, or
/// `None` with `true` if it paused for its writes instead.
fn serve<P: TxProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    op: &mut P::Op,
    first: TxStep,
) -> (Option<TxOutcome>, bool) {
    let exec = |shard, req: &Request| execute_local(P::server(cluster, shard), req);
    let mut queue = first.send;
    let mut bg = first.background;
    let (mut outcome, mut awaiting) = (first.done, first.awaiting_writes);
    while let Some((shard, phase, idx, req)) = queue.pop() {
        for (s, breq) in bg.drain(..) {
            exec(s, &breq);
        }
        let step = client.on_reply(op, phase, idx, exec(shard, &req));
        queue.extend(step.send);
        bg.extend(step.background);
        awaiting |= step.awaiting_writes;
        if outcome.is_none() {
            outcome = step.done;
        }
    }
    for (s, breq) in bg {
        exec(s, &breq);
    }
    (outcome, awaiting)
}

/// Drives a transaction attempt to completion against local shards
/// (live mode / tests).
pub fn drive<P: TxProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    mut op: P::Op,
    first: TxStep,
) -> TxOutcome {
    serve(cluster, client, &mut op, first)
        .0
        .unwrap_or(TxOutcome::Failed("drive finished without outcome"))
}

/// Read-modify-write with retries until it commits or the budget is
/// spent: one deferred transaction whose writes are computed from the
/// same execution reads it then validates (not read-then-write-again).
/// An abort in either phase — a conflict, or a version that failed its
/// checksum — retries with fresh reads. Returns `(outcome, attempts)`.
pub fn run_rmw<P: TxProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    keys: &[u64],
    mk_value: impl Fn(u64, &HashMap<u64, Vec<u8>>) -> Vec<u8>,
    max_attempts: u32,
) -> (TxOutcome, u32) {
    for attempt in 1..=max_attempts {
        let (mut op, step) = client.begin_rmw(keys.to_vec());
        let outcome = match serve(cluster, client, &mut op, step) {
            (None, true) => {
                let writes = keys
                    .iter()
                    .map(|&k| (k, mk_value(k, P::values(&op))))
                    .collect();
                let step = client.supply_writes(&mut op, writes);
                drive(cluster, client, op, step)
            }
            (done, _) => done.unwrap_or(TxOutcome::Failed("execution stalled")),
        };
        if outcome != TxOutcome::Aborted {
            return (outcome, attempt);
        }
    }
    (TxOutcome::Aborted, max_attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prism_tx::{TxCluster, TxConfig, VER_HDR};

    /// An execution-phase abort retries like a validation abort: with
    /// the key's committed version failing its checksum, every attempt's
    /// read aborts, so the whole budget is spent.
    #[test]
    fn run_rmw_retries_an_execution_abort_until_the_budget_is_spent() {
        let cluster = TxCluster::new(1, &TxConfig::paper(4, 32));
        let shard = cluster.shard(0);
        let arena = shard.server().arena();
        let version = arena.read_u64(shard.view().slot(0) + 24).unwrap();
        arena.flip_bit(version + VER_HDR, 2).unwrap();
        let mut client = cluster.open_client();
        let (outcome, attempts) = run_rmw(&cluster, &mut client, &[0], |_, v| v[&0].clone(), 5);
        assert_eq!((outcome, attempts), (TxOutcome::Aborted, 5));
        assert_eq!(
            client.integrity().detected(),
            5,
            "one detection per attempt"
        );
    }
}
