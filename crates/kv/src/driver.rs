//! The client contract both key-value stores implement, and the one
//! local driver over it.
//!
//! PRISM-KV and Pilaf differ in every request they send, but not in how
//! a caller drives them: [`KvProtocol::start`] returns an operation and
//! its first request, and each reply fed back through
//! [`KvProtocol::on_reply`] yields the next [`KvStep`], until one is
//! [`KvStep::Done`]. A round trip whose reply was lost is answered with
//! [`KvProtocol::reissue`] on the same operation. [`drive`] runs that
//! loop against a local server through `prism_core`'s one delivery loop
//! ([`drive_local`]; a [`KvStep`] converts into its [`Step`]); the
//! simulator's closed-loop adapter
//! (`prism_harness::adapters::Driver`) runs it over the simulated
//! fabric.

use prism_core::msg::{Reply, Request};
use prism_core::step::{drive_local, Input};
use prism_core::{PrismServer, Step};

use crate::{KvOutcome, KvStep};

/// A key-value client as a driver sees it.
pub trait KvProtocol {
    /// One operation in flight.
    type Op: Clone;

    /// Client compute, in nanoseconds, that each finished GET costs on
    /// top of its round trips.
    const GET_COMPUTE_NS: u64;

    /// Starts a GET of `key` (`value` is `None`) or a PUT of `value`;
    /// returns the operation and its first request.
    fn start(&self, key: &[u8], value: Option<&[u8]>) -> (Self::Op, Request);

    /// Feeds the reply to the operation's last request. A lost round
    /// trip is the driver's to retry ([`KvProtocol::reissue`]), never
    /// fed here.
    fn on_reply(&self, op: &mut Self::Op, reply: Reply) -> KvStep;

    /// Re-arms `op` after a round trip whose reply never came, and
    /// returns the request to send in its place. A PUT resends the
    /// bytes it was invoked with.
    fn reissue(&self, op: &mut Self::Op) -> Request;

    /// Adopts the server's new incarnation `inc` after an amnesia
    /// rejoin.
    fn refence(&mut self, inc: u64);

    /// The buffer a reply orphaned when it arrived after its operation
    /// had moved on: the operation can no longer learn the address, so
    /// the driver frees it. `None` when the reply leaves nothing
    /// behind.
    fn harvest(reply: Reply) -> Option<u64>;
}

/// Drives a GET, PUT or DELETE machine to completion against a local
/// server (control plane, live mode, tests) through [`drive_local`]:
/// `first` is the machine's opening request and `on_reply` its reply
/// handler. Background frees are executed before the next request,
/// fire-and-forget. Returns the outcome and the number of round trips.
pub fn drive(
    server: &PrismServer,
    first: Request,
    mut on_reply: impl FnMut(Reply) -> KvStep,
) -> (KvOutcome, u32) {
    let feed = |input| match input {
        Input::Reply(.., reply) => on_reply(reply).into(),
        Input::Resume => Step::default(), // a key-value machine never waits
    };
    let (outcome, round_trips) = drive_local(KvStep::send(first).into(), |_| Some(server), feed);
    let outcome = outcome.unwrap_or(KvOutcome::Failed("drive finished without outcome"));
    (outcome, round_trips)
}
