//! Minimal servers and adapters shared by the unit tests of the
//! netsim layers and the open-loop engine.

use std::sync::Arc;

use prism_core::builder::ops;
use prism_core::msg::{Reply, Request, Verb};
use prism_core::PrismServer;
use prism_rdma::region::AccessFlags;
use prism_simnet::engine::{Actor, Context};
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;

use super::{AdapterStep, Outbound, ProtoAdapter, ServerActor, SimMsg};

/// A 1 MiB server with one 4 KiB region: `(server, addr, rkey)`.
pub(crate) fn test_server() -> (Arc<PrismServer>, u64, u32) {
    let s = Arc::new(PrismServer::new(1 << 20));
    let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
    (s, addr, rkey.0)
}

fn read_verb(addr: u64, rkey: u32) -> Request {
    Request::Verb(Verb::Read {
        addr,
        len: 512,
        rkey,
    })
}

fn done(failed: bool) -> AdapterStep {
    AdapterStep::Done {
        sends: Vec::new(),
        client_compute: SimDuration::ZERO,
        failed,
    }
}

/// An adapter issuing one 512-byte READ per op — a one-op chain or a
/// plain verb — under a caller-chosen tag (full-width tags must
/// round-trip). Any error reply fails the op.
struct ReadAdapter {
    addr: u64,
    rkey: u32,
    chain: bool,
    tag: u64,
}

/// A boxed [`ReadAdapter`].
pub(crate) fn read_adapter(addr: u64, rkey: u32, chain: bool, tag: u64) -> Box<dyn ProtoAdapter> {
    Box::new(ReadAdapter {
        addr,
        rkey,
        chain,
        tag,
    })
}

impl ProtoAdapter for ReadAdapter {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        let req = if self.chain {
            Request::Chain(vec![ops::read(self.addr, 512, self.rkey)])
        } else {
            read_verb(self.addr, self.rkey)
        };
        vec![Outbound::new(0, self.tag, req, false)]
    }

    fn resume(&mut self) -> Vec<Outbound> {
        unreachable!()
    }

    fn on_reply(&mut self, tag: u64, reply: Reply) -> AdapterStep {
        assert_eq!(tag, self.tag);
        match reply {
            Reply::Verb(Ok(d)) => assert_eq!(d.len(), 512),
            Reply::Chain(r) => assert_eq!(r[0].data.len(), 512),
            Reply::Verb(Err(_)) => return done(true),
            other => panic!("unexpected {other:?}"),
        }
        done(false)
    }
}

/// Retries a failed round trip up to `budget` times, then gives up —
/// exercising the Retry (with seeded jitter) and GiveUp paths. With
/// `hedge`, its read opts into hedging.
struct FaultyRead {
    addr: u64,
    rkey: u32,
    budget: u32,
    hedge: bool,
    attempts: u32,
}

impl ProtoAdapter for FaultyRead {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        self.attempts = 0;
        self.resume()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        vec![Outbound::new(0, 0, read_verb(self.addr, self.rkey), false)]
    }

    fn on_reply(&mut self, _tag: u64, reply: Reply) -> AdapterStep {
        if matches!(reply, Reply::Verb(Ok(_))) {
            return done(false);
        }
        self.attempts += 1;
        if self.attempts <= self.budget {
            AdapterStep::Retry {
                sends: Vec::new(),
                wait: SimDuration::micros(20),
            }
        } else {
            AdapterStep::GiveUp { sends: Vec::new() }
        }
    }

    fn hedge_eligible(&self, _tag: u64) -> bool {
        self.hedge
    }
}

/// A [`FaultyRead`] with the given retry budget (`u32::MAX` retries
/// forever — the shape that needs a deadline budget to stop).
pub(crate) fn faulty_read(addr: u64, rkey: u32, budget: u32, hedge: bool) -> Box<dyn ProtoAdapter> {
    Box::new(FaultyRead {
        addr,
        rkey,
        budget,
        hedge,
        attempts: 0,
    })
}

/// A server actor that is never shown a message before delivery: every
/// callback is forwarded except [`Actor::lookahead`], which keeps the
/// trait's no-op. A run behind this wrapper executes exactly what a
/// build without lookahead would.
struct Unhinted(ServerActor);

impl Actor<SimMsg> for Unhinted {
    fn on_start(&mut self, ctx: &mut Context<'_, SimMsg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, msg: SimMsg, ctx: &mut Context<'_, SimMsg>) {
        self.0.on_message(msg, ctx);
    }
}

/// Boxes `server` behind [`Unhinted`] (a [`super::run::BoxServer`]).
pub(crate) fn unhinted(server: ServerActor) -> Box<dyn Actor<SimMsg>> {
    Box::new(Unhinted(server))
}
