//! Doorbell-batched multi-GET drivers.
//!
//! RDMA NICs amortize submission cost by ringing the doorbell once for a
//! list of work requests. The message layer mirrors this with
//! [`Request::Batch`]: a client drives N independent GET state machines
//! and, each round, posts every outstanding request in a single
//! submission, then drains one [`Reply::Batch`] of completions. The
//! per-machine protocols are untouched — batching lives entirely in the
//! driver, exactly as doorbell batching lives in the verbs layer and not
//! in the application logic.
//!
//! For PRISM-KV a multi-GET usually completes in **one** round (every
//! GET is a single bounded indirect READ); for Pilaf it takes two rounds
//! (index READs, then data READs) instead of `2 × N` sequential round
//! trips.

use prism_core::msg::{Reply, Request};

use crate::pilaf::{PilafClient, PilafGetOp};
use crate::prism_kv::{GetOp, PrismKvClient};
use crate::{KvOutcome, KvStep};

/// The per-request replies of a doorbell. A doorbell whose reply was
/// lost (or is not a batch) loses every request on it: each member's
/// machine sees that error in place of its reply.
fn lost_as_each(reply: Reply, n: usize) -> Vec<Reply> {
    reply
        .into_batch()
        .unwrap_or_else(|e| vec![Reply::Verb(Err(e)); n])
}

/// Drives a set of state machines to completion over a batching
/// transport. `exec` submits one request (here: always a
/// [`Request::Batch`]) and returns its reply. Returns the per-key
/// outcomes in input order plus the number of doorbell rounds.
fn drive_batched<M>(
    mut exec: impl FnMut(Request) -> Reply,
    starts: Vec<(M, Request)>,
    mut step: impl FnMut(&mut M, Reply) -> KvStep,
) -> (Vec<KvOutcome>, u64) {
    let n = starts.len();
    let mut machines: Vec<Option<M>> = Vec::with_capacity(n);
    let mut pending: Vec<(usize, Request)> = Vec::with_capacity(n);
    let mut outcomes: Vec<Option<KvOutcome>> = (0..n).map(|_| None).collect();
    for (i, (m, req)) in starts.into_iter().enumerate() {
        machines.push(Some(m));
        pending.push((i, req));
    }

    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        // Ring the doorbell once for every outstanding request.
        let (order, reqs): (Vec<usize>, Vec<Request>) = pending.drain(..).unzip();
        let replies = lost_as_each(exec(Request::Batch(reqs)), order.len());
        assert_eq!(
            replies.len(),
            order.len(),
            "one completion per work request"
        );
        let mut background: Vec<Request> = Vec::new();
        for (i, reply) in order.into_iter().zip(replies) {
            let m = machines[i].as_mut().expect("pending machine is live");
            match step(m, reply) {
                KvStep::Send {
                    request,
                    background: bg,
                } => {
                    pending.push((i, request));
                    background.extend(bg);
                }
                KvStep::Done {
                    outcome,
                    background: bg,
                } => {
                    outcomes[i] = Some(outcome);
                    machines[i] = None;
                    background.extend(bg);
                }
            }
        }
        // Fire-and-forget follow-ups ride the next doorbell's coattails:
        // submit them as one batch too, ignoring the replies.
        if !background.is_empty() {
            exec(Request::Batch(background));
        }
    }
    (
        outcomes
            .into_iter()
            .map(|o| o.expect("every machine completed"))
            .collect(),
        rounds,
    )
}

/// Batched Pilaf multi-GET: each round posts the outstanding READs of
/// every in-flight GET as one doorbell batch. Returns outcomes in key
/// order and the number of rounds (2 for uncontended hits: index READs,
/// then data READs).
pub fn pilaf_get_many(
    client: &PilafClient,
    keys: &[Vec<u8>],
    exec: impl FnMut(Request) -> Reply,
) -> (Vec<KvOutcome>, u64) {
    let starts: Vec<(PilafGetOp, Request)> = keys.iter().map(|k| client.get(k)).collect();
    drive_batched(exec, starts, |m, reply| m.on_reply(client, reply))
}

/// Batched PRISM-KV multi-GET: posts every GET's bounded indirect READ
/// in one doorbell batch (1 round for uncontended hits).
pub fn prism_kv_get_many(
    client: &PrismKvClient,
    keys: &[Vec<u8>],
    exec: impl FnMut(Request) -> Reply,
) -> (Vec<KvOutcome>, u64) {
    let starts: Vec<(GetOp, Request)> = keys.iter().map(|k| client.get(k)).collect();
    drive_batched(exec, starts, |m, reply| m.on_reply(client, reply))
}

/// Cross-shard doorbell-batched PRISM-KV multi-GET.
///
/// One logical multi-GET over a sharded cluster: `route` names each
/// key's home shard, `clients[shard]` is that shard's protocol client,
/// and `exec(shard, req)` submits one request to that shard. Each
/// round, every outstanding request is grouped by home shard and posted
/// as **one [`Request::Batch`] doorbell per involved shard**; the
/// per-shard completion batches are merged back into key order before
/// the next round. Per-shard background follow-ups (free notifications)
/// ride their own shard's next doorbell.
///
/// Returns the outcomes in key order, the total doorbells rung
/// (foreground batches only — the cross-shard fan-out cost), and the
/// number of rounds (still 1 for uncontended PRISM-KV hits: sharding
/// widens the fan-out, not the dependency depth).
pub fn prism_kv_get_many_sharded(
    clients: &[PrismKvClient],
    route: impl Fn(&[u8]) -> usize,
    keys: &[Vec<u8>],
    mut exec: impl FnMut(usize, Request) -> Reply,
) -> (Vec<KvOutcome>, u64, u64) {
    let n = keys.len();
    let shards = clients.len();
    let mut machines: Vec<Option<GetOp>> = Vec::with_capacity(n);
    let mut home: Vec<usize> = Vec::with_capacity(n);
    let mut pending: Vec<(usize, Request)> = Vec::with_capacity(n);
    let mut outcomes: Vec<Option<KvOutcome>> = (0..n).map(|_| None).collect();
    for (i, key) in keys.iter().enumerate() {
        let shard = route(key);
        assert!(shard < shards, "route() past the client table");
        let (m, req) = clients[shard].get(key);
        machines.push(Some(m));
        home.push(shard);
        pending.push((i, req));
    }

    let mut doorbells = 0u64;
    let mut rounds = 0u64;
    while !pending.is_empty() {
        rounds += 1;
        // Group this round's work requests by home shard, preserving
        // key order within each group.
        let mut groups: Vec<(Vec<usize>, Vec<Request>)> =
            (0..shards).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, req) in pending.drain(..) {
            groups[home[i]].0.push(i);
            groups[home[i]].1.push(req);
        }
        let mut background: Vec<(usize, Vec<Request>)> = Vec::new();
        for (shard, (order, reqs)) in groups.into_iter().enumerate() {
            if order.is_empty() {
                continue;
            }
            // One doorbell for this shard's slice of the logical batch.
            doorbells += 1;
            let replies = lost_as_each(exec(shard, Request::Batch(reqs)), order.len());
            assert_eq!(
                replies.len(),
                order.len(),
                "one completion per work request"
            );
            let mut bg: Vec<Request> = Vec::new();
            for (i, reply) in order.into_iter().zip(replies) {
                let m = machines[i].as_mut().expect("pending machine is live");
                match m.on_reply(&clients[shard], reply) {
                    KvStep::Send {
                        request,
                        background,
                    } => {
                        pending.push((i, request));
                        bg.extend(background);
                    }
                    KvStep::Done {
                        outcome,
                        background,
                    } => {
                        outcomes[i] = Some(outcome);
                        machines[i] = None;
                        bg.extend(background);
                    }
                }
            }
            if !bg.is_empty() {
                background.push((shard, bg));
            }
        }
        // Fire-and-forget follow-ups ride each shard's next doorbell.
        for (shard, bg) in background {
            exec(shard, Request::Batch(bg));
        }
    }
    (
        outcomes
            .into_iter()
            .map(|o| o.expect("every machine completed"))
            .collect(),
        doorbells,
        rounds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_bytes;
    use crate::pilaf::{PilafConfig, PilafServer};
    use crate::prism_kv::{PrismKvConfig, PrismKvServer};
    use prism_core::msg::execute_local;

    #[test]
    fn pilaf_multi_get_takes_two_rounds() {
        let s = PilafServer::new(&PilafConfig::paper(32, 16));
        let c = s.open_client();
        let keys: Vec<Vec<u8>> = (0..16u64).map(|k| key_bytes(k).to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            let reply = execute_local(s.server(), &c.put_request(k, &[i as u8; 16]));
            assert_eq!(c.put_outcome(reply), KvOutcome::Written);
        }
        let (outcomes, rounds) = pilaf_get_many(&c, &keys, |req| execute_local(s.server(), &req));
        assert_eq!(rounds, 2, "index READs batched, then data READs batched");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(*o, KvOutcome::Value(Some(vec![i as u8; 16])));
        }
    }

    #[test]
    fn prism_kv_multi_get_takes_one_round() {
        let s = PrismKvServer::new(&PrismKvConfig::paper(32, 16));
        let c = s.open_client();
        let keys: Vec<Vec<u8>> = (0..8u64).map(|k| key_bytes(k).to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            let (mut op, req) = c.put(k, &[i as u8; 16]);
            let mut reply = execute_local(s.server(), &req);
            loop {
                match op.on_reply(&c, reply) {
                    KvStep::Send {
                        request,
                        background,
                    } => {
                        if let Some(b) = background {
                            execute_local(s.server(), &b);
                        }
                        reply = execute_local(s.server(), &request);
                    }
                    KvStep::Done { outcome, .. } => {
                        assert_eq!(outcome, KvOutcome::Written);
                        break;
                    }
                }
            }
        }
        let (outcomes, rounds) =
            prism_kv_get_many(&c, &keys, |req| execute_local(s.server(), &req));
        assert_eq!(rounds, 1, "every GET is one bounded indirect READ");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(*o, KvOutcome::Value(Some(vec![i as u8; 16])));
        }
    }

    fn put_local(s: &PrismKvServer, c: &PrismKvClient, key: &[u8], value: &[u8]) {
        let (mut op, req) = c.put(key, value);
        let mut reply = execute_local(s.server(), &req);
        loop {
            match op.on_reply(c, reply) {
                KvStep::Send {
                    request,
                    background,
                } => {
                    if let Some(b) = background {
                        execute_local(s.server(), &b);
                    }
                    reply = execute_local(s.server(), &request);
                }
                KvStep::Done { outcome, .. } => {
                    assert_eq!(outcome, KvOutcome::Written);
                    break;
                }
            }
        }
    }

    #[test]
    fn sharded_multi_get_rings_one_doorbell_per_shard() {
        let config = PrismKvConfig::paper(32, 16);
        let servers: Vec<PrismKvServer> = (0..2).map(|_| PrismKvServer::new(&config)).collect();
        let clients: Vec<PrismKvClient> = servers.iter().map(|s| s.open_client()).collect();
        let route = |k: &[u8]| (k[0] & 1) as usize;
        let keys: Vec<Vec<u8>> = (0..8u64).map(|k| key_bytes(k).to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            let shard = route(k);
            put_local(&servers[shard], &clients[shard], k, &[i as u8; 16]);
        }
        let (outcomes, doorbells, rounds) =
            prism_kv_get_many_sharded(&clients, route, &keys, |shard, req| {
                execute_local(servers[shard].server(), &req)
            });
        assert_eq!(rounds, 1, "sharding widens fan-out, not dependency depth");
        assert_eq!(doorbells, 2, "one doorbell per involved shard, not per key");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(*o, KvOutcome::Value(Some(vec![i as u8; 16])));
        }
        // A batch restricted to one shard's keys rings one doorbell.
        let even: Vec<Vec<u8>> = keys.iter().filter(|k| route(k) == 0).cloned().collect();
        let (_, doorbells, _) = prism_kv_get_many_sharded(&clients, route, &even, |shard, req| {
            execute_local(servers[shard].server(), &req)
        });
        assert_eq!(doorbells, 1);
    }

    #[test]
    fn missing_and_present_keys_mix() {
        let s = PilafServer::new(&PilafConfig::paper(16, 8));
        let c = s.open_client();
        let reply = execute_local(s.server(), &c.put_request(&key_bytes(3), b"present!"));
        assert_eq!(c.put_outcome(reply), KvOutcome::Written);
        let keys = vec![key_bytes(3).to_vec(), key_bytes(7).to_vec()];
        let (outcomes, _) = pilaf_get_many(&c, &keys, |req| execute_local(s.server(), &req));
        assert_eq!(outcomes[0], KvOutcome::Value(Some(b"present!".to_vec())));
        assert_eq!(outcomes[1], KvOutcome::Value(None));
    }

    #[test]
    fn batch_wire_len_amortizes_headers() {
        // One doorbell batch of N READs costs less on the wire than N
        // separate submissions' framing.
        let reqs: Vec<Request> = (0..16)
            .map(|i| {
                Request::Verb(prism_core::msg::Verb::Read {
                    addr: i * 64,
                    len: 32,
                    rkey: 1,
                })
            })
            .collect();
        let singly: u64 = reqs.iter().map(Request::wire_len).sum();
        let batched = Request::Batch(reqs).wire_len();
        assert_eq!(batched, singly + 8);
    }
}
