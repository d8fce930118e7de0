//! ABDLOCK: the lock-based ABD baseline built from standard RDMA verbs
//! (§7.2 of the paper, following the DrTM \[44\] locking pattern).
//!
//! Each replica stores each block in place:
//! `[lock u64 | tag u64 (big-endian) | value]`. A client CASes its id
//! into the lock word at a majority of replicas, READs tag+value,
//! decides locally, WRITEs the new tag+value, and CASes the locks back —
//! four round trips where PRISM-RS needs two, which is exactly the gap
//! Figure 6 measures. On lock conflict the client releases whatever it
//! acquired and retries after randomized exponential backoff; the
//! protocol can livelock under contention (§7.2 "the system may enter a
//! livelocked state"), which Figure 7 shows as latency collapse at high
//! Zipf coefficients.

use std::sync::Arc;

use prism_core::lease::{clear_if_held, Lease, Leased};
use prism_core::msg::{Reply, Request, Verb};
use prism_core::PrismServer;
use prism_rdma::region::AccessFlags;
use prism_simnet::rng::SimRng;

use crate::driver::{RsOutcome, RsProtocol, RsStep};
use crate::tag::Tag;

/// Per-block header: lock word + tag.
pub const HEADER: u64 = 16;

/// Base backoff after a failed lock acquisition (doubles per retry, with
/// jitter).
pub const BACKOFF_BASE_NS: u64 = 4_000;

/// Backoff cap.
pub const BACKOFF_CAP_NS: u64 = 2_000_000;

/// Retry budget before reporting failure.
pub const MAX_LOCK_RETRIES: u32 = 5_000;

/// Per-replica configuration.
#[derive(Debug, Clone)]
pub struct AbdLockConfig {
    /// Number of blocks.
    pub n_blocks: u64,
    /// Value bytes per block.
    pub block_size: u64,
}

/// Client-visible layout of one replica.
#[derive(Debug, Clone)]
pub struct AbdLockView {
    /// Base of the block array.
    pub base: u64,
    /// Rkey covering the block array.
    pub rkey: u32,
    /// Number of blocks.
    pub n_blocks: u64,
    /// Value bytes per block.
    pub block_size: u64,
    /// Distance between consecutive blocks.
    pub stride: u64,
}

impl AbdLockView {
    /// Address of block `i` (its lock word).
    pub fn block(&self, i: u64) -> u64 {
        self.base + i * self.stride
    }
}

/// One ABDLOCK replica: plain registered memory, no server-side logic at
/// all (the whole protocol is client-driven) beyond the lease over its
/// lock words.
pub struct AbdLockServer {
    server: Arc<PrismServer>,
    view: AbdLockView,
    /// Lease over held lock words (see its [`Leased`] impl).
    lease: Lease,
}

impl AbdLockServer {
    /// Builds a replica with every block present at tag 0, value zeroed.
    pub fn new(config: &AbdLockConfig) -> Self {
        let stride = (HEADER + config.block_size).next_multiple_of(64);
        let len = stride * config.n_blocks;
        let server = Arc::new(PrismServer::new(len + (1 << 20)));
        let (base, rkey) = server.carve_region(len, 64, AccessFlags::FULL);
        // Arena starts zeroed: lock = 0 (free), tag = 0, value = zeroes.
        AbdLockServer {
            server,
            view: AbdLockView {
                base,
                rkey: rkey.0,
                n_blocks: config.n_blocks,
                block_size: config.block_size,
                stride,
            },
            lease: Lease::default(),
        }
    }

    /// The underlying host.
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// The client-visible layout.
    pub fn view(&self) -> &AbdLockView {
        &self.view
    }
}

/// The force-release a lost unlock needs (§7.2). A block's stamp is its
/// lock word, the holder's client id; the release CASes the word back to
/// 0 if it still holds that id. A client id is not a per-acquisition
/// token: the same client can release a lock and take it again between
/// two sightings, so the lease is sound only while no client runs
/// (between runs, as `System::settle` calls it in the harness), not as
/// an in-run sweep.
impl Leased for AbdLockServer {
    fn lease(&self) -> &Lease {
        &self.lease
    }

    fn words(&self) -> u64 {
        self.view.n_blocks
    }

    fn stamp(&self, i: u64) -> Option<u64> {
        let id = self
            .server
            .arena()
            .read_u64(self.view.block(i))
            .expect("in arena");
        (id != 0).then_some(id)
    }

    fn release(&self, i: u64, id: u64) {
        clear_if_held(&self.server, self.view.block(i), id);
    }
}

/// An `n = 2f + 1` ABDLOCK replica group.
pub struct AbdLockCluster {
    replicas: Vec<AbdLockServer>,
    next_client: std::sync::atomic::AtomicU16,
}

impl AbdLockCluster {
    /// Builds `n` identical replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is odd and at least 3.
    pub fn new(n: usize, config: &AbdLockConfig) -> Self {
        assert!(n >= 3 && n % 2 == 1, "ABD needs n = 2f+1 >= 3 replicas");
        AbdLockCluster {
            replicas: (0..n).map(|_| AbdLockServer::new(config)).collect(),
            next_client: std::sync::atomic::AtomicU16::new(1),
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Tolerated failures.
    pub fn f(&self) -> usize {
        (self.replicas.len() - 1) / 2
    }

    /// Replica `i`.
    pub fn replica(&self, i: usize) -> &AbdLockServer {
        &self.replicas[i]
    }

    /// Opens a client with a fresh nonzero id.
    pub fn open_client(&self, seed: u64) -> AbdLockClient {
        let id = self
            .next_client
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        AbdLockClient {
            views: self.replicas.iter().map(|r| r.view.clone()).collect(),
            client_id: id,
            f: self.f(),
            rng: SimRng::new(seed ^ ((id as u64) << 32)),
        }
    }
}

/// An ABDLOCK client.
#[derive(Debug, Clone)]
pub struct AbdLockClient {
    views: Vec<AbdLockView>,
    client_id: u16,
    f: usize,
    rng: SimRng,
}

#[derive(Debug, Clone)]
enum Kind {
    Get,
    Put(Vec<u8>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Locking,
    Aborting,
    Reading,
    Writing,
    Unlocking,
    Backoff,
    Done,
}

/// A lock-based ABD operation in flight.
///
/// The lock phase sends a CAS to every replica and waits for *all*
/// replies before proceeding (unreachable replicas surface as error
/// replies — the driver's stand-in for a timeout). Proceeding as soon
/// as a majority is locked would be an optimization the DrTM-style
/// baseline does not have: the remaining lock grants are already in
/// flight, and the client uses every lock it acquired for the read and
/// write phases.
#[derive(Debug, Clone)]
pub struct AbdLockOp {
    kind: Kind,
    block: u64,
    phase: Phase,
    phase_no: u32,
    lock_replies: usize,
    /// Phase numbers that were lock-acquisition rounds, so stale lock
    /// successes can be rolled back (see `on_reply`).
    lock_rounds: std::collections::HashSet<u32>,
    locked: Vec<bool>,
    lock_ok: usize,
    lock_fail: usize,
    retries: u32,
    max_tag: Tag,
    max_value: Option<Vec<u8>>,
    read_replies: usize,
    /// Error replies (crashed replica / timeout stand-ins) in the read
    /// phase; when every locked replica has answered but too few
    /// usefully, the round releases its locks and retries instead of
    /// waiting forever.
    read_errs: usize,
    write_acks: usize,
    /// Error replies in the write phase (same role as `read_errs`).
    write_errs: usize,
    unlock_acks: usize,
    abort_acks: usize,
    write_tag: Tag,
    result_value: Option<Vec<u8>>,
}

impl AbdLockClient {
    /// The client's id.
    pub fn id(&self) -> u16 {
        self.client_id
    }

    /// Quorum size `f + 1`.
    pub fn quorum(&self) -> usize {
        self.f + 1
    }
}

impl RsProtocol for AbdLockClient {
    type Cluster = AbdLockCluster;
    type Op = AbdLockOp;

    /// No leg of a GET may run twice: its write-back is an in-place
    /// WRITE under the block's locks, and a late duplicate of it could
    /// land after the unlock — over a newer writer's value.
    const HEDGE_GETS: bool = false;

    fn server(cluster: &AbdLockCluster, replica: usize) -> &PrismServer {
        cluster.replica(replica).server()
    }

    fn n(&self) -> usize {
        self.views.len()
    }

    fn get(&mut self, block: u64) -> (AbdLockOp, RsStep) {
        let mut op = AbdLockOp::new(Kind::Get, block, self.n());
        let step = op.lock_sends(self);
        (op, step)
    }

    fn put(&mut self, block: u64, value: Vec<u8>) -> (AbdLockOp, RsStep) {
        assert_eq!(value.len() as u64, self.views[0].block_size);
        let mut op = AbdLockOp::new(Kind::Put(value), block, self.n());
        let step = op.lock_sends(self);
        (op, step)
    }

    fn on_reply(&mut self, op: &mut AbdLockOp, phase: u32, replica: usize, reply: Reply) -> RsStep {
        if phase != op.phase_no {
            // Stale reply from a superseded round. The only stale reply
            // that needs action is a *successful lock CAS*: the client
            // has moved on, so the lock must be rolled back or the block
            // would be wedged for every other client.
            if op.lock_rounds.contains(&phase) {
                if let Reply::Verb(Ok(old)) = &reply {
                    if old.len() == 8
                        && u64::from_le_bytes(old.as_slice().try_into().expect("8 bytes")) == 0
                    {
                        let v = &self.views[replica];
                        let unlock = Request::Verb(Verb::Cas64 {
                            addr: v.block(op.block),
                            compare: self.client_id as u64,
                            swap: 0,
                            rkey: v.rkey,
                        });
                        return RsStep {
                            background: vec![(replica, unlock)],
                            ..Default::default()
                        };
                    }
                }
            }
            return RsStep::default();
        }
        match op.phase {
            Phase::Locking => op.on_lock_reply(self, replica, reply),
            Phase::Aborting => op.on_abort_reply(self),
            Phase::Reading => op.on_read_reply(self, reply),
            Phase::Writing => op.on_write_reply(self, reply),
            Phase::Unlocking => op.on_unlock_reply(),
            Phase::Backoff | Phase::Done => RsStep::default(),
        }
    }

    /// Restarts the lock round: after a backoff, or after a failure.
    fn reissue(&mut self, op: &mut AbdLockOp) -> RsStep {
        op.lock_sends(self)
    }

    /// ABDLOCK replicas are never amnesia-restarted: nothing to adopt.
    fn refence(&mut self, _replica: usize, _inc: u64) {}

    /// ABDLOCK writes in place: no reply orphans a buffer.
    fn harvest(_reply: Reply) -> Option<u64> {
        None
    }
}

impl AbdLockOp {
    fn new(kind: Kind, block: u64, n: usize) -> Self {
        AbdLockOp {
            kind,
            block,
            phase: Phase::Locking,
            phase_no: 0,
            lock_replies: 0,
            lock_rounds: std::collections::HashSet::new(),
            locked: vec![false; n],
            lock_ok: 0,
            lock_fail: 0,
            retries: 0,
            max_tag: Tag::ZERO,
            max_value: None,
            read_replies: 0,
            read_errs: 0,
            write_acks: 0,
            write_errs: 0,
            unlock_acks: 0,
            abort_acks: 0,
            write_tag: Tag::ZERO,
            result_value: None,
        }
    }

    fn lock_sends(&mut self, c: &AbdLockClient) -> RsStep {
        self.phase = Phase::Locking;
        self.locked.iter_mut().for_each(|l| *l = false);
        self.lock_replies = 0;
        self.lock_ok = 0;
        self.lock_fail = 0;
        self.read_replies = 0;
        self.read_errs = 0;
        self.write_acks = 0;
        self.write_errs = 0;
        self.unlock_acks = 0;
        self.abort_acks = 0;
        self.max_tag = Tag::ZERO;
        self.max_value = None;
        self.phase_no += 1;
        self.lock_rounds.insert(self.phase_no);
        RsStep::sends(
            c.views
                .iter()
                .enumerate()
                .map(|(r, v)| {
                    (
                        r,
                        self.phase_no,
                        0,
                        Request::Verb(Verb::Cas64 {
                            addr: v.block(self.block),
                            compare: 0,
                            swap: c.client_id as u64,
                            rkey: v.rkey,
                        }),
                    )
                })
                .collect(),
        )
    }

    fn sends_to_locked(
        &self,
        c: &AbdLockClient,
        mk: impl Fn(usize, &AbdLockView) -> Request,
    ) -> Vec<(usize, u32, u32, Request)> {
        self.locked
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(r, _)| (r, self.phase_no, 0, mk(r, &c.views[r])))
            .collect()
    }

    fn on_lock_reply(&mut self, c: &mut AbdLockClient, replica: usize, reply: Reply) -> RsStep {
        self.lock_replies += 1;
        match reply.into_verb() {
            Ok(old) if old.len() == 8 => {
                let prev = u64::from_le_bytes(old.try_into().expect("8 bytes"));
                if prev == 0 {
                    self.locked[replica] = true;
                    self.lock_ok += 1;
                } else {
                    self.lock_fail += 1;
                }
            }
            _ => self.lock_fail += 1,
        }
        if self.lock_replies < c.n() || self.phase != Phase::Locking {
            return RsStep::default();
        }
        if self.lock_ok >= c.quorum() {
            // Locked wherever possible: read tag+value from the whole
            // locked set.
            self.phase = Phase::Reading;
            self.phase_no += 1;
            let block = self.block;
            return RsStep::sends(self.sends_to_locked(c, |_, v| {
                Request::Verb(Verb::Read {
                    addr: v.block(block) + 8,
                    len: (8 + v.block_size) as u32,
                    rkey: v.rkey,
                })
            }));
        }
        self.abort_locks(c)
    }

    /// Releases every lock acquired this round, then backs off.
    fn abort_locks(&mut self, c: &mut AbdLockClient) -> RsStep {
        self.retries += 1;
        if self.lock_ok == 0 {
            return self.backoff(c);
        }
        self.phase = Phase::Aborting;
        self.phase_no += 1;
        self.abort_acks = 0;
        let id = c.client_id as u64;
        let block = self.block;
        RsStep::sends(self.sends_to_locked(c, |_, v| {
            Request::Verb(Verb::Cas64 {
                addr: v.block(block),
                compare: id,
                swap: 0,
                rkey: v.rkey,
            })
        }))
    }

    fn on_abort_reply(&mut self, c: &mut AbdLockClient) -> RsStep {
        self.abort_acks += 1;
        if self.abort_acks >= self.lock_ok {
            return self.backoff(c);
        }
        RsStep::default()
    }

    /// Backs off once the round holds no lock; past the retry budget,
    /// fails instead and starts a fresh budget for a reissued attempt.
    fn backoff(&mut self, c: &mut AbdLockClient) -> RsStep {
        if self.retries > MAX_LOCK_RETRIES {
            self.phase = Phase::Done;
            self.retries = 0;
            return RsStep::finished(RsOutcome::Failed("lock retries exhausted"));
        }
        self.phase = Phase::Backoff;
        let exp = self.retries.min(9);
        let base = (BACKOFF_BASE_NS << exp).min(BACKOFF_CAP_NS);
        let jitter = c.rng.gen_range(base);
        RsStep {
            backoff_ns: Some(base + jitter),
            ..Default::default()
        }
    }

    fn on_read_reply(&mut self, c: &mut AbdLockClient, reply: Reply) -> RsStep {
        match reply.into_verb() {
            Ok(data) if data.len() >= 8 => {
                let tag = Tag::from_bytes(&data[..8]);
                if tag >= self.max_tag || self.max_value.is_none() {
                    self.max_tag = tag;
                    self.max_value = Some(data[8..].to_vec());
                }
                self.read_replies += 1;
            }
            // A locked replica answering with an error (crash / timeout
            // stand-in): without counting these, a lost read would leave
            // the round waiting forever with the locks held.
            _ => self.read_errs += 1,
        }
        if self.phase != Phase::Reading {
            return RsStep::default();
        }
        let threshold = self.lock_ok.min(c.quorum());
        if self.read_replies < threshold {
            if self.read_replies + self.read_errs >= self.lock_ok {
                // Every locked replica answered but too few usefully:
                // release the locks and retry the whole round.
                return self.abort_locks(c);
            }
            return RsStep::default();
        }
        // Decide locally, then propagate.
        let (tag, value) = match &self.kind {
            Kind::Get => {
                // Counted read replies always carry a value; guard so
                // a slip degrades to a retried round, not a panic.
                let Some(v) = self.max_value.clone() else {
                    return self.abort_locks(c);
                };
                self.result_value = Some(v.clone());
                (self.max_tag, v)
            }
            Kind::Put(v) => (self.max_tag.successor(c.client_id), v.clone()),
        };
        self.write_tag = tag;
        self.phase = Phase::Writing;
        self.phase_no += 1;
        let block = self.block;
        let mut payload = Vec::with_capacity(8 + value.len());
        payload.extend_from_slice(&tag.to_bytes());
        payload.extend_from_slice(&value);
        RsStep::sends(self.sends_to_locked(c, |_, v| {
            Request::Verb(Verb::Write {
                addr: v.block(block) + 8,
                data: payload.clone(),
                rkey: v.rkey,
            })
        }))
    }

    fn on_write_reply(&mut self, c: &mut AbdLockClient, reply: Reply) -> RsStep {
        if reply.into_verb().is_ok() {
            self.write_acks += 1;
        } else {
            self.write_errs += 1;
        }
        if self.phase == Phase::Writing
            && self.write_acks < self.lock_ok.min(c.quorum())
            && self.write_acks + self.write_errs >= self.lock_ok
        {
            // Every locked replica answered the write but too few
            // acknowledged: release the locks and retry the round (the
            // partial write is harmless — a later read takes the max
            // tag, and GETs write back what they return).
            return self.abort_locks(c);
        }
        if self.write_acks >= self.lock_ok.min(c.quorum()) && self.phase == Phase::Writing {
            self.phase = Phase::Unlocking;
            self.phase_no += 1;
            let id = c.client_id as u64;
            let block = self.block;
            return RsStep::sends(self.sends_to_locked(c, |_, v| {
                Request::Verb(Verb::Cas64 {
                    addr: v.block(block),
                    compare: id,
                    swap: 0,
                    rkey: v.rkey,
                })
            }));
        }
        RsStep::default()
    }

    fn on_unlock_reply(&mut self) -> RsStep {
        self.unlock_acks += 1;
        if self.unlock_acks >= self.lock_ok && self.phase == Phase::Unlocking {
            self.phase = Phase::Done;
            return RsStep::finished(match (&self.kind, self.result_value.clone()) {
                (Kind::Get, Some(v)) => RsOutcome::Value(v),
                (Kind::Get, None) => RsOutcome::Failed("get lost its value"),
                (Kind::Put(_), _) => RsOutcome::Written,
            });
        }
        RsStep::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::drive;

    fn cluster() -> AbdLockCluster {
        AbdLockCluster::new(
            3,
            &AbdLockConfig {
                n_blocks: 8,
                block_size: 64,
            },
        )
    }

    fn get(cl: &AbdLockCluster, c: &mut AbdLockClient, b: u64, crashed: &[bool]) -> RsOutcome {
        let (op, step) = c.get(b);
        drive(cl, c, op, step, crashed)
    }

    fn put(
        cl: &AbdLockCluster,
        c: &mut AbdLockClient,
        b: u64,
        v: Vec<u8>,
        crashed: &[bool],
    ) -> RsOutcome {
        let (op, step) = c.put(b, v);
        drive(cl, c, op, step, crashed)
    }

    #[test]
    fn fresh_block_reads_zeroes() {
        let cl = cluster();
        let mut c = cl.open_client(1);
        assert_eq!(
            get(&cl, &mut c, 0, &[false; 3]),
            RsOutcome::Value(vec![0; 64])
        );
    }

    #[test]
    fn put_then_get() {
        let cl = cluster();
        let mut c = cl.open_client(2);
        assert_eq!(
            put(&cl, &mut c, 1, vec![3u8; 64], &[false; 3]),
            RsOutcome::Written
        );
        assert_eq!(
            get(&cl, &mut c, 1, &[false; 3]),
            RsOutcome::Value(vec![3u8; 64])
        );
    }

    #[test]
    fn locks_are_released_after_each_op() {
        let cl = cluster();
        let mut c = cl.open_client(3);
        put(&cl, &mut c, 0, vec![1u8; 64], &[false; 3]);
        for r in 0..3 {
            let v = cl.replica(r).view().clone();
            let lock = cl.replica(r).server().arena().read_u64(v.block(0)).unwrap();
            assert_eq!(lock, 0, "replica {r} lock must be free");
        }
    }

    #[test]
    fn survives_one_crash() {
        let cl = cluster();
        let mut c = cl.open_client(4);
        let crashed = [true, false, false];
        assert_eq!(
            put(&cl, &mut c, 0, vec![9u8; 64], &crashed),
            RsOutcome::Written
        );
        assert_eq!(
            get(&cl, &mut c, 0, &crashed),
            RsOutcome::Value(vec![9u8; 64])
        );
    }

    #[test]
    fn conflicting_clients_serialize_via_locks() {
        use std::sync::Arc;
        let cl = Arc::new(cluster());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cl = Arc::clone(&cl);
                std::thread::spawn(move || {
                    let mut c = cl.open_client(100 + t);
                    for i in 0..20u8 {
                        let o = put(&cl, &mut c, 0, vec![i; 64], &[false; 3]);
                        assert_eq!(o, RsOutcome::Written);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut c = cl.open_client(999);
        match get(&cl, &mut c, 0, &[false; 3]) {
            RsOutcome::Value(v) => assert!(v.iter().all(|&b| b == v[0]), "torn value"),
            o => panic!("unexpected {o:?}"),
        }
        // All locks free at quiescence.
        for r in 0..3 {
            let v = cl.replica(r).view().clone();
            assert_eq!(
                cl.replica(r).server().arena().read_u64(v.block(0)).unwrap(),
                0
            );
        }
    }

    /// ABDLOCK with a second client that PUTs the same block the moment
    /// the first client's operation completes, and a check after every
    /// reply that no replica's tag went down.
    struct Interleaved<'a> {
        cl: &'a AbdLockCluster,
        inner: AbdLockClient,
        other: AbdLockClient,
        block: u64,
        tags: Vec<Tag>,
        interfered: bool,
    }

    impl Interleaved<'_> {
        fn check_tags(&mut self) {
            for (r, seen) in self.tags.iter_mut().enumerate() {
                let v = self.cl.replica(r).view();
                let raw = self.cl.replica(r).server().arena();
                let tag = Tag::from_bytes(&raw.read(v.block(self.block) + 8, 8).unwrap());
                assert!(
                    tag >= *seen,
                    "replica {r}'s tag went down: {seen:?} -> {tag:?}"
                );
                *seen = tag;
            }
        }
    }

    impl RsProtocol for Interleaved<'_> {
        type Cluster = AbdLockCluster;
        type Op = AbdLockOp;
        const HEDGE_GETS: bool = false;

        fn server(cluster: &AbdLockCluster, replica: usize) -> &PrismServer {
            AbdLockClient::server(cluster, replica)
        }

        fn n(&self) -> usize {
            self.inner.n()
        }

        fn get(&mut self, block: u64) -> (AbdLockOp, RsStep) {
            self.inner.get(block)
        }

        fn put(&mut self, block: u64, value: Vec<u8>) -> (AbdLockOp, RsStep) {
            self.inner.put(block, value)
        }

        fn on_reply(&mut self, op: &mut AbdLockOp, phase: u32, r: usize, reply: Reply) -> RsStep {
            let step = self.inner.on_reply(op, phase, r, reply);
            self.check_tags();
            if step.done.is_some() && !self.interfered {
                self.interfered = true;
                let (op, first) = self.other.put(self.block, vec![2u8; 64]);
                let n = self.n();
                assert_eq!(
                    drive(self.cl, &mut self.other, op, first, &vec![false; n]),
                    RsOutcome::Written
                );
                self.check_tags();
            }
            step
        }

        fn reissue(&mut self, op: &mut AbdLockOp) -> RsStep {
            self.inner.reissue(op)
        }

        fn refence(&mut self, _replica: usize, _inc: u64) {}

        fn harvest(_reply: Reply) -> Option<u64> {
            None
        }
    }

    #[test]
    fn superseded_writes_land_before_the_unlock() {
        // The write quorum is two replicas, so the third replica's WRITE
        // is superseded by the unlock phase. Delivered after its unlock,
        // it would overwrite the second client's newer tag there.
        let cl = cluster();
        for put_first in [true, false] {
            let mut c = Interleaved {
                cl: &cl,
                inner: cl.open_client(11),
                other: cl.open_client(12),
                block: 3,
                tags: vec![Tag::ZERO; 3],
                interfered: false,
            };
            let (op, first) = if put_first {
                c.put(3, vec![1u8; 64])
            } else {
                c.get(3)
            };
            let outcome = drive(&cl, &mut c, op, first, &[false; 3]);
            assert!(matches!(outcome, RsOutcome::Written | RsOutcome::Value(_)));
            assert!(c.interfered);
            c.check_tags();
        }
    }

    #[test]
    fn exhausted_retries_release_the_round_locks_and_reset_the_budget() {
        let cl = cluster();
        // A phantom holds block 0 on replicas 0 and 1: every round locks
        // replica 2 alone, releases it, and backs off.
        for r in 0..2 {
            let v = cl.replica(r).view().clone();
            cl.replica(r)
                .server()
                .arena()
                .write_u64(v.block(0), 0xDEAD)
                .unwrap();
        }
        let mut c = cl.open_client(6);
        let (mut op, mut step) = c.put(0, vec![1u8; 64]);
        for attempt in 0..2 {
            let mut backoffs = 0;
            let outcome = loop {
                if let Some(o) = step.done.take() {
                    break o;
                }
                if step.backoff_ns.is_some() {
                    backoffs += 1;
                    step = c.reissue(&mut op);
                    continue;
                }
                let mut next = RsStep::default();
                for (r, phase, _, req) in std::mem::take(&mut step.send) {
                    let reply = prism_core::msg::execute_local(cl.replica(r).server(), &req);
                    let s = c.on_reply(&mut op, phase, r, reply);
                    if s.done.is_some() || s.backoff_ns.is_some() || !s.send.is_empty() {
                        next = s;
                    }
                }
                step = next;
            };
            assert_eq!(outcome, RsOutcome::Failed("lock retries exhausted"));
            // The reissued attempt gets the whole budget again.
            assert_eq!(backoffs, MAX_LOCK_RETRIES, "attempt {attempt}");
            let v = cl.replica(2).view().clone();
            let lock = cl.replica(2).server().arena().read_u64(v.block(0)).unwrap();
            assert_eq!(
                lock, 0,
                "attempt {attempt}: replica 2's lock must be released"
            );
            step = c.reissue(&mut op);
        }
    }

    #[test]
    fn sweep_releases_orphaned_lock_after_two_sightings() {
        let cl = cluster();
        let lock = |r: usize| (cl.replica(r), cl.replica(r).view().block(0));
        let held = || (0..3).map(|r| cl.replica(r).held()).sum::<u64>();
        let sweep = || (0..3).map(|r| cl.replica(r).sweep()).sum::<u64>();
        // A client dies holding block 0's lock on two replicas.
        for r in 0..2 {
            let (replica, addr) = lock(r);
            replica.server().arena().write_u64(addr, 0xDEAD).unwrap();
        }
        assert_eq!(held(), 2);

        assert_eq!(sweep(), 0, "first sighting only leases");
        assert_eq!(held(), 2);
        // Replica 0's word changes hands between the two passes.
        let (replica, addr) = lock(0);
        replica.server().arena().write_u64(addr, 77).unwrap();
        assert_eq!(sweep(), 1, "second sighting releases");
        assert_eq!(replica.server().arena().read_u64(addr).unwrap(), 77);
        // The release is guarded: a stale stamp leaves the new holder's
        // word alone.
        replica.release(0, 0xDEAD);
        assert_eq!(
            replica.server().arena().read_u64(addr).unwrap(),
            77,
            "the new holder's lock must survive a release of the old stamp"
        );
        assert_eq!(sweep(), 1, "the new holder's own second sighting");
        assert_eq!(held(), 0);
        assert_eq!(sweep(), 0);
        let reclaims = (0..3).map(|r| cl.replica(r).lease().reclaims());
        assert_eq!(reclaims.sum::<u64>(), 2);

        // The block is usable again.
        let mut c = cl.open_client(9);
        assert_eq!(
            put(&cl, &mut c, 0, vec![5u8; 64], &[false; 3]),
            RsOutcome::Written
        );
        assert_eq!(
            get(&cl, &mut c, 0, &[false; 3]),
            RsOutcome::Value(vec![5u8; 64])
        );
    }

    #[test]
    fn held_lock_forces_backoff_and_retry() {
        let cl = cluster();
        // Jam replica 0 and 1's locks with a phantom client.
        for r in 0..2 {
            let v = cl.replica(r).view().clone();
            cl.replica(r)
                .server()
                .arena()
                .write_u64(v.block(0), 0xDEAD)
                .unwrap();
        }
        let mut c = cl.open_client(5);
        let (mut op, mut step) = c.get(0);
        // Drive manually until the op backs off.
        let mut backed_off = false;
        for _ in 0..10 {
            if step.backoff_ns.is_some() {
                backed_off = true;
                break;
            }
            let sends = std::mem::take(&mut step.send);
            let mut next = RsStep::default();
            for (r, phase, _, req) in sends {
                let reply = prism_core::msg::execute_local(cl.replica(r).server(), &req);
                let s = c.on_reply(&mut op, phase, r, reply);
                if s.backoff_ns.is_some() || !s.send.is_empty() || s.done.is_some() {
                    next = s;
                    break;
                }
            }
            step = next;
        }
        assert!(backed_off, "client must back off when majority unavailable");
        // Unjam and finish.
        for r in 0..2 {
            let v = cl.replica(r).view().clone();
            cl.replica(r)
                .server()
                .arena()
                .write_u64(v.block(0), 0)
                .unwrap();
        }
        let o = drive(&cl, &mut c, op, step, &[false; 3]);
        assert_eq!(o, RsOutcome::Value(vec![0u8; 64]));
    }
}
