//! Per-system adapters: each wraps a protocol client and its workload
//! generator behind the closed-loop [`ProtoAdapter`] interface.
//!
//! Tags route replies back to the right state machine:
//! `tag = seq << 32 | phase << 16 | index`, where `seq` identifies the
//! operation (machines with quorum semantics outlive their completion
//! point to process stragglers and emit reclamation traffic).

use std::collections::HashMap;

use prism_core::msg::{Reply, Request};
use prism_core::OpStatus;
use prism_kv::pilaf::{PilafClient, PilafGetOp};
use prism_kv::prism_kv::{GetOp, PrismKvClient, PutOp};
use prism_kv::{hash::key_bytes, KvOutcome, KvStep};
use prism_rdma::hash::IntMap;
use prism_rs::abdlock::{AbdLockClient, AbdLockOp, AbdStep};
use prism_rs::prism_rs::{RsClient, RsOp, RsStep};
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;
use prism_tx::farm::{FarmClient, FarmOp, FarmOutcome, FarmStep};
use prism_tx::prism_tx::{TxClient, TxOp, TxOutcome, TxStep};
use prism_workload::{KeyDist, KvOp, TxnGen, YcsbConfig, YcsbGen};

use crate::cluster::{MapHandle, ShardMap};
use crate::netsim::{AdapterStep, Outbound, ProtoAdapter};

fn tag(seq: u64, phase: u32, idx: u32) -> u64 {
    (seq << 32) | ((phase as u64) << 16) | idx as u64
}

/// Transport-retry policy shared by the single-server KV adapters: a
/// synthesized timeout reply ([`Reply::Verb`]`(Err(..))` from the fault
/// layer) reissues the operation after a deterministic capped
/// exponential backoff, up to this many attempts, then surfaces as a
/// failed op. Quorum systems (RS) retry at the operation level instead,
/// and the transaction systems fold transport loss into their existing
/// abort paths.
const TRANSPORT_RETRY_BUDGET: u32 = 6;
const TRANSPORT_RETRY_BASE_NS: u64 = 8_000;
const TRANSPORT_RETRY_CAP_NS: u64 = 64_000;

fn transport_backoff(retry: u32) -> SimDuration {
    let exp = retry.saturating_sub(1).min(6);
    SimDuration::from_nanos((TRANSPORT_RETRY_BASE_NS << exp).min(TRANSPORT_RETRY_CAP_NS))
}

fn untag(t: u64) -> (u64, u32, u32) {
    (t >> 32, ((t >> 16) & 0xFFFF) as u32, (t & 0xFFFF) as u32)
}

/// Client-side reclamation batching (§3.2: "batching can be employed at
/// both client and server sides to minimize overhead"): single-buffer
/// free notifications from the protocol machines are coalesced per
/// server and flushed as one RPC every [`FreeBatcher::CAP`] buffers.
struct FreeBatcher {
    pending: HashMap<usize, Vec<u64>>,
}

impl FreeBatcher {
    /// Buffers per flush.
    const CAP: usize = 16;

    fn new() -> Self {
        FreeBatcher {
            pending: HashMap::new(),
        }
    }

    /// Absorbs one background request. Single-free messages
    /// (`[0x01, addr u64]`) are coalesced; anything else passes through.
    /// Returns a request to send now, if any.
    fn absorb(&mut self, server: usize, req: Request) -> Option<(usize, Request)> {
        if let Request::Rpc(bytes) = &req {
            if bytes.len() == 9 && bytes[0] == 0x01 {
                let addr = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
                let pending = self.pending.entry(server).or_default();
                pending.push(addr);
                if pending.len() >= Self::CAP {
                    let req = Self::batch_request(pending);
                    pending.clear();
                    return Some((server, req));
                }
                return None;
            }
        }
        Some((server, req))
    }

    fn batch_request(addrs: &[u64]) -> Request {
        let mut msg = Vec::with_capacity(3 + addrs.len() * 8);
        msg.push(0x04);
        msg.extend_from_slice(&(addrs.len() as u16).to_le_bytes());
        for a in addrs {
            msg.extend_from_slice(&a.to_le_bytes());
        }
        Request::Rpc(msg)
    }
}

// ---------------------------------------------------------------------
// PRISM-KV (Figures 3-4)
// ---------------------------------------------------------------------

enum KvMachine {
    Get(GetOp),
    Put(PutOp),
}

/// Closed-loop YCSB client over PRISM-KV, optionally sharded.
///
/// With one client and [`ShardMap::single`] this is the original
/// single-server adapter. With N clients, every operation is routed to
/// its key's home shard before the state machine starts; the machine
/// itself is untouched (sharding is pure client-side routing), and the
/// free batcher already coalesces reclamation per shard.
pub struct PrismKvAdapter {
    clients: Vec<PrismKvClient>,
    map: ShardMap,
    /// Live shard-map source, when the cluster can reshard mid-run: a
    /// stale-epoch fence refetches the snapshot from here and reroutes.
    handle: Option<MapHandle>,
    /// Home shard of the in-flight op (routing is per-operation; a
    /// PRISM-KV op's whole chain stays on one shard).
    shard: usize,
    gen: YcsbGen,
    current: Option<KvMachine>,
    /// The in-flight workload op, kept so a transport timeout can
    /// reissue it from scratch.
    op: Option<KvOp>,
    retries: u32,
    frees: FreeBatcher,
}

impl PrismKvAdapter {
    /// Creates the single-server adapter.
    pub fn new(client: PrismKvClient, config: YcsbConfig, rng: SimRng) -> Self {
        Self::sharded(vec![client], ShardMap::single(), config, rng)
    }

    /// Creates a routed adapter over one client per shard.
    ///
    /// # Panics
    ///
    /// Panics if the client count does not match the map's shard count.
    pub fn sharded(
        clients: Vec<PrismKvClient>,
        map: ShardMap,
        config: YcsbConfig,
        rng: SimRng,
    ) -> Self {
        assert_eq!(
            clients.len(),
            map.shards(),
            "one client per shard in shard order"
        );
        PrismKvAdapter {
            clients,
            map,
            handle: None,
            shard: 0,
            gen: YcsbGen::new(config, rng),
            current: None,
            op: None,
            retries: 0,
            frees: FreeBatcher::new(),
        }
    }

    /// Creates a routed adapter whose map can change under it: the
    /// cluster's [`MapHandle`] is refetched whenever a server fences a
    /// request with [`prism_rdma::RdmaError::StaleEpoch`]. Clients must
    /// cover every shard the map can grow into (standby shards
    /// included), in flat shard order.
    pub fn sharded_live(
        clients: Vec<PrismKvClient>,
        handle: MapHandle,
        config: YcsbConfig,
        rng: SimRng,
    ) -> Self {
        let map = handle.snapshot();
        assert!(
            clients.len() >= map.shards(),
            "clients must cover every shard the map can grow into"
        );
        PrismKvAdapter {
            clients,
            map,
            handle: Some(handle),
            shard: 0,
            gen: YcsbGen::new(config, rng),
            current: None,
            op: None,
            retries: 0,
            frees: FreeBatcher::new(),
        }
    }

    fn issue(&mut self, op: KvOp) -> Vec<Outbound> {
        let key = key_bytes(op.key());
        self.shard = self.map.shard_of(&key);
        let client = &self.clients[self.shard];
        let (machine, req) = match op {
            KvOp::Get(_) => {
                let (m, r) = client.get(&key);
                (KvMachine::Get(m), r)
            }
            KvOp::Put(k) => {
                let value = self.gen.value_for(k);
                let (m, r) = client.put(&key, &value);
                (KvMachine::Put(m), r)
            }
        };
        self.current = Some(machine);
        vec![Outbound {
            server: self.shard,
            tag: 0,
            req,
            background: false,
            epoch: self.map.epoch(),
        }]
    }

    fn bg_sends(&mut self, background: Option<prism_core::msg::Request>) -> Vec<Outbound> {
        background
            .and_then(|b| self.frees.absorb(self.shard, b))
            .map(|(server, req)| {
                vec![Outbound {
                    server,
                    tag: 0,
                    req,
                    background: true,
                    epoch: 0,
                }]
            })
            .unwrap_or_default()
    }

    fn step_to_adapter(&mut self, step: KvStep) -> AdapterStep {
        match step {
            KvStep::Send {
                request,
                background,
            } => {
                let mut sends = vec![Outbound {
                    server: self.shard,
                    tag: 0,
                    req: request,
                    background: false,
                    epoch: self.map.epoch(),
                }];
                sends.extend(self.bg_sends(background));
                AdapterStep::Wait(sends)
            }
            KvStep::Done {
                outcome,
                background,
            } => {
                self.current = None;
                let sends = self.bg_sends(background);
                AdapterStep::Done {
                    sends,
                    client_compute: SimDuration::ZERO,
                    failed: matches!(outcome, KvOutcome::Failed(_)),
                }
            }
        }
    }
}

impl ProtoAdapter for PrismKvAdapter {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        let op = self.gen.next_op();
        self.op = Some(op);
        self.retries = 0;
        self.issue(op)
    }

    fn resume(&mut self) -> Vec<Outbound> {
        // Transport retry: re-arm the *same* machine rather than
        // starting a fresh one. A PUT whose install chain went
        // unanswered may already have published; blindly re-running it
        // could resurrect its value over a newer racing write, so the
        // machine's reissue path re-reads the slot and decides.
        let client = &self.clients[self.shard];
        let req = match self.current.as_mut() {
            Some(KvMachine::Get(m)) => m.reissue(client),
            Some(KvMachine::Put(m)) => m.reissue(client),
            None => return self.issue(self.op.expect("op pending retry")),
        };
        vec![Outbound {
            server: self.shard,
            tag: 0,
            req,
            background: false,
            epoch: self.map.epoch(),
        }]
    }

    fn on_reply(&mut self, _tag: u64, reply: Reply) -> AdapterStep {
        if let Some(inc) = reply.stale_incarnation() {
            // An amnesia-restarted shard fenced our pre-crash rkeys:
            // restamp them with its new incarnation (the rejoin replay
            // is server-side; the client only needs fresh capabilities)
            // and re-arm the same machine — the fenced request never
            // executed.
            self.clients[self.shard].refence(inc);
            if self.retries >= TRANSPORT_RETRY_BUDGET {
                self.current = None;
                self.op = None;
                return AdapterStep::GiveUp { sends: Vec::new() };
            }
            self.retries += 1;
            return AdapterStep::Retry {
                sends: Vec::new(),
                wait: transport_backoff(self.retries),
            };
        }
        if let Some(current) = reply.stale_epoch() {
            // The server fenced our request under a newer shard-map
            // epoch, so it never executed: refetch the map, reroute the
            // key, and restart the machine from a clean probe at the
            // key's (possibly new) home shard.
            if let Some(h) = &self.handle {
                let m = h.snapshot();
                if m.epoch() > self.map.epoch() {
                    self.map = m;
                }
            }
            let op = self.op.expect("op in flight");
            if self.map.epoch() >= current {
                self.current = None;
                return AdapterStep::Wait(self.issue(op));
            }
            // The fencing epoch is ahead of anything we can fetch (no
            // live handle, or the publish has not landed yet): treat it
            // as a transport failure and retry with backoff.
            self.current = None;
            if self.retries >= TRANSPORT_RETRY_BUDGET {
                self.op = None;
                return AdapterStep::GiveUp { sends: Vec::new() };
            }
            self.retries += 1;
            return AdapterStep::Retry {
                sends: Vec::new(),
                wait: transport_backoff(self.retries),
            };
        }
        if matches!(reply, Reply::Verb(Err(_))) {
            // Synthesized timeout from the fault layer (PRISM-KV chains
            // never produce verb errors on their own). The machine is
            // kept: resume() re-arms it in place.
            if self.retries >= TRANSPORT_RETRY_BUDGET {
                self.current = None;
                self.op = None;
                return AdapterStep::GiveUp { sends: Vec::new() };
            }
            self.retries += 1;
            return AdapterStep::Retry {
                sends: Vec::new(),
                wait: transport_backoff(self.retries),
            };
        }
        let mut machine = self.current.take().expect("op in flight");
        let client = &self.clients[self.shard];
        let step = match &mut machine {
            KvMachine::Get(m) => m.on_reply(client, reply),
            KvMachine::Put(m) => m.on_reply(client, reply),
        };
        self.current = Some(machine);
        self.step_to_adapter(step)
    }

    fn on_stale_reply(&mut self, _tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        kv_harvest(server, reply)
    }

    fn hedge_eligible(&self, _tag: u64) -> bool {
        // Only GETs hedge: every leg of a GET machine (probe, resolve)
        // is an idempotent read, so racing two copies is safe. A PUT's
        // install chain allocates and CASes — duplicating it would
        // double-publish.
        matches!(self.current, Some(KvMachine::Get(_)))
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // Deadline shed: drop the op on the floor. KV machines hold at
        // most one request in flight and harvesting of raced replies is
        // stateless (`kv_harvest`), so there is nothing to park.
        self.current = None;
        self.op = None;
        self.retries = 0;
        Vec::new()
    }
}

/// Reclamation for a PRISM-KV reply that raced its own timeout: an
/// install chain is `[write, allocate, CAS, read-back]`, and when the
/// CAS lost, the read-back leg names the freshly allocated entry whose
/// only reference died with this reply — the machine reissued through
/// its resolve path and can never learn the address. Free it directly
/// (unbatched: harvests are rare and the pool-level regressions want
/// the free on the wire immediately). A won CAS leaves the buffer live
/// in the slot, and probe/resolve chains allocate nothing.
pub(crate) fn kv_harvest(server: usize, reply: Reply) -> Vec<Outbound> {
    let Some(results) = reply.chain_results() else {
        return Vec::new();
    };
    if results.len() != 4 || !matches!(results[2].status, OpStatus::CasFailed) {
        return Vec::new();
    }
    let Ok(d) = results[3].expect_data() else {
        return Vec::new();
    };
    if d.len() != 8 {
        return Vec::new();
    }
    let new_ptr = u64::from_le_bytes(d.try_into().expect("8 bytes"));
    if new_ptr == 0 {
        return Vec::new();
    }
    let mut msg = Vec::with_capacity(9);
    msg.push(0x01);
    msg.extend_from_slice(&new_ptr.to_le_bytes());
    vec![Outbound {
        server,
        tag: 0,
        req: Request::Rpc(msg),
        background: true,
        epoch: 0,
    }]
}

// ---------------------------------------------------------------------
// Pilaf (Figures 3-4 baselines)
// ---------------------------------------------------------------------

/// Client-side CRC verification cost per Pilaf GET: the paper measures
/// ~2 µs of Pilaf's read latency as CRC work (§6.2).
pub const PILAF_CRC_COST: SimDuration = SimDuration::from_nanos(2_000);

enum PilafMachine {
    Get(PilafGetOp),
    Put,
}

/// Closed-loop YCSB client over Pilaf.
pub struct PilafAdapter {
    client: PilafClient,
    gen: YcsbGen,
    current: Option<PilafMachine>,
    /// The in-flight workload op, kept so a transport timeout can
    /// reissue it from scratch.
    op: Option<KvOp>,
    retries: u32,
}

impl PilafAdapter {
    /// Creates the adapter.
    pub fn new(client: PilafClient, config: YcsbConfig, rng: SimRng) -> Self {
        PilafAdapter {
            client,
            gen: YcsbGen::new(config, rng),
            current: None,
            op: None,
            retries: 0,
        }
    }

    fn issue(&mut self, op: KvOp) -> Vec<Outbound> {
        let key = key_bytes(op.key());
        let (machine, req) = match op {
            KvOp::Get(_) => {
                let (m, r) = self.client.get(&key);
                (PilafMachine::Get(m), r)
            }
            KvOp::Put(k) => {
                let value = self.gen.value_for(k);
                (PilafMachine::Put, self.client.put_request(&key, &value))
            }
        };
        self.current = Some(machine);
        vec![Outbound {
            server: 0,
            tag: 0,
            req,
            background: false,
            epoch: 0,
        }]
    }
}

impl ProtoAdapter for PilafAdapter {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        let op = self.gen.next_op();
        self.op = Some(op);
        self.retries = 0;
        self.issue(op)
    }

    fn resume(&mut self) -> Vec<Outbound> {
        let op = self.op.expect("op pending retry");
        self.issue(op)
    }

    fn on_reply(&mut self, _tag: u64, reply: Reply) -> AdapterStep {
        if matches!(reply, Reply::Verb(Err(_))) {
            // Synthesized timeout. Pilaf GETs are idempotent READs;
            // PUT RPCs reissued after a lost reply overwrite with the
            // same value.
            self.current = None;
            if self.retries >= TRANSPORT_RETRY_BUDGET {
                self.op = None;
                return AdapterStep::GiveUp { sends: Vec::new() };
            }
            self.retries += 1;
            return AdapterStep::Retry {
                sends: Vec::new(),
                wait: transport_backoff(self.retries),
            };
        }
        match self.current.take().expect("op in flight") {
            PilafMachine::Put => {
                let outcome = self.client.put_outcome(reply);
                AdapterStep::Done {
                    sends: Vec::new(),
                    client_compute: SimDuration::ZERO,
                    failed: matches!(outcome, KvOutcome::Failed(_)),
                }
            }
            PilafMachine::Get(mut m) => match m.on_reply(&self.client, reply) {
                KvStep::Send { request, .. } => {
                    self.current = Some(PilafMachine::Get(m));
                    AdapterStep::Wait(vec![Outbound {
                        server: 0,
                        tag: 0,
                        req: request,
                        background: false,
                        epoch: 0,
                    }])
                }
                KvStep::Done { outcome, .. } => AdapterStep::Done {
                    sends: Vec::new(),
                    client_compute: PILAF_CRC_COST,
                    failed: matches!(outcome, KvOutcome::Failed(_)),
                },
            },
        }
    }

    fn hedge_eligible(&self, _tag: u64) -> bool {
        // Pilaf GETs are pure one-sided READs (idempotent); PUT RPCs
        // mutate and must not race a copy of themselves.
        matches!(self.current, Some(PilafMachine::Get(_)))
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        self.current = None;
        self.op = None;
        self.retries = 0;
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// PRISM-RS (Figures 6-7)
// ---------------------------------------------------------------------

/// Closed-loop block-store client over PRISM-RS: 50 % reads / 50 %
/// writes (§7.4), optionally sharded across replica groups.
///
/// With one client and [`ShardMap::single`] this is the original
/// 3-replica adapter. With S clients, each block routes to its home
/// *group* and the quorum protocol runs inside that group unchanged.
/// Flat server indices are group-major (`group * replicas + replica`,
/// the [`crate::cluster::RsShards`] layout) and reply tags carry the
/// flat index, so a straggler of a completed op still resolves its
/// group after the client has moved on to a block elsewhere.
pub struct PrismRsAdapter {
    clients: Vec<RsClient>,
    map: ShardMap,
    /// Live shard-map source, when the cluster can reshard mid-run: a
    /// stale-epoch fence refetches the snapshot from here and reroutes.
    handle: Option<MapHandle>,
    /// Replicas per group (flat index stride).
    replicas: usize,
    /// Home group of the in-flight op.
    group: usize,
    dist: KeyDist,
    block_size: usize,
    write_fraction: f64,
    seq: u64,
    current: Option<RsOp>,
    /// Completed-but-outstanding machines by seq; the reply tag's flat
    /// index names their group, so no group needs to be stored here.
    lingering: IntMap<u64, (RsOp, usize)>,
    outstanding: usize,
    /// The in-flight logical op (block, PUT value or `None` for GET),
    /// kept so a quorum failure can retry the whole operation under a
    /// fresh sequence number.
    op: Option<(u64, Option<Vec<u8>>)>,
    retries: u32,
    frees: FreeBatcher,
}

impl PrismRsAdapter {
    /// Creates the single-group adapter.
    pub fn new(client: RsClient, dist: KeyDist, block_size: usize, write_fraction: f64) -> Self {
        Self::sharded(
            vec![client],
            ShardMap::single(),
            dist,
            block_size,
            write_fraction,
        )
    }

    /// Creates a routed adapter over one client per replica group.
    ///
    /// # Panics
    ///
    /// Panics if the client count does not match the map's shard count
    /// or the groups disagree on replica count.
    pub fn sharded(
        clients: Vec<RsClient>,
        map: ShardMap,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        assert_eq!(
            clients.len(),
            map.shards(),
            "one client per replica group in group order"
        );
        let replicas = clients[0].n();
        assert!(
            clients.iter().all(|c| c.n() == replicas),
            "uniform replica count across groups"
        );
        PrismRsAdapter {
            clients,
            map,
            handle: None,
            replicas,
            group: 0,
            dist,
            block_size,
            write_fraction,
            seq: 0,
            current: None,
            lingering: IntMap::default(),
            outstanding: 0,
            op: None,
            retries: 0,
            frees: FreeBatcher::new(),
        }
    }

    /// Creates a routed adapter whose map can change under it: the
    /// cluster's [`MapHandle`] is refetched whenever a replica fences a
    /// request with [`prism_rdma::RdmaError::StaleEpoch`], and the
    /// in-flight operation is reissued against the block's new home
    /// group. Clients must cover every group the map can grow into
    /// (standby groups included), in group order.
    pub fn sharded_live(
        clients: Vec<RsClient>,
        handle: MapHandle,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        let map = handle.snapshot();
        assert!(
            clients.len() >= map.shards(),
            "clients must cover every group the map can grow into"
        );
        let replicas = clients[0].n();
        assert!(
            clients.iter().all(|c| c.n() == replicas),
            "uniform replica count across groups"
        );
        PrismRsAdapter {
            clients,
            map,
            handle: Some(handle),
            replicas,
            group: 0,
            dist,
            block_size,
            write_fraction,
            seq: 0,
            current: None,
            lingering: IntMap::default(),
            outstanding: 0,
            op: None,
            retries: 0,
            frees: FreeBatcher::new(),
        }
    }

    fn issue(&mut self) -> Vec<Outbound> {
        self.seq += 1;
        self.outstanding = 0;
        let (block, value) = self.op.clone().expect("op set");
        self.group = self.map.shard_of_id(block);
        let (op, step) = match value {
            Some(v) => self.clients[self.group].put(block, v),
            None => self.clients[self.group].get(block),
        };
        self.current = Some(op);
        let (sends, _) = self.absorb(step);
        sends
    }

    fn absorb(&mut self, step: RsStep) -> (Vec<Outbound>, Option<bool>) {
        let base = self.group * self.replicas;
        let mut sends = Vec::new();
        for (replica, phase, req) in step.send {
            self.outstanding += 1;
            sends.push(Outbound {
                server: base + replica,
                tag: tag(self.seq, phase, (base + replica) as u32),
                req,
                background: false,
                epoch: self.map.epoch(),
            });
        }
        for (replica, req) in step.background {
            if let Some((server, req)) = self.frees.absorb(base + replica, req) {
                sends.push(Outbound {
                    server,
                    tag: 0,
                    req,
                    background: true,
                    epoch: 0,
                });
            }
        }
        let done = step.done.map(|o| {
            if std::env::var("PRISM_DEBUG_FAULTS").is_ok() {
                if let prism_rs::RsOutcome::Failed(why) = &o {
                    eprintln!("rs seq {} failed: {why}", self.seq);
                }
            }
            matches!(o, prism_rs::RsOutcome::Failed(_))
        });
        (sends, done)
    }
}

impl ProtoAdapter for PrismRsAdapter {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        let block = self.dist.sample(rng);
        let value = if rng.gen_bool(self.write_fraction) {
            let mut value = vec![0u8; self.block_size];
            let nonce = rng.next_u64().to_le_bytes();
            value[..8].copy_from_slice(&nonce);
            Some(value)
        } else {
            None
        };
        self.op = Some((block, value));
        self.retries = 0;
        self.issue()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        // Operation-level retry: same block and (for PUTs) same value,
        // fresh sequence number, but the *same* machine — a PUT whose
        // write phase already chose its tag must retry under that tag
        // (see RsOp::reissue), or the retry could resurrect its value
        // over a later write readers already observed. Stragglers of
        // the abandoned attempt are parked under the old seq so their
        // reclamation still lands.
        let Some(mut op) = self.current.take() else {
            return self.issue();
        };
        if self.outstanding > 0 {
            self.lingering
                .insert(self.seq, (op.clone(), self.outstanding));
        }
        self.seq += 1;
        self.outstanding = 0;
        // Re-route through the current map: a no-op unless a stale-epoch
        // fence refreshed it since the attempt started.
        let (block, _) = self.op.clone().expect("op set");
        self.group = self.map.shard_of_id(block);
        let step = op.reissue(&self.clients[self.group]);
        self.current = Some(op);
        let (sends, _) = self.absorb(step);
        sends
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, idx) = untag(t);
        // The tag carries the flat server index; decompose it so a
        // straggler from a previous op still lands in its own group.
        let group = idx as usize / self.replicas;
        let replica = idx as usize % self.replicas;
        if let Some(inc) = reply.stale_incarnation() {
            // An amnesia-restarted replica fenced our pre-crash rkeys:
            // restamp them with its new incarnation so the operation-
            // level retry reaches it again (§7.2 rejoin is server-side;
            // the client only needs fresh capabilities).
            self.clients[group].refence(replica, inc);
        }
        if let Some(current_epoch) = reply.stale_epoch() {
            if seq == self.seq && self.current.is_some() {
                // A replica fenced this attempt under a newer shard-map
                // epoch: refetch the map and reissue the same machine
                // against the block's new home group. The fenced leg
                // never executed; stragglers of this attempt park under
                // the old seq, exactly as in resume(). A PUT that
                // already chose its tag keeps it (RsOp::reissue), so
                // the cross-group retry cannot resurrect its value over
                // a later write the new group accepted.
                if let Some(h) = &self.handle {
                    let m = h.snapshot();
                    if m.epoch() > self.map.epoch() {
                        self.map = m;
                    }
                }
                self.outstanding -= 1;
                let mut op = self.current.take().expect("op in flight");
                if self.map.epoch() >= current_epoch {
                    if self.outstanding > 0 {
                        self.lingering
                            .insert(self.seq, (op.clone(), self.outstanding));
                    }
                    self.seq += 1;
                    self.outstanding = 0;
                    let (block, _) = self.op.clone().expect("op set");
                    self.group = self.map.shard_of_id(block);
                    let step = op.reissue(&self.clients[self.group]);
                    self.current = Some(op);
                    let (sends, _) = self.absorb(step);
                    return AdapterStep::Wait(sends);
                }
                // The fencing epoch is ahead of anything we can fetch:
                // fall back to an op-level retry with backoff.
                if self.retries >= TRANSPORT_RETRY_BUDGET {
                    if self.outstanding > 0 {
                        self.lingering.insert(self.seq, (op, self.outstanding));
                    }
                    return AdapterStep::GiveUp { sends: Vec::new() };
                }
                self.current = Some(op);
                self.retries += 1;
                return AdapterStep::Retry {
                    sends: Vec::new(),
                    wait: transport_backoff(self.retries),
                };
            }
            // A fence NACK trailing an abandoned attempt falls through
            // to the straggler path: the machine counts it as a failed
            // leg, keeping the lingering bookkeeping exact.
        }
        if seq != self.seq || self.current.is_none() {
            // Straggler for a completed op: feed it for reclamation.
            let mut finished = false;
            let mut sends = Vec::new();
            let mut raw = Vec::new();
            if let Some((op, remaining)) = self.lingering.get_mut(&seq) {
                let step = op.on_reply(&self.clients[group], phase, replica, reply);
                raw = step.background;
                *remaining -= 1;
                finished = *remaining == 0;
            }
            let base = group * self.replicas;
            for (r, req) in raw {
                if let Some((server, req)) = self.frees.absorb(base + r, req) {
                    sends.push(Outbound {
                        server,
                        tag: 0,
                        req,
                        background: true,
                        epoch: 0,
                    });
                }
            }
            if finished {
                self.lingering.remove(&seq);
            }
            return AdapterStep::Wait(sends);
        }
        let mut op = self.current.take().expect("op in flight");
        self.outstanding -= 1;
        let step = op.on_reply(&self.clients[self.group], phase, replica, reply);
        let (sends, done) = self.absorb(step);
        match done {
            Some(failed) => {
                if failed && self.retries < TRANSPORT_RETRY_BUDGET {
                    // Keep the machine for the reissue; until then it
                    // continues absorbing this attempt's stragglers.
                    self.current = Some(op);
                    self.retries += 1;
                    return AdapterStep::Retry {
                        sends,
                        wait: transport_backoff(self.retries),
                    };
                }
                if self.outstanding > 0 {
                    self.lingering.insert(self.seq, (op, self.outstanding));
                } else {
                    drop(op);
                }
                if failed {
                    return AdapterStep::GiveUp { sends };
                }
                AdapterStep::Done {
                    sends,
                    client_compute: SimDuration::ZERO,
                    failed,
                }
            }
            None => {
                self.current = Some(op);
                AdapterStep::Wait(sends)
            }
        }
    }

    fn on_stale_reply(&mut self, _tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        rs_harvest(server, reply)
    }

    fn hedge_eligible(&self, t: u64) -> bool {
        // Quorum-read legs hedge: a GET's phases are all reads, so the
        // loser of the race is just one more straggler for the machine
        // (read chains allocate nothing, so the harvest is a no-op).
        // PUT legs allocate and CAS; only the leg's own reissue path
        // may duplicate them. The tag gate keeps a straggler-epoch tag
        // from hedging after the op has moved on.
        untag(t).0 == self.seq && self.current.is_some() && matches!(self.op, Some((_, None)))
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // Deadline shed mid-quorum: park the machine exactly as a
        // reissue would, so stragglers of the abandoned attempt still
        // resolve against it and their reclamation traffic lands.
        if let Some(op) = self.current.take() {
            if self.outstanding > 0 {
                self.lingering.insert(self.seq, (op, self.outstanding));
            }
        }
        self.outstanding = 0;
        self.op = None;
        self.retries = 0;
        Vec::new()
    }
}

/// Reclamation for a PRISM-RS write-phase reply that raced its own
/// timeout. The chain is `[write, allocate, CAS_GT, read-back]` and the
/// machine never saw this reply, so the free it would have emitted
/// ([`RsOp::on_reply`]'s write path) is produced here instead: a lost
/// CAS orphans the freshly allocated buffer; a won CAS displaces the
/// buffer previously installed in the metadata entry. Read-phase chains
/// allocate nothing.
pub(crate) fn rs_harvest(server: usize, reply: Reply) -> Vec<Outbound> {
    let Some(results) = reply.chain_results() else {
        return Vec::new();
    };
    if results.len() != 4 {
        return Vec::new();
    }
    let addr = match &results[2].status {
        OpStatus::Ok if results[2].data.len() == 16 => {
            u64::from_le_bytes(results[2].data[8..16].try_into().expect("8 bytes"))
        }
        OpStatus::CasFailed => match results[3].expect_data() {
            Ok(d) if d.len() == 8 => u64::from_le_bytes(d.try_into().expect("8 bytes")),
            _ => 0,
        },
        _ => 0,
    };
    if addr == 0 {
        return Vec::new();
    }
    let mut msg = Vec::with_capacity(9);
    msg.push(0x01);
    msg.extend_from_slice(&addr.to_le_bytes());
    vec![Outbound {
        server,
        tag: 0,
        req: Request::Rpc(msg),
        background: true,
        epoch: 0,
    }]
}

// ---------------------------------------------------------------------
// ABDLOCK (Figures 6-7 baseline)
// ---------------------------------------------------------------------

/// Closed-loop block-store client over the lock-based ABD baseline.
pub struct AbdLockAdapter {
    client: AbdLockClient,
    dist: KeyDist,
    block_size: usize,
    write_fraction: f64,
    seq: u64,
    current: Option<AbdLockOp>,
    lingering: IntMap<u64, AbdLockOp>,
}

impl AbdLockAdapter {
    /// Creates the adapter.
    pub fn new(
        client: AbdLockClient,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        AbdLockAdapter {
            client,
            dist,
            block_size,
            write_fraction,
            seq: 0,
            current: None,
            lingering: IntMap::default(),
        }
    }

    fn absorb(&mut self, step: AbdStep) -> (Vec<Outbound>, Option<bool>, Option<SimDuration>) {
        let sends = step
            .send
            .into_iter()
            .map(|(replica, phase, req)| Outbound {
                server: replica,
                tag: tag(self.seq, phase, replica as u32),
                req,
                background: false,
                epoch: 0,
            })
            .collect();
        let done = step
            .done
            .map(|o| matches!(o, prism_rs::RsOutcome::Failed(_)));
        let backoff = step.backoff_ns.map(SimDuration::from_nanos);
        (sends, done, backoff)
    }

    fn emit_step(
        &mut self,
        sends: Vec<Outbound>,
        done: Option<bool>,
        backoff: Option<SimDuration>,
    ) -> AdapterStep {
        if let Some(failed) = done {
            if let Some(op) = self.current.take() {
                // Keep completed machines around briefly for stale lock
                // rollbacks; bounded by replacing on reuse of the map
                // slot.
                self.lingering.insert(self.seq, op);
                if self.lingering.len() > 64 {
                    let oldest = *self.lingering.keys().min().expect("nonempty");
                    self.lingering.remove(&oldest);
                }
            }
            return AdapterStep::Done {
                sends,
                client_compute: SimDuration::ZERO,
                failed,
            };
        }
        if let Some(wait) = backoff {
            return AdapterStep::Backoff {
                sends: Vec::new(),
                wait,
            };
        }
        AdapterStep::Wait(sends)
    }
}

impl ProtoAdapter for AbdLockAdapter {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        self.seq += 1;
        let block = self.dist.sample(rng);
        let (op, step) = if rng.gen_bool(self.write_fraction) {
            let mut value = vec![0u8; self.block_size];
            value[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            self.client.put(block, value)
        } else {
            self.client.get(block)
        };
        self.current = Some(op);
        let (sends, _, _) = self.absorb(step);
        sends
    }

    fn resume(&mut self) -> Vec<Outbound> {
        let mut op = self.current.take().expect("op backing off");
        let step = op.resume(&mut self.client);
        self.current = Some(op);
        let (sends, _, _) = self.absorb(step);
        sends
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, replica) = untag(t);
        if seq != self.seq {
            // Straggler (e.g. a stale lock success needing rollback).
            let mut sends = Vec::new();
            if let Some(op) = self.lingering.get_mut(&seq) {
                let step = op.on_reply(&mut self.client, phase, replica as usize, reply);
                for (r, p, req) in step.send {
                    sends.push(Outbound {
                        server: r,
                        tag: tag(seq, p, r as u32),
                        req,
                        background: true,
                        epoch: 0,
                    });
                }
            }
            return AdapterStep::Wait(sends);
        }
        let mut op = self.current.take().expect("op in flight");
        let step = op.on_reply(&mut self.client, phase, replica as usize, reply);
        self.current = Some(op);
        let (sends, done, backoff) = self.absorb(step);
        self.emit_step(sends, done, backoff)
    }
}

// ---------------------------------------------------------------------
// PRISM-TX (Figures 9-10)
// ---------------------------------------------------------------------

/// Abort backoff: base wait, doubled per consecutive abort (capped).
/// Without pacing, a contended key's losing transactions flood the
/// dispatch cores with futile validation chains — unlike FaRM, whose
/// waiting clients poll locked objects through the NIC for free. Backoff
/// is the standard OCC client policy and is applied to both systems.
const TX_BACKOFF_BASE_NS: u64 = 4_000;
const TX_BACKOFF_CAP_NS: u64 = 32_000;

fn tx_backoff(consecutive_aborts: u32, rng: &mut SimRng) -> SimDuration {
    // Immediate retries livelock at high skew (synchronized stampedes
    // re-collide with the in-flight winner's prepared-write window), so
    // even the first abort waits ~one round trip. The cap stays small:
    // an idle hot key wastes its serialization slot.
    let exp = consecutive_aborts.saturating_sub(1).min(7);
    let base = (TX_BACKOFF_BASE_NS << exp).min(TX_BACKOFF_CAP_NS);
    SimDuration::from_nanos(base + rng.gen_range(base))
}

/// Closed-loop YCSB-T client over PRISM-TX: each operation is a short
/// read-modify-write transaction retried (with backoff) until it
/// commits (§8.3).
pub struct PrismTxAdapter {
    client: TxClient,
    gen: TxnGen,
    seq: u64,
    keys: Vec<u64>,
    current: Option<TxOp>,
    lingering: IntMap<u64, (TxOp, usize)>,
    outstanding: usize,
    aborts: u64,
    consecutive_aborts: u32,
    rng: SimRng,
    frees: FreeBatcher,
}

impl PrismTxAdapter {
    /// Creates the adapter.
    pub fn new(client: TxClient, gen: TxnGen) -> Self {
        let seed = (client.cid() as u64) << 17 | 0x5A5A;
        PrismTxAdapter {
            client,
            gen,
            seq: 0,
            keys: Vec::new(),
            current: None,
            lingering: IntMap::default(),
            outstanding: 0,
            aborts: 0,
            consecutive_aborts: 0,
            rng: SimRng::new(seed),
            frees: FreeBatcher::new(),
        }
    }

    /// Total aborted attempts (diagnostics).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Begins an attempt over `self.keys`. The attempt owns the key list
    /// while it runs; an abort takes it back for the retry.
    fn begin_attempt(&mut self) -> Vec<Outbound> {
        self.seq += 1;
        self.outstanding = 0;
        let keys = std::mem::take(&mut self.keys);
        let writes: Vec<(u64, Vec<u8>)> =
            keys.iter().map(|&k| (k, self.gen.value_for(k))).collect();
        let (op, step) = self.client.begin(keys, writes);
        self.current = Some(op);
        let (sends, _) = self.absorb_tx(step);
        sends
    }

    fn absorb_tx(&mut self, step: TxStep) -> (Vec<Outbound>, Option<TxOutcome>) {
        // Sized for the replies-expected sends; frees mostly vanish into
        // the batcher, and what it lets through (a flush, an abort's
        // C-bumps) is the rare push past this.
        let mut sends = Vec::with_capacity(step.send.len());
        for (shard, phase, idx, req) in step.send {
            self.outstanding += 1;
            sends.push(Outbound {
                server: shard,
                tag: tag(self.seq, phase, idx),
                req,
                background: false,
                epoch: 0,
            });
        }
        for (shard, req) in step.background {
            if let Some((server, req)) = self.frees.absorb(shard, req) {
                sends.push(Outbound {
                    server,
                    tag: 0,
                    req,
                    background: true,
                    epoch: 0,
                });
            }
        }
        (sends, step.done)
    }
}

impl ProtoAdapter for PrismTxAdapter {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        self.keys = self.gen.next_txn().keys;
        self.consecutive_aborts = 0;
        self.begin_attempt()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        // Retry the same transaction after an abort backoff.
        self.begin_attempt()
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, idx) = untag(t);
        if seq != self.seq || self.current.is_none() {
            let mut finished = false;
            let mut sends = Vec::new();
            let mut raw = Vec::new();
            if let Some((op, remaining)) = self.lingering.get_mut(&seq) {
                let step = op.on_reply(&mut self.client, phase, idx, reply);
                raw = step.background;
                *remaining -= 1;
                finished = *remaining == 0;
            }
            for (s, req) in raw {
                if let Some((server, req)) = self.frees.absorb(s, req) {
                    sends.push(Outbound {
                        server,
                        tag: 0,
                        req,
                        background: true,
                        epoch: 0,
                    });
                }
            }
            if finished {
                self.lingering.remove(&seq);
            }
            return AdapterStep::Wait(sends);
        }
        let mut op = self.current.take().expect("txn in flight");
        self.outstanding -= 1;
        let step = op.on_reply(&mut self.client, phase, idx, reply);
        let (sends, done) = self.absorb_tx(step);
        match done {
            Some(TxOutcome::Committed(_)) => {
                self.park(op);
                AdapterStep::Done {
                    sends,
                    client_compute: SimDuration::ZERO,
                    failed: false,
                }
            }
            Some(TxOutcome::Aborted) => {
                self.aborts += 1;
                self.consecutive_aborts += 1;
                self.keys = op.take_read_keys();
                self.park(op);
                // Flush reclamation traffic, back off, then retry the
                // same transaction with fresh reads; latency keeps
                // accumulating on the same closed-loop op.
                debug_assert!(sends.iter().all(|o| o.background));
                AdapterStep::Backoff {
                    sends,
                    wait: tx_backoff(self.consecutive_aborts, &mut self.rng),
                }
            }
            Some(TxOutcome::Failed(_)) => {
                self.park(op);
                AdapterStep::Done {
                    sends,
                    client_compute: SimDuration::ZERO,
                    failed: true,
                }
            }
            None => {
                self.current = Some(op);
                AdapterStep::Wait(sends)
            }
        }
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // PRISM-TX retries aborts through Backoff (never Retry), so the
        // deadline shed cannot fire today; parking keeps the straggler
        // bookkeeping exact if that ever changes.
        if let Some(op) = self.current.take() {
            self.park(op);
        }
        self.outstanding = 0;
        self.consecutive_aborts = 0;
        Vec::new()
    }
}

impl PrismTxAdapter {
    fn park(&mut self, op: TxOp) {
        if self.outstanding > 0 {
            self.lingering.insert(self.seq, (op, self.outstanding));
        }
    }
}

// ---------------------------------------------------------------------
// FaRM (Figures 9-10 baseline)
// ---------------------------------------------------------------------

/// Closed-loop YCSB-T client over FaRM.
pub struct FarmAdapter {
    client: FarmClient,
    gen: TxnGen,
    seq: u64,
    keys: Vec<u64>,
    current: Option<FarmOp>,
    aborts: u64,
    consecutive_aborts: u32,
    rng: SimRng,
}

impl FarmAdapter {
    /// Creates the adapter.
    pub fn new(client: FarmClient, gen: TxnGen) -> Self {
        FarmAdapter {
            client,
            gen,
            seq: 0,
            keys: Vec::new(),
            current: None,
            aborts: 0,
            consecutive_aborts: 0,
            rng: SimRng::new(0xFA12),
        }
    }

    /// Total aborted attempts (diagnostics).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Begins an attempt over `self.keys`. The attempt owns the key list
    /// while it runs; an abort takes it back for the retry.
    fn begin_attempt(&mut self) -> Vec<Outbound> {
        self.seq += 1;
        let keys = std::mem::take(&mut self.keys);
        let writes: Vec<(u64, Vec<u8>)> =
            keys.iter().map(|&k| (k, self.gen.value_for(k))).collect();
        let (op, step) = self.client.begin(keys, writes);
        self.current = Some(op);
        self.absorb_farm(step).0
    }

    fn absorb_farm(&mut self, step: FarmStep) -> (Vec<Outbound>, Option<FarmOutcome>) {
        let sends = step
            .send
            .into_iter()
            .map(|(shard, phase, idx, req)| Outbound {
                server: shard,
                tag: tag(self.seq, phase, idx),
                req,
                background: false,
                epoch: 0,
            })
            .collect();
        (sends, step.done)
    }
}

impl ProtoAdapter for FarmAdapter {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        self.keys = self.gen.next_txn().keys;
        self.consecutive_aborts = 0;
        self.begin_attempt()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        self.begin_attempt()
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, idx) = untag(t);
        if seq != self.seq {
            return AdapterStep::Wait(Vec::new());
        }
        let mut op = self.current.take().expect("txn in flight");
        let step = op.on_reply(&self.client, phase, idx, reply);
        self.current = Some(op);
        let (sends, done) = self.absorb_farm(step);
        match done {
            Some(FarmOutcome::Committed(_)) => AdapterStep::Done {
                sends,
                client_compute: SimDuration::ZERO,
                failed: false,
            },
            Some(FarmOutcome::Aborted) => {
                self.aborts += 1;
                self.consecutive_aborts += 1;
                if let Some(op) = &mut self.current {
                    self.keys = op.take_read_keys();
                }
                debug_assert!(sends.is_empty(), "FaRM aborts send nothing");
                AdapterStep::Backoff {
                    sends,
                    wait: tx_backoff(self.consecutive_aborts, &mut self.rng),
                }
            }
            Some(FarmOutcome::Failed(_)) => AdapterStep::Done {
                sends,
                client_compute: SimDuration::ZERO,
                failed: true,
            },
            None => AdapterStep::Wait(sends),
        }
    }
}
