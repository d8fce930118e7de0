//! The FaRM baseline (§8.1 of the PRISM paper; Dragojević et al.,
//! NSDI 2014).
//!
//! Data layout per shard: an index of per-key pointers plus fixed-
//! location objects `[version u64 | lock u64 | key u64 | value]`.
//! During execution, clients read one-sided: an index READ then an
//! object READ ("each access can require two READs, as in Pilaf",
//! §8.1). Writes are buffered locally.
//!
//! The commit protocol is three-phase (§8.1):
//!
//! 1. **Lock** (RPC, server CPU): lock every write-set object; any
//!    conflict fails the whole shard's lock request.
//! 2. **Validate** (one-sided READs): re-read each read-set object's
//!    version word; a changed version or a foreign lock aborts.
//! 3. **Update + unlock** (RPC, server CPU): install the new values,
//!    bump versions, release locks.
//!
//! The lock word records the owning transaction's token so validation
//! can distinguish its own write locks from foreign ones. Torn
//! execution reads (an object READ racing an update) are caught by
//! validation, which re-reads the version — the same role FaRM's
//! per-cacheline versions play.

use std::collections::HashMap;
use std::sync::Arc;

use prism_core::lease::{clear_if_held, Lease, Leased};
use prism_core::msg::{Reply, Request, Verb};
use prism_core::PrismServer;
use prism_rdma::hash::IntMap;
use prism_rdma::region::AccessFlags;

use crate::driver::{Round, TxOutcome, TxProtocol, TxStep};
use crate::shard::Placement;

/// Object header: version + lock.
pub const OBJ_HEADER: u64 = 16;

/// Retry budget for execution reads that race an in-progress update.
pub const MAX_READ_RETRIES: u32 = 64;

const RPC_LOCK: u8 = 0x10;
const RPC_UPDATE: u8 = 0x11;
const RPC_UNLOCK: u8 = 0x12;

/// Per-shard configuration (mirrors `TxConfig` for fair comparison).
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Keys resident on this shard.
    pub keys_per_shard: u64,
    /// Value bytes per key.
    pub value_len: u64,
}

/// Client-visible layout of one shard.
#[derive(Debug, Clone)]
pub struct FarmView {
    /// Base of the per-key pointer index.
    pub index_addr: u64,
    /// Base of the object array.
    pub obj_addr: u64,
    /// Object stride.
    pub obj_stride: u64,
    /// Rkey covering index and objects.
    pub rkey: u32,
    /// Keys resident on this shard.
    pub capacity: u64,
    /// Value bytes per key.
    pub value_len: u64,
}

impl FarmView {
    /// Address of local key `i`'s index slot.
    pub fn index_slot(&self, i: u64) -> u64 {
        self.index_addr + i * 8
    }

    /// Object length: header + key + value.
    pub fn obj_len(&self) -> u64 {
        OBJ_HEADER + 8 + self.value_len
    }
}

/// One FaRM shard server.
pub struct FarmServer {
    server: Arc<PrismServer>,
    view: FarmView,
    /// Lease over held lock tokens (see its [`Leased`] impl).
    lease: Lease,
}

impl FarmServer {
    /// Builds a shard with every key present at version 0.
    pub fn new(config: &FarmConfig, shard: u64, n_shards: u64) -> Self {
        let index_len = (config.keys_per_shard * 8).next_multiple_of(64);
        let obj_stride = (OBJ_HEADER + 8 + config.value_len).next_multiple_of(64);
        let obj_len = obj_stride * config.keys_per_shard;
        let server = Arc::new(PrismServer::new(index_len + obj_len + (1 << 20)));
        let (base, rkey) = server.carve_region(index_len + obj_len, 64, AccessFlags::FULL);
        let index_addr = base;
        let obj_addr = base + index_len;
        let place = Placement::new(n_shards, config.keys_per_shard, config.value_len);
        for i in 0..config.keys_per_shard {
            let obj = obj_addr + i * obj_stride;
            let global_key = place.key(shard, i);
            // version 0, lock 0 (already zero), key, zero value.
            server
                .arena()
                .write(obj + 16, &global_key.to_le_bytes())
                .expect("object in arena");
            server
                .arena()
                .write_u64(index_addr + i * 8, obj)
                .expect("index in arena");
        }

        let view = FarmView {
            index_addr,
            obj_addr,
            obj_stride,
            rkey: rkey.0,
            capacity: config.keys_per_shard,
            value_len: config.value_len,
        };

        let h_server = Arc::clone(&server);
        let h_view = view.clone();
        server
            .set_rpc_handler(Arc::new(move |req: &[u8]| {
                handle_rpc(&h_server, &h_view, req)
            }))
            .expect("a fresh server has no RPC handler");

        FarmServer {
            server,
            view,
            lease: Lease::default(),
        }
    }

    /// The underlying host.
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// The client-visible layout.
    pub fn view(&self) -> &FarmView {
        &self.view
    }
}

/// Lease-based recovery for write locks whose owner crashed between lock
/// and unlock (§8.1's lease expiry, scoped to one shard). A key's stamp
/// is its lock word, the holder's token; a live transaction either
/// unlocks before the second sighting or, having re-locked with a fresh
/// token (tokens embed a per-client sequence number), restarts the
/// lease. The release is the token-checked unlock, so an unlock racing
/// the sweep is harmless.
impl Leased for FarmServer {
    fn lease(&self) -> &Lease {
        &self.lease
    }

    fn words(&self) -> u64 {
        self.view.capacity
    }

    fn stamp(&self, i: u64) -> Option<u64> {
        let obj = obj_of(&self.view, i);
        let token = self.server.arena().read_u64(obj + 8).expect("in arena");
        (token != 0).then_some(token)
    }

    fn release(&self, i: u64, token: u64) {
        clear_if_held(&self.server, obj_of(&self.view, i) + 8, token);
    }
}

impl std::fmt::Debug for FarmServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarmServer")
            .field("capacity", &self.view.capacity)
            .finish_non_exhaustive()
    }
}

fn obj_of(view: &FarmView, local: u64) -> u64 {
    view.obj_addr + local * view.obj_stride
}

/// Server-side commit phases. Lock/unlock/update all run on the server
/// CPU — the cost PRISM-TX avoids.
///
/// A request is `[op | token | n | record × n]`, a record being a local
/// index, followed for UPDATE by a `value_len`-byte value. The whole
/// request is parsed before memory is touched: a header, count or
/// record length that disagrees with the bytes, or an index outside the
/// object table, is answered `[0xFE]` with nothing changed.
fn handle_rpc(server: &PrismServer, view: &FarmView, req: &[u8]) -> Vec<u8> {
    const REFUSED: u8 = 0xFE;
    if req.len() < 10 {
        return vec![REFUSED];
    }
    let op = req[0];
    let token = u64::from_le_bytes(req[1..9].try_into().expect("8 bytes"));
    let n = req[9] as usize;
    let record_len = match op {
        RPC_LOCK | RPC_UNLOCK => 8,
        RPC_UPDATE => 8 + view.value_len as usize,
        _ => return vec![REFUSED],
    };
    let body = &req[10..];
    let records = body.chunks_exact(record_len).map(|r| {
        let (local, value) = r.split_at(8);
        (u64::from_le_bytes(local.try_into().expect("8B")), value)
    });
    if body.len() != n * record_len || records.clone().any(|(local, _)| local >= view.capacity) {
        return vec![REFUSED];
    }
    match op {
        RPC_LOCK => {
            let mut taken = Vec::new();
            for (local, _) in records {
                let obj = obj_of(view, local);
                let got = server
                    .arena()
                    .atomic(obj + 8, 8, |b| {
                        let cur = u64::from_le_bytes(b.as_ref().try_into().expect("8B"));
                        if cur == 0 {
                            b.copy_from_slice(&token.to_le_bytes());
                            true
                        } else {
                            false
                        }
                    })
                    .expect("object in arena");
                if got {
                    taken.push(obj);
                } else {
                    // All-or-nothing per shard: roll back and fail.
                    for t in taken {
                        server.arena().write_u64(t + 8, 0).expect("in arena");
                    }
                    return vec![0xFF];
                }
            }
            vec![0]
        }
        RPC_UNLOCK => {
            for (local, _) in records {
                clear_if_held(server, obj_of(view, local) + 8, token);
            }
            vec![0]
        }
        RPC_UPDATE => {
            for (local, value) in records {
                let obj = obj_of(view, local);
                let lock = server.arena().read_u64(obj + 8).expect("in arena");
                if lock != token {
                    return vec![0xFD]; // protocol violation
                }
                // Value first, then version, then unlock — a reader that
                // observed the pre-update version can never validate a
                // half-new value.
                server
                    .arena()
                    .write(obj + OBJ_HEADER + 8, value)
                    .expect("in arena");
                let v = server.arena().read_u64(obj).expect("in arena");
                server.arena().write_u64(obj, v + 1).expect("in arena");
                server.arena().write_u64(obj + 8, 0).expect("in arena");
            }
            vec![0]
        }
        _ => vec![REFUSED],
    }
}

/// A sharded FaRM deployment.
pub struct FarmCluster {
    shards: Vec<FarmServer>,
    next_client: std::sync::atomic::AtomicU64,
}

impl FarmCluster {
    /// Builds `n_shards` shards, keys placed as the [crate
    /// docs](crate#placement) say.
    pub fn new(n_shards: usize, config: &FarmConfig) -> Self {
        assert!(n_shards > 0);
        FarmCluster {
            shards: (0..n_shards)
                .map(|s| FarmServer::new(config, s as u64, n_shards as u64))
                .collect(),
            next_client: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &FarmServer {
        &self.shards[i]
    }

    /// Opens a client.
    pub fn open_client(&self) -> FarmClient {
        let id = self
            .next_client
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let v = &self.shards[0].view;
        FarmClient {
            place: Placement::new(self.shards.len() as u64, v.capacity, v.value_len),
            views: self.shards.iter().map(|s| s.view.clone()).collect(),
            client_id: id,
            seq: 0,
        }
    }
}

/// A FaRM client.
#[derive(Debug, Clone)]
pub struct FarmClient {
    place: Placement,
    views: Vec<FarmView>,
    client_id: u64,
    seq: u64,
}

/// An attempt's phase; its number is the phase tag of the phase's
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
enum Phase {
    #[default]
    IndexReads = 0,
    ObjectReads = 1,
    Lock = 2,
    Validate = 3,
    Update = 4,
    Unlock = 5,
    Done = 6,
}

impl From<Phase> for u32 {
    fn from(phase: Phase) -> u32 {
        phase as u32
    }
}

/// A lock or unlock RPC: `[op | token | n | local index × n]`.
fn key_list_rpc(op: u8, token: u64, indices: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    let mut msg = Vec::with_capacity(10 + indices.len() * 8);
    msg.push(op);
    msg.extend_from_slice(&token.to_le_bytes());
    msg.push(indices.len() as u8);
    for i in indices {
        msg.extend_from_slice(&i.to_le_bytes());
    }
    msg
}

/// A FaRM transaction attempt in flight.
#[derive(Debug, Clone)]
pub struct FarmOp {
    read_keys: Vec<u64>,
    writes: Vec<(u64, Vec<u8>)>,
    token: u64,
    /// The current phase and its requests, each with the key it reads
    /// (index, object, validate) or a key of its shard (lock, update,
    /// unlock).
    round: Round<Phase, u64>,
    ptrs: IntMap<u64, u64>,
    versions: IntMap<u64, u64>,
    values: HashMap<u64, Vec<u8>>,
    retries: u32,
    locked_shards: Vec<usize>,
    lock_failed: bool,
    valid: bool,
    pending_outcome: Option<TxOutcome>,
}

impl FarmOp {
    /// The one-sided READ of `key` that a read phase sends, and its
    /// shard: the key's index slot, its whole object, or the object's
    /// header (validate).
    fn read(&self, c: &FarmClient, phase: Phase, key: u64) -> (usize, Request) {
        let shard = c.place.shard_of(key);
        let v = &c.views[shard];
        let (addr, len) = match phase {
            Phase::IndexReads => (v.index_slot(c.place.index_of(key)), 8),
            Phase::ObjectReads => (self.ptrs[&key], v.obj_len()),
            _ => (self.ptrs[&key], OBJ_HEADER),
        };
        let read = Verb::Read {
            addr,
            len: len as u32,
            rkey: v.rkey,
        };
        (shard, Request::Verb(read))
    }

    /// One [`FarmOp::read`] per read key: the index, object and
    /// validate phases.
    fn read_sends(&mut self, c: &FarmClient, phase: Phase) -> TxStep {
        self.round.start(phase);
        let mut step = TxStep {
            send: Vec::with_capacity(self.read_keys.len()),
            ..Default::default()
        };
        for &key in &self.read_keys {
            let (shard, req) = self.read(c, phase, key);
            self.round.send(&mut step, shard, key, req);
        }
        step
    }

    fn index_sends(&mut self, c: &FarmClient) -> TxStep {
        if self.read_keys.is_empty() {
            return TxStep::paused();
        }
        self.read_sends(c, Phase::IndexReads)
    }

    fn lock_sends(&mut self, c: &FarmClient) -> TxStep {
        if self.writes.is_empty() {
            return self.validate_sends(c);
        }
        self.round.start(Phase::Lock);
        self.locked_shards.clear();
        self.lock_failed = false;
        // Sorted by (shard, key): one request per shard in ascending
        // shard order, each listing its keys in the canonical lock order.
        let mut keys: Vec<(usize, u64)> = self
            .writes
            .iter()
            .map(|(k, _)| (c.place.shard_of(*k), *k))
            .collect();
        keys.sort_unstable();
        let mut step = TxStep::default();
        for run in keys.chunk_by(|a, b| a.0 == b.0) {
            let (shard, key) = run[0];
            let locals = run.iter().map(|&(_, k)| c.place.index_of(k));
            let req = Request::Rpc(key_list_rpc(RPC_LOCK, self.token, locals));
            self.round.send(&mut step, shard, key, req);
        }
        step
    }

    fn validate_sends(&mut self, c: &FarmClient) -> TxStep {
        if self.read_keys.is_empty() {
            return self.update_sends(c);
        }
        self.valid = true;
        self.read_sends(c, Phase::Validate)
    }

    /// Ends the attempt with `outcome`.
    fn finish(&mut self, outcome: TxOutcome) -> TxStep {
        self.round.start(Phase::Done);
        TxStep::finished(outcome)
    }

    /// Ends the attempt committed. The read set moves into the outcome:
    /// nothing reads the values once the attempt is done.
    fn commit(&mut self) -> TxStep {
        let values = std::mem::take(&mut self.values);
        self.finish(TxOutcome::Committed(values))
    }

    fn update_sends(&mut self, c: &FarmClient) -> TxStep {
        if self.writes.is_empty() {
            return self.commit();
        }
        self.round.start(Phase::Update);
        // Nothing after this phase reads the write set (unlock runs
        // only on the abort paths before it), so its values leave the
        // attempt here: grouped by shard in place (stably, so keys on
        // one shard keep the caller's order), copied into the RPCs,
        // dropped.
        let mut writes = std::mem::take(&mut self.writes);
        writes.sort_by_key(|(k, _)| c.place.shard_of(*k));
        let mut step = TxStep::default();
        for run in writes.chunk_by(|a, b| c.place.shard_of(a.0) == c.place.shard_of(b.0)) {
            let key = run[0].0;
            let shard = c.place.shard_of(key);
            let value_len = c.views[shard].value_len as usize;
            let mut msg = Vec::with_capacity(10 + run.len() * (8 + value_len));
            msg.push(RPC_UPDATE);
            msg.extend_from_slice(&self.token.to_le_bytes());
            msg.push(run.len() as u8);
            for (k, val) in run {
                msg.extend_from_slice(&c.place.index_of(*k).to_le_bytes());
                msg.extend_from_slice(val);
            }
            self.round.send(&mut step, shard, key, Request::Rpc(msg));
        }
        step
    }

    fn unlock_sends(&mut self, c: &FarmClient, then: TxOutcome) -> TxStep {
        if self.locked_shards.is_empty() {
            return self.finish(then);
        }
        self.round.start(Phase::Unlock);
        let mut step = TxStep::default();
        let shards = std::mem::take(&mut self.locked_shards);
        for shard in shards {
            let keys: Vec<u64> = self
                .writes
                .iter()
                .map(|(k, _)| *k)
                .filter(|&k| c.place.shard_of(k) == shard)
                .collect();
            let locals = keys.iter().map(|&k| c.place.index_of(k));
            let req = Request::Rpc(key_list_rpc(RPC_UNLOCK, self.token, locals));
            self.round.send(&mut step, shard, keys[0], req);
        }
        // The final outcome is deferred until unlocks complete.
        self.pending_outcome = Some(then);
        step
    }
}

impl TxProtocol for FarmClient {
    type Cluster = FarmCluster;
    type Op = FarmOp;

    fn server(cluster: &FarmCluster, shard: usize) -> &PrismServer {
        cluster.shard(shard).server()
    }

    fn begin(&mut self, read_keys: Vec<u64>) -> (FarmOp, TxStep) {
        self.place.check(&read_keys, &[]);
        self.seq += 1;
        let token = (self.client_id << 24) | (self.seq & 0xFF_FFFF);
        let mut op = FarmOp {
            read_keys,
            writes: Vec::new(),
            token,
            round: Round::default(),
            ptrs: IntMap::default(),
            versions: IntMap::default(),
            values: HashMap::new(),
            retries: 0,
            locked_shards: Vec::new(),
            lock_failed: false,
            valid: true,
            pending_outcome: None,
        };
        let step = op.index_sends(self);
        (op, step)
    }

    fn on_reply(&mut self, op: &mut FarmOp, phase: u32, req_idx: u32, reply: Reply) -> TxStep {
        let c = &*self;
        let Some(k) = op.round.take(phase, req_idx) else {
            return TxStep::default();
        };
        match op.round.phase() {
            Phase::IndexReads => {
                match reply.into_verb() {
                    Ok(d) if d.len() == 8 => {
                        op.ptrs
                            .insert(k, u64::from_le_bytes(d.try_into().expect("8B")));
                    }
                    _ => return op.finish(TxOutcome::Failed("index read error")),
                }
                if op.round.settled() {
                    return op.read_sends(c, Phase::ObjectReads);
                }
                TxStep::default()
            }
            Phase::ObjectReads => {
                match reply.into_verb() {
                    Ok(mut d) if d.len() >= OBJ_HEADER as usize + 8 => {
                        let version = u64::from_le_bytes(d[0..8].try_into().expect("8B"));
                        let lock = u64::from_le_bytes(d[8..16].try_into().expect("8B"));
                        if lock != 0 {
                            // In-progress writer: retry this object read.
                            op.retries += 1;
                            if op.retries > MAX_READ_RETRIES {
                                // Persistent contention: abort the whole
                                // attempt so the caller retries with
                                // backoff (a closed-loop client must not
                                // abandon the transaction).
                                return op.finish(TxOutcome::Aborted);
                            }
                            let (shard, req) = op.read(c, Phase::ObjectReads, k);
                            let mut step = TxStep::default();
                            op.round.resend(&mut step, shard, req_idx, k, req);
                            return step;
                        }
                        op.versions.insert(k, version);
                        // The reply's buffer becomes the value: header
                        // and key are cut off in place rather than the
                        // value copied out.
                        d.drain(..OBJ_HEADER as usize + 8);
                        op.values.insert(k, d);
                    }
                    _ => return op.finish(TxOutcome::Failed("object read error")),
                }
                if op.round.settled() {
                    return TxStep::paused();
                }
                TxStep::default()
            }
            Phase::Lock => {
                let shard = c.place.shard_of(k);
                match reply.into_rpc() {
                    Ok(b) if b.first() == Some(&0) => op.locked_shards.push(shard),
                    Ok(_) => op.lock_failed = true,
                    // A lost reply leaves the lock in doubt: the attempt
                    // aborts, and its unlock (token-checked, so harmless
                    // if the lock never landed) covers this shard too.
                    Err(_) => {
                        op.locked_shards.push(shard);
                        op.lock_failed = true;
                    }
                }
                if op.round.settled() {
                    if op.lock_failed {
                        return op.unlock_sends(c, TxOutcome::Aborted);
                    }
                    return op.validate_sends(c);
                }
                TxStep::default()
            }
            Phase::Validate => {
                match reply.into_verb() {
                    Ok(d) if d.len() == OBJ_HEADER as usize => {
                        let version = u64::from_le_bytes(d[0..8].try_into().expect("8B"));
                        let lock = u64::from_le_bytes(d[8..16].try_into().expect("8B"));
                        let lock_ok = lock == 0 || lock == op.token;
                        if version != op.versions[&k] || !lock_ok {
                            op.valid = false;
                        }
                    }
                    _ => return op.finish(TxOutcome::Failed("validation read error")),
                }
                if op.round.settled() {
                    if !op.valid {
                        return op.unlock_sends(c, TxOutcome::Aborted);
                    }
                    return op.update_sends(c);
                }
                TxStep::default()
            }
            Phase::Update => {
                match reply.into_rpc() {
                    Ok(b) if b.first() == Some(&0) => {}
                    Ok(_) => return op.finish(TxOutcome::Failed("update rejected")),
                    // The update may or may not have installed: as
                    // indeterminate as PRISM-TX's lost commit.
                    Err(_) => return op.finish(TxOutcome::Failed("update reply lost")),
                }
                if op.round.settled() {
                    return op.commit();
                }
                TxStep::default()
            }
            Phase::Unlock => {
                if op.round.settled() {
                    let outcome = op.pending_outcome.take().unwrap_or(TxOutcome::Aborted);
                    return op.finish(outcome);
                }
                TxStep::default()
            }
            Phase::Done => TxStep::default(),
        }
    }

    fn supply_writes(&mut self, op: &mut FarmOp, writes: Vec<(u64, Vec<u8>)>) -> TxStep {
        let round = &op.round;
        assert!(
            matches!(round.phase(), Phase::ObjectReads | Phase::IndexReads) && round.settled(),
            "supply_writes outside the pause"
        );
        self.place.check(&[], &writes);
        op.writes = writes;
        op.lock_sends(self)
    }

    fn values(op: &FarmOp) -> &HashMap<u64, Vec<u8>> {
        &op.values
    }

    fn take_read_keys(op: &mut FarmOp) -> Vec<u64> {
        debug_assert_eq!(op.round.phase(), Phase::Done, "attempt still in flight");
        std::mem::take(&mut op.read_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{drive_rest, drive_until, is_noop, sends_phase, supplied};
    use crate::driver::{drive, run_rmw};
    use prism_core::step::{drive_local, Input};
    use prism_testkit::{for_all, gens, Config, Gen};

    fn cluster(shards: usize, keys: u64) -> FarmCluster {
        FarmCluster::new(
            shards,
            &FarmConfig {
                keys_per_shard: keys,
                value_len: 32,
            },
        )
    }

    fn read_all(cl: &FarmCluster, c: &mut FarmClient, keys: &[u64]) -> HashMap<u64, Vec<u8>> {
        let (op, step) = c.begin(keys.to_vec());
        match drive(cl, c, op, step, |_| vec![]) {
            TxOutcome::Committed(v) => v,
            o => panic!("read-only txn must commit: {o:?}"),
        }
    }

    fn write_one(cl: &FarmCluster, c: &mut FarmClient, k: u64, v: Vec<u8>) -> TxOutcome {
        let (op, step) = c.begin(vec![k]);
        drive(cl, c, op, step, |_| vec![(k, v)])
    }

    #[test]
    fn locks_released_after_commit() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        write_one(&cl, &mut c, 0, vec![1u8; 32]);
        let view = cl.shard(0).view().clone();
        let lock = cl
            .shard(0)
            .server()
            .arena()
            .read_u64(obj_of(&view, 0) + 8)
            .unwrap();
        assert_eq!(lock, 0, "lock must be free after commit");
    }

    #[test]
    fn stale_read_aborts() {
        let cl = cluster(1, 4);
        let mut c1 = cl.open_client();
        let mut c2 = cl.open_client();
        // c1 executes reads, pausing before lock.
        let (op, lock_step) = supplied(&cl, &mut c1, vec![0], vec![(0, vec![9u8; 32])]);
        assert!(sends_phase(Phase::Lock)(&lock_step), "reached lock phase");
        // c2 commits a conflicting write (bumping the version).
        assert!(matches!(
            write_one(&cl, &mut c2, 0, vec![5u8; 32]),
            TxOutcome::Committed(_)
        ));
        // c1's validation must now fail.
        assert_eq!(drive_rest(&cl, &mut c1, op, lock_step), TxOutcome::Aborted);
        assert_eq!(read_all(&cl, &mut c2, &[0])[&0], vec![5u8; 32]);
    }

    /// Runs one attempt over `reads`, supplying `writes` at the pause;
    /// with `strays`, every phase it reaches is first fed a reply whose
    /// request index matches no pending request, which must be dropped.
    /// Returns the outcome and the phases in the order reached.
    fn run_feeding_strays(
        cl: &FarmCluster,
        c: &mut FarmClient,
        reads: Vec<u64>,
        writes: Vec<(u64, Vec<u8>)>,
        strays: bool,
    ) -> (TxOutcome, Vec<u32>) {
        let mut phases = Vec::new();
        let mut opened = |c: &mut FarmClient, op: &mut FarmOp, step: TxStep| {
            if let Some(&(_, phase, _, _)) = step.send.first() {
                if phases.last() != Some(&phase) {
                    phases.push(phase);
                    if strays {
                        let timeout = Reply::Verb(Err(prism_rdma::RdmaError::ReceiverNotReady));
                        assert!(is_noop(&c.on_reply(op, phase, u32::MAX, timeout)));
                    }
                }
            }
            step
        };
        let (mut op, step) = c.begin(reads);
        let step = opened(c, &mut op, step);
        let mut writes = Some(writes);
        let server = |s| Some(&**cl.shard(s).server());
        let (outcome, _) = drive_local(step, server, |input| {
            let step = match input {
                Input::Reply(_, phase, index, reply) => c.on_reply(&mut op, phase, index, reply),
                Input::Resume => c.supply_writes(&mut op, writes.take().expect("one pause")),
            };
            opened(c, &mut op, step)
        });
        (outcome.expect("attempt stalled"), phases)
    }

    /// A reply that matches no pending request is dropped in every
    /// phase, and the attempt ends as it would have without it: a
    /// commit (index, object, lock, validate, update) and an abort whose
    /// one won lock is released (index, object, lock, unlock).
    #[test]
    fn stray_request_indices_are_dropped_in_every_phase() {
        use Phase::*;
        for strays in [false, true] {
            let cl = cluster(1, 4);
            let mut c = cl.open_client();
            let got = run_feeding_strays(&cl, &mut c, vec![0], vec![(0, vec![3; 32])], strays);
            let phases = [IndexReads, ObjectReads, Lock, Validate, Update].map(u32::from);
            assert_eq!(
                got,
                (
                    TxOutcome::Committed([(0, vec![0; 32])].into()),
                    phases.to_vec()
                )
            );
            assert_eq!(read_all(&cl, &mut c, &[0])[&0], vec![3; 32]);

            // Another client holds key 0's lock, so the lock of shard 0
            // fails and shard 1's is released.
            let cl = cluster(2, 4);
            let (_held, _) = park_after_lock(&cl, &mut cl.open_client(), 0, 1);
            let mut c = cl.open_client();
            let writes = vec![(0, vec![4; 32]), (1, vec![4; 32])];
            let got = run_feeding_strays(&cl, &mut c, vec![1], writes, strays);
            let phases = [IndexReads, ObjectReads, Lock, Unlock].map(u32::from);
            assert_eq!(
                got,
                (TxOutcome::Aborted, phases.to_vec()),
                "strays: {strays}"
            );
            assert_eq!(
                cl.shard(0).held() + cl.shard(1).held(),
                1,
                "only the other client's lock is left"
            );
        }
    }

    #[test]
    fn lock_conflict_aborts_other_txn() {
        let cl = cluster(1, 4);
        let mut c1 = cl.open_client();
        let mut c2 = cl.open_client();
        // c1 locks key 0 (pause after lock phase).
        let (op, val_step) = park_after_lock(&cl, &mut c1, 0, 1);
        // c2 now conflicts on the lock and aborts. (A blind write — a
        // reading transaction would already stall at the execution read,
        // which retries while the object is locked.)
        let (op2, step2) = c2.begin(vec![]);
        let outcome = drive(&cl, &mut c2, op2, step2, |_| vec![(0, vec![2u8; 32])]);
        assert_eq!(outcome, TxOutcome::Aborted);
        // c1 proceeds to commit.
        assert!(matches!(
            drive_rest(&cl, &mut c1, op, val_step),
            TxOutcome::Committed(_)
        ));
        let mut c3 = cl.open_client();
        assert_eq!(read_all(&cl, &mut c3, &[0])[&0], vec![1u8; 32]);
    }

    /// Drives a transaction writing `fill` to key `k` to just past its
    /// lock phase, leaving the key's lock word held, and returns the op
    /// plus the withheld validate step.
    fn park_after_lock(cl: &FarmCluster, c: &mut FarmClient, k: u64, fill: u8) -> (FarmOp, TxStep) {
        let (mut op, lock) = supplied(cl, c, vec![k], vec![(k, vec![fill; 32])]);
        let validate = drive_until(cl, c, &mut op, lock, sends_phase(Phase::Validate));
        (op, validate.expect("transaction never locked"))
    }

    #[test]
    fn sweep_releases_orphaned_lock_after_two_sightings() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        // A "crashed" client: locked key 2, never unlocks.
        let (_op, _val) = park_after_lock(&cl, &mut c, 2, 0xCD);
        assert_eq!(cl.shard(0).held(), 1);

        assert_eq!(cl.shard(0).sweep(), 0, "first sighting only leases");
        assert_eq!(cl.shard(0).held(), 1);
        assert_eq!(cl.shard(0).sweep(), 1, "second sighting releases");
        assert_eq!(cl.shard(0).held(), 0);
        assert_eq!(cl.shard(0).sweep(), 0);
        assert_eq!(cl.shard(0).lease().reclaims(), 1);

        // The key is writable again.
        let mut c2 = cl.open_client();
        assert!(matches!(
            write_one(&cl, &mut c2, 2, vec![4u8; 32]),
            TxOutcome::Committed(_)
        ));
        assert_eq!(read_all(&cl, &mut c2, &[2])[&2], vec![4u8; 32]);
    }

    #[test]
    fn sweep_spares_live_lock_holder_for_one_interval() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        let (op, val) = park_after_lock(&cl, &mut c, 1, 0xCD);
        // One sweep lands mid-commit: lease only, lock stays held.
        assert_eq!(cl.shard(0).sweep(), 0);
        assert_eq!(cl.shard(0).held(), 1);
        // The slow-but-live client finishes and unlocks on its own.
        assert!(matches!(
            drive_rest(&cl, &mut c, op, val),
            TxOutcome::Committed(_)
        ));
        assert_eq!(cl.shard(0).held(), 0);
        assert_eq!(cl.shard(0).sweep(), 0, "lease entry just expires");
        assert_eq!(cl.shard(0).lease().reclaims(), 0);
        let mut c2 = cl.open_client();
        assert_eq!(read_all(&cl, &mut c2, &[1])[&1], vec![0xCD; 32]);
    }

    #[test]
    fn concurrent_counter_is_serializable() {
        use std::sync::Arc;
        let cl = Arc::new(cluster(2, 8));
        // Each thread's attempts are capped, so a protocol under which
        // nothing commits fails the test instead of spinning forever.
        let (per_thread, budget) = (25, 2_500);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cl = Arc::clone(&cl);
                std::thread::spawn(move || {
                    let mut c = cl.open_client();
                    let (mut committed, mut spent) = (0, 0);
                    while committed < per_thread {
                        assert!(
                            spent < budget,
                            "{budget} attempts spent on {committed} of {per_thread} commits"
                        );
                        let (o, attempts) = run_rmw(
                            &*cl,
                            &mut c,
                            &[3],
                            |_, vals| {
                                let mut v = vals[&3].clone();
                                let n = u32::from_le_bytes(v[0..4].try_into().unwrap());
                                v[0..4].copy_from_slice(&(n + 1).to_le_bytes());
                                v
                            },
                            budget - spent,
                        );
                        spent += attempts;
                        if matches!(o, TxOutcome::Committed(_)) {
                            committed += 1;
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut c = cl.open_client();
        let v = &read_all(&cl, &mut c, &[3])[&3];
        assert_eq!(u32::from_le_bytes(v[0..4].try_into().unwrap()), 100);
    }

    const TOKEN: u64 = 0xABCD;

    /// `[op | token | n]` followed by `body`.
    fn rpc_bytes(op: u8, token: u64, n: u8, body: &[u8]) -> Vec<u8> {
        let mut msg = vec![op];
        msg.extend_from_slice(&token.to_le_bytes());
        msg.push(n);
        msg.extend_from_slice(body);
        msg
    }

    fn rpc(cl: &FarmCluster, msg: Vec<u8>) -> Vec<u8> {
        let reply = prism_core::msg::execute_local(cl.shard(0).server(), &Request::Rpc(msg));
        reply.into_rpc().unwrap()
    }

    /// Shard 0's object table and the object slot just past it: every
    /// version, lock word, key and value a request could touch.
    fn objects(cl: &FarmCluster) -> Vec<u8> {
        let v = cl.shard(0).view();
        let len = v.obj_stride * (v.capacity + 1);
        cl.shard(0).server().arena().read(v.obj_addr, len).unwrap()
    }

    /// Shard 0 of a 4-key cluster with key 1 locked under [`TOKEN`].
    fn locked_cluster() -> FarmCluster {
        let cl = cluster(1, 4);
        assert_eq!(
            rpc(&cl, key_list_rpc(RPC_LOCK, TOKEN, [1].into_iter())),
            [0]
        );
        cl
    }

    #[test]
    fn lock_whose_count_overstates_its_bytes_is_refused() {
        let cl = locked_cluster();
        let before = objects(&cl);
        let mut msg = key_list_rpc(RPC_LOCK, TOKEN, [0].into_iter());
        msg[9] = 2;
        assert_eq!(rpc(&cl, msg), [0xFE]);
        assert_eq!(objects(&cl), before);
    }

    #[test]
    fn unlock_of_an_index_past_the_arena_is_refused() {
        let cl = locked_cluster();
        let before = objects(&cl);
        let msg = key_list_rpc(RPC_UNLOCK, TOKEN, [1, 1 << 40].into_iter());
        assert_eq!(rpc(&cl, msg), [0xFE]);
        assert_eq!(objects(&cl), before, "key 1 stays locked");
    }

    #[test]
    fn update_with_a_short_value_is_refused() {
        let cl = locked_cluster();
        let before = objects(&cl);
        let mut body = 1u64.to_le_bytes().to_vec();
        body.extend_from_slice(&[9; 31]);
        assert_eq!(rpc(&cl, rpc_bytes(RPC_UPDATE, TOKEN, 1, &body)), [0xFE]);
        assert_eq!(objects(&cl), before);
    }

    #[test]
    fn lock_of_index_capacity_is_refused() {
        let cl = locked_cluster();
        let before = objects(&cl);
        let msg = key_list_rpc(RPC_LOCK, TOKEN, [0, 4].into_iter());
        assert_eq!(rpc(&cl, msg), [0xFE]);
        assert_eq!(objects(&cl), before, "no lock word past the table");
    }

    /// Raw bytes, and requests of every op whose count is right or off
    /// by one, whose indices may fall past the table, and whose last
    /// UPDATE value may be a byte short.
    fn request_gen() -> Gen<Vec<u8>> {
        let index = gens::one_of(vec![gens::range_u64(0..6), gens::u64s()]);
        gens::one_of(vec![
            gens::vec(gens::u8s(), 0..48),
            gens::t5(
                gens::choice(vec![RPC_LOCK, RPC_UNLOCK, RPC_UPDATE, 0x13]),
                gens::choice(vec![TOKEN, 0, 7]),
                gens::vec(index, 0..4),
                gens::choice(vec![0u8, 1, 255]),
                gens::bools(),
            )
            .map(|(op, token, indices, skew, short)| {
                let mut body = Vec::new();
                for i in &indices {
                    body.extend_from_slice(&i.to_le_bytes());
                    if op == RPC_UPDATE {
                        body.extend_from_slice(&[0x5A; 32]);
                    }
                }
                if short {
                    body.pop();
                }
                let n = (indices.len() as u8).wrapping_add(skew);
                rpc_bytes(op, token, n, &body)
            }),
        ])
    }

    /// The handler is total over request bytes: it never panics, its
    /// reply is one of the four the protocol defines, and a refused
    /// request (`[0xFE]`, or a LOCK conflict's `[0xFF]`) leaves every
    /// object as it was, lock words included.
    #[test]
    fn farm_handler_is_total_over_request_bytes() {
        for_all(
            "farm_handler_is_total_over_request_bytes",
            &Config::with_cases(512),
            &request_gen(),
            |req: &Vec<u8>| {
                let cl = locked_cluster();
                let before = objects(&cl);
                let reply = rpc(&cl, req.clone());
                assert!(
                    [[0], [0xFD], [0xFE], [0xFF]].iter().any(|r| reply == r),
                    "reply {reply:?}"
                );
                if reply == [0xFE] || reply == [0xFF] {
                    assert_eq!(objects(&cl), before);
                }
            },
        );
    }
}
