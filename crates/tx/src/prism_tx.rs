//! PRISM-TX: serializable distributed transactions whose execution,
//! prepare, and commit phases are all remote operations (§8.2).
//!
//! The concurrency control is Meerkat-style timestamp OCC with per-key
//! metadata (Figure 8). Each key's slot holds four 8-byte words:
//!
//! ```text
//! [ PW | PR | C | addr ]
//!   PW   highest prepared-writer timestamp (big-endian)
//!   PR   highest prepared-reader timestamp (big-endian)
//!   C    highest committed-writer timestamp (big-endian)
//!   addr pointer to the committed version's buffer [C | key | value]
//! ```
//!
//! `PW` sits at a lower address than `PR` so the *single* enhanced CAS
//! of the read validation can compare the concatenation `PW|PR` against
//! `RC|TS` lexicographically (§8.2: "this can be expressed as a single
//! CAS operation that checks if RC|TS is greater than PW|PR").
//!
//! Phases (each one round trip per shard):
//!
//! * **Execute** — one indirect READ through `addr` per read key,
//!   returning `[C | key | value]` atomically; writes buffer locally.
//! * **Prepare** — per read key: `CAS_LE` on `PW|PR` comparing `RC|TS`,
//!   swapping `PR := TS`; a failed CAS whose old `PW` still equals `RC`
//!   means the read is valid but `PR` was already larger ("the client
//!   can distinguish the two using the value returned"). Per write key:
//!   `CAS_GT`-style on `PW` (`TS > PW`), swapping `PW := TS`; the
//!   returned old value provides `PR` for the second check `TS > PR`,
//!   which is safe to perform after the update (§8.2).
//! * **Commit** — per write key, the ALLOCATE/WRITE/CAS install chain of
//!   PRISM-RS (§8.2 "follows the same pattern"), guarded by `TS > C`.
//!   A `CasFailed` means a newer transaction already committed that key
//!   (Thomas write rule): the transaction still commits; its buffer is
//!   reclaimed.
//! * **Abort path** — no metadata rollback (only maxima are kept):
//!   instead, bump `C := TS` for keys whose write check succeeded, which
//!   lets future writers proceed (§8.2).
//!
//! Readers take `RC` as the larger of the slot's `C` word and the
//! version buffer's embedded `C`: the slot copy advances on the abort
//! path's `C`-bump (unblocking subsequent readers, §8.2), and a commit
//! racing between the two reads only raises the buffer copy — in which
//! case the value read *is* exactly that newer version, so the claimed
//! `RC` stays consistent (see `exec_sends`).

use std::collections::HashMap;
use std::sync::Arc;

use prism_core::builder::ops;
use prism_core::crc::Crc32;
use prism_core::freelist::{free_request, FreeLists, Pooled};
use prism_core::install::{self, Failure, Guard, Installed, Word};
use prism_core::integrity::IntegrityStats;
use prism_core::lease::{Lease, Leased};
use prism_core::msg::{Reply, Request};
use prism_core::op::{field_mask, full_mask, FreeListId, Redirect};
use prism_core::value::CasMode;
use prism_core::{OpStatus, PrismServer};
use prism_rdma::hash::IntSet;
use prism_rdma::region::AccessFlags;

use crate::driver::{Round, TxOutcome, TxProtocol, TxStep};
use crate::shard::Placement;
use crate::ts::{Ts, TxClock};

/// Per-key slot size.
pub const SLOT: u64 = 32;

/// Version-buffer header: `[C 8 B | key 8 B | crc u32 | pad u32]`.
/// The checksum covers `C || key || value`, binding the committed
/// timestamp and key identity to the value bytes — a torn install or
/// at-rest rot fails verification and the reading transaction aborts
/// cleanly instead of computing on garbage.
pub const VER_HDR: u64 = 24;

/// Builds the self-verifying version image for `(ts, key, value)`.
pub fn encode_version(ts: Ts, key: u64, value: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(VER_HDR as usize + value.len());
    p.extend_from_slice(&ts.to_bytes());
    p.extend_from_slice(&key.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&p[..16]).update(value);
    p.extend_from_slice(&crc.finish().to_le_bytes());
    p.extend_from_slice(&[0u8; 4]);
    p.extend_from_slice(value);
    p
}

/// Verifies a version image's checksum.
pub fn version_crc_ok(buf: &[u8]) -> bool {
    if buf.len() < VER_HDR as usize {
        return false;
    }
    let stored = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&buf[..16]).update(&buf[VER_HDR as usize..]);
    crc.finish() == stored
}

/// A 16-byte CAS operand — two slot words — in one exactly-sized
/// allocation.
fn operand(first: [u8; 8], second: [u8; 8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&first);
    v.extend_from_slice(&second);
    v
}

/// The maximal runs of equal shard in a shard-sorted list, as
/// `(shard, start, end)` in ascending shard order.
fn shard_runs<'a, T>(
    items: &'a [T],
    shard_of: impl Fn(&T) -> usize + Copy + 'a,
) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    let mut start = 0;
    items
        .chunk_by(move |a, b| shard_of(a) == shard_of(b))
        .map(move |run| {
            let at = start;
            start += run.len();
            (shard_of(&run[0]), at, start)
        })
}

/// Write keys per commit chain (limited by the 64-byte connection
/// scratch slot: 16 staging bytes per key).
pub const KEYS_PER_COMMIT_CHAIN: usize = 4;

/// Per-shard store configuration.
#[derive(Debug, Clone)]
pub struct TxConfig {
    /// Keys resident on this shard.
    pub keys_per_shard: u64,
    /// Value bytes per key (512 in §8.3).
    pub value_len: u64,
    /// Extra buffers beyond one per key.
    pub spare_buffers: u64,
}

impl TxConfig {
    /// The §8.3 configuration scaled to `keys_per_shard`.
    pub fn paper(keys_per_shard: u64, value_len: u64) -> Self {
        TxConfig {
            keys_per_shard,
            value_len,
            spare_buffers: (keys_per_shard / 4).max(64),
        }
    }
}

/// Client-visible layout of one shard.
#[derive(Debug, Clone)]
pub struct TxView {
    /// Base of the slot array.
    pub slot_addr: u64,
    /// Rkey covering slots and buffers.
    pub data_rkey: u32,
    /// Keys resident on this shard.
    pub capacity: u64,
    /// Value bytes per key.
    pub value_len: u64,
    /// The buffer free list.
    pub freelist: FreeListId,
}

impl TxView {
    /// Address of local key index `i`'s slot.
    pub fn slot(&self, i: u64) -> u64 {
        self.slot_addr + i * SLOT
    }

    /// Buffer length: `[C | key | crc | pad]` header + value.
    pub fn buf_len(&self) -> u64 {
        VER_HDR + self.value_len
    }
}

/// One PRISM-TX shard server.
pub struct TxServer {
    server: Arc<PrismServer>,
    view: TxView,
    pool_base: u64,
    pool_len: u64,
    /// Cooperative-termination lease over dangling prepared-writer
    /// timestamps (see its [`Leased`] impl).
    lease: Lease,
}

impl TxServer {
    /// Builds a shard: slot array, buffer pool (registered as its free
    /// list's extent), and the initial version (timestamp 0, zeroed
    /// value) of every key.
    ///
    /// The fresh arena is zero, so seeding writes only each seed's
    /// non-zero words: the 24-byte version header (its key and the
    /// checksum of `0 ‖ key ‖ zeros`) and the slot's buffer address.
    /// The store equals one written densely with [`encode_version`].
    pub fn new(config: &TxConfig, shard: u64, n_shards: u64) -> Self {
        let slots_len = (config.keys_per_shard * SLOT).next_multiple_of(64);
        let buf_len = VER_HDR + config.value_len;
        let stride = buf_len.next_multiple_of(64);
        let count = config.keys_per_shard + config.spare_buffers;
        let pool_len = stride * count;
        let server = Arc::new(PrismServer::new(slots_len + pool_len + (1 << 20)));
        let (data_base, data_rkey) =
            server.carve_region(slots_len + pool_len, 64, AccessFlags::FULL);
        let slot_addr = data_base;
        let pool_base = data_base + slots_len;

        // Key i's initial version lives in buffer i; the rest are free.
        let (freelist, seeds) = (FreeListId(0), config.keys_per_shard);
        server
            .freelists()
            .register_pool(freelist, buf_len, pool_base, count, seeds);
        let place = Placement::new(n_shards, config.keys_per_shard, config.value_len);
        let (ts, zeros) = (Ts::ZERO.to_bytes(), vec![0u8; config.value_len as usize]);
        for i in 0..config.keys_per_shard {
            let buf = pool_base + i * stride;
            let key = place.key(shard, i).to_le_bytes();
            // Header [C 0 | key | crc | pad 0]; the value stays zero.
            let mut crc = Crc32::new();
            crc.update(&ts).update(&key).update(&zeros);
            let mut header = [0u8; VER_HDR as usize];
            header[..8].copy_from_slice(&ts);
            header[8..16].copy_from_slice(&key);
            header[16..20].copy_from_slice(&crc.finish().to_le_bytes());
            server.arena().write(buf, &header).expect("buffer in arena");
            // Slot: PW = PR = C = 0 stay zero, addr = buf.
            server
                .arena()
                .write_u64(slot_addr + i * SLOT + 24, buf)
                .expect("slot in arena");
        }

        TxServer {
            server,
            view: TxView {
                slot_addr,
                data_rkey: data_rkey.0,
                capacity: config.keys_per_shard,
                value_len: config.value_len,
                freelist,
            },
            pool_base,
            pool_len,
            lease: Lease::default(),
        }
    }

    /// `(base, len)` of the version-buffer pool — the at-rest surface
    /// the fault fabric's rot events may target.
    pub fn pool_range(&self) -> (u64, u64) {
        (self.pool_base, self.pool_len)
    }

    /// Integrity scrub: verifies the checksum of every key's committed
    /// version buffer, returning `(ok, corrupt)`. Detection-only — TX
    /// keeps a single copy per key, so there is no replica to repair
    /// from; a damaged version is healed by the next committed write
    /// installing a fresh buffer, and until then readers abort cleanly.
    pub fn scrub(&self) -> (u64, u64) {
        let (mut ok, mut corrupt) = (0, 0);
        let buf_len = self.view.buf_len();
        for i in 0..self.view.capacity {
            let addr_word = self
                .server
                .arena()
                .read(self.view.slot(i) + 24, 8)
                .expect("slot in arena");
            let addr = u64::from_le_bytes(addr_word.as_slice().try_into().expect("8 bytes"));
            match self.server.arena().read(addr, buf_len) {
                Ok(buf) if version_crc_ok(&buf) => ok += 1,
                _ => corrupt += 1,
            }
        }
        (ok, corrupt)
    }

    /// The underlying host.
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// The client-visible layout.
    pub fn view(&self) -> &TxView {
        &self.view
    }
}

/// Cooperative termination (§8.2) for transactions whose client crashed
/// between prepare and commit: a dangling `PW > C` blocks every later
/// writer of that key (their `TS > PW` check fails until `C` catches
/// up). A key's stamp is its prepared-writer timestamp while its slot
/// shows `PW > C`; the release completes the crashed client's own abort
/// path, `C := PW` under the same guarded CAS (`C < PW`) the client
/// would have sent, so a commit racing the sweep still wins, and a
/// fresh prepare (raising `PW`) restarts the lease. `PR` entries need no
/// reclamation: a stale prepared reader only forces later writers'
/// timestamps upward, it never blocks them.
impl Leased for TxServer {
    fn lease(&self) -> &Lease {
        &self.lease
    }

    fn words(&self) -> u64 {
        self.view.capacity
    }

    fn stamp(&self, i: u64) -> Option<u64> {
        let slot = self.view.slot(i);
        let words = self.server.arena().read(slot, 24).expect("slot in arena");
        let pw = Ts::from_bytes(&words[0..8]);
        (pw > Ts::from_bytes(&words[16..24])).then(|| pw.pack())
    }

    fn release(&self, i: u64, pw: u64) {
        let cmp = operand(Ts::unpack(pw).to_bytes(), [0; 8]);
        let req = Request::Chain(vec![ops::cas(
            CasMode::Lt, // C < PW, as in the abort path
            self.view.slot(i) + 16,
            self.view.data_rkey,
            cmp.clone(),
            cmp,
            16,
            field_mask(0, 8),
            field_mask(0, 8),
        )]);
        prism_core::msg::execute_local(&self.server, &req);
    }
}

/// A version buffer is live while a key's slot address word points at
/// it. Every other one that is not free is an orphan or a displaced
/// version whose free never arrived: a commit reply lost, or a commit
/// attempt that ended before its later replies came.
impl Pooled for TxServer {
    fn freelists(&self) -> &FreeLists {
        self.server.freelists()
    }

    fn reachable(&self) -> IntSet<u64> {
        let arena = self.server.arena();
        (0..self.view.capacity)
            .map(|i| {
                arena
                    .read_u64(self.view.slot(i) + 24)
                    .expect("slot in arena")
            })
            .collect()
    }
}

impl std::fmt::Debug for TxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxServer")
            .field("capacity", &self.view.capacity)
            .finish_non_exhaustive()
    }
}

/// A sharded PRISM-TX deployment.
pub struct TxCluster {
    shards: Vec<TxServer>,
    next_client: std::sync::atomic::AtomicU16,
}

impl TxCluster {
    /// Builds `n_shards` shards, each holding `config.keys_per_shard`
    /// keys, placed as the [crate docs](crate#placement) say.
    pub fn new(n_shards: usize, config: &TxConfig) -> Self {
        assert!(n_shards > 0);
        TxCluster {
            shards: (0..n_shards)
                .map(|s| TxServer::new(config, s as u64, n_shards as u64))
                .collect(),
            next_client: std::sync::atomic::AtomicU16::new(1),
        }
    }

    /// Integrity scrub of shard `i` (see [`TxServer::scrub`]).
    pub fn scrub(&self, i: usize) -> (u64, u64) {
        self.shards[i].scrub()
    }

    /// Total dangling prepares reclaimed by the shards' leases.
    pub fn reclaims(&self) -> u64 {
        self.shards.iter().map(|s| s.lease.reclaims()).sum()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &TxServer {
        &self.shards[i]
    }

    /// Opens a client with a fresh id and per-shard scratch.
    pub fn open_client(&self) -> TxClient {
        let id = self
            .next_client
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let v = &self.shards[0].view;
        TxClient {
            place: Placement::new(self.shards.len() as u64, v.capacity, v.value_len),
            views: self.shards.iter().map(|s| s.view.clone()).collect(),
            scratch: self
                .shards
                .iter()
                .map(|s| {
                    let c = s.server.open_connection();
                    (c.scratch_addr, c.scratch_rkey.0)
                })
                .collect(),
            clock: TxClock::new(id, 0),
            integrity: Arc::new(IntegrityStats::new()),
            spare: WorkLists::default(),
        }
    }
}

/// A PRISM-TX client.
#[derive(Debug, Clone)]
pub struct TxClient {
    place: Placement,
    views: Vec<TxView>,
    scratch: Vec<(u64, u32)>,
    clock: TxClock,
    integrity: Arc<IntegrityStats>,
    /// The working lists of the last attempt that finished, emptied but
    /// with their storage kept, for the next [`TxProtocol::begin`] to
    /// reuse: a client running one transaction after another allocates
    /// them once.
    spare: WorkLists,
}

/// An attempt's phase; its number is the phase tag of the phase's
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
pub(crate) enum Phase {
    Execute = 0,
    Prepare = 1,
    Commit = 2,
    /// Finished, or not yet begun: nothing is pending.
    #[default]
    Done = 3,
}

impl From<Phase> for u32 {
    fn from(phase: Phase) -> u32 {
        phase as u32
    }
}

/// One key read in execution: its shard and, once the read's reply has
/// arrived, the `RC` the prepare phase will claim for it.
#[derive(Debug, Clone, Copy)]
struct ReadKey {
    shard: usize,
    key: u64,
    rc: Ts,
}

/// One op of a prepare chain, in chain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrepOp {
    /// Read validation for a key, claiming the `RC` execution observed.
    Rv { key: u64, rc: Ts },
    /// Write validation, conditional on the immediately preceding read
    /// validation (read-modify-write keys).
    WvCond(u64),
    /// Unconditional write validation (blind-write keys).
    Wv(u64),
}

/// A request's shard and the run `start..end` it covers of the phase's
/// shard-grouped list — [`WorkLists::reads`] in execution,
/// [`WorkLists::prep`] in prepare, the grouped write set in commit.
type Run = (usize, usize, usize);

/// An attempt's working lists. Each phase groups its keys by shard by
/// sorting a flat list (stably, so keys on one shard keep the caller's
/// order): requests go out in ascending shard order — a function of the
/// transaction alone — and a reply finds its keys by index, copying
/// nothing.
#[derive(Debug, Clone, Default)]
struct WorkLists {
    /// The read set, grouped by shard.
    reads: Vec<ReadKey>,
    /// The prepare chains' ops with their shards, grouped by shard.
    prep: Vec<(usize, PrepOp)>,
    /// The current phase and its requests.
    round: Round<Phase, Run>,
    /// Keys whose conditional write validation succeeded: the abort
    /// path's `C`-bump set.
    write_checked: Vec<u64>,
}

/// A transaction attempt in flight.
#[derive(Debug, Clone)]
pub struct TxOp {
    read_keys: Vec<u64>,
    writes: Vec<(u64, Vec<u8>)>,
    work: WorkLists,
    ts: Ts,
    values: HashMap<u64, Vec<u8>>,
    /// Whether the attempt may still commit: cleared in prepare by a
    /// failed validation, and in commit by an install that finds its
    /// prepare released by a sweep.
    valid: bool,
}

impl TxClient {
    /// The client id.
    pub fn cid(&self) -> u16 {
        self.clock.cid()
    }

    /// Shares the integrity counters (harness accounting).
    pub fn with_integrity(mut self, stats: Arc<IntegrityStats>) -> Self {
        self.integrity = stats;
        self
    }

    /// The integrity counters this client reports into.
    pub fn integrity(&self) -> &Arc<IntegrityStats> {
        &self.integrity
    }
}

impl TxOp {
    fn exec_sends(&mut self, c: &mut TxClient) -> TxStep {
        self.work.round.start(Phase::Execute);
        if self.read_keys.is_empty() {
            return TxStep::paused();
        }
        let read_key = |&key: &u64| ReadKey {
            shard: c.place.shard_of(key),
            key,
            rc: Ts::ZERO,
        };
        self.work.reads.extend(self.read_keys.iter().map(read_key));
        self.work.reads.sort_by_key(|r| r.shard);
        let mut step = TxStep::default();
        for run @ (shard, start, end) in shard_runs(&self.work.reads, |r| r.shard) {
            let v = &c.views[shard];
            let mut chain = Vec::with_capacity((end - start) * 2);
            for r in &self.work.reads[start..end] {
                // Two reads per key: the slot's (C | addr) word, then an
                // indirect READ through the addr word at slot+24. RC is
                // the larger of the two C values: the slot's C advances
                // on abort-path bumps (§8.2), and if a commit lands
                // between the two reads the buffer's C is higher — in
                // which case the value *is* exactly that version, so
                // claiming it as RC is consistent either way.
                let slot = v.slot(c.place.index_of(r.key));
                chain.push(ops::read(slot + 16, 16, v.data_rkey));
                chain.push(ops::read_indirect(
                    slot + 24,
                    v.buf_len() as u32,
                    v.data_rkey,
                ));
            }
            let req = Request::Chain(chain);
            self.work.round.send(&mut step, shard, run, req);
        }
        step
    }

    fn prepare_sends(&mut self, c: &mut TxClient) -> TxStep {
        self.work.round.start(Phase::Prepare);
        let max_rc = self
            .work
            .reads
            .iter()
            .map(|r| r.rc)
            .max()
            .unwrap_or(Ts::ZERO);
        self.ts = c.clock.timestamp_for(max_rc);

        // Chain layout: read-only keys validate alone; read-modify-
        // write keys pair their read validation with a *conditional*
        // write validation, so a transaction whose read of a key is
        // stale never bumps that key's PW. This matters: an aborted
        // transaction's PW bump is only safe to neutralize with the
        // abort-path C-bump (§8.2) when no concurrently-validated,
        // not-yet-installed writer can sit below it — which holding
        // a valid read guarantees. Blind writes validate
        // unconditionally but are excluded from the C-bump. The stable
        // sort keeps each shard's read keys ahead of its blind writes.
        for r in &self.work.reads {
            let (key, rc) = (r.key, r.rc);
            self.work.prep.push((r.shard, PrepOp::Rv { key, rc }));
            if self.writes.iter().any(|(k, _)| *k == key) {
                self.work.prep.push((r.shard, PrepOp::WvCond(key)));
            }
        }
        for (k, _) in &self.writes {
            if !self.read_keys.contains(k) {
                self.work.prep.push((c.place.shard_of(*k), PrepOp::Wv(*k)));
            }
        }
        self.work.prep.sort_by_key(|&(shard, _)| shard);
        if self.work.prep.is_empty() {
            // Nothing read, nothing written.
            return self.commit(c);
        }

        let ts = self.ts.to_bytes();
        let mut step = TxStep::default();
        for run @ (shard, start, end) in shard_runs(&self.work.prep, |&(shard, _)| shard) {
            let v = &c.views[shard];
            let mut chain = Vec::with_capacity(end - start);
            for &(_, op) in &self.work.prep[start..end] {
                match op {
                    PrepOp::Rv { key, rc } => {
                        // Read validation (§8.2): single CAS comparing
                        // RC|TS against PW|PR, updating PR on success.
                        chain.push(ops::cas(
                            // Success iff (PW|PR) <= (RC|TS).
                            CasMode::Le,
                            v.slot(c.place.index_of(key)),
                            v.data_rkey,
                            operand(rc.to_bytes(), ts),
                            operand([0; 8], ts),
                            16,
                            full_mask(16),
                            field_mask(8, 8),
                        ));
                    }
                    PrepOp::WvCond(k) | PrepOp::Wv(k) => {
                        // Write validation (§8.2): TS > PW check-and-
                        // update in one CAS; TS > PR checked from the
                        // returned old value.
                        let mut cas = ops::cas(
                            // Success iff PW < TS.
                            CasMode::Lt,
                            v.slot(c.place.index_of(k)),
                            v.data_rkey,
                            operand(ts, [0; 8]),
                            operand(ts, [0; 8]),
                            16,
                            field_mask(0, 8),
                            field_mask(0, 8),
                        );
                        if matches!(op, PrepOp::WvCond(_)) {
                            cas = cas.conditional();
                        }
                        chain.push(cas);
                    }
                }
            }
            let req = Request::Chain(chain);
            self.work.round.send(&mut step, shard, run, req);
        }
        step
    }

    fn commit_sends(&mut self, c: &mut TxClient) -> TxStep {
        self.work.round.start(Phase::Commit);
        if self.writes.is_empty() {
            return self.commit(c);
        }
        // Nothing after this phase reads the write set, so its values
        // leave the attempt here: grouped in place, encoded, dropped.
        let mut writes = std::mem::take(&mut self.writes);
        writes.sort_by_key(|(k, _)| c.place.shard_of(*k));
        let ts = self.ts.to_bytes();
        let mut step = TxStep::default();
        for (shard, start, end) in shard_runs(&writes, |(k, _)| c.place.shard_of(*k)) {
            let v = &c.views[shard];
            let (scratch_addr, scratch_rkey) = c.scratch[shard];
            for (n, chunk) in writes[start..end].chunks(KEYS_PER_COMMIT_CHAIN).enumerate() {
                let mut chain = Vec::with_capacity(chunk.len() * install::OPS);
                for (j, (k, val)) in chunk.iter().enumerate() {
                    // Install iff C < TS (Thomas write rule).
                    chain.extend(install::chain(
                        v.slot(c.place.index_of(*k)) + 16,
                        v.data_rkey,
                        Redirect {
                            addr: scratch_addr + (j as u64) * 16,
                            rkey: scratch_rkey,
                        },
                        v.freelist,
                        encode_version(self.ts, *k, val),
                        Guard::TagBelow { tag: ts },
                    ));
                }
                let at = start + n * KEYS_PER_COMMIT_CHAIN;
                let (run, req) = ((shard, at, at + chunk.len()), Request::Chain(chain));
                self.work.round.send(&mut step, shard, run, req);
            }
        }
        step
    }

    /// Builds the abort-path background traffic: bump `C := TS` for keys
    /// whose write check succeeded (§8.2).
    fn abort_cleanup(&mut self, c: &TxClient) -> Vec<(usize, Request)> {
        let checked = &mut self.work.write_checked;
        checked.sort_by_key(|&k| c.place.shard_of(k));
        let ts = self.ts.to_bytes();
        shard_runs(checked, |&k| c.place.shard_of(k))
            .map(|(shard, start, end)| {
                let v = &c.views[shard];
                let chain = checked[start..end]
                    .iter()
                    .map(|&k| {
                        ops::cas(
                            CasMode::Lt, // C < TS
                            v.slot(c.place.index_of(k)) + 16,
                            v.data_rkey,
                            operand(ts, [0; 8]),
                            operand(ts, [0; 8]),
                            16,
                            field_mask(0, 8),
                            field_mask(0, 8),
                        )
                    })
                    .collect();
                (shard, Request::Chain(chain))
            })
            .collect()
    }

    /// Ends the attempt with `outcome`. The working lists go back to the
    /// client, emptied, for its next attempt to reuse.
    fn finish(&mut self, c: &mut TxClient, outcome: TxOutcome) -> TxStep {
        let mut work = std::mem::take(&mut self.work);
        work.reads.clear();
        work.prep.clear();
        work.round.start(Phase::Done);
        work.write_checked.clear();
        c.spare = work;
        TxStep::finished(outcome)
    }

    /// Ends the attempt committed. The read set moves into the outcome:
    /// nothing reads [`TxProtocol::values`] once the attempt is done.
    fn commit(&mut self, c: &mut TxClient) -> TxStep {
        let values = std::mem::take(&mut self.values);
        self.finish(c, TxOutcome::Committed(values))
    }

    /// Ends the attempt aborted after prepares went out, with the abort
    /// path's cleanup traffic.
    fn abort_prepared(&mut self, c: &mut TxClient) -> TxStep {
        let background = self.abort_cleanup(c);
        TxStep {
            background,
            ..self.finish(c, TxOutcome::Aborted)
        }
    }

    /// Terminates the attempt after a lost or synthesized reply.
    ///
    /// Execute-phase losses abort cleanly (nothing was prepared yet on
    /// the lost shard's behalf beyond reads). Prepare losses abort with
    /// the usual cleanup; any prepare timestamps already planted on
    /// other shards age out against later transactions' larger
    /// timestamps. A commit loss is indeterminate — the writes may or
    /// may not have installed — so it is reported as a failure rather
    /// than a retryable abort.
    fn lost_reply(&mut self, c: &mut TxClient) -> TxStep {
        match self.work.round.phase() {
            Phase::Execute => self.finish(c, TxOutcome::Aborted),
            Phase::Prepare => self.abort_prepared(c),
            Phase::Commit => self.finish(c, TxOutcome::Failed("commit reply lost")),
            Phase::Done => TxStep::default(),
        }
    }
}

impl TxProtocol for TxClient {
    type Cluster = TxCluster;
    type Op = TxOp;

    fn server(cluster: &TxCluster, shard: usize) -> &PrismServer {
        cluster.shard(shard).server()
    }

    fn begin(&mut self, read_keys: Vec<u64>) -> (TxOp, TxStep) {
        self.place.check(&read_keys, &[]);
        let mut op = TxOp {
            read_keys,
            writes: Vec::new(),
            work: std::mem::take(&mut self.spare),
            ts: Ts::ZERO,
            values: HashMap::new(),
            valid: true,
        };
        let step = op.exec_sends(self);
        (op, step)
    }

    fn on_reply(&mut self, op: &mut TxOp, phase: u32, req_idx: u32, reply: Reply) -> TxStep {
        let c = self;
        let Some((shard, start, end)) = op.work.round.take(phase, req_idx) else {
            return TxStep::default();
        };
        // A non-chain reply (the fault layer's timeout stand-in) is a
        // lost round trip, never a panic: execute/prepare losses abort
        // and retry; a commit loss is genuinely indeterminate and
        // surfaces as a counted failure.
        let Ok(mut results) = reply.into_chain() else {
            return op.lost_reply(c);
        };
        match op.work.round.phase() {
            Phase::Execute => {
                for (i, at) in (start..end).enumerate() {
                    let k = op.work.reads[at].key;
                    let slot_c = match results.get(2 * i).map(|r| r.expect_data()) {
                        Some(Ok(d)) if d.len() == 16 => Ts::from_bytes(&d[..8]),
                        _ => return op.finish(c, TxOutcome::Failed("execution slot read error")),
                    };
                    let version = match results.get_mut(2 * i + 1) {
                        Some(r) if r.expect_data().is_ok_and(|d| d.len() >= VER_HDR as usize) => {
                            &mut r.data
                        }
                        _ => return op.finish(c, TxOutcome::Failed("execution read error")),
                    };
                    let embedded = u64::from_le_bytes(version[8..16].try_into().expect("8B"));
                    if !version_crc_ok(version) || embedded != k {
                        // The committed version failed its self-check
                        // (torn install or at-rest rot): abort cleanly
                        // before computing on garbage. The attempt is
                        // retryable — a concurrent writer's fresh
                        // install heals the key by overwrite.
                        c.integrity.note_detected();
                        c.integrity.note_aborted();
                        return op.finish(c, TxOutcome::Aborted);
                    }
                    op.work.reads[at].rc = Ts::from_bytes(&version[..8]).max(slot_c);
                    // The reply's buffer becomes the value: its header
                    // is cut off in place rather than the value copied
                    // out.
                    let mut value = std::mem::take(version);
                    value.drain(..VER_HDR as usize);
                    op.values.insert(k, value);
                }
                if op.work.round.settled() {
                    return TxStep::paused();
                }
                TxStep::default()
            }
            Phase::Prepare => {
                for (i, at) in (start..end).enumerate() {
                    let Some(result) = results.get(i) else {
                        return op.lost_reply(c);
                    };
                    match op.work.prep[at].1 {
                        PrepOp::Rv { rc, .. } => match &result.status {
                            OpStatus::Ok => {}
                            OpStatus::CasFailed if result.data.len() >= 16 => {
                                let old = &result.data;
                                let pw = Ts::from_bytes(&old[0..8]);
                                let pr = Ts::from_bytes(&old[8..16]);
                                c.clock.observe(pw);
                                c.clock.observe(pr);
                                // Valid iff the read is still current (PW
                                // unchanged since we read RC); the CAS
                                // only failed because PR >= TS already.
                                if pw != rc {
                                    op.valid = false;
                                }
                            }
                            _ => return op.finish(c, TxOutcome::Failed("read validation error")),
                        },
                        prep @ (PrepOp::WvCond(k) | PrepOp::Wv(k)) => match &result.status {
                            OpStatus::Ok if result.data.len() >= 16 => {
                                let old = &result.data;
                                let pr = Ts::from_bytes(&old[8..16]);
                                // Only read-validated write checks are
                                // eligible for the abort-path C-bump;
                                // blind writes are excluded (see
                                // `prepare_sends`).
                                if matches!(prep, PrepOp::WvCond(_)) {
                                    op.work.write_checked.push(k);
                                }
                                // Timestamps are unique, so PR == TS can
                                // only be this transaction's own read
                                // validation (earlier in this chain) —
                                // not a conflict. Abort only on a
                                // strictly later prepared reader.
                                if pr > op.ts {
                                    c.clock.observe(pr);
                                    op.valid = false;
                                }
                            }
                            OpStatus::CasFailed if result.data.len() >= 8 => {
                                let old = &result.data;
                                c.clock.observe(Ts::from_bytes(&old[0..8]));
                                op.valid = false;
                            }
                            // Skipped: the paired read validation did not
                            // swap, so this transaction must abort — and,
                            // by design, it has not poisoned PW.
                            OpStatus::Skipped => op.valid = false,
                            _ => return op.finish(c, TxOutcome::Failed("write validation error")),
                        },
                    }
                }
                if op.work.round.settled() {
                    if !op.valid {
                        return op.abort_prepared(c);
                    }
                    return op.commit_sends(c);
                }
                TxStep::default()
            }
            Phase::Commit => {
                let mut background = Vec::with_capacity(end - start);
                let mut installs = install::read_each(&results, Word::TagPtr);
                for _ in start..end {
                    // Won, the displaced version is garbage; lost, ours
                    // is. A loss counts as committed only when the word
                    // holds a tag above TS: a newer committed writer got
                    // there first (the Thomas write rule). A tag equal
                    // to TS means a sweep released our prepare
                    // (`Leased::release` sets C := PW, and PW is TS), so
                    // our write is not there: the attempt ends
                    // indeterminate, its orphans still freed. A winning
                    // duplicate of our own install leaves C == TS too,
                    // but then the loss is the copy's, whose reply
                    // answers a request already answered: replies on a
                    // queue pair keep their order, so `Round::take`
                    // drops it before here (read first, it would only
                    // make a committed write indeterminate).
                    let installed = installs.next().unwrap_or(Installed::Failed(Failure::Short));
                    match installed {
                        Installed::Failed(Failure::Short) => return op.lost_reply(c),
                        Installed::Failed(_) => {
                            return TxStep {
                                background,
                                ..op.finish(c, TxOutcome::Failed("commit install error"))
                            };
                        }
                        Installed::Lost { found, .. } if Ts::from_bytes(&found) <= op.ts => {
                            op.valid = false;
                        }
                        _ => {}
                    }
                    background.extend(installed.garbage().map(|a| (shard, free_request(a))));
                }
                if op.work.round.settled() {
                    let done = if op.valid {
                        op.commit(c)
                    } else {
                        op.finish(c, TxOutcome::Failed("commit found its prepare swept"))
                    };
                    return TxStep { background, ..done };
                }
                TxStep {
                    background,
                    ..Default::default()
                }
            }
            Phase::Done => TxStep::default(),
        }
    }

    /// Installs the write set and starts the prepare phase. Blind writes
    /// (write keys not read first) are validated against `PR`/`PW` only.
    fn supply_writes(&mut self, op: &mut TxOp, writes: Vec<(u64, Vec<u8>)>) -> TxStep {
        let round = &op.work.round;
        assert!(
            round.phase() == Phase::Execute && round.settled(),
            "supply_writes outside the pause"
        );
        self.place.check(&[], &writes);
        op.writes = writes;
        op.prepare_sends(self)
    }

    fn values(op: &TxOp) -> &HashMap<u64, Vec<u8>> {
        &op.values
    }

    fn take_read_keys(op: &mut TxOp) -> Vec<u64> {
        let phase = op.work.round.phase();
        debug_assert_eq!(phase, Phase::Done, "attempt still in flight");
        std::mem::take(&mut op.read_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{drive_rest, drive_until, is_noop, sends_phase, supplied};
    use crate::driver::{drive, run_rmw};

    fn cluster(shards: usize, keys_per_shard: u64) -> TxCluster {
        TxCluster::new(shards, &TxConfig::paper(keys_per_shard, 32))
    }

    fn commit_write(cl: &TxCluster, c: &mut TxClient, k: u64, val: Vec<u8>) -> TxOutcome {
        let (op, step) = c.begin(vec![k]);
        drive(cl, c, op, step, |_| vec![(k, val)])
    }

    fn read_keys(cl: &TxCluster, c: &mut TxClient, keys: &[u64]) -> HashMap<u64, Vec<u8>> {
        let (op, step) = c.begin(keys.to_vec());
        match drive(cl, c, op, step, |_| vec![]) {
            TxOutcome::Committed(v) => v,
            o => panic!("read-only txn must commit, got {o:?}"),
        }
    }

    #[test]
    fn lost_replies_abort_or_fail_without_panicking() {
        use prism_rdma::RdmaError;
        let timeout_reply = || Reply::Verb(Err(RdmaError::ReceiverNotReady));

        // Execution-phase loss: retryable abort.
        let cl = cluster(1, 8);
        let mut c = cl.open_client();
        let (mut op, step) = c.begin(vec![0]);
        let (_, phase, idx, _) = step.send[0];
        let s = c.on_reply(&mut op, phase, idx, timeout_reply());
        assert_eq!(s.done, Some(TxOutcome::Aborted));

        // Prepare-phase loss: retryable abort.
        let mut c = cl.open_client();
        let (mut op, prepare) = supplied(&cl, &mut c, vec![1], vec![(1, vec![2u8; 32])]);
        let (_, phase, idx, _) = prepare.send[0];
        assert_eq!(phase, Phase::Prepare as u32);
        let s = c.on_reply(&mut op, phase, idx, timeout_reply());
        assert_eq!(s.done, Some(TxOutcome::Aborted));

        // Commit-phase loss: indeterminate, surfaces as Failed.
        let mut c = cl.open_client();
        let (mut op, prepare) = supplied(&cl, &mut c, vec![2], vec![(2, vec![3u8; 32])]);
        let commit = drive_until(&cl, &mut c, &mut op, prepare, sends_phase(Phase::Commit));
        let (_, phase, idx, _) = commit.expect("reached commit").send[0];
        let s = c.on_reply(&mut op, phase, idx, timeout_reply());
        assert!(matches!(s.done, Some(TxOutcome::Failed(_))));
    }

    #[test]
    fn stale_read_aborts() {
        let cl = cluster(1, 8);
        let mut c1 = cl.open_client();
        let mut c2 = cl.open_client();
        // c1 reads key 0...
        read_keys(&cl, &mut c1, &[0]);
        // ...c2 commits a write to key 0...
        assert!(matches!(
            commit_write(&cl, &mut c2, 0, vec![5u8; 32]),
            TxOutcome::Committed(_)
        ));
        // ...then c1 interleaves: it executes its reads, c2 commits a
        // conflicting write, and c1's prepare must fail read validation.
        let (op, prepare_step) = supplied(&cl, &mut c1, vec![0], vec![(0, vec![7u8; 32])]);
        assert!(
            sends_phase(Phase::Prepare)(&prepare_step),
            "reached prepare"
        );
        // Now c2 commits a conflicting write.
        assert!(matches!(
            commit_write(&cl, &mut c2, 0, vec![6u8; 32]),
            TxOutcome::Committed(_)
        ));
        // c1's prepare must now fail read validation.
        let outcome = drive_rest(&cl, &mut c1, op, prepare_step);
        assert_eq!(outcome, TxOutcome::Aborted);
        // And the key holds c2's value.
        let mut c3 = cl.open_client();
        assert_eq!(read_keys(&cl, &mut c3, &[0])[&0], vec![6u8; 32]);
    }

    #[test]
    fn aborted_writer_does_not_clobber() {
        let cl = cluster(1, 4);
        let mut c1 = cl.open_client();
        let mut c2 = cl.open_client();
        commit_write(&cl, &mut c1, 1, vec![1u8; 32]);
        // c2 executes + prepares, then c1 sneaks a newer commit in, so
        // c2's commit-phase CAS (TS > C) must not install.
        let (mut op, prepare) = supplied(&cl, &mut c2, vec![1], vec![(1, vec![2u8; 32])]);
        let commit_step = drive_until(&cl, &mut c2, &mut op, prepare, sends_phase(Phase::Commit))
            .expect("validated");
        // c1 commits a *blind* write with a later timestamp than c2's
        // TS. (A read-validating write would block behind c2's prepared
        // PW until some commit advances C — the documented conservative
        // behaviour.) Its first attempt may abort on TS <= PW; the
        // observed clock advance makes the retry succeed.
        let mut attempts = 0;
        loop {
            attempts += 1;
            let (op, step) = c1.begin(vec![]);
            match drive(&cl, &mut c1, op, step, |_| vec![(1, vec![3u8; 32])]) {
                TxOutcome::Committed(_) => break,
                TxOutcome::Aborted if attempts < 5 => continue,
                o => panic!("{o:?}"),
            }
        }
        // Now c2's install CAS fails (C advanced past its TS), but the
        // transaction still reports committed per the Thomas write rule.
        let outcome = drive_rest(&cl, &mut c2, op, commit_step);
        assert!(matches!(outcome, TxOutcome::Committed(_)));
        let mut c3 = cl.open_client();
        assert_eq!(read_keys(&cl, &mut c3, &[1])[&1], vec![3u8; 32]);
    }

    #[test]
    fn run_rmw_increments_counter_atomically() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        for _ in 0..10 {
            let (o, _) = run_rmw(
                &cl,
                &mut c,
                &[0],
                |_, vals| {
                    let mut v = vals[&0].clone();
                    v[0] += 1;
                    v
                },
                10,
            );
            assert!(matches!(o, TxOutcome::Committed(_)));
        }
        assert_eq!(read_keys(&cl, &mut c, &[0])[&0][0], 10);
    }

    #[test]
    fn concurrent_counter_increments_are_serializable() {
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
        let v = &read_keys(&cl, &mut c, &[3])[&3];
        let n = u32::from_le_bytes(v[0..4].try_into().unwrap());
        assert_eq!(n, 100, "lost update detected");
    }

    #[test]
    fn cross_key_invariant_preserved() {
        // Transfer between two "accounts" on different shards; total must
        // be conserved under concurrency.
        use std::sync::Arc;
        let cl = Arc::new(cluster(2, 4));
        {
            let mut c = cl.open_client();
            let mut v = vec![0u8; 32];
            v[0..4].copy_from_slice(&100u32.to_le_bytes());
            assert!(matches!(
                commit_write(&cl, &mut c, 0, v.clone()),
                TxOutcome::Committed(_)
            ));
            assert!(matches!(
                commit_write(&cl, &mut c, 1, v),
                TxOutcome::Committed(_)
            ));
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cl = Arc::clone(&cl);
                std::thread::spawn(move || {
                    let mut c = cl.open_client();
                    let mut done = 0;
                    while done < 20 {
                        let amount = (t + 1) as u32;
                        let (o, _) = run_rmw(
                            &*cl,
                            &mut c,
                            &[0, 1],
                            move |k, vals| {
                                let a = u32::from_le_bytes(vals[&0][0..4].try_into().unwrap());
                                let b = u32::from_le_bytes(vals[&1][0..4].try_into().unwrap());
                                let (na, nb) = if a >= amount {
                                    (a - amount, b + amount)
                                } else {
                                    (a, b)
                                };
                                let mut v = vals[&k].clone();
                                v[0..4]
                                    .copy_from_slice(&(if k == 0 { na } else { nb }).to_le_bytes());
                                v
                            },
                            1_000,
                        );
                        if matches!(o, TxOutcome::Committed(_)) {
                            done += 1;
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut c = cl.open_client();
        let vals = read_keys(&cl, &mut c, &[0, 1]);
        let a = u32::from_le_bytes(vals[&0][0..4].try_into().unwrap());
        let b = u32::from_le_bytes(vals[&1][0..4].try_into().unwrap());
        assert_eq!(a + b, 200, "money was created or destroyed");
    }

    /// Drives a write transaction up to (not including) its commit
    /// phase, leaving `PW > C` planted on the key's shard, and returns
    /// the op plus the withheld commit step.
    fn park_before_commit(cl: &TxCluster, c: &mut TxClient, k: u64) -> (TxOp, TxStep) {
        park_writes_before_commit(cl, c, vec![(k, vec![0xAB; 32])])
    }

    /// [`park_before_commit`] of a read-modify-write of every key in
    /// `writes`.
    fn park_writes_before_commit(
        cl: &TxCluster,
        c: &mut TxClient,
        writes: Vec<(u64, Vec<u8>)>,
    ) -> (TxOp, TxStep) {
        let reads = writes.iter().map(|(k, _)| *k).collect();
        let (mut op, prepare) = supplied(cl, c, reads, writes);
        let commit = drive_until(cl, c, &mut op, prepare, sends_phase(Phase::Commit))
            .expect("transaction never reached commit");
        (op, commit)
    }

    /// Free buffers of each shard of `cl`.
    fn free_buffers(cl: &TxCluster) -> Vec<usize> {
        (0..cl.n_shards())
            .map(|s| {
                let shard = cl.shard(s);
                shard.server().freelists().available(shard.view().freelist)
            })
            .collect()
    }

    /// A live client slow for two sweeps: the second sighting releases
    /// its prepare (C := PW, which is its TS), so its commit install
    /// meets C == TS and loses. That is not the Thomas write rule (no
    /// newer writer committed): the attempt ends indeterminate, not
    /// committed, the key keeps its old value and the orphan is freed.
    #[test]
    fn a_commit_whose_prepare_was_swept_twice_is_not_committed() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        let old = read_keys(&cl, &mut c, &[1])[&1].clone();
        let free = free_buffers(&cl);
        let (op, commit) = park_before_commit(&cl, &mut c, 1);
        assert_eq!(cl.shard(0).sweep(), 0);
        assert_eq!(cl.shard(0).sweep(), 1, "the second sighting releases");
        let outcome = drive_rest(&cl, &mut c, op, commit);
        assert!(matches!(outcome, TxOutcome::Failed(_)), "{outcome:?}");
        assert_eq!(read_keys(&cl, &mut c, &[1])[&1], old, "nothing installed");
        assert_eq!(free_buffers(&cl), free, "the orphan went back");
        assert_eq!(cl.shard(0).held(), 0);
    }

    /// The same slow client across two shards, only shard 0 swept: shard
    /// 1's install wins and shard 0's loses to its own released prepare.
    /// The attempt is not committed. Half the transaction is installed
    /// (deciding it once for every shard is a separate step), and every
    /// buffer comes back: shard 0's orphan, shard 1's displaced version.
    #[test]
    fn a_commit_swept_on_one_of_two_shards_is_not_committed() {
        let cl = cluster(2, 4);
        let place = Placement::new(2, 4, 32);
        let (k0, k1) = (place.key(0, 0), place.key(1, 0));
        let mut c = cl.open_client();
        let old = read_keys(&cl, &mut c, &[k0, k1]);
        let free = free_buffers(&cl);
        let writes = vec![(k0, vec![0xAB; 32]), (k1, vec![0xCD; 32])];
        let (op, commit) = park_writes_before_commit(&cl, &mut c, writes);
        assert_eq!(cl.shard(0).sweep(), 0);
        assert_eq!(cl.shard(0).sweep(), 1, "the second sighting releases");
        let outcome = drive_rest(&cl, &mut c, op, commit);
        assert!(matches!(outcome, TxOutcome::Failed(_)), "{outcome:?}");
        let now = read_keys(&cl, &mut c, &[k0, k1]);
        assert_eq!(now[&k0], old[&k0], "shard 0's install lost");
        assert_eq!(now[&k1], vec![0xCD; 32], "shard 1's install won");
        assert_eq!(free_buffers(&cl), free, "every buffer went back");
        assert_eq!((cl.shard(0).held(), cl.shard(1).held()), (0, 0));
    }

    /// A commit that installs but whose reply is lost ends
    /// indeterminate, so its client never frees the version the install
    /// displaced: that buffer is neither reached nor free until the
    /// shard's GC returns it.
    #[test]
    fn a_lost_commit_reply_leaks_the_displaced_version_until_gc_sweep() {
        use prism_rdma::RdmaError;
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        let shard = cl.shard(0);
        let before = shard.reachable();
        let (mut op, commit) = park_before_commit(&cl, &mut c, 1);
        let (_, phase, idx, req) = &commit.send[0];
        prism_core::msg::execute_local(shard.server(), req);
        let lost = Reply::Verb(Err(RdmaError::ReceiverNotReady));
        let step = c.on_reply(&mut op, *phase, *idx, lost);
        assert!(matches!(step.done, Some(TxOutcome::Failed(_))), "{step:?}");
        assert!(step.background.is_empty(), "no free is sent");
        assert_eq!(read_keys(&cl, &mut c, &[1])[&1], vec![0xAB; 32]);
        let leaked = shard.audit();
        assert_eq!((leaked.leaked(), leaked.both), (1, 0), "{leaked:?}");
        assert_eq!(shard.gc_sweep(), 1);
        assert_eq!(shard.audit().deficit(), 0);
        let now = shard.reachable();
        let displaced: Vec<u64> = before.difference(&now).copied().collect();
        let free = shard.server().freelists().snapshot(shard.view().freelist);
        assert_eq!(
            free.last(),
            displaced.first(),
            "the displaced version came back"
        );
    }

    #[test]
    fn sweep_reclaims_dangling_prepare_exactly_once() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        // A "crashed" client: prepared a write on key 2, never commits.
        let (_op, _commit) = park_before_commit(&cl, &mut c, 2);
        assert_eq!(cl.shard(0).held(), 1, "prepare must leave PW > C");

        // First sweep only records the lease; second reclaims.
        assert_eq!(cl.shard(0).sweep(), 0);
        assert_eq!(cl.shard(0).held(), 1);
        assert_eq!(cl.shard(0).sweep(), 1);
        assert_eq!(cl.shard(0).held(), 0, "C := PW must unblock the key");
        assert_eq!(cl.shard(0).sweep(), 0, "reclaim happens exactly once");
        assert_eq!(cl.reclaims(), 1);

        // The key is writable again: a fresh client's RMW commits.
        let mut c2 = cl.open_client();
        let (o, _) = run_rmw(&cl, &mut c2, &[2], |_, _| vec![7u8; 32], 10);
        assert!(
            matches!(o, TxOutcome::Committed(_)),
            "key still stuck: {o:?}"
        );
        assert_eq!(read_keys(&cl, &mut c2, &[2])[&2], vec![7u8; 32]);
    }

    #[test]
    fn sweep_spares_live_transactions_for_one_lease_interval() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        let (op, commit) = park_before_commit(&cl, &mut c, 1);
        // One sweep lands while the transaction is between prepare and
        // commit: it must only record the lease, not bump C.
        assert_eq!(cl.shard(0).sweep(), 0);
        // The slow-but-live client now finishes; its install must win.
        assert!(matches!(
            drive_rest(&cl, &mut c, op, commit),
            TxOutcome::Committed(_)
        ));
        assert_eq!(read_keys(&cl, &mut c, &[1])[&1], vec![0xAB; 32]);
        // The commit raised C to PW, so the lease entry just expires.
        assert_eq!(cl.shard(0).sweep(), 0);
        assert_eq!(cl.shard(0).held(), 0);
        assert_eq!(cl.reclaims(), 0);
    }

    #[test]
    fn version_images_detect_every_single_bit_flip() {
        let img = encode_version(Ts { clock: 7, cid: 3 }, 42, &[0xA5; 32]);
        assert!(version_crc_ok(&img));
        for byte in 0..img.len() {
            if (20..24).contains(&byte) {
                continue; // header padding, not covered by the checksum
            }
            for bit in 0..8 {
                let mut flipped = img.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    !version_crc_ok(&flipped),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// Every shard of a fresh cluster holds the dense seed image, byte
    /// for byte over its whole data region: per key, slot `[0; 24] ‖
    /// addr` and, at `addr`, `encode_version(Ts::ZERO, key, zeros)`;
    /// zero everywhere else (slot tail, stride padding, spare buffers).
    /// And every seed scrubs clean.
    #[test]
    fn fresh_shards_hold_the_dense_seed_image() {
        // 24 + 52 = 76 B per version: each stride carries padding.
        let (n, config) = (3, TxConfig::paper(37, 52));
        let cl = TxCluster::new(n, &config);
        let place = Placement::new(n as u64, config.keys_per_shard, config.value_len);
        let zeros = vec![0u8; config.value_len as usize];
        for s in 0..n {
            let shard = cl.shard(s);
            let view = shard.view();
            let (pool_base, pool_len) = shard.pool_range();
            let stride = pool_len / (config.keys_per_shard + config.spare_buffers);
            let mut want = vec![0u8; (pool_base + pool_len - view.slot_addr) as usize];
            for i in 0..view.capacity {
                let buf = pool_base + i * stride;
                let slot = (view.slot(i) - view.slot_addr) as usize;
                want[slot + 24..slot + 32].copy_from_slice(&buf.to_le_bytes());
                let image = encode_version(Ts::ZERO, place.key(s as u64, i), &zeros);
                let at = (buf - view.slot_addr) as usize;
                want[at..at + image.len()].copy_from_slice(&image);
            }
            let got = shard
                .server()
                .arena()
                .read(view.slot_addr, want.len() as u64)
                .unwrap();
            let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
            assert_eq!(first_diff, None, "shard {s}: first byte off the seed image");
            assert_eq!(
                cl.scrub(s),
                (view.capacity, 0),
                "shard {s}: every seed clean"
            );
        }
    }

    #[test]
    fn rotted_version_aborts_reads_cleanly_and_overwrite_heals() {
        let cl = cluster(1, 4);
        let mut c = cl.open_client();
        assert!(matches!(
            commit_write(&cl, &mut c, 0, vec![9u8; 32]),
            TxOutcome::Committed(_)
        ));

        // Rot a bit of key 0's committed value at rest.
        let shard = cl.shard(0);
        let addr_word = shard
            .server()
            .arena()
            .read(shard.view().slot(0) + 24, 8)
            .unwrap();
        let buf = u64::from_le_bytes(addr_word.as_slice().try_into().unwrap());
        shard.server().arena().flip_bit(buf + VER_HDR, 2).unwrap();
        assert_eq!(cl.scrub(0), (3, 1), "scrub must flag the rotted version");

        // A reading transaction detects the mismatch and aborts cleanly
        // instead of returning the damaged value.
        let (op, step) = c.begin(vec![0]);
        assert_eq!(drive(&cl, &mut c, op, step, |_| vec![]), TxOutcome::Aborted);
        assert_eq!(c.integrity().detected(), 1);
        assert_eq!(c.integrity().aborted(), 1);

        // A blind write never reads the damaged buffer; its commit
        // installs a fresh self-verifying version, healing the key.
        let (op, step) = c.begin(vec![]);
        assert!(matches!(
            drive(&cl, &mut c, op, step, |_| vec![(0, vec![4u8; 32])]),
            TxOutcome::Committed(_)
        ));
        assert_eq!(cl.scrub(0), (4, 0), "overwrite must heal the rot");
        assert_eq!(read_keys(&cl, &mut c, &[0])[&0], vec![4u8; 32]);
    }

    #[test]
    fn buffers_are_reclaimed() {
        let cl = TxCluster::new(
            1,
            &TxConfig {
                keys_per_shard: 2,
                value_len: 32,
                spare_buffers: 4,
            },
        );
        let mut c = cl.open_client();
        for i in 0..100u8 {
            let o = commit_write(&cl, &mut c, 0, vec![i; 32]);
            assert!(
                matches!(o, TxOutcome::Committed(_)),
                "write {i} failed: {o:?} (buffer leak?)"
            );
        }
    }

    #[test]
    fn committed_outcome_carries_exactly_the_read_set() {
        let cl = cluster(3, 8);
        let mut c = cl.open_client();
        for k in [0u64, 1, 2, 10, 5] {
            assert!(matches!(
                commit_write(&cl, &mut c, k, vec![k as u8 + 1; 32]),
                TxOutcome::Committed(_)
            ));
        }
        // Reads 0, 1, 2, 10; rewrites 0 and 2; blind-writes 5. The
        // outcome holds the four values *read* — no header bytes, not
        // the new values, not the blind-written key.
        let (op, step) = c.begin(vec![0, 1, 2, 10]);
        let writes = vec![
            (0, vec![0xA0; 32]),
            (2, vec![0xA2; 32]),
            (5, vec![0xA5; 32]),
        ];
        let want: HashMap<u64, Vec<u8>> = [0u64, 1, 2, 10]
            .into_iter()
            .map(|k| (k, vec![k as u8 + 1; 32]))
            .collect();
        let outcome = drive(&cl, &mut c, op, step, |_| writes);
        assert_eq!(outcome, TxOutcome::Committed(want));
        let now = read_keys(&cl, &mut c, &[0, 1, 2, 5, 10]);
        assert_eq!(now[&0], vec![0xA0; 32]);
        assert_eq!(now[&1], vec![2; 32]);
        assert_eq!(now[&2], vec![0xA2; 32]);
        assert_eq!(now[&5], vec![0xA5; 32]);
        assert_eq!(now[&10], vec![11; 32]);
    }

    #[test]
    fn deferred_values_stay_intact_until_the_attempt_is_done() {
        let cl = cluster(2, 8);
        let mut c = cl.open_client();
        commit_write(&cl, &mut c, 3, vec![3; 32]);
        commit_write(&cl, &mut c, 4, vec![4; 32]);
        let want: HashMap<u64, Vec<u8>> = [(3u64, vec![3u8; 32]), (4, vec![4; 32])]
            .into_iter()
            .collect();

        let (mut op, step) = c.begin(vec![3, 4]);
        let paused = drive_until(&cl, &mut c, &mut op, step, |s| s.awaiting_writes);
        assert!(paused.is_some(), "execution must pause for the writes");
        assert_eq!(TxClient::values(&op), &want, "after execution");

        let writes = vec![(3, vec![0x33; 32]), (4, vec![0x44; 32])];
        let prepare = c.supply_writes(&mut op, writes);
        assert!(sends_phase(Phase::Prepare)(&prepare));
        assert_eq!(TxClient::values(&op), &want, "prepare sent");

        let commit = drive_until(&cl, &mut c, &mut op, prepare, sends_phase(Phase::Commit))
            .expect("validated");
        assert_eq!(TxClient::values(&op), &want, "commit sent");

        let done =
            drive_until(&cl, &mut c, &mut op, commit, |s| s.done.is_some()).expect("committed");
        assert_eq!(done.done, Some(TxOutcome::Committed(want)));
        assert!(
            TxClient::values(&op).is_empty(),
            "the outcome took the read set"
        );
        assert_eq!(TxClient::take_read_keys(&mut op), vec![3, 4]);
        assert_eq!(read_keys(&cl, &mut c, &[3, 4])[&4], vec![0x44; 32]);
    }

    #[test]
    fn each_phase_sends_in_ascending_shard_order_keeping_key_order_within_a_shard() {
        let cl = cluster(4, 8);
        let mut c = cl.open_client();
        // Shards (k % 4): 7→3, 2→2, 6→2, 1→1, 9→1, 4→0; blind 3→3, 8→0.
        let reads = vec![7u64, 2, 6, 1, 9, 4];
        let mut writes: Vec<(u64, Vec<u8>)> = reads.iter().map(|&k| (k, vec![1; 32])).collect();
        writes.push((3, vec![1; 32]));
        writes.push((8, vec![1; 32]));
        let (mut op, step) = c.begin(reads);

        let slots = |chain: &[prism_core::op::PrismOp], shard: usize| -> Vec<u64> {
            let v = cl.shard(shard).view();
            let mut out = Vec::new();
            for op in chain {
                let addr = match op {
                    prism_core::op::PrismOp::Read { addr, .. } => *addr,
                    prism_core::op::PrismOp::Cas { target, .. } => *target,
                    _ => continue,
                };
                if addr >= v.slot_addr && addr < v.slot_addr + v.capacity * SLOT {
                    let key = (addr - v.slot_addr) / SLOT * 4 + shard as u64;
                    if out.last() != Some(&key) {
                        out.push(key);
                    }
                }
            }
            out
        };
        let layout = |step: &TxStep| -> Vec<(usize, Vec<u64>)> {
            step.send
                .iter()
                .map(|(shard, _, _, req)| match req {
                    Request::Chain(chain) => (*shard, slots(chain, *shard)),
                    other => panic!("{other:?}"),
                })
                .collect()
        };

        assert_eq!(
            layout(&step),
            vec![(0, vec![4]), (1, vec![1, 9]), (2, vec![2, 6]), (3, vec![7])],
            "execute"
        );
        drive_until(&cl, &mut c, &mut op, step, |s| s.awaiting_writes).unwrap();
        let prepare = c.supply_writes(&mut op, writes);
        assert_eq!(
            layout(&prepare),
            vec![
                (0, vec![4, 8]),
                (1, vec![1, 9]),
                (2, vec![2, 6]),
                (3, vec![7, 3])
            ],
            "prepare: a shard's read keys, then its blind writes"
        );
        let commit =
            drive_until(&cl, &mut c, &mut op, prepare, sends_phase(Phase::Commit)).unwrap();
        assert_eq!(
            layout(&commit),
            vec![
                (0, vec![4, 8]),
                (1, vec![1, 9]),
                (2, vec![2, 6]),
                (3, vec![7, 3])
            ],
            "commit: the write set in the caller's order"
        );
        let done = drive_until(&cl, &mut c, &mut op, commit, |s| s.done.is_some()).unwrap();
        assert!(matches!(done.done, Some(TxOutcome::Committed(_))));
    }

    #[test]
    fn stray_replies_are_no_ops_and_truncated_ones_end_the_attempt() {
        use prism_core::msg::execute_local;
        let cl = cluster(2, 8);
        // A chain reply of `n` successful, empty results.
        let chain_of = |n: usize| {
            let ok = || prism_core::OpResult {
                status: OpStatus::Ok,
                data: Vec::new(),
            };
            Reply::Chain((0..n).map(|_| ok()).collect())
        };
        let reply_to = |(shard, _, _, req): &(usize, u32, u32, Request)| {
            execute_local(cl.shard(*shard).server(), req)
        };

        // Execute: a reply tagged with another phase, an index past the
        // requests and a second copy of a counted reply are no-ops, so
        // the attempt pauses only once both keys are read; once done,
        // every reply is a no-op.
        let mut c = cl.open_client();
        let (mut op, step) = c.begin(vec![0, 1]);
        assert_eq!(step.send.len(), 2);
        for phase in [Phase::Prepare as u32, Phase::Commit as u32, 9] {
            assert!(is_noop(&c.on_reply(&mut op, phase, 0, chain_of(2))));
        }
        let (_, phase, idx, _) = step.send[0];
        let first = reply_to(&step.send[0]);
        let s = c.on_reply(&mut op, phase, idx, first.clone());
        assert!(is_noop(&s), "first of two execution replies");
        assert_eq!(TxClient::values(&op).len(), 1);
        let s = c.on_reply(&mut op, phase, 2, chain_of(2));
        assert!(is_noop(&s), "index past the requests");
        assert!(
            is_noop(&c.on_reply(&mut op, phase, idx, first)),
            "second copy"
        );
        let (_, phase, idx, _) = step.send[1];
        let s = c.on_reply(&mut op, phase, idx, reply_to(&step.send[1]));
        assert!(s.awaiting_writes, "both keys read");
        let s = c.supply_writes(&mut op, vec![]);
        let done = drive_until(&cl, &mut c, &mut op, s, |s| s.done.is_some()).unwrap();
        let zeroes = [(0, vec![0; 32]), (1, vec![0; 32])].into();
        assert_eq!(done.done, Some(TxOutcome::Committed(zeroes)));
        for phase in [Phase::Execute, Phase::Prepare, Phase::Commit] {
            for idx in [0, 1, 7] {
                assert!(is_noop(&c.on_reply(
                    &mut op,
                    phase as u32,
                    idx,
                    chain_of(2)
                )));
            }
        }

        // Execute: a chain reply missing its results is a failure.
        let (mut op, step) = c.begin(vec![2]);
        let s = c.on_reply(&mut op, Phase::Execute as u32, step.send[0].2, chain_of(0));
        assert_eq!(s.done, Some(TxOutcome::Failed("execution slot read error")));

        // Prepare: a truncated chain reply aborts with the cleanup of
        // whatever was already validated.
        let (mut op, prepare) = supplied(&cl, &mut c, vec![3], vec![(3, vec![2; 32])]);
        let s = c.on_reply(
            &mut op,
            Phase::Prepare as u32,
            prepare.send[0].2,
            chain_of(1),
        );
        assert_eq!(s.done, Some(TxOutcome::Aborted));

        // Commit: an index past the requests is a no-op, and the commit
        // commits; a truncated reply is indeterminate (on its own key:
        // the attempt it abandons leaves that key's prepare dangling).
        let (mut op, prepare) = supplied(&cl, &mut c, vec![4], vec![(4, vec![3; 32])]);
        let commit =
            drive_until(&cl, &mut c, &mut op, prepare, sends_phase(Phase::Commit)).unwrap();
        assert!(is_noop(&c.on_reply(
            &mut op,
            Phase::Commit as u32,
            u32::MAX,
            chain_of(4)
        )));
        let outcome = drive_rest(&cl, &mut c, op, commit);
        assert!(matches!(outcome, TxOutcome::Committed(_)), "{outcome:?}");
        assert_eq!(read_keys(&cl, &mut c, &[4])[&4], vec![3; 32]);

        let (mut op, prepare) = supplied(&cl, &mut c, vec![6], vec![(6, vec![3; 32])]);
        let commit =
            drive_until(&cl, &mut c, &mut op, prepare, sends_phase(Phase::Commit)).unwrap();
        let s = c.on_reply(&mut op, Phase::Commit as u32, commit.send[0].2, chain_of(2));
        assert_eq!(s.done, Some(TxOutcome::Failed("commit reply lost")));
    }

    #[test]
    fn finished_attempts_hand_their_lists_back_to_the_client() {
        let cl = cluster(2, 8);
        let mut c = cl.open_client();
        assert_eq!(c.spare.round.capacity(), 0);
        commit_write(&cl, &mut c, 1, vec![1; 32]);
        let lists = |w: &WorkLists| {
            (
                w.reads.len() + w.prep.len() + w.round.len() + w.write_checked.len(),
                [
                    w.reads.capacity(),
                    w.prep.capacity(),
                    w.round.capacity(),
                    w.write_checked.capacity(),
                ],
            )
        };
        let (len, caps) = lists(&c.spare);
        assert_eq!(len, 0, "handed back empty");
        assert!(caps.iter().all(|&cap| cap > 0), "with storage: {caps:?}");

        // The next attempt runs on that storage, and an abort (here a
        // lost execution reply) hands it back like a commit does.
        let (mut op, step) = c.begin(vec![0, 1]);
        assert_eq!(lists(&c.spare), (0, [0; 4]), "taken by the attempt");
        assert_eq!(lists(&op.work).1[1..], caps[1..]);
        let timeout = Reply::Verb(Err(prism_rdma::RdmaError::ReceiverNotReady));
        let s = c.on_reply(&mut op, Phase::Execute as u32, step.send[0].2, timeout);
        assert_eq!(s.done, Some(TxOutcome::Aborted));
        assert_eq!(lists(&c.spare).0, 0);
        assert!(c.spare.reads.capacity() >= 2);
    }
}
