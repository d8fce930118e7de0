//! The Pilaf baseline (Mitchell et al., USENIX ATC 2013; §2.1 and §6 of
//! the PRISM paper).
//!
//! Pilaf exposes a hash-table index and an extents region over RDMA.
//! GETs are **two one-sided READs** — index entry, then data — with
//! CRC-32 checksums ("self-verifying data structures") to detect races
//! with concurrent PUTs. PUTs are **two-sided RPCs** executed by the
//! server CPU, which allocates an extent, writes the entry, and updates
//! the index.
//!
//! Index entry (32 bytes, two per cache line):
//! `[ptr u64 | size u64 | crc_data u32 | crc_entry u32 | pad u64]`,
//! where `crc_entry` covers the first 24 bytes and `crc_data` covers the
//! extent contents. A null `ptr` means the slot is empty.

use std::collections::HashMap;
use std::sync::Arc;

use prism_core::crc::crc32;
use prism_core::integrity::IntegrityStats;
use prism_core::msg::{Reply, Request, Verb};
use prism_core::PrismServer;
use prism_rdma::region::{AccessFlags, Rkey};
use prism_rdma::sync::Mutex;

use crate::entry;
use crate::hash::HashScheme;
use crate::{KvOutcome, KvProtocol, KvStep};

/// Index entry size.
pub const ENTRY: u64 = 32;

/// Probe/retry limits (mirroring PRISM-KV's).
pub const MAX_PROBES: u64 = 64;

/// CRC-mismatch retry budget per GET.
pub const MAX_CRC_RETRIES: u32 = 16;

const RPC_PUT: u8 = 0x02;
const RPC_DELETE: u8 = 0x03;

/// Client-visible layout.
#[derive(Debug, Clone)]
pub struct PilafView {
    /// Base of the index.
    pub table_addr: u64,
    /// Rkey covering index and extents.
    pub rkey: u32,
    /// Index capacity in entries.
    pub capacity: u64,
    /// Key-to-slot mapping.
    pub scheme: HashScheme,
}

impl PilafView {
    /// Address of index entry `i`.
    pub fn entry_addr(&self, i: u64) -> u64 {
        self.table_addr + i * ENTRY
    }
}

/// Configuration (shares the shape of PRISM-KV's for fair comparison).
#[derive(Debug, Clone)]
pub struct PilafConfig {
    /// Index capacity in entries.
    pub capacity: u64,
    /// Key-to-slot mapping.
    pub scheme: HashScheme,
    /// Extent size classes, ascending.
    pub classes: Vec<crate::prism_kv::SizeClass>,
}

impl PilafConfig {
    /// The paper's evaluation configuration (§6.2).
    pub fn paper(n_keys: u64, value_len: usize) -> Self {
        let entry_len = entry::encoded_len(8, value_len) as u64;
        PilafConfig {
            capacity: n_keys,
            scheme: HashScheme::Collisionless,
            classes: vec![crate::prism_kv::SizeClass {
                buf_len: entry_len,
                count: n_keys + (n_keys / 8).max(64),
            }],
        }
    }
}

/// Server-side extent allocator state (CPU-managed; Pilaf's PUTs run on
/// the server, so no NIC free lists are involved).
struct Extents {
    /// Free extents per size class length.
    free: HashMap<u64, Vec<u64>>,
    /// Class lengths, ascending.
    class_lens: Vec<u64>,
}

impl Extents {
    fn alloc(&mut self, need: u64) -> Option<(u64, u64)> {
        let class = *self.class_lens.iter().find(|&&len| len >= need)?;
        let addr = self.free.get_mut(&class)?.pop()?;
        Some((addr, class))
    }

    fn free(&mut self, addr: u64, class: u64) {
        self.free.entry(class).or_default().push(addr);
    }
}

/// The Pilaf server.
pub struct PilafServer {
    server: Arc<PrismServer>,
    view: PilafView,
}

impl PilafServer {
    /// Builds a server for `config`.
    pub fn new(config: &PilafConfig) -> Self {
        let table_len = (config.capacity * ENTRY).next_multiple_of(64);
        let pools_len: u64 = config
            .classes
            .iter()
            .map(|c| c.buf_len.next_multiple_of(64) * c.count)
            .sum();
        let server = Arc::new(PrismServer::new(table_len + pools_len + (1 << 20)));
        let (data_base, rkey) = server.carve_region(table_len + pools_len, 64, AccessFlags::FULL);
        let table_addr = data_base;

        let mut free: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut class_lens = Vec::new();
        let mut off = table_len;
        for c in &config.classes {
            let stride = c.buf_len.next_multiple_of(64);
            let base = data_base + off;
            free.insert(c.buf_len, (0..c.count).map(|j| base + j * stride).collect());
            class_lens.push(c.buf_len);
            off += stride * c.count;
        }
        class_lens.sort_unstable();

        let view = PilafView {
            table_addr,
            rkey: rkey.0,
            capacity: config.capacity,
            scheme: config.scheme,
        };

        // The PUT/DELETE RPC handler: this is the server CPU work PRISM-KV
        // eliminates.
        let extents = Arc::new(Mutex::new(Extents { free, class_lens }));
        let handler_server = Arc::clone(&server);
        let handler_view = view.clone();
        server
            .set_rpc_handler(Arc::new(move |req: &[u8]| {
                handle_rpc(&handler_server, &handler_view, &extents, req)
            }))
            .expect("a fresh server has no RPC handler");

        PilafServer { server, view }
    }

    /// The underlying host.
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// Walks the index verifying both checksum layers; returns
    /// `(live, corrupt)` entry counts. Everything the scrub cannot
    /// vouch for is *detectably* corrupt — a GET would observe the
    /// same mismatch and abort rather than return the bytes.
    pub fn scrub(&self) -> (u64, u64) {
        let mut live = 0u64;
        let mut corrupt = 0u64;
        for i in 0..self.view.capacity {
            let (e, ptr, size, crc_data) = read_entry(&self.server, self.view.entry_addr(i));
            if ptr == 0 {
                continue;
            }
            if !entry_crc_ok(&e) {
                corrupt += 1;
                continue;
            }
            let data = self
                .server
                .arena()
                .read(ptr, size)
                .expect("extent in arena");
            if crc32(&data) == crc_data {
                live += 1;
            } else {
                corrupt += 1;
            }
        }
        (live, corrupt)
    }

    /// The client-visible layout.
    pub fn view(&self) -> &PilafView {
        &self.view
    }

    /// Opens a client handle.
    pub fn open_client(&self) -> PilafClient {
        PilafClient {
            view: self.view.clone(),
            integrity: Arc::new(IntegrityStats::new()),
        }
    }
}

impl std::fmt::Debug for PilafServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PilafServer")
            .field("capacity", &self.view.capacity)
            .finish_non_exhaustive()
    }
}

fn read_entry(server: &PrismServer, addr: u64) -> ([u8; 32], u64, u64, u32) {
    let bytes = server.arena().read(addr, ENTRY).expect("index in arena");
    let mut e = [0u8; 32];
    e.copy_from_slice(&bytes);
    let ptr = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
    let size = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
    let crc_data = u32::from_le_bytes(e[16..20].try_into().expect("4 bytes"));
    (e, ptr, size, crc_data)
}

fn write_entry(server: &PrismServer, addr: u64, ptr: u64, size: u64, crc_data: u32) {
    let mut e = [0u8; 32];
    e[0..8].copy_from_slice(&ptr.to_le_bytes());
    e[8..16].copy_from_slice(&size.to_le_bytes());
    e[16..20].copy_from_slice(&crc_data.to_le_bytes());
    // The checksum covers the first 24 bytes with the crc_entry field
    // itself zeroed; `entry_crc_ok` mirrors this on the read side.
    let crc_entry = crc32(&e[0..24]);
    e[20..24].copy_from_slice(&crc_entry.to_le_bytes());
    server.arena().write(addr, &e).expect("index in arena");
}

/// Verifies the entry checksum the same way the writer computed it.
fn entry_crc_ok(e: &[u8; 32]) -> bool {
    let stored = u32::from_le_bytes(e[20..24].try_into().expect("4 bytes"));
    let mut copy = *e;
    copy[20..24].fill(0);
    crc32(&copy[0..24]) == stored
}

/// Serves PUT (`[0x02 | entry]`) and DELETE (`[0x03 | key]`). A request
/// that does not parse, or whose key the hash scheme cannot place, is
/// answered `[0xFF]` before the index is touched.
fn handle_rpc(
    server: &PrismServer,
    view: &PilafView,
    extents: &Mutex<Extents>,
    req: &[u8],
) -> Vec<u8> {
    if req.is_empty() {
        return vec![0xFF];
    }
    let placed = |key: &[u8]| view.scheme.places(key, view.capacity);
    match req[0] {
        RPC_PUT => {
            let Some((key, value)) = entry::decode(&req[1..]).filter(|(key, _)| placed(key)) else {
                return vec![0xFF];
            };
            let payload = entry::encode(key, value);
            // Probe for the key's slot (or the first empty one).
            let Some((slot_addr, old)) = probe_server_side(server, view, key) else {
                return vec![0xFE]; // table full
            };
            let Some((new_ptr, class)) = extents.lock().alloc(payload.len() as u64) else {
                return vec![0xFD]; // out of extents
            };
            server
                .arena()
                .write(new_ptr, &payload)
                .expect("extent in arena");
            let crc_data = crc32(&payload);
            write_entry(server, slot_addr, new_ptr, payload.len() as u64, crc_data);
            if let Some((old_ptr, old_size)) = old {
                let mut ex = extents.lock();
                let class_of_old = ex
                    .class_lens
                    .iter()
                    .copied()
                    .find(|&len| len >= old_size)
                    .unwrap_or(class);
                ex.free(old_ptr, class_of_old);
            }
            vec![0]
        }
        RPC_DELETE => {
            let key = &req[1..];
            if !placed(key) {
                return vec![0xFF];
            }
            let Some((slot_addr, old)) = probe_server_side(server, view, key) else {
                return vec![0];
            };
            if let Some((old_ptr, old_size)) = old {
                write_entry(server, slot_addr, 0, 0, 0);
                let mut ex = extents.lock();
                let class = ex
                    .class_lens
                    .iter()
                    .copied()
                    .find(|&len| len >= old_size)
                    .expect("old extent had a class");
                ex.free(old_ptr, class);
            }
            vec![0]
        }
        _ => vec![0xFF],
    }
}

/// Server-side probe: returns the slot for `key` (matching or first
/// empty) and the old `(ptr, size)` if the key is present.
#[allow(clippy::type_complexity)]
fn probe_server_side(
    server: &PrismServer,
    view: &PilafView,
    key: &[u8],
) -> Option<(u64, Option<(u64, u64)>)> {
    let limit = match view.scheme {
        HashScheme::Collisionless => 1,
        HashScheme::Fnv => MAX_PROBES.min(view.capacity),
    };
    for attempt in 0..limit {
        let slot = view.scheme.slot(key, attempt, view.capacity);
        let addr = view.entry_addr(slot);
        let (e, ptr, size, crc_data) = read_entry(server, addr);
        if ptr == 0 {
            return Some((addr, None));
        }
        if !entry_crc_ok(&e) {
            // Rotted index entry: `ptr`/`size` can't be trusted, so the
            // extent (if any) is leaked, but the slot is reclaimed — the
            // PUT that lands here is the repair.
            return Some((addr, None));
        }
        let data = server.arena().read(ptr, size).expect("extent in arena");
        if crc32(&data) != crc_data {
            // Rotted extent: detectably corrupt for every reader. Reclaim
            // the slot and recycle the extent; without this, a damaged
            // entry would shadow its probe position forever.
            return Some((addr, Some((ptr, size))));
        }
        if entry::decode_key(&data) == Some(key) {
            return Some((addr, Some((ptr, size))));
        }
    }
    None
}

/// A Pilaf client.
#[derive(Debug, Clone)]
pub struct PilafClient {
    view: PilafView,
    integrity: Arc<IntegrityStats>,
}

impl PilafClient {
    /// The layout this client addresses.
    pub fn view(&self) -> &PilafView {
        &self.view
    }

    /// Shares an integrity-stats sink (e.g. the harness's) instead of
    /// the client's private one.
    pub fn with_integrity(mut self, stats: Arc<IntegrityStats>) -> Self {
        self.integrity = stats;
        self
    }

    /// Corruption detections, repairs, and aborts observed by this
    /// client's CRC machinery.
    pub fn integrity(&self) -> &Arc<IntegrityStats> {
        &self.integrity
    }

    /// Starts a GET; returns the machine and its first request (the
    /// index READ).
    pub fn get(&self, key: &[u8]) -> (PilafGetOp, Request) {
        let op = PilafGetOp {
            key: key.to_vec(),
            attempt: 0,
            crc_retries: 0,
            state: GetState::Index,
        };
        let req = op.index_request(self);
        (op, req)
    }

    /// Builds a DELETE RPC.
    pub fn delete_request(&self, key: &[u8]) -> Request {
        let mut msg = Vec::with_capacity(1 + key.len());
        msg.push(RPC_DELETE);
        msg.extend_from_slice(key);
        Request::Rpc(msg)
    }
}

#[derive(Debug, Clone)]
enum GetState {
    Index,
    Data { crc_data: u32 },
}

/// Pilaf GET state machine: index READ, then data READ, with CRC
/// verification and retry (§6: "CRC calculations that Pilaf uses to
/// detect concurrent updates").
#[derive(Debug, Clone)]
pub struct PilafGetOp {
    key: Vec<u8>,
    attempt: u64,
    crc_retries: u32,
    state: GetState,
}

impl PilafGetOp {
    fn index_request(&self, c: &PilafClient) -> Request {
        let slot = c.view.scheme.slot(&self.key, self.attempt, c.view.capacity);
        Request::Verb(Verb::Read {
            addr: c.view.entry_addr(slot),
            len: ENTRY as u32,
            rkey: c.view.rkey,
        })
    }

    /// Re-arms the op after a lost round trip: a fresh GET of the same
    /// key, from the first index READ with no CRC retry spent.
    fn reissue(&mut self, c: &PilafClient) -> Request {
        self.attempt = 0;
        self.crc_retries = 0;
        self.state = GetState::Index;
        self.index_request(c)
    }

    /// Feeds a reply; returns the next step.
    pub fn on_reply(&mut self, c: &PilafClient, reply: Reply) -> KvStep {
        let bytes = match reply.into_verb() {
            Ok(b) => b,
            Err(_) => return self.finish(c, KvOutcome::Failed("READ error")),
        };
        match self.state.clone() {
            GetState::Index => {
                let mut e = [0u8; 32];
                if bytes.len() != 32 {
                    return self.finish(c, KvOutcome::Failed("short index read"));
                }
                e.copy_from_slice(&bytes);
                let ptr = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
                if ptr == 0 {
                    // Never-written slots are all-zero (no checksum);
                    // deleted slots carry a valid checksum over zeros.
                    // Either way the key is absent.
                    return self.finish(c, KvOutcome::Value(None));
                }
                if !entry_crc_ok(&e) {
                    return self.crc_retry(c);
                }
                let size = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
                let crc_data = u32::from_le_bytes(e[16..20].try_into().expect("4 bytes"));
                self.state = GetState::Data { crc_data };
                KvStep::send(Request::Verb(Verb::Read {
                    addr: ptr,
                    len: size as u32,
                    rkey: c.view.rkey,
                }))
            }
            GetState::Data { crc_data, .. } => {
                if crc32(&bytes) != crc_data {
                    // The extent was recycled under us: restart from the
                    // index entry.
                    return self.crc_retry(c);
                }
                match entry::decode(&bytes) {
                    Some((k, v)) if k == self.key => {
                        let v = v.to_vec();
                        self.finish(c, KvOutcome::Value(Some(v)))
                    }
                    Some(_) => {
                        // Different key: linear probe onward.
                        self.attempt += 1;
                        let limit = match c.view.scheme {
                            HashScheme::Collisionless => 1,
                            HashScheme::Fnv => MAX_PROBES.min(c.view.capacity),
                        };
                        if self.attempt >= limit {
                            return self.finish(c, KvOutcome::Value(None));
                        }
                        self.state = GetState::Index;
                        KvStep::send(self.index_request(c))
                    }
                    None => self.crc_retry(c),
                }
            }
        }
    }

    fn crc_retry(&mut self, c: &PilafClient) -> KvStep {
        // Every mismatch is a detection — under benign churn it is a
        // racing writer and the retry repairs it; under injected rot
        // the budget runs dry and the GET aborts.
        c.integrity.note_detected();
        self.crc_retries += 1;
        if self.crc_retries > MAX_CRC_RETRIES {
            return self.finish(c, KvOutcome::Failed("persistent CRC mismatch"));
        }
        self.state = GetState::Index;
        KvStep::send(self.index_request(c))
    }

    /// Terminal step with integrity accounting: a GET that saw at least
    /// one CRC mismatch either recovered (repaired) or gave up clean
    /// (aborted) — never a silent wrong answer.
    fn finish(&self, c: &PilafClient, outcome: KvOutcome) -> KvStep {
        if self.crc_retries > 0 {
            match outcome {
                KvOutcome::Failed(_) => c.integrity.note_aborted(),
                _ => c.integrity.note_repaired(),
            }
        }
        KvStep::done(outcome)
    }
}

/// A Pilaf operation in flight, as [`KvProtocol`] drives it.
#[derive(Debug, Clone)]
pub enum PilafOp {
    /// A GET.
    Get(PilafGetOp),
    /// A PUT: one RPC the server CPU executes, kept as invoked so that a
    /// reissue resends the same bytes.
    Put(Request),
}

impl KvProtocol for PilafClient {
    type Op = PilafOp;

    /// The client's CRC checks of the index entry and the extent: the
    /// paper measures ~2 µs of Pilaf's read latency as CRC work (§6.2).
    const GET_COMPUTE_NS: u64 = 2_000;

    fn start(&self, key: &[u8], value: Option<&[u8]>) -> (PilafOp, Request) {
        let Some(value) = value else {
            let (op, req) = self.get(key);
            return (PilafOp::Get(op), req);
        };
        let mut msg = Vec::with_capacity(1 + entry::encoded_len(key.len(), value.len()));
        msg.push(RPC_PUT);
        msg.extend_from_slice(&entry::encode(key, value));
        let req = Request::Rpc(msg);
        (PilafOp::Put(req.clone()), req)
    }

    fn on_reply(&self, op: &mut PilafOp, reply: Reply) -> KvStep {
        let PilafOp::Get(get) = op else {
            return KvStep::done(match reply.into_rpc().as_deref() {
                Ok([0, ..]) => KvOutcome::Written,
                Ok([0xFE, ..]) => KvOutcome::Failed("hash table full along probe path"),
                Ok([0xFD, ..]) => KvOutcome::Failed("out of extents"),
                Ok(_) => KvOutcome::Failed("PUT rejected"),
                Err(_) => KvOutcome::Failed("PUT reply lost"),
            });
        };
        get.on_reply(self, reply)
    }

    /// A GET starts afresh. A PUT resends its RPC: the server applies a
    /// PUT whole, so a resent one that already ran rewrites its value.
    fn reissue(&self, op: &mut PilafOp) -> Request {
        match op {
            PilafOp::Get(get) => get.reissue(self),
            PilafOp::Put(req) => req.clone(),
        }
    }

    /// Restamps the cached rkey with the server's new incarnation.
    fn refence(&mut self, inc: u64) {
        self.view.rkey = Rkey(self.view.rkey).restamped(inc).0;
    }

    /// A Pilaf reply orphans nothing: the server CPU allocates and frees
    /// every extent.
    fn harvest(_reply: Reply) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive;
    use crate::hash::key_bytes;
    use prism_core::msg::execute_local;
    use prism_testkit::{for_all, gens, Config, Gen};

    fn drive_get(s: &PilafServer, c: &PilafClient, key: &[u8]) -> (KvOutcome, u32) {
        let (mut op, req) = c.get(key);
        drive(s.server(), req, |r| op.on_reply(c, r))
    }

    fn put(s: &PilafServer, c: &PilafClient, key: &[u8], value: &[u8]) -> KvOutcome {
        let (mut op, req) = c.start(key, Some(value));
        drive(s.server(), req, |r| c.on_reply(&mut op, r)).0
    }

    fn store() -> (PilafServer, PilafClient) {
        let cfg = PilafConfig {
            capacity: 64,
            scheme: HashScheme::Fnv,
            classes: vec![
                crate::prism_kv::SizeClass {
                    buf_len: 64,
                    count: 32,
                },
                crate::prism_kv::SizeClass {
                    buf_len: 256,
                    count: 32,
                },
            ],
        };
        let s = PilafServer::new(&cfg);
        let c = s.open_client();
        (s, c)
    }

    #[test]
    fn get_missing_key() {
        let (s, c) = store();
        let (o, rtts) = drive_get(&s, &c, b"nope");
        assert_eq!(o, KvOutcome::Value(None));
        assert_eq!(rtts, 1, "empty slot detected from the index read alone");
    }

    #[test]
    fn put_then_get_takes_two_reads() {
        let (s, c) = store();
        assert_eq!(put(&s, &c, b"alpha", b"beta"), KvOutcome::Written);
        let (o, rtts) = drive_get(&s, &c, b"alpha");
        assert_eq!(o, KvOutcome::Value(Some(b"beta".to_vec())));
        assert_eq!(rtts, 2, "Pilaf GET = index READ + data READ (§2.1)");
    }

    #[test]
    fn overwrite_updates_value() {
        let (s, c) = store();
        put(&s, &c, b"k", b"v1");
        put(&s, &c, b"k", b"v2");
        let (o, _) = drive_get(&s, &c, b"k");
        assert_eq!(o, KvOutcome::Value(Some(b"v2".to_vec())));
    }

    #[test]
    fn overwrite_recycles_extents() {
        let (s, c) = store();
        for i in 0..100u8 {
            assert_eq!(put(&s, &c, b"hot", &[i; 16]), KvOutcome::Written);
        }
        // 32 extents of the small class exist; 100 PUTs only succeed if
        // old extents are freed.
    }

    #[test]
    fn delete_empties_slot() {
        let (s, c) = store();
        put(&s, &c, b"k", b"v");
        execute_local(s.server(), &c.delete_request(b"k"));
        let (o, _) = drive_get(&s, &c, b"k");
        assert_eq!(o, KvOutcome::Value(None));
    }

    #[test]
    fn colliding_keys_probe() {
        let cfg = PilafConfig {
            capacity: 4,
            scheme: HashScheme::Fnv,
            classes: vec![crate::prism_kv::SizeClass {
                buf_len: 64,
                count: 16,
            }],
        };
        let s = PilafServer::new(&cfg);
        let c = s.open_client();
        for i in 0..4u8 {
            assert_eq!(put(&s, &c, &[b'k', i], &[b'v', i]), KvOutcome::Written);
        }
        for i in 0..4u8 {
            let (o, _) = drive_get(&s, &c, &[b'k', i]);
            assert_eq!(o, KvOutcome::Value(Some(vec![b'v', i])));
        }
    }

    #[test]
    fn crc_detects_corruption() {
        let (s, c) = store();
        put(&s, &c, b"key", b"value");
        // Corrupt the extent under the index's feet.
        let slot = s.view().scheme.slot(b"key", 0, s.view().capacity);
        let (_, ptr, _, _) = read_entry(s.server(), s.view().entry_addr(slot));
        s.server()
            .arena()
            .write(ptr + entry::HEADER as u64, b"X")
            .unwrap();
        let (o, _) = drive_get(&s, &c, b"key");
        assert_eq!(o, KvOutcome::Failed("persistent CRC mismatch"));
        // Every mismatch was counted and the op ended as a clean abort.
        assert_eq!(c.integrity().detected(), (MAX_CRC_RETRIES + 1) as u64);
        assert_eq!(c.integrity().aborted(), 1);
        assert_eq!(s.scrub().1, 1, "scrub confirms one damaged extent");
        // Overwriting installs a fresh extent + checksums: healed.
        assert_eq!(put(&s, &c, b"key", b"fresh"), KvOutcome::Written);
        assert_eq!(s.scrub().1, 0);
        let (o, _) = drive_get(&s, &c, b"key");
        assert_eq!(o, KvOutcome::Value(Some(b"fresh".to_vec())));
        assert_eq!(c.integrity().repaired(), 0, "clean GET counts nothing");
    }

    #[test]
    fn paper_config_round_trip() {
        let cfg = PilafConfig::paper(32, 64);
        let s = PilafServer::new(&cfg);
        let c = s.open_client();
        use crate::hash::key_bytes;
        for k in 0..32u64 {
            assert_eq!(
                put(&s, &c, &key_bytes(k), &[k as u8; 64]),
                KvOutcome::Written
            );
        }
        for k in 0..32u64 {
            let (o, rtts) = drive_get(&s, &c, &key_bytes(k));
            assert_eq!(o, KvOutcome::Value(Some(vec![k as u8; 64])));
            assert_eq!(rtts, 2);
        }
    }

    #[test]
    fn concurrent_gets_and_puts_never_return_torn_values() {
        use std::sync::Arc;
        let cfg = PilafConfig::paper(8, 32);
        let s = Arc::new(PilafServer::new(&cfg));
        let key = crate::hash::key_bytes(1);
        // Pre-populate.
        {
            let c = s.open_client();
            put(&s, &c, &key, &[0u8; 32]);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let c = s.open_client();
                let mut i = 1u8;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    put(&s, &c, &crate::hash::key_bytes(1), &[i; 32]);
                    i = i.wrapping_add(1);
                }
            })
        };
        let c = s.open_client();
        for _ in 0..2_000 {
            match drive_get(&s, &c, &key).0 {
                KvOutcome::Value(Some(v)) => {
                    assert!(v.iter().all(|&b| b == v[0]), "torn value: {v:?}");
                }
                KvOutcome::Value(None) => panic!("key vanished"),
                KvOutcome::Failed(_) => {} // CRC retry budget exhausted under churn: acceptable
                KvOutcome::Written => unreachable!("GET never reports Written"),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// An 8-key store under `scheme` holding keys 0..4, 32-byte values.
    fn filled(scheme: HashScheme) -> (PilafServer, PilafClient) {
        let s = PilafServer::new(&PilafConfig {
            scheme,
            ..PilafConfig::paper(8, 32)
        });
        let c = s.open_client();
        for k in 0..4u64 {
            assert_eq!(
                put(&s, &c, &key_bytes(k), &[k as u8; 32]),
                KvOutcome::Written
            );
        }
        (s, c)
    }

    /// The index's bytes.
    fn index(s: &PilafServer) -> Vec<u8> {
        let v = s.view();
        s.server()
            .arena()
            .read(v.table_addr, v.capacity * ENTRY)
            .unwrap()
    }

    fn rpc(s: &PilafServer, msg: Vec<u8>) -> Vec<u8> {
        execute_local(s.server(), &Request::Rpc(msg))
            .into_rpc()
            .unwrap()
    }

    #[test]
    fn keys_the_collisionless_table_cannot_place_are_refused() {
        let (s, c) = filled(HashScheme::Collisionless);
        let before = index(&s);
        assert_eq!(
            put(&s, &c, b"short", &[9; 32]),
            KvOutcome::Failed("PUT rejected")
        );
        assert_eq!(rpc(&s, [&[RPC_DELETE][..], &key_bytes(8)].concat()), [0xFF]);
        assert_eq!(index(&s), before);
        assert_eq!(
            drive_get(&s, &c, &key_bytes(3)).0,
            KvOutcome::Value(Some(vec![3; 32]))
        );
    }

    /// Raw bytes, and PUTs and DELETEs of keys the table holds, keys
    /// past it, and keys of any length, with values that fit an extent
    /// or do not.
    fn request_gen() -> Gen<Vec<u8>> {
        let key = gens::one_of(vec![
            gens::range_u64(0..10).map(|k| key_bytes(k).to_vec()),
            gens::vec(gens::u8s(), 0..10),
        ]);
        gens::one_of(vec![
            gens::vec(gens::u8s(), 0..40),
            gens::t2(key.clone(), gens::range_usize(0..40)).map(|(k, vlen)| {
                let mut msg = vec![RPC_PUT];
                msg.extend_from_slice(&entry::encode(&k, &vec![0x5A; vlen]));
                msg
            }),
            key.map(|k| [&[RPC_DELETE][..], &k].concat()),
        ])
    }

    /// The handler is total over request bytes under both schemes: it
    /// never panics, and a refused request leaves the index unchanged.
    #[test]
    fn pilaf_handler_is_total_over_request_bytes() {
        for_all(
            "pilaf_handler_is_total_over_request_bytes",
            &Config::with_cases(256),
            &gens::t2(gens::bools(), request_gen()),
            |(fnv, req): &(bool, Vec<u8>)| {
                let scheme = if *fnv {
                    HashScheme::Fnv
                } else {
                    HashScheme::Collisionless
                };
                let (s, _) = filled(scheme);
                let before = index(&s);
                let reply = rpc(&s, req.clone());
                assert!(
                    [[0], [0xFD], [0xFE], [0xFF]].iter().any(|r| reply == r),
                    "reply {reply:?}"
                );
                if reply == [0xFF] {
                    assert_eq!(index(&s), before);
                }
            },
        );
    }
}
