//! PRISM-KV: the paper's one-sided key-value store (§6.1).
//!
//! Layout: a hash table of 16-byte `(ptr, bound)` slots in one registered
//! data region that also contains the ALLOCATE buffer pools, so indirect
//! operations satisfy the same-rkey rule (§3.1). Entries are
//! `[klen | vlen | key | value]` ([`crate::entry`]) in write-once
//! buffers.
//!
//! * **GET** — one bounded indirect READ of the slot (§6.1): the engine
//!   follows the pointer and returns at most `bound` bytes. The client
//!   verifies the key and linearly probes on a mismatch. An empty slot
//!   NACKs (null pointer), which the client interprets as absence.
//! * **PUT** — one probe round trip (slot word + entry key, chained),
//!   then one install round trip ([`prism_core::install`]) that swaps
//!   in `(new_ptr, bound)` if the slot still holds what the probe saw;
//!   its reply names the new buffer if the CAS lost a race.
//! * **DELETE** — probe, then CAS the slot to null (footnote 2 of the
//!   paper discusses slot reuse; we use the same heavy-handed
//!   compare-the-pointer approach).
//! * **Load** — server-side, one pass per key ([`PrismKvServer::load`]):
//!   it shares with a PUT the entry encoding, the client's version
//!   counter and the install-record writer the durable tap uses, and
//!   with replay the install step (image at its address, then a
//!   16-byte CAS of the slot from the zero word). It runs neither the
//!   engine nor the chain observer. The golden load image and the
//!   PUT-per-key oracle property in `tests/kv_integration.rs` hold it
//!   to a PUT per key byte for byte.
//!
//! Reclamation is client-driven (§3.2): the winner frees the replaced
//! buffer, a loser frees its own orphan, via the fire-and-forget reclaim
//! RPC every [`PrismServer`] serves ([`prism_core::freelist`]).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use prism_core::builder::ops;
use prism_core::freelist::{free_request, FreeLists, Pooled};
use prism_core::install::{self, Failure, Guard, Installed, Word};
use prism_core::integrity::IntegrityStats;
use prism_core::msg::{Reply, Request};
use prism_core::op::{full_mask, DataArg, FreeListId, Redirect};
use prism_core::value::CasMode;
use prism_core::{ChainObserver, OpResult, OpStatus, PrismOp, PrismServer};
use prism_rdma::arena::MemoryArena;
use prism_rdma::hash::IntSet;
use prism_rdma::region::{AccessFlags, Rkey};
use prism_rdma::RdmaError;
use prism_store::{DurableStats, PayloadRef, SegmentStore, SimDisk};

use crate::entry;
use crate::hash::HashScheme;
use crate::{KvOutcome, KvProtocol, KvStep};

/// Slot size: `(ptr u64 LE, bound u64 LE)`.
pub const SLOT: u64 = 16;

/// Maximum linear-probe attempts before a key is declared absent
/// (FNV mode only; collisionless mode never probes past attempt 0).
pub const MAX_PROBES: u64 = 64;

/// Retry budget for PUT/DELETE CAS races.
pub const MAX_RETRIES: u32 = 32;

/// Bounded re-read budget when a GET's entry checksum fails (the same
/// budget Pilaf gives its verify-retry loop): enough to outlast any
/// transient race, small enough that persistent rot fails fast and
/// cleanly.
pub const MAX_CRC_RETRIES: u32 = 16;

/// A buffer size class backing one free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClass {
    /// Buffer length in bytes.
    pub buf_len: u64,
    /// Number of buffers to provision.
    pub count: u64,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct PrismKvConfig {
    /// Hash table capacity in slots.
    pub capacity: u64,
    /// Key-to-slot mapping.
    pub scheme: HashScheme,
    /// Largest entry (header + key + value) the store accepts; also the
    /// GET read length.
    pub max_entry_len: u32,
    /// Buffer size classes, ascending (§3.2 recommends powers of two).
    pub classes: Vec<SizeClass>,
}

impl PrismKvConfig {
    /// The paper's evaluation configuration scaled to `n_keys` keys with
    /// `value_len`-byte values and 8-byte keys (§6.2), collisionless.
    pub fn paper(n_keys: u64, value_len: usize) -> Self {
        let entry_len = entry::encoded_len(8, value_len) as u64;
        PrismKvConfig {
            capacity: n_keys,
            scheme: HashScheme::Collisionless,
            max_entry_len: entry_len as u32,
            classes: vec![SizeClass {
                buf_len: entry_len,
                // Live entries plus headroom for in-flight updates.
                count: n_keys + (n_keys / 8).max(64),
            }],
        }
    }
}

/// Everything a client needs to address the store (exchanged at
/// connection setup in a real deployment).
#[derive(Debug, Clone)]
pub struct KvView {
    /// Base of the slot array.
    pub table_addr: u64,
    /// Rkey of the data region (slots + buffer pools).
    pub data_rkey: u32,
    /// Slots in the table.
    pub capacity: u64,
    /// Key-to-slot mapping.
    pub scheme: HashScheme,
    /// GET read length.
    pub max_entry_len: u32,
    /// `(freelist id, buffer length)` per class, ascending.
    pub classes: Vec<(FreeListId, u64)>,
}

impl KvView {
    /// Address of slot `i`.
    pub fn slot_addr(&self, i: u64) -> u64 {
        self.table_addr + i * SLOT
    }

    /// Smallest class whose buffers fit `len` bytes.
    pub fn class_for(&self, len: u64) -> Option<FreeListId> {
        self.classes
            .iter()
            .find(|(_, buf_len)| *buf_len >= len)
            .map(|(id, _)| *id)
    }

    /// How many slots a key's probe path holds: its first alone when
    /// collisionless, up to [`MAX_PROBES`] under FNV.
    // Inlined: as a call it changed the code of the GET and PUT reply
    // paths, which reach it only on a miss, and cost `sim_kv_open_1m`
    // about 2 % of its ops/s (2-core x86-64, fat LTO).
    #[inline]
    fn probe_limit(&self) -> u64 {
        match self.scheme {
            HashScheme::Collisionless => 1,
            HashScheme::Fnv => MAX_PROBES.min(self.capacity),
        }
    }
}

/// Chain observer installed on every KV server: watches for the
/// slot-install CAS (the linearization point of a PUT or DELETE landing
/// in the table) and logs what it installed through the shard's
/// [`InstallLog`].
struct KvDurableTap {
    log: InstallLog,
    table_addr: u64,
    capacity: u64,
}

impl ChainObserver for KvDurableTap {
    fn on_chain(&self, server: &PrismServer, chain: &[PrismOp], results: &[OpResult]) {
        for (op, res) in chain.iter().zip(results) {
            let PrismOp::Cas {
                mode: CasMode::Eq,
                target,
                len: 16,
                ..
            } = op
            else {
                continue;
            };
            let table_end = self.table_addr + self.capacity * SLOT;
            if *target < self.table_addr || *target >= table_end || res.status != OpStatus::Ok {
                continue;
            }
            // The CAS succeeded: the slot now holds the new (ptr, bound),
            // and the entry image is read from the arena straight into
            // the log.
            let arena = server.arena();
            let mut word = [0u8; SLOT as usize];
            if arena.read_into(*target, &mut word).is_err() {
                continue;
            }
            let ptr = Word::PtrBound.ptr(&word);
            let slot = (*target - self.table_addr) / SLOT;
            self.log.append(server, slot, &word, |image| {
                arena.read_into(ptr, image).is_ok()
            });
        }
    }
}

/// The shard's write-ahead segment log, and the one writer of its
/// install records: the chain tap after a PUT's or DELETE's CAS, and
/// [`PrismKvServer::load`] after its own; [`split_install`] reads them
/// back at replay. KV shards are single-copy — there is no peer quorum
/// to heal a lost tail from — so every record is followed by an fsync
/// barrier: a crash can never take an acknowledged update with it.
///
/// A record's key is the slot index. A null pointer is a DELETE, logged
/// as an empty payload; an install is logged as the raw slot word
/// followed by the entry image, at most `max_entry_len` bytes of it.
/// The image carries its own checksum, so replay can re-verify it
/// independently of the segment framing; the slot word makes replay
/// *address-preserving*, which is what keeps in-flight client CAS
/// machines sound across a restart (a relocated entry would change the
/// slot word with no writer, and a resolving PUT would misread that as
/// a racing write that displaced it).
#[derive(Clone)]
struct InstallLog {
    store: Arc<SegmentStore>,
    max_entry_len: u64,
}

impl InstallLog {
    /// Logs that slot `slot` now holds `word` and syncs it, in one
    /// critical section of the store
    /// ([`SegmentStore::append_durable_with`]). The frame is built in
    /// the segment's own tail: `image` writes the entry image into it
    /// (from the arena or from the encoded entry), one copy and no
    /// allocation. `image` returning `false` abandons the record —
    /// nothing is logged.
    fn append(
        &self,
        server: &PrismServer,
        slot: u64,
        word: &[u8; SLOT as usize],
        image: impl FnOnce(&mut [u8]) -> bool,
    ) {
        let (ptr, bound) = (Word::PtrBound.ptr(word), Word::PtrBound.bound(word));
        let payload_len = if ptr == 0 {
            0
        } else {
            word.len() + bound.min(self.max_entry_len) as usize
        };
        self.store.append_durable_with(
            server.current_epoch(),
            server.regions().current_incarnation(),
            slot,
            payload_len,
            |payload| {
                if payload.is_empty() {
                    return true;
                }
                let (head, tail) = payload.split_at_mut(word.len());
                head.copy_from_slice(word);
                image(tail)
            },
        );
    }
}

/// Reads an install record's payload as [`InstallLog::append`] wrote
/// it: the raw slot word it leads and the entry image, or `None` for a
/// payload no longer than a slot word (a DELETE, or malformed).
fn split_install(payload: &[u8]) -> Option<(&[u8; SLOT as usize], &[u8])> {
    payload
        .split_first_chunk()
        .filter(|(_, image)| !image.is_empty())
}

/// Writes `image` at the buffer `word` points to, then swaps `word` into
/// the slot at `slot_addr` with a 16-byte CAS from the zero word: the
/// one install that bypasses the engine, made by the bulk load of each
/// key and by replay of each survivor. Returns whether the slot now
/// holds `word`; `false` when the image or the slot lies outside the
/// arena, or the slot was not empty (the image may then have been
/// written, but nothing points at it).
fn install_at(
    arena: &MemoryArena,
    slot_addr: u64,
    word: &[u8; SLOT as usize],
    image: &[u8],
) -> bool {
    arena.write(Word::PtrBound.ptr(word), image).is_ok()
        && arena
            .atomic(slot_addr, SLOT, |slot| {
                let empty = slot.iter().all(|&b| b == 0);
                if empty {
                    slot.copy_from_slice(word);
                }
                empty
            })
            .unwrap_or(false)
}

/// Why [`PrismKvServer::load`] refused a key. `at` is the key's
/// position in the stream: every key before it is loaded, and nothing
/// of it is logged or left in its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The key's slot is not empty. The buffer taken for it went back
    /// on its free list's tail, as a PUT that lost its CAS frees its
    /// orphan.
    Occupied {
        /// Position in the stream.
        at: u64,
        /// The slot index.
        slot: u64,
    },
    /// The encoded entry fits no size class.
    TooLarge {
        /// Position in the stream.
        at: u64,
        /// The encoded entry's length.
        len: u64,
    },
    /// The size class's free list has no buffer left.
    Exhausted {
        /// Position in the stream.
        at: u64,
        /// The exhausted class.
        class: FreeListId,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LoadError::Occupied { at, slot } => write!(f, "key {at}: slot {slot} is not empty"),
            LoadError::TooLarge { at, len } => {
                write!(f, "key {at}: a {len}-byte entry fits no size class")
            }
            LoadError::Exhausted { at, class } => {
                write!(f, "key {at}: free list {} is empty", class.0)
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// The PRISM-KV server: a [`PrismServer`] with the store's layout and
/// free lists.
pub struct PrismKvServer {
    server: Arc<PrismServer>,
    view: KvView,
    refill: prism_rdma::sync::Mutex<Vec<RefillState>>,
    /// `(next, end)` of the registered headroom the refill daemon carves
    /// from.
    headroom: prism_rdma::sync::Mutex<(u64, u64)>,
    /// `(base, len)` of the initial buffer pools; a restart rewinds the
    /// headroom to their end.
    pools: (u64, u64),
    disk: Arc<SimDisk>,
    log: InstallLog,
    durable: Arc<DurableStats>,
}

/// Per-class refill bookkeeping for [`PrismKvServer::maybe_refill`].
#[derive(Debug)]
struct RefillState {
    id: FreeListId,
    stride: u64,
    /// Refill when availability drops below this many buffers.
    low_water: usize,
    /// Buffers added per refill.
    batch: u64,
}

impl PrismKvServer {
    /// Builds a server for `config`, sizing the arena automatically.
    pub fn new(config: &PrismKvConfig) -> Self {
        let table_len = (config.capacity * SLOT).next_multiple_of(64);
        let pools_len: u64 = config
            .classes
            .iter()
            .map(|c| c.buf_len.next_multiple_of(64) * c.count)
            .sum();
        // Headroom inside the same registration feeds the refill daemon
        // (§6.1): new buffers must satisfy the indirect-GET same-rkey
        // rule, so they have to live inside the data region.
        let headroom_len = (pools_len / 4).next_multiple_of(64).max(1 << 16);
        let server = Arc::new(PrismServer::new(
            table_len + pools_len + headroom_len + (1 << 20),
        ));

        // One region spanning slots, pools, and refill headroom so
        // indirect GETs satisfy the same-rkey rule.
        let (data_base, data_rkey) =
            server.carve_region(table_len + pools_len + headroom_len, 64, AccessFlags::FULL);
        let table_addr = data_base;

        let mut off = table_len;
        let mut classes = Vec::new();
        for (i, c) in config.classes.iter().enumerate() {
            let id = FreeListId(i as u32);
            let base = data_base + off;
            let stride = server
                .freelists()
                .register_pool(id, c.buf_len, base, c.count, 0);
            classes.push((id, c.buf_len));
            off += stride * c.count;
        }

        let refill = classes
            .iter()
            .map(|&(id, buf_len)| RefillState {
                id,
                stride: buf_len.next_multiple_of(64),
                low_water: 16,
                batch: 64,
            })
            .collect();
        let headroom_base = data_base + table_len + pools_len;

        // Durable tier: a private simulated disk holding the shard's
        // write-ahead segment log, fed by a chain observer at the
        // slot-install CAS.
        let disk = Arc::new(SimDisk::new());
        let log = InstallLog {
            store: Arc::new(SegmentStore::new(Arc::clone(&disk), "kv")),
            max_entry_len: config.max_entry_len as u64,
        };
        server
            .set_chain_observer(Arc::new(KvDurableTap {
                log: log.clone(),
                table_addr,
                capacity: config.capacity,
            }))
            .expect("a fresh server has no chain observer");

        PrismKvServer {
            server,
            refill: prism_rdma::sync::Mutex::new(refill),
            headroom: prism_rdma::sync::Mutex::new((headroom_base, headroom_base + headroom_len)),
            pools: (data_base + table_len, pools_len),
            view: KvView {
                table_addr,
                data_rkey: data_rkey.0,
                capacity: config.capacity,
                scheme: config.scheme,
                max_entry_len: config.max_entry_len,
                classes,
            },
            disk,
            log,
            durable: Arc::new(DurableStats::new()),
        }
    }

    /// The underlying host (for direct execution in tests/live mode).
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// The client-visible layout.
    pub fn view(&self) -> &KvView {
        &self.view
    }

    /// The periodic control-plane check of §6.1: the server
    /// "periodically checks if more buffers are needed" and posts fresh
    /// ones when a size class runs low. New buffers are carved from the
    /// registered headroom (they must stay inside the data region to
    /// satisfy the indirect-GET same-rkey rule); once the headroom is
    /// exhausted the refill stops and ALLOCATE falls back to
    /// Receiver-Not-Ready flow control. Returns the number of buffers
    /// added.
    pub fn maybe_refill(&self) -> u64 {
        let mut added = 0;
        let refill = self.refill.lock();
        for r in refill.iter() {
            if self.server.freelists().available(r.id) >= r.low_water {
                continue;
            }
            let Some(base) = self.carve_headroom(r.stride * r.batch) else {
                continue;
            };
            // Refilled buffers are pool members like any other: the one
            // call records the extent and posts its buffers together.
            self.server.freelists().extend(r.id, base, r.batch, 0);
            added += r.batch;
        }
        added
    }

    fn carve_headroom(&self, len: u64) -> Option<u64> {
        let mut hr = self.headroom.lock();
        if hr.0 + len > hr.1 {
            return None;
        }
        let base = hr.0;
        hr.0 += len;
        Some(base)
    }

    /// The simulated disk backing this shard's segment log (where the
    /// fault fabric's torn writes and at-rest rot land).
    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// The shard's durable segment log.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.log.store
    }

    /// This shard's durable-recovery counters.
    pub fn durable_stats(&self) -> &Arc<DurableStats> {
        &self.durable
    }

    /// Shares an external durable-stats sink (e.g. the cluster's)
    /// instead of the shard's private one.
    pub fn set_durable_stats(&mut self, stats: Arc<DurableStats>) {
        self.durable = stats;
    }

    /// Fails the shard with **amnesia** and rejoins it: the host wipes
    /// and fences ([`PrismServer::amnesia_restart`]), the allocator is
    /// reset, and the segment log is replayed — last record wins per
    /// slot — to rebuild the table. KV shards are single-copy, so
    /// replay *is* the whole recovery: the log is write-ahead (every
    /// install barriers before the client sees its ack), which is what
    /// makes that sound. Replay validates every frame by CRC, truncates
    /// the first torn/corrupt tail, and drops any entry image whose own
    /// checksum fails — damage is detected, never served.
    ///
    /// Replay is **address-preserving**: each surviving record carries
    /// the slot word it installed, the entry is rewritten at its
    /// original buffer address, and those addresses are withheld from
    /// the allocator reset. The rebuilt heap is therefore bit-identical
    /// to the pre-crash durable state, so a client CAS machine that
    /// straddled the restart resumes against exactly the slot words it
    /// snapshotted — a relocated entry would change a slot word with no
    /// writer, which an in-doubt PUT's resolve read must otherwise
    /// misread as a racing writer displacing it (losing the acked
    /// update). Returns the shard's new incarnation.
    pub fn amnesia_restart(&self) -> u64 {
        let inc = self.server.amnesia_restart();

        // Replay the log, folding last-record-wins per slot into one
        // handle per slot — the records stay where they lie on disk and
        // are never copied. An empty payload is a DELETE (the slot stays
        // null — this is also what keeps keys fenced by a `migrate_grow`
        // from resurrecting), one too short to hold a slot word is
        // malformed, and an install record is the slot word plus the
        // entry image.
        let store = &self.log.store;
        let mut last: Vec<Option<PayloadRef>> = vec![None; self.view.capacity as usize];
        let replay = store.replay(|rec, at| {
            let slot = usize::try_from(rec.key).ok().and_then(|k| last.get_mut(k));
            if let Some(slot) = slot {
                *slot = split_install(rec.payload).and(Some(at));
            }
        });
        self.durable
            .add_segments_truncated(replay.segments_truncated);

        // Validate each slot's winner. The entry carries its own
        // checksum; a payload the segment CRC passed but the entry check
        // rejects (e.g. rot landed between the two on a real disk) is
        // dropped, not installed. What survives is every buffer address
        // still occupied and, for the few entries that had been
        // installed in carved-extent space, their image lengths.
        let pools_end = self.pools.0 + self.pools.1;
        let mut live_ptrs: Vec<u64> = Vec::new();
        let mut carved: Vec<(u64, u64)> = Vec::new();
        for slot in last.iter_mut() {
            let Some(at) = *slot else { continue };
            let valid = store.with_payload(at, |payload| {
                let (word, image) = split_install(payload)?;
                let ptr = Word::PtrBound.ptr(word);
                (ptr != 0 && entry::decode_verified(image).is_ok())
                    .then_some((ptr, image.len() as u64))
            });
            match valid.flatten() {
                Some((ptr, image_len)) => {
                    live_ptrs.push(ptr);
                    if ptr >= pools_end {
                        carved.push((ptr, image_len));
                    }
                }
                None => *slot = None,
            }
        }
        live_ptrs.sort_unstable();

        // Allocator reset, minus the replayed buffers: the initial class
        // pools (one extent per class, registered first) go back on their
        // free lists except addresses live entries still occupy, refill
        // extents are forgotten, and the headroom rewinds — skipping past
        // any live entry that had been installed in carved-extent space,
        // so a future refill cannot carve over it. The pre-crash queue
        // contents described ownership that no longer exists.
        self.server
            .freelists()
            .reset_to_extents(self.view.classes.len(), |a| {
                live_ptrs.binary_search(&a).is_ok()
            });
        let mut hr = self.headroom.lock();
        hr.0 = pools_end;
        for &(p, image_len) in &carved {
            let stride = self
                .view
                .class_for(image_len)
                .and_then(|id| self.server.freelists().buf_len(id))
                .map_or(image_len, |len| len.next_multiple_of(64));
            hr.0 = hr.0.max((p + stride).next_multiple_of(64));
        }

        // Install the survivors in slot order, straight from the log's
        // bytes to the address each was acknowledged at (a pointer
        // outside the arena is damage, not data).
        let mut replayed = 0u64;
        let arena = self.server.arena();
        for (slot, at) in last.iter().enumerate() {
            let Some(at) = *at else { continue };
            let installed = store.with_payload(at, |payload| {
                split_install(payload).is_some_and(|(word, image)| {
                    install_at(arena, self.view.slot_addr(slot as u64), word, image)
                })
            });
            replayed += u64::from(installed == Some(true));
        }
        self.durable.add_replayed(replayed);
        // Recovery is control-plane: everything it rewrote is synced.
        store.barrier();
        inc
    }

    /// Walks every occupied slot and verifies its entry checksum
    /// server-side. Returns `(live, corrupt)` counts. The corruption
    /// gate runs this after a faulted run as the "no silent wrong
    /// answer" backstop: any corruption that was neither healed by an
    /// overwrite nor reaped by a delete is still *detectable* here —
    /// nothing damaged can masquerade as valid data.
    pub fn scrub(&self) -> (u64, u64) {
        let arena = self.server.arena();
        let (mut live, mut corrupt) = (0u64, 0u64);
        for i in 0..self.view.capacity {
            let slot = self.view.slot_addr(i);
            let Ok(ptr) = arena.read_u64(slot) else {
                continue;
            };
            if ptr == 0 {
                continue;
            }
            let bound = arena.read_u64(slot + 8).unwrap_or(0);
            let len = bound.min(self.view.max_entry_len as u64);
            live += 1;
            match arena.read(ptr, len) {
                Ok(bytes) if entry::decode_verified(&bytes).is_ok() => {}
                _ => corrupt += 1,
            }
        }
        (live, corrupt)
    }

    /// Opens a client with its own connection scratch slot. Rkeys are
    /// stamped with the server's *current* incarnation (the handshake a
    /// real deployment performs at connection setup), so clients opened
    /// after an amnesia rejoin address the new fence, not the wiped one.
    pub fn open_client(&self) -> PrismKvClient {
        let conn = self.server.open_connection();
        let inc = self.server.regions().current_incarnation();
        let mut view = self.view.clone();
        view.data_rkey = Rkey(view.data_rkey).restamped(inc).0;
        PrismKvClient {
            view,
            scratch_addr: conn.scratch_addr,
            scratch_rkey: conn.scratch_rkey.restamped(inc).0,
            integrity: Arc::new(IntegrityStats::new()),
            next_version: Arc::new(AtomicU32::new(0)),
        }
    }

    /// The YCSB load phase, server-side: installs each `(key, value)` of
    /// `entries` into the first empty slot on its probe path, as a PUT's
    /// probe finds it, and returns how many it loaded. The stream is
    /// consumed one key at a time; nothing is staged.
    ///
    /// Each key leaves what a [`PrismKvClient::put`] into an empty slot
    /// leaves, made by the same parts, without the engine or the chain
    /// observer. It opens a connection as a client does. Per key, it
    /// encodes the entry once, at the version that client's next PUT
    /// would draw; pops the smallest fitting size class's free list, as
    /// ALLOCATE does; stages `(ptr, bound)` in the connection's scratch,
    /// as the install chain's WRITE and redirect do; writes the image
    /// and swaps the word in from the zero word (the install step
    /// replay uses); and logs the install record straight from the
    /// encoded entry through the tap's writer, then barriers. The
    /// arena, every disk file and its synced length, and the free
    /// lists' order come out byte-identical to a PUT per key.
    ///
    /// # Errors
    ///
    /// Stops at the first key it refuses ([`LoadError`]): a slot on its
    /// probe path already holds it, or every one holds another key; its
    /// entry fits no size class; or its class's free list is empty.
    pub fn load<K, V>(&self, entries: impl IntoIterator<Item = (K, V)>) -> Result<u64, LoadError>
    where
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let client = self.open_client();
        let (arena, freelists) = (self.server.arena(), self.server.freelists());
        let mut e = Vec::new();
        let mut at = 0;
        for (key, value) in entries {
            let key = key.as_ref();
            entry::encode_versioned_into(&mut e, key, value.as_ref(), client.next_version());
            let len = e.len() as u64;
            let class = self
                .view
                .class_for(len)
                .ok_or(LoadError::TooLarge { at, len })?;
            let slot = self
                .load_slot(key)
                .map_err(|slot| LoadError::Occupied { at, slot })?;
            let gate = freelists.gate_read();
            let (ptr, _) = freelists
                .pop(class)
                .map_err(|_| LoadError::Exhausted { at, class })?;
            let mut word = [0u8; SLOT as usize];
            word[..8].copy_from_slice(&ptr.to_le_bytes());
            word[8..].copy_from_slice(&len.to_le_bytes());
            // The table, the pools and the scratch lie in the arena, so a
            // refusal here is an occupied slot.
            let installed = arena.write(client.scratch_addr, &word).is_ok()
                && install_at(arena, self.view.slot_addr(slot), &word, &e);
            drop(gate);
            if !installed {
                // §3.2: a loser frees its own orphan.
                let _ = freelists.free(ptr);
                return Err(LoadError::Occupied { at, slot });
            }
            self.log.append(&self.server, slot, &word, |image| {
                image.copy_from_slice(&e[..image.len()]);
                true
            });
            at += 1;
        }
        Ok(at)
    }

    /// The slot [`load`](Self::load) installs `key` in: the first empty
    /// one on its probe path, passing slots that hold another key (or
    /// bytes no key decodes from), as a PUT's probe does. `Err` names
    /// the slot that refuses it: one already holding `key`, or the
    /// path's first when no slot on it is empty.
    fn load_slot(&self, key: &[u8]) -> Result<u64, u64> {
        let arena = self.server.arena();
        let slot = |attempt| self.view.scheme.slot(key, attempt, self.view.capacity);
        for attempt in 0..self.view.probe_limit() {
            let owner = match arena.read_u64(self.view.slot_addr(slot(attempt))) {
                Ok(0) => return Ok(slot(attempt)),
                Ok(ptr) => arena.read(ptr, (entry::HEADER + key.len()) as u64).ok(),
                Err(_) => None,
            };
            if owner.as_deref().and_then(entry::decode_key) == Some(key) {
                return Err(slot(attempt));
            }
        }
        Err(slot(0))
    }
}

/// A pool buffer is live while a slot points at it. Every other one
/// that is not free is a lost CAS whose orphan notification died with
/// its client, or a displaced entry whose free never arrived.
impl Pooled for PrismKvServer {
    fn freelists(&self) -> &FreeLists {
        self.server.freelists()
    }

    fn reachable(&self) -> IntSet<u64> {
        let arena = self.server.arena();
        (0..self.view.capacity)
            .filter_map(|i| arena.read_u64(self.view.slot_addr(i)).ok())
            .collect()
    }
}

impl std::fmt::Debug for PrismKvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrismKvServer")
            .field("capacity", &self.view.capacity)
            .finish_non_exhaustive()
    }
}

/// A PRISM-KV client: builds the op state machines.
#[derive(Debug, Clone)]
pub struct PrismKvClient {
    view: KvView,
    scratch_addr: u64,
    scratch_rkey: u32,
    integrity: Arc<IntegrityStats>,
    next_version: Arc<AtomicU32>,
}

impl PrismKvClient {
    /// The store layout this client addresses.
    pub fn view(&self) -> &KvView {
        &self.view
    }

    /// Shares corruption counters with the harness: detections,
    /// repairs, and clean aborts observed by this client's ops are
    /// recorded in `stats`.
    pub fn with_integrity(mut self, stats: Arc<IntegrityStats>) -> Self {
        self.integrity = stats;
        self
    }

    /// This client's corruption counters.
    pub fn integrity(&self) -> &Arc<IntegrityStats> {
        &self.integrity
    }

    /// Starts a GET; returns the machine and its first request.
    pub fn get(&self, key: &[u8]) -> (GetOp, Request) {
        let op = GetOp {
            key: key.to_vec(),
            attempt: 0,
            crc_retries: 0,
            verify_failed: false,
        };
        let req = op.probe_request(self);
        (op, req)
    }

    /// Starts a PUT.
    pub fn put(&self, key: &[u8], value: &[u8]) -> (PutOp, Request) {
        let op = PutOp {
            key: key.to_vec(),
            value: value.to_vec(),
            version: self.next_version(),
            attempt: 0,
            retries: 0,
            state: PutState::Probe,
            delete: false,
            verify_failed: false,
            in_doubt: false,
        };
        let req = op.probe_request(self);
        (op, req)
    }

    /// The entry version the next PUT or load stamps.
    fn next_version(&self) -> u32 {
        self.next_version
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1)
    }

    /// Starts a DELETE (a PUT machine that installs null).
    pub fn delete(&self, key: &[u8]) -> (PutOp, Request) {
        let op = PutOp {
            key: key.to_vec(),
            value: Vec::new(),
            version: 0,
            attempt: 0,
            retries: 0,
            state: PutState::Probe,
            delete: true,
            verify_failed: false,
            in_doubt: false,
        };
        let req = op.probe_request(self);
        (op, req)
    }
}

/// GET state machine: one bounded indirect READ per probe (§6.1).
/// Entries are verified against their embedded checksum; a mismatch
/// triggers a bounded re-read ([`MAX_CRC_RETRIES`]) before the op
/// fails cleanly — the Pilaf detect-and-retry pattern, here only ever
/// exercised by injected corruption.
#[derive(Debug, Clone)]
pub struct GetOp {
    key: Vec<u8>,
    attempt: u64,
    crc_retries: u32,
    verify_failed: bool,
}

impl GetOp {
    fn probe_request(&self, c: &PrismKvClient) -> Request {
        let slot = c.view.scheme.slot(&self.key, self.attempt, c.view.capacity);
        Request::Chain(vec![ops::read_indirect_bounded(
            c.view.slot_addr(slot),
            c.view.max_entry_len,
            c.view.data_rkey,
        )])
    }

    /// Re-arms the op after a transport timeout or a corrupt reply.
    /// Probes are read-only, so the current one is simply re-sent.
    pub fn reissue(&self, c: &PrismKvClient) -> Request {
        self.probe_request(c)
    }

    /// Feeds the probe reply; returns the next step.
    pub fn on_reply(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        let Ok(results) = reply.into_chain() else {
            return KvStep::done(KvOutcome::Failed("GET reply lost"));
        };
        match results.first().map(|r| (&r.status, &r.data)) {
            Some((OpStatus::Ok, data)) => match entry::decode_verified(data) {
                Ok((k, v, _)) if k == self.key => {
                    self.resolve(c, KvOutcome::Value(Some(v.to_vec())))
                }
                Ok(_) => self.next_probe(c),
                // Checksum mismatch or a header too damaged to frame
                // the read: detected corruption. Re-read a bounded
                // number of times (a racing overwrite heals it; the
                // winner's entry has a valid checksum), then give up
                // with a typed failure.
                Err(_) => {
                    c.integrity.note_detected();
                    self.verify_failed = true;
                    self.crc_retries += 1;
                    if self.crc_retries > MAX_CRC_RETRIES {
                        c.integrity.note_aborted();
                        KvStep::done(KvOutcome::Failed("persistent entry CRC mismatch"))
                    } else {
                        KvStep::send(self.probe_request(c))
                    }
                }
            },
            // Null pointer: the slot is empty. Under linear probing an
            // empty slot terminates the probe sequence.
            Some((OpStatus::Error(RdmaError::BadIndirectTarget(0)), _)) => {
                self.resolve(c, KvOutcome::Value(None))
            }
            _ => {
                if self.verify_failed {
                    c.integrity.note_aborted();
                }
                KvStep::done(KvOutcome::Failed("GET probe error"))
            }
        }
    }

    /// A clean completion; if this op had detected corruption along
    /// the way, the damage resolved (healed copy, or the entry was
    /// overwritten/deleted out from under it) — count the repair.
    fn resolve(&mut self, c: &PrismKvClient, outcome: KvOutcome) -> KvStep {
        if self.verify_failed {
            c.integrity.note_repaired();
            self.verify_failed = false;
        }
        KvStep::done(outcome)
    }

    fn next_probe(&mut self, c: &PrismKvClient) -> KvStep {
        self.attempt += 1;
        if self.attempt >= c.view.probe_limit() {
            self.resolve(c, KvOutcome::Value(None))
        } else {
            KvStep::send(self.probe_request(c))
        }
    }
}

#[derive(Debug, Clone)]
enum PutState {
    Probe,
    Install {
        slot: u64,
        old: [u8; 16],
    },
    /// A transport reissue found an install chain in flight with an
    /// unknown outcome: re-read the slot to learn whether the lost
    /// install published before deciding anything.
    Resolve {
        slot: u64,
        old: [u8; 16],
    },
}

/// PUT/DELETE state machine: probe round trip, then the install chain
/// (§6.1). Retries the whole sequence on CAS races.
///
/// Transport reissue is at-most-once: [`PutOp::reissue`] never blindly
/// re-runs a possibly-executed install. A lost install reply leaves the
/// publish in doubt, and re-applying it after a racing writer landed
/// would resurrect a stale value over the newer one — a linearizability
/// violation readers can observe. The resolve read disambiguates first.
#[derive(Debug, Clone)]
pub struct PutOp {
    key: Vec<u8>,
    value: Vec<u8>,
    version: u32,
    attempt: u64,
    retries: u32,
    state: PutState,
    delete: bool,
    verify_failed: bool,
    /// An install chain was sent whose reply never arrived: its CAS may
    /// have executed. Once set, every CAS failure routes back through
    /// the resolve read — the lost chain could still land at any time.
    in_doubt: bool,
}

/// The raw 16-byte slot word a probe or resolve chain reads first.
fn slot_word(results: &[OpResult]) -> Option<[u8; 16]> {
    results.first()?.expect_data().ok()?.try_into().ok()
}

impl PutOp {
    fn probe_request(&self, c: &PrismKvClient) -> Request {
        let slot = c.view.scheme.slot(&self.key, self.attempt, c.view.capacity);
        let slot_addr = c.view.slot_addr(slot);
        // Op 1 captures the raw (ptr, bound) word for the CAS compare;
        // op 2 fetches the entry header + key to verify slot ownership.
        Request::Chain(vec![
            ops::read(slot_addr, SLOT as u32, c.view.data_rkey),
            ops::read_indirect_bounded(
                slot_addr,
                (entry::HEADER + self.key.len()) as u32,
                c.view.data_rkey,
            ),
        ])
    }

    fn install_request(&self, c: &PrismKvClient, slot: u64, old: [u8; 16]) -> Option<Request> {
        if self.delete {
            return Some(Request::Chain(vec![ops::cas_args(
                CasMode::Eq,
                c.view.slot_addr(slot),
                c.view.data_rkey,
                DataArg::Inline(old.to_vec()),
                DataArg::Inline(vec![0u8; 16]),
                16,
                full_mask(16),
                full_mask(16),
            )]));
        }
        let e = entry::encode_versioned(&self.key, &self.value, self.version);
        let bound = e.len() as u64;
        let class = c.view.class_for(bound)?;
        let stage = Redirect {
            addr: c.scratch_addr,
            rkey: c.scratch_rkey,
        };
        let guard = Guard::Unchanged { old, bound };
        let (target, rkey) = (c.view.slot_addr(slot), c.view.data_rkey);
        let chain = install::chain(target, rkey, stage, class, e, guard);
        Some(Request::Chain(chain.into()))
    }

    /// Feeds a reply; returns the next step.
    pub fn on_reply(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        let step = self.advance(c, reply);
        // Integrity accounting at op completion: if this op saw
        // corruption in its probe, a successful install *is* the
        // overwrite that repaired it; a clean failure is a corrupt
        // abort. Either way, never a silent wrong answer.
        if self.verify_failed {
            if let KvStep::Done { outcome, .. } = &step {
                match outcome {
                    KvOutcome::Failed(_) => c.integrity.note_aborted(),
                    _ => c.integrity.note_repaired(),
                }
                self.verify_failed = false;
            }
        }
        step
    }

    fn advance(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        let Ok(results) = reply.into_chain() else {
            return KvStep::done(KvOutcome::Failed("PUT reply lost"));
        };
        match self.state.clone() {
            PutState::Probe => {
                let (Some(slot_word), [_, owner]) = (slot_word(&results), results.as_slice())
                else {
                    return KvStep::done(KvOutcome::Failed("PUT probe error"));
                };
                let slot = c.view.scheme.slot(&self.key, self.attempt, c.view.capacity);
                if Word::PtrBound.ptr(&slot_word) == 0 {
                    // Empty slot: claim it (compare against the observed
                    // empty word).
                    return self.enter_install(c, slot, slot_word);
                }
                // Occupied: does it hold our key?
                match &owner.status {
                    OpStatus::Ok => match entry::decode_key(&owner.data) {
                        Some(k) if k == self.key => self.enter_install(c, slot, slot_word),
                        // In collisionless mode slot ownership is
                        // deterministic, so a key mismatch (or an
                        // unparsable header) is damage, not another
                        // key's entry — and the install about to CAS
                        // over the slot is exactly the overwrite that
                        // heals it.
                        _ if matches!(c.view.scheme, HashScheme::Collisionless) => {
                            c.integrity.note_detected();
                            self.verify_failed = true;
                            self.enter_install(c, slot, slot_word)
                        }
                        _ => self.next_probe(c),
                    },
                    // Pointer was non-null at op 1 but null/invalid at
                    // op 2: a concurrent delete. Retry the probe.
                    _ => self.retry_probe(c),
                }
            }
            PutState::Install { slot, old } => {
                if self.delete {
                    return match results.first().map(|r| &r.status) {
                        Some(OpStatus::Ok) => self.replaced(old),
                        Some(OpStatus::CasFailed) => self.after_cas_failed(c, slot, old),
                        _ => KvStep::done(KvOutcome::Failed("DELETE CAS error")),
                    };
                }
                match install::read(&results, Word::PtrBound) {
                    Installed::Won { .. } => self.replaced(old),
                    lost @ Installed::Lost { .. } => {
                        // Lost the race: reclaim our orphaned buffer,
                        // then resume from the probe (or, with a lost
                        // install still in doubt, from the resolve read).
                        let mut step = self.after_cas_failed(c, slot, old);
                        let (KvStep::Send { background: bg, .. }
                        | KvStep::Done { background: bg, .. }) = &mut step;
                        *bg = lost.garbage().map(free_request);
                        step
                    }
                    Installed::Failed(f) => KvStep::done(KvOutcome::Failed(match f {
                        Failure::Short => "install reply short",
                        Failure::Allocate => "allocation failed",
                        Failure::ReadBack => "scratch read error",
                        Failure::Cas => "install CAS error",
                    })),
                }
            }
            PutState::Resolve { slot, old } => self.resolve(c, slot, old, &results),
        }
    }

    /// Decides what a reissued PUT does once the resolve read returns.
    ///
    /// Three cases, each applying the op's effect at most once:
    /// - the slot still holds the compare word: nothing (including our
    ///   lost install) published, so the same-compare install chain is
    ///   re-sent — a straggling duplicate of the lost chain can only
    ///   fail its CAS against the word the re-send swaps in;
    /// - the slot holds exactly the entry we encoded (key, value, and
    ///   version are all inside the byte comparison): the lost install
    ///   published and only the ack was lost, so the op completes and
    ///   frees the entry it displaced;
    /// - the slot holds anything else: either our install never ran, or
    ///   it ran and a later writer already displaced it. Both linearize
    ///   the op at (or immediately before) that writer, so it completes
    ///   without applying anything — re-installing here is exactly the
    ///   stale-value resurrection this state exists to prevent.
    fn resolve(
        &mut self,
        c: &PrismKvClient,
        slot: u64,
        old: [u8; 16],
        results: &[OpResult],
    ) -> KvStep {
        let (Some(word), [_, entry]) = (slot_word(results), results) else {
            return KvStep::done(KvOutcome::Failed("resolve read error"));
        };
        if word == old {
            return self.enter_install(c, slot, old);
        }
        if self.delete {
            // Ours-or-equivalent if now null, overwritten otherwise;
            // either way the delete is complete. The displaced entry is
            // leaked rather than freed: whether we own it is unknowable.
            return KvStep::done(KvOutcome::Written);
        }
        let ours = entry::encode_versioned(&self.key, &self.value, self.version);
        if matches!(entry.expect_data(), Ok(d) if d == &ours[..]) {
            return self.replaced(old);
        }
        KvStep::done(KvOutcome::Written)
    }

    /// A completed write that replaced `old`: frees the entry it pointed
    /// at.
    fn replaced(&self, old: [u8; 16]) -> KvStep {
        let old_ptr = Word::PtrBound.ptr(&old);
        KvStep::Done {
            outcome: KvOutcome::Written,
            background: (old_ptr != 0).then(|| free_request(old_ptr)),
        }
    }

    /// A definitive CAS failure: with no lost install in doubt the op
    /// restarts from the probe; with one in doubt it must re-read the
    /// slot first — the lost chain may have published in the meantime.
    fn after_cas_failed(&mut self, c: &PrismKvClient, slot: u64, old: [u8; 16]) -> KvStep {
        if self.in_doubt {
            self.state = PutState::Resolve { slot, old };
            return KvStep::send(self.resolve_request(c, slot));
        }
        self.retry_probe(c)
    }

    /// Re-arms the op after a transport timeout or a corrupt reply.
    ///
    /// Probe legs are read-only and simply re-sent. An unanswered
    /// install (or resolve re-install) flags the op in-doubt and routes
    /// through `PutState::Resolve` instead of re-running the chain.
    pub fn reissue(&mut self, c: &PrismKvClient) -> Request {
        match self.state.clone() {
            PutState::Probe => self.probe_request(c),
            PutState::Install { slot, old } | PutState::Resolve { slot, old } => {
                self.in_doubt = true;
                self.state = PutState::Resolve { slot, old };
                self.resolve_request(c, slot)
            }
        }
    }

    /// The resolve read: the raw slot word (for the compare check) plus
    /// the entry it points at (for the did-ours-land check).
    fn resolve_request(&self, c: &PrismKvClient, slot: u64) -> Request {
        let slot_addr = c.view.slot_addr(slot);
        Request::Chain(vec![
            ops::read(slot_addr, SLOT as u32, c.view.data_rkey),
            ops::read_indirect_bounded(slot_addr, c.view.max_entry_len, c.view.data_rkey),
        ])
    }

    fn enter_install(&mut self, c: &PrismKvClient, slot: u64, old: [u8; 16]) -> KvStep {
        match self.install_request(c, slot, old) {
            Some(req) => {
                self.state = PutState::Install { slot, old };
                KvStep::send(req)
            }
            None => KvStep::done(KvOutcome::Failed("entry exceeds all size classes")),
        }
    }

    fn next_probe(&mut self, c: &PrismKvClient) -> KvStep {
        self.attempt += 1;
        if self.attempt >= c.view.probe_limit() {
            return KvStep::done(KvOutcome::Failed("hash table full along probe path"));
        }
        self.state = PutState::Probe;
        KvStep::send(self.probe_request(c))
    }

    fn retry_probe(&mut self, c: &PrismKvClient) -> KvStep {
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            return KvStep::done(KvOutcome::Failed("retry budget exhausted"));
        }
        self.attempt = 0;
        self.state = PutState::Probe;
        KvStep::send(self.probe_request(c))
    }
}

/// A PRISM-KV operation in flight, as [`KvProtocol`] drives it.
#[derive(Debug, Clone)]
pub enum PrismKvOp {
    /// A GET.
    Get(GetOp),
    /// A PUT.
    Put(PutOp),
}

impl KvProtocol for PrismKvClient {
    type Op = PrismKvOp;

    /// No client compute is charged: a GET is its one bounded READ.
    const GET_COMPUTE_NS: u64 = 0;

    fn start(&self, key: &[u8], value: Option<&[u8]>) -> (PrismKvOp, Request) {
        match value {
            None => {
                let (op, req) = self.get(key);
                (PrismKvOp::Get(op), req)
            }
            Some(value) => {
                let (op, req) = self.put(key, value);
                (PrismKvOp::Put(op), req)
            }
        }
    }

    fn on_reply(&self, op: &mut PrismKvOp, reply: Reply) -> KvStep {
        match op {
            PrismKvOp::Get(m) => m.on_reply(self, reply),
            PrismKvOp::Put(m) => m.on_reply(self, reply),
        }
    }

    /// Re-arms the *same* machine rather than starting a fresh one: a
    /// PUT whose install chain went unanswered may already have
    /// published, and blindly re-running it could resurrect its value
    /// over a newer racing write, so [`PutOp::reissue`] re-reads the
    /// slot and decides.
    fn reissue(&self, op: &mut PrismKvOp) -> Request {
        match op {
            PrismKvOp::Get(m) => m.reissue(self),
            PrismKvOp::Put(m) => m.reissue(self),
        }
    }

    /// Restamps the client's cached rkeys in place
    /// ([`prism_rdma::region::Rkey::restamped`]). This is the
    /// control-plane re-handshake — no data moves; only the incarnation
    /// stamp differs.
    fn refence(&mut self, inc: u64) {
        self.view.data_rkey = Rkey(self.view.data_rkey).restamped(inc).0;
        self.scratch_rkey = Rkey(self.scratch_rkey).restamped(inc).0;
    }

    /// When an install chain's CAS lost, its reply names the freshly
    /// allocated entry whose only reference died with this reply: the
    /// machine reissued through its resolve path and can never learn
    /// the address. A won CAS leaves the buffer live in the slot (the
    /// resolve path frees what it displaced), and probe and resolve
    /// chains allocate nothing.
    fn harvest(reply: Reply) -> Option<u64> {
        match install::read(&reply.into_chain().ok()?, Word::PtrBound) {
            lost @ Installed::Lost { .. } => lost.garbage(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive;
    use prism_core::freelist::FreeError;
    use prism_core::msg::execute_local;

    fn drive_get(server: &PrismKvServer, c: &PrismKvClient, key: &[u8]) -> (KvOutcome, u32) {
        let (mut op, req) = c.get(key);
        drive(server.server(), req, |r| op.on_reply(c, r))
    }

    fn drive_put(
        server: &PrismKvServer,
        c: &PrismKvClient,
        key: &[u8],
        value: &[u8],
    ) -> (KvOutcome, u32) {
        let (mut op, req) = c.put(key, value);
        drive(server.server(), req, |r| op.on_reply(c, r))
    }

    fn send_bg(server: &PrismKvServer, bg: Option<Request>) {
        if let Some(req) = bg {
            let _ = execute_local(server.server(), &req);
        }
    }

    fn small_store() -> (PrismKvServer, PrismKvClient) {
        let cfg = PrismKvConfig {
            capacity: 64,
            scheme: HashScheme::Fnv,
            max_entry_len: 256,
            classes: vec![
                SizeClass {
                    buf_len: 64,
                    count: 32,
                },
                SizeClass {
                    buf_len: 256,
                    count: 32,
                },
            ],
        };
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        (s, c)
    }

    /// Probes a PUT machine against the live store and returns the
    /// install chain it wants to send next.
    fn probe_to_install(
        s: &PrismKvServer,
        c: &PrismKvClient,
        op: &mut PutOp,
        req: Request,
    ) -> Request {
        let reply = execute_local(s.server(), &req);
        match op.on_reply(c, reply) {
            KvStep::Send { request, .. } => request,
            step => panic!("expected the install send, got {step:?}"),
        }
    }

    /// A chain reply with fewer results than its request had ops decodes
    /// from a valid frame. It ends a GET, and a PUT in each of its three
    /// states, with a typed failure rather than a panic.
    #[test]
    fn short_chain_replies_fail_without_panicking() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"k", b"v0");
        let result = |status, data: &[u8]| OpResult {
            status,
            data: data.to_vec(),
        };
        // A nack for the GET's one READ; a non-null slot word for the
        // PUT's chains, whose second result is then missing.
        let nack = result(OpStatus::Error(RdmaError::ChainAborted), &[]);
        let word = result(OpStatus::Ok, &[7; 16]);
        let (get, _) = c.get(b"k");
        let (probe, req) = c.put(b"k", b"v1");
        let mut install = probe.clone();
        probe_to_install(&s, &c, &mut install, req);
        let mut resolve = install.clone();
        resolve.reissue(&c);
        let failed = |step: KvStep| {
            assert!(
                matches!(
                    &step,
                    KvStep::Done {
                        outcome: KvOutcome::Failed(_),
                        ..
                    }
                ),
                "{step:?}"
            );
        };
        for results in [vec![], vec![nack]] {
            failed(get.clone().on_reply(&c, Reply::Chain(results)));
        }
        for op in [probe, install, resolve] {
            for results in [vec![], vec![word.clone()]] {
                failed(op.clone().on_reply(&c, Reply::Chain(results)));
            }
        }
    }

    /// A transport-reissued PUT whose install chain executed — only the
    /// ack was lost — must not re-apply itself over a racing write that
    /// landed in between. The resolve read sees a foreign entry and
    /// completes without re-installing; blindly re-running the chain
    /// would resurrect the stale value, a linearizability violation
    /// readers can observe.
    #[test]
    fn reissued_put_does_not_resurrect_over_a_newer_write() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"k", b"v0");

        let (mut op, req) = c.put(b"k", b"va");
        let install = probe_to_install(&s, &c, &mut op, req);
        // The install executes at the server; its reply is "lost".
        let _lost_ack = execute_local(s.server(), &install);

        // A racing writer overwrites in the ack gap.
        drive_put(&s, &c, b"k", b"vb");

        let reply = execute_local(s.server(), &op.reissue(&c));
        match op.on_reply(&c, reply) {
            KvStep::Done { outcome, .. } => assert_eq!(outcome, KvOutcome::Written),
            step => panic!("expected completion, got {step:?}"),
        }
        let (o, _) = drive_get(&s, &c, b"k");
        assert_eq!(o, KvOutcome::Value(Some(b"vb".to_vec())));
    }

    /// Lost ack with no racing writer: the resolve read finds the slot
    /// holding exactly the entry this op encoded (version included), so
    /// the install provably published — the op completes and the entry
    /// it displaced is its to free.
    #[test]
    fn reissued_put_detects_its_own_published_install() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"k", b"v0");

        let (mut op, req) = c.put(b"k", b"va");
        let install = probe_to_install(&s, &c, &mut op, req);
        let _lost_ack = execute_local(s.server(), &install);

        let reply = execute_local(s.server(), &op.reissue(&c));
        match op.on_reply(&c, reply) {
            KvStep::Done {
                outcome,
                background,
            } => {
                assert_eq!(outcome, KvOutcome::Written);
                assert!(
                    background.is_some(),
                    "the displaced v0 buffer is this op's to free"
                );
                send_bg(&s, background);
            }
            step => panic!("expected completion, got {step:?}"),
        }
        let (o, _) = drive_get(&s, &c, b"k");
        assert_eq!(o, KvOutcome::Value(Some(b"va".to_vec())));
    }

    /// The install chain never reached the server (request dropped):
    /// the resolve read finds the slot still holding the compare word,
    /// so nothing published and the same-compare install is re-sent —
    /// the op still applies, exactly once.
    #[test]
    fn reissued_put_reinstalls_when_the_lost_chain_never_ran() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"k", b"v0");

        let (mut op, req) = c.put(b"k", b"va");
        let _dropped_install = probe_to_install(&s, &c, &mut op, req);

        let reply = execute_local(s.server(), &op.reissue(&c));
        let install = match op.on_reply(&c, reply) {
            KvStep::Send { request, .. } => request,
            step => panic!("expected the re-sent install, got {step:?}"),
        };
        let reply = execute_local(s.server(), &install);
        match op.on_reply(&c, reply) {
            KvStep::Done {
                outcome,
                background,
            } => {
                assert_eq!(outcome, KvOutcome::Written);
                send_bg(&s, background);
            }
            step => panic!("expected completion, got {step:?}"),
        }
        let (o, _) = drive_get(&s, &c, b"k");
        assert_eq!(o, KvOutcome::Value(Some(b"va".to_vec())));
    }

    #[test]
    fn get_missing_key_is_none() {
        let (s, c) = small_store();
        let (outcome, rtts) = drive_get(&s, &c, b"absent");
        assert_eq!(outcome, KvOutcome::Value(None));
        assert_eq!(rtts, 1, "a missing key costs one round trip");
    }

    #[test]
    fn put_then_get_round_trips() {
        let (s, c) = small_store();
        let (o, rtts) = drive_put(&s, &c, b"alpha", b"value-one");
        assert_eq!(o, KvOutcome::Written);
        assert_eq!(rtts, 2, "PUT = probe + install (§6.1)");
        let (o, rtts) = drive_get(&s, &c, b"alpha");
        assert_eq!(o, KvOutcome::Value(Some(b"value-one".to_vec())));
        assert_eq!(rtts, 1, "GET = one indirect READ (§6.1)");
    }

    #[test]
    fn overwrite_replaces_value_and_frees_old_buffer() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"k", b"v1");
        let avail_before = s.server().freelists().available(FreeListId(0));
        drive_put(&s, &c, b"k", b"v2");
        let (o, _) = drive_get(&s, &c, b"k");
        assert_eq!(o, KvOutcome::Value(Some(b"v2".to_vec())));
        // Old buffer reclaimed: available count unchanged (pop one, free one).
        assert_eq!(
            s.server().freelists().available(FreeListId(0)),
            avail_before
        );
    }

    #[test]
    fn values_pick_smallest_fitting_class() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"small", b"x");
        assert_eq!(s.server().freelists().available(FreeListId(0)), 31);
        assert_eq!(s.server().freelists().available(FreeListId(1)), 32);
        drive_put(&s, &c, b"large", &[7u8; 200]);
        assert_eq!(s.server().freelists().available(FreeListId(1)), 31);
    }

    #[test]
    fn oversized_value_fails_cleanly() {
        let (s, c) = small_store();
        let (o, _) = drive_put(&s, &c, b"big", &[0u8; 1000]);
        assert_eq!(o, KvOutcome::Failed("entry exceeds all size classes"));
    }

    #[test]
    fn delete_removes_key_and_frees_buffer() {
        let (s, c) = small_store();
        drive_put(&s, &c, b"gone", b"soon");
        let before = s.server().freelists().available(FreeListId(0));
        let (mut op, req) = c.delete(b"gone");
        let mut bg_sent = 0;
        let (outcome, _) = drive(s.server(), req, |reply| {
            let step = op.on_reply(&c, reply);
            let (KvStep::Send { background, .. } | KvStep::Done { background, .. }) = &step;
            bg_sent += u32::from(background.is_some());
            step
        });
        assert_eq!(outcome, KvOutcome::Written);
        assert_eq!(bg_sent, 1, "delete frees the old buffer");
        assert_eq!(s.server().freelists().available(FreeListId(0)), before + 1);
        let (o, _) = drive_get(&s, &c, b"gone");
        assert_eq!(o, KvOutcome::Value(None));
    }

    #[test]
    fn colliding_keys_coexist_via_probing() {
        // Force collisions by filling a tiny table.
        let cfg = PrismKvConfig {
            capacity: 4,
            scheme: HashScheme::Fnv,
            max_entry_len: 64,
            classes: vec![SizeClass {
                buf_len: 64,
                count: 16,
            }],
        };
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        for i in 0..4u8 {
            let (o, _) = drive_put(&s, &c, &[b'k', i], &[b'v', i]);
            assert_eq!(o, KvOutcome::Written, "key {i}");
        }
        for i in 0..4u8 {
            let (o, _) = drive_get(&s, &c, &[b'k', i]);
            assert_eq!(o, KvOutcome::Value(Some(vec![b'v', i])), "key {i}");
        }
    }

    #[test]
    fn table_full_put_fails() {
        let cfg = PrismKvConfig {
            capacity: 2,
            scheme: HashScheme::Fnv,
            max_entry_len: 64,
            classes: vec![SizeClass {
                buf_len: 64,
                count: 16,
            }],
        };
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        assert_eq!(drive_put(&s, &c, b"a", b"1").0, KvOutcome::Written);
        assert_eq!(drive_put(&s, &c, b"b", b"2").0, KvOutcome::Written);
        let (o, _) = drive_put(&s, &c, b"c", b"3");
        assert!(matches!(o, KvOutcome::Failed(_)));
    }

    #[test]
    fn collisionless_paper_config() {
        let cfg = PrismKvConfig::paper(128, 32);
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        use crate::hash::key_bytes;
        for k in 0..128u64 {
            let (o, rtts) = drive_put(&s, &c, &key_bytes(k), &[k as u8; 32]);
            assert_eq!(o, KvOutcome::Written);
            assert_eq!(rtts, 2);
        }
        for k in 0..128u64 {
            let (o, rtts) = drive_get(&s, &c, &key_bytes(k));
            assert_eq!(o, KvOutcome::Value(Some(vec![k as u8; 32])));
            assert_eq!(rtts, 1);
        }
    }

    #[test]
    fn exhausted_freelist_fails_put() {
        let cfg = PrismKvConfig {
            capacity: 16,
            scheme: HashScheme::Fnv,
            max_entry_len: 64,
            classes: vec![SizeClass {
                buf_len: 64,
                count: 2,
            }],
        };
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        assert_eq!(drive_put(&s, &c, b"a", b"1").0, KvOutcome::Written);
        assert_eq!(drive_put(&s, &c, b"b", b"2").0, KvOutcome::Written);
        let (o, _) = drive_put(&s, &c, b"c", b"3");
        assert_eq!(o, KvOutcome::Failed("allocation failed"));
    }

    #[test]
    fn refill_daemon_extends_a_drained_class() {
        let cfg = PrismKvConfig {
            capacity: 64,
            scheme: HashScheme::Fnv,
            max_entry_len: 64,
            classes: vec![SizeClass {
                buf_len: 64,
                count: 8,
            }],
        };
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        // Fill all 8 buffers; the 9th PUT fails without a refill.
        for i in 0..8u8 {
            assert_eq!(drive_put(&s, &c, &[b'k', i], &[i; 8]).0, KvOutcome::Written);
        }
        assert_eq!(
            drive_put(&s, &c, b"k9", b"x").0,
            KvOutcome::Failed("allocation failed")
        );
        // The §6.1 periodic check kicks in.
        let added = s.maybe_refill();
        assert!(added > 0, "refill must post new buffers");
        assert_eq!(drive_put(&s, &c, b"k9", b"x").0, KvOutcome::Written);
        // Refilled buffers satisfy the same-rkey rule: GET works.
        assert_eq!(
            drive_get(&s, &c, b"k9").0,
            KvOutcome::Value(Some(b"x".to_vec()))
        );
        // When availability is healthy, the check is a no-op.
        assert_eq!(s.maybe_refill(), 0);
    }

    /// A restart forgets the refill extents along with the headroom it
    /// rewinds, so a pre-crash client's free of a refilled buffer is
    /// refused: accepted, it would put the buffer in circulation before
    /// the next refill carves the same range and posts it again.
    #[test]
    fn restart_refuses_frees_into_forgotten_refill_extents() {
        let s = PrismKvServer::new(&PrismKvConfig {
            capacity: 64,
            scheme: HashScheme::Fnv,
            max_entry_len: 64,
            classes: vec![SizeClass {
                buf_len: 64,
                count: 8,
            }],
        });
        let (id, lists) = (FreeListId(0), s.server().freelists());
        let drain = || std::iter::from_fn(|| lists.pop(id).ok().map(|(a, _)| a)).collect();
        assert!(s.maybe_refill() > 0, "8 buffers sit below low water");
        let held = *lists.snapshot(id).last().unwrap();
        let _: Vec<u64> = drain();
        s.amnesia_restart();
        let free = Request::Rpc([&[0x01][..], &held.to_le_bytes()].concat());
        assert_eq!(execute_local(s.server(), &free), Reply::Rpc(vec![0xFF]));
        let mut handed_out: Vec<u64> = drain();
        assert!(s.maybe_refill() > 0, "the rewound headroom is carved again");
        handed_out.extend(drain());
        assert!(handed_out.contains(&held));
        let n = handed_out.len();
        handed_out.sort_unstable();
        handed_out.dedup();
        assert_eq!(handed_out.len(), n, "a buffer handed out twice");
    }

    /// A refill records its extent and posts its buffers in one step: a
    /// refilled buffer popped and freed at once comes back, and a free
    /// one stride past the new extent is refused.
    #[test]
    fn refilled_buffers_are_pool_members_from_their_first_pop() {
        let s = PrismKvServer::new(&PrismKvConfig {
            capacity: 64,
            scheme: HashScheme::Fnv,
            max_entry_len: 64,
            classes: vec![SizeClass {
                buf_len: 64,
                count: 8,
            }],
        });
        let (id, lists) = (FreeListId(0), s.server().freelists());
        assert_eq!(s.maybe_refill(), 64);
        let last = *lists.snapshot(id).last().unwrap();
        for _ in 0..8 {
            lists.pop(id).unwrap();
        }
        let (first, _) = lists.pop(id).unwrap();
        assert_eq!(last - first, 63 * 64, "one extent of 64 buffers");
        lists.free(first).unwrap();
        assert_eq!(lists.snapshot(id).last(), Some(&first));
        assert_eq!(
            lists.free(last + 64).unwrap_err(),
            FreeError::OutOfRange(last + 64)
        );
    }

    #[test]
    fn rotted_value_aborts_get_cleanly_and_overwrite_heals() {
        let cfg = PrismKvConfig::paper(8, 32);
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        let key = crate::hash::key_bytes(2);
        assert_eq!(drive_put(&s, &c, &key, &[7u8; 32]).0, KvOutcome::Written);
        // Rot one value bit behind the store's back.
        let slot = c
            .view()
            .slot_addr(c.view().scheme.slot(&key, 0, c.view().capacity));
        let ptr = s.server().arena().read_u64(slot).unwrap();
        s.server()
            .arena()
            .flip_bit(ptr + entry::HEADER as u64 + key.len() as u64 + 4, 3)
            .unwrap();
        // The GET detects the mismatch every re-read and fails cleanly
        // — it never returns the rotted bytes.
        let (o, rtts) = drive_get(&s, &c, &key);
        assert_eq!(o, KvOutcome::Failed("persistent entry CRC mismatch"));
        assert_eq!(rtts, 1 + MAX_CRC_RETRIES, "bounded re-read budget");
        assert_eq!(c.integrity().detected(), (MAX_CRC_RETRIES + 1) as u64);
        assert_eq!(c.integrity().aborted(), 1);
        let (_, corrupt) = s.scrub();
        assert_eq!(corrupt, 1, "scrub still sees the damage");
        // An overwrite installs a fresh checksummed entry: healed.
        assert_eq!(drive_put(&s, &c, &key, &[9u8; 32]).0, KvOutcome::Written);
        assert_eq!(s.scrub().1, 0, "overwrite heals the pool");
        assert_eq!(
            drive_get(&s, &c, &key).0,
            KvOutcome::Value(Some(vec![9u8; 32]))
        );
    }

    #[test]
    fn rotted_key_is_detected_by_put_probe_and_overwritten() {
        let cfg = PrismKvConfig::paper(8, 32);
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        let key = crate::hash::key_bytes(5);
        assert_eq!(drive_put(&s, &c, &key, &[1u8; 32]).0, KvOutcome::Written);
        let slot = c
            .view()
            .slot_addr(c.view().scheme.slot(&key, 0, c.view().capacity));
        let ptr = s.server().arena().read_u64(slot).unwrap();
        // Flip a key bit: the PUT probe's ownership check now
        // mismatches, which in collisionless mode is damage by
        // definition — the PUT detects it and installs over it.
        s.server()
            .arena()
            .flip_bit(ptr + entry::HEADER as u64, 0)
            .unwrap();
        assert_eq!(drive_put(&s, &c, &key, &[2u8; 32]).0, KvOutcome::Written);
        assert_eq!(c.integrity().detected(), 1);
        assert_eq!(c.integrity().repaired(), 1);
        assert_eq!(s.scrub().1, 0);
        assert_eq!(
            drive_get(&s, &c, &key).0,
            KvOutcome::Value(Some(vec![2u8; 32]))
        );
    }

    /// Eight threads PUT one key 50 times each. A PUT that loses its CAS
    /// more than [`MAX_RETRIES`] times fails with the typed outcome
    /// [`KvOutcome::Failed`] names for that (how often depends on how
    /// the threads interleave), so it is the one failure accepted. Every
    /// thread still lands a write, and the key ends up holding a value
    /// some PUT wrote.
    #[test]
    fn concurrent_puts_same_key_converge() {
        use std::thread;
        let cfg = PrismKvConfig::paper(16, 32);
        let s = Arc::new(PrismKvServer::new(&cfg));
        let key = crate::hash::key_bytes(3);
        let threads: Vec<_> = (0..8u8)
            .map(|i| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    let c = s.open_client();
                    let mut written = Vec::new();
                    for j in 0..50u8 {
                        let val: Vec<u8> = [i, j].repeat(16);
                        match drive_put(&s, &c, &crate::hash::key_bytes(3), &val).0 {
                            KvOutcome::Written => written.push(val),
                            KvOutcome::Failed("retry budget exhausted") => {}
                            other => panic!("thread {i} PUT {j}: {other:?}"),
                        }
                    }
                    written
                })
            })
            .collect();
        let mut written = Vec::new();
        for (i, t) in threads.into_iter().enumerate() {
            let mine = t.join().unwrap();
            assert!(!mine.is_empty(), "thread {i} landed no write");
            written.extend(mine);
        }
        let c = s.open_client();
        match drive_get(&s, &c, &key).0 {
            KvOutcome::Value(Some(v)) => assert!(written.contains(&v), "never written: {v:?}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Amnesia restart replays the write-ahead segment log: every
    /// acknowledged PUT survives, overwrites replay to their final
    /// value, and DELETEs stay deleted — with zero network resync,
    /// because a KV shard's log is its only copy.
    #[test]
    fn amnesia_restart_replays_the_segment_log() {
        let cfg = PrismKvConfig::paper(16, 32);
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        for k in 0..8u64 {
            let key = crate::hash::key_bytes(k);
            assert_eq!(
                drive_put(&s, &c, &key, &[k as u8; 32]).0,
                KvOutcome::Written
            );
        }
        // Overwrite one, delete another: replay must fold to the final
        // state, not any intermediate.
        let key2 = crate::hash::key_bytes(2);
        assert_eq!(drive_put(&s, &c, &key2, &[0xAA; 32]).0, KvOutcome::Written);
        let key5 = crate::hash::key_bytes(5);
        let (mut op, req) = c.delete(&key5);
        drive(s.server(), req, |r| op.on_reply(&c, r));

        let inc = s.amnesia_restart();
        assert_eq!(inc, 1);
        assert!(s.durable_stats().replayed() > 0, "replay rebuilt the table");

        // A pre-crash client is fenced (stale incarnation), then works
        // after the control-plane refence.
        let (_stale, req) = c.get(&crate::hash::key_bytes(0));
        let reply = execute_local(s.server(), &req);
        assert_eq!(reply.stale_incarnation(), Some(inc));
        let mut c = c.clone();
        c.refence(inc);

        for k in 0..8u64 {
            let key = crate::hash::key_bytes(k);
            let want = match k {
                2 => KvOutcome::Value(Some(vec![0xAA; 32])),
                5 => KvOutcome::Value(None),
                _ => KvOutcome::Value(Some(vec![k as u8; 32])),
            };
            assert_eq!(drive_get(&s, &c, &key).0, want, "key {k} after replay");
        }
        assert_eq!(s.scrub().1, 0, "nothing replayed is corrupt");
    }

    /// At-rest rot on the segment log is detected by CRC at replay:
    /// damaged records are dropped (the key reads absent or older), and
    /// nothing corrupt is ever installed where a GET could see it.
    #[test]
    fn amnesia_restart_survives_rotted_segments_without_serving_damage() {
        use prism_simnet::rng::SimRng;
        let cfg = PrismKvConfig::paper(16, 32);
        let s = PrismKvServer::new(&cfg);
        let c = s.open_client();
        for k in 0..8u64 {
            let key = crate::hash::key_bytes(k);
            assert_eq!(
                drive_put(&s, &c, &key, &[k as u8; 32]).0,
                KvOutcome::Written
            );
        }
        let mut rng = SimRng::new(7);
        assert!(s.disk().rot(&mut rng, 24) > 0, "rot landed on the log");

        let inc = s.amnesia_restart();
        let mut c = c.clone();
        c.refence(inc);
        for k in 0..8u64 {
            let key = crate::hash::key_bytes(k);
            match drive_get(&s, &c, &key).0 {
                // Either the record survived (bits missed its frame) or
                // it was dropped at a CRC check and the key is absent —
                // never a third, silently-wrong outcome.
                KvOutcome::Value(Some(v)) => assert_eq!(v, vec![k as u8; 32]),
                KvOutcome::Value(None) => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(s.scrub().1, 0, "nothing corrupt was installed");
    }
}
