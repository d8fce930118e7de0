//! PRISM-RS: linearizable replicated block storage over PRISM chains
//! (§7.3 of the paper).
//!
//! The protocol is multi-writer ABD (Attiya–Bar-Noy–Dolev, with the
//! Lynch–Shvartsman multi-writer extension, §7.1): values are replicated
//! at `n = 2f + 1` replicas, each tagged with a `(timestamp, client)`
//! pair; GETs and PUTs run a read phase then a write phase, each waiting
//! for `f + 1` replies.
//!
//! Replica layout (Figure 5): a metadata array whose entry for block `i`
//! is `[tag_i (8 B, big-endian) | addr_i (8 B)]`, where `addr_i` points
//! at a write-once buffer holding `[tag_i | value_i]`. The tag is
//! intentionally duplicated (§7.3): an indirect READ of `addr_i` fetches
//! tag and value atomically (the buffer is never modified after its
//! first write), and a single enhanced CAS on `tag_i|addr_i` orders
//! installs by tag.
//!
//! * **Read phase** — GETs: one indirect READ through `addr_i` per
//!   replica, returning `[tag | value]`. PUTs only need tags: one plain
//!   16-byte READ of the metadata entry.
//! * **Write phase** — the install chain of §7.3
//!   ([`prism_core::install`]): ALLOCATE `[tag | value]` and CAS_GT the
//!   entry to `[t' | addr]` if its tag is below `t'`; the reply names
//!   the new buffer so a losing client can reclaim its orphan.
//!
//! A replica acknowledging with `CasFailed` already stores a tag at
//! least as large — which satisfies the ABD write-phase obligation just
//! as an install does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prism_core::builder::ops;
use prism_core::crc::Crc32;
use prism_core::freelist::{free_request, FreeLists, Pooled};
use prism_core::install::{self, Guard, Installed, Word};
use prism_core::integrity::IntegrityStats;
use prism_core::msg::{Reply, Request};
use prism_core::op::{FreeListId, Redirect};
use prism_core::server::ChainObserver;
use prism_core::value::CasMode;
use prism_core::{OpResult, OpStatus, PrismOp, PrismServer};
use prism_rdma::hash::IntSet;
use prism_rdma::region::AccessFlags;
use prism_rdma::RdmaError;
use prism_store::{DurableStats, PayloadRef, Record, SegmentStore, SimDisk};

use crate::driver::{RsOutcome, RsProtocol, RsStep};
use crate::tag::Tag;

/// Metadata entry size: tag + buffer address.
pub const META: u64 = 16;

/// Block `i`'s metadata entry, `[tag_i (big-endian) | addr_i]`. A null
/// `addr` with [`Tag::MAX`] is a migration fence.
pub fn meta_word(tag: Tag, addr: u64) -> [u8; META as usize] {
    let mut word = [0u8; META as usize];
    word[..8].copy_from_slice(&tag.to_bytes());
    word[8..].copy_from_slice(&addr.to_le_bytes());
    word
}

/// Buffer header preceding the value: `[tag 8 B | crc u32 | pad u32]`.
/// The checksum covers `tag || value`, binding the tag to the bytes it
/// vouches for — a buffer whose value rotted (or whose install tore)
/// fails verification under *its own* tag and is never adopted by a
/// reader, a resync, or a scrub.
pub const BUF_HDR: u64 = 16;

/// Builds the self-verifying buffer image for `tag` + `value`.
pub fn encode_block(tag: Tag, value: &[u8]) -> Vec<u8> {
    let tag_bytes = tag.to_bytes();
    let mut crc = Crc32::new();
    crc.update(&tag_bytes).update(value);
    let mut p = Vec::with_capacity(BUF_HDR as usize + value.len());
    p.extend_from_slice(&tag_bytes);
    p.extend_from_slice(&crc.finish().to_le_bytes());
    p.extend_from_slice(&[0u8; 4]);
    p.extend_from_slice(value);
    p
}

/// Verifies a buffer image: tag-bound checksum over `tag || value`.
pub fn block_crc_ok(buf: &[u8]) -> bool {
    if buf.len() < BUF_HDR as usize {
        return false;
    }
    let stored = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&buf[..8]).update(&buf[BUF_HDR as usize..]);
    crc.finish() == stored
}

/// The buffer header of a never-written block: the first [`BUF_HDR`]
/// bytes of `encode_block(Tag::ZERO, zeros)`. Even the fresh image is
/// self-verifying, so rot on a never-written block is detected like any
/// other.
fn seed_header(block_size: u64) -> [u8; BUF_HDR as usize] {
    let image = encode_block(Tag::ZERO, &vec![0u8; block_size as usize]);
    let mut header = [0u8; BUF_HDR as usize];
    header.copy_from_slice(&image[..BUF_HDR as usize]);
    header
}

/// A replica's copy of one block, as [`PrismRsServer::read_block`] finds
/// it in the replica's own memory.
enum BlockCopy {
    /// A migration fence, `[Tag::MAX | null]`.
    Fence,
    /// An image that verifies under its metadata word's tag: that tag
    /// and the value.
    Valid(Tag, Vec<u8>),
    /// Detected damage. `Some(buf)` when the metadata word names a
    /// buffer of the pool and only the image at it failed: the address
    /// a repair may rewrite. `None` when the word itself failed.
    Damaged(Option<u64>),
}

impl BlockCopy {
    /// The tag and image this copy is written and logged as, an empty
    /// image for a fence; `None` for damage, which is never written.
    fn image(&self) -> Option<(Tag, Vec<u8>)> {
        match self {
            BlockCopy::Fence => Some((Tag::MAX, Vec::new())),
            BlockCopy::Valid(tag, value) => Some((*tag, encode_block(*tag, value))),
            BlockCopy::Damaged(_) => None,
        }
    }
}

/// Per-replica store configuration.
#[derive(Debug, Clone)]
pub struct RsConfig {
    /// Number of blocks (registers).
    pub n_blocks: u64,
    /// Value bytes per block (512 in §7.4).
    pub block_size: u64,
    /// Extra buffers beyond one per block, for in-flight writes.
    pub spare_buffers: u64,
}

impl RsConfig {
    /// The paper's §7.4 configuration scaled to `n_blocks`.
    pub fn paper(n_blocks: u64, block_size: u64) -> Self {
        RsConfig {
            n_blocks,
            block_size,
            spare_buffers: (n_blocks / 8).max(64),
        }
    }
}

/// Client-visible layout of one replica.
#[derive(Debug, Clone)]
pub struct RsView {
    /// Base of the metadata array.
    pub meta_addr: u64,
    /// Rkey covering metadata and buffers.
    pub data_rkey: u32,
    /// Number of blocks.
    pub n_blocks: u64,
    /// Value bytes per block.
    pub block_size: u64,
    /// The buffer free list.
    pub freelist: FreeListId,
}

impl RsView {
    /// Address of block `i`'s metadata entry.
    pub fn meta(&self, i: u64) -> u64 {
        self.meta_addr + i * META
    }

    /// Buffer length: `[tag | crc | pad]` header + value.
    pub fn buf_len(&self) -> u64 {
        BUF_HDR + self.block_size
    }
}

/// Records between fsync barriers on the durable log. Coarse on
/// purpose: a crash tear can cost up to `RS_BARRIER_EVERY - 1` acked
/// installs of local log, which is safe for RS — every completed write
/// lives on a quorum, so whatever the tear cut is healed by the delta
/// resync. KV, which has no peers, syncs every record instead.
const RS_BARRIER_EVERY: u64 = 8;

/// Chain observer installed on every RS replica: watches for the
/// write-phase CAS install (the linearization point of a PUT's write
/// leg landing on this replica) and appends the installed block image
/// to the replica's segment log. Replay after an amnesia restart folds
/// these records back before any delta resync.
struct RsDurableTap {
    store: Arc<SegmentStore>,
    meta_addr: u64,
    n_blocks: u64,
    buf_len: u64,
    appended: AtomicU64,
}

impl ChainObserver for RsDurableTap {
    fn on_chain(&self, server: &PrismServer, chain: &[PrismOp], results: &[OpResult]) {
        for (op, res) in chain.iter().zip(results) {
            let PrismOp::Cas {
                mode: CasMode::Lt,
                target,
                len: 16,
                ..
            } = op
            else {
                continue;
            };
            let meta_end = self.meta_addr + self.n_blocks * META;
            if *target < self.meta_addr || *target >= meta_end || res.status != OpStatus::Ok {
                continue;
            }
            // The CAS succeeded: the metadata entry now points at the
            // freshly installed buffer. Log the buffer image — it is
            // self-verifying ([tag | crc | pad | value]), so replay can
            // re-check it independently of the segment framing.
            // The image is read from the arena straight into the
            // segment's tail: one copy, no allocation.
            let arena = server.arena();
            let mut meta = [0u8; META as usize];
            if arena.read_into(*target, &mut meta).is_err() {
                continue;
            }
            let addr = Word::TagPtr.ptr(&meta);
            if addr == 0 {
                continue; // fences are logged explicitly by the migrator
            }
            let logged = self.store.append_with(
                server.current_epoch(),
                server.regions().current_incarnation(),
                (*target - self.meta_addr) / META,
                self.buf_len as usize,
                |image| arena.read_into(addr, image).is_ok(),
            );
            if !logged {
                continue;
            }
            let n = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(RS_BARRIER_EVERY) {
                self.store.barrier();
            }
        }
    }
}

/// One PRISM-RS replica.
pub struct PrismRsServer {
    server: Arc<PrismServer>,
    pool_base: u64,
    stride: u64,
    count: u64,
    view: RsView,
    disk: Arc<SimDisk>,
    store: Arc<SegmentStore>,
}

impl PrismRsServer {
    /// Builds a replica: metadata array, buffer pool (registered as its
    /// free list's extent), and the initial version (tag 0, zeroed value)
    /// of every block.
    ///
    /// The fresh arena is zero, so seeding writes only each seed's
    /// non-zero words: the 16-byte buffer header carrying the checksum
    /// of `Tag::ZERO ‖ zeros`, and the metadata word. The store equals
    /// one written densely with [`encode_block`].
    pub fn new(config: &RsConfig) -> Self {
        let meta_len = (config.n_blocks * META).next_multiple_of(64);
        let buf_len = BUF_HDR + config.block_size;
        let stride = buf_len.next_multiple_of(64);
        let count = config.n_blocks + config.spare_buffers;
        let pool_len = stride * count;
        let server = Arc::new(PrismServer::new(meta_len + pool_len + (1 << 20)));
        let (data_base, data_rkey) =
            server.carve_region(meta_len + pool_len, 64, AccessFlags::FULL);
        let meta_addr = data_base;
        let pool_base = data_base + meta_len;

        let freelist = FreeListId(0);
        // Buffers [0, n_blocks) seed the initial block versions; the rest
        // go on the free list.
        server
            .freelists()
            .register_pool(freelist, buf_len, pool_base, count, config.n_blocks);

        // Durable tier: a private simulated disk holding the replica's
        // segment log, fed by a chain observer at the install CAS.
        let disk = Arc::new(SimDisk::new());
        let store = Arc::new(SegmentStore::new(Arc::clone(&disk), "rs"));
        server
            .set_chain_observer(Arc::new(RsDurableTap {
                store: Arc::clone(&store),
                meta_addr,
                n_blocks: config.n_blocks,
                buf_len,
                appended: AtomicU64::new(0),
            }))
            .expect("a fresh server has no chain observer");

        let replica = PrismRsServer {
            server,
            pool_base,
            stride,
            count,
            view: RsView {
                meta_addr,
                data_rkey: data_rkey.0,
                n_blocks: config.n_blocks,
                block_size: config.block_size,
                freelist,
            },
            disk,
            store,
        };
        let header = seed_header(config.block_size);
        for b in 0..config.n_blocks {
            replica.write_block(b, Tag::ZERO, pool_base + b * stride, &header);
        }
        replica
    }

    /// Reads this replica's copy of block `b` if its metadata tag is
    /// above `floor` (`None` is below every tag); `None` when it is not,
    /// without reading the image. The metadata word must name a buffer of
    /// this replica's pool (in the pool, on a buffer stride), or be a
    /// fence, and the image there must pass [`block_crc_ok`] under the
    /// word's tag. Anything else is [`BlockCopy::Damaged`].
    fn read_block(&self, b: u64, floor: Option<Tag>) -> Option<BlockCopy> {
        let arena = self.server.arena();
        let mut word = [0u8; META as usize];
        if arena.read_into(self.view.meta(b), &mut word).is_err() {
            return Some(BlockCopy::Damaged(None));
        }
        let tag = Tag::from_bytes(&word[..8]);
        if Some(tag) <= floor {
            return None;
        }
        let addr = Word::TagPtr.ptr(&word);
        if addr == 0 && tag == Tag::MAX {
            return Some(BlockCopy::Fence);
        }
        let offset = addr.wrapping_sub(self.pool_base);
        if addr < self.pool_base
            || !offset.is_multiple_of(self.stride)
            || offset / self.stride >= self.count
        {
            return Some(BlockCopy::Damaged(None));
        }
        let mut image = vec![0u8; self.view.buf_len() as usize];
        if arena.read_into(addr, &mut image).is_err()
            || !block_crc_ok(&image)
            || image[..8] != word[..8]
        {
            return Some(BlockCopy::Damaged(Some(addr)));
        }
        image.drain(..BUF_HDR as usize);
        Some(BlockCopy::Valid(tag, image))
    }

    /// The one block writer: writes `image` at pool buffer `buf`, then
    /// block `b`'s metadata word `[tag | buf]` naming it. An empty image
    /// is a migration fence: its word `[tag | null]` alone. Callers pass
    /// only their layout's own addresses or one [`read_block`] checked.
    ///
    /// [`read_block`]: Self::read_block
    fn write_block(&self, b: u64, tag: Tag, buf: u64, image: &[u8]) {
        let arena = self.server.arena();
        let (buf, written) = if image.is_empty() {
            (0, Ok(()))
        } else {
            (buf, arena.write(buf, image))
        };
        written
            .and_then(|()| arena.write(self.view.meta(b), &meta_word(tag, buf)))
            .expect("the replica's layout lies in its arena");
    }

    /// The underlying host.
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// The client-visible layout.
    pub fn view(&self) -> &RsView {
        &self.view
    }

    /// The buffer pool `(base, len)` — where at-rest bit rot lands.
    pub fn pool_range(&self) -> (u64, u64) {
        (self.pool_base, self.stride * self.count)
    }

    /// The replica's simulated disk (where crash tears and disk rot
    /// land).
    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// The replica's durable segment log.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// Fences `block` after its home moved at `epoch`: writes
    /// `[Tag::MAX | null addr]` into its metadata entry, then logs the
    /// fence ([`log_fence`](Self::log_fence)). A straggling writer's
    /// tag-ordered CAS can never beat `Tag::MAX`, and a straggling
    /// reader's indirect READ through the null address is a
    /// [`RdmaError::BadIndirectTarget`] NACK instead of a stale value.
    /// The arena write is a control-plane poke the chain observer never
    /// sees, hence the explicit log record. The displaced buffer is
    /// left for [`Pooled::gc_sweep`].
    pub fn fence(&self, block: u64, epoch: u64) -> Result<(), RdmaError> {
        self.server
            .arena()
            .write(self.view.meta(block), &meta_word(Tag::MAX, 0))?;
        self.log_fence(block, epoch);
        Ok(())
    }

    /// Logs a migration fence for `block` durably: an empty-payload
    /// record meaning "this block's home moved at `epoch`". Replay
    /// treats it as `Tag::MAX` — nothing logged earlier (and nothing
    /// stale-epoch) can resurrect the fenced block. Synced immediately:
    /// fences are control-plane writes and must survive any tear.
    pub fn log_fence(&self, block: u64, epoch: u64) {
        self.store.append(&Record {
            epoch,
            inc: self.server.regions().current_incarnation(),
            key: block,
            payload: Vec::new(),
        });
        self.store.barrier();
    }
}

/// A pool buffer is live while a block's metadata entry points at it;
/// a fenced block's entry points at 0. Every other one that is not
/// free was orphaned or displaced by a client that died before sending
/// its free, or displaced by a migration's fence.
impl Pooled for PrismRsServer {
    fn freelists(&self) -> &FreeLists {
        self.server.freelists()
    }

    fn reachable(&self) -> IntSet<u64> {
        let arena = self.server.arena();
        (0..self.view.n_blocks)
            .map(|b| {
                arena
                    .read_u64(self.view.meta(b) + 8)
                    .expect("metadata in arena")
            })
            .collect()
    }
}

impl std::fmt::Debug for PrismRsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrismRsServer")
            .field("n_blocks", &self.view.n_blocks)
            .finish_non_exhaustive()
    }
}

/// An `n = 2f + 1` replica group.
pub struct RsCluster {
    replicas: Vec<PrismRsServer>,
    next_client: std::sync::atomic::AtomicU16,
    rejoins: std::sync::atomic::AtomicU64,
    resyncs: std::sync::atomic::AtomicU64,
    scrub_repairs: std::sync::atomic::AtomicU64,
    durable: Arc<DurableStats>,
}

impl RsCluster {
    /// Builds `n` identical replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is odd and at least 3.
    pub fn new(n: usize, config: &RsConfig) -> Self {
        assert!(n >= 3 && n % 2 == 1, "ABD needs n = 2f+1 >= 3 replicas");
        RsCluster {
            replicas: (0..n).map(|_| PrismRsServer::new(config)).collect(),
            next_client: std::sync::atomic::AtomicU16::new(1),
            rejoins: std::sync::atomic::AtomicU64::new(0),
            resyncs: std::sync::atomic::AtomicU64::new(0),
            scrub_repairs: std::sync::atomic::AtomicU64::new(0),
            durable: Arc::new(DurableStats::new()),
        }
    }

    /// The group's durable-recovery counters (replayed / delta-resynced
    /// / truncated segments). The harness folds these into `RunResult`.
    pub fn durable_stats(&self) -> &Arc<DurableStats> {
        &self.durable
    }

    /// Shares an external durable-stats sink (e.g. the shard set's)
    /// instead of the group's private one.
    pub fn set_durable_stats(&mut self, stats: Arc<DurableStats>) {
        self.durable = stats;
    }

    /// Fails replica `i` with **amnesia** and rejoins it (§7.2): the
    /// host wipes and fences ([`PrismServer::amnesia_restart`]), then
    /// the recovery protocol rebuilds the replica's layout — metadata
    /// array, seed buffers, free list — at the original addresses under
    /// the new incarnation, and resyncs every block from its peers.
    ///
    /// The resync is an ABD read-repair: the rejoiner reads the tagged
    /// version held by each of its `2f` surviving peers and installs
    /// the maximum. Any write that completed (reached `f + 1` replicas)
    /// survives on at least `f ≥ 1` of those peers, so the rejoined
    /// replica is at least as fresh as every completed write — the
    /// quorum-intersection invariant is restored before it serves. Runs
    /// atomically from the simulation's perspective (the restart event
    /// completes the rejoin before any post-restart request), which
    /// models the replica staying in a recovering state until resync
    /// finishes. Returns the replica's new incarnation.
    pub fn amnesia_restart(&self, i: usize) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        let r = &self.replicas[i];
        let inc = r.server.amnesia_restart();
        // Fresh-boot layout: block b seeds pool slot b, spares go back
        // on the free list. The pre-crash queue contents described
        // ownership that no longer exists.
        let seeds_end = r.pool_base + r.view.n_blocks * r.stride;
        r.server.freelists().reset_to_extents(1, |a| a < seeds_end);

        // Phase 1 — local replay. The segment log survives the crash
        // (minus whatever a disk tear or rot took); replay validates
        // every frame by CRC, truncates the first torn/corrupt tail,
        // and folds the survivors last-tag-wins per block. A corrupt
        // frame is *never* applied — whatever it covered is healed from
        // peers below.
        //
        // The fold runs inside replay's visitor over records lent from
        // the disk, and keeps per block the highest tag seen and where
        // its image lies: `Seed` for the fresh-boot version, `Fence` for
        // a migration fence (empty-payload record: the block's home
        // moved, nothing may resurrect it).
        #[derive(Clone, Copy)]
        enum Won {
            Seed,
            Fence,
            Image(PayloadRef),
        }
        let nb = r.view.n_blocks as usize;
        let mut fold = vec![(Tag::ZERO, Won::Seed); nb];
        let mut replayed = 0u64;
        let replay = r.store.replay(|rec, at| {
            let block = usize::try_from(rec.key).ok();
            let Some(slot) = block.and_then(|b| fold.get_mut(b)) else {
                return;
            };
            if rec.payload.is_empty() {
                // Fence record from a migrate_grow: permanently wins.
                // Anything logged for this block before (or after, at a
                // stale epoch) cannot beat Tag::MAX, so fenced data
                // never resurrects through replay.
                *slot = (Tag::MAX, Won::Fence);
                replayed += 1;
                return;
            }
            // The block image carries its own tag-bound checksum; a
            // payload the segment CRC passed but the image check
            // rejects (e.g. rot landed between the two on a real disk)
            // is dropped, not installed.
            if !block_crc_ok(rec.payload) {
                return;
            }
            let tag = Tag::from_bytes(&rec.payload[..8]);
            if tag > slot.0 {
                *slot = (tag, Won::Image(at));
                replayed += 1;
            }
        });
        self.durable
            .add_segments_truncated(replay.segments_truncated);
        self.durable.add_replayed(replayed);
        // Only each block's winning image is copied out of the log —
        // all of them before phase 2 appends to it. A seed is `None`.
        let local: Vec<(Tag, Option<BlockCopy>)> = fold
            .into_iter()
            .map(|(tag, won)| {
                let copy = match won {
                    Won::Seed => None,
                    Won::Fence => Some(BlockCopy::Fence),
                    Won::Image(at) => Some(BlockCopy::Valid(
                        tag,
                        r.store
                            .with_payload(at, |image| image[BUF_HDR as usize..].to_vec())
                            .expect("the log is untouched since replay lent this record"),
                    )),
                };
                (tag, copy)
            })
            .collect();

        // Phase 2 — delta resync: the read-repair scan with the replayed
        // tag as its floor, so a peer's buffer is fetched only for
        // blocks where that peer is *ahead* of the local high-water
        // mark. With an intact log this is the handful of writes that
        // landed after the last barrier.
        let header = seed_header(r.view.block_size);
        for (b, (floor, local)) in local.into_iter().enumerate() {
            let b = b as u64;
            let slot = r.pool_base + b * r.stride;
            let adopted = self.best_peer_copy(i, b, Some(floor));
            let from_peer = adopted.is_some();
            let Some((tag, image)) = adopted.or_else(|| local.as_ref().and_then(BlockCopy::image))
            else {
                // Header-only over the wiped arena's zeros; never adopted
                // (a peer is only ever ahead of a seed), so nothing to log.
                r.write_block(b, Tag::ZERO, slot, &header);
                continue;
            };
            r.write_block(b, tag, slot, &image);
            if from_peer {
                self.durable.add_delta_resynced(1);
                if !image.is_empty() {
                    self.resyncs.fetch_add(1, Relaxed);
                }
                // Log what was adopted so the *next* replay starts from
                // here instead of refetching it.
                r.store.append(&Record {
                    epoch: r.server.current_epoch(),
                    inc,
                    key: b,
                    payload: image,
                });
            }
        }
        // Recovery is control-plane: everything it wrote is synced.
        r.store.barrier();
        self.rejoins.fetch_add(1, Relaxed);
        inc
    }

    /// PRISM-RS read-repair's one peer scan (§7.2): the highest-tagged
    /// valid copy of block `b` among replica `i`'s peers whose tag is
    /// above `floor`, as the tag and image to write and log. A fence
    /// ranks as `Tag::MAX`, damaged copies are passed over, and a tie
    /// goes to the lower-numbered peer. Any completed write has a copy
    /// on at least `f` peers, so what it finds is at least as fresh as
    /// every linearized value.
    fn best_peer_copy(&self, i: usize, b: u64, mut floor: Option<Tag>) -> Option<(Tag, Vec<u8>)> {
        let mut best = None;
        for (j, peer) in self.replicas.iter().enumerate() {
            if j == i {
                continue;
            }
            let copy = peer.read_block(b, floor);
            let tag = match &copy {
                Some(BlockCopy::Fence) => Tag::MAX,
                Some(BlockCopy::Valid(tag, _)) => *tag,
                _ => continue,
            };
            (floor, best) = (Some(tag), copy);
        }
        best.as_ref().and_then(BlockCopy::image)
    }

    /// Scrubs replica `i`: verifies every block's copy and heals damage
    /// by the rejoin's read-repair, targeted at the blocks whose bytes
    /// rotted in place: the peer scan with no floor, its image rewritten
    /// at the damaged buffer's own address and the metadata re-pointed
    /// at it (or the block fenced, if a peer holds the fence). A block
    /// whose metadata word itself failed has no address to trust, and
    /// one with no valid copy anywhere stays detectably corrupt: neither
    /// is counted. Returns `(blocks_ok, blocks_repaired)`.
    pub fn scrub(&self, i: usize) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let r = &self.replicas[i];
        let mut ok = 0u64;
        let mut repaired = 0u64;
        for b in 0..r.view.n_blocks {
            let Some(BlockCopy::Damaged(damaged)) = r.read_block(b, None) else {
                ok += 1;
                continue;
            };
            let Some(buf) = damaged else { continue };
            let Some((tag, image)) = self.best_peer_copy(i, b, None) else {
                continue;
            };
            r.write_block(b, tag, buf, &image);
            repaired += 1;
            self.scrub_repairs.fetch_add(1, Relaxed);
        }
        (ok, repaired)
    }

    /// Blocks healed in place by [`scrub`](Self::scrub) read-repairs.
    pub fn scrub_repairs(&self) -> u64 {
        self.scrub_repairs
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Completed amnesia rejoins across the cluster.
    pub fn rejoins(&self) -> u64 {
        self.rejoins.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Blocks repaired from peers (to a non-zero tag) during rejoins.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Tolerated failures `f`.
    pub fn f(&self) -> usize {
        (self.replicas.len() - 1) / 2
    }

    /// Replica `i`.
    pub fn replica(&self, i: usize) -> &PrismRsServer {
        &self.replicas[i]
    }

    /// Opens a client with a fresh id and one connection per replica.
    /// Rkeys are stamped with each replica's *current* incarnation (the
    /// handshake at connect time), so a client opened after a rejoin
    /// starts unfenced.
    pub fn open_client(&self) -> RsClient {
        use prism_rdma::region::Rkey;
        let id = self
            .next_client
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        RsClient {
            views: self
                .replicas
                .iter()
                .map(|r| {
                    let mut v = r.view.clone();
                    let inc = r.server.regions().current_incarnation();
                    v.data_rkey = Rkey(v.data_rkey).restamped(inc).0;
                    v
                })
                .collect(),
            scratch: self
                .replicas
                .iter()
                .map(|r| {
                    let c = r.server.open_connection();
                    let inc = r.server.regions().current_incarnation();
                    (c.scratch_addr, c.scratch_rkey.restamped(inc).0)
                })
                .collect(),
            client_id: id,
            f: self.f(),
            integrity: Arc::new(IntegrityStats::new()),
        }
    }
}

/// A PRISM-RS client: builds quorum state machines.
#[derive(Debug, Clone)]
pub struct RsClient {
    views: Vec<RsView>,
    scratch: Vec<(u64, u32)>,
    client_id: u16,
    f: usize,
    integrity: Arc<IntegrityStats>,
}

#[derive(Debug, Clone)]
enum OpKind {
    Get,
    Put(Vec<u8>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Read,
    Write,
    Done,
}

/// A quorum operation in flight.
#[derive(Debug, Clone)]
pub struct RsOp {
    kind: OpKind,
    block: u64,
    phase: Phase,
    phase_no: u32,
    // Read phase.
    max_tag: Tag,
    max_value: Option<Vec<u8>>,
    read_replies: usize,
    read_failures: usize,
    // Write phase.
    write_tag: Tag,
    acks: usize,
    write_failures: usize,
    result_value: Option<Vec<u8>>,
    /// Whether any reply failed buffer verification; drives the
    /// repaired/aborted accounting when the op completes.
    verify_failed: bool,
}

impl RsClient {
    /// The client's id (used in tags it produces).
    pub fn id(&self) -> u16 {
        self.client_id
    }

    /// Quorum size `f + 1`.
    pub fn quorum(&self) -> usize {
        self.f + 1
    }

    /// Shares an integrity-stats sink (e.g. the harness's) instead of
    /// the client's private one.
    pub fn with_integrity(mut self, stats: Arc<IntegrityStats>) -> Self {
        self.integrity = stats;
        self
    }

    /// Corruption detections, repairs, and aborts observed by this
    /// client's checksum verification.
    pub fn integrity(&self) -> &Arc<IntegrityStats> {
        &self.integrity
    }
}

impl RsProtocol for RsClient {
    type Cluster = RsCluster;
    type Op = RsOp;

    /// A GET's legs may run twice. Its read phase allocates nothing, and
    /// its write-back (ALLOCATE + CAS) is safe to duplicate for two
    /// reasons: the CAS is tag-ordered ([`CasMode::Lt`]), so the second
    /// copy of an install cannot replace the first, only fail against
    /// it; and the losing copy's reply names its freshly allocated
    /// buffer, so whichever reply reaches the client second — through
    /// [`RsProtocol::on_reply`] or a driver's stale-reply harvest —
    /// frees it.
    const HEDGE_GETS: bool = true;

    fn server(cluster: &RsCluster, replica: usize) -> &PrismServer {
        cluster.replica(replica).server()
    }

    fn n(&self) -> usize {
        self.views.len()
    }

    fn get(&mut self, block: u64) -> (RsOp, RsStep) {
        let op = RsOp::new(OpKind::Get, block);
        let step = op.read_phase_sends(self);
        (op, step)
    }

    fn put(&mut self, block: u64, value: Vec<u8>) -> (RsOp, RsStep) {
        assert_eq!(
            value.len() as u64,
            self.views[0].block_size,
            "PUT value must be exactly one block"
        );
        let op = RsOp::new(OpKind::Put(value), block);
        let step = op.read_phase_sends(self);
        (op, step)
    }

    fn on_reply(&mut self, op: &mut RsOp, phase: u32, replica: usize, reply: Reply) -> RsStep {
        match (phase, &op.phase) {
            (0, Phase::Read) => op.on_read_reply(self, reply),
            (1, Phase::Write) | (1, Phase::Done) => op.on_write_reply(self, replica, reply),
            // A read-phase reply arriving after the phase moved on: the
            // read phase allocates nothing, so there is nothing to do.
            _ => RsStep::default(),
        }
    }

    /// Re-arms the op for a full retry after a transport or quorum
    /// failure, applying its effect at most once per timestamp.
    ///
    /// A PUT whose write phase already chose its tag keeps it:
    /// re-pushing the same `(tag, value)` is idempotent under the
    /// CAS_GT install (replicas at or above the tag simply ack),
    /// whereas re-running the read phase would mint a fresh higher tag
    /// and could re-apply the value *over* a later write that readers
    /// already observed — a stale-value resurrection. GETs and PUTs
    /// that never reached the write phase restart from a clean read
    /// phase; nothing of theirs was applied.
    fn reissue(&mut self, op: &mut RsOp) -> RsStep {
        op.read_replies = 0;
        op.read_failures = 0;
        op.acks = 0;
        op.write_failures = 0;
        if let OpKind::Put(v) = &op.kind {
            if op.write_tag != Tag::ZERO {
                let v = v.clone();
                op.phase = Phase::Write;
                op.phase_no = 1;
                return RsStep::sends(op.write_phase_sends(self, &v));
            }
        }
        op.phase = Phase::Read;
        op.phase_no = 0;
        op.max_tag = Tag::ZERO;
        op.max_value = None;
        op.result_value = None;
        op.read_phase_sends(self)
    }

    /// Restamps the client's cached rkeys for `replica` in place
    /// ([`prism_rdma::region::Rkey::restamped`]). This is the
    /// re-handshake of a real deployment minus the network — addresses
    /// are unchanged because the rejoin rebuilds the original layout,
    /// only the incarnation stamp differs. Called by the driver when a
    /// reply carries [`RdmaError::StaleIncarnation`].
    fn refence(&mut self, replica: usize, inc: u64) {
        use prism_rdma::region::Rkey;
        let v = &mut self.views[replica];
        v.data_rkey = Rkey(v.data_rkey).restamped(inc).0;
        let (_, rk) = &mut self.scratch[replica];
        *rk = Rkey(*rk).restamped(inc).0;
    }

    /// A write phase's reply names the buffer [`RsProtocol::on_reply`]
    /// would have freed ([`Installed::garbage`]): a lost CAS orphans the
    /// freshly allocated buffer; a won CAS displaces the one previously
    /// installed in the metadata entry. Read-phase chains allocate
    /// nothing.
    fn harvest(reply: Reply) -> Option<u64> {
        install::read(&reply.into_chain().ok()?, Word::TagPtr).garbage()
    }
}

impl RsOp {
    fn new(kind: OpKind, block: u64) -> Self {
        RsOp {
            kind,
            block,
            phase: Phase::Read,
            phase_no: 0,
            max_tag: Tag::ZERO,
            max_value: None,
            read_replies: 0,
            read_failures: 0,
            write_tag: Tag::ZERO,
            acks: 0,
            write_failures: 0,
            result_value: None,
            verify_failed: false,
        }
    }

    /// Completion-time integrity accounting: an op that observed at
    /// least one corrupt copy either still completed from valid copies
    /// (the quorum masked the damage — a repair from the caller's view)
    /// or failed cleanly (an abort). Either way, never a silent wrong
    /// answer.
    fn account(&self, c: &RsClient, outcome: &RsOutcome) {
        if self.verify_failed {
            match outcome {
                RsOutcome::Failed(_) => c.integrity.note_aborted(),
                _ => c.integrity.note_repaired(),
            }
        }
    }

    fn read_phase_sends(&self, c: &RsClient) -> RsStep {
        let send = c
            .views
            .iter()
            .enumerate()
            .map(|(r, v)| {
                let req = match self.kind {
                    // GET needs tag + value: indirect READ through addr_i.
                    OpKind::Get => Request::Chain(vec![ops::read_indirect(
                        v.meta(self.block) + 8,
                        v.buf_len() as u32,
                        v.data_rkey,
                    )]),
                    // PUT needs only the tag: plain READ of the entry.
                    OpKind::Put(_) => Request::Chain(vec![ops::read(
                        v.meta(self.block),
                        META as u32,
                        v.data_rkey,
                    )]),
                };
                (r, 0, 0, req)
            })
            .collect();
        RsStep::sends(send)
    }

    fn write_phase_sends(&self, c: &RsClient, value: &[u8]) -> Vec<(usize, u32, u32, Request)> {
        let tag = self.write_tag.to_bytes();
        c.views
            .iter()
            .enumerate()
            .map(|(r, v)| {
                let (addr, rkey) = c.scratch[r];
                // Install iff tag_i < t' (CAS_GT of §7.3).
                let chain = install::chain(
                    v.meta(self.block),
                    v.data_rkey,
                    Redirect { addr, rkey },
                    v.freelist,
                    encode_block(self.write_tag, value),
                    Guard::TagBelow { tag },
                );
                (r, 1, 0, Request::Chain(chain.into()))
            })
            .collect()
    }

    fn on_read_reply(&mut self, c: &RsClient, reply: Reply) -> RsStep {
        // A non-chain reply (e.g. the fault layer's synthesized timeout
        // error) or an empty chain counts as a failed replica, never a
        // panic: ABD only needs `f + 1` useful answers.
        let results = reply.into_chain().unwrap_or_default();
        let first_status = results.first().map(|r| r.status.clone());
        match (&self.kind, first_status) {
            (OpKind::Get, Some(OpStatus::Ok)) => {
                let data = &results[0].data;
                if data.len() >= BUF_HDR as usize && block_crc_ok(data) {
                    let tag = Tag::from_bytes(&data[..8]);
                    if tag >= self.max_tag || self.max_value.is_none() {
                        self.max_tag = tag;
                        self.max_value = Some(data[BUF_HDR as usize..].to_vec());
                    }
                    self.read_replies += 1;
                } else {
                    if data.len() >= BUF_HDR as usize {
                        // Structurally complete but checksum-invalid:
                        // a rotted or torn copy, detected and excluded —
                        // the quorum completes from valid replicas.
                        c.integrity.note_detected();
                        self.verify_failed = true;
                    }
                    self.read_failures += 1;
                }
            }
            (OpKind::Put(_), Some(OpStatus::Ok)) => {
                let data = &results[0].data;
                if data.len() == META as usize {
                    let tag = Tag::from_bytes(&data[..8]);
                    self.max_tag = self.max_tag.max(tag);
                    self.read_replies += 1;
                } else {
                    self.read_failures += 1;
                }
            }
            _ => self.read_failures += 1,
        }
        if self.read_failures > c.n() - c.quorum() {
            self.phase = Phase::Done;
            let outcome = RsOutcome::Failed("read phase lost quorum");
            self.account(c, &outcome);
            return RsStep::finished(outcome);
        }
        if self.read_replies < c.quorum() || self.phase != Phase::Read {
            return RsStep::default();
        }
        // Quorum of reads: move to the write phase.
        self.phase = Phase::Write;
        self.phase_no = 1;
        let (tag, value) = match &self.kind {
            OpKind::Get => {
                // Every counted read reply carried a value, so a quorum
                // implies one; guard anyway so a logic slip under faults
                // degrades to a counted failure instead of a panic.
                let Some(v) = self.max_value.clone() else {
                    self.phase = Phase::Done;
                    let outcome = RsOutcome::Failed("read quorum carried no value");
                    self.account(c, &outcome);
                    return RsStep::finished(outcome);
                };
                self.result_value = Some(v.clone());
                (self.max_tag, v)
            }
            OpKind::Put(v) => (self.max_tag.successor(c.client_id), v.clone()),
        };
        self.write_tag = tag;
        RsStep::sends(self.write_phase_sends(c, &value))
    }

    fn on_write_reply(&mut self, c: &RsClient, replica: usize, reply: Reply) -> RsStep {
        // Same defence as the read phase: a synthesized error reply or a
        // short chain is a failed replica, not a panic.
        let installed = install::read(&reply.into_chain().unwrap_or_default(), Word::TagPtr);
        // Installed, the replaced buffer is garbage; refused (the
        // replica already has tag >= t'), ours is — and it counts as an
        // ack.
        let background = Vec::from_iter(installed.garbage().map(|a| (replica, free_request(a))));
        let acked = !matches!(installed, Installed::Failed(_));
        if acked {
            self.acks += 1;
        } else {
            self.write_failures += 1;
        }
        let mut done = None;
        if self.phase == Phase::Write {
            if self.acks >= c.quorum() {
                self.phase = Phase::Done;
                done = Some(match (&self.kind, self.result_value.clone()) {
                    (OpKind::Get, Some(v)) => RsOutcome::Value(v),
                    (OpKind::Get, None) => RsOutcome::Failed("write-back lost its value"),
                    (OpKind::Put(_), _) => RsOutcome::Written,
                });
            } else if self.write_failures > c.n() - c.quorum() {
                self.phase = Phase::Done;
                done = Some(RsOutcome::Failed("write phase lost quorum"));
            }
            if let Some(o) = &done {
                self.account(c, o);
            }
        }
        RsStep {
            background,
            done,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::drive;
    use prism_core::step::{drive_local, Input};

    /// Delivers `first`'s requests and the ones that follow through the
    /// one local loop, handing each reply to `feed` as
    /// `(replica, phase, reply)`.
    fn drive_steps(
        cl: &RsCluster,
        first: RsStep,
        mut feed: impl FnMut(usize, u32, Reply) -> RsStep,
    ) {
        let server = |r| Some(&**cl.replica(r).server());
        drive_local(first, server, |input| match input {
            Input::Reply(dest, phase, _, reply) => feed(dest, phase, reply),
            Input::Resume => RsStep::default(),
        });
    }

    fn cluster() -> RsCluster {
        RsCluster::new(3, &RsConfig::paper(16, 64))
    }

    fn get(cl: &RsCluster, c: &mut RsClient, block: u64, crashed: &[bool]) -> RsOutcome {
        let (op, step) = c.get(block);
        drive(cl, c, op, step, crashed)
    }

    fn put(
        cl: &RsCluster,
        c: &mut RsClient,
        block: u64,
        val: Vec<u8>,
        crashed: &[bool],
    ) -> RsOutcome {
        let (op, step) = c.put(block, val);
        drive(cl, c, op, step, crashed)
    }

    #[test]
    fn fresh_block_reads_zeroes() {
        let cl = cluster();
        let mut c = cl.open_client();
        assert_eq!(
            get(&cl, &mut c, 0, &[false; 3]),
            RsOutcome::Value(vec![0u8; 64])
        );
    }

    /// Every replica of a fresh group holds the dense seed image, byte
    /// for byte over its whole data region: per block, metadata
    /// `meta_word(Tag::ZERO, addr)` and, at `addr`,
    /// `encode_block(Tag::ZERO, zeros)`; zero everywhere else (stride
    /// padding, spare buffers).
    #[test]
    fn fresh_replicas_hold_the_dense_seed_image() {
        // 16 + 52 = 68 B per buffer: each stride carries padding.
        let config = RsConfig::paper(37, 52);
        assert_dense_seed_image(&RsCluster::new(3, &config), &config);
    }

    /// A replica restarted before any write rebuilds the same dense seed
    /// image, and so leaves every replica of its group as it was fresh.
    #[test]
    fn restarted_replicas_hold_the_dense_seed_image() {
        let config = RsConfig::paper(37, 52);
        let cl = RsCluster::new(3, &config);
        for i in 0..3 {
            cl.amnesia_restart(i);
            assert_dense_seed_image(&cl, &config);
        }
    }

    /// Panics unless every replica of `cl` holds the dense seed image of
    /// `config`'s blocks over its whole data region.
    fn assert_dense_seed_image(cl: &RsCluster, config: &RsConfig) {
        let seed = encode_block(Tag::ZERO, &vec![0u8; config.block_size as usize]);
        for r in 0..3 {
            let replica = cl.replica(r);
            let view = replica.view();
            let (pool_base, pool_len) = replica.pool_range();
            let stride = pool_len / (config.n_blocks + config.spare_buffers);
            let mut want = vec![0u8; (pool_base + pool_len - view.meta_addr) as usize];
            for b in 0..view.n_blocks {
                let buf = pool_base + b * stride;
                let meta = (view.meta(b) - view.meta_addr) as usize;
                want[meta..meta + META as usize].copy_from_slice(&meta_word(Tag::ZERO, buf));
                let at = (buf - view.meta_addr) as usize;
                want[at..at + seed.len()].copy_from_slice(&seed);
            }
            let got = replica
                .server()
                .arena()
                .read(view.meta_addr, want.len() as u64)
                .unwrap();
            let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
            assert_eq!(
                first_diff, None,
                "replica {r}: first byte off the seed image"
            );
        }
    }

    #[test]
    fn put_then_get() {
        let cl = cluster();
        let mut c = cl.open_client();
        let val = vec![7u8; 64];
        assert_eq!(
            put(&cl, &mut c, 3, val.clone(), &[false; 3]),
            RsOutcome::Written
        );
        assert_eq!(get(&cl, &mut c, 3, &[false; 3]), RsOutcome::Value(val));
    }

    #[test]
    fn blocks_are_independent() {
        let cl = cluster();
        let mut c = cl.open_client();
        put(&cl, &mut c, 1, vec![1u8; 64], &[false; 3]);
        put(&cl, &mut c, 2, vec![2u8; 64], &[false; 3]);
        assert_eq!(
            get(&cl, &mut c, 1, &[false; 3]),
            RsOutcome::Value(vec![1u8; 64])
        );
        assert_eq!(
            get(&cl, &mut c, 2, &[false; 3]),
            RsOutcome::Value(vec![2u8; 64])
        );
    }

    #[test]
    fn survives_one_replica_crash() {
        let cl = cluster();
        let mut c = cl.open_client();
        let crashed = [false, true, false];
        let val = vec![9u8; 64];
        assert_eq!(
            put(&cl, &mut c, 0, val.clone(), &crashed),
            RsOutcome::Written
        );
        assert_eq!(get(&cl, &mut c, 0, &crashed), RsOutcome::Value(val.clone()));
        // A different client reading through a different quorum (replica 1
        // back, replica 2 down) must still see the value: quorum
        // intersection.
        let mut c2 = cl.open_client();
        let crashed2 = [false, false, true];
        assert_eq!(get(&cl, &mut c2, 0, &crashed2), RsOutcome::Value(val));
    }

    #[test]
    fn two_crashes_lose_quorum() {
        let cl = cluster();
        let mut c = cl.open_client();
        let crashed = [true, true, false];
        assert!(matches!(
            put(&cl, &mut c, 0, vec![1u8; 64], &crashed),
            RsOutcome::Failed(_)
        ));
    }

    #[test]
    fn synthesized_error_replies_fail_cleanly() {
        use prism_rdma::RdmaError;
        // The fault layer answers timed-out requests with a bare Verb
        // error reply; the quorum machine must absorb it as a replica
        // failure, not panic on a missing chain.
        let cl = cluster();
        let mut c = cl.open_client();
        let (mut op, step) = c.put(0, vec![1u8; 64]);
        let mut outcome = None;
        for (r, phase, _, _) in step.send {
            let s = c.on_reply(
                &mut op,
                phase,
                r,
                Reply::Verb(Err(RdmaError::ReceiverNotReady)),
            );
            if let Some(d) = s.done {
                outcome = Some(d);
                break;
            }
        }
        assert!(matches!(outcome, Some(RsOutcome::Failed(_))));

        // Same for the write phase: error out enough replicas after a
        // clean read quorum and the op fails instead of panicking.
        let (mut op, step) = c.get(0);
        let mut writes = Vec::new();
        drive_steps(&cl, step, |r, phase, reply| {
            let mut s = c.on_reply(&mut op, phase, r, reply);
            writes.append(&mut s.send);
            s
        });
        let mut outcome = None;
        for (r, phase, _, _) in writes {
            let s = c.on_reply(
                &mut op,
                phase,
                r,
                Reply::Verb(Err(RdmaError::ReceiverNotReady)),
            );
            if let Some(d) = s.done {
                outcome = Some(d);
                break;
            }
        }
        assert!(matches!(outcome, Some(RsOutcome::Failed(_))));
    }

    #[test]
    fn later_writer_wins() {
        let cl = cluster();
        let mut c1 = cl.open_client();
        let mut c2 = cl.open_client();
        put(&cl, &mut c1, 0, vec![1u8; 64], &[false; 3]);
        put(&cl, &mut c2, 0, vec![2u8; 64], &[false; 3]);
        assert_eq!(
            get(&cl, &mut c1, 0, &[false; 3]),
            RsOutcome::Value(vec![2u8; 64])
        );
    }

    #[test]
    fn get_write_back_repairs_stale_replica() {
        let cl = cluster();
        let mut c = cl.open_client();
        // Write while replica 2 is down.
        put(&cl, &mut c, 0, vec![5u8; 64], &[false, false, true]);
        // Read with replica 2 back up; the write-back phase pushes the
        // value to it.
        assert_eq!(
            get(&cl, &mut c, 0, &[false; 3]),
            RsOutcome::Value(vec![5u8; 64])
        );
        // Now replica 2 alone with replica 0 must serve the value, even
        // though the original write never reached it directly.
        let tag2 = {
            let v = cl.replica(2).view().clone();
            let meta = cl.replica(2).server().arena().read(v.meta(0), 16).unwrap();
            Tag::from_bytes(&meta[..8])
        };
        assert!(tag2.ts >= 1, "write-back must have repaired replica 2");
    }

    #[test]
    fn buffers_are_reclaimed_across_overwrites() {
        let cl = RsCluster::new(
            3,
            &RsConfig {
                n_blocks: 2,
                block_size: 64,
                spare_buffers: 4,
            },
        );
        let mut c = cl.open_client();
        // Far more writes than spare buffers: only sustainable if frees
        // happen.
        for i in 0..100u8 {
            assert_eq!(
                put(&cl, &mut c, 0, vec![i; 64], &[false; 3]),
                RsOutcome::Written,
                "write {i} ran out of buffers"
            );
        }
        assert_eq!(
            get(&cl, &mut c, 0, &[false; 3]),
            RsOutcome::Value(vec![99u8; 64])
        );
    }

    #[test]
    fn tags_strictly_increase_per_writer() {
        let cl = cluster();
        let mut c = cl.open_client();
        for i in 0..5u8 {
            put(&cl, &mut c, 0, vec![i; 64], &[false; 3]);
        }
        let v = cl.replica(0).view().clone();
        let meta = cl.replica(0).server().arena().read(v.meta(0), 16).unwrap();
        let tag = Tag::from_bytes(&meta[..8]);
        assert_eq!(tag.ts, 5);
        assert_eq!(tag.id, c.id());
    }

    #[test]
    fn gc_sweep_recovers_leaked_buffers() {
        let cl = RsCluster::new(
            3,
            &RsConfig {
                n_blocks: 2,
                block_size: 64,
                spare_buffers: 8,
            },
        );
        let mut c = cl.open_client();
        // Simulate crashing clients: drive writes but drop every
        // background free notification, leaking one buffer per replica
        // per write.
        for i in 0..6u8 {
            let (mut op, step) = c.put(0, vec![i; 64]);
            drive_steps(&cl, step, |r, phase, reply| {
                let mut s = c.on_reply(&mut op, phase, r, reply);
                s.background.clear(); // the frees, deliberately dropped
                s
            });
        }
        let replica = cl.replica(0);
        let before = replica
            .server()
            .freelists()
            .available(replica.view().freelist);
        assert!(before < 8, "leaks must have drained the pool ({before})");
        let reclaimed = replica.gc_sweep();
        assert!(reclaimed > 0, "sweep must find the leaked buffers");
        let after = replica
            .server()
            .freelists()
            .available(replica.view().freelist);
        assert_eq!(after, 8, "pool fully recovered");
        // The store still works and GC never touched live data.
        let (op, step) = c.get(0);
        assert_eq!(
            drive(&cl, &mut c, op, step, &[false; 3]),
            RsOutcome::Value(vec![5u8; 64])
        );
        // A second sweep finds nothing.
        assert_eq!(replica.gc_sweep(), 0);
    }

    #[test]
    fn gc_sweep_is_idempotent_with_late_frees() {
        let cl = RsCluster::new(
            3,
            &RsConfig {
                n_blocks: 1,
                block_size: 64,
                spare_buffers: 4,
            },
        );
        let mut c = cl.open_client();
        // One write whose free notifications we capture but delay.
        let (mut op, step) = c.put(0, vec![9u8; 64]);
        let mut delayed = Vec::new();
        drive_steps(&cl, step, |r, phase, reply| {
            let mut s = c.on_reply(&mut op, phase, r, reply);
            delayed.append(&mut s.background);
            s
        });
        // GC reclaims the replaced buffers first...
        for r in 0..3 {
            cl.replica(r).gc_sweep();
        }
        let avail: Vec<usize> = (0..3)
            .map(|r| {
                cl.replica(r)
                    .server()
                    .freelists()
                    .available(cl.replica(r).view().freelist)
            })
            .collect();
        assert_eq!(avail, vec![4, 4, 4]);
        // ...then the late client frees arrive: idempotent, no growth.
        for (r, req) in delayed {
            prism_core::msg::execute_local(cl.replica(r).server(), &req);
        }
        let avail: Vec<usize> = (0..3)
            .map(|r| {
                cl.replica(r)
                    .server()
                    .freelists()
                    .available(cl.replica(r).view().freelist)
            })
            .collect();
        assert_eq!(
            avail,
            vec![4, 4, 4],
            "double free must not duplicate buffers"
        );
    }

    #[test]
    fn amnesia_rejoin_resyncs_from_peer_quorum() {
        let cl = cluster();
        let mut c = cl.open_client();
        let val = vec![7u8; 64];
        assert_eq!(
            put(&cl, &mut c, 3, val.clone(), &[false; 3]),
            RsOutcome::Written
        );
        // Replica 1 loses its memory and rejoins. Its segment log
        // survived the crash, so the write comes back by *replay* — the
        // delta resync finds no peer ahead and fetches nothing.
        let inc = cl.amnesia_restart(1);
        assert_eq!(inc, 1);
        assert_eq!(cl.rejoins(), 1);
        assert!(
            cl.durable_stats().replayed() > 0,
            "the written block must replay from the local log"
        );
        assert_eq!(
            cl.resyncs(),
            0,
            "an intact log leaves nothing for the network resync to fetch"
        );
        // The rejoined replica's own memory holds the value again.
        let v = cl.replica(1).view().clone();
        let meta = cl.replica(1).server().arena().read(v.meta(3), 16).unwrap();
        assert!(Tag::from_bytes(&meta[..8]).ts >= 1);
        // A fresh client (handshaking the new incarnation) reading
        // through a quorum that *excludes* replica 0 still sees the
        // value: the rejoin restored quorum intersection.
        let mut c2 = cl.open_client();
        assert_eq!(
            get(&cl, &mut c2, 3, &[true, false, false]),
            RsOutcome::Value(val)
        );
        // The pre-restart client is fenced at replica 1 until it
        // refences, then works again.
        let (op, step) = c.get(3);
        let mut fenced = false;
        for (r, _, _, req) in &step.send {
            if *r == 1 {
                let reply = prism_core::msg::execute_local(cl.replica(1).server(), req);
                fenced = reply.stale_incarnation() == Some(1);
            }
        }
        assert!(fenced, "stale rkey must be fenced, not serve wiped memory");
        drop(op);
        let mut c3 = c.clone();
        c3.refence(1, inc);
        let (op, step) = c3.get(3);
        assert_eq!(
            drive(&cl, &mut c3, op, step, &[false; 3]),
            RsOutcome::Value(vec![7u8; 64])
        );
        // A wiped disk (fresh replacement replica) falls back to the
        // full network resync: the written block is fetched from peers.
        cl.replica(1).store().wipe();
        cl.amnesia_restart(1);
        assert!(
            cl.resyncs() > 0,
            "with no local log the block must be repaired from peers"
        );
        assert!(cl.durable_stats().delta_resynced() > 0);
    }

    #[test]
    fn rejoin_with_no_writes_restores_fresh_boot() {
        let cl = cluster();
        let inc = cl.amnesia_restart(0);
        assert_eq!(inc, 1);
        assert_eq!(cl.resyncs(), 0, "nothing to repair on a fresh store");
        let r = cl.replica(0);
        assert_eq!(
            r.server().freelists().available(r.view().freelist),
            (RsConfig::paper(16, 64).spare_buffers) as usize,
            "free list rebuilt with exactly the spares"
        );
        let mut c = cl.open_client();
        assert_eq!(
            get(&cl, &mut c, 0, &[false; 3]),
            RsOutcome::Value(vec![0u8; 64])
        );
    }

    #[test]
    fn rotted_copy_is_excluded_masked_by_quorum_and_scrub_healed() {
        let cl = cluster();
        let mut c = cl.open_client();
        let val = vec![7u8; 64];
        assert_eq!(
            put(&cl, &mut c, 2, val.clone(), &[false; 3]),
            RsOutcome::Written
        );
        // Rot one bit of replica 1's buffer for block 2, behind its back.
        let v1 = cl.replica(1).view().clone();
        let addr = cl
            .replica(1)
            .server()
            .arena()
            .read_u64(v1.meta(2) + 8)
            .unwrap();
        cl.replica(1)
            .server()
            .arena()
            .flip_bit(addr + BUF_HDR + 5, 2)
            .unwrap();
        // A GET detects + excludes the rotted copy and answers from the
        // valid quorum — a masked (repaired) read, never the bad bytes.
        let mut c2 = cl.open_client();
        assert_eq!(
            get(&cl, &mut c2, 2, &[false; 3]),
            RsOutcome::Value(val.clone())
        );
        assert_eq!(c2.integrity().detected(), 1);
        assert_eq!(c2.integrity().repaired(), 1);
        assert_eq!(c2.integrity().aborted(), 0);
        // The damage persists at rest (the write-back CAS can't replace
        // an equal tag) until a scrub read-repairs it from the peers.
        let (ok, repaired) = cl.scrub(1);
        assert_eq!((ok, repaired), (15, 1));
        assert_eq!(cl.scrub_repairs(), 1);
        assert_eq!(cl.scrub(1), (16, 0), "second scrub finds nothing");
        // The healed replica now serves the value even in a quorum that
        // excludes the original writer majority.
        assert_eq!(
            get(&cl, &mut c2, 2, &[true, false, false]),
            RsOutcome::Value(val)
        );
    }

    #[test]
    fn majority_rot_aborts_instead_of_answering_wrong() {
        let cl = cluster();
        let mut c = cl.open_client();
        assert_eq!(
            put(&cl, &mut c, 0, vec![3u8; 64], &[false; 3]),
            RsOutcome::Written
        );
        // Rot the block's buffer on two of three replicas: no read
        // quorum of valid copies remains.
        for r in [0usize, 1] {
            let v = cl.replica(r).view().clone();
            let addr = cl
                .replica(r)
                .server()
                .arena()
                .read_u64(v.meta(0) + 8)
                .unwrap();
            cl.replica(r)
                .server()
                .arena()
                .flip_bit(addr + BUF_HDR, 0)
                .unwrap();
        }
        let mut c2 = cl.open_client();
        assert!(matches!(
            get(&cl, &mut c2, 0, &[false; 3]),
            RsOutcome::Failed(_)
        ));
        assert_eq!(c2.integrity().detected(), 2);
        assert_eq!(c2.integrity().aborted(), 1);
        // Scrub heals both from the surviving valid copy; service returns.
        assert_eq!(cl.scrub(0).1, 1);
        assert_eq!(cl.scrub(1).1, 1);
        assert_eq!(
            get(&cl, &mut c2, 0, &[false; 3]),
            RsOutcome::Value(vec![3u8; 64])
        );
    }

    #[test]
    fn resync_never_adopts_invalid_copies() {
        let cl = cluster();
        let mut c = cl.open_client();
        assert_eq!(
            put(&cl, &mut c, 1, vec![9u8; 64], &[false; 3]),
            RsOutcome::Written
        );
        // Rot replica 0's copy, then amnesia-restart replica 2: the
        // rejoiner must rebuild from replica 1's valid copy, not adopt
        // replica 0's higher-... equal-tagged garbage.
        let v0 = cl.replica(0).view().clone();
        let addr = cl
            .replica(0)
            .server()
            .arena()
            .read_u64(v0.meta(1) + 8)
            .unwrap();
        cl.replica(0)
            .server()
            .arena()
            .flip_bit(addr + BUF_HDR + 1, 7)
            .unwrap();
        cl.amnesia_restart(2);
        let v2 = cl.replica(2).view().clone();
        let addr2 = cl
            .replica(2)
            .server()
            .arena()
            .read_u64(v2.meta(1) + 8)
            .unwrap();
        let buf = cl
            .replica(2)
            .server()
            .arena()
            .read(addr2, v2.buf_len())
            .unwrap();
        assert!(block_crc_ok(&buf), "rejoined copy must verify");
        assert_eq!(&buf[BUF_HDR as usize..], &vec![9u8; 64][..]);
    }

    /// A metadata word whose address rotted out of the pool is detected
    /// damage to both read-repairs: the scrub leaves it uncounted and
    /// writes nothing through it, and a rejoin passes over it to the
    /// next peer's valid copy.
    #[test]
    fn rotted_metadata_is_damage_not_a_panic() {
        let cl = cluster();
        let mut c = cl.open_client();
        let (two, three) = (vec![2u8; 64], vec![3u8; 64]);
        assert_eq!(
            put(&cl, &mut c, 2, two.clone(), &[false; 3]),
            RsOutcome::Written
        );
        assert_eq!(
            put(&cl, &mut c, 3, three.clone(), &[true, false, false]),
            RsOutcome::Written
        );
        let r1 = cl.replica(1);
        for b in [2, 3] {
            r1.server()
                .arena()
                .flip_bit(r1.view().meta(b) + 15, 6)
                .unwrap();
        }
        assert_eq!(cl.scrub(1), (14, 0));
        assert_eq!(cl.scrub_repairs(), 0);

        // Replica 0 replays block 2 and never saw block 3: the scan
        // passes over replica 1's rotted word and adopts replica 2's.
        cl.amnesia_restart(0);
        assert_eq!(cl.durable_stats().delta_resynced(), 1);
        assert_eq!(cl.resyncs(), 1);
        let copy = |r: usize| {
            let (arena, view) = (cl.replica(r).server().arena(), cl.replica(r).view());
            let meta = arena.read(view.meta(3), META).unwrap();
            let image = arena.read(Word::TagPtr.ptr(&meta), view.buf_len()).unwrap();
            (meta[..8].to_vec(), image)
        };
        let (tag, image) = copy(0);
        assert_eq!(tag, copy(2).0);
        assert!(block_crc_ok(&image));
        assert_eq!(image[BUF_HDR as usize..], three[..]);

        let mut c2 = cl.open_client();
        for (b, val) in [(2, two), (3, three)] {
            assert_eq!(get(&cl, &mut c2, b, &[false; 3]), RsOutcome::Value(val));
        }
    }

    /// The scrub adopts a peer's migration fence as the rejoin does: a
    /// block fenced on the peers and rotted here is repaired to the
    /// fence, and the rotted buffer is the sweep's to reclaim.
    #[test]
    fn scrub_adopts_a_peer_fence() {
        let cl = cluster();
        let b = 4;
        for r in [0, 2] {
            cl.replica(r).fence(b, 1).unwrap();
        }
        let r1 = cl.replica(1);
        let addr = r1.server().arena().read_u64(r1.view().meta(b) + 8).unwrap();
        r1.server().arena().flip_bit(addr + BUF_HDR + 3, 1).unwrap();
        assert_eq!(cl.scrub(1), (15, 1));
        assert_eq!(
            r1.server().arena().read(r1.view().meta(b), META).unwrap(),
            meta_word(Tag::MAX, 0)
        );
        for r in 0..3 {
            cl.replica(r).gc_sweep();
            assert_eq!(cl.replica(r).audit().deficit(), 0, "replica {r}");
        }
    }

    #[test]
    fn block_images_detect_every_single_bit_flip() {
        let img = encode_block(Tag { ts: 3, id: 9 }, &[0xA5; 32]);
        assert!(block_crc_ok(&img));
        for byte in 0..img.len() {
            for bit in 0..8 {
                // Pad bytes are outside tag and value; flips there are
                // harmless and uncovered by design.
                if (12..16).contains(&byte) {
                    continue;
                }
                let mut m = img.clone();
                m[byte] ^= 1 << bit;
                assert!(!block_crc_ok(&m), "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn concurrent_writers_converge_to_single_value() {
        use std::sync::Arc;
        let cl = Arc::new(cluster());
        let threads: Vec<_> = (0..6)
            .map(|t| {
                let cl = Arc::clone(&cl);
                std::thread::spawn(move || {
                    let mut c = cl.open_client();
                    for i in 0..30u8 {
                        let val = vec![t as u8 * 40 + i; 64];
                        assert_eq!(put(&cl, &mut c, 0, val, &[false; 3]), RsOutcome::Written);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // All replicas must agree on tag and value after quiescence...
        // at least a quorum must. Read and compare across two disjoint
        // quorums to confirm a single linearization point.
        let mut c = cl.open_client();
        let a = get(&cl, &mut c, 0, &[false, false, true]);
        let b = get(&cl, &mut c, 0, &[true, false, false]);
        assert_eq!(a, b, "disjoint quorums must agree after write-back");
    }
}
