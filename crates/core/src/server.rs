//! One PRISM-capable host: memory, registrations, free lists, the chain
//! engine, classic RDMA verbs, and a two-sided RPC hook.
//!
//! [`PrismServer`] is what an application deploys per machine. It bundles
//! the shared arena with both data planes — classic verbs
//! ([`prism_rdma::RdmaNic`]) and the PRISM engine — so RDMA atomics and
//! PRISM CAS are atomic with respect to each other, exactly as they would
//! be on one NIC. The RPC hook serves the reclaim RPC that returns
//! ALLOCATE's buffers (§3.2; [`crate::freelist`] owns its format, its
//! checks and the GC sweep) unless an application installs a handler of
//! its own, as the baselines do for their two-sided traffic (Pilaf PUTs,
//! FaRM commit phases).
//!
//! The RPC handler and the chain observer are installed once, when the
//! application builds its server, and never replaced: each lives in a
//! [`OnceLock`], so dispatching a chain or an RPC to them is one load,
//! with no lock and no reference count touched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use prism_rdma::arena::MemoryArena;
use prism_rdma::region::{AccessFlags, RegionTable, Rkey};
use prism_rdma::sync::Mutex;
use prism_rdma::{RdmaError, RdmaNic};

use crate::conn::{Connection, ConnectionTable, SCRATCH_BYTES};
use crate::engine::{OpResult, PrismEngine};
use crate::freelist::FreeLists;
use crate::layout::Carver;
use crate::op::{FreeListId, PrismOp};

/// Server-side handler for two-sided RPCs.
///
/// Implementations must be cheap to call concurrently; in live mode many
/// client threads invoke the handler in parallel, mirroring the paper's
/// 16 dedicated RPC cores.
pub trait RpcHandler: Send + Sync {
    /// Handles one request, returning the response bytes.
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<F> RpcHandler for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// Observer invoked after every executed chain, with the ops and their
/// results. This is the durability tap: a store layer watches for
/// successful installs (the CAS linearization points of KV PUTs and RS
/// writes) and logs them to its local segment log. The observer runs
/// after the engine under no engine locks, so it may read the arena.
pub trait ChainObserver: Send + Sync {
    /// Called once per executed chain, after the engine has run it.
    fn on_chain(&self, server: &PrismServer, chain: &[PrismOp], results: &[OpResult]);
}

/// A second install of a hook a [`PrismServer`] takes once, refused:
/// the hook installed first stays in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlreadyInstalled {
    /// [`PrismServer::set_chain_observer`] was called before.
    ChainObserver,
    /// [`PrismServer::set_rpc_handler`] was called before.
    RpcHandler,
}

impl std::fmt::Display for AlreadyInstalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hook = match self {
            AlreadyInstalled::ChainObserver => "chain observer",
            AlreadyInstalled::RpcHandler => "RPC handler",
        };
        write!(f, "the server's {hook} is already installed")
    }
}

impl std::error::Error for AlreadyInstalled {}

/// On-NIC scratch region size (§4.2: 256 KB on ConnectX-5).
const ONNIC_SCRATCH: u64 = 256 * 1024;

/// A PRISM-capable host.
pub struct PrismServer {
    arena: Arc<MemoryArena>,
    regions: Arc<RegionTable>,
    freelists: Arc<FreeLists>,
    engine: PrismEngine,
    nic: RdmaNic,
    carver: Mutex<Carver>,
    conns: ConnectionTable,
    /// The application's RPC handler; the reclaim RPC while unset.
    rpc: OnceLock<Arc<dyn RpcHandler>>,
    observer: OnceLock<Arc<dyn ChainObserver>>,
    /// Shard-map epoch this server believes is current. 0 = unsharded
    /// (no map installed); requests stamped 0 are never epoch-fenced.
    epoch: AtomicU64,
}

impl PrismServer {
    /// Creates a server with `mem_bytes` of registered-capable memory
    /// (beyond the on-NIC scratch region).
    pub fn new(mem_bytes: u64) -> Self {
        let arena = Arc::new(MemoryArena::new(mem_bytes + ONNIC_SCRATCH));
        let regions = Arc::new(RegionTable::new());
        let freelists = Arc::new(FreeLists::new());
        let engine = PrismEngine::new(
            Arc::clone(&arena),
            Arc::clone(&regions),
            Arc::clone(&freelists),
        );
        let nic = RdmaNic::with_shared(Arc::clone(&arena), Arc::clone(&regions));
        let mut carver = Carver::new(&arena);
        // Carve and register the on-NIC scratch region first so every
        // server exposes connection scratch space.
        let scratch_base = carver.carve(ONNIC_SCRATCH, 64);
        let scratch_rkey = regions.register(scratch_base, ONNIC_SCRATCH, AccessFlags::FULL);
        let conns = ConnectionTable::new(scratch_base, ONNIC_SCRATCH, scratch_rkey);
        PrismServer {
            arena,
            regions,
            freelists,
            engine,
            nic,
            carver: Mutex::new(carver),
            conns,
            rpc: OnceLock::new(),
            observer: OnceLock::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The host memory.
    pub fn arena(&self) -> &Arc<MemoryArena> {
        &self.arena
    }

    /// The registration table.
    pub fn regions(&self) -> &Arc<RegionTable> {
        &self.regions
    }

    /// The classic one-sided verb plane (shares memory with PRISM).
    pub fn nic(&self) -> &RdmaNic {
        &self.nic
    }

    /// The PRISM chain engine.
    pub fn engine(&self) -> &PrismEngine {
        &self.engine
    }

    /// The server's free lists.
    pub fn freelists(&self) -> &Arc<FreeLists> {
        &self.freelists
    }

    /// Reserves `len` bytes of arena, aligned to `align` (setup only).
    pub fn carve(&self, len: u64, align: u64) -> u64 {
        self.carver.lock().carve(len, align)
    }

    /// Reserves and registers a region in one step; returns `(addr, rkey)`.
    pub fn carve_region(&self, len: u64, align: u64, flags: AccessFlags) -> (u64, Rkey) {
        let addr = self.carve(len, align);
        let rkey = self.regions.register(addr, len, flags);
        (addr, rkey)
    }

    /// Registers a free list of `count` buffers of `buf_len` bytes each,
    /// carved from the arena ([`FreeLists::register_pool`]), all of them
    /// free. Returns the base address of the pool.
    pub fn setup_freelist(&self, id: FreeListId, buf_len: u64, count: u64) -> u64 {
        let base = self.carve(buf_len.next_multiple_of(64) * count, 64);
        self.freelists.register_pool(id, buf_len, base, count, 0);
        base
    }

    /// Opens a client connection with its scratch slot.
    pub fn open_connection(&self) -> Connection {
        let c = self.conns.open();
        debug_assert_eq!(SCRATCH_BYTES % 8, 0);
        c
    }

    /// Closes a client connection, recycling its scratch slot. Stale or
    /// double closes are typed rejections (see
    /// [`crate::conn::ConnectionTable::close`]).
    pub fn close_connection(&self, conn: Connection) -> Result<(), RdmaError> {
        self.conns.close(conn)
    }

    /// Closes every open connection — the bulk hangup a sweep uses
    /// between points. Returns how many were open.
    pub fn close_all_connections(&self) -> u64 {
        self.conns.close_all()
    }

    /// Whether `conn` is still the current tenant of its scratch slot.
    pub fn connection_is_current(&self, conn: Connection) -> bool {
        self.conns.is_current(conn)
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.conns.opened()
    }

    /// The shard-map epoch this server currently enforces (0 =
    /// unsharded; see [`PrismServer::install_epoch`]).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Installs a shard-map epoch, monotonically: the epoch only ever
    /// moves forward, so a straggling installer cannot roll the fence
    /// back. Returns the epoch in force afterwards.
    ///
    /// The migration driver installs the new epoch on every server
    /// *before* publishing the new map to clients, so a request stamped
    /// with an epoch **newer** than the server's is impossible in a
    /// correct deployment — servers only fence requests stamped older.
    pub fn install_epoch(&self, epoch: u64) -> u64 {
        self.epoch.fetch_max(epoch, Ordering::AcqRel).max(epoch)
    }

    /// Executes a PRISM chain on the data plane.
    pub fn execute_chain(&self, chain: &[PrismOp]) -> Vec<OpResult> {
        let results = self.engine.execute_chain(chain);
        self.notify_observer(chain, &results);
        results
    }

    /// Executes a PRISM chain into a reusable results vector — the
    /// zero-alloc fast path (see
    /// [`crate::engine::PrismEngine::execute_chain_into`]).
    pub fn execute_chain_into(&self, chain: &[PrismOp], results: &mut Vec<OpResult>) {
        self.engine.execute_chain_into(chain, results);
        self.notify_observer(chain, results);
    }

    fn notify_observer(&self, chain: &[PrismOp], results: &[OpResult]) {
        if let Some(obs) = self.observer.get() {
            obs.on_chain(self, chain, results);
        }
    }

    /// Installs the chain observer (the durable-store tap), once: a
    /// second install is refused with
    /// [`AlreadyInstalled::ChainObserver`] and the first observer stays.
    pub fn set_chain_observer(
        &self,
        observer: Arc<dyn ChainObserver>,
    ) -> Result<(), AlreadyInstalled> {
        self.observer
            .set(observer)
            .map_err(|_| AlreadyInstalled::ChainObserver)
    }

    /// Models a **fail-stop-amnesia** restart: the host loses all of its
    /// memory (the arena is wiped) and comes back under a bumped
    /// incarnation, fencing every rkey issued before the crash
    /// ([`RdmaError::StaleIncarnation`]). Region *layout* survives —
    /// registrations are re-issued at the same addresses under the new
    /// incarnation, exactly what a recovering server re-registering the
    /// same carve plan would produce — so clients recover by restamping
    /// their cached rkeys ([`Rkey::restamped`]) after a re-handshake,
    /// not by relearning addresses. Returns the new incarnation.
    ///
    /// Control-plane only: the caller (the recovery protocol) must not
    /// be serving data-plane traffic while this runs.
    pub fn amnesia_restart(&self) -> u64 {
        self.arena.wipe();
        self.regions.bump_incarnation()
    }

    /// Installs the application's RPC handler in place of the reclaim
    /// RPC every server starts with, once: a second install is refused
    /// with [`AlreadyInstalled::RpcHandler`] and the first handler stays.
    pub fn set_rpc_handler(&self, handler: Arc<dyn RpcHandler>) -> Result<(), AlreadyInstalled> {
        self.rpc
            .set(handler)
            .map_err(|_| AlreadyInstalled::RpcHandler)
    }

    /// Dispatches a two-sided RPC to the installed handler, or to the
    /// reclaim RPC if the application installed none.
    pub fn handle_rpc(&self, request: &[u8]) -> Vec<u8> {
        match self.rpc.get() {
            Some(handler) => handler.handle(request),
            None => self.freelists.handle(request),
        }
    }
}

impl std::fmt::Debug for PrismServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrismServer")
            .field("arena_len", &self.arena.len())
            .field("regions", &self.regions.count())
            .field("connections", &self.conns.opened())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ops;
    use crate::freelist::free_request;
    use crate::msg::{execute_local, Reply};

    #[test]
    fn setup_and_one_sided_read() {
        let s = PrismServer::new(1 << 20);
        let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
        s.arena().write(addr, b"prism").unwrap();
        let out = s.nic().read(rkey, addr, 5).unwrap();
        assert_eq!(out, b"prism");
    }

    #[test]
    fn freelist_setup_posts_buffers() {
        let s = PrismServer::new(1 << 20);
        let id = FreeListId(1);
        s.setup_freelist(id, 512, 10);
        assert_eq!(s.freelists().available(id), 10);
    }

    #[test]
    fn chain_executes_against_real_memory() {
        let s = PrismServer::new(1 << 20);
        let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
        s.arena().write(addr, b"abcdefgh").unwrap();
        let results = s.execute_chain(&[ops::read(addr, 8, rkey.0)]);
        assert_eq!(results[0].expect_data().unwrap(), b"abcdefgh");
    }

    #[test]
    fn connections_get_distinct_scratch() {
        let s = PrismServer::new(1 << 20);
        let a = s.open_connection();
        let b = s.open_connection();
        assert_ne!(a.scratch_addr, b.scratch_addr);
        // Scratch is writable through the engine via its rkey.
        let r = s.execute_chain(&[ops::write(
            a.scratch_addr,
            b"tag-data".to_vec(),
            a.scratch_rkey.0,
        )]);
        assert!(r[0].succeeded());
    }

    #[test]
    fn connections_recycle_through_close() {
        let s = PrismServer::new(1 << 20);
        let a = s.open_connection();
        s.close_connection(a).unwrap();
        assert!(!s.connection_is_current(a));
        let b = s.open_connection();
        assert_eq!(b.id, a.id, "closed slot is reused");
        assert_ne!(b.gen, a.gen, "reused slot carries a new generation");
        assert!(s.close_connection(a).is_err(), "stale close is fenced");
        assert!(s.connection_is_current(b));
        assert_eq!(s.close_all_connections(), 1);
        assert_eq!(s.connections_open(), 0);
    }

    #[test]
    fn epoch_installs_are_monotonic() {
        let s = PrismServer::new(1 << 20);
        assert_eq!(s.current_epoch(), 0, "servers start unsharded");
        assert_eq!(s.install_epoch(3), 3);
        assert_eq!(s.install_epoch(2), 3, "epoch never rolls back");
        assert_eq!(s.current_epoch(), 3);
    }

    #[test]
    fn amnesia_restart_wipes_and_fences() {
        let s = PrismServer::new(1 << 20);
        let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
        s.arena().write(addr, b"survivor?").unwrap();
        assert_eq!(s.amnesia_restart(), 1);
        // Pre-crash rkey is fenced with a deterministic NACK.
        assert_eq!(
            s.nic().read(rkey, addr, 8).unwrap_err(),
            prism_rdma::RdmaError::StaleIncarnation {
                seen: 0,
                current: 1
            }
        );
        // A restamped key reads the wiped (zeroed) memory.
        let fresh = rkey.restamped(s.regions().current_incarnation());
        assert_eq!(s.nic().read(fresh, addr, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn rpc_round_trip() {
        let s = PrismServer::new(1 << 20);
        s.set_rpc_handler(Arc::new(|req: &[u8]| {
            let mut v = req.to_vec();
            v.reverse();
            v
        }))
        .unwrap();
        assert_eq!(s.handle_rpc(b"abc"), b"cba");
    }

    /// A server's hooks are installed once: a second install of either
    /// is refused with its typed error, and the first stays in place.
    #[test]
    fn hooks_install_once_and_the_first_stays() {
        use std::sync::atomic::AtomicUsize;
        struct Count(AtomicUsize);
        impl ChainObserver for Count {
            fn on_chain(&self, _: &PrismServer, _: &[PrismOp], _: &[OpResult]) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let s = PrismServer::new(1 << 20);
        let (first, second) = (
            Arc::new(Count(AtomicUsize::new(0))),
            Arc::new(Count(AtomicUsize::new(0))),
        );
        assert_eq!(s.set_chain_observer(Arc::clone(&first) as _), Ok(()));
        assert_eq!(
            s.set_chain_observer(Arc::clone(&second) as _),
            Err(AlreadyInstalled::ChainObserver)
        );
        let (addr, rkey) = s.carve_region(64, 64, AccessFlags::FULL);
        s.execute_chain(&[ops::read(addr, 8, rkey.0)]);
        assert_eq!(
            first.0.load(Ordering::Relaxed),
            1,
            "the first observer sees the chain"
        );
        assert_eq!(
            second.0.load(Ordering::Relaxed),
            0,
            "the refused one does not"
        );

        assert_eq!(s.set_rpc_handler(Arc::new(|_: &[u8]| vec![1])), Ok(()));
        assert_eq!(
            s.set_rpc_handler(Arc::new(|_: &[u8]| vec![2])),
            Err(AlreadyInstalled::RpcHandler)
        );
        assert_eq!(s.handle_rpc(b"x"), [1], "the first handler answers");
    }

    /// With no application handler, a server serves the reclaim RPC and
    /// refuses anything else.
    #[test]
    fn rpc_without_handler_serves_reclaim_and_refuses_the_rest() {
        let s = PrismServer::new(1 << 20);
        let id = FreeListId(1);
        s.setup_freelist(id, 512, 2);
        let (addr, _) = s.freelists().pop(id).unwrap();
        assert_eq!(execute_local(&s, &free_request(addr)), Reply::Rpc(vec![0]));
        assert_eq!(s.freelists().available(id), 2);
        assert_eq!(s.handle_rpc(b"x"), [0xFF]);
        assert_eq!(s.handle_rpc(&[]), [0xFF]);
    }
}
