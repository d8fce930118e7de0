//! Scale-out cluster layer: seeded shard maps and N-server topologies.
//!
//! PRISM's evaluation runs each application against a single server (or
//! one replica group); this module grows the harness sideways into an
//! N-server cluster. Placement is a **seeded rendezvous (HRW) shard
//! map**: every shard gets a salt derived from the map seed, a key
//! lives on the shard whose salted hash of the key is largest. That
//! gives three properties the routing tests pin down:
//!
//! * **deterministic** — the same seed rebuilds byte-identical routing
//!   on every client, so there is no routing metadata to distribute
//!   (clients carry the `(seed, shards, epoch)` triple, nothing more);
//! * **balanced** — salted hashes are i.i.d. uniform per shard, so key
//!   load spreads within standard rendezvous tolerance;
//! * **minimal remap on grow** — adding shard N+1 only moves the keys
//!   whose new salted hash wins; keys never move *between* old shards.
//!
//! The map carries an **epoch** in the incarnation-fencing shape of the
//! RS rejoin protocol (§7.2): resizing returns a new map with `epoch +
//! 1`, servers enforce it ([`prism_core::PrismServer::install_epoch`]),
//! and requests routed under a stale map are fenced with
//! [`prism_rdma::RdmaError::StaleEpoch`] exactly as amnesia-restarted
//! replicas fence stale rkeys. Live resharding is the
//! [`KvCluster::migrate_grow`] / [`RsShards::migrate_grow`] drivers:
//! grow the map, stream moved keys to their new homes via the normal
//! chained-READ / CAS-install client machinery, fence the old owners
//! per moved key, install the new epoch on every server, then publish
//! the new map through the cluster's shared [`MapHandle`]. A step that
//! fails stops the migration there, as a [`MigrateError`], before the
//! failing register's old home is fenced.
//!
//! "A system under test" has one shape here — N stores behind a shard
//! map, each with a disk and a restart procedure — and [`System`] is
//! that shape: both topologies implement it, [`RecoveryHooks::over`]
//! builds a run's restart / disk-tear / disk-rot hooks from it, and the
//! flat server index → (group, replica) arithmetic lives only in those
//! impls. [`crate::chaos::Scenario`] is the caller.

use std::sync::Arc;

use prism_core::integrity::IntegrityStats;
use prism_core::PrismServer;
use prism_kv::hash::{fnv1a, key_bytes};
use prism_kv::prism_kv::{drive as kv_drive, PrismKvClient, PrismKvConfig, PrismKvServer};
use prism_kv::KvOutcome;
use prism_rdma::sync::Mutex;
use prism_rs::prism_rs::{RsClient, RsCluster, RsConfig};
use prism_rs::{drive as rs_drive, RsOutcome, RsProtocol};
use prism_store::{DurableStats, SimDisk};
use prism_workload::ycsb::value_bytes;

use crate::netsim::RecoveryHooks;

/// 64-bit finalizer (splitmix-style avalanche): turns the raw key hash
/// XOR shard salt into the rendezvous weight.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded rendezvous shard map with an epoch field.
///
/// Cheap to clone (the per-shard salts are precomputed once); every
/// client holds its own copy and routes locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    seed: u64,
    epoch: u64,
    salts: Vec<u64>,
}

impl ShardMap {
    /// A map over `shards` servers, derived entirely from `seed`
    /// (epoch starts at 1; 0 is reserved as "no map").
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "ShardMap::new: zero shards");
        ShardMap {
            seed,
            epoch: 1,
            salts: (0..shards as u64).map(|s| mix64(seed ^ (s + 1))).collect(),
        }
    }

    /// The degenerate single-shard map every pre-cluster adapter uses.
    pub fn single() -> Self {
        ShardMap::new(1, 0)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.salts.len()
    }

    /// Map epoch (bumped by [`ShardMap::grow`], never reused).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The seed the salts derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Home shard of `key`: rendezvous argmax over the salted hashes of
    /// its FNV-1a (`mix64` does the avalanching).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let h = fnv1a(key);
        let mut best = 0usize;
        let mut best_w = mix64(h ^ self.salts[0]);
        for (s, &salt) in self.salts.iter().enumerate().skip(1) {
            let w = mix64(h ^ salt);
            if w > best_w {
                best_w = w;
                best = s;
            }
        }
        best
    }

    /// Home shard of a numeric id (blocks, 64-bit keys).
    pub fn shard_of_id(&self, id: u64) -> usize {
        self.shard_of(&id.to_le_bytes())
    }

    /// A resized map under the same seed with the epoch bumped — the
    /// static half of live resharding. Keys whose home survives keep
    /// it (rendezvous minimal-remap); the epoch bump is what a
    /// resharding protocol would fence stale-routed requests with.
    pub fn grow(&self, shards: usize) -> Self {
        assert!(shards > 0, "ShardMap::grow: zero shards");
        ShardMap {
            seed: self.seed,
            epoch: self.epoch + 1,
            salts: (0..shards as u64)
                .map(|s| mix64(self.seed ^ (s + 1)))
                .collect(),
        }
    }
}

/// The cluster's shared, mutable "current map" cell.
///
/// Every routed client holds a clone; the migration driver publishes a
/// grown map through it, and a client that gets a
/// [`prism_rdma::RdmaError::StaleEpoch`] NACK refetches its snapshot
/// here — the moral equivalent of re-reading the map from the
/// configuration service after a reconfiguration fence.
#[derive(Debug, Clone)]
pub struct MapHandle(Arc<Mutex<ShardMap>>);

impl MapHandle {
    /// Wraps an initial map.
    pub fn new(map: ShardMap) -> Self {
        MapHandle(Arc::new(Mutex::new(map)))
    }

    /// The current map (cheap clone — salts are a small vector).
    pub fn snapshot(&self) -> ShardMap {
        self.0.lock().clone()
    }

    /// The current map's epoch.
    pub fn epoch(&self) -> u64 {
        self.0.lock().epoch()
    }

    /// Publishes a new map. Epochs only move forward; a straggling
    /// installer cannot roll the routing back.
    pub fn install(&self, map: ShardMap) {
        let mut cur = self.0.lock();
        if map.epoch() > cur.epoch() {
            *cur = map;
        }
    }

    /// Brings a client's copy up to date: `map` becomes the published
    /// map if that one is newer.
    pub fn refresh(&self, map: &mut ShardMap) {
        let cur = self.0.lock();
        if cur.epoch() > map.epoch() {
            *map = cur.clone();
        }
    }
}

/// A fixed map is a cell nobody else publishes to: a routed client takes
/// either, and "live" is a property of the handle it was given.
impl From<ShardMap> for MapHandle {
    fn from(map: ShardMap) -> Self {
        MapHandle::new(map)
    }
}

// ---------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------

/// Which step of moving one register a live migration stopped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateStep {
    /// Reading the register out of its old home.
    Read,
    /// Installing it at its new home.
    Install,
    /// Fencing the old home after the install.
    Fence,
}

/// A live migration that stopped. It stops where it failed: the failing
/// register is not fenced at its old home, no epoch is installed and the
/// map is not published, so clients keep routing by the old map.
/// Registers moved before the failure stay at their new homes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateError {
    /// The key or block id being moved.
    pub register: u64,
    /// The step that failed.
    pub step: MigrateStep,
    /// The protocol's reason.
    pub reason: String,
}

impl MigrateError {
    fn new(register: u64, step: MigrateStep, reason: impl std::fmt::Debug) -> Self {
        MigrateError {
            register,
            step,
            reason: format!("{reason:?}"),
        }
    }
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "migration of register {} stopped at {:?}: {}",
            self.register, self.step, self.reason
        )
    }
}

impl std::error::Error for MigrateError {}

/// A system under test as a run sees it: N stores behind a shard map,
/// each with a disk and a restart procedure, addressed by the flat
/// server index the simulation's actors and the fault plan use.
/// [`KvCluster`] and [`RsShards`] are the two there are; what maps a
/// flat index to a shard, or to a group and a replica, is written once,
/// in their impls.
pub trait System: Send + Sync {
    /// Every provisioned server, in flat order: shard order, or
    /// group-major (`group * replicas + replica`) — what the
    /// simulation's per-host actors bind to.
    fn servers(&self) -> Vec<Arc<PrismServer>>;
    /// Amnesia-restarts server `i` and runs its recovery (log replay,
    /// and for a replica its group's rejoin). Returns the new
    /// incarnation.
    fn amnesia_restart(&self, i: usize) -> u64;
    /// Server `i`'s disk.
    fn disk(&self, i: usize) -> &Arc<SimDisk>;
    /// The durable-recovery counters every server shares.
    fn durable_stats(&self) -> &Arc<DurableStats>;
    /// The published shard map (a client clones it for local routing;
    /// under live resharding it holds the `map_handle` instead and
    /// refetches on a stale-epoch fence).
    fn map(&self) -> ShardMap;
    /// Live reshard of registers `0..registers` onto the first `to`
    /// homes: `(new map, registers moved)`, or the step that failed.
    fn migrate_grow(&self, to: usize, registers: u64) -> Result<(ShardMap, u64), MigrateError>;
    /// Reads `register` at shard or group `home` on the control-plane
    /// path (no epoch stamp, so a fenced old owner is asked too):
    /// the value, `None` for a key that is absent, or why nothing could
    /// be read.
    fn read_direct(&self, home: usize, register: u64) -> Result<Option<Vec<u8>>, String>;
    /// `(rejoins, quorum resyncs)` so far; a single-copy store has
    /// neither.
    fn recoveries(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl RecoveryHooks {
    /// Every hook `system` can supply — restart, disk tear, disk rot,
    /// durable counters — plus the run's `integrity` sink. A plan that
    /// schedules none of those faults never reaches them; `sweep` and
    /// `control` are the caller's.
    pub fn over(system: Arc<dyn System>, integrity: Arc<IntegrityStats>) -> Self {
        let durable = Arc::clone(system.durable_stats());
        let (restart, tear, rot) = (Arc::clone(&system), Arc::clone(&system), system);
        RecoveryHooks {
            on_restart: Some(Arc::new(move |i| {
                restart.amnesia_restart(i);
            })),
            disk_tear: Some(Arc::new(move |i, rng| {
                tear.disk(i).tear_tail(rng);
            })),
            disk_rot: Some(Arc::new(move |i, rng, bits| {
                rot.disk(i).rot(rng, bits);
            })),
            integrity: Some(integrity),
            durable: Some(durable),
            sweep: None,
            control: None,
        }
    }
}

// ---------------------------------------------------------------------
// PRISM-KV cluster
// ---------------------------------------------------------------------

/// N independent PRISM-KV servers behind one shard map.
///
/// Each shard is a complete single-server store; the cluster adds no
/// server-side coordination (exactly the paper's deployment shape —
/// PRISM keeps servers passive, so scale-out is pure client routing).
pub struct KvCluster {
    shards: Vec<PrismKvServer>,
    handle: MapHandle,
    durable: Arc<DurableStats>,
}

impl KvCluster {
    /// Builds `n` identically-configured shards and a map seeded with
    /// `seed`.
    pub fn new(n: usize, config: &PrismKvConfig, seed: u64) -> Self {
        KvCluster::with_active(n, n, config, seed)
    }

    /// Builds `total` shards but routes over only the first `active` —
    /// the pre-provisioned topology a live [`KvCluster::migrate_grow`]
    /// expands into. Every server (active or standby) learns the map's
    /// epoch at build time.
    pub fn with_active(total: usize, active: usize, config: &PrismKvConfig, seed: u64) -> Self {
        assert!(active >= 1 && active <= total, "active shards out of range");
        let durable = Arc::new(DurableStats::new());
        let shards: Vec<PrismKvServer> = (0..total)
            .map(|_| {
                let mut s = PrismKvServer::new(config);
                s.set_durable_stats(Arc::clone(&durable));
                s
            })
            .collect();
        let map = ShardMap::new(active, seed);
        for s in &shards {
            s.server().install_epoch(map.epoch());
        }
        KvCluster {
            shards,
            handle: MapHandle::new(map),
            durable,
        }
    }

    /// The shared current-map cell.
    pub fn map_handle(&self) -> MapHandle {
        self.handle.clone()
    }

    /// One shard's store.
    pub fn shard(&self, i: usize) -> &PrismKvServer {
        &self.shards[i]
    }

    /// One client per shard, in shard order — a routed adapter holds
    /// the whole vector and indexes it with [`ShardMap::shard_of`].
    pub fn open_clients(&self) -> Vec<PrismKvClient> {
        self.shards.iter().map(|s| s.open_client()).collect()
    }

    /// YCSB load phase, routed: each key is preloaded on its home
    /// shard only (the cluster holds one copy of every key, not N).
    pub fn preload(&self, n_keys: u64, value_len: usize) {
        let clients = self.open_clients();
        let map = self.map();
        for k in 0..n_keys {
            let key = key_bytes(k);
            let home = map.shard_of(&key);
            let value = value_bytes(k, 0, value_len);
            self.write_at(home, &clients[home], &key, Some(&value));
        }
    }

    /// One GET at shard `s` on the control-plane path (no epoch stamp).
    fn read_at(&self, s: usize, client: &PrismKvClient, key: &[u8]) -> KvOutcome {
        let (mut op, req) = client.get(key);
        kv_drive(self.shards[s].server(), req, |r| op.on_reply(client, r)).0
    }

    /// One PUT (or, with no value, DELETE) at shard `s`, likewise.
    fn write_at(
        &self,
        s: usize,
        client: &PrismKvClient,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> KvOutcome {
        let (mut op, req) = match value {
            Some(v) => client.put(key, v),
            None => client.delete(key),
        };
        kv_drive(self.shards[s].server(), req, |r| op.on_reply(client, r)).0
    }
}

impl System for KvCluster {
    fn servers(&self) -> Vec<Arc<PrismServer>> {
        self.shards.iter().map(|s| Arc::clone(s.server())).collect()
    }

    fn amnesia_restart(&self, i: usize) -> u64 {
        self.shards[i].amnesia_restart()
    }

    fn disk(&self, i: usize) -> &Arc<SimDisk> {
        self.shards[i].disk()
    }

    fn durable_stats(&self) -> &Arc<DurableStats> {
        &self.durable
    }

    fn map(&self) -> ShardMap {
        self.handle.snapshot()
    }

    /// Live 2→N resharding of keys `key_bytes(0..n_keys)`: grows the map
    /// over the first `to` shards, streams every moved key from its old
    /// home to its new one (chained PRISM READ out, CAS install in — the
    /// ordinary client machinery), fences the old owner per moved key
    /// with a routed DELETE, installs the new epoch on **every** server,
    /// and only then publishes the new map. Returns `(new_map,
    /// moved_keys)`, or the first step that failed — see
    /// [`MigrateError`] for what a stopped migration leaves behind.
    ///
    /// Run from the simulation's control plane this whole sequence is
    /// atomic at one instant, so in-flight requests stamped with the old
    /// epoch arrive after the flip and are fenced with
    /// [`prism_rdma::RdmaError::StaleEpoch`]; their clients refetch the
    /// map through the [`MapHandle`] and reroute.
    fn migrate_grow(&self, to: usize, n_keys: u64) -> Result<(ShardMap, u64), MigrateError> {
        assert!(to <= self.shards.len(), "grow beyond provisioned shards");
        let old = self.map();
        let new = old.grow(to);
        let clients = self.open_clients();
        let mut moved = 0u64;
        for k in 0..n_keys {
            let key = key_bytes(k);
            let (from, dest) = (old.shard_of(&key), new.shard_of(&key));
            if from == dest {
                continue;
            }
            // Chained READ out of the old home.
            let value = match self.read_at(from, &clients[from], &key) {
                KvOutcome::Value(Some(v)) => v,
                KvOutcome::Value(None) => continue, // never written: nothing to move
                KvOutcome::Failed(why) => return Err(MigrateError::new(k, MigrateStep::Read, why)),
                KvOutcome::Written => unreachable!("GET cannot return Written"),
            };
            // CAS install into the new home. Only a key that landed
            // there may be fenced at the old one.
            if let KvOutcome::Failed(why) = self.write_at(dest, &clients[dest], &key, Some(&value))
            {
                return Err(MigrateError::new(k, MigrateStep::Install, why));
            }
            // Fence the old owner: the key's index slot is cleared, so
            // even a raw access that bypassed the epoch fence reads
            // "absent" rather than a stale value; the displaced buffer
            // is reclaimed through the normal delete path.
            if let KvOutcome::Failed(why) = self.write_at(from, &clients[from], &key, None) {
                return Err(MigrateError::new(k, MigrateStep::Fence, why));
            }
            moved += 1;
        }
        for s in &self.shards {
            s.server().install_epoch(new.epoch());
        }
        self.handle.install(new.clone());
        Ok((new, moved))
    }

    fn read_direct(&self, home: usize, register: u64) -> Result<Option<Vec<u8>>, String> {
        let client = self.shards[home].open_client();
        match self.read_at(home, &client, &key_bytes(register)) {
            KvOutcome::Value(v) => Ok(v),
            other => Err(format!("{other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// PRISM-RS sharded groups
// ---------------------------------------------------------------------

/// S independent 3-replica PRISM-RS groups behind one shard map.
///
/// Blocks are routed to a *group*; inside the group the full quorum
/// protocol runs unchanged. The flat server index of group `g`'s
/// replica `r` is `g * replicas + r` — the layout
/// [`crate::adapters::PrismRsAdapter`] encodes in its reply tags so
/// stragglers of a completed op still find their group.
pub struct RsShards {
    groups: Vec<RsCluster>,
    replicas: usize,
    handle: MapHandle,
    durable: Arc<DurableStats>,
}

impl RsShards {
    /// Builds `groups` clusters of `replicas` each.
    pub fn new(groups: usize, replicas: usize, config: &RsConfig, seed: u64) -> Self {
        RsShards::with_active(groups, groups, replicas, config, seed)
    }

    /// Builds `total` groups but routes over only the first `active` —
    /// the pre-provisioned topology a live [`RsShards::migrate_grow`]
    /// expands into. Flat server indices (`group * replicas + r`) cover
    /// all `total` groups from the start, so growing never renumbers a
    /// server. Every replica learns the map's epoch at build time.
    pub fn with_active(
        total: usize,
        active: usize,
        replicas: usize,
        config: &RsConfig,
        seed: u64,
    ) -> Self {
        assert!(active >= 1 && active <= total, "active groups out of range");
        let durable = Arc::new(DurableStats::new());
        let groups: Vec<RsCluster> = (0..total)
            .map(|_| {
                let mut c = RsCluster::new(replicas, config);
                c.set_durable_stats(Arc::clone(&durable));
                c
            })
            .collect();
        let map = ShardMap::new(active, seed);
        for g in &groups {
            for r in 0..replicas {
                g.replica(r).server().install_epoch(map.epoch());
            }
        }
        RsShards {
            groups,
            replicas,
            handle: MapHandle::new(map),
            durable,
        }
    }

    /// The shared current-map cell.
    pub fn map_handle(&self) -> MapHandle {
        self.handle.clone()
    }

    /// One group.
    pub fn group(&self, g: usize) -> &RsCluster {
        &self.groups[g]
    }

    /// One client per group, in group order.
    pub fn open_clients(&self) -> Vec<RsClient> {
        self.groups.iter().map(|c| c.open_client()).collect()
    }
}

impl System for RsShards {
    fn servers(&self) -> Vec<Arc<PrismServer>> {
        self.groups
            .iter()
            .flat_map(|c| (0..self.replicas).map(|r| Arc::clone(c.replica(r).server())))
            .collect()
    }

    fn amnesia_restart(&self, i: usize) -> u64 {
        self.groups[i / self.replicas].amnesia_restart(i % self.replicas)
    }

    fn disk(&self, i: usize) -> &Arc<SimDisk> {
        self.groups[i / self.replicas]
            .replica(i % self.replicas)
            .disk()
    }

    fn durable_stats(&self) -> &Arc<DurableStats> {
        &self.durable
    }

    fn map(&self) -> ShardMap {
        self.handle.snapshot()
    }

    /// Live resharding of blocks `0..n_blocks` for replicated groups:
    /// grows the map over the first `to` groups, streams every moved block through the normal
    /// quorum machinery (chained-READ quorum read from the old group,
    /// CAS install into the new group), fences the old owners per moved
    /// block, installs the new epoch on **every** replica of every
    /// group, then publishes the new map. Returns `(new_map,
    /// moved_blocks)`, or the first step that failed — see
    /// [`MigrateError`] for what a stopped migration leaves behind.
    ///
    /// Each old-group replica fences every moved block
    /// ([`prism_rs::prism_rs::PrismRsServer::fence`]) — defense in depth
    /// behind the epoch fence. The displaced buffers become unreachable
    /// and are reclaimed by each old replica's
    /// [`prism_rs::prism_rs::PrismRsServer::gc_sweep`].
    fn migrate_grow(&self, to: usize, n_blocks: u64) -> Result<(ShardMap, u64), MigrateError> {
        assert!(to <= self.groups.len(), "grow beyond provisioned groups");
        let old = self.map();
        let new = old.grow(to);
        let mut clients: Vec<RsClient> = self.open_clients();
        let healthy = vec![false; self.replicas];
        let mut moved = 0u64;
        let mut fenced_groups: Vec<usize> = Vec::new();
        for b in 0..n_blocks {
            let (from, dest) = (old.shard_of_id(b), new.shard_of_id(b));
            if from == dest {
                continue;
            }
            // Quorum read from the old group (chained indirect READs).
            let (op, step) = clients[from].get(b);
            let value = match rs_drive(&self.groups[from], &mut clients[from], op, step, &healthy) {
                RsOutcome::Value(v) => v,
                other => return Err(MigrateError::new(b, MigrateStep::Read, other)),
            };
            // CAS install into every replica of the new group. Only a
            // block that landed there may be fenced at the old one.
            let (op, step) = clients[dest].put(b, value);
            match rs_drive(&self.groups[dest], &mut clients[dest], op, step, &healthy) {
                RsOutcome::Written => {}
                other => return Err(MigrateError::new(b, MigrateStep::Install, other)),
            }
            // Fence the old owners — in memory and in the log: without
            // the log record, an old owner's amnesia replay would
            // resurrect the moved block from its pre-fence installs.
            for r in 0..self.replicas {
                self.groups[from]
                    .replica(r)
                    .fence(b, new.epoch())
                    .map_err(|e| MigrateError::new(b, MigrateStep::Fence, e))?;
            }
            if !fenced_groups.contains(&from) {
                fenced_groups.push(from);
            }
            moved += 1;
        }
        // Reclaim the buffers the fences orphaned on the old groups.
        for g in fenced_groups {
            for r in 0..self.replicas {
                self.groups[g].replica(r).gc_sweep();
            }
        }
        for g in &self.groups {
            for r in 0..self.replicas {
                g.replica(r).server().install_epoch(new.epoch());
            }
        }
        self.handle.install(new.clone());
        Ok((new, moved))
    }

    fn read_direct(&self, home: usize, register: u64) -> Result<Option<Vec<u8>>, String> {
        let mut client = self.groups[home].open_client();
        let (op, step) = client.get(register);
        let healthy = vec![false; self.replicas];
        match rs_drive(&self.groups[home], &mut client, op, step, &healthy) {
            RsOutcome::Value(v) => Ok(Some(v)),
            other => Err(format!("{other:?}")),
        }
    }

    fn recoveries(&self) -> (u64, u64) {
        let sum = |count: fn(&RsCluster) -> u64| self.groups.iter().map(count).sum();
        (sum(RsCluster::rejoins), sum(RsCluster::resyncs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_simnet::rng::SimRng;
    use std::collections::HashMap;

    /// The routing seed, moved by `PRISM_TEST_SEED` as in the fault
    /// matrix and chaos gate: the routing properties must hold at
    /// *every* seed, so the gate runs them at two.
    fn seed() -> u64 {
        prism_testkit::seed_or(42)
    }

    #[test]
    fn routing_is_deterministic_across_rebuilds() {
        let seed = seed();
        let a = ShardMap::new(8, seed);
        let b = ShardMap::new(8, seed);
        assert_eq!(a, b, "same seed must rebuild the same map");
        for k in 0..10_000u64 {
            let key = key_bytes(k);
            assert_eq!(a.shard_of(&key), b.shard_of(&key));
        }
        // A different seed routes differently somewhere (overwhelming
        // probability over 10k keys — a collision here means the salts
        // are being ignored).
        let c = ShardMap::new(8, seed ^ 0xDEAD_BEEF);
        assert!(
            (0..10_000u64).any(|k| a.shard_of(&key_bytes(k)) != c.shard_of(&key_bytes(k))),
            "seed must actually perturb routing"
        );
    }

    #[test]
    fn load_balances_within_rendezvous_tolerance() {
        let seed = seed();
        for shards in [2usize, 4, 8] {
            let map = ShardMap::new(shards, seed);
            let n = 100_000u64;
            let mut counts = vec![0u64; shards];
            for k in 0..n {
                counts[map.shard_of(&key_bytes(k))] += 1;
            }
            let expect = n as f64 / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                let skew = (c as f64 - expect).abs() / expect;
                assert!(
                    skew < 0.05,
                    "shard {s}/{shards}: {c} keys vs {expect:.0} expected ({:.1}% skew)",
                    skew * 100.0
                );
            }
        }
    }

    #[test]
    fn same_count_rebuild_is_a_stable_remap() {
        // Rebuilding the map at the same shard count (e.g. after a
        // config reload) must not move a single key.
        let seed = seed();
        let a = ShardMap::new(4, seed);
        let regrown = a.grow(4);
        assert_eq!(regrown.epoch(), 2, "grow always bumps the epoch");
        for k in 0..10_000u64 {
            let key = key_bytes(k);
            assert_eq!(
                a.shard_of(&key),
                regrown.shard_of(&key),
                "unchanged shard count must keep every placement"
            );
        }
    }

    #[test]
    fn growing_moves_keys_only_onto_new_shards() {
        let seed = seed();
        let old = ShardMap::new(4, seed);
        let new = old.grow(6);
        assert_eq!(new.epoch(), old.epoch() + 1);
        let n = 50_000u64;
        let mut moved = 0u64;
        for k in 0..n {
            let key = key_bytes(k);
            let (from, to) = (old.shard_of(&key), new.shard_of(&key));
            if from != to {
                assert!(
                    to >= 4,
                    "key {k} moved between surviving shards {from}->{to}: rendezvous \
                     minimal-remap violated"
                );
                moved += 1;
            }
        }
        // Expected churn is 2/6 of the keyspace; accept a wide band.
        let frac = moved as f64 / n as f64;
        assert!(
            frac > 0.20 && frac < 0.45,
            "grow 4->6 moved {:.1}% of keys (expected ~33%)",
            frac * 100.0
        );
    }

    #[test]
    fn kv_cluster_routes_preload_to_each_home_shard() {
        let seed = seed();
        let n_keys = 256u64;
        let config = PrismKvConfig::paper(n_keys, 64);
        let cluster = KvCluster::new(4, &config, seed);
        cluster.preload(n_keys, 64);

        // Each key lives on exactly its home shard: per-shard key
        // counts sum to n_keys (no key is duplicated or dropped).
        let mut per_shard: HashMap<usize, u64> = HashMap::new();
        for k in 0..n_keys {
            *per_shard
                .entry(cluster.map().shard_of(&key_bytes(k)))
                .or_default() += 1;
        }
        assert_eq!(per_shard.values().sum::<u64>(), n_keys);
        assert!(per_shard.len() > 1, "256 keys must touch several shards");

        // Every key reads back its preloaded value at its home shard.
        let clients = cluster.open_clients();
        for k in 0..32u64 {
            let key = key_bytes(k);
            let home = cluster.map().shard_of(&key);
            assert_eq!(
                cluster.read_at(home, &clients[home], &key),
                KvOutcome::Value(Some(value_bytes(k, 0, 64))),
                "key {k} must read back its preloaded value"
            );
        }
    }

    #[test]
    fn rs_shards_flat_indexing_reaches_every_replica() {
        let config = RsConfig::paper(8, 64);
        let shards = RsShards::new(2, 3, &config, seed());
        assert_eq!(shards.servers().len(), 6);
        // Amnesia-restart via a flat index lands in the right group.
        assert_eq!(shards.recoveries().0, 0);
        shards.amnesia_restart(4); // group 1, replica 1
        assert_eq!(shards.group(1).rejoins(), 1);
        assert_eq!(shards.group(0).rejoins(), 0);
        assert_eq!(shards.recoveries().0, 1);
    }

    /// Satellite property test: growing the map under replica groups
    /// never renumbers a flat server index, and every unmoved block's
    /// home group keeps the exact same three `group * replicas + r`
    /// servers across the epoch bump. Swept over many derived seeds and
    /// several `(active, total, replicas)` shapes — the flat indexing
    /// is what the reply tags encode, so a single violation would
    /// misroute stragglers after a grow.
    #[test]
    fn grow_keeps_flat_indices_stable_for_unmoved_groups() {
        let base = seed();
        for round in 0..16u64 {
            let seed = mix64(base ^ round);
            for (active, total, replicas) in [(2usize, 4usize, 3usize), (3, 6, 3), (2, 5, 2)] {
                let old = ShardMap::new(active, seed);
                let new = old.grow(total);
                assert_eq!(new.epoch(), old.epoch() + 1);
                for b in 0..2_000u64 {
                    let (from, to) = (old.shard_of_id(b), new.shard_of_id(b));
                    if from == to {
                        // Unmoved block: identical flat replica indices
                        // before and after the bump.
                        let flat: Vec<usize> = (0..replicas).map(|r| from * replicas + r).collect();
                        let flat_after: Vec<usize> =
                            (0..replicas).map(|r| to * replicas + r).collect();
                        assert_eq!(flat, flat_after);
                    } else {
                        assert!(
                            to >= active,
                            "seed {seed}: block {b} moved between surviving groups \
                             {from}->{to}: rendezvous minimal-remap violated"
                        );
                    }
                    assert!(to < total, "home beyond provisioned groups");
                }
            }
        }
    }

    #[test]
    fn kv_migrate_grow_moves_keys_and_fences_old_homes() {
        let seed = seed();
        let n_keys = 128u64;
        let config = PrismKvConfig::paper(n_keys, 64);
        let cluster = KvCluster::with_active(4, 2, &config, seed);
        cluster.preload(n_keys, 64);

        let old = cluster.map();
        assert_eq!(old.shards(), 2);
        let (new, moved) = cluster
            .migrate_grow(4, n_keys)
            .expect("every moved key fits its new home");
        assert_eq!(new.shards(), 4);
        assert_eq!(new.epoch(), old.epoch() + 1);
        assert!(moved > 0, "a 2->4 grow must move some keys");
        assert_eq!(cluster.map(), new, "handle publishes the grown map");
        for s in 0..4 {
            assert_eq!(cluster.shard(s).server().current_epoch(), new.epoch());
        }

        // Every key reads back its value at its *new* home; moved keys
        // are fenced (absent) at their old home.
        let clients = cluster.open_clients();
        for k in 0..n_keys {
            let key = key_bytes(k);
            let home = new.shard_of(&key);
            assert_eq!(
                cluster.read_at(home, &clients[home], &key),
                KvOutcome::Value(Some(value_bytes(k, 0, 64))),
                "key {k} must survive the migration at its new home"
            );
            let old_home = old.shard_of(&key);
            if old_home != home {
                assert_eq!(
                    cluster.read_at(old_home, &clients[old_home], &key),
                    KvOutcome::Value(None),
                    "moved key {k} must be fenced (absent) at its old home"
                );
            }
        }
    }

    /// A destination that cannot take a key must stop the migration
    /// before that key's old home is fenced: at the parent the install's
    /// outcome was dropped and the DELETE that followed lost the key.
    #[test]
    fn kv_migrate_grow_stops_at_a_failed_install_without_fencing() {
        use prism_kv::hash::HashScheme;
        let n_keys = 128u64;
        let mut config = PrismKvConfig::paper(1024, 64);
        config.scheme = HashScheme::Fnv;
        config.classes[0].count = 96;
        let cluster = KvCluster::with_active(4, 2, &config, seed());
        cluster.preload(n_keys, 64);
        // Drain both standby shards' value pools, each through its own
        // client, with keys the workload never names.
        for standby in 2..4 {
            let client = cluster.shard(standby).open_client();
            let filled = (0..=96u64).find(|&j| {
                let filler = key_bytes(1_000_000 + j);
                cluster.write_at(standby, &client, &filler, Some(&[7u8; 64]))
                    == KvOutcome::Failed("allocation failed")
            });
            assert_eq!(filled, Some(96), "96 buffers, then none");
        }

        let old = cluster.map();
        let err = cluster
            .migrate_grow(4, n_keys)
            .expect_err("no standby shard has a buffer to install into");
        assert_eq!(err.step, MigrateStep::Install);
        assert!(err.reason.contains("allocation failed"), "{err}");
        let key = key_bytes(err.register);
        let home = old.shard_of(&key);
        assert_eq!(
            cluster.read_direct(home, err.register),
            Ok(Some(value_bytes(err.register, 0, 64))),
            "the key that could not move must still be served by its old home"
        );
        assert_eq!(
            cluster.map_handle().epoch(),
            old.epoch(),
            "nothing published"
        );
        assert_eq!(cluster.map(), old);
        for s in cluster.servers() {
            assert_eq!(s.current_epoch(), old.epoch(), "no epoch installed");
        }
    }

    /// What one server looks like to the routing tests below: its disk,
    /// byte for byte with sync watermarks, and its incarnation.
    type Observed = (Vec<(String, Vec<u8>, usize)>, u64);
    type Hook<'a> = &'a dyn Fn(usize, &mut SimRng);

    fn observe(server: &PrismServer, disk: &SimDisk) -> Observed {
        let image = disk
            .list("")
            .into_iter()
            .map(|name| {
                let bytes = disk.read(&name).expect("listed file reads");
                let synced = disk.synced(&name).expect("listed file has a watermark");
                (name, bytes, synced)
            })
            .collect();
        (image, server.regions().current_incarnation())
    }

    /// Fires each hook of `RecoveryHooks::over(system)` at every flat
    /// index and demands that exactly that server changed: `look(j)`
    /// observes server `j` by a path that does not go through `System`.
    fn assert_hooks_reach_exactly_the_named_server(
        system: Arc<dyn System>,
        n: usize,
        look: &dyn Fn(usize) -> Observed,
    ) {
        let hooks = RecoveryHooks::over(system, Arc::new(IntegrityStats::new()));
        let mut rng = SimRng::new(seed());
        let fire: [(&str, Hook<'_>); 3] = [
            ("tear", &|i, rng| {
                (hooks.disk_tear.as_ref().expect("tear hook"))(i, rng)
            }),
            ("rot", &|i, rng| {
                (hooks.disk_rot.as_ref().expect("rot hook"))(i, rng, 3)
            }),
            ("restart", &|i, _| {
                (hooks.on_restart.as_ref().expect("restart hook"))(i)
            }),
        ];
        for (what, hook) in fire {
            for i in 0..n {
                let before: Vec<_> = (0..n).map(look).collect();
                hook(i, &mut rng);
                for (j, was) in before.into_iter().enumerate() {
                    let now = look(j);
                    // (`assert!`, not `assert_eq!`: a mismatch would
                    // print two whole disk images.)
                    if j != i {
                        assert!(now == was, "{what}({i}) touched server {j}");
                    } else if what == "restart" {
                        assert_eq!(now.1, was.1 + 1, "restart({i}) must bump {i}");
                    } else {
                        assert!(now.0 != was.0, "{what}({i}) must damage disk {i}");
                        assert_eq!(now.1, was.1);
                    }
                }
            }
        }
    }

    #[test]
    fn hooks_over_rs_shards_route_flat_indices_to_group_and_replica() {
        let shards = Arc::new(RsShards::new(2, 3, &RsConfig::paper(8, 64), seed()));
        for g in 0..2 {
            for r in 0..3 {
                // An unsynced tail for the tear to cut and bytes to rot.
                let disk = shards.group(g).replica(r).disk();
                disk.append("scratch", &[0xA5; 256]);
            }
        }
        let look = {
            let shards = Arc::clone(&shards);
            move |j: usize| {
                let replica = shards.group(j / 3).replica(j % 3);
                observe(replica.server(), replica.disk())
            }
        };
        assert_hooks_reach_exactly_the_named_server(shards, 6, &look);
    }

    #[test]
    fn hooks_over_kv_cluster_leave_standby_shards_untouched() {
        let config = PrismKvConfig::paper(8, 64);
        let cluster = Arc::new(KvCluster::with_active(4, 2, &config, seed()));
        cluster.preload(8, 64);
        for s in 0..4 {
            cluster.shard(s).disk().append("scratch", &[0xA5; 256]);
        }
        let look = {
            let cluster = Arc::clone(&cluster);
            move |j: usize| observe(cluster.shard(j).server(), cluster.shard(j).disk())
        };
        // All four are reachable by index, and an event on an active
        // shard (0, 1) never lands on a standby one (2, 3) or back.
        assert_hooks_reach_exactly_the_named_server(cluster, 4, &look);
    }

    #[test]
    fn rs_migrate_grow_moves_blocks_and_fences_old_groups() {
        let seed = seed();
        let n_blocks = 32u64;
        let config = RsConfig::paper(n_blocks, 64);
        let shards = RsShards::with_active(4, 2, 3, &config, seed);
        assert_eq!(
            shards.servers().len(),
            12,
            "all groups provisioned up front"
        );

        // Write a distinct value into every block at its initial home.
        let mut clients = shards.open_clients();
        let old = shards.map();
        for b in 0..n_blocks {
            let home = old.shard_of_id(b);
            let (op, step) = clients[home].put(b, vec![b as u8 + 1; 64]);
            assert_eq!(
                rs_drive(
                    shards.group(home),
                    &mut clients[home],
                    op,
                    step,
                    &[false; 3]
                ),
                RsOutcome::Written
            );
        }

        let (new, moved) = shards
            .migrate_grow(4, n_blocks)
            .expect("every moved block installs");
        assert!(moved > 0, "a 2->4 grow must move some blocks");
        assert_eq!(shards.map(), new);
        for g in 0..4 {
            for r in 0..3 {
                assert_eq!(
                    shards.group(g).replica(r).server().current_epoch(),
                    new.epoch()
                );
            }
        }

        for b in 0..n_blocks {
            let home = new.shard_of_id(b);
            let (op, step) = clients[home].get(b);
            assert_eq!(
                rs_drive(
                    shards.group(home),
                    &mut clients[home],
                    op,
                    step,
                    &[false; 3]
                ),
                RsOutcome::Value(vec![b as u8 + 1; 64]),
                "block {b} must survive the migration at its new home"
            );
            let old_home = old.shard_of_id(b);
            if old_home != home {
                // The old owners are fenced: a quorum read through the
                // nulled metadata cannot return the stale value.
                let (op, step) = clients[old_home].get(b);
                let out = rs_drive(
                    shards.group(old_home),
                    &mut clients[old_home],
                    op,
                    step,
                    &[false; 3],
                );
                assert_ne!(
                    out,
                    RsOutcome::Value(vec![b as u8 + 1; 64]),
                    "moved block {b} must not be readable at its old group"
                );
            }
        }
    }
}
