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
//! the new map through the cluster's shared [`MapHandle`].
//!
//! Cross-shard **doorbell batching** lives in
//! [`prism_kv::batch::prism_kv_get_many_sharded`]: one logical
//! multi-GET fans out as one `Request::Batch` doorbell per home shard
//! per round, and [`KvCluster::get_many`] demonstrates it end-to-end.

use std::sync::Arc;

use prism_core::msg::{execute_local, Reply, Request};
use prism_core::PrismServer;
use prism_kv::batch::prism_kv_get_many_sharded;
use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{GetOp, PrismKvClient, PrismKvConfig, PrismKvServer, PutOp};
use prism_kv::{KvOutcome, KvStep};
use prism_rdma::sync::Mutex;
use prism_rs::prism_rs::{drive as rs_drive, RsClient, RsCluster, RsConfig, RsOutcome};
use prism_rs::tag::Tag;
use prism_store::DurableStats;
use prism_workload::ycsb::value_bytes;

/// 64-bit finalizer (splitmix-style avalanche): turns the raw key hash
/// XOR shard salt into the rendezvous weight.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the key bytes — the same cheap, seedable hash family the
/// buffer-address sets use; the finalizer above does the avalanching.
fn key_hash(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
    h
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

    /// Home shard of `key`: rendezvous argmax over the salted hashes.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let h = key_hash(key);
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

    /// The cluster's durable-recovery counters (shared by every shard;
    /// the harness folds these into `RunResult`).
    pub fn durable_stats(&self) -> &Arc<DurableStats> {
        &self.durable
    }

    /// Amnesia-restarts shard `i` and replays its segment log (the
    /// chaos gate's restart hook). Returns the shard's new incarnation.
    pub fn amnesia_restart(&self, i: usize) -> u64 {
        self.shards[i].amnesia_restart()
    }

    /// The current shard map (clients clone it for local routing; under
    /// live resharding, hold the [`KvCluster::map_handle`] instead and
    /// refetch on a stale-epoch fence).
    pub fn map(&self) -> ShardMap {
        self.handle.snapshot()
    }

    /// The shared current-map cell.
    pub fn map_handle(&self) -> MapHandle {
        self.handle.clone()
    }

    /// One shard's store.
    pub fn shard(&self, i: usize) -> &PrismKvServer {
        &self.shards[i]
    }

    /// The flat server list in shard order (what the simulation's
    /// per-host actors bind to).
    pub fn servers(&self) -> Vec<Arc<PrismServer>> {
        self.shards.iter().map(|s| Arc::clone(s.server())).collect()
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
            let (op, req) = clients[home].put(&key, &value);
            drive_kv(self.shards[home].server(), &clients[home], op, req);
        }
    }

    /// Live 2→N resharding: grows the map over the first `to` shards,
    /// streams every moved key from its old home to its new one (chained
    /// PRISM READ out, CAS install in — the ordinary client machinery),
    /// fences the old owner per moved key with a routed DELETE, installs
    /// the new epoch on **every** server, and only then publishes the
    /// new map. Returns `(new_map, moved_keys)`.
    ///
    /// Run from the simulation's control plane this whole sequence is
    /// atomic at one instant, so in-flight requests stamped with the old
    /// epoch arrive after the flip and are fenced with
    /// [`prism_rdma::RdmaError::StaleEpoch`]; their clients refetch the
    /// map through the [`MapHandle`] and reroute.
    pub fn migrate_grow<'k>(
        &self,
        to: usize,
        keys: impl IntoIterator<Item = &'k [u8]>,
    ) -> (ShardMap, u64) {
        assert!(to <= self.shards.len(), "grow beyond provisioned shards");
        let old = self.map();
        let new = old.grow(to);
        let clients = self.open_clients();
        let mut moved = 0u64;
        for key in keys {
            let (from, dest) = (old.shard_of(key), new.shard_of(key));
            if from == dest {
                continue;
            }
            // Chained READ out of the old home.
            let (op, req) = clients[from].get(key);
            let out = drive_kv(self.shards[from].server(), &clients[from], op, req);
            let value = match out {
                KvOutcome::Value(Some(v)) => v,
                KvOutcome::Value(None) => continue, // never written: nothing to move
                KvOutcome::Failed(why) => panic!("migration read of moved key failed: {why}"),
                KvOutcome::Written => unreachable!("GET cannot return Written"),
            };
            // CAS install into the new home.
            let (op, req) = clients[dest].put(key, &value);
            drive_kv(self.shards[dest].server(), &clients[dest], op, req);
            // Fence the old owner: the key's index slot is cleared, so
            // even a raw access that bypassed the epoch fence reads
            // "absent" rather than a stale value; the displaced buffer
            // is reclaimed through the normal delete path.
            let (op, req) = clients[from].delete(key);
            drive_kv(self.shards[from].server(), &clients[from], op, req);
            moved += 1;
        }
        for s in &self.shards {
            s.server().install_epoch(new.epoch());
        }
        self.handle.install(new.clone());
        (new, moved)
    }

    /// Cross-shard doorbell-batched multi-GET: one logical batch fans
    /// out as one doorbell per home shard per round, completions merge
    /// back into key order. Returns the outcomes and the doorbell
    /// count.
    pub fn get_many(&self, keys: &[Vec<u8>]) -> (Vec<KvOutcome>, u64) {
        let clients = self.open_clients();
        let map = self.map();
        let (outcomes, doorbells, _rounds) = prism_kv_get_many_sharded(
            &clients,
            |k| map.shard_of(k),
            keys,
            |shard, req| execute_local(self.shards[shard].server(), &req),
        );
        (outcomes, doorbells)
    }
}

/// Driver glue: the GET and PUT machines share an `on_reply` shape but
/// no trait in `prism_kv`; this local trait lets one loop drive both.
trait KvMachine {
    fn feed(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep;
}

impl KvMachine for GetOp {
    fn feed(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        self.on_reply(c, reply)
    }
}

impl KvMachine for PutOp {
    fn feed(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        self.on_reply(c, reply)
    }
}

/// Drives one KV op machine to completion against a local server,
/// executing background frees as they surface (the control-plane analog
/// of [`prism_rs::prism_rs::drive`]).
fn drive_kv(
    server: &Arc<PrismServer>,
    client: &PrismKvClient,
    mut op: impl KvMachine,
    first: Request,
) -> KvOutcome {
    let mut reply = execute_local(server, &first);
    loop {
        match op.feed(client, reply) {
            KvStep::Send {
                request,
                background,
            } => {
                if let Some(b) = background {
                    execute_local(server, &b);
                }
                reply = execute_local(server, &request);
            }
            KvStep::Done {
                outcome,
                background,
            } => {
                if let Some(b) = background {
                    execute_local(server, &b);
                }
                return outcome;
            }
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

    /// The shard set's durable-recovery counters (shared by every
    /// group; the harness folds these into `RunResult`).
    pub fn durable_stats(&self) -> &Arc<DurableStats> {
        &self.durable
    }

    /// The current group-level shard map.
    pub fn map(&self) -> ShardMap {
        self.handle.snapshot()
    }

    /// The shared current-map cell.
    pub fn map_handle(&self) -> MapHandle {
        self.handle.clone()
    }

    /// Live resharding for replicated groups: grows the map over the
    /// first `to` groups, streams every moved block through the normal
    /// quorum machinery (chained-READ quorum read from the old group,
    /// CAS install into the new group), fences the old owners per moved
    /// block, installs the new epoch on **every** replica of every
    /// group, then publishes the new map. Returns `(new_map,
    /// moved_blocks)`.
    ///
    /// The per-block fence writes `[Tag::MAX | null addr]` into each
    /// old-group replica's metadata entry: a straggling writer's
    /// tag-ordered CAS can never beat `Tag::MAX`, and a straggling
    /// reader's indirect READ through the null address is a
    /// [`prism_rdma::RdmaError::BadIndirectTarget`] NACK instead of a
    /// stale value — defense in depth behind the epoch fence. The
    /// displaced buffers become unreachable and are reclaimed by each
    /// old replica's [`prism_rs::prism_rs::PrismRsServer::gc_sweep`].
    pub fn migrate_grow(&self, to: usize) -> (ShardMap, u64) {
        assert!(to <= self.groups.len(), "grow beyond provisioned groups");
        let old = self.map();
        let new = old.grow(to);
        let clients: Vec<RsClient> = self.open_clients();
        let healthy = vec![false; self.replicas];
        let n_blocks = self.groups[0].replica(0).view().n_blocks;
        let fence = {
            let mut m = Vec::with_capacity(16);
            m.extend_from_slice(&Tag::MAX.to_bytes());
            m.extend_from_slice(&0u64.to_le_bytes());
            m
        };
        let mut moved = 0u64;
        let mut fenced_groups: Vec<usize> = Vec::new();
        for b in 0..n_blocks {
            let (from, dest) = (old.shard_of_id(b), new.shard_of_id(b));
            if from == dest {
                continue;
            }
            // Quorum read from the old group (chained indirect READs).
            let (op, step) = clients[from].get(b);
            let value = match rs_drive(&self.groups[from], &clients[from], op, step, &healthy) {
                RsOutcome::Value(v) => v,
                other => panic!("migration read of moved block {b} failed: {other:?}"),
            };
            // CAS install into every replica of the new group.
            let (op, step) = clients[dest].put(b, value);
            match rs_drive(&self.groups[dest], &clients[dest], op, step, &healthy) {
                RsOutcome::Written => {}
                other => panic!("migration install of moved block {b} failed: {other:?}"),
            }
            // Fence the old owners — in memory and in the log. The
            // arena write is a direct control-plane poke the chain
            // observer never sees, so the durable fence record is
            // logged explicitly: without it, an old owner's amnesia
            // replay would resurrect the moved block from its pre-fence
            // install records.
            for r in 0..self.replicas {
                let replica = self.groups[from].replica(r);
                replica
                    .server()
                    .arena()
                    .write(replica.view().meta(b), &fence)
                    .expect("metadata in arena");
                replica.log_fence(b, new.epoch());
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
        (new, moved)
    }

    /// Replicas per group.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// One group.
    pub fn group(&self, g: usize) -> &RsCluster {
        &self.groups[g]
    }

    /// Flat server list, group-major (`g * replicas + r`).
    pub fn servers(&self) -> Vec<Arc<PrismServer>> {
        self.groups
            .iter()
            .flat_map(|c| (0..self.replicas).map(|r| Arc::clone(c.replica(r).server())))
            .collect()
    }

    /// One client per group, in group order.
    pub fn open_clients(&self) -> Vec<RsClient> {
        self.groups.iter().map(|c| c.open_client()).collect()
    }

    /// Amnesia-restarts the replica at flat server index `i` and runs
    /// its group's rejoin protocol (the chaos gate's restart hook).
    pub fn amnesia_restart(&self, i: usize) -> u64 {
        self.groups[i / self.replicas].amnesia_restart(i % self.replicas)
    }

    /// Total rejoins across groups.
    pub fn rejoins(&self) -> u64 {
        self.groups.iter().map(|c| c.rejoins()).sum()
    }

    /// Total quorum resyncs across groups.
    pub fn resyncs(&self) -> u64 {
        self.groups.iter().map(|c| c.resyncs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// CI seed override, as in the fault matrix and chaos gate: the
    /// routing properties must hold at *every* seed, so the gate runs
    /// them at two.
    fn seed() -> u64 {
        std::env::var("PRISM_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
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
    fn kv_cluster_routes_preload_and_get_many() {
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

        // A cross-shard multi-GET returns every value and rings one
        // doorbell per involved shard (single round for PRISM-KV).
        let keys: Vec<Vec<u8>> = (0..32u64).map(|k| key_bytes(k).to_vec()).collect();
        let homes: std::collections::HashSet<usize> =
            keys.iter().map(|k| cluster.map().shard_of(k)).collect();
        let (outcomes, doorbells) = cluster.get_many(&keys);
        for (k, o) in outcomes.iter().enumerate() {
            assert_eq!(
                *o,
                KvOutcome::Value(Some(value_bytes(k as u64, 0, 64))),
                "key {k} must read back its preloaded value"
            );
        }
        assert_eq!(
            doorbells,
            homes.len() as u64,
            "one doorbell per home shard, not per key"
        );
    }

    #[test]
    fn rs_shards_flat_indexing_reaches_every_replica() {
        let config = RsConfig::paper(8, 64);
        let shards = RsShards::new(2, 3, &config, seed());
        assert_eq!(shards.servers().len(), 6);
        // Amnesia-restart via a flat index lands in the right group.
        assert_eq!(shards.rejoins(), 0);
        shards.amnesia_restart(4); // group 1, replica 1
        assert_eq!(shards.group(1).rejoins(), 1);
        assert_eq!(shards.group(0).rejoins(), 0);
        assert_eq!(shards.rejoins(), 1);
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
        let keys: Vec<[u8; 8]> = (0..n_keys).map(key_bytes).collect();
        let (new, moved) = cluster.migrate_grow(4, keys.iter().map(|k| k.as_slice()));
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
            let (op, req) = clients[home].get(&key);
            let out = drive_kv(cluster.shard(home).server(), &clients[home], op, req);
            assert_eq!(
                out,
                KvOutcome::Value(Some(value_bytes(k, 0, 64))),
                "key {k} must survive the migration at its new home"
            );
            let old_home = old.shard_of(&key);
            if old_home != home {
                let (op, req) = clients[old_home].get(&key);
                let out = drive_kv(
                    cluster.shard(old_home).server(),
                    &clients[old_home],
                    op,
                    req,
                );
                assert_eq!(
                    out,
                    KvOutcome::Value(None),
                    "moved key {k} must be fenced (absent) at its old home"
                );
            }
        }
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
        let clients = shards.open_clients();
        let old = shards.map();
        for b in 0..n_blocks {
            let home = old.shard_of_id(b);
            let (op, step) = clients[home].put(b, vec![b as u8 + 1; 64]);
            assert_eq!(
                rs_drive(shards.group(home), &clients[home], op, step, &[false; 3]),
                RsOutcome::Written
            );
        }

        let (new, moved) = shards.migrate_grow(4);
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
                rs_drive(shards.group(home), &clients[home], op, step, &[false; 3]),
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
                    &clients[old_home],
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
