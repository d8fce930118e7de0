//! Chaos linearizability gate: the history recorder, the gates'
//! workload, and a bounded Wing–Gong checker.
//!
//! A chaos run (seeded crash/partition/loss schedule, see
//! [`prism_simnet::fault::FaultPlan::chaos`]) drives the real protocol
//! stacks through the DES — the same [`KvDriver`] and [`RsDriver`] the
//! figures run — while a [`Recorder`] appends every operation's
//! invocation time, completion time, and observed/written value to a
//! shared history. Afterwards [`check_history`] verifies the history is
//! linearizable per register: there exists a total order of operations,
//! consistent with real-time precedence, under which every read
//! returns the latest written value.
//!
//! Values are reduced to 64-bit nonces: each write stamps a globally
//! unique nonce into the first eight bytes of its value ([`NonceOps`]),
//! so a read's observation identifies exactly one write (nonce 0 is the
//! initial, never-written state). Operations cut short by client
//! crashes, give-ups, or the end of the run are *uncertain*: an
//! unfinished read observed nothing and is discarded, while an
//! unfinished write may or may not have taken effect, so the checker is
//! free to place it anywhere after its invocation — or nowhere at all.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use prism_kv::prism_kv::PrismKvClient;
use prism_rs::prism_rs::RsClient;
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimTime;

use crate::adapters::{KvDriver, LogicalOp, OpObserver, OpSource, RsDriver};
use crate::cluster::{MapHandle, ShardMap};

/// What one recorded operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// A read that observed `nonce` (0 = the initial value).
    Get {
        /// The nonce extracted from the value read.
        nonce: u64,
    },
    /// A write of `nonce`.
    Put {
        /// The nonce stamped into the value written.
        nonce: u64,
    },
}

/// One operation in a chaos history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistOp {
    /// Index of the invoking client.
    pub client: usize,
    /// The register operated on (block or key id).
    pub key: u64,
    /// Virtual time of the invocation.
    pub invoke: SimTime,
    /// Virtual time of the completion; `None` for an operation the
    /// client abandoned (crash, give-up, or run end) whose effect is
    /// therefore uncertain.
    pub complete: Option<SimTime>,
    /// What the operation did.
    pub kind: HistKind,
}

/// Shared sink the recorders append to.
pub type History = Arc<Mutex<Vec<HistOp>>>;

/// A unique write nonce: client in the high bits, a per-client counter
/// below, never 0 (0 is the initial register value).
fn nonce(client: usize, ctr: u64) -> u64 {
    ((client as u64 + 1) << 40) | ctr
}

/// A value of `len` bytes (at least eight) carrying `nonce` up front.
pub(crate) fn stamp(len: usize, nonce: u64) -> Vec<u8> {
    let mut v = vec![0u8; len.max(8)];
    v[..8].copy_from_slice(&nonce.to_le_bytes());
    v
}

fn read_nonce(value: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = value.len().min(8);
    b[..n].copy_from_slice(&value[..n]);
    u64::from_le_bytes(b)
}

/// The gates' workload: a uniform register, a write with probability
/// `write_fraction` — two draws on the client actor's stream — and each
/// write's value stamped with the client's next nonce (a counter, not a
/// draw).
pub struct NonceOps {
    client: usize,
    registers: u64,
    value_len: usize,
    write_fraction: f64,
    writes: u64,
}

impl NonceOps {
    /// The workload of client `client` over `registers` keys or blocks.
    pub fn new(client: usize, registers: u64, value_len: usize, write_fraction: f64) -> Self {
        NonceOps {
            client,
            registers,
            value_len,
            write_fraction,
            writes: 0,
        }
    }
}

impl OpSource for NonceOps {
    fn draw(&mut self, rng: &mut SimRng) -> LogicalOp {
        let key = rng.gen_range(self.registers);
        let value = rng.gen_bool(self.write_fraction).then(|| {
            self.writes += 1;
            stamp(self.value_len, nonce(self.client, self.writes))
        });
        (key, value)
    }
}

/// Appends one client's operations to a shared [`History`], stamped
/// with the time the driver last noted.
///
/// Each invocation opens a record; a completion closes it (a read with
/// the nonce it observed — an absent key reads as nonce 0, so the store
/// needs no preload). A record is left open, `complete == None`, when
/// its operation ends any other way: given up or shed, failed by the
/// protocol, or cut short by a client crash — the next invocation simply
/// opens a new record over it. The checker discards such a read and
/// treats such a write as uncertain. A reissue or a reroute opens
/// nothing: it is the same logical operation, and the checker sees it as
/// ordinary concurrency.
pub struct Recorder {
    client: usize,
    now: SimTime,
    open: Option<usize>,
    history: History,
}

impl Recorder {
    /// A recorder for client `client`, appending to `history`.
    pub fn new(client: usize, history: History) -> Self {
        Recorder {
            client,
            now: SimTime::ZERO,
            open: None,
            history,
        }
    }
}

impl OpObserver for Recorder {
    fn note_time(&mut self, now: SimTime) {
        self.now = now;
    }

    fn invoked(&mut self, (key, value): &LogicalOp) {
        let kind = match value {
            Some(v) => HistKind::Put {
                nonce: read_nonce(v),
            },
            None => HistKind::Get { nonce: 0 },
        };
        let mut h = self.history.lock().expect("history lock");
        h.push(HistOp {
            client: self.client,
            key: *key,
            invoke: self.now,
            complete: None,
            kind,
        });
        self.open = Some(h.len() - 1);
    }

    fn completed(&mut self, read: Option<&[u8]>) {
        if let Some(i) = self.open.take() {
            let mut h = self.history.lock().expect("history lock");
            h[i].complete = Some(self.now);
            if let Some(v) = read {
                h[i].kind = HistKind::Get {
                    nonce: read_nonce(v),
                };
            }
        }
    }

    fn unresolved(&mut self) {
        self.open = None;
    }
}

/// Closed-loop PRISM-RS client that records a linearizability history:
/// the figures' [`RsDriver`] fed by [`NonceOps`] and heard by a
/// [`Recorder`], reclamation sent raw.
pub type ChaosRsAdapter = RsDriver<NonceOps, Recorder>;

impl ChaosRsAdapter {
    /// Creates the single-group adapter for client `id`.
    pub fn new(
        client: RsClient,
        id: usize,
        n_blocks: u64,
        block_size: usize,
        write_fraction: f64,
        history: History,
    ) -> Self {
        Self::sharded(
            vec![client],
            ShardMap::single(),
            id,
            n_blocks,
            block_size,
            write_fraction,
            history,
        )
    }

    /// Creates a routed adapter over one client per replica group; the
    /// recorded history spans the whole cluster. `route` is a fixed map
    /// or a live handle (see [`RsDriver::routed`]).
    pub fn sharded(
        clients: Vec<RsClient>,
        route: impl Into<MapHandle>,
        id: usize,
        n_blocks: u64,
        block_size: usize,
        write_fraction: f64,
        history: History,
    ) -> Self {
        let ops = NonceOps::new(id, n_blocks, block_size, write_fraction);
        RsDriver::routed(clients, route, ops, Recorder::new(id, history))
    }
}

/// Closed-loop PRISM-KV client that records a linearizability history:
/// the figures' [`KvDriver`] fed by [`NonceOps`] and heard by a
/// [`Recorder`], reclamation sent raw.
pub type ChaosKvAdapter = KvDriver<NonceOps, Recorder>;

impl ChaosKvAdapter {
    /// Creates the single-server adapter for client `id`.
    pub fn new(
        client: PrismKvClient,
        id: usize,
        n_keys: u64,
        value_len: usize,
        write_fraction: f64,
        history: History,
    ) -> Self {
        Self::sharded(
            vec![client],
            ShardMap::single(),
            id,
            n_keys,
            value_len,
            write_fraction,
            history,
        )
    }

    /// Creates a routed adapter over one client per shard; the recorded
    /// history spans the whole cluster. `route` is a fixed map or a
    /// live handle (see [`KvDriver::routed`]).
    pub fn sharded(
        clients: Vec<PrismKvClient>,
        route: impl Into<MapHandle>,
        id: usize,
        n_keys: u64,
        value_len: usize,
        write_fraction: f64,
        history: History,
    ) -> Self {
        let ops = NonceOps::new(id, n_keys, value_len, write_fraction);
        KvDriver::routed(clients, route, ops, Recorder::new(id, history))
    }
}

// ---------------------------------------------------------------------
// Linearizability checker
// ---------------------------------------------------------------------

/// Checks a whole history for per-register linearizability.
///
/// Operations are grouped by `key` (each key is an independent
/// register) and each group is checked with a memoized Wing–Gong
/// search. Returns the first non-linearizable key and its operation
/// count on failure.
pub fn check_history(history: &[HistOp]) -> Result<(), String> {
    let mut by_key: BTreeMap<u64, Vec<&HistOp>> = BTreeMap::new();
    for op in history {
        // An unfinished read observed nothing and constrains nothing.
        if op.complete.is_none() && matches!(op.kind, HistKind::Get { .. }) {
            continue;
        }
        by_key.entry(op.key).or_default().push(op);
    }
    for (key, mut ops) in by_key {
        ops.sort_by_key(|o| (o.invoke, o.complete, o.client));
        if !check_register(&ops) {
            return Err(format!(
                "key {key}: history of {} ops is not linearizable",
                ops.len()
            ));
        }
    }
    Ok(())
}

/// Wing–Gong linearizability check for one register, with memoization
/// on (done-set, register-value) states.
///
/// An operation may be linearized next only if no other pending
/// operation completed before it was invoked (real-time order is
/// preserved); a read is valid only if its observed nonce equals the
/// register. Writes with `complete == None` are uncertain: they may be
/// linearized anywhere after their invocation or skipped entirely, so
/// the search succeeds once every *certain* operation is placed.
fn check_register(ops: &[&HistOp]) -> bool {
    let n = ops.len();
    let certain = ops.iter().filter(|o| o.complete.is_some()).count();
    let mut done = vec![0u64; n.div_ceil(64)];
    let mut seen: HashSet<(Vec<u64>, u64)> = HashSet::new();
    dfs(ops, &mut done, 0, certain, &mut seen)
}

fn dfs(
    ops: &[&HistOp],
    done: &mut Vec<u64>,
    reg: u64,
    certain_left: usize,
    seen: &mut HashSet<(Vec<u64>, u64)>,
) -> bool {
    if certain_left == 0 {
        return true;
    }
    if !seen.insert((done.clone(), reg)) {
        return false;
    }
    // The earliest completion among pending certain ops bounds which
    // ops may linearize next: anything invoked after it must come
    // later.
    let mut bound = None;
    for (i, op) in ops.iter().enumerate() {
        if done[i / 64] & (1 << (i % 64)) == 0 {
            if let Some(c) = op.complete {
                bound = Some(bound.map_or(c, |b: SimTime| b.min(c)));
            }
        }
    }
    for (i, op) in ops.iter().enumerate() {
        if done[i / 64] & (1 << (i % 64)) != 0 {
            continue;
        }
        if let Some(b) = bound {
            if op.invoke > b {
                // Ops are sorted by invoke; everything later is also
                // past the bound.
                break;
            }
        }
        let next_reg = match op.kind {
            HistKind::Get { nonce } => {
                if nonce != reg {
                    continue;
                }
                reg
            }
            HistKind::Put { nonce } => nonce,
        };
        done[i / 64] |= 1 << (i % 64);
        let left = certain_left - usize::from(op.complete.is_some());
        if dfs(ops, done, next_reg, left, seen) {
            return true;
        }
        done[i / 64] &= !(1 << (i % 64));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(client: usize, invoke: u64, complete: Option<u64>, key: u64, kind: HistKind) -> HistOp {
        HistOp {
            client,
            key,
            invoke: SimTime::from_nanos(invoke),
            complete: complete.map(SimTime::from_nanos),
            kind,
        }
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(0, 20, Some(30), 1, HistKind::Get { nonce: 7 }),
            op(1, 40, Some(50), 1, HistKind::Put { nonce: 9 }),
            op(1, 60, Some(70), 1, HistKind::Get { nonce: 9 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn stale_read_after_overwrite_is_rejected() {
        // W(7) then W(9) complete strictly before the read, which
        // nevertheless observes 7: no valid order exists.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(0, 20, Some(30), 1, HistKind::Put { nonce: 9 }),
            op(1, 40, Some(50), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn stale_read_after_acked_write_is_rejected() {
        // The write is acknowledged (certain) strictly before the read
        // begins, yet the read observes the initial value: a lost
        // update no serial order can explain.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 20, Some(30), 1, HistKind::Get { nonce: 0 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn split_brain_register_is_rejected() {
        // Two concurrent writes both complete; two later,
        // non-overlapping reads then observe *different* winners — each
        // side of a split brain believes its own write took effect. The
        // writes may linearize in either order, but the register cannot
        // hold 7 and then 9 (or 9 and then 7) with no write in between.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 0, Some(10), 1, HistKind::Put { nonce: 9 }),
            op(0, 20, Some(30), 1, HistKind::Get { nonce: 7 }),
            op(1, 40, Some(50), 1, HistKind::Get { nonce: 9 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn concurrent_ops_may_linearize_in_either_order() {
        // Two overlapping writes, then reads observing each in turn —
        // valid because the second-observed write may linearize last.
        let h = vec![
            op(0, 0, Some(100), 1, HistKind::Put { nonce: 7 }),
            op(1, 0, Some(100), 1, HistKind::Put { nonce: 9 }),
            op(2, 110, Some(120), 1, HistKind::Get { nonce: 9 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn read_of_initial_value_uses_nonce_zero() {
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Get { nonce: 0 }),
            op(0, 20, Some(30), 1, HistKind::Put { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn uncertain_write_may_take_effect_or_not() {
        // A crashed client's write has no completion; reads observing
        // it (or not) are both valid.
        let observed = vec![
            op(0, 0, None, 1, HistKind::Put { nonce: 7 }),
            op(1, 50, Some(60), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&observed).is_ok());
        let unobserved = vec![
            op(0, 0, None, 1, HistKind::Put { nonce: 7 }),
            op(1, 50, Some(60), 1, HistKind::Get { nonce: 0 }),
        ];
        assert!(check_history(&unobserved).is_ok());
    }

    #[test]
    fn uncertain_write_cannot_linearize_before_its_invocation() {
        // The read completes before the uncertain write is even
        // invoked, yet observes its nonce: impossible.
        let h = vec![
            op(1, 0, Some(10), 1, HistKind::Get { nonce: 7 }),
            op(0, 50, None, 1, HistKind::Put { nonce: 7 }),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn unfinished_reads_are_discarded() {
        // An abandoned read's nonce field is meaningless; it must not
        // constrain the order.
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 20, None, 1, HistKind::Get { nonce: 999 }),
            op(0, 30, Some(40), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn keys_are_independent_registers() {
        let h = vec![
            op(0, 0, Some(10), 1, HistKind::Put { nonce: 7 }),
            op(1, 0, Some(10), 2, HistKind::Put { nonce: 9 }),
            op(0, 20, Some(30), 2, HistKind::Get { nonce: 9 }),
            op(1, 20, Some(30), 1, HistKind::Get { nonce: 7 }),
        ];
        assert!(check_history(&h).is_ok());
    }
}
