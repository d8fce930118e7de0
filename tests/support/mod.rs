//! Helpers shared by the gate suites (`chaos_gate`, `gray_gate`,
//! `fault_matrix`, `corruption_matrix`, `durability_gate`,
//! `openloop_smoke`, `store_properties`, `golden_recovery`),
//! `figures_smoke`, `kv_integration` and the codec properties: the
//! replay fingerprints and their one-word folds for golden rows (a
//! figure table's included, and FNV-1a over bytes or words, whole or as a
//! running fold), the
//! same-seed replay check, the end-of-run settle with its two laws, the
//! one-line counter dump, the minimal retrying read adapter, the
//! durable tier's record collector and disk fingerprint, and the PRISM
//! op generators. Each suite is its own crate and uses a subset.
#![allow(dead_code)]

use prism_core::builder::ops;
use prism_core::msg::{Reply, Request};
use prism_core::op::{DataArg, FreeListId, PrismOp, Redirect, MAX_CAS_LEN};
use prism_core::value::CasMode;
use prism_harness::chaos::{HistKind, HistOp};
use prism_harness::cluster::System;
use prism_harness::netsim::{AdapterStep, Outbound, ProtoAdapter, RunResult};
use prism_harness::openloop::OpenLoopResult;
use prism_harness::table::Table;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_store::{Record, Replay, SegmentStore, SimDisk};
use prism_testkit::{gens, Gen};

/// Replays `store` and copies out every record it yields, in order —
/// for tests that check what a log holds. (The servers fold the records
/// where they lie; only tests keep them.)
pub fn replay_records(store: &SegmentStore) -> (Replay, Vec<Record>) {
    let mut records = Vec::new();
    let replay = store.replay(|rec, _| records.push(rec.to_record()));
    (replay, records)
}

/// A running FNV-1a fold, for golden rows built a piece at a time.
pub struct Fnv(u64);

impl Fnv {
    /// A fold at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in `bytes`.
    pub fn eat(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds in the little-endian bytes of `words`.
    pub fn eat_words(&mut self, words: &[u64]) -> &mut Self {
        for w in words {
            self.eat(&w.to_le_bytes());
        }
        self
    }

    /// The fold so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over `bytes`, for golden rows.
pub fn bytes_key(bytes: &[u8]) -> u64 {
    Fnv::new().eat(bytes).finish()
}

/// FNV-1a over the little-endian bytes of `words`, for golden rows.
pub fn words_key(words: &[u64]) -> u64 {
    Fnv::new().eat_words(words).finish()
}

/// FNV-1a over every file's name, length, synced watermark and bytes,
/// in name order: the whole observable state of a [`SimDisk`].
pub fn disk_image_fingerprint(disk: &SimDisk) -> u64 {
    let mut h = Fnv::new();
    for name in disk.list("") {
        let bytes = disk.read(&name).expect("listed file reads");
        let synced = disk.synced(&name).expect("listed file has a watermark");
        h.eat(name.as_bytes())
            .eat_words(&[bytes.len() as u64, synced as u64])
            .eat(&bytes);
    }
    h.finish()
}

/// The closed-loop replay fingerprint: every field of [`RunResult`],
/// floats by bit pattern.
pub fn metrics_key(r: &RunResult) -> [u64; 30] {
    [
        r.clients as u64,
        r.tput_ops.to_bits(),
        r.mean_us.to_bits(),
        r.p99_us.to_bits(),
        r.failed,
        r.backoffs,
        r.drops,
        r.dups,
        r.timeouts,
        r.retries,
        r.crash_drops,
        r.giveups,
        r.fenced,
        r.epoch_fenced,
        r.stale_harvested,
        r.restarts,
        r.client_restarts,
        r.corruptions_injected,
        r.corruptions_detected,
        r.corruptions_repaired,
        r.aborted_corrupt,
        r.replayed,
        r.delta_resynced,
        r.segments_truncated,
        r.disk_tears,
        r.hedges,
        r.hedge_wins,
        r.shed,
        r.busy_nacks,
        r.slowdown_windows,
    ]
}

/// [`metrics_key`] folded to one word, for golden rows.
pub fn run_key(r: &RunResult) -> u64 {
    words_key(&metrics_key(r))
}

/// A figure table's CSV and its peaks' bit patterns folded to one word,
/// for golden rows.
pub fn table_key(t: &Table, peaks: &[f64]) -> u64 {
    let bits: Vec<u64> = peaks.iter().map(|p| p.to_bits()).collect();
    Fnv::new()
        .eat(t.to_csv().as_bytes())
        .eat_words(&bits)
        .finish()
}

/// Every field of every recorded operation folded to one word (the fold
/// `perf/src/calls.rs::fold_history` feeds the benchmark's
/// `sim.fingerprint`), for golden rows.
pub fn history_key(history: &[HistOp]) -> u64 {
    let mut h = Fnv::new();
    for op in history {
        let (kind, nonce) = match op.kind {
            HistKind::Get { nonce } => (0, nonce),
            HistKind::Put { nonce } => (1, nonce),
        };
        h.eat_words(&[
            op.client as u64,
            op.key,
            op.invoke.as_nanos(),
            op.complete.map_or(u64::MAX, SimTime::as_nanos),
            kind,
            nonce,
        ]);
    }
    h.finish()
}

/// Checks a golden row. A mismatch prints the row this build produces
/// in the form the source holds it, ready to paste — after finding out
/// why it moved.
#[track_caller]
pub fn assert_golden(what: &str, got: &[u64], want: &[u64]) {
    assert_eq!(
        got, want,
        "{what}: not the golden row; this build produces {got:#x?}"
    );
}

/// Settles `system` after a run and requires both of its laws: nothing
/// stays held ([`System::held`]), and once what the run stranded is
/// reclaimed every pool buffer is live or free, never both
/// ([`System::free_deficit`]). Returns the count held before settling.
#[track_caller]
pub fn assert_settled<S: System + ?Sized>(system: &S, what: &str) -> u64 {
    let held = system.held();
    system.settle();
    assert_eq!(system.held(), 0, "{what}: {held} held, then settled");
    system.reclaim();
    assert_eq!(system.free_deficit(), 0, "{what}: pools broke their law");
    held
}

/// Requires a second run of the same seed to equal `r` in every field
/// ([`metrics_key`]).
#[track_caller]
pub fn assert_replayed(r: &RunResult, again: &RunResult) {
    let (r, again) = (metrics_key(r), metrics_key(again));
    assert_eq!(r, again, "same-seed replay must be bit-exact");
}

/// The open-loop replay fingerprint: every field of [`OpenLoopResult`],
/// floats by bit pattern.
pub fn open_loop_key(r: &OpenLoopResult) -> [u64; 18] {
    [
        r.actors as u64,
        r.logical_clients as u64,
        r.completed,
        r.tput_ops.to_bits(),
        r.mean_us.to_bits(),
        r.p50_us.to_bits(),
        r.p99_us.to_bits(),
        r.p999_us.to_bits(),
        r.max_us.to_bits(),
        r.failed,
        r.timeouts,
        r.retries,
        r.backoffs,
        r.giveups,
        r.backlogged,
        r.drops,
        r.shed,
        r.busy_nacks,
    ]
}

/// The full fault-counter surface of one run on one line.
pub fn fault_line(label: &str, r: &RunResult) {
    println!(
        "{label}: tput={:.0}ops/s p99={:.1}us failed={} drops={} dups={} timeouts={} \
         retries={} giveups={} fenced={} crash_drops={} restarts={} client_restarts={} \
         corrupt={}/{}det rep={} abort={} replayed={} delta={} trunc={} tears={} \
         slowdowns={} hedges={} wins={} shed={} busy={} stale={}",
        r.tput_ops,
        r.p99_us,
        r.failed,
        r.drops,
        r.dups,
        r.timeouts,
        r.retries,
        r.giveups,
        r.fenced,
        r.crash_drops,
        r.restarts,
        r.client_restarts,
        r.corruptions_injected,
        r.corruptions_detected,
        r.corruptions_repaired,
        r.aborted_corrupt,
        r.replayed,
        r.delta_resynced,
        r.segments_truncated,
        r.disk_tears,
        r.slowdown_windows,
        r.hedges,
        r.hedge_wins,
        r.shed,
        r.busy_nacks,
        r.stale_harvested,
    );
}

/// One chain READ per operation, retried on any error until it lands:
/// the minimal workload with a real service-center footprint, and one
/// whose operations span (and so record) a server stall under both the
/// closed- and open-loop drivers.
pub struct RetryingRead {
    pub addr: u64,
    pub rkey: u32,
}

impl ProtoAdapter for RetryingRead {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        self.resume()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        vec![Outbound::new(
            0,
            0,
            Request::Chain(vec![ops::read(self.addr, 512, self.rkey)]),
            false,
        )]
    }

    fn on_reply(&mut self, _tag: u64, reply: Reply) -> AdapterStep {
        match reply {
            Reply::Chain(_) => AdapterStep::Done {
                sends: Vec::new(),
                client_compute: SimDuration::ZERO,
                failed: false,
            },
            _ => AdapterStep::Retry {
                sends: Vec::new(),
                wait: SimDuration::micros(5),
            },
        }
    }
}

// Generators of PRISM ops, every shape and flag the wire format carries.

pub fn arb_mode() -> Gen<CasMode> {
    gens::choice(vec![
        CasMode::Eq,
        CasMode::Ne,
        CasMode::Lt,
        CasMode::Le,
        CasMode::Gt,
        CasMode::Ge,
    ])
}

pub fn arb_redirect() -> Gen<Option<Redirect>> {
    gens::one_of(vec![
        gens::constant(None),
        gens::t2(gens::u64s(), gens::u32s()).map(|(addr, rkey)| Some(Redirect { addr, rkey })),
    ])
}

pub fn arb_data_arg() -> Gen<DataArg> {
    gens::one_of(vec![
        gens::vec(gens::u8s(), 0..64).map(DataArg::Inline),
        gens::t2(gens::u64s(), gens::u32s()).map(|(addr, rkey)| DataArg::Remote { addr, rkey }),
    ])
}

pub fn arb_op() -> Gen<PrismOp> {
    gens::one_of(vec![
        gens::t7(
            gens::u64s(),
            gens::u32s(),
            gens::u32s(),
            gens::bools(),
            gens::bools(),
            gens::bools(),
            arb_redirect(),
        )
        .map(
            |(addr, len, rkey, indirect, bounded, conditional, redirect)| PrismOp::Read {
                addr,
                len,
                rkey,
                indirect,
                bounded,
                conditional,
                redirect,
            },
        ),
        gens::t7(
            gens::u64s(),
            gens::u32s(),
            arb_data_arg(),
            gens::u32s(),
            gens::bools(),
            gens::bools(),
            gens::bools(),
        )
        .map(
            |(addr, rkey, data, len, addr_indirect, addr_bounded, conditional)| PrismOp::Write {
                addr,
                rkey,
                data,
                len,
                addr_indirect,
                addr_bounded,
                conditional,
            },
        ),
        gens::t4(
            gens::u32s(),
            gens::vec(gens::u8s(), 0..128),
            gens::bools(),
            arb_redirect(),
        )
        .map(|(fl, data, conditional, redirect)| PrismOp::Allocate {
            freelist: FreeListId(fl),
            data,
            conditional,
            redirect,
        }),
        gens::t10(
            arb_mode(),
            gens::u64s(),
            gens::u32s(),
            arb_data_arg(),
            arb_data_arg(),
            gens::range_u32(0..33),
            gens::vec_exact(gens::u8s(), MAX_CAS_LEN),
            gens::vec_exact(gens::u8s(), MAX_CAS_LEN),
            gens::bools(),
            gens::bools(),
        )
        .map(
            |(mode, target, rkey, compare, swap, len, cm, sm, target_indirect, conditional)| {
                PrismOp::Cas {
                    mode,
                    target,
                    rkey,
                    compare,
                    swap,
                    len,
                    compare_mask: cm.try_into().expect("sized"),
                    swap_mask: sm.try_into().expect("sized"),
                    target_indirect,
                    conditional,
                }
            },
        ),
    ])
}
