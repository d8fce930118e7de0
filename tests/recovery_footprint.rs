//! Footprint regression for recovery: an amnesia restart must not need
//! the segment log a second time in RAM, nor touch memory the store
//! never used. Replay folds and installs from the log's own bytes, and
//! the wipe skips groups that are already zero, so what a restart adds
//! to the process's peak resident set is the fold (16 bytes a slot) and
//! little else — about 1 % of the log. A replay that materialises the
//! records first holds a full owned copy and grows the peak by more
//! than the log's size; a wipe that stores zeros over the never-reached
//! free-list headroom makes those pages resident for the first time
//! (here 74 % of the log). That second failure shows in an optimised
//! build only (`cargo test --release`): there the arena's zero-fill is
//! folded into a zeroed allocation and untouched pages stay unmapped,
//! while a debug build writes every word at creation.
//!
//! The arena may sit on 2 MiB pages (its word buffer is advised with
//! `madvise(MADV_HUGEPAGE)` on Linux): the first word stored into one
//! makes all of it resident, so the resident set moves in 2 MiB steps
//! at the frontier of what the store touched. The headroom beyond that
//! frontier stays unmapped all the same, and the bound does not move.
//!
//! One test in its own binary, so the process's high-water mark is this
//! scenario's and nothing else's.

use prism_harness::kv_exp::preload_prism;
use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_kv::{drive, KvOutcome};
use prism_workload::ycsb::value_bytes;

const KEYS: u64 = 32_768;
const VALUE: usize = 512;

/// `VmHWM` of this process in bytes, where the kernel reports it.
fn peak_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn amnesia_restart_grows_the_peak_by_a_fraction_of_the_log() {
    // Free-list headroom the run below never reaches: its 3 × KEYS
    // allocations come off the head of a FIFO whose untouched buffers
    // are all ahead of the recycled ones.
    let mut config = PrismKvConfig::paper(KEYS, VALUE);
    for class in &mut config.classes {
        class.count += 3 * KEYS;
    }
    let s = PrismKvServer::new(&config);
    // The load, then every key overwritten twice by a PUT: two thirds
    // of the log is history the fold discards.
    preload_prism(&s, KEYS, VALUE);
    for _ in 0..2 {
        let c = s.open_client();
        for k in 0..KEYS {
            let (mut op, req) = c.put(&key_bytes(k), &value_bytes(k, 0, VALUE));
            let (outcome, _) = drive(s.server(), req, |r| op.on_reply(&c, r));
            assert_eq!(outcome, KvOutcome::Written, "overwrite of key {k}");
        }
    }
    let disk = s.disk();
    let log_bytes: usize = disk
        .list("kv/seg-")
        .iter()
        .filter_map(|name| disk.len(name))
        .sum();
    assert!(log_bytes as u64 > 3 * KEYS * VALUE as u64);

    let before = peak_rss();
    s.amnesia_restart();
    let after = peak_rss();
    assert_eq!(s.durable_stats().replayed(), KEYS, "every key replays");

    let (Some(before), Some(after)) = (before, after) else {
        println!("skipped: /proc/self/status has no VmHWM here (the restart itself ran)");
        return;
    };
    let grew = after - before;
    println!(
        "log {log_bytes} B, peak {before} -> {after} B: grew {grew} B = {:.0} % of the log",
        grew as f64 * 100.0 / log_bytes as f64
    );
    // Reads 0.54 MB in a debug build and 0.58 MB in a release one,
    // 1.0 % of the log; the bound is 2.5 %.
    assert!(
        grew < log_bytes as u64 / 40,
        "the restart grew the peak resident set by {grew} B against a {log_bytes} B log: \
         recovery is holding a copy of the log, or the wipe is touching unused memory"
    );
}
