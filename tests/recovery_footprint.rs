//! Footprint regression for recovery: an amnesia restart must not need
//! the segment log a second time in RAM. Replay folds and installs from
//! the log's own bytes, so what a restart adds to the process's peak
//! resident set is the fold (16 bytes a slot) and the arena pages the
//! wipe touches for the first time — a small fraction of the log. A
//! replay that materialises the records first holds a full owned copy
//! and grows the peak by more than the log's size.
//!
//! One test in its own binary, so the process's high-water mark is this
//! scenario's and nothing else's.

use prism_harness::kv_exp::preload_prism;
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};

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
    let s = PrismKvServer::new(&PrismKvConfig::paper(KEYS, VALUE));
    // The load, then every key overwritten twice: two thirds of the log
    // is history the fold discards.
    for _ in 0..3 {
        preload_prism(&s, KEYS, VALUE);
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
    assert!(
        grew < log_bytes as u64 / 2,
        "the restart grew the peak resident set by {grew} B against a {log_bytes} B log: \
         recovery is holding a copy of the log"
    );
}
