//! Regenerates Figures 6 and 7 (PRISM-RS vs ABDLOCK).
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_rs [--quick] [--csv] [--zipf-sweep]`

use prism_harness::figure::{emit, eprint_peaks, Flags};
use prism_harness::rs_exp::{self, RsExpConfig};

fn main() {
    let flags = Flags::parse();
    let cfg = flags.scale(RsExpConfig::quick, RsExpConfig::paper);
    if !flags.has("--zipf-sweep") {
        let (t, peaks) = rs_exp::figure6(&cfg);
        emit(&t, flags.csv);
        eprint_peaks("ops", &["PRISM-RS", "ABDLOCK", "ABDLOCK-sw"], &peaks);
    }
    emit(&rs_exp::figure7(&cfg), flags.csv);
}
