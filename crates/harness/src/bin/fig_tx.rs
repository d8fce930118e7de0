//! Regenerates Figures 9 and 10 (PRISM-TX vs FaRM).
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_tx [--quick] [--csv] [--zipf-sweep]`

use prism_harness::figure::{emit, eprint_peaks, Flags};
use prism_harness::tx_exp::{self, TxExpConfig};

fn main() {
    let flags = Flags::parse();
    let cfg = flags.scale(TxExpConfig::quick, TxExpConfig::paper);
    if !flags.has("--zipf-sweep") {
        let (t, peaks) = tx_exp::figure9(&cfg);
        emit(&t, flags.csv);
        eprint_peaks("txn", &["PRISM-TX", "FaRM", "FaRM-sw"], &peaks);
    }
    emit(&tx_exp::figure10(&cfg), flags.csv);
}
