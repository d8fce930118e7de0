//! Regenerates Figures 3 and 4 (PRISM-KV vs Pilaf).
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_kv [--quick] [--csv] [--reads 100|50]`

use prism_harness::figure::{emit, eprint_peaks, Flags};
use prism_harness::kv_exp::{self, KvExpConfig};

fn main() {
    let flags = Flags::parse();
    let fractions = match flags.value::<f64>("--reads") {
        Some(p) => vec![p / 100.0],
        None => vec![1.0, 0.5], // Figure 3 then Figure 4
    };
    for f in fractions {
        let cfg = flags.scale(|| KvExpConfig::quick(f), || KvExpConfig::paper(f));
        let (t, peaks) = kv_exp::run(&cfg);
        emit(&t, flags.csv);
        eprint_peaks("ops", &["PRISM-KV", "Pilaf", "Pilaf-sw"], &peaks);
    }
}
