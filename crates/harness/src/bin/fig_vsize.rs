//! Extension experiment: GET cost vs value size (bounded indirect reads
//! vs Pilaf's two READs + CRC).
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_vsize [--quick] [--csv]`

use prism_harness::figure::{emit, Flags};
use prism_harness::vsize_exp::{self, VsizeConfig};

fn main() {
    let flags = Flags::parse();
    let cfg = flags.scale(VsizeConfig::quick, VsizeConfig::paper);
    emit(&vsize_exp::run(&cfg), flags.csv);
}
