//! Regenerates Figure 1, Figure 2, and the §2.1 motivation numbers.
//!
//! Usage: `cargo run --release -p prism-harness --bin fig_micro [--csv]`

use prism_harness::figure::{emit, Flags};
use prism_harness::micro;

fn main() {
    let flags = Flags::parse();
    for t in [
        micro::figure1(),
        micro::figure2(),
        micro::section2(),
        micro::chaining_ablation(),
    ] {
        emit(&t, flags.csv);
    }
}
