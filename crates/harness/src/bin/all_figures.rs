//! Regenerates every figure of the paper in one run.
//!
//! Usage: `cargo run --release -p prism-harness --bin all_figures [--quick]`
//!
//! Output is the EXPERIMENTS.md measurement section.

use prism_harness::figure::{emit, Flags};
use prism_harness::kv_exp::{self, KvExpConfig};
use prism_harness::micro;
use prism_harness::rs_exp::{self, RsExpConfig};
use prism_harness::tx_exp::{self, TxExpConfig};

fn main() {
    let flags = Flags::parse();
    println!(
        "# PRISM reproduction: all figures ({} scale)\n",
        if flags.quick { "quick" } else { "paper" }
    );
    let print = |t| emit(&t, false);

    for t in [
        micro::figure1(),
        micro::figure2(),
        micro::section2(),
        micro::chaining_ablation(),
    ] {
        print(t);
    }
    for f in [1.0, 0.5] {
        print(kv_exp::run(&flags.scale(|| KvExpConfig::quick(f), || KvExpConfig::paper(f))).0);
    }
    let cfg = flags.scale(RsExpConfig::quick, RsExpConfig::paper);
    print(rs_exp::figure6(&cfg).0);
    print(rs_exp::figure7(&cfg));
    let cfg = flags.scale(TxExpConfig::quick, TxExpConfig::paper);
    print(tx_exp::figure9(&cfg).0);
    print(tx_exp::figure10(&cfg));
}
