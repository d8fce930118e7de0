//! Benchmark crate for the PRISM reproduction (see the `benches/`
//! directory), running on the in-repo [`runner`]: a plain
//! `std::time::Instant` harness in which each row is one
//! `Runner::bench` call under its full name (`wire/chain4_decode`).
//!
//! One binary, `substrate`, holds every row: per-op CPU cost of the
//! PRISM software data plane (`primitive/*`), the wire codec, CRC, whole
//! KV/RS/TX operations executed directly against their servers, the
//! simulator's event throughput, and the workload generators.

pub mod runner;
