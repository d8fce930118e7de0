//! Benchmark crate for the PRISM reproduction (see the `benches/`
//! directory), running on the in-repo [`runner`] — a minimal
//! `std::time::Instant` harness with a Criterion-compatible surface, so
//! the workspace builds with zero registry dependencies.
//!
//! One binary, `substrate`, holds every row: per-op CPU cost of the
//! PRISM software data plane (`primitive/*`), the wire codec, CRC, whole
//! KV/RS/TX operations executed directly against their servers, the
//! simulator's event throughput, and the workload generators.

pub mod runner;
