//! Experiment harness for the PRISM reproduction.
//!
//! This crate regenerates every figure of the paper's evaluation by
//! running the *real* protocol implementations (the same state machines
//! and server memory the unit tests exercise) inside the discrete-event
//! simulator, with the calibrated cost model of
//! [`prism_simnet::latency`] attaching time to each message and each
//! server resource (link serialization, dispatch cores, PCIe).
//!
//! * [`netsim`] — the simulation glue, one file per layer: the
//!   messages and the [`netsim::ProtoAdapter`] interface; one
//!   [`netsim::ServerActor`] per host (owning its link shapers and
//!   16-core service pool); the one client transport (timeouts, dedup,
//!   fencing, the request-leg fault gauntlet, hedging, the operation
//!   lifecycle) that both arrival policies drive; one
//!   [`netsim::ClientActor`] per closed-loop client; and the runner.
//! * [`adapters`] — per-system adapters turning each protocol client
//!   into the common [`netsim::ProtoAdapter`] interface: one driver for
//!   every system ([`adapters::Driver`]), each family's contract mapped
//!   onto it by a small glue impl ([`adapters::Family`]); workload,
//!   reclamation coalescing and observers are supplied from outside it,
//!   so the figures and the gates run the same reply handling.
//! * [`cluster`] — the scale-out layer: seeded rendezvous shard maps
//!   (with epochs in the incarnation-fencing shape), the N-server
//!   KV/RS topologies the sharded sweeps run against,
//!   [`cluster::System`], what a run needs of any deployment (its
//!   servers, its lease pass, and `settle` between runs), and
//!   [`cluster::ShardedStore`], what the two topologies add (the
//!   recovery hooks come from it).
//! * [`micro`] — Figures 1 and 2 plus the §2.1 numbers (closed-form
//!   from the cost model).
//! * [`figure`] — the one figure driver: a figure is a table of rows
//!   (one system each) swept over points through one closed-loop call,
//!   or one open-loop rate sweep; plus the `fig_*` binaries' shared
//!   command line and output.
//! * [`kv_exp`], [`rs_exp`], [`tx_exp`] — the application experiments
//!   (Figures 3–4, 6–7, 9–10), each a table of rows.
//! * [`vsize_exp`] — an extension sweep (GET cost vs value size).
//! * [`openloop`] — the open-loop arrival policy over the same
//!   transport: aggregate actors multiplexing up to 10⁶ logical
//!   clients with Poisson or trace arrivals, recording
//!   coordinated-omission-free latency.
//! * [`chaos`] — what a history-recording run is
//!   ([`chaos::Scenario`]), what the gates add to those drivers (the
//!   nonce-stamping workload, the history recorder), and the
//!   invariants: the Wing–Gong checker and the owner audit.
//! * [`table`] — plain-text table output shared by the `fig_*` binaries.
//! * [`smoke`] — env-tunable scale for the smoke-test configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod chaos;
pub mod cluster;
pub mod figure;
pub mod kv_exp;
pub mod micro;
pub mod netsim;
pub mod openloop;
pub mod rs_exp;
pub mod smoke;
pub mod table;
pub mod tx_exp;
pub mod vsize_exp;
