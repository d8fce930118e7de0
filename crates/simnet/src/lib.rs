//! Deterministic discrete-event simulation kernel for the PRISM reproduction.
//!
//! The PRISM paper (SOSP 2021) evaluates its systems on a physical testbed:
//! Mellanox ConnectX-5 NICs, a BlueField smart NIC, 40 Gb Ethernet and up to
//! 12 Xeon machines. That hardware is not available here, so this crate
//! provides the substitution described in `DESIGN.md`: a deterministic
//! discrete-event simulator with a cost model calibrated against every
//! latency the paper reports. The *protocols* (PRISM-KV, PRISM-RS, PRISM-TX
//! and their baselines) execute their real logic against real bytes in
//! registered memory; this crate only attaches virtual time to those
//! operations and models the three resources the paper identifies as
//! bottlenecks — link serialization, server RPC cores, and NIC processing.
//!
//! The kernel is intentionally small:
//!
//! * [`time`] — virtual nanosecond clock.
//! * [`engine`] — event queue, actors, deterministic scheduling.
//! * [`resources`] — link shapers and multi-worker service centers.
//! * [`latency`] — the calibrated [`latency::CostModel`].
//! * [`metrics`] — latency histograms and throughput counters.
//! * [`rng`] — seeded, deterministic random number generation.
//! * [`fault`] — seeded fault plans (loss, duplication, jitter,
//!   crash/restart windows, partitions, gray failures) for adversarial
//!   runs.
//! * [`estimator`] — windowed-quantile RTT tracking for adaptive
//!   timeouts, hedging delays, and backoff.
//!
//! # Examples
//!
//! ```
//! use prism_simnet::engine::{Actor, Context, Simulation};
//! use prism_simnet::time::SimDuration;
//!
//! struct Ping;
//!
//! impl Actor<u32> for Ping {
//!     fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
//!         if msg < 3 {
//!             let me = ctx.self_id();
//!             ctx.send_in(me, SimDuration::micros(1), msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let ping = sim.add_actor(Box::new(Ping));
//! sim.post(ping, 0u32);
//! sim.run();
//! assert_eq!(sim.now().as_micros_f64(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod estimator;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod resources;
pub mod rng;
pub mod time;

pub use engine::{Actor, ActorId, Context, Simulation};
pub use fault::FaultPlan;
pub use latency::CostModel;
pub use time::{SimDuration, SimTime};
