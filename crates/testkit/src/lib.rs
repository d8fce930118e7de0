//! Deterministic property testing for the PRISM reproduction.
//!
//! This crate replaces the external `proptest` dependency with a small,
//! fully in-repo harness built on the same splittable SplitMix64 RNG
//! that drives the discrete-event simulator ([`prism_simnet::rng::SimRng`]).
//! The design is the *choice sequence* style (as in Hypothesis): a
//! generator draws a stream of `u64` choices from a [`Source`]; the
//! source records every draw. Shrinking never touches values directly —
//! it edits the recorded choice sequence (deleting chunks, zeroing,
//! halving, decrementing) and re-runs the generator, so shrinking
//! composes automatically through `map`, `one_of`, and `vec` without any
//! per-type shrink logic. Exhausted replays return 0, which every
//! combinator maps to its minimal value.
//!
//! # Determinism and replay
//!
//! Case seeds are derived from the property name, so a test binary is a
//! pure function of the source tree: the same inputs are generated on
//! every run and on every machine. `PRISM_TEST_SEED=<n>` (decimal or
//! `0x` hex) XORs `n` into every property's case stream and, through
//! [`seed_or`], into every seeded gate: the same number of cases run, at
//! another point; unset or `0` moves nothing. When a property fails, the
//! harness shrinks the failing input and prints the case index and the
//! value in force:
//!
//! ```text
//! [prism-testkit] property 'wire_round_trips' FAILED
//!   case 17 (case seed 1234567890123)
//!   replay: PRISM_TEST_SEED=1806242025 cargo test wire_round_trips
//! ```
//!
//! Re-running with that value reaches the same case, regenerates the
//! identical failing input (byte for byte) and re-shrinks it to the same
//! minimum, so a CI failure is reproducible locally with one environment
//! variable.
//!
//! # Entry points
//!
//! * [`for_all`] — run a property, panic with a replayable report on
//!   failure (the normal `#[test]` entry point).
//! * [`for_all_result`] — same, but return the [`Failure`] instead of
//!   panicking (used by the testkit's own tests and by tooling).
//! * [`prop_check!`] — macro sugar defining a `#[test]` around
//!   [`for_all`].
//!
//! # Example
//!
//! ```
//! use prism_testkit::{for_all, gens, Config};
//!
//! for_all("vec_sum_is_linear", &Config::with_cases(64),
//!     &gens::vec(gens::range_u64(0..1000), 0..32),
//!     |xs: &Vec<u64>| {
//!         let doubled: u64 = xs.iter().map(|x| 2 * x).sum();
//!         assert_eq!(doubled, 2 * xs.iter().sum::<u64>());
//!     });
//! ```

pub mod gen;
pub mod runner;
pub mod source;

pub use gen::{gens, Gen};
pub use runner::{for_all, for_all_result, seed_or, Config, Failure};
pub use source::Source;

/// Defines a `#[test]` function running a property through [`for_all`].
///
/// ```
/// prism_testkit::prop_check!(squares_are_nonneg, cases = 32,
///     prism_testkit::gens::range_u64(0..1000),
///     |x: &u64| assert!(x * x < 1_000_000));
/// ```
#[macro_export]
macro_rules! prop_check {
    ($name:ident, cases = $cases:expr, $gen:expr, $prop:expr) => {
        #[test]
        fn $name() {
            $crate::for_all(
                stringify!($name),
                &$crate::Config::with_cases($cases),
                &$gen,
                $prop,
            );
        }
    };
    ($name:ident, $gen:expr, $prop:expr) => {
        $crate::prop_check!($name, cases = 64, $gen, $prop);
    };
}
