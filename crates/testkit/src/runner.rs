//! The property runner: case generation, failure detection, bounded
//! choice-sequence shrinking, and replayable failure reports.

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use prism_simnet::rng::SimRng;

use crate::gen::Gen;
use crate::source::{GiveUp, Source};

/// Environment variable moving every seeded test to another point: its
/// value (decimal or `0x` hex) is XORed into each base seed, so unset or
/// `0` leaves every test where it is.
pub const SEED_ENV: &str = "PRISM_TEST_SEED";

/// `base` XORed with the value of [`SEED_ENV`] in force, or `base`
/// itself when the variable is unset or unparseable. Seeded gates take
/// their seeds from this and each property's case stream is moved the
/// same way; `seed_or(0)` is the value in force.
pub fn seed_or(base: u64) -> u64 {
    mix(base, std::env::var(SEED_ENV).ok().as_deref())
}

fn mix(base: u64, env: Option<&str>) -> u64 {
    let parse = |s: &str| {
        s.strip_prefix("0x")
            .map_or_else(|| s.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
    };
    base ^ env.and_then(|s| parse(s.trim())).unwrap_or(0)
}

/// The case seeds of property `name` under the [`SEED_ENV`] value `env`:
/// `cases` draws from a stream seeded by the name's hash, moved by `env`.
fn case_seeds(name: &str, env: Option<&str>, cases: u32) -> Vec<u64> {
    let mut r = SimRng::new(mix(fnv1a(name.as_bytes()), env));
    (0..cases).map(|_| r.next_u64()).collect()
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Upper bound on property re-executions spent shrinking a failure.
    pub max_shrink_iters: u32,
    /// Fixed case seed: run exactly one case with this seed. `None`
    /// derives `cases` seeds from the property name, moved by
    /// [`SEED_ENV`].
    pub seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_shrink_iters: 4096,
            seed: None,
        }
    }
}

impl Config {
    /// A config running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// A property failure, fully described and replayable.
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// The case seed: `Source::new(seed)` regenerates the identical
    /// original input, and [`Config::seed`] replays it as one case.
    pub seed: u64,
    /// Zero-based index of the failing case.
    pub case: u32,
    /// The input as first generated.
    pub original: T,
    /// The input after shrinking (equal to `original` if shrinking found
    /// nothing smaller).
    pub minimal: T,
    /// Panic message of the minimal failure.
    pub message: String,
    /// Property executions spent shrinking.
    pub shrink_iters: u32,
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent while a
/// thread is executing a property under the runner, and defers to the
/// previous hook otherwise. Without this, shrinking would spray hundreds
/// of expected panic backtraces into the test output.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One execution against a given source. `Ok(None)`: property passed.
/// `Ok(Some(..))`: property failed with the recorded choices, value, and
/// message. `Err(())`: the case was abandoned by the generator (filter
/// give-up) and counts as skipped.
#[allow(clippy::type_complexity)]
fn execute<T: Debug + 'static>(
    gen: &Gen<T>,
    prop: &impl Fn(&T),
    mut src: Source,
) -> Result<Option<(Vec<u64>, T, String)>, ()> {
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let value = gen.generate(&mut src);
        let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&value)));
        (src.into_recorded(), value, result)
    }));
    QUIET.with(|q| q.set(false));
    match outcome {
        // Generation itself panicked: a GiveUp skips the case, anything
        // else is a real bug in the generator — surface it.
        Err(payload) => {
            if payload.downcast_ref::<GiveUp>().is_some() {
                Err(())
            } else {
                panic::resume_unwind(payload)
            }
        }
        Ok((_, _, Ok(()))) => Ok(None),
        Ok((choices, value, Err(payload))) => {
            Ok(Some((choices, value, panic_message(payload.as_ref()))))
        }
    }
}

/// Shrink-order weight: fewer choices beat more, then a smaller sum.
fn weight(choices: &[u64]) -> (usize, u128) {
    (
        choices.len(),
        choices.iter().map(|&c| c as u128).sum::<u128>(),
    )
}

/// Candidate edits of a failing choice sequence, in decreasing
/// aggressiveness: chunk deletions first, then per-element zero / halve /
/// decrement.
fn candidates(choices: &[u64]) -> Vec<Vec<u64>> {
    let n = choices.len();
    let mut out = Vec::new();
    let mut chunk_sizes = vec![n / 2, 8, 4, 2, 1];
    chunk_sizes.dedup();
    for size in chunk_sizes {
        if size == 0 || size >= n {
            continue;
        }
        let mut start = 0;
        while start + size <= n {
            let mut c = Vec::with_capacity(n - size);
            c.extend_from_slice(&choices[..start]);
            c.extend_from_slice(&choices[start + size..]);
            out.push(c);
            start += size;
        }
    }
    for i in 0..n {
        if choices[i] == 0 {
            continue;
        }
        let mut zeroed = choices.to_vec();
        zeroed[i] = 0;
        out.push(zeroed);
        let mut halved = choices.to_vec();
        halved[i] /= 2;
        out.push(halved);
        let mut dec = choices.to_vec();
        dec[i] -= 1;
        out.push(dec);
    }
    out
}

/// Runs `prop` over generated inputs, returning the shrunk failure (if
/// any) instead of panicking. See [`for_all`] for the panicking variant.
pub fn for_all_result<T: Debug + 'static>(
    name: &str,
    cfg: &Config,
    gen: &Gen<T>,
    prop: impl Fn(&T),
) -> Option<Failure<T>> {
    install_quiet_hook();
    let seeds = match cfg.seed {
        Some(s) => vec![s],
        None => case_seeds(name, std::env::var(SEED_ENV).ok().as_deref(), cfg.cases),
    };

    for (case, &seed) in seeds.iter().enumerate() {
        let failed = match execute(gen, &prop, Source::new(seed)) {
            Err(()) => continue, // skipped case
            Ok(None) => continue,
            Ok(Some(f)) => f,
        };
        let (mut choices, original, mut message) = failed;
        // Regenerate the original (choices replay deterministically) so
        // we can keep both the original and the running minimal value.
        let mut minimal_choices = choices.clone();
        let mut iters = 0u32;
        'shrinking: loop {
            for cand in candidates(&choices) {
                if iters >= cfg.max_shrink_iters {
                    break 'shrinking;
                }
                iters += 1;
                if let Ok(Some((consumed, _, msg))) = execute(gen, &prop, Source::replaying(cand)) {
                    if weight(&consumed) < weight(&choices) {
                        choices = consumed.clone();
                        minimal_choices = consumed;
                        message = msg;
                        continue 'shrinking;
                    }
                }
            }
            break;
        }
        // Rebuild the minimal value once more from its choices.
        let minimal = {
            let mut src = Source::replaying(minimal_choices);
            QUIET.with(|q| q.set(true));
            let v = panic::catch_unwind(AssertUnwindSafe(|| gen.generate(&mut src)));
            QUIET.with(|q| q.set(false));
            match v {
                Ok(v) => v,
                Err(_) => {
                    // Shouldn't happen (these choices generated fine a
                    // moment ago), but never let reporting panic.
                    let mut src = Source::new(seed);
                    gen.generate(&mut src)
                }
            }
        };
        return Some(Failure {
            seed,
            case: case as u32,
            original,
            minimal,
            message,
            shrink_iters: iters,
        });
    }
    None
}

/// Runs `prop` over generated inputs and panics with a replayable report
/// on the first (shrunk) failure. This is the standard `#[test]` entry
/// point; see [`crate::prop_check!`] for macro sugar.
pub fn for_all<T: Debug + 'static>(name: &str, cfg: &Config, gen: &Gen<T>, prop: impl Fn(&T)) {
    if let Some(f) = for_all_result(name, cfg, gen, prop) {
        panic!(
            "\n[prism-testkit] property '{name}' FAILED\n  \
             case {case} (case seed {seed})\n  \
             replay: {env}={value} cargo test {name}\n  \
             original: {original:?}\n  \
             minimal ({iters} shrink iterations): {minimal:?}\n  \
             assertion: {message}\n",
            case = f.case,
            seed = f.seed,
            env = SEED_ENV,
            value = seed_or(0),
            original = f.original,
            iters = f.shrink_iters,
            minimal = f.minimal,
            message = f.message,
        );
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gens;

    #[test]
    fn passing_property_returns_none() {
        let f = for_all_result(
            "passing_property_returns_none",
            &Config::with_cases(32),
            &gens::range_u64(0..100),
            |&x| assert!(x < 100),
        );
        assert!(f.is_none());
    }

    #[test]
    fn failing_property_reports_and_shrinks() {
        let f = for_all_result(
            "failing_property_reports_and_shrinks",
            &Config::with_cases(64),
            &gens::range_u64(0..1000),
            |&x| assert!(x < 100, "x too big: {x}"),
        )
        .expect("property must fail");
        assert!(f.original >= 100);
        assert_eq!(f.minimal, 100, "shrinking must converge to the boundary");
        assert!(f.message.contains("too big"));
    }

    #[test]
    fn fixed_seed_runs_single_case() {
        let cfg = Config {
            cases: 1000,
            seed: Some(7),
            ..Config::default()
        };
        let runs = std::cell::Cell::new(0u32);
        for_all_result("fixed_seed_runs_single_case", &cfg, &gens::u64s(), |_| {
            runs.set(runs.get() + 1);
        });
        assert_eq!(runs.get(), 1);
    }

    #[test]
    fn case_seeds_move_with_the_env_value_and_keep_their_count() {
        // The first seeds of a stream, as the runner has always drawn
        // them with the variable unset.
        let unmoved = [
            0x1287_35fb_110d_1128,
            0xa59f_9002_d2c7_c4c1,
            0x908e_7ceb_f90e_e6b3,
        ];
        for env in [None, Some("0"), Some("junk")] {
            assert_eq!(case_seeds("wire_round_trips", env, 3), unmoved);
        }
        for env in ["1806242025", "0x6BA910E9"] {
            let moved = case_seeds("wire_round_trips", Some(env), 512);
            assert_eq!(moved.len(), 512, "every case runs under {env}");
            assert_ne!(moved[..3], unmoved);
        }
        assert_eq!(
            case_seeds("p", Some("1806242025"), 4),
            case_seeds("p", Some("0x6BA910E9"), 4),
        );
    }

    #[test]
    fn filter_give_up_skips_instead_of_failing() {
        let f = for_all_result(
            "filter_give_up_skips_instead_of_failing",
            &Config::with_cases(8),
            &gens::u64s().filter(|_| false),
            |_| panic!("property must never run"),
        );
        assert!(f.is_none());
    }
}
