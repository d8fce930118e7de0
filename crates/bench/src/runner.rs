//! Minimal `std::time::Instant` benchmark runner.
//!
//! Methodology: each benchmark is calibrated (iteration count doubled
//! until a batch takes ≥ ~10 ms), then measured over several samples of
//! that batch size; the reported figure is the *minimum* mean ns/iter
//! across samples, the conventional low-noise point estimate. Wall-clock
//! budget per benchmark is bounded by `PRISM_BENCH_MS` (default 300 ms
//! of measurement).
//!
//! CLI: a single positional argument filters benchmarks by substring
//! (`cargo bench -p prism-bench --bench substrate -- read`); flags
//! cargo passes through (`--bench`) are ignored.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measurement budget per benchmark, in milliseconds.
fn budget_ms() -> u64 {
    std::env::var("PRISM_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// When `PRISM_BENCH_JSON` names a file, each result is appended to it
/// as one JSON object per line (`{"bench": ..., "ns_per_iter": ...}`),
/// so `scripts/bench.sh` can collect machine-readable numbers across
/// bench binaries without parsing stdout.
fn append_json_line(name: &str, ns: f64) {
    let Ok(path) = std::env::var("PRISM_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{{\"bench\": \"{name}\", \"ns_per_iter\": {ns:.1}}}");
    }
}

/// Runs the benchmarks a command line selects.
pub struct Runner {
    filter: Option<String>,
}

impl Runner {
    /// Builds a runner from CLI args: the first non-flag argument is a
    /// substring filter on benchmark names.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Runner { filter }
    }

    /// Runs benchmark `name` (its full row name, e.g. `wire/chain4_decode`)
    /// and prints its result, if it passes the filter. `f` is not called
    /// otherwise, so set-up written inside it costs a filtered-out row
    /// nothing.
    pub fn bench(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        if self
            .filter
            .as_ref()
            .is_some_and(|s| !name.contains(s.as_str()))
        {
            return;
        }
        let mut b = Bencher {
            ns_per_iter: f64::NAN,
        };
        f(&mut b);
        if b.ns_per_iter.is_nan() {
            println!("{name:<44} (no measurement)");
        } else {
            println!("{name:<44} {:>12.1} ns/iter", b.ns_per_iter);
            append_json_line(name, b.ns_per_iter);
        }
    }
}

/// Passed to each benchmark closure; runs and times the hot loop.
pub struct Bencher {
    ns_per_iter: f64,
}

impl Bencher {
    /// Times `f` in calibrated batches, keeping the best (minimum) mean.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Calibrate: double the batch until it costs ≥ 10 ms (or a large
        // iteration count for ultra-cheap bodies).
        let mut batch: u64 = 1;
        let calibration_floor = Duration::from_millis(10);
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= calibration_floor || batch >= 1 << 24 {
                break;
            }
            batch *= 2;
        }
        // Measure: as many batches as the budget allows, at least 3.
        let budget = Duration::from_millis(budget_ms());
        let mut best = f64::INFINITY;
        let mut spent = Duration::ZERO;
        let mut samples = 0;
        while samples < 3 || (spent < budget && samples < 100) {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            spent += elapsed;
            samples += 1;
            let mean = elapsed.as_nanos() as f64 / batch as f64;
            if mean < best {
                best = mean;
            }
        }
        self.record(best);
    }

    /// The batched form: `setup` runs outside the timed region,
    /// `routine` inside. Used when the routine consumes its input or
    /// must not accumulate state effects into later iterations.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let budget = Duration::from_millis(budget_ms());
        let mut best = f64::INFINITY;
        let mut spent = Duration::ZERO;
        let mut samples: u64 = 0;
        // Batch inputs in groups of 64 to amortize Instant overhead.
        const GROUP: usize = 64;
        while samples < 3 || (spent < budget && samples < 100) {
            let inputs: Vec<S> = (0..GROUP).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let elapsed = start.elapsed();
            spent += elapsed;
            samples += 1;
            let mean = elapsed.as_nanos() as f64 / GROUP as f64;
            if mean < best {
                best = mean;
            }
        }
        self.record(best);
    }

    fn record(&mut self, ns: f64) {
        if self.ns_per_iter.is_nan() || ns < self.ns_per_iter {
            self.ns_per_iter = ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something_positive() {
        // Keep the budget tiny so the test is fast.
        std::env::set_var("PRISM_BENCH_MS", "5");
        let mut b = Bencher {
            ns_per_iter: f64::NAN,
        };
        b.iter(|| std::hint::black_box(41u64) + 1);
        assert!(b.ns_per_iter.is_finite() && b.ns_per_iter > 0.0);
        std::env::remove_var("PRISM_BENCH_MS");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut r = Runner {
            filter: Some("zzz-no-such-bench".into()),
        };
        r.bench("t/slow", |_| unreachable!("a filtered-out row never runs"));
    }
}
