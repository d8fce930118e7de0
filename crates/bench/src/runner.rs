//! Minimal `std::time::Instant` benchmark runner.
//!
//! Replaces Criterion (a registry dependency this hermetic workspace
//! cannot pull) with a deliberately small runner exposing the same
//! surface the bench files use — `Criterion::benchmark_group`,
//! `bench_function`, `Bencher::iter` / `iter_batched`, and the
//! `criterion_group!` / `criterion_main!` macros — so the scenario code
//! is unchanged from the Criterion originals.
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

/// Batch-size hint, kept for Criterion API compatibility. The runner
/// re-runs setup per batch regardless of the hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small; large batches are fine.
    SmallInput,
    /// Setup output is large; keep batches small.
    LargeInput,
}

/// Top-level runner handle, analogous to `criterion::Criterion`.
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Builds a runner from CLI args: the first non-flag argument is a
    /// substring filter on benchmark names.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }

    /// Opens a named group; benchmark names are printed as
    /// `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup::new(name.to_string(), self.filter.clone())
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    prefix: String,
    filter: Option<String>,
    // Tie the group to the Criterion borrow like the real API does.
    _marker: std::marker::PhantomData<&'a ()>,
}

// Separate literal construction from the struct definition so the
// PhantomData field stays private.
impl BenchmarkGroup<'_> {
    fn new(prefix: String, filter: Option<String>) -> Self {
        BenchmarkGroup {
            prefix,
            filter,
            _marker: std::marker::PhantomData,
        }
    }

    /// Runs one benchmark if it passes the filter, printing its result.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.prefix, name);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            ns_per_iter: f64::NAN,
        };
        f(&mut b);
        if b.ns_per_iter.is_nan() {
            println!("{full:<44} (no measurement)");
        } else {
            println!("{full:<44} {:>12.1} ns/iter", b.ns_per_iter);
            append_json_line(&full, b.ns_per_iter);
        }
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
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

    /// Criterion's batched form: `setup` runs outside the timed region,
    /// `routine` inside. Used when the routine consumes its input or
    /// must not accumulate state effects into later iterations.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
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

/// Groups benchmark functions under one name, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::runner::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point running the named groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::runner::Criterion::from_args();
            $($group(&mut c);)+
        }
    };
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
    fn group_filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("zzz-no-such-bench".into()),
        };
        let mut g = c.benchmark_group("t");
        // Would hang for a long time if not filtered out.
        g.bench_function("slow", |b| {
            b.iter(|| std::thread::sleep(Duration::from_secs(1)))
        });
        g.finish();
    }
}
