//! Metrics collection: named counters and log-bucketed latency histograms.
//!
//! The experiment harness records one latency sample per completed
//! operation and a handful of counters (operations completed, aborts,
//! retries). Histograms use logarithmic bucketing with 64 sub-buckets per
//! octave, giving ~1.6 % relative error — ample for reproducing the paper's
//! average-latency plots while staying allocation-free per sample.

use std::collections::BTreeMap;

use crate::time::SimDuration;

const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;

/// A log-bucketed histogram of durations in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            min_ns: u64::MAX,
            ..Default::default()
        }
    }

    fn bucket_of(ns: u64) -> u64 {
        if ns < SUB_BUCKETS {
            return ns;
        }
        let octave = 63 - ns.leading_zeros() as u64;
        let shift = octave - SUB_BITS as u64;
        let sub = (ns >> shift) - SUB_BUCKETS;
        (octave - SUB_BITS as u64 + 1) * SUB_BUCKETS + sub
    }

    fn bucket_midpoint(bucket: u64) -> u64 {
        if bucket < SUB_BUCKETS {
            return bucket;
        }
        let octave = bucket / SUB_BUCKETS - 1 + SUB_BITS as u64;
        let sub = bucket % SUB_BUCKETS;
        let shift = octave - SUB_BITS as u64;
        let low = (SUB_BUCKETS + sub) << shift;
        low + (1u64 << shift) / 2
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        *self.buckets.entry(Self::bucket_of(ns)).or_insert(0) += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in fractional microseconds, or 0 if empty.
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64 / 1_000.0
    }

    /// Largest recorded sample in microseconds, or 0 if empty.
    pub fn max_micros(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.max_ns as f64 / 1_000.0
    }

    /// Smallest recorded sample in microseconds, or 0 if empty.
    pub fn min_micros(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.min_ns as f64 / 1_000.0
    }

    /// Approximate value at quantile `q` in `[0, 1]`, in microseconds.
    pub fn quantile_micros(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Self::bucket_midpoint(bucket) as f64 / 1_000.0;
            }
        }
        self.max_ns as f64 / 1_000.0
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }
}

/// Named counters and histograms for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty metrics sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a duration into histogram `name`.
    pub fn record(&mut self, name: &str, d: SimDuration) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(d);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Clears all counters and histograms (e.g. after warm-up).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }

    /// Iterates over counter names and values.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_extremes() {
        let mut h = Histogram::new();
        for us in [1u64, 2, 3, 4] {
            h.record(SimDuration::micros(us));
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean_micros() - 2.5).abs() < 1e-9);
        assert!((h.max_micros() - 4.0).abs() < 1e-9);
        assert!((h.min_micros() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::micros(i));
        }
        let p50 = h.quantile_micros(0.5);
        let p99 = h.quantile_micros(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 {p99}");
    }

    #[test]
    fn histogram_bucketing_error_is_bounded() {
        // Every value must land in a bucket whose midpoint is within ~1.6 %.
        for ns in [100u64, 1_000, 10_000, 123_456, 9_999_999] {
            let b = Histogram::bucket_of(ns);
            let mid = Histogram::bucket_midpoint(b);
            let err = (mid as f64 - ns as f64).abs() / ns as f64;
            assert!(err < 0.02, "ns={ns} mid={mid} err={err}");
        }
    }

    #[test]
    fn histogram_small_values_exact() {
        for ns in 0..64u64 {
            let b = Histogram::bucket_of(ns);
            assert_eq!(Histogram::bucket_midpoint(b), ns);
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::micros(1));
        b.record(SimDuration::micros(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_micros() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.add("ops", 3);
        m.add("ops", 4);
        assert_eq!(m.counter("ops"), 7);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.add("ops", 1);
        m.record("lat", SimDuration::micros(5));
        m.reset();
        assert_eq!(m.counter("ops"), 0);
        assert!(m.histogram("lat").is_none());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.mean_micros(), 0.0);
        assert_eq!(h.max_micros(), 0.0);
        assert_eq!(h.quantile_micros(0.5), 0.0);
    }
}
