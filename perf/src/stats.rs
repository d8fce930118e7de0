//! The benchmark's summary statistics: median-of-K, the percentile
//! rule, and the spread test behind `unresolved`.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(min, max)` of `values`; `None` when empty.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    Some(
        values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// The percentiles a latency row may report, ascending, each with the
/// reciprocal of the share of samples beyond it (kept as an integer so
/// the rule below is exact).
const LADDER: [(f64, usize); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
];

/// The percentile rule: the highest percentile of the ladder with at
/// least ten samples beyond it, so a reported tail is never one or two
/// outliers. `None` below 20 samples (even the median has fewer than
/// ten beyond it).
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .filter(|(_, inv_beyond)| n >= 10 * inv_beyond)
        .map(|(p, _)| *p)
        .next_back()
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1] as f64)
}

/// Whether two medians of a metric agree within `bound` (a share of the
/// first). A zero bound demands exact equality.
pub fn within_bound(a: f64, b: f64, bound: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= bound * a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_k() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(min_max(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(150_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.0), Some(7.0));
    }

    #[test]
    fn bound_comparison() {
        assert!(within_bound(100.0, 109.0, 0.1));
        assert!(within_bound(100.0, 91.0, 0.1));
        assert!(!within_bound(100.0, 111.0, 0.1));
        assert!(within_bound(5.0, 5.0, 0.0));
        assert!(!within_bound(5.0, 5.000001, 0.0));
    }
}
