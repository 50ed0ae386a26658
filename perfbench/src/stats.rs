//! Pure arithmetic of the benchmark: histogram-snapshot deltas, the
//! percentile ladder, span self time, and run-level summaries.
//!
//! Nothing here touches a socket or a process, so every rule the
//! report relies on is unit-tested below.

use esr_obs::HistogramSnapshot;

/// `later − earlier` for two cumulative snapshots of one histogram:
/// the values recorded between the two reads. Bucket counts subtract
/// exactly (they only ever grow); a bucket present only in `later` is
/// new in the window. `max` cannot be windowed, so the delta keeps
/// `later.max` as an upper bound (0 when the window is empty).
pub fn hist_delta(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = Vec::with_capacity(later.buckets.len());
    let mut old = earlier.buckets.iter().peekable();
    for &(i, n) in &later.buckets {
        // Skip buckets of `earlier` below `i`: a concurrent snapshot can
        // only be ahead of the earlier one, so these read as empty.
        while old.peek().is_some_and(|&&(j, _)| j < i) {
            old.next();
        }
        let before = match old.peek() {
            Some(&&(j, m)) if j == i => m,
            _ => 0,
        };
        let d = n.saturating_sub(before);
        if d > 0 {
            buckets.push((i, d));
        }
    }
    let count = buckets.iter().map(|&(_, n)| n).sum();
    HistogramSnapshot {
        count,
        sum: later.sum.saturating_sub(earlier.sum),
        max: if count == 0 { 0 } else { later.max },
        buckets,
    }
}

/// The percentiles the report climbs, lowest first.
pub const LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it out of `n`, or `None` when even p90 has fewer.
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile (0–100) of ascending `sorted` samples by the
/// nearest-rank rule; `None` when there are no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A closed interval of time, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

/// Self time of a parent span: its duration minus the part of it that
/// the child spans cover. Children may overlap one another and may
/// stick out of the parent; only their union inside the parent counts.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut inside: Vec<Interval> = children
        .iter()
        .filter_map(|c| {
            let start = c.start.max(parent.start);
            let end = c.end.min(parent.end);
            (start < end).then_some(Interval { start, end })
        })
        .collect();
    inside.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut reach = parent.start;
    for c in inside {
        let start = c.start.max(reach);
        if c.end > start {
            covered += c.end - start;
            reach = c.end;
        }
    }
    (parent.end - parent.start) - covered
}

/// Share of host CPU time the hypervisor stole between two reads of
/// the aggregate `/proc/stat` line (user, nice, system, idle, iowait,
/// irq, softirq, steal). 0 when the line could not be read.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    if before.len() < 8 || after.len() < 8 {
        return 0.0;
    }
    let d: Vec<u64> = (0..8).map(|i| after[i].saturating_sub(before[i])).collect();
    ratio(d[7] as f64, d.iter().sum::<u64>() as f64)
}

/// Indices of the `keep` slices with the least stolen time, in time
/// order; ties go to the earlier slice.
pub fn quiet_slices(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    idx.truncate(keep);
    idx.sort_unstable();
    idx
}

/// `a / b`, or 0 when `b` is 0 (a ratio over an empty base).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_obs::LatencyHistogram;

    fn snap(values: &[u64]) -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn delta_of_growing_histogram_is_the_window() {
        let h = LatencyHistogram::new();
        for v in [3, 70, 70, 900] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [70, 5000, 3] {
            h.record(v);
        }
        let d = hist_delta(&h.snapshot(), &before);
        assert_eq!(d, snap(&[70, 5000, 3]));
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 5073);
    }

    #[test]
    fn delta_against_empty_is_identity() {
        let s = snap(&[1, 2, 1000, 1_000_000]);
        assert_eq!(hist_delta(&s, &HistogramSnapshot::new()), s);
    }

    #[test]
    fn delta_of_equal_snapshots_is_empty() {
        let s = snap(&[10, 20, 30]);
        let d = hist_delta(&s, &s);
        assert_eq!(d, HistogramSnapshot::new());
        assert_eq!(d.quantile(0.5), 0);
    }

    #[test]
    fn delta_with_disjoint_buckets_keeps_only_new_ones() {
        // Earlier buckets the later snapshot lacks cannot happen for one
        // histogram, but must not underflow or leak into the result.
        let earlier = snap(&[5, 6]);
        let later = snap(&[100, 200]);
        let d = hist_delta(&later, &earlier);
        assert_eq!(d.buckets, later.buckets);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 300 - 11);
    }

    #[test]
    fn delta_quantile_ignores_history() {
        let h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(10_000);
        }
        let before = h.snapshot();
        for _ in 0..100 {
            h.record(20);
        }
        let d = hist_delta(&h.snapshot(), &before);
        assert_eq!(d.p95(), 20);
        assert_eq!(d.mean(), 20.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(99), None);
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(100_000), Some(99.99));
        assert_eq!(top_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 95.0), Some(95));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(iv(10, 110), &[]), 100);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(iv(0, 100), &[iv(10, 20), iv(50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(
            self_time(iv(0, 100), &[iv(10, 40), iv(30, 60), iv(35, 50)]),
            50
        );
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(iv(10, 50), &[iv(0, 20), iv(45, 90)]), 25);
        assert_eq!(self_time(iv(10, 50), &[iv(0, 100)]), 0);
        assert_eq!(self_time(iv(10, 50), &[iv(60, 70)]), 40);
    }

    #[test]
    fn steal_share_of_a_slice() {
        let a = [100, 0, 50, 800, 10, 0, 0, 40];
        let b = [130, 0, 60, 850, 10, 0, 0, 50];
        assert_eq!(steal_share(&a, &b), 10.0 / 100.0);
        assert_eq!(steal_share(&a, &a), 0.0);
        assert_eq!(steal_share(&[], &b), 0.0);
    }

    #[test]
    fn quiet_slices_keep_the_least_stolen_in_time_order() {
        let steal = [0.05, 0.0, 0.2, 0.0, 0.01, 0.0];
        assert_eq!(quiet_slices(&steal, 3), vec![1, 3, 5]);
        assert_eq!(quiet_slices(&steal, 4), vec![1, 3, 4, 5]);
        // No steal anywhere: the earliest slices.
        assert_eq!(quiet_slices(&[0.0; 4], 2), vec![0, 1]);
        assert_eq!(quiet_slices(&steal, 10).len(), 6);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
