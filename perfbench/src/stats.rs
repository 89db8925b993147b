//! The benchmark's own arithmetic: percentiles with their sample
//! count, medians, span self time and the trace-overhead ratio.

/// A nearest-rank percentile together with the sample it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank. A percentile is
    /// only trusted with at least ten of them.
    pub beyond: usize,
}

/// The nearest-rank `p`-percentile (`0 < p <= 1`) of `values`: the
/// smallest sample such that at least a `p` share of all samples is at
/// or below it. `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 1.0, "percentile share {p} out of (0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The tolerance keeps 0.95 * 200 at rank 190, not 191.
    let rank = ((p * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median of `values` (mean of the two middle samples for an even
/// count); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Self time of the span `[start, end)`: its length minus the part of
/// it that the `children` intervals cover. Children are clipped to the
/// parent, and time covered by several overlapping children counts
/// once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// How much longer the traced pass took than the same pass with span
/// recording off, as a ratio of wall times (1.0 = no overhead).
pub fn overhead_ratio(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s > 0.0 {
        traced_s / untraced_s
    } else {
        0.0
    }
}

/// `part / whole`, or 0 when nothing was counted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_samples_beyond() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p95 = percentile(&values, 0.95).unwrap();
        assert_eq!(p95.value, 190.0);
        assert_eq!((p95.samples, p95.beyond), (200, 10));
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (100.0, 100));
        let max = percentile(&values, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (200.0, 0));
    }

    #[test]
    fn percentile_of_small_and_empty_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        let one = percentile(&[7.0], 0.95).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        // Nine samples: p95 is the maximum, with nothing beyond it.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&nine, 0.95).unwrap().beyond, 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_without_children_is_the_span() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [20, 30) and [25, 40) overlap: together they cover
        // [20, 40), 20 units of the parent's 100.
        assert_eq!(self_time(0, 100, &[(25, 40), (20, 30)]), 80);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // Only [10, 20) of the first child and [90, 100) of the second
        // lie inside the parent.
        assert_eq!(self_time(10, 100, &[(0, 20), (90, 150)]), 70);
        // A child wholly outside covers nothing; a child covering the
        // whole parent leaves no self time.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        assert_eq!(self_time(10, 20, &[(0, 40)]), 0);
    }

    #[test]
    fn overhead_ratio_compares_traced_to_untraced() {
        assert!((overhead_ratio(10.3, 10.0) - 1.03).abs() < 1e-12);
        assert!((overhead_ratio(9.0, 10.0) - 0.9).abs() < 1e-12);
        assert_eq!(overhead_ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn share_guards_an_empty_whole() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
