//! The benchmark's own arithmetic: percentiles, self time, idle share and
//! hit ratio. Kept free of I/O so the unit tests below pin every formula
//! the reported numbers rest on.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The lowest percentile still reported as a tail.
pub const TAIL_FLOOR: f64 = 90.0;

/// The tail of a sample set: the highest nearest-rank percentile that
/// still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile, `100 · rank / count`.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The highest percentile of `values` with at least [`TAIL_BEYOND`] samples
/// ranked beyond it: rank `count − 10` of the ascending order. Below 100
/// samples that percentile falls under [`TAIL_FLOOR`] (with 20 samples it
/// is the median), so no percentile qualifies as a tail and the maximum is
/// returned with `beyond = 0`, for the caller to say so next to the number.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let count = v.len();
    let qualifies =
        count > TAIL_BEYOND && 100.0 * (count - TAIL_BEYOND) as f64 / count as f64 >= TAIL_FLOOR;
    let rank = if qualifies { count - TAIL_BEYOND } else { count };
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / count as f64,
        count,
        beyond: count - rank,
    })
}

/// The typical execution time of a workload that mixes cells of very
/// different cost: the geometric mean over cells of each cell's median.
/// `samples` pairs a cell index with one execution's time. A pooled median
/// of such a mixture sits in the gap between clusters, where it is set by
/// one cluster's slowest and the next one's fastest execution.
pub fn cell_median(samples: &[(usize, f64)]) -> Option<f64> {
    let mut by_cell: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(cell, v) in samples {
        by_cell.entry(cell).or_default().push(v);
    }
    let medians: Vec<f64> = by_cell.values().filter_map(|v| median(v)).collect();
    if medians.is_empty() {
        return None;
    }
    let log_mean = medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64;
    Some(log_mean.exp())
}

/// A layer's self time: its own span minus the time of the child spans it
/// contains, clamped at zero (timer granularity can make the children's
/// sum exceed a very short parent span by a few nanoseconds).
pub fn self_time(total_ns: u64, children_ns: u64) -> u64 {
    total_ns.saturating_sub(children_ns)
}

/// Share of worker-thread time spent outside executions: each worker's
/// lifetime minus its time inside executions, summed, over the summed
/// lifetimes. 0 when no worker ran.
pub fn idle_share(lifetimes_s: &[f64], busy_s: &[f64]) -> f64 {
    let life: f64 = lifetimes_s.iter().sum();
    if life <= 0.0 {
        return 0.0;
    }
    let busy: f64 = busy_s.iter().sum();
    ((life - busy) / life).clamp(0.0, 1.0)
}

/// Useful outcomes over attempts (`would_mine` probes returning true over
/// all probes); 0 when nothing was attempted.
pub fn hit_ratio(hits: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        hits as f64 / calls as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond() {
        // 1..=100: rank 90 → p90, value 90, ten samples (91..=100) beyond.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile, t.count, t.beyond), (90.0, 90.0, 100, 10));

        // 1..=1000: rank 990 → p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn tail_below_the_floor_is_the_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.value, t.percentile, t.count, t.beyond), (9.0, 100.0, 3, 0));
        // 99 samples: rank 89 would be p89.9, under the p90 floor.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 99.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn cell_median_is_the_geometric_mean_of_cell_medians() {
        // Cell 0 medians at 2, cell 1 at 8: geometric mean 4, whatever the
        // pooled median of the mixture.
        let samples = [(0, 1.0), (0, 2.0), (0, 3.0), (1, 8.0), (1, 7.0), (1, 9.0)];
        assert!((cell_median(&samples).unwrap() - 4.0).abs() < 1e-12);
        assert!((cell_median(&[(3, 5.0)]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(cell_median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(1_000, 250), 750);
        assert_eq!(self_time(1_000, 1_000), 0);
        assert_eq!(self_time(1_000, 1_003), 0);
    }

    #[test]
    fn idle_share_is_time_outside_executions() {
        // Two workers alive 10 s each, busy 9 s and 7 s: 4 of 20 s idle.
        assert!((idle_share(&[10.0, 10.0], &[9.0, 7.0]) - 0.2).abs() < 1e-12);
        assert_eq!(idle_share(&[10.0], &[10.0]), 0.0);
        assert_eq!(idle_share(&[], &[]), 0.0);
    }

    #[test]
    fn hit_ratio_counts_true_probes() {
        assert_eq!(hit_ratio(3, 12), 0.25);
        assert_eq!(hit_ratio(0, 0), 0.0);
    }
}
