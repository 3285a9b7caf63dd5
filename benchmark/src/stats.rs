//! Order statistics with the reporting rule the benchmark holds itself
//! to: a percentile is the nearest-rank percentile of every sample of
//! the window, reported only with at least ten samples beyond it.

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// samples are whole nanoseconds, each the floor of a time somewhere in
/// its nanosecond, so a rank that falls inside a run of equal samples
/// is placed inside that nanosecond by its position in the run (the
/// quantile of a histogram with 1 ns bins). Without this a steady
/// program reads the very same median to the nanosecond run after run
/// (`pingpong_local`: 0.934 us ten times in ten), which says less than
/// was measured.
pub fn percentile(sorted: &[u64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    let value = sorted[rank - 1];
    let first = sorted.partition_point(|&s| s < value);
    let ties = sorted.partition_point(|&s| s <= value) - first;
    Some(value as f64 + (rank - first) as f64 / (ties + 1) as f64)
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The interquartile mean: the mean of the middle half of `values` (a
/// quarter trimmed off each end, rounded down). For repeats of one
/// operation: like the median it ignores a few disturbed repeats; unlike
/// the median it moves smoothly when the repeats fall on two levels and
/// the split between them is near a half (a chat restart takes 11 or
/// 17 ms, depending on whether a network actor had parked). 0 for an
/// empty slice.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let trim = v.len() / 4;
    let middle = &v[trim..v.len() - trim];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method), or `None` for fewer than
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// regression bounds are derived from.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.5));
        assert_eq!(
            percentile(&v[..999], 0.99),
            None,
            "999 samples leave 9 beyond p99"
        );
        assert_eq!(percentile(&v[..20], 0.5), Some(10.5));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_rank_inside_a_run_of_equal_samples_is_placed_by_its_position() {
        // 100 samples of 7 ns, then 100 of 9 ns: the median is the last
        // of the sevens, the p25 the middle one.
        let mut v = vec![7u64; 100];
        v.extend([9; 100]);
        assert_eq!(percentile(&v, 0.5), Some(7.0 + 100.0 / 101.0));
        assert_eq!(percentile(&v, 0.25), Some(7.0 + 50.0 / 101.0));
        let p75 = percentile(&v, 0.75).unwrap();
        assert!(p75 > 9.0 && p75 < 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(iqr_share(&v), Some(1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn midmean_trims_a_quarter_off_each_end() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(midmean(&v), 5.5, "mean of 3..=8");
        assert_eq!(midmean(&[1.0, 2.0, 100.0]), 103.0 / 3.0, "too few to trim");
        assert_eq!(midmean(&[5.0, 1.0, 1_000.0, 3.0]), 4.0);
        assert_eq!(midmean(&[]), 0.0);
    }
}
