//! Order statistics and normalisation for the report: exact percentiles
//! over sorted samples, medians, and per-unit averages.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `permille`/1000 of the sample at or below it.
/// Integer rank arithmetic, so p99 of 100 samples is the 99th value, not a
/// float-rounded neighbour.
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(permille <= 1000, "permille out of range: {permille}");
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000).max(1);
    sorted[(rank - 1) as usize]
}

/// Number of samples strictly above the `permille` percentile — how many
/// observations the reported tail value rests on.
pub fn beyond(sorted: &[u64], permille: u64) -> usize {
    let p = percentile(sorted, permille);
    sorted.len() - sorted.partition_point(|&v| v <= p)
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `total / count`, or 0 when nothing was counted: a layer that did no
/// work on a workload reports zero per unit rather than NaN.
pub fn per_unit(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Nanoseconds summed over `count` units, as microseconds per unit.
pub fn us_per(total_ns: u64, count: u64) -> f64 {
    per_unit(total_ns as f64 / 1e3, count)
}

/// Per-window rate and latency percentiles, each reduced to its median
/// over the windows.
#[derive(Clone, Debug, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    /// Completions per second.
    pub rate: f64,
    /// One latency per requested percentile, in the samples' unit.
    pub latency: Vec<f64>,
}

/// Splits `elapsed_ns` into equal windows holding about `min_per_window`
/// samples each (at most `max_windows`, at least one), computes the
/// completion rate and the `permilles` latency percentiles of each
/// window, and returns the median of each over the windows. A stall that
/// hits a minority of the windows then moves none of the medians.
///
/// `samples` are `(completion time, latency)` pairs, both in ns.
pub fn windowed(
    samples: &[(u64, u64)],
    elapsed_ns: u64,
    min_per_window: usize,
    max_windows: usize,
    permilles: &[u64],
) -> Windowed {
    assert!(!samples.is_empty() && elapsed_ns > 0);
    let k = (samples.len() / min_per_window.max(1)).clamp(1, max_windows.max(1));
    let width = elapsed_ns.div_ceil(k as u64);
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); k];
    for &(end, lat) in samples {
        per[((end / width) as usize).min(k - 1)].push(lat);
    }
    let mut rates = Vec::with_capacity(k);
    let mut lats: Vec<Vec<f64>> = vec![Vec::with_capacity(k); permilles.len()];
    for w in per.iter_mut().filter(|w| !w.is_empty()) {
        w.sort_unstable();
        rates.push(w.len() as f64 / (width as f64 / 1e9));
        for (l, &p) in lats.iter_mut().zip(permilles) {
            l.push(percentile(w, p) as f64);
        }
    }
    Windowed {
        windows: k,
        rate: median(&rates),
        latency: lats.iter().map(|l| median(l)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 500), 50);
        assert_eq!(percentile(&s, 990), 99);
        assert_eq!(percentile(&s, 999), 100);
        assert_eq!(percentile(&s, 1000), 100);
        assert_eq!(percentile(&s, 0), 1);
        // 1000 samples resolve p99.9 to the 999th value: a tenth of a
        // percent, which log2 buckets cannot.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 999), 999);
        assert_eq!(percentile(&s, 990), 990);
        assert_eq!(percentile(&[7], 999), 7);
    }

    #[test]
    fn tail_support_counts_samples_above() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&s, 990), 10);
        assert_eq!(beyond(&s, 999), 1);
        // Ties at the percentile value are not "beyond" it.
        assert_eq!(beyond(&[1, 2, 2, 2], 500), 0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windowed_medians_ignore_one_stalled_window() {
        // Three 1 s windows of 1000 completions; the middle one has a
        // stall that stretches its whole tail tenfold.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let lat = if w == 1 { 10 * (i + 1) } else { i + 1 };
                samples.push((w * 1_000_000_000 + i * 1_000_000, lat));
            }
        }
        let got = windowed(&samples, 3_000_000_000, 1000, 10, &[500, 990]);
        assert_eq!(got.windows, 3);
        assert_eq!(got.rate, 1000.0);
        assert_eq!(got.latency, vec![500.0, 990.0]);
        // Too few samples for two windows: one window over everything.
        assert_eq!(windowed(&samples, 3_000_000_000, 5000, 10, &[]).windows, 1);
    }

    #[test]
    fn per_commit_normalisation() {
        assert_eq!(us_per(3_000, 2), 1.5);
        assert_eq!(us_per(5_000, 0), 0.0);
        assert_eq!(per_unit(10.0, 4), 2.5);
    }
}
