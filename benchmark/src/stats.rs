//! Exact-sample statistics. Every timing the benchmark reports comes from
//! the client-side samples themselves, never from log buckets.

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The percentile asked for, lowered until at least ten samples lie beyond
/// it (a p99 of 300 samples rests on three of them and repeats badly).
/// With fewer than eleven samples this is the median. Returns the
/// percentile actually used and its value.
pub fn guarded_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (p, 0.0);
    }
    if n < 11 {
        return (0.5, percentile(sorted, 0.5));
    }
    let k = rank(n, p).min(n - 11);
    ((k + 1) as f64 / n as f64, sorted[k])
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-slice guarded percentile, then the median over the slices that have
/// samples: one disturbed slice (a neighbour's burst on the bench box) moves
/// one of five values instead of the tail of the pooled distribution.
pub fn median_of_slices(slices: &[Vec<f64>], p: f64) -> f64 {
    let per_slice: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| guarded_percentile(&sorted(s), p).1)
        .collect();
    median(&per_slice)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default, exclusive method), because that is what the driver
/// judges spreads with. Needs two values; fewer return the value thrice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn guard_lowers_the_percentile_until_ten_samples_lie_beyond() {
        // 200 samples: p99 would leave 2 beyond; the guard moves to rank
        // 190 (ten beyond), i.e. p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, value) = guarded_percentile(&v, 0.99);
        assert_eq!(value, 190.0);
        assert!((p - 0.95).abs() < 1e-9);
        // 2000 samples: p99 leaves 20 beyond and stands.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(guarded_percentile(&v, 0.99), (0.99, 1980.0));
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(guarded_percentile(&v, 0.99), (0.5, 4.0));
    }

    #[test]
    fn median_of_slices_ignores_one_disturbed_slice() {
        let calm: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let mut disturbed = calm.clone();
        for x in disturbed.iter_mut().take(200) {
            *x = 50.0;
        }
        let slices = vec![calm.clone(), calm.clone(), disturbed, calm.clone(), calm];
        let got = median_of_slices(&slices, 0.99);
        assert!(
            got < 1.2,
            "a single disturbed slice must not set p99: {got}"
        );
        // Empty slices are skipped, not counted as zero.
        assert_eq!(median_of_slices(&[vec![], vec![2.0; 20]], 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
