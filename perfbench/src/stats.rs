//! Order statistics for the reported timings.

/// The `q` quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between neighbouring order statistics; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quartile on the fast side of a run's timing samples: the lower
/// quartile of times, the upper quartile of rates. On a shared host each
/// core runs in a fast regime or one ~1.5× slower for seconds at a time; a
/// median flips with the share of the run spent slow, while this quartile
/// holds until three quarters of the run are slow.
pub fn fast_time(times: &[f64]) -> f64 {
    quantile(times, 0.25)
}

/// See [`fast_time`].
pub fn fast_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.75)
}

/// The tail of `values`: the highest percentile with at least ten samples
/// beyond it, i.e. the eleventh-largest value. Returns `(percentile,
/// value)`; with ten samples or fewer it is the maximum (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= 10 {
        return (100.0, values.iter().copied().fold(0.0, f64::max));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&w), (99.0, 990.0));
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn quartiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(fast_time(&v), 2.0);
        assert_eq!(fast_rate(&v), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }
}
