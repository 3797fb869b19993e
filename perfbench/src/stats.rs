//! Order statistics over latency samples.
//!
//! A percentile is only reported when the sample supports it: at least
//! [`MIN_TAIL`] samples must lie beyond it, otherwise the figure is
//! `None` (printed as `null`), never an extrapolation.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// The `p`-th percentile (0 < p < 100) by nearest rank on a sorted copy,
/// or `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least p % of samples at
    // or below it.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    (beyond >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// The median (mean of the middle pair for even counts); `None` when
/// empty. A median always has half the sample beyond it, so it follows
/// the usual definition rather than [`percentile`]'s tail rule.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_null_unless_ten_samples_lie_beyond_it() {
        // p99 of n samples has n − ceil(0.99 n) beyond it: 1000 → 10.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), None, "only 9 samples beyond");
        // p50 of 20 samples has 10 beyond; of 19, only 9.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&xs, 99.0);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&xs, 99.0));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
