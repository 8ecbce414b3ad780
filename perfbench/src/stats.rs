//! Order statistics over exact samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule,
/// or `None` for an empty slice. Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// The median of `values` (mean of the two middle samples for an even
/// count), or `None` for an empty slice. Sorts `values` in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// The `q`-quantile of `values`, but only when at least ten samples lie
/// strictly beyond it: a tail percentile resting on fewer samples is one
/// outlier, not a percentile.
pub fn supported_quantile(values: &mut [f64], q: f64) -> Option<f64> {
    let v = quantile(values, q)?;
    let beyond = values.iter().filter(|&&x| x > v).count();
    (beyond >= 10).then_some(v)
}

/// The geometric mean of strictly positive values, or `None` when the
/// slice is empty or holds a non-positive value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let mut few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_quantile(&mut few, 0.99), None);
        let mut many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_quantile(&mut many, 0.99), Some(990.0));
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
