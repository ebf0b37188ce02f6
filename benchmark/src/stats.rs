//! Sample statistics: medians, the "ten samples beyond" percentile rule, and
//! the quartile spread the acceptance check uses.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Nearest-rank quantile `q` of `xs`, reported only when at least ten
/// samples lie beyond it — a tail percentile read off fewer is one outlier,
/// not a percentile.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (q * n as f64 - 1e-9).ceil() as usize; // 1-based; the epsilon absorbs 0.9 * 100 > 90
    let idx = rank.max(1) - 1;
    (n >= idx + 1 + 10).then(|| v[idx])
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so the spread printed by `--ab` is the
/// number the acceptance check computes.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=160).map(f64::from).collect();
        // p90 of 160 is the 144th value: 16 samples beyond it
        assert_eq!(tail_quantile(&xs, 0.90), Some(144.0));
        // p95 of 160 leaves 8 beyond: not reported
        assert_eq!(tail_quantile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.95), Some(228.0)); // 12 beyond
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.90), None); // 90th of 99: 9 beyond
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.90), Some(90.0)); // exactly 10 beyond
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(iqr_share(&xs), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
