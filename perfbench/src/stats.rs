//! Order statistics for repeated host timings.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method, the default of
/// Python's `statistics.quantiles(xs, n=4)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    (quantile(xs, 1, 4), quantile(xs, 3, 4))
}

/// The `i`-th of the `n - 1` cut points that split `xs` into `n` groups,
/// by the exclusive method: Python's `statistics.quantiles(xs, n=n)[i - 1]`.
/// A single sample is its own quantile.
pub fn quantile(xs: &[f64], i: usize, n: usize) -> f64 {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    // Integer arithmetic as in CPython; `delta` may leave 0..=n after
    // the clamp, which extrapolates past the extremes like Python does.
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn upper_decile_matches_python_exclusive_method() {
        // statistics.quantiles(xs, n=10)[8] for the same three inputs
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&xs, 9, 10) - 9.9).abs() < 1e-12);
        assert!((quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 9, 10) - 5.4).abs() < 1e-12);
        assert!((quantile(&[2.0, 1.0], 9, 10) - 2.7).abs() < 1e-12);
    }
}
