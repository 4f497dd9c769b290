//! Small statistics toolkit: moments, percentiles, Pearson correlation, and
//! the one-sided Student-t quantiles used by the paper's intervention
//! analysis (§III-C, Equation 2).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator); 0 for fewer than two
/// samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank: the element a stable sort
/// would put at rank `round((n − 1)·q)`, found by selection on a copy.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or `xs` contains NaN.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if xs.is_empty() {
        return None;
    }
    let idx = ((xs.len() - 1) as f64 * q).round() as usize;
    let mut v = xs.to_vec();
    let (_, &mut at, _) = v.select_nth_unstable_by(idx, |a, b| {
        a.partial_cmp(b).expect("NaN in percentile input")
    });
    if at == 0.0 {
        // -0.0 and 0.0 tie but differ in bits: a stable sort keeps them
        // in input order, so the rank names the zero that order puts there.
        let below = xs.iter().filter(|&&x| x < 0.0).count();
        return xs.iter().copied().filter(|&x| x == 0.0).nth(idx - below);
    }
    Some(at)
}

/// Pearson product-moment correlation of two equal-length series.
///
/// Returns `None` when either series is degenerate (fewer than two points
/// or zero variance).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "series length mismatch");
    if xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Cross-correlation of `xs` against `ys` shifted by `lag` (positive lag:
/// `ys` leads). Used to show GC activity *precedes* load spikes.
pub fn lagged_pearson(xs: &[f64], ys: &[f64], lag: i64) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "series length mismatch");
    let n = xs.len() as i64;
    if lag.abs() >= n {
        return None;
    }
    let (xs_w, ys_w): (&[f64], &[f64]) = if lag >= 0 {
        (&xs[lag as usize..], &ys[..(n - lag) as usize])
    } else {
        (&xs[..(n + lag) as usize], &ys[(-lag) as usize..])
    };
    pearson(xs_w, ys_w)
}

/// One-sided 95% Student-t quantiles, `t(0.95, df)`, used as the confidence
/// coefficient in the paper's Equation 2.
const T_TABLE: [(u32, f64); 19] = [
    (1, 6.314),
    (2, 2.920),
    (3, 2.353),
    (4, 2.132),
    (5, 2.015),
    (6, 1.943),
    (7, 1.895),
    (8, 1.860),
    (9, 1.833),
    (10, 1.812),
    (12, 1.782),
    (15, 1.753),
    (20, 1.725),
    (25, 1.708),
    (30, 1.697),
    (40, 1.684),
    (60, 1.671),
    (120, 1.658),
    (u32::MAX, 1.645),
];

/// `t(0.95, df)` with linear interpolation in `1/df` between table rows.
///
/// # Panics
///
/// Panics if `df == 0` (no such distribution).
pub fn t_095(df: u32) -> f64 {
    assert!(df > 0, "t distribution needs at least 1 degree of freedom");
    for w in T_TABLE.windows(2) {
        let (d0, t0) = w[0];
        let (d1, t1) = w[1];
        if df == d0 {
            return t0;
        }
        if df < d1 {
            // Interpolate linearly in 1/df, the natural scale for t tails.
            let x = 1.0 / df as f64;
            let x0 = 1.0 / d0 as f64;
            let x1 = if d1 == u32::MAX { 0.0 } else { 1.0 / d1 as f64 };
            return t1 + (t0 - t1) * (x - x1) / (x0 - x1);
        }
    }
    1.645
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - 2.138).abs() < 0.001);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0, 5.0]), None);
    }

    #[test]
    fn lagged_pearson_finds_shift() {
        // ys leads xs by 2 steps.
        let ys = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0];
        let mut xs = [0.0; 10];
        xs[2..10].copy_from_slice(&ys[..8]);
        let at_lag = lagged_pearson(&xs, &ys, 2).unwrap();
        let at_zero = lagged_pearson(&xs, &ys, 0).unwrap();
        assert!(at_lag > 0.9);
        assert!(at_zero < at_lag);
        assert_eq!(lagged_pearson(&xs, &ys, 10), None);
    }

    #[test]
    fn t_quantiles_match_table() {
        assert!((t_095(1) - 6.314).abs() < 1e-9);
        assert!((t_095(10) - 1.812).abs() < 1e-9);
        assert!((t_095(1_000_000) - 1.645).abs() < 1e-3);
        // Interpolated values are between neighbours and monotone.
        let t11 = t_095(11);
        assert!(t11 < t_095(10) && t11 > t_095(12));
        let t90 = t_095(90);
        assert!(t90 < t_095(60) && t90 > t_095(120));
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn t_zero_df_panics() {
        t_095(0);
    }
}
