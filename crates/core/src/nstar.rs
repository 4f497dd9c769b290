//! Congestion-point (N\*) determination by statistical intervention
//! analysis — the paper's §III-C, Equations 1 and 2.
//!
//! Given per-interval `(load, throughput)` samples, the load range is split
//! into `k` even bins and the mean throughput per bin forms the empirical
//! "main sequence curve". The slope sequence `δᵢ` between consecutive
//! non-empty bins is nearly constant (`δ₀`) while the server is unsaturated
//! and collapses once load exceeds N\*. Walking the prefix `δ₁…δ_{n₀}`, N\*
//! is the first bin where the one-sided 90%-confidence lower bound of the
//! slope mean, `δ̄ − t(0.95, n₀−1)·s.d.`, drops below `tol = tol_frac·δ₀`.

use serde::{Deserialize, Serialize};

use crate::stats::{mean, percentile, std_dev, t_095};

/// Parameters of the intervention analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NStarConfig {
    /// Number of even load bins (`k`; the paper suggests 100).
    pub bins: usize,
    /// Tolerance as a fraction of the initial slope (`0.2·δ₀` in the
    /// paper).
    pub tol_frac: f64,
    /// Minimum samples a bin needs to participate (empty/near-empty bins
    /// are skipped).
    pub min_bin_samples: usize,
}

impl Default for NStarConfig {
    fn default() -> Self {
        NStarConfig {
            bins: 100,
            tol_frac: 0.2,
            min_bin_samples: 1,
        }
    }
}

/// The estimated congestion point and the evidence behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NStar {
    /// The congestion point: the minimum load beyond which throughput stops
    /// growing.
    pub nstar: f64,
    /// The saturated throughput level (mean throughput of bins at or above
    /// N\*); the Utilization-Law `TP_max`.
    pub tp_max: f64,
    /// The binned main-sequence curve: (mean load, mean throughput) per
    /// non-empty bin, ascending by load.
    pub curve: Vec<(f64, f64)>,
    /// The slope sequence δᵢ between consecutive curve points.
    pub slopes: Vec<f64>,
    /// Index into `curve` where the intervention test fired.
    pub knee_index: usize,
}

/// Estimates N\* from `(load, throughput)` interval samples.
///
/// Returns `None` when the samples never show saturation — fewer than three
/// populated bins, or a slope sequence whose confidence bound never crosses
/// the tolerance (the server was simply never congested; every observed
/// load is then below N\*).
///
/// # Panics
///
/// Panics if `cfg.bins < 2`, if `cfg.tol_frac` is not in `(0, 1)`, or if
/// the two slices differ in length.
pub fn estimate(loads: &[f64], tputs: &[f64], cfg: &NStarConfig) -> Option<NStar> {
    assert!(cfg.bins >= 2, "need at least two bins");
    assert!(
        cfg.tol_frac > 0.0 && cfg.tol_frac < 1.0,
        "tol_frac must be in (0,1)"
    );
    assert_eq!(loads.len(), tputs.len(), "series length mismatch");
    fgbd_obsv::counter!("nstar.fits", 1);

    let mut populated = curve_bins(loads, tputs, cfg);
    // Idle intervals produce a zero-load bin that carries no slope
    // information; drop it (the paper's Nmin is effectively the smallest
    // load at which the server does work).
    populated.retain(|&(ld, _)| ld > 0.0);
    if populated.len() < 3 {
        return None;
    }

    // Slope sequence (Equation 1).
    let mut slopes = Vec::with_capacity(populated.len());
    for (i, &(ld, tp)) in populated.iter().enumerate() {
        if i == 0 {
            if ld <= 0.0 {
                return None;
            }
            slopes.push(tp / ld);
        } else {
            let (pld, ptp) = populated[i - 1];
            let dld = ld - pld;
            if dld <= 0.0 {
                return None;
            }
            slopes.push((tp - ptp) / dld);
        }
    }

    // Intervention test (Equation 2): find the first prefix whose lower
    // confidence bound falls below tol. Two guards make the test robust on
    // concave empirical curves (where slopes decline gradually rather than
    // dropping off a clean piecewise-linear knee): the *local* slope at the
    // candidate bin must itself be below tol, and the slopes from the
    // candidate onward must stay below tol on average — i.e. the curve has
    // genuinely flattened, not merely wobbled.
    let delta0 = slopes[0];
    if delta0 <= 0.0 {
        return None;
    }
    let tol = cfg.tol_frac * delta0;
    // A knee is only a knee if the curve has actually reached its ceiling
    // there: quantization at micro loads (one completion per interval)
    // creates false local plateaus far below the true capacity. The ceiling
    // reference is a high percentile of the bin throughputs (robust to a
    // single drain-outlier bin: 75th percentile).
    let tp_bins: Vec<f64> = populated.iter().map(|&(_, tp)| tp).collect();
    let max_tp = percentile(&tp_bins, 0.75).unwrap_or(0.0);
    for n0 in 2..=slopes.len() {
        let prefix = &slopes[..n0];
        let lower = mean(prefix) - t_095((n0 - 1) as u32) * std_dev(prefix);
        let local_flat = slopes[n0 - 1] < tol;
        let stays_flat = mean(&slopes[n0 - 1..]) < tol;
        let at_ceiling = populated[n0 - 1].1 >= 0.8 * max_tp;

        if lower < tol && local_flat && stays_flat && at_ceiling {
            let knee = n0 - 1;
            let nstar = populated[knee].0;
            let sat: Vec<f64> = populated[knee..].iter().map(|&(_, tp)| tp).collect();
            return Some(NStar {
                nstar,
                tp_max: mean(&sat),
                curve: populated,
                slopes,
                knee_index: knee,
            });
        }
        // Each prefix that fails the intervention test is one retry of the
        // slope fit with the next bin folded in.
        fgbd_obsv::counter!("nstar.slope_retries", 1);
    }
    fgbd_obsv::counter!("nstar.no_knee", 1);
    None
}

/// Bins `(load, throughput)` samples into `cfg.bins` even load intervals
/// and returns the per-bin mean curve, ascending by load.
pub fn curve_bins(loads: &[f64], tputs: &[f64], cfg: &NStarConfig) -> Vec<(f64, f64)> {
    assert_eq!(loads.len(), tputs.len(), "series length mismatch");
    let finite: Vec<usize> = (0..loads.len())
        .filter(|&i| loads[i].is_finite() && tputs[i].is_finite())
        .collect();
    if finite.is_empty() {
        return Vec::new();
    }
    let lmin = finite
        .iter()
        .map(|&i| loads[i])
        .fold(f64::INFINITY, f64::min);
    let lmax = finite
        .iter()
        .map(|&i| loads[i])
        .fold(f64::NEG_INFINITY, f64::max);
    if lmax <= lmin {
        return Vec::new();
    }
    let width = (lmax - lmin) / cfg.bins as f64;
    let mut sums = vec![(0.0f64, 0.0f64, 0usize); cfg.bins];
    for &i in &finite {
        let b = (((loads[i] - lmin) / width) as usize).min(cfg.bins - 1);
        sums[b].0 += loads[i];
        sums[b].1 += tputs[i];
        sums[b].2 += 1;
    }
    sums.into_iter()
        .filter(|&(_, _, n)| n >= cfg.min_bin_samples.max(1))
        .map(|(l, t, n)| (l / n as f64, t / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic M/M-like main sequence: throughput rises linearly to a
    /// ceiling at load 10, then stays flat.
    fn synthetic_samples(knee: f64, ceil: f64, max_load: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut loads = Vec::with_capacity(n);
        let mut tputs = Vec::with_capacity(n);
        for i in 0..n {
            let ld = max_load * (i as f64 + 0.5) / n as f64;
            let tp = if ld < knee { ceil * ld / knee } else { ceil };
            loads.push(ld);
            tputs.push(tp);
        }
        (loads, tputs)
    }

    #[test]
    fn finds_knee_of_clean_curve() {
        let (loads, tputs) = synthetic_samples(10.0, 4_000.0, 50.0, 5_000);
        let est = estimate(&loads, &tputs, &NStarConfig::default()).expect("knee expected");
        // The intervention test fires on the first bin after the knee, so
        // the estimate is biased slightly high — the paper's semantics
        // ("minimum load beyond which the server starts to congest").
        assert!(
            est.nstar >= 9.0 && est.nstar <= 14.0,
            "nstar {} should be just above 10",
            est.nstar
        );
        assert!(
            (est.tp_max - 4_000.0).abs() < 150.0,
            "tp_max {}",
            est.tp_max
        );
        assert!(est.curve.len() > 50);
        assert_eq!(est.slopes.len(), est.curve.len());
    }

    #[test]
    fn noisy_curve_still_yields_knee() {
        let (loads, mut tputs) = synthetic_samples(15.0, 3_000.0, 60.0, 4_000);
        // Deterministic pseudo-noise, +-10%.
        for (i, tp) in tputs.iter_mut().enumerate() {
            let wiggle = ((i * 2_654_435_761) % 1_000) as f64 / 1_000.0 - 0.5;
            *tp *= 1.0 + 0.2 * wiggle;
        }
        let est = estimate(&loads, &tputs, &NStarConfig::default()).expect("knee expected");
        assert!(
            est.nstar > 8.0 && est.nstar < 25.0,
            "nstar {} out of range",
            est.nstar
        );
    }

    #[test]
    fn unsaturated_server_has_no_nstar() {
        // Linear throughput growth everywhere: never congested.
        let loads: Vec<f64> = (0..1_000).map(|i| i as f64 / 100.0 + 0.1).collect();
        let tputs: Vec<f64> = loads.iter().map(|l| 100.0 * l).collect();
        assert!(estimate(&loads, &tputs, &NStarConfig::default()).is_none());
    }

    #[test]
    fn too_few_samples_yield_none() {
        assert!(estimate(&[1.0, 2.0], &[10.0, 20.0], &NStarConfig::default()).is_none());
        assert!(estimate(&[], &[], &NStarConfig::default()).is_none());
        // All-equal loads collapse to one bin.
        let loads = vec![5.0; 100];
        let tputs = vec![50.0; 100];
        assert!(estimate(&loads, &tputs, &NStarConfig::default()).is_none());
    }

    #[test]
    fn min_bin_samples_filters_sparse_bins() {
        let (mut loads, mut tputs) = synthetic_samples(10.0, 4_000.0, 40.0, 2_000);
        // One far outlier that would stretch the bin range.
        loads.push(400.0);
        tputs.push(4_000.0);
        let cfg = NStarConfig {
            min_bin_samples: 3,
            ..NStarConfig::default()
        };
        let est = estimate(&loads, &tputs, &cfg).expect("knee expected");
        // The outlier bin (1 sample) is ignored; the knee estimate survives,
        // though coarser bins (outlier stretched the range) widen tolerance.
        assert!(est.nstar < 30.0, "nstar {}", est.nstar);
    }

    #[test]
    fn curve_bins_orders_by_load() {
        let loads = vec![5.0, 1.0, 3.0, 9.0, 7.0];
        let tputs = vec![50.0, 10.0, 30.0, 90.0, 70.0];
        let curve = curve_bins(
            &loads,
            &tputs,
            &NStarConfig {
                bins: 4,
                ..NStarConfig::default()
            },
        );
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(curve.len(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_panics() {
        estimate(&[1.0], &[], &NStarConfig::default());
    }
}
