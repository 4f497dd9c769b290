//! Property-based tests for the monitoring baseline.

use fgbd_des::{SimDuration, SimTime};
use fgbd_metrics::{sampling_overhead_frac, Histogram, UtilizationSeries};
use proptest::prelude::*;

proptest! {
    /// Histogram totals are conserved: every recorded value lands in
    /// exactly one bucket or the underflow counter.
    #[test]
    fn histogram_conserves_mass(values in prop::collection::vec(-10.0f64..100.0, 0..300)) {
        let mut h = Histogram::linear(0.0, 50.0, 10);
        h.record_all(values.iter().copied());
        let bucketed: u64 = h.buckets().iter().map(|&(_, _, c)| c).sum();
        prop_assert_eq!(bucketed + h.underflow(), h.total());
        prop_assert_eq!(h.total() as usize, values.len());
    }

    /// `frac_at_least` is monotone non-increasing in the threshold and
    /// bounded by [0, 1].
    #[test]
    fn frac_at_least_is_monotone(values in prop::collection::vec(0.0f64..10.0, 1..200)) {
        let mut h = Histogram::fig2c_edges();
        h.record_all(values.iter().copied());
        let thresholds = [0.1, 0.5, 1.0, 2.0, 3.0, 4.0];
        let fracs: Vec<f64> = thresholds.iter().map(|&t| h.frac_at_least(t)).collect();
        for w in fracs.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for f in fracs {
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }

    /// Utilization samples are always in [0, 1] and the series mean over
    /// the full range matches the end-to-end busy fraction.
    #[test]
    fn utilization_sampling_is_consistent(
        rates in prop::collection::vec(0.0f64..1.0, 2..40),
    ) {
        // Build a cumulative busy curve from per-100ms utilization rates.
        let mut cumulative = vec![(SimTime::ZERO, 0.0)];
        let mut busy = 0.0;
        for (i, r) in rates.iter().enumerate() {
            busy += r * 0.1;
            cumulative.push((SimTime::from_millis((i as u64 + 1) * 100), busy));
        }
        let series = UtilizationSeries::sample(&cumulative, 1, SimDuration::from_millis(100));
        prop_assert_eq!(series.len(), rates.len());
        for (s, &r) in series.samples().iter().zip(&rates) {
            prop_assert!((s.util - r).abs() < 1e-9);
        }
        // Aggregate consistency.
        let span_secs = rates.len() as f64 * 0.1;
        let expected_mean = busy / span_secs;
        let got = series.mean_in(SimTime::ZERO, SimTime::from_secs(1_000));
        prop_assert!((got - expected_mean).abs() < 1e-9);
    }

    /// The overhead model is monotone: faster sampling always costs at
    /// least as much CPU.
    #[test]
    fn overhead_is_monotone(a_ms in 1u64..10_000, b_ms in 1u64..10_000) {
        let (fast, slow) = if a_ms < b_ms { (a_ms, b_ms) } else { (b_ms, a_ms) };
        let of = sampling_overhead_frac(SimDuration::from_millis(fast));
        let os = sampling_overhead_frac(SimDuration::from_millis(slow));
        prop_assert!(of >= os - 1e-12);
        prop_assert!((0.0..=1.0).contains(&of));
    }
}
