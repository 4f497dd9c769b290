//! Coarse-grained sampling monitors — the *baseline* the paper's method is
//! measured against.
//!
//! The paper's testbed ran Sysstat at 1 s and esxtop at 2 s granularity
//! (§II-A); at that resolution every tier looks <100% utilized (Table I,
//! Fig 3) while millisecond bottlenecks come and go unseen. The paper also
//! quantifies why simply sampling faster is not an option: "about 6% CPU
//! utilization overhead at 100 ms interval and 12% at 20 ms" (§I), which
//! [`sampling_overhead_frac`] models.

use fgbd_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One utilization reading produced by a sampling monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilSample {
    /// End of the sampling window.
    pub at: SimTime,
    /// Mean utilization over the window, in `[0, 1]`.
    pub util: f64,
}

/// A sysstat-like utilization monitor: derives windowed utilization from a
/// cumulative busy integral.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSeries {
    samples: Vec<UtilSample>,
    period: SimDuration,
}

impl UtilizationSeries {
    /// Samples utilization at `period` from cumulative
    /// `(time, busy core-seconds)` readings of a server with `cores` cores.
    ///
    /// `cumulative` must be time-ordered with non-decreasing busy values
    /// (as produced by the simulator's internal sampler); readings are
    /// linearly interpolated onto the sampling grid, so `period` may be any
    /// multiple of — or even unaligned with — the source cadence.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `cores` is zero.
    pub fn sample(
        cumulative: &[(SimTime, f64)],
        cores: u32,
        period: SimDuration,
    ) -> UtilizationSeries {
        assert!(!period.is_zero(), "period must be positive");
        assert!(cores > 0, "cores must be positive");
        let mut samples = Vec::new();
        if cumulative.len() >= 2 {
            let start = cumulative[0].0;
            let end = cumulative[cumulative.len() - 1].0;
            let mut prev_t = start;
            let mut prev_b = cumulative[0].1;
            let mut t = start + period;
            while t <= end {
                let b = interpolate(cumulative, t);
                let util = ((b - prev_b) / (f64::from(cores) * (t - prev_t).as_secs_f64()))
                    .clamp(0.0, 1.0);
                samples.push(UtilSample { at: t, util });
                prev_t = t;
                prev_b = b;
                t += period;
            }
        }
        UtilizationSeries { samples, period }
    }

    /// The readings, time-ordered.
    pub fn samples(&self) -> &[UtilSample] {
        &self.samples
    }

    /// The sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Mean utilization across readings in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> f64 {
        let w: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.at >= from && s.at < to)
            .map(|s| s.util)
            .collect();
        if w.is_empty() {
            0.0
        } else {
            w.iter().sum::<f64>() / w.len() as f64
        }
    }

    /// Number of readings.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no readings were produced.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

fn interpolate(cumulative: &[(SimTime, f64)], t: SimTime) -> f64 {
    match cumulative.binary_search_by_key(&t, |&(at, _)| at) {
        Ok(i) => cumulative[i].1,
        Err(i) => {
            if i == 0 {
                cumulative[0].1
            } else if i >= cumulative.len() {
                cumulative[cumulative.len() - 1].1
            } else {
                let (t0, b0) = cumulative[i - 1];
                let (t1, b1) = cumulative[i];
                let f = (t - t0).as_secs_f64() / (t1 - t0).as_secs_f64();
                b0 + (b1 - b0) * f
            }
        }
    }
}

/// The CPU overhead a sampling monitor itself imposes, as a fraction of one
/// core, at the given sampling period.
///
/// A power law fitted to the paper's two anchors (§I): 6% at 100 ms and 12%
/// at 20 ms. Passive network tracing — the paper's alternative — has
/// negligible server-side cost regardless of its effective granularity,
/// which is the argument [`crate`] exists to quantify.
pub fn sampling_overhead_frac(period: SimDuration) -> f64 {
    let p = period.as_secs_f64().max(1e-6);
    // 0.06 * (0.1 / p)^alpha with alpha = ln 2 / ln 5.
    const ALPHA: f64 = 0.430_676_558_073_393_5;
    (0.06 * (0.1 / p).powf(ALPHA)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cumulative_ramp() -> Vec<(SimTime, f64)> {
        // Busy grows at 0.5 core-seconds per second for 10 s (util 50% on 1
        // core), then idles for 10 s.
        let mut v = Vec::new();
        for i in 0..=200u64 {
            let t = SimTime::from_millis(i * 100);
            let busy = if i <= 100 { i as f64 * 0.05 } else { 5.0 };
            v.push((t, busy));
        }
        v
    }

    fn peak(s: &UtilizationSeries) -> f64 {
        s.samples().iter().map(|r| r.util).fold(0.0, f64::max)
    }

    #[test]
    fn one_second_sampling_sees_means() {
        let s = UtilizationSeries::sample(&cumulative_ramp(), 1, SimDuration::from_secs(1));
        assert_eq!(s.len(), 20);
        assert!((s.samples()[0].util - 0.5).abs() < 1e-9);
        assert!((s.samples()[5].util - 0.5).abs() < 1e-9);
        assert!((s.samples()[15].util - 0.0).abs() < 1e-9);
        assert!((s.mean_in(SimTime::ZERO, SimTime::from_secs(21)) - 0.25).abs() < 1e-9);
        assert!((peak(&s) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn coarse_sampling_hides_a_transient_spike() {
        // A 100 ms full-utilization spike inside an otherwise idle 2 s.
        let mut cum = Vec::new();
        for i in 0..=200u64 {
            let t = SimTime::from_millis(i * 10);
            let busy = if i < 100 {
                0.0
            } else if i < 110 {
                (i - 100) as f64 * 0.01
            } else {
                0.1
            };
            cum.push((t, busy));
        }
        let fine = UtilizationSeries::sample(&cum, 1, SimDuration::from_millis(50));
        let coarse = UtilizationSeries::sample(&cum, 1, SimDuration::from_secs(1));
        // Fine sampling sees the saturation; 1 s sampling reports <=10%.
        assert!(peak(&fine) > 0.99);
        assert!(peak(&coarse) < 0.11);
    }

    #[test]
    fn unaligned_period_interpolates() {
        let s = UtilizationSeries::sample(&cumulative_ramp(), 1, SimDuration::from_millis(333));
        assert!(!s.is_empty());
        for w in s.samples() {
            assert!((0.0..=1.0).contains(&w.util));
        }
        assert_eq!(s.period(), SimDuration::from_millis(333));
    }

    #[test]
    fn empty_or_single_reading_yields_nothing() {
        let s = UtilizationSeries::sample(&[], 1, SimDuration::from_secs(1));
        assert!(s.is_empty());
        let s1 = UtilizationSeries::sample(&[(SimTime::ZERO, 0.0)], 1, SimDuration::from_secs(1));
        assert!(s1.is_empty());
    }

    #[test]
    fn overhead_matches_paper_anchors() {
        let at100 = sampling_overhead_frac(SimDuration::from_millis(100));
        let at20 = sampling_overhead_frac(SimDuration::from_millis(20));
        assert!((at100 - 0.06).abs() < 1e-6, "{at100}");
        assert!((at20 - 0.12).abs() < 1e-3, "{at20}");
        // Monotone: faster sampling costs more.
        let at1000 = sampling_overhead_frac(SimDuration::from_secs(1));
        assert!(at1000 < at100);
        assert!(at1000 > 0.0);
        // Clamped at one full core.
        assert_eq!(sampling_overhead_frac(SimDuration::from_micros(1)), 1.0);
    }
}
