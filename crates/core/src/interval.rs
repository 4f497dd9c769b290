//! Automatic monitoring-interval selection — the paper's stated future work
//! (§III-D: "An automatic way to choose a proper time interval length is
//! part of our future research").
//!
//! §III-D frames the trade-off: too *short* an interval blurs the main
//! sequence curve (few completions per window make normalized throughput
//! noisy), while too *long* an interval averages the transient load peaks
//! away. This module scores candidate interval lengths on both axes and
//! picks the shortest candidate whose throughput noise is acceptable:
//!
//! * **noise(ℓ)** — the relative spread (coefficient of variation) of
//!   normalized throughput among the busiest intervals, where the curve
//!   should sit on its plateau. Shrinks as ℓ grows (more completions per
//!   window average the normalization error out).
//! * **peak retention(ℓ)** — how much of the fine-grained load peak the
//!   grid still sees (max load at ℓ relative to max load at the finest
//!   candidate). Shrinks as ℓ grows (Fig 8c: 1 s hides the transients).
//!
//! The selector returns the shortest candidate with
//! `noise ≤ max_noise`, falling back to the candidate with the best
//! noise-to-retention balance when none qualifies.

use fgbd_des::SimDuration;
use serde::{Deserialize, Serialize};

use crate::series::SeriesSet;
use crate::stats;

/// Parameters of the interval selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSelectConfig {
    /// Candidate interval lengths, ascending. Default: 10 ms to 1 s.
    pub candidates: Vec<SimDuration>,
    /// Highest acceptable throughput noise (CV) among busy intervals.
    pub max_noise: f64,
    /// Fraction of intervals (by load, descending) considered "busy" for
    /// the noise measurement.
    pub busy_fraction: f64,
}

impl Default for IntervalSelectConfig {
    fn default() -> Self {
        IntervalSelectConfig {
            candidates: [10u64, 20, 50, 100, 200, 500, 1_000]
                .into_iter()
                .map(SimDuration::from_millis)
                .collect(),
            max_noise: 0.12,
            busy_fraction: 0.1,
        }
    }
}

/// The per-candidate evidence the selector weighed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalScore {
    /// Candidate interval length.
    pub interval: SimDuration,
    /// Throughput CV among the busiest intervals (lower = cleaner curve).
    pub noise: f64,
    /// Max load at this grid relative to the finest grid (1.0 = nothing
    /// lost; toward 0 = transients averaged away).
    pub peak_retention: f64,
    /// Number of whole intervals the window yields at this length.
    pub intervals: usize,
}

/// The selector's decision with its full scoring table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSelection {
    /// The chosen interval length.
    pub chosen: SimDuration,
    /// Scores for every candidate with at least 20 whole intervals, in
    /// candidate order.
    pub scores: Vec<IntervalScore>,
}

/// Picks a monitoring interval for the server whose series on the finest
/// candidate's grid is `base`. Every candidate is scored on `base`
/// coarsened to it — bit-identical to a series built on that grid directly
/// (see [`SeriesSet::coarsen`]).
///
/// Returns `None` when no candidate produces at least 20 whole intervals
/// with completions (too little data to score).
///
/// # Panics
///
/// Panics if `cfg.candidates` is empty or unsorted, if `base` is not on
/// the first candidate's grid or a candidate is not a multiple of it, or
/// if `cfg.max_noise` or `cfg.busy_fraction` is not positive.
pub fn auto_interval(base: &SeriesSet, cfg: &IntervalSelectConfig) -> Option<IntervalSelection> {
    assert!(!cfg.candidates.is_empty(), "need candidates");
    assert!(
        cfg.candidates.windows(2).all(|w| w[0] < w[1]),
        "candidates must ascend"
    );
    assert!(
        cfg.max_noise > 0.0 && cfg.busy_fraction > 0.0,
        "thresholds must be positive"
    );
    let base_us = base.window().interval.as_micros();
    assert!(
        cfg.candidates[0].as_micros() == base_us
            && (cfg.candidates.iter()).all(|c| c.as_micros() % base_us == 0),
        "every candidate must be a multiple of the base grid, the first equal to it"
    );
    let mut scores = Vec::with_capacity(cfg.candidates.len());
    let mut finest_peak: Option<f64> = None;
    for &interval in &cfg.candidates {
        let set = base.coarsen((interval.as_micros() / base_us) as usize);
        let window = set.window();
        if window.len() < 20 {
            continue;
        }
        let (load, tput) = (set.load(), set.tput());
        let peak = load.values().iter().copied().fold(0.0, f64::max);
        if finest_peak.is_none() {
            finest_peak = Some(peak);
        }
        let retention = match finest_peak {
            Some(p) if p > 0.0 => peak / p,
            _ => 1.0,
        };

        // Busiest intervals by load.
        let mut order: Vec<usize> = (0..load.len()).collect();
        order.sort_by(|&a, &b| {
            load.get(b)
                .partial_cmp(&load.get(a))
                .expect("loads are finite")
        });
        let busy_n = ((load.len() as f64 * cfg.busy_fraction).ceil() as usize).max(5);
        let busy_tputs: Vec<f64> = order
            .iter()
            .take(busy_n)
            .map(|&i| tput.unit_rate(i))
            .filter(|&t| t > 0.0)
            .collect();
        if busy_tputs.len() < 5 {
            continue;
        }
        let noise = stats::std_dev(&busy_tputs) / stats::mean(&busy_tputs).max(1e-9);
        scores.push(IntervalScore {
            interval,
            noise,
            peak_retention: retention,
            intervals: window.len(),
        });
    }
    if scores.is_empty() {
        return None;
    }
    // Shortest acceptable-noise candidate; otherwise the best balance of
    // low noise and high retention.
    let chosen = scores
        .iter()
        .find(|s| s.noise <= cfg.max_noise)
        .or_else(|| {
            scores.iter().min_by(|a, b| {
                let score_a = a.noise + (1.0 - a.peak_retention);
                let score_b = b.noise + (1.0 - b.peak_retention);
                score_a.partial_cmp(&score_b).expect("finite scores")
            })
        })?
        .interval;
    Some(IntervalSelection { chosen, scores })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Window;
    use fgbd_des::{Dice, SimTime};
    use fgbd_trace::servicetime::ServiceTimeTable;
    use fgbd_trace::{ClassId, ConnId, NodeId, Span};

    /// FCFS replay with mixed service times (1x and 3x) and periodic
    /// bursts — normalization noise shrinks with interval length while the
    /// burst peaks wash out, exactly the §III-D trade-off.
    fn bursty_mixed_spans() -> Vec<Span> {
        let mut dice = Dice::seed(21);
        let mut spans = Vec::new();
        let mut free_at = 0u64;
        let mut t = 0.0f64;
        while t < 60.0 {
            // Background 60/s plus a strong burst every 4 s.
            let in_burst = (t % 4.0) < 0.2;
            let rate = if in_burst { 400.0 } else { 60.0 };
            t += dice.exp(1.0 / rate);
            let a = (t * 1e6) as u64;
            let service = if dice.chance(0.3) { 18_000 } else { 6_000 };
            let start = a.max(free_at);
            let end = start + service;
            spans.push(Span {
                server: NodeId(1),
                class: ClassId(if service > 10_000 { 1 } else { 0 }),
                arrival: SimTime::from_micros(a),
                departure: SimTime::from_micros(end),
                conn: ConnId(0),
                truth: None,
            });
            free_at = end;
        }
        spans
    }

    /// `spans` on the finest default candidate's grid over `[0, end)`.
    fn base(spans: &[Span], end: SimTime) -> SeriesSet {
        let mut services = ServiceTimeTable::new();
        services.insert(NodeId(1), ClassId(0), SimDuration::from_micros(6_000));
        services.insert(NodeId(1), ClassId(1), SimDuration::from_micros(18_000));
        let window = Window::new(SimTime::ZERO, end, SimDuration::from_millis(10));
        SeriesSet::from_spans(spans, window, &services, SimDuration::from_micros(6_000))
    }

    #[test]
    fn selector_prefers_mid_range_intervals() {
        let base = base(&bursty_mixed_spans(), SimTime::from_secs(60));
        let sel = auto_interval(&base, &IntervalSelectConfig::default()).expect("a selection");
        // Neither the noisiest extreme (10 ms) nor the blind one (1 s).
        assert!(
            sel.chosen >= SimDuration::from_millis(20)
                && sel.chosen <= SimDuration::from_millis(200),
            "chose {}",
            sel.chosen
        );
        // The scoring table exposes the §III-D monotonics: noise falls with
        // interval length; retention falls too.
        let noises: Vec<f64> = sel.scores.iter().map(|s| s.noise).collect();
        let rets: Vec<f64> = sel.scores.iter().map(|s| s.peak_retention).collect();
        assert!(
            noises.first() > noises.last(),
            "noise did not shrink: {noises:?}"
        );
        assert!(
            rets.first() > rets.last(),
            "retention did not shrink: {rets:?}"
        );
    }

    #[test]
    fn short_capture_yields_none() {
        let spans = vec![Span {
            server: NodeId(1),
            class: ClassId(0),
            arrival: SimTime::from_micros(0),
            departure: SimTime::from_micros(5_000),
            conn: ConnId(0),
            truth: None,
        }];
        let base = base(&spans, SimTime::from_millis(100));
        assert!(auto_interval(&base, &IntervalSelectConfig::default()).is_none());
    }

    #[test]
    fn noise_threshold_steers_the_choice() {
        let base = base(&bursty_mixed_spans(), SimTime::from_secs(60));
        let select = |max_noise| {
            let cfg = IntervalSelectConfig {
                max_noise,
                ..IntervalSelectConfig::default()
            };
            auto_interval(&base, &cfg).expect("a selection")
        };
        let (strict, lax) = (select(0.02), select(0.5));
        assert!(
            lax.chosen <= strict.chosen,
            "lax {} strict {}",
            lax.chosen,
            strict.chosen
        );
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_candidates_panic() {
        let cfg = IntervalSelectConfig {
            candidates: vec![SimDuration::from_millis(50), SimDuration::from_millis(20)],
            ..IntervalSelectConfig::default()
        };
        auto_interval(&base(&[], SimTime::from_secs(1)), &cfg);
    }

    #[test]
    #[should_panic(expected = "multiple of the base grid")]
    fn a_candidate_off_the_base_grid_panics() {
        let cfg = IntervalSelectConfig {
            candidates: [10, 15, 20].map(SimDuration::from_millis).to_vec(),
            ..IntervalSelectConfig::default()
        };
        auto_interval(&base(&[], SimTime::from_secs(1)), &cfg);
    }
}
