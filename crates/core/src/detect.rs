//! The transient-bottleneck detector (paper §III): classify each
//! fine-grained interval of each server by correlating its load against the
//! congestion point N\*, find congestion episodes, and rank servers by how
//! often they are transiently bottlenecked.

use fgbd_des::{SimDuration, SimTime};
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{NodeId, Span};
use serde::{Deserialize, Serialize};

use crate::nstar::{self, NStar, NStarConfig};
use crate::series::{LoadSeries, SeriesSet, ThroughputSeries, Window};

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// N\* intervention-analysis parameters.
    pub nstar: NStarConfig,
    /// An interval whose load exceeds N\* but whose normalized throughput
    /// is below this fraction of `TP_max` is a *POI* — the high-load /
    /// zero-throughput signature of a frozen server (Fig 9b).
    pub poi_tput_frac: f64,
    /// Loads below this are considered idle.
    pub idle_load: f64,
    /// Before estimating N\*, intervals whose throughput is below this
    /// fraction of the 95th-percentile throughput *and* whose load is
    /// non-idle are excluded: they are freeze outliers that lie off the
    /// main sequence curve (the paper's POIs "contradict our expectation of
    /// the main sequence curve" — they must not drag its binned averages).
    pub mainseq_filter_frac: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            nstar: NStarConfig::default(),
            poi_tput_frac: 0.05,
            idle_load: 0.05,
            mainseq_filter_frac: 0.05,
        }
    }
}

/// Classification of one fine-grained interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntervalState {
    /// Effectively no requests present.
    Idle,
    /// Load at or below N\* (or N\* unobservable): not congested.
    Normal,
    /// Load above N\*: requests are congesting (a transient bottleneck
    /// interval).
    Congested,
    /// Congested *and* producing almost no throughput: the server is frozen
    /// (the POI signature of stop-the-world GC).
    Frozen,
}

/// A maximal run of consecutive congested (or frozen) intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Episode {
    /// Index of the first congested interval.
    pub start_index: usize,
    /// Number of consecutive congested intervals.
    pub intervals: usize,
}

impl Episode {
    /// Episode duration given the analysis grid.
    pub fn duration(&self, window: &Window) -> SimDuration {
        window.interval * self.intervals as u64
    }

    /// Start time of the episode.
    pub fn start(&self, window: &Window) -> SimTime {
        window.bounds(self.start_index).0
    }
}

/// Full fine-grained analysis of one server over one window.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The analyzed server.
    pub server: NodeId,
    /// Analysis grid.
    pub window: Window,
    /// Fine-grained load series.
    pub load: LoadSeries,
    /// Fine-grained throughput series.
    pub tput: ThroughputSeries,
    /// Estimated congestion point, if the server showed saturation.
    pub nstar: Option<NStar>,
    /// Per-interval classification.
    pub states: Vec<IntervalState>,
}

/// `(congested, frozen, active)` interval counts of `states`: congested
/// includes frozen, active is everything that is not idle.
pub(crate) fn tally(states: &[IntervalState]) -> (usize, usize, usize) {
    states.iter().fold((0, 0, 0), |(c, f, a), s| match s {
        IntervalState::Idle => (c, f, a),
        IntervalState::Normal => (c, f, a + 1),
        IntervalState::Congested => (c + 1, f, a + 1),
        IntervalState::Frozen => (c + 1, f + 1, a + 1),
    })
}

/// Fraction of the non-idle intervals in `states` that are congested.
pub(crate) fn congestion_ratio(states: &[IntervalState]) -> f64 {
    match tally(states) {
        (_, _, 0) => 0.0,
        (congested, _, active) => congested as f64 / active as f64,
    }
}

impl ServerReport {
    /// The report on `set`'s grid: its series, N\* fit over every interval,
    /// each interval classified against it. The one tail of
    /// [`analyze_server`] (series from spans) and of
    /// [`crate::online::OnlineDetector::finish`] (series retained on the
    /// stream), so equal series give equal reports.
    pub fn from_series(server: NodeId, set: &SeriesSet, cfg: &DetectorConfig) -> ServerReport {
        let (load, tput) = (set.load(), set.tput());
        let rates = tput.unit_rates();
        let nstar = fit_mainseq(load.values(), &rates, cfg);
        let states = classify_values(load.values(), &rates, nstar.as_ref(), cfg);
        ServerReport {
            server,
            window: set.window(),
            load,
            tput,
            nstar,
            states,
        }
    }

    /// Number of congested intervals (including frozen ones).
    pub fn congested_intervals(&self) -> usize {
        tally(&self.states).0
    }

    /// Number of frozen (POI) intervals.
    pub fn frozen_intervals(&self) -> usize {
        tally(&self.states).1
    }

    /// Fraction of non-idle intervals that are congested — the "how often
    /// is this server a transient bottleneck" score used for ranking.
    pub fn congestion_ratio(&self) -> f64 {
        congestion_ratio(&self.states)
    }

    /// Maximal runs of consecutive congested/frozen intervals.
    pub fn episodes(&self) -> Vec<Episode> {
        let mut out = Vec::new();
        let mut run: Option<Episode> = None;
        for (i, s) in self.states.iter().enumerate() {
            let congested = matches!(s, IntervalState::Congested | IntervalState::Frozen);
            match (&mut run, congested) {
                (None, true) => {
                    run = Some(Episode {
                        start_index: i,
                        intervals: 1,
                    });
                }
                (Some(e), true) => e.intervals += 1,
                (Some(e), false) => {
                    out.push(*e);
                    run = None;
                }
                (None, false) => {}
            }
        }
        if let Some(e) = run {
            out.push(e);
        }
        out
    }

    /// A one-paragraph human-readable verdict for this server.
    pub fn render_summary(&self, name: &str) -> String {
        let episodes = self.episodes();
        let longest = episodes.iter().map(|e| e.intervals).max().unwrap_or(0);
        let interval_ms = self.window.interval.as_millis_f64();
        match &self.nstar {
            None => format!(
                "{name}: never saturated in this window ({} intervals at {:.0} ms);                  no congestion point observable",
                self.states.len(),
                interval_ms
            ),
            Some(est) => format!(
                "{name}: N* = {:.1}, TP_max = {:.0} units/s; {} of {} intervals                  congested ({} frozen) across {} episodes, longest {:.0} ms",
                est.nstar,
                est.tp_max,
                self.congested_intervals(),
                self.states.len(),
                self.frozen_intervals(),
                episodes.len(),
                longest as f64 * interval_ms
            ),
        }
    }
}

/// Runs the full §III pipeline for one server: load + normalized throughput
/// series, N\* estimation, and per-interval classification.
pub fn analyze_server(
    spans: &[Span],
    server: NodeId,
    window: Window,
    services: &ServiceTimeTable,
    work_unit: SimDuration,
    cfg: &DetectorConfig,
) -> ServerReport {
    fgbd_obsv::span!("detect");
    // One fused pass over the spans builds both series (see `SeriesSet`).
    let set = SeriesSet::from_spans(spans, window, services, work_unit);
    ServerReport::from_series(server, &set, cfg)
}

/// Fits the main sequence curve (§III-B) over raw per-interval samples and
/// returns the estimated congestion point, if observable: drop freeze
/// outliers (near-zero output at non-idle load) relative to the
/// 95th-percentile throughput, then run intervention analysis. The online
/// detector also runs it on its sliding window for the live N\*.
pub fn fit_mainseq(loads: &[f64], rates: &[f64], cfg: &DetectorConfig) -> Option<NStar> {
    let p95 = crate::stats::percentile(rates, 0.95).unwrap_or(0.0);
    let floor = cfg.mainseq_filter_frac * p95;
    let (main_loads, main_rates): (Vec<f64>, Vec<f64>) = loads
        .iter()
        .zip(rates)
        .filter(|&(&ld, &tp)| ld < cfg.idle_load || tp >= floor)
        .map(|(&ld, &tp)| (ld, tp))
        .unzip();
    nstar::estimate(&main_loads, &main_rates, &cfg.nstar)
}

/// Classifies one interval's `(load, normalized throughput rate)` sample
/// given the estimated congestion point. The single source of truth for
/// the §III state machine — [`classify_values`] and the online detector's
/// live verdicts call it.
#[inline]
pub fn classify_one(
    ld: f64,
    tp: f64,
    nstar: Option<&NStar>,
    cfg: &DetectorConfig,
) -> IntervalState {
    if ld < cfg.idle_load {
        return IntervalState::Idle;
    }
    let Some(est) = nstar else {
        return IntervalState::Normal;
    };
    if ld <= est.nstar {
        return IntervalState::Normal;
    }
    if tp < cfg.poi_tput_frac * est.tp_max {
        IntervalState::Frozen
    } else {
        IntervalState::Congested
    }
}

/// Classifies raw per-interval sample slices (see [`classify_one`]).
pub fn classify_values(
    loads: &[f64],
    rates: &[f64],
    nstar: Option<&NStar>,
    cfg: &DetectorConfig,
) -> Vec<IntervalState> {
    loads
        .iter()
        .zip(rates)
        .map(|(&ld, &tp)| classify_one(ld, tp, nstar, cfg))
        .collect()
}

/// Attributes freeze (POI) intervals to their originating tier.
///
/// Stop-the-world freezes propagate *upstream*: while a JVM is frozen, the
/// servers calling into it hold blocked threads and also show high-load /
/// zero-output intervals. Given per-server reports ordered outermost tier
/// first (all on the same analysis grid), the origin of each frozen
/// interval is the **deepest** tier frozen in that interval; a server whose
/// frozen intervals always coincide with a deeper frozen tier is only a
/// victim of push-back.
///
/// Returns, per report, the number of frozen intervals *originating* at
/// that server (not explainable by a deeper freeze).
///
/// # Panics
///
/// Panics if the reports are not on identical grids.
pub fn freeze_origins(reports_by_tier: &[Vec<&ServerReport>]) -> Vec<Vec<usize>> {
    let grid = reports_by_tier
        .iter()
        .flatten()
        .map(|r| r.window)
        .next()
        .expect("at least one report");
    for r in reports_by_tier.iter().flatten() {
        assert!(r.window == grid, "reports must share one analysis grid");
    }
    let n = grid.len();
    // For each interval, is any server at tier >= t frozen?
    let tiers = reports_by_tier.len();
    let mut frozen_at_or_below = vec![vec![false; n]; tiers + 1];
    for t in (0..tiers).rev() {
        let (current, deeper) = frozen_at_or_below.split_at_mut(t + 1);
        for (i, slot) in current[t].iter_mut().enumerate() {
            let here = reports_by_tier[t]
                .iter()
                .any(|r| matches!(r.states[i], IntervalState::Frozen));
            *slot = here || deeper[0][i];
        }
    }
    reports_by_tier
        .iter()
        .enumerate()
        .map(|(t, tier_reports)| {
            tier_reports
                .iter()
                .map(|r| {
                    (0..n)
                        .filter(|&i| {
                            matches!(r.states[i], IntervalState::Frozen)
                                && !frozen_at_or_below[t + 1][i]
                        })
                        .count()
                })
                .collect()
        })
        .collect()
}

/// Ranks servers by congestion ratio, descending — the last step of the
/// paper's method ("after we apply the above analysis to each component
/// server … we can detect which servers have encountered frequent transient
/// bottlenecks").
pub fn rank_bottlenecks(reports: &[ServerReport]) -> Vec<(NodeId, f64)> {
    let mut ranked: Vec<(NodeId, f64)> = reports
        .iter()
        .map(|r| (r.server, r.congestion_ratio()))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ratio is finite"));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbd_trace::{ClassId, ConnId};

    fn span(a_us: u64, d_us: u64) -> Span {
        Span {
            server: NodeId(1),
            class: ClassId(0),
            arrival: SimTime::from_micros(a_us),
            departure: SimTime::from_micros(d_us),
            conn: ConnId(0),
            truth: None,
        }
    }

    /// A server serving one 10 ms-service request at a time, with a burst
    /// phase where far more requests are present than it can serve.
    fn workload_with_congestion() -> Vec<Span> {
        let mut spans = Vec::new();
        // Normal phase: one request at a time, 10 ms each -> load ~1.
        for i in 0..200u64 {
            spans.push(span(i * 10_000, i * 10_000 + 9_000));
        }
        // Burst at 2.0 s: 40 concurrent requests taking much longer while
        // only ~2 complete per 50 ms interval (serialized service).
        for j in 0..40u64 {
            spans.push(span(2_000_000, 2_050_000 + j * 5_000));
        }
        spans
    }

    fn services() -> ServiceTimeTable {
        let mut t = ServiceTimeTable::new();
        t.insert(NodeId(1), ClassId(0), SimDuration::from_millis(10));
        t
    }

    fn window() -> Window {
        Window::new(
            SimTime::ZERO,
            SimTime::from_millis(2_400),
            SimDuration::from_millis(50),
        )
    }

    #[test]
    fn detects_burst_as_congestion() {
        let report = analyze_server(
            &workload_with_congestion(),
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        let est = report.nstar.as_ref().expect("nstar should be estimable");
        assert!(est.nstar > 0.5 && est.nstar < 20.0, "nstar {}", est.nstar);
        assert!(report.congested_intervals() > 0, "burst not detected");
        // The congested intervals lie inside the burst region (after 2.0 s).
        for (i, s) in report.states.iter().enumerate() {
            if matches!(s, IntervalState::Congested | IntervalState::Frozen) {
                assert!(report.window.bounds(i).1 > SimTime::from_millis(2_000));
            }
        }
        // Episodes are contiguous and cover the congested intervals.
        let eps = report.episodes();
        assert!(!eps.is_empty());
        let total: usize = eps.iter().map(|e| e.intervals).sum();
        assert_eq!(total, report.congested_intervals());
    }

    #[test]
    fn quiet_server_reports_nothing() {
        // Load never above 1: no N* and no congestion.
        let spans: Vec<Span> = (0..100u64)
            .map(|i| span(i * 20_000, i * 20_000 + 5_000))
            .collect();
        let report = analyze_server(
            &spans,
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        assert_eq!(report.congested_intervals(), 0);
        assert_eq!(report.congestion_ratio(), 0.0);
        assert!(report.episodes().is_empty());
    }

    #[test]
    fn frozen_intervals_require_high_load_and_no_output() {
        let mut spans = workload_with_congestion();
        // A freeze: 30 requests arrive at 2.2 s and none complete until
        // 2.35 s -> intervals with high load, zero completions.
        for _ in 0..30 {
            spans.push(span(2_200_000, 2_360_000));
        }
        let report = analyze_server(
            &spans,
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        assert!(report.frozen_intervals() > 0, "freeze not flagged");
        assert!(report.frozen_intervals() <= report.congested_intervals());
    }

    #[test]
    fn ranking_orders_by_congestion() {
        let congested = analyze_server(
            &workload_with_congestion(),
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        let quiet_spans: Vec<Span> = (0..100u64)
            .map(|i| span(i * 20_000, i * 20_000 + 5_000))
            .collect();
        let mut quiet = analyze_server(
            &quiet_spans,
            NodeId(2),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        quiet.server = NodeId(2);
        let ranked = rank_bottlenecks(&[quiet, congested]);
        assert_eq!(ranked[0].0, NodeId(1));
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn summary_renders_both_outcomes() {
        let congested = analyze_server(
            &workload_with_congestion(),
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        let text = congested.render_summary("mysql-1");
        assert!(text.contains("mysql-1: N* ="), "{text}");
        assert!(text.contains("episodes"), "{text}");

        let quiet_spans: Vec<Span> = (0..100u64)
            .map(|i| span(i * 20_000, i * 20_000 + 5_000))
            .collect();
        let quiet = analyze_server(
            &quiet_spans,
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        assert!(quiet.render_summary("idle").contains("never saturated"));
    }

    #[test]
    fn freeze_origins_attribute_to_the_deepest_frozen_tier() {
        // Build two reports on the same grid: the "app" freezes in interval
        // 45-46; the "web" (upstream) shows propagated freezes in the same
        // intervals plus one of its own later.
        let mut app_spans = workload_with_congestion();
        for _ in 0..30 {
            app_spans.push(span(2_200_000, 2_360_000));
        }
        let app = analyze_server(
            &app_spans,
            NodeId(2),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        assert!(app.frozen_intervals() > 0, "app must freeze");
        // The web report: clone the app's state pattern (propagated) —
        // construct via the same spans, then also verify an origin-only
        // freeze is counted when the deeper tier is clear.
        let web = app.clone();
        let origins = freeze_origins(&[vec![&web], vec![&app]]);
        // All of web's freezes coincide with app's: zero originate at web.
        assert_eq!(origins[0][0], 0, "web freezes are propagated");
        assert_eq!(origins[1][0], app.frozen_intervals(), "app originates all");
    }

    #[test]
    #[should_panic(expected = "share one analysis grid")]
    fn freeze_origins_reject_mismatched_grids() {
        let report = analyze_server(
            &workload_with_congestion(),
            NodeId(1),
            window(),
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        let other_window = Window::new(
            SimTime::ZERO,
            SimTime::from_millis(2_400),
            SimDuration::from_millis(100),
        );
        let other = analyze_server(
            &workload_with_congestion(),
            NodeId(2),
            other_window,
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        freeze_origins(&[vec![&report], vec![&other]]);
    }
}
