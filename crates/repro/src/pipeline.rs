//! The end-to-end analysis pipeline: capture → service-time calibration →
//! per-server fine-grained reports.
//!
//! Both kinds of run are consumed on the tap and neither holds a log. A
//! calibration run's records go into the service-time fold, which also
//! counts the class mix the figures' mean service times weigh by
//! ([`Calibration::simulate`]). A loaded run's records are one more
//! consumer of the one online detector ([`Analysis::simulate`]): the
//! records of the servers a figure reports feed one [`OnlineDetector`] on
//! the fine [`REPORT_GRID`], so the run leaves each
//! server's series, coarsened to whatever grid a figure reports, and never
//! a span. The log route ([`Analysis::new`]) pairs a kept log into spans
//! and reports any window from them.

use std::collections::HashMap;
use std::ops::Range;

use fgbd_core::detect::{analyze_server, DetectorConfig, ServerReport};
use fgbd_core::online::{OnlineConfig, OnlineDetector};
use fgbd_core::series::{SeriesSet, Window};
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::config::SystemConfig;
use fgbd_ntier::result::{RunResult, TxnSample};
use fgbd_ntier::system::NTierSystem;
use fgbd_trace::servicetime::{ServiceFold, ServiceTimeTable};
use fgbd_trace::{MsgRecord, NodeId, NodeKind, NodeMeta, SpanSet};

use crate::scenario::Scenario;

/// Resolution used when deriving per-server work units from service times.
pub const WORK_UNIT_RESOLUTION: SimDuration = SimDuration::from_micros(100);

/// Quantile of intra-node delays used as the service-time approximation
/// (low quantile ≈ queueing-free, per the paper's low-load measurement).
pub const SERVICE_QUANTILE: f64 = 0.15;

/// Default record budget for capture self-calibration (see
/// [`calib_records_from_env`]).
pub const DEFAULT_CALIB_RECORDS: usize = 1 << 20;

/// Records of a capture used for service-time self-calibration
/// (`FGBD_CALIB_RECORDS`, default [`DEFAULT_CALIB_RECORDS`] = 1 Mi).
///
/// The capture analyzer folds this *prefix* on a worker thread while its
/// detector pairs the same records and holds the spans they close until
/// the service times arrive, and it holds at most as many spans as the
/// budget has records — so the budget bounds the analyzer's memory, not
/// the capture. Every capture smaller than the budget (all the CI
/// fixtures) calibrates over its whole self.
pub fn calib_records_from_env() -> usize {
    std::env::var("FGBD_CALIB_RECORDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CALIB_RECORDS)
}

/// Service-time calibration derived from a dedicated low-load run.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Per-`(server, class)` service times.
    pub services: ServiceTimeTable,
    /// Per-server work unit (GCD of its class service times).
    pub work_units: HashMap<NodeId, SimDuration>,
    /// Per-server mean service time weighted by observed class frequency —
    /// the scale factor for "equivalent requests per second".
    pub mean_service: HashMap<NodeId, SimDuration>,
}

impl Calibration {
    /// Builds the calibration from a run that kept its log (the examples,
    /// the tests and the benchmark's replay of the figure route). The
    /// figures themselves never hold a calibration log: they calibrate
    /// through [`Calibration::for_scenario`], which folds the run on the
    /// tap ([`Calibration::simulate`]) into the same tables.
    pub fn from_run(run: &RunResult) -> Calibration {
        Calibration::from_capture_prefix(&run.log.nodes, &run.log.records)
    }

    /// Calibrates a scenario on its low-load calibration workload.
    pub fn for_scenario(scenario: &Scenario) -> Calibration {
        fgbd_obsv::counter!("scenario.runs", scenario.name, 1);
        Calibration::simulate(scenario.calibration_config())
    }

    /// Simulates the low-load run `cfg` and calibrates on its capture as the
    /// tap delivers it, so the run's log is never held.
    pub fn simulate(cfg: SystemConfig) -> Calibration {
        let mut fold = CalibrationFold::new(&fgbd_ntier::system::node_metas(&cfg));
        {
            fgbd_obsv::span!("simulate");
            NTierSystem::run_with_record_tap(cfg, |rec| fold.push_chunk(&[rec]));
        }
        fgbd_obsv::span!("calibrate");
        fold.finish()
    }

    /// Self-calibration from a capture prefix: the service-time fold over
    /// `records` (the caller truncates to
    /// [`calib_records_from_env`]), with a work unit and a mean service
    /// time for every server node of `nodes`. This is what the capture
    /// analyzer ([`crate::zerocopy`]) calibrates on, a chunk at a time on
    /// its worker thread — same records in, same tables out, however the
    /// capture reached it. No capture consumer reads `mean_service`: it
    /// only scales the figures' "equivalent requests per second" axis.
    pub fn from_capture_prefix(nodes: &[NodeMeta], records: &[MsgRecord]) -> Calibration {
        fgbd_obsv::span!("calibrate");
        let mut fold = CalibrationFold::new(nodes);
        fold.push_chunk(records);
        fold.finish()
    }

    /// Work unit for `node`, defaulting to the resolution when the node was
    /// never observed.
    pub fn work_unit(&self, node: NodeId) -> SimDuration {
        self.work_units
            .get(&node)
            .copied()
            .unwrap_or(WORK_UNIT_RESOLUTION)
    }

    /// Mean service time for `node` (zero if unobserved).
    pub fn mean_service(&self, node: NodeId) -> SimDuration {
        self.mean_service
            .get(&node)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Every calibration as a fold: records go in a chunk at a time, in capture
/// order, and [`finish`](Self::finish) yields the service times (the
/// [`SERVICE_QUANTILE`] of each `(server, class)`'s intra-node delays) with
/// a work unit and a mean service time, weighed by the class mix the fold
/// retired, for each server of the node table.
pub(crate) struct CalibrationFold {
    nodes: Vec<NodeMeta>,
    fold: ServiceFold,
}

impl CalibrationFold {
    pub(crate) fn new(nodes: &[NodeMeta]) -> CalibrationFold {
        CalibrationFold {
            nodes: nodes.to_vec(),
            fold: ServiceFold::new(nodes),
        }
    }

    /// Consumes the next records of the capture.
    pub(crate) fn push_chunk(&mut self, records: &[MsgRecord]) {
        for rec in records {
            self.fold.push(rec);
        }
    }

    pub(crate) fn finish(self) -> Calibration {
        let services = self.fold.finish(SERVICE_QUANTILE);
        let servers = || self.nodes.iter().filter(|n| n.kind == NodeKind::Server);
        let work_units = servers()
            .filter_map(|n| Some((n.id, services.work_unit(n.id, WORK_UNIT_RESOLUTION)?)))
            .collect();
        let mean_service = servers()
            .filter_map(|n| Some((n.id, services.mean_service(n.id)?)))
            .collect();
        Calibration {
            services,
            work_units,
            mean_service,
        }
    }
}

/// The report route's detector grid: the finest interval any figure or the
/// interval selector reports on. Every reported interval is a multiple of
/// it, and its series coarsens to each of them exactly
/// ([`SeriesSet::coarsen`]), so one detector serves every grid of a run.
pub const REPORT_GRID: SimDuration = SimDuration::from_millis(10);

/// A captured run plus everything needed to analyze it.
#[derive(Debug)]
pub struct Analysis {
    /// The raw run outputs.
    pub run: RunResult,
    /// Per-server spans extracted from the capture: every server on the log
    /// route ([`Analysis::new`]), none on the report route
    /// ([`Analysis::simulate`]).
    pub spans: SpanSet,
    /// Service-time calibration (from a separate low-load run).
    pub cal: Calibration,
    /// The report route's series of each named server on [`REPORT_GRID`];
    /// `None` on the log route.
    series: Option<Vec<(NodeId, SeriesSet)>>,
}

impl Analysis {
    /// Simulates `cfg` and feeds the capture records of the `servers` the
    /// caller will report, as the tap delivers them, to one
    /// [`OnlineDetector`] on [`REPORT_GRID`], calibrated by `cal` at
    /// construction; other servers' records are passed over. Neither the
    /// run's log nor a span is held (`run.log.records` and `spans` are
    /// empty): what the run leaves is each named server's series, which
    /// [`Analysis::report`] reports on — bit for bit what `analyze_server`
    /// builds from the spans, since the detector pairs on the same table
    /// and sums the same integers per interval. Each completed transaction
    /// goes to `txns`, if given, and is not kept.
    ///
    /// # Panics
    ///
    /// Panics before simulating if `servers` is empty or a name is not a
    /// server of `cfg`.
    pub fn simulate(
        cfg: SystemConfig,
        servers: &[&str],
        cal: Calibration,
        txns: Option<&mut dyn FnMut(TxnSample)>,
    ) -> Analysis {
        assert!(!servers.is_empty(), "name the servers to report");
        let nodes = fgbd_ntier::system::node_metas(&cfg);
        let run_servers = || nodes.iter().filter(|n| n.kind == NodeKind::Server);
        let node_of = |name: &str| match run_servers().find(|n| n.name == name) {
            Some(meta) => meta.id,
            None => {
                let names: Vec<&str> = run_servers().map(|n| n.name.as_str()).collect();
                panic!("no server named {name}; the run has {names:?}")
            }
        };
        let keep: Vec<NodeId> = servers.iter().map(|&name| node_of(name)).collect();
        let start = SimTime::ZERO + cfg.warmup;
        let ocfg = OnlineConfig::new(start, REPORT_GRID, WORK_UNIT_RESOLUTION);
        let mut detector = OnlineDetector::uncalibrated(ocfg);
        let work_units = keep.iter().map(|&node| (node, cal.work_unit(node)));
        detector.calibrate(cal.services.clone(), work_units);
        let mut skipped = 0u64;
        let mut tap = |rec: MsgRecord| {
            if keep.contains(&rec.span_node()) {
                detector.push(&rec);
            } else {
                skipped += 1;
            }
        };
        let run = NTierSystem::run_with_taps(cfg, Some(&mut tap), txns);
        let reports = detector.finish(run.horizon).reports;
        let matched: u64 = reports.iter().map(|r| r.matched).sum();
        fgbd_obsv::counter!("extract.spans", matched);
        if fgbd_obsv::enabled() {
            // Retained: the share of the capture a figure never detects on.
            fgbd_obsv::metrics::counter_retained("extract.skipped").add(skipped);
        }
        let series = reports.into_iter().map(|r| (r.server, r.series)).collect();
        Analysis {
            series: Some(series),
            ..Analysis::with_spans(run, SpanSet::default(), cal)
        }
    }

    /// Wraps a run that kept its log (tests, examples), pairing the log.
    pub fn new(run: RunResult, cal: Calibration) -> Analysis {
        let spans = SpanSet::extract(&run.log);
        Analysis::with_spans(run, spans, cal)
    }

    /// Wraps a run whose spans the caller already extracted, so the run's
    /// log may legitimately be empty.
    pub fn with_spans(run: RunResult, spans: SpanSet, cal: Calibration) -> Analysis {
        Analysis {
            run,
            spans,
            cal,
            series: None,
        }
    }

    /// The measured analysis window (warm-up excluded) at `interval`
    /// granularity.
    pub fn window(&self, interval: SimDuration) -> Window {
        Window::new(self.run.warmup_end, self.run.horizon, interval)
    }

    /// A sub-window starting `offset` after warm-up and lasting `len` — the
    /// paper's 10–12 s zoom plots, read off the full-window report through
    /// [`Analysis::zoom_intervals`].
    pub fn sub_window(
        &self,
        offset: SimDuration,
        len: SimDuration,
        interval: SimDuration,
    ) -> Window {
        let start = self.run.warmup_end + offset;
        Window::new(start, start + len, interval)
    }

    /// The intervals of the full-window `report` that make up `zoom`, a
    /// [`Analysis::sub_window`] on its grid: a zoom panel is an index slice
    /// of the one report per server and grid. The slice is bit-identical
    /// to a report over `zoom` itself, since a grid-aligned sub-window gets
    /// the same integer sums per interval as the full grid (the clamp
    /// argument of `fgbd_core::series`'s interval engine).
    ///
    /// # Panics
    ///
    /// Panics if `zoom` is not grid-aligned inside `report`'s window.
    pub fn zoom_intervals(report: &ServerReport, zoom: Window) -> Range<usize> {
        let (full, ilen_us) = (report.window, zoom.interval.as_micros());
        let offset_us = zoom.start.as_micros().wrapping_sub(full.start.as_micros());
        let first = (offset_us / ilen_us) as usize;
        assert!(
            zoom.interval == full.interval
                && zoom.start >= full.start
                && offset_us % ilen_us == 0
                && first + zoom.len() <= full.len(),
            "zoom window {zoom:?} is not on the grid of {full:?}"
        );
        first..first + zoom.len()
    }

    /// The trace node of the server named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such server exists.
    pub fn node(&self, name: &str) -> NodeId {
        self.run
            .node_of(name)
            .unwrap_or_else(|| panic!("no server named {name}"))
    }

    /// Runs the full §III analysis for the server named `name` over
    /// `window`: from its spans on the log route, from its
    /// [series](Analysis::series) on the report route.
    ///
    /// # Panics
    ///
    /// Panics if `name` has no spans on the log route rather than report it
    /// idle, and as [`Analysis::series`] on the report route.
    pub fn report(&self, name: &str, window: Window, cfg: &DetectorConfig) -> ServerReport {
        let node = self.node(name);
        if self.series.is_some() {
            return ServerReport::from_series(node, &self.series(name, window), cfg);
        }
        let spans = self.spans.server(node);
        assert!(!spans.is_empty(), "server {name} has no spans");
        let (services, work_unit) = (&self.cal.services, self.cal.work_unit(node));
        analyze_server(spans, node, window, services, work_unit, cfg)
    }

    /// The report route's series of the server named `name` over `window`:
    /// its [`REPORT_GRID`] series coarsened to `window.interval`.
    ///
    /// # Panics
    ///
    /// Panics on the log route; if `name` was not named to
    /// [`Analysis::simulate`], listing the servers that were; or if
    /// `window` is not a full [`Analysis::window`] on a multiple of
    /// [`REPORT_GRID`].
    pub fn series(&self, name: &str, window: Window) -> SeriesSet {
        let sets = (self.series.as_ref()).expect("the log route keeps spans, not series");
        let node = self.node(name);
        let Some((_, fine)) = sets.iter().find(|(n, _)| *n == node) else {
            let named: Vec<&str> = (self.run.servers.iter())
                .filter(|info| sets.iter().any(|(n, _)| *n == info.node))
                .map(|info| info.name.as_str())
                .collect();
            panic!("server {name} was not named to simulate; the analysis has {named:?}")
        };
        let (interval_us, grid_us) = (window.interval.as_micros(), REPORT_GRID.as_micros());
        assert!(
            interval_us % grid_us == 0 && window == self.window(window.interval),
            "{window:?} is not a full window on a multiple of {REPORT_GRID}"
        );
        fine.coarsen((interval_us / grid_us) as usize)
    }

    /// `(load, throughput)` pairs of a report as plain points for plotting,
    /// throughput in equivalent requests per second (the paper's MySQL
    /// y-axis).
    pub fn scatter_points_eq(&self, report: &ServerReport) -> Vec<(f64, f64)> {
        let ms = self.cal.mean_service(report.server);
        (0..report.load.len())
            .map(|i| (report.load.get(i), report.tput.equivalent_rate(i, ms)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SPEEDSTEP_OFF;
    use fgbd_core::series::ThroughputSeries;

    #[test]
    fn calibration_covers_all_servers() {
        let cal = Calibration::for_scenario(&SPEEDSTEP_OFF);
        assert!(!cal.services.is_empty());
        // All six servers have a work unit and mean service.
        assert_eq!(cal.work_units.len(), 6);
        assert_eq!(cal.mean_service.len(), 6);
        for (&node, &wu) in &cal.work_units {
            assert!(!wu.is_zero());
            // The work-unit GCD is floored at the resolution, so a very
            // cheap tier (C-JDBC, ~94 us/query) can sit just below it.
            let ms = cal.mean_service(node);
            assert!(
                ms * 2 >= wu,
                "mean service far below work unit for {node:?}"
            );
        }
    }

    #[test]
    fn analysis_windows_align_to_measured_period() {
        let cal = Calibration::for_scenario(&SPEEDSTEP_OFF);
        let mut cfg = SPEEDSTEP_OFF.config(300);
        cfg.warmup = SimDuration::from_secs(4);
        cfg.duration = SimDuration::from_secs(16);
        let mut finished = Vec::new();
        let run = NTierSystem::run_with_taps(cfg, None, Some(&mut |t| finished.push(t.finished)));
        let analysis = Analysis::new(run, cal);
        let w = analysis.window(SimDuration::from_millis(50));
        assert_eq!(w.len(), 320);
        // The window is the run's measured period: it holds exactly the
        // transactions the run's summary counts.
        let measured = finished.iter().filter(|&&at| w.start <= at && at < w.end);
        assert_eq!(measured.count() as u64, analysis.run.txns.count);
        assert!(analysis.run.txns.count > 0);
        let sub = analysis.sub_window(
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
            SimDuration::from_millis(50),
        );
        assert_eq!(sub.len(), 200);
        // A report runs end to end.
        let rep = analysis.report("mysql-1", w, &DetectorConfig::default());
        assert_eq!(rep.states.len(), 320);
        assert_eq!(analysis.scatter_points_eq(&rep).len(), 320);
    }

    /// A zoom panel sliced out of the full-window report carries the very
    /// bits of a report over the zoom itself: every load, unit and rate by
    /// `f64::to_bits`, every completion count exactly. The log route
    /// reports any window, so the zoom's own report is computed apart.
    #[test]
    fn zoom_slice_is_bitwise_the_sub_window_report() {
        let mut cfg = SPEEDSTEP_OFF.config(1_500);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.duration = SimDuration::from_secs(12);
        let cal = Calibration::for_scenario(&SPEEDSTEP_OFF);
        let analysis = Analysis::new(NTierSystem::run(cfg), cal);
        let (dcfg, ms50) = (DetectorConfig::default(), SimDuration::from_millis(50));
        let full = analysis.report("mysql-1", analysis.window(ms50), &dcfg);
        let secs = SimDuration::from_secs;
        let zoom_at = |interval| analysis.sub_window(secs(3), secs(5), interval);
        let sub = analysis.report("mysql-1", zoom_at(ms50), &dcfg);
        let range = Analysis::zoom_intervals(&full, zoom_at(ms50));
        assert_eq!(range, 60..160);
        let ms = analysis.cal.mean_service(full.server);
        let mut completions = 0;
        for (i, k) in range.enumerate() {
            let (f, z) = (&full.tput, &sub.tput);
            assert_eq!(full.load.get(k).to_bits(), sub.load.get(i).to_bits());
            assert_eq!(f.units(k).to_bits(), z.units(i).to_bits());
            assert_eq!(f.unit_rate(k).to_bits(), z.unit_rate(i).to_bits());
            let eq = |t: &ThroughputSeries, j| t.equivalent_rate(j, ms).to_bits();
            assert_eq!(eq(f, k), eq(z, i));
            assert_eq!(f.count(k), z.count(i));
            completions += z.count(i);
        }
        assert!(completions > 0, "the zoom must see traffic");
        // A window off the grid is refused rather than silently shifted.
        let zoom = zoom_at(ms50);
        let shifted = Window::new(zoom.start + SimDuration::from_millis(10), zoom.end, ms50);
        for bad in [shifted, zoom_at(SimDuration::from_millis(100))] {
            assert!(std::panic::catch_unwind(|| Analysis::zoom_intervals(&full, bad)).is_err());
        }
    }
}
