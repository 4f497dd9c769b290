//! **Fig 12** — the SpeedStep case study: fine-grained MySQL analysis with
//! the DVFS governor enabled. At WL 8,000, congested intervals cluster on a
//! single throughput plateau (the CPU prefers the lowest P-state), with
//! points *above* the trend from brief fast-clock episodes (a). At
//! WL 10,000, congested intervals form **multiple plateaus** — one per
//! P-state the governor visits (b); the 10 s zoom (c) shows congestion
//! episodes drained at different clock speeds.

use fgbd_core::detect::DetectorConfig;
use fgbd_core::plateau::{find_plateaus, match_levels, PlateauConfig};
use fgbd_des::SimDuration;
use fgbd_ntier::XEON_PSTATES;

use crate::experiments::table02::mysql_capacities;
use crate::experiments::{scatter_panel, zoom_panel};
use crate::pipeline::{Analysis, Calibration};
use crate::report::ExperimentSummary;
use crate::scenario::{Scenario, SPEEDSTEP_ON};

/// Analysis bundle shared with fig13 (the SpeedStep-off twin).
pub struct PlateauOutcome {
    /// Plateau levels (equivalent req/s) among congested intervals.
    pub plateaus: Vec<fgbd_core::plateau::Plateau>,
    /// Congested interval count.
    pub congested: usize,
    /// Total analysis intervals.
    pub total: usize,
    /// Congested intervals whose throughput exceeds 1.15x the P8 capacity —
    /// windows that can only be produced by a faster clock (the
    /// multi-P-state signature of Fig 12(b)).
    pub fast_clock_windows: usize,
}

/// The compute half of one SpeedStep workload: simulates `users` under
/// `scenario` and runs the full-window `mysql-1` analysis. Safe to run for
/// several workloads in parallel (see [`crate::par::par_map`]); the plots
/// and CSVs happen later in [`summarize_mysql`], sequentially, so output
/// never interleaves.
pub fn compute_mysql(
    scenario: &Scenario,
    cal: &Calibration,
    users: u32,
) -> (Analysis, fgbd_core::detect::ServerReport) {
    let analysis = scenario.analyze(users, &["mysql-1"], Calibration::clone(cal), None);
    let full = analysis.window(SimDuration::from_millis(50));
    let report = analysis.report("mysql-1", full, &DetectorConfig::default());
    (analysis, report)
}

/// The render half of one SpeedStep workload: plots, CSVs, and the plateau
/// summary for one already-computed workload.
pub fn summarize_mysql(
    analysis: &Analysis,
    report: &fgbd_core::detect::ServerReport,
    scenario: &Scenario,
    users: u32,
    fig_label: &str,
    zoom: bool,
) -> PlateauOutcome {
    let pts = analysis.scatter_points_eq(report);
    let title = format!(
        "Fig {fig_label} MySQL load vs throughput at WL {users} ({})",
        scenario.name
    );
    let csv = format!("fig_{}_wl{users}_scatter", scenario.name);
    scatter_panel("fig12", &title, &pts, &[], 16, &csv);
    if zoom {
        zoom_panel(
            "fig12",
            (analysis, report),
            SimDuration::from_secs(10),
            [
                &format!("Fig {fig_label} zoom: MySQL load per 50 ms (10 s)"),
                &format!("Fig {fig_label} zoom: MySQL throughput [eq-req/s] per 50 ms (10 s)"),
            ],
            9,
            None,
        );
    }
    // Plateaus among congested intervals, in equivalent req/s.
    let ms = analysis.cal.mean_service(report.server);
    let congested_tputs: Vec<f64> = report
        .states
        .iter()
        .enumerate()
        .filter(|(_, st)| {
            matches!(
                st,
                fgbd_core::detect::IntervalState::Congested
                    | fgbd_core::detect::IntervalState::Frozen
            )
        })
        .map(|(i, _)| report.tput.equivalent_rate(i, ms))
        .collect();
    let p8_cap = *mysql_capacities().last().expect("P8 capacity");
    let fast_clock_windows = congested_tputs
        .iter()
        .filter(|&&t| t > 1.15 * p8_cap)
        .count();
    // The minor trends of Fig 12(b) are sparse (the CPU only briefly visits
    // the fast clocks while draining); lower the share floor accordingly.
    let plateau_cfg = PlateauConfig {
        min_share: 0.01,
        ..PlateauConfig::default()
    };
    PlateauOutcome {
        plateaus: find_plateaus(&congested_tputs, &plateau_cfg),
        congested: report.congested_intervals(),
        total: report.states.len(),
        fast_clock_windows,
    }
}

/// Runs WL 8,000 and 10,000 with SpeedStep enabled.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    // Both workloads simulate and analyze in parallel; rendering follows in
    // input order.
    let cases = [(8_000u32, "12(a)", false), (10_000, "12(b)/(c)", true)];
    let computed = crate::par::par_map(&cases, |&(users, _, _)| {
        compute_mysql(&SPEEDSTEP_ON, &cal, users)
    });
    let outcomes: Vec<PlateauOutcome> = cases
        .iter()
        .zip(&computed)
        .map(|(&(users, fig, zoom), (analysis, report))| {
            summarize_mysql(analysis, report, &SPEEDSTEP_ON, users, fig, zoom)
        })
        .collect();
    let (a8, a10) = (&outcomes[0], &outcomes[1]);

    let caps = mysql_capacities();
    let fmt_plateaus = |o: &PlateauOutcome| {
        o.plateaus
            .iter()
            .map(|p| format!("{:.0} ({:.0}%)", p.level, p.share * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = ExperimentSummary::new("fig12");
    s.row(
        "WL 8,000: congested-throughput plateaus",
        "1 main trend (P8) + points above it",
        format!("{} [{}]", a8.plateaus.len(), fmt_plateaus(a8)),
    );
    s.row(
        "WL 10,000: congested-throughput plateaus",
        "multiple clock-determined trends (paper: 3)",
        format!("{} [{}]", a10.plateaus.len(), fmt_plateaus(a10)),
    );
    let named: Vec<String> = match_levels(&a10.plateaus, &caps)
        .iter()
        .map(|&i| XEON_PSTATES[i].name.to_string())
        .collect();
    s.row(
        "WL 10,000 plateau -> P-state attribution",
        "each trend maps to a P-state capacity",
        named.join(" / "),
    );
    s.row(
        "congested intervals at WL 8,000",
        "frequent transient bottlenecks",
        format!("{} of {}", a8.congested, a8.total),
    );
    s.row(
        "congested intervals at WL 10,000",
        "more frequent than WL 8,000",
        format!("{} of {}", a10.congested, a10.total),
    );
    s.row(
        "fast-clock congested windows (>1.15x P8 cap)",
        "present only with SpeedStep's clock switching",
        format!(
            "WL8k: {}, WL10k: {}",
            a8.fast_clock_windows, a10.fast_clock_windows
        ),
    );
    s.note("each plateau is the Utilization-Law ceiling of one CPU clock: the governor's lag turns clock mismatch into transient bottlenecks");
    s
}
