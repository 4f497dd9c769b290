//! **Fig 5** — the method walk-through on MySQL at workload 7,000: load per
//! 50 ms (a), normalized throughput per 50 ms (b) over a 12-second zoom, and
//! the load/throughput correlation scatter with the congestion point N\*
//! and three exemplar points (c): (1) high throughput below N\* — not
//! congested; (2) load far above N\* — congested; (3) zero load — idle.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;

use crate::experiments::{scatter_panel, zoom_panel};
use crate::pipeline::Calibration;
use crate::report::ExperimentSummary;
use crate::scenario::SPEEDSTEP_ON;

/// Runs WL 7,000 and performs the fine-grained MySQL analysis.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let analysis = SPEEDSTEP_ON.analyze(7_000, &["mysql-1"], cal, None);
    let cfg = DetectorConfig::default();
    let interval = SimDuration::from_millis(50);

    // One report over the full window: a stable N* estimate and the
    // scatter, with the 12-second zoom (the paper's Fig 5a/5b window,
    // offset into the run) a slice of it.
    let full = analysis.window(interval);
    let report = analysis.report("mysql-1", full, &cfg);
    let loads = zoom_panel(
        "fig05",
        (&analysis, &report),
        SimDuration::from_secs(12),
        [
            "Fig 5(a) MySQL load per 50 ms (12 s zoom)",
            "Fig 5(b) MySQL throughput [eq-req/s] per 50 ms (12 s zoom)",
        ],
        10,
        Some("fig05_zoom"),
    );
    let pts = analysis.scatter_points_eq(&report);

    // Exemplar marks: (1) best throughput below N*, (2) highest load,
    // (3) an idle interval.
    let mut marks = Vec::new();
    if let Some(est) = &report.nstar {
        if let Some(&(x, y)) = pts
            .iter()
            .filter(|&&(l, _)| l > 0.2 && l <= est.nstar)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        {
            marks.push((x, y, '1'));
        }
        if let Some(&(x, y)) = pts
            .iter()
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
        {
            marks.push((x, y, '2'));
        }
        if let Some(&(x, y)) = pts.iter().find(|&&(l, _)| l < 0.05) {
            marks.push((x, y, '3'));
        }
    }
    scatter_panel(
        "fig05",
        "Fig 5(c) MySQL load vs throughput [eq-req/s], 50 ms intervals (3 min)",
        &pts,
        &marks,
        18,
        "fig05_scatter",
    );

    let mut s = ExperimentSummary::new("fig05");
    match &report.nstar {
        Some(est) => {
            s.row(
                "main sequence curve",
                "rises then flattens at N*",
                "observed",
            );
            s.row(
                "N* (congestion point)",
                "~10-15 (read off Fig 5c)",
                format!("{:.1}", est.nstar),
            );
            s.row(
                "congested intervals (load > N*)",
                "frequent short-term congestion",
                format!(
                    "{} of {} ({:.1}%)",
                    report.congested_intervals(),
                    report.states.len(),
                    100.0 * report.congested_intervals() as f64 / report.states.len() as f64
                ),
            );
        }
        None => s.note("N* not estimable — server never saturated in this run"),
    }
    let max_load = loads.iter().cloned().fold(0.0, f64::max);
    s.row(
        "load fluctuation in 12 s zoom",
        "frequent high peaks",
        format!(
            "peak load {max_load:.0} vs mean {:.1}",
            loads.iter().sum::<f64>() / loads.len().max(1) as f64
        ),
    );
    s
}
