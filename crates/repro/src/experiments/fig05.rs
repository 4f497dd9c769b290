//! **Fig 5** — the method walk-through on MySQL at workload 7,000: load per
//! 50 ms (a), normalized throughput per 50 ms (b) over a 12-second zoom, and
//! the load/throughput correlation scatter with the congestion point N\*
//! and three exemplar points (c): (1) high throughput below N\* — not
//! congested; (2) load far above N\* — congested; (3) zero load — idle.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;

use crate::pipeline::Calibration;
use crate::plot;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::SPEEDSTEP_ON;

/// Runs WL 7,000 and performs the fine-grained MySQL analysis.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let analysis = SPEEDSTEP_ON.analyze(7_000, cal);
    let cfg = DetectorConfig::default();
    let interval = SimDuration::from_millis(50);

    // 12-second zoom (the paper's Fig 5a/5b window), offset into the run.
    let zoom = analysis.sub_window(
        SimDuration::from_secs(60),
        SimDuration::from_secs(12),
        interval,
    );
    let zoom_report = analysis.report("mysql-1", zoom, &cfg);
    let loads: Vec<f64> = zoom_report.load.values().to_vec();
    let ms = analysis.cal.mean_service(zoom_report.server);
    let tputs: Vec<f64> = (0..zoom_report.tput.len())
        .map(|i| zoom_report.tput.equivalent_rate(i, ms))
        .collect();
    fgbd_obsv::log!(
        "fig05",
        "{}",
        plot::timeline("Fig 5(a) MySQL load per 50 ms (12 s zoom)", &loads, 10)
    );
    fgbd_obsv::log!(
        "fig05",
        "{}",
        plot::timeline(
            "Fig 5(b) MySQL throughput [eq-req/s] per 50 ms (12 s zoom)",
            &tputs,
            10
        )
    );
    let mut rows = Vec::new();
    for i in 0..loads.len() {
        rows.push(vec![
            format!("{:.3}", zoom.mid_secs(i)),
            format!("{:.3}", loads[i]),
            format!("{:.1}", tputs[i]),
        ]);
    }
    write_csv("fig05_zoom", &["t_s", "load", "tput_eq_rps"], &rows);

    // Full-window analysis for a stable N* estimate and the scatter.
    let full = analysis.window(interval);
    let report = analysis.report("mysql-1", full, &cfg);
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
    fgbd_obsv::log!(
        "fig05",
        "{}",
        plot::scatter(
            "Fig 5(c) MySQL load vs throughput [eq-req/s], 50 ms intervals (3 min)",
            &pts,
            &marks,
            64,
            18,
        )
    );
    let scatter_rows: Vec<Vec<String>> = pts
        .iter()
        .map(|&(l, t)| vec![format!("{l:.3}"), format!("{t:.1}")])
        .collect();
    write_csv("fig05_scatter", &["load", "tput_eq_rps"], &scatter_rows);

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
