//! **Fig 8** — the impact of the monitoring interval length on the
//! load/throughput correlation (MySQL at workload 14,000 with SpeedStep
//! enabled, 3-minute data): 20 ms (9,000 points) blurs the main sequence
//! curve with normalization noise, 50 ms (3,600 points) shows it crisply,
//! and 1 s (180 points) averages the transient variation away entirely.

use fgbd_core::detect::DetectorConfig;
use fgbd_core::stats;
use fgbd_des::SimDuration;

use crate::pipeline::Calibration;
use crate::plot;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::SPEEDSTEP_ON;

/// Runs WL 14,000 with SpeedStep enabled and compares three granularities.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let analysis = SPEEDSTEP_ON.analyze(14_000, &["mysql-1"], cal, None);
    let cfg = DetectorConfig::default();

    let mut s = ExperimentSummary::new("fig08");
    let mut rows = Vec::new();
    let mut spreads = Vec::new();
    for (label, ms, paper_pts) in [
        ("20ms", 20u64, 9_000),
        ("50ms", 50, 3_600),
        ("1s", 1_000, 180),
    ] {
        let window = analysis.window(SimDuration::from_millis(ms));
        let report = analysis.report("mysql-1", window, &cfg);
        let pts = analysis.scatter_points_eq(&report);
        fgbd_obsv::log!(
            "fig08",
            "{}",
            plot::scatter(
                &format!("Fig 8 ({label}) MySQL load vs throughput at WL 14,000"),
                &pts,
                &[],
                64,
                14,
            )
        );
        let max_load = pts.iter().map(|p| p.0).fold(0.0, f64::max);
        // Relative throughput spread among intervals at mid-high load — the
        // "blur" of the main sequence curve.
        let congested_tputs: Vec<f64> = pts
            .iter()
            .filter(|&&(l, _)| l > max_load * 0.3)
            .map(|&(_, t)| t)
            .collect();
        let spread = if congested_tputs.len() > 3 {
            stats::std_dev(&congested_tputs) / stats::mean(&congested_tputs).max(1e-9)
        } else {
            f64::NAN
        };
        spreads.push(spread);
        s.row(&format!("{label}: interval count"), paper_pts, pts.len());
        rows.push(vec![
            label.to_string(),
            pts.len().to_string(),
            format!("{max_load:.1}"),
            format!("{spread:.3}"),
        ]);
        s.row(
            &format!("{label}: max observed load"),
            if ms == 1_000 {
                "low (averaged away)"
            } else {
                "high peaks visible"
            },
            format!("{max_load:.1}"),
        );
    }
    write_csv(
        "fig08_granularity",
        &["interval", "points", "max_load", "tput_rel_spread"],
        &rows,
    );
    s.row(
        "curve blur (rel. tput spread) 20ms vs 50ms",
        "20 ms blurrier than 50 ms",
        format!("{:.3} vs {:.3}", spreads[0], spreads[1]),
    );
    s.note(
        "1 s intervals compress the load range — short-term congestion disappears, as in Fig 8(c)",
    );
    s
}
