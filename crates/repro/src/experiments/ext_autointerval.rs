//! **Extension: automatic interval-length selection** — the paper's stated
//! future work (§III-D closes with "An automatic way to choose a proper
//! time interval length is part of our future research"). Applied to the
//! same data as Fig 8 (MySQL, WL 14,000, SpeedStep on), the selector should
//! land in the neighbourhood of the 50 ms the authors chose by hand.

use fgbd_core::interval::{auto_interval, IntervalSelectConfig};

use crate::pipeline::Calibration;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::SPEEDSTEP_ON;

/// Runs the Fig 8 workload and lets the selector pick the interval.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let analysis = SPEEDSTEP_ON.analyze(14_000, &["mysql-1"], cal, None);
    // The selector scores every candidate on the finest one's series.
    let cfg = IntervalSelectConfig::default();
    let base = analysis.series("mysql-1", analysis.window(cfg.candidates[0]));
    let selection = auto_interval(&base, &cfg).expect("enough data to select");

    let rows: Vec<Vec<String>> = selection
        .scores
        .iter()
        .map(|s| {
            vec![
                format!("{:.0}", s.interval.as_millis_f64()),
                format!("{:.4}", s.noise),
                format!("{:.4}", s.peak_retention),
                s.intervals.to_string(),
            ]
        })
        .collect();
    write_csv(
        "ext_autointerval",
        &[
            "interval_ms",
            "tput_noise_cv",
            "peak_retention",
            "intervals",
        ],
        &rows,
    );

    let mut s = ExperimentSummary::new("ext_autointerval");
    s.row(
        "chosen interval",
        "the paper picked 50 ms by hand (§III-D)",
        format!("{}", selection.chosen),
    );
    for sc in &selection.scores {
        s.row(
            &format!(
                "{:.0} ms: tput noise / peak retention",
                sc.interval.as_millis_f64()
            ),
            "noise falls, retention falls with length",
            format!("{:.3} / {:.2}", sc.noise, sc.peak_retention),
        );
    }
    s.note("the selector takes the shortest interval whose normalized-throughput noise is acceptable — automating Fig 8's visual judgement");
    s
}
