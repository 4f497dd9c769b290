//! **Fig 9** — fine-grained load/throughput analysis of Tomcat under
//! JDK 1.5 (serial stop-the-world GC) as the workload grows: at WL 7,000
//! only a few intervals sit past N\* (a); at WL 14,000 Tomcat congests
//! frequently and shows **POIs** — intervals with high load and (near-)zero
//! throughput, where the JVM is frozen mid-collection (b); the 10-second
//! zoom (c) shows load spiking exactly while throughput drops to zero.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;

use crate::experiments::{scatter_panel, zoom_panel};
use crate::pipeline::Calibration;
use crate::report::ExperimentSummary;
use crate::scenario::GC_JDK15;

/// Runs WL 7,000 and 14,000 under JDK 1.5 and analyzes Tomcat.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&GC_JDK15);
    let cfg = DetectorConfig::default();
    let interval = SimDuration::from_millis(50);
    let mut s = ExperimentSummary::new("fig09");

    // Simulate and analyze both workloads in parallel; plots and rows are
    // rendered afterwards in input order so the output stays deterministic.
    let cases = [(7_000u32, "9(a)"), (14_000, "9(b)")];
    let computed = crate::par::par_map(&cases, |&(wl, _)| {
        let analysis = GC_JDK15.analyze(wl, &["tomcat-1"], Calibration::clone(&cal), None);
        let report = analysis.report("tomcat-1", analysis.window(interval), &cfg);
        (analysis, report)
    });

    let mut congested = Vec::new();
    let mut frozen = Vec::new();
    for (&(wl, fig), (analysis, report)) in cases.iter().zip(&computed) {
        let pts = analysis.scatter_points_eq(report);
        scatter_panel(
            "fig09",
            &format!("Fig {fig} Tomcat load vs throughput at WL {wl} (JDK 1.5)"),
            &pts,
            &[],
            16,
            &format!("fig09_scatter_wl{wl}"),
        );
        congested.push(report.congested_intervals());
        frozen.push(report.frozen_intervals());
        s.row(
            &format!("WL {wl}: congested intervals"),
            if wl == 7_000 {
                "only a few points right after N*"
            } else {
                "frequent transient bottlenecks"
            },
            format!(
                "{} of {} ({:.1}%)",
                report.congested_intervals(),
                report.states.len(),
                100.0 * report.congested_intervals() as f64 / report.states.len() as f64
            ),
        );
        s.row(
            &format!("WL {wl}: POIs (high load, ~zero tput)"),
            if wl == 7_000 {
                "rare"
            } else {
                "many (GC freezes)"
            },
            report.frozen_intervals(),
        );

        // Fig 9(c): 10-second zoom at WL 14,000.
        if wl == 14_000 {
            zoom_panel(
                "fig09",
                (analysis, report),
                SimDuration::from_secs(10),
                [
                    "Fig 9(c) Tomcat load per 50 ms (10 s zoom)",
                    "Fig 9(c) Tomcat throughput [eq-req/s] per 50 ms (10 s zoom)",
                ],
                9,
                Some("fig09c_zoom"),
            );
        }
    }
    s.row(
        "POIs grow with workload",
        "9(b) >> 9(a)",
        format!("{} vs {}", frozen[1], frozen[0]),
    );
    s.note("POIs contradict the main-sequence expectation: load is high while output is zero — the JVM is frozen");
    s
}
