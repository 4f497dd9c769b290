//! **Extension: scale-out fix for the GC case.** §IV-B's first suggestion —
//! before proposing the JDK upgrade — is "simply scaling-out/up the Tomcat
//! tier since low utilization of Tomcat can reduce the negative impact of
//! JVM GC". This experiment quantifies it: WL 8,000 under JDK 1.5 with 2 vs
//! 4 Tomcats.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};

use crate::pipeline::{Analysis, Calibration};
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::MASTER_SEED;

fn measure(tomcats: usize) -> (f64, f64, usize, usize, f64) {
    let cfg = SystemConfig::paper_scaled_tomcats(8_000, Jdk::Jdk15, false, MASTER_SEED, tomcats);
    let mut cal_cfg =
        SystemConfig::paper_scaled_tomcats(400, Jdk::Jdk15, false, MASTER_SEED, tomcats);
    cal_cfg.warmup = SimDuration::from_secs(5);
    cal_cfg.duration = SimDuration::from_secs(40);
    let cal = Calibration::simulate(cal_cfg);

    let analysis = Analysis::simulate(cfg, &["tomcat-1"], cal, None);
    let run = &analysis.run;
    let tput = run.throughput();
    let rt = run.mean_response_time();
    let util = run.mean_cpu_util(run.server_index("tomcat-1").expect("tomcat"));
    let report = analysis.report(
        "tomcat-1",
        analysis.window(SimDuration::from_millis(50)),
        &DetectorConfig::default(),
    );
    (
        tput,
        rt,
        report.congested_intervals(),
        report.frozen_intervals(),
        util,
    )
}

/// Compares 2 vs 4 Tomcats at WL 8,000 under the serial collector.
pub fn run() -> ExperimentSummary {
    let (t2, rt2, cong2, poi2, util2) = measure(2);
    let (t4, rt4, cong4, poi4, util4) = measure(4);
    write_csv(
        "ext_scaleout",
        &[
            "tomcats",
            "tput_tps",
            "mean_rt_s",
            "congested",
            "pois",
            "tomcat_util",
        ],
        &[
            vec![
                "2".into(),
                format!("{t2:.1}"),
                format!("{rt2:.4}"),
                cong2.to_string(),
                poi2.to_string(),
                format!("{util2:.3}"),
            ],
            vec![
                "4".into(),
                format!("{t4:.1}"),
                format!("{rt4:.4}"),
                cong4.to_string(),
                poi4.to_string(),
                format!("{util4:.3}"),
            ],
        ],
    );
    let mut s = ExperimentSummary::new("ext_scaleout");
    s.row(
        "tomcat-1 CPU util, 2 -> 4 nodes",
        "roughly halves",
        format!("{:.0}% -> {:.0}%", util2 * 100.0, util4 * 100.0),
    );
    s.row(
        "tomcat congested intervals, 2 -> 4 nodes",
        "far fewer at low utilization (§IV-B)",
        format!("{cong2} -> {cong4}"),
    );
    s.row(
        "tomcat POIs, 2 -> 4 nodes",
        "shorter GC pauses (smaller live set) -> fewer POIs",
        format!("{poi2} -> {poi4}"),
    );
    s.row(
        "mean response time, 2 -> 4 nodes",
        "improves",
        format!("{:.0} ms -> {:.0} ms", rt2 * 1e3, rt4 * 1e3),
    );
    s.note("scaling out trades hardware for the same effect the JDK upgrade achieves in software (fig11)");
    s
}
