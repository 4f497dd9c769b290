//! **Extension: generality on a three-tier deployment.** §II-A notes
//! RUBBoS "can be configured as a three-tier … or four-tier system"; the
//! paper evaluates the four-tier configuration. This experiment re-runs the
//! GC case study on the three-tier variant (no clustering middleware) and
//! checks the method's conclusions carry over unchanged.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};

use crate::pipeline::{Analysis, Calibration};
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::MASTER_SEED;

fn analyze(jdk: Jdk) -> (usize, usize, f64) {
    let cfg = SystemConfig::paper_3tier(8_000, jdk, false, MASTER_SEED);
    let mut cal_cfg = SystemConfig::paper_3tier(400, jdk, false, MASTER_SEED);
    cal_cfg.warmup = SimDuration::from_secs(5);
    cal_cfg.duration = SimDuration::from_secs(40);
    let cal = Calibration::simulate(cal_cfg);
    let analysis = Analysis::simulate(cfg, &["tomcat-1"], cal, None);
    let rt = analysis.run.mean_response_time();
    let report = analysis.report(
        "tomcat-1",
        analysis.window(SimDuration::from_millis(50)),
        &DetectorConfig::default(),
    );
    (report.congested_intervals(), report.frozen_intervals(), rt)
}

/// The GC case study on the 3-tier topology.
pub fn run() -> ExperimentSummary {
    let (cong15, poi15, rt15) = analyze(Jdk::Jdk15);
    let (cong16, poi16, rt16) = analyze(Jdk::Jdk16);
    write_csv(
        "ext_threetier",
        &["jdk", "congested", "pois", "mean_rt_s"],
        &[
            vec![
                "1.5".into(),
                cong15.to_string(),
                poi15.to_string(),
                format!("{rt15:.4}"),
            ],
            vec![
                "1.6".into(),
                cong16.to_string(),
                poi16.to_string(),
                format!("{rt16:.4}"),
            ],
        ],
    );
    let mut s = ExperimentSummary::new("ext_threetier");
    s.row(
        "topology",
        "method applies to 3-tier as well as 4-tier (§II-A)",
        "web -> tomcat x2 -> mysql x2 (no C-JDBC)",
    );
    s.row(
        "tomcat POIs, JDK 1.5 vs 1.6",
        "present, then gone (same as fig9/fig11)",
        format!("{poi15} vs {poi16}"),
    );
    s.row(
        "tomcat congested intervals, JDK 1.5 vs 1.6",
        "collapse after the upgrade",
        format!("{cong15} vs {cong16}"),
    );
    s.row(
        "mean RT, JDK 1.5 vs 1.6",
        "improves",
        format!("{:.0} ms vs {:.0} ms", rt15 * 1e3, rt16 * 1e3),
    );
    s.note(
        "the analysis consumes only per-server spans, so tier count is irrelevant to the detector",
    );
    s
}
