//! Diagnosing JVM garbage collection as the cause of transient bottlenecks
//! (the paper's first case study, §IV-A/B).
//!
//! The workflow a performance engineer would follow with this library:
//! detect POIs (frozen intervals) on the app tier, correlate them with the
//! JVM's GC log, then verify the fix (a concurrent collector) removes them.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --example gc_diagnosis
//! ```

use fgbd_core::correlate::{mean_per_interval, pearson};
use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::gc::gc_running_ratio;
use fgbd_ntier::result::TxnSample;
use fgbd_ntier::system::NTierSystem;
use fgbd_repro::{Analysis, Calibration};

fn diagnose(jdk: Jdk, label: &str) {
    let mut cfg = SystemConfig::paper_1l2s1l2s(6_000, jdk, false, 11);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(40);
    // The run keeps its capture log; response-time events `(finish time,
    // seconds)` come through the transaction consumer.
    let mut rt_events = Vec::new();
    let mut collect = |t: TxnSample| rt_events.push((t.finished, t.response_time().as_secs_f64()));
    let run = NTierSystem::run_with_taps(cfg, None, Some(&mut collect));

    let mut cal_cfg = SystemConfig::paper_1l2s1l2s(300, jdk, false, 11);
    cal_cfg.warmup = SimDuration::from_secs(3);
    cal_cfg.duration = SimDuration::from_secs(20);
    let cal = Calibration::from_run(&NTierSystem::run(cal_cfg));

    let tomcat_idx = run.server_index("tomcat-1").expect("tomcat exists");
    let analysis = Analysis::new(run, cal);
    let window = analysis.window(SimDuration::from_millis(50));
    let report = analysis.report("tomcat-1", window, &DetectorConfig::default());

    // Correlate the detector's view with the JVM's own GC log.
    let gc = gc_running_ratio(
        &analysis.run.gc_events,
        tomcat_idx,
        window.start,
        window.end,
        window.interval,
    );
    let r_gc_load = pearson(&gc, report.load.values()).unwrap_or(f64::NAN);
    let rt = mean_per_interval(&rt_events, &window);
    let r_load_rt =
        fgbd_core::correlate::finite_pearson(report.load.values(), &rt).unwrap_or(f64::NAN);

    let collections = analysis
        .run
        .gc_events
        .iter()
        .filter(|e| e.server == tomcat_idx)
        .count();
    let mean_stw: f64 = analysis
        .run
        .gc_events
        .iter()
        .filter(|e| e.server == tomcat_idx)
        .map(|e| (e.stw_end - e.start).as_secs_f64())
        .sum::<f64>()
        / collections.max(1) as f64;

    println!("{label}:");
    println!(
        "  collections: {collections} (mean stop-the-world {:.0} ms)",
        mean_stw * 1e3
    );
    println!(
        "  tomcat congested intervals: {} / {}, frozen (POI): {}",
        report.congested_intervals(),
        report.states.len(),
        report.frozen_intervals()
    );
    println!("  corr(GC running ratio, load) = {r_gc_load:.3}");
    println!("  corr(load, system response time) = {r_load_rt:.3}");
    println!(
        "  mean rt {:.0} ms, txns > 2 s: {:.2}%\n",
        analysis.run.mean_response_time() * 1e3,
        analysis.run.frac_slow() * 100.0
    );
}

fn main() {
    println!("== JDK 1.5 (serial stop-the-world collector) ==");
    diagnose(Jdk::Jdk15, "before upgrade");
    println!("== JDK 1.6 (concurrent collector) — the paper's fix ==");
    diagnose(Jdk::Jdk16, "after upgrade");
    println!("POIs and the GC-load correlation identify the JVM as the culprit; the upgrade removes them.");
}
