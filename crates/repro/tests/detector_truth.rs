//! The detector scored against the simulator's ground truth: on a short
//! JDK 1.5 run through the figure route, Tomcat's stop-the-world pauses
//! must show as congested or frozen intervals (recall), and the intervals
//! called frozen must be pauses (precision). The floors sit below the
//! measured values by the margins stated beside them, so a change that
//! costs the detector accuracy fails here rather than only moving a figure.

use fgbd_core::detect::{DetectorConfig, IntervalState};
use fgbd_des::{SimDuration, SimTime};
use fgbd_oracle::truth::gc_pauses;
use fgbd_repro::scenario::GC_JDK15;
use fgbd_repro::{Analysis, Calibration};

const SERVER: &str = "tomcat-1";

#[test]
fn tomcat_gc_pauses_are_found_and_frozen_intervals_are_pauses() {
    let mut cfg = GC_JDK15.config(14_000);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    let cal = Calibration::for_scenario(&GC_JDK15);
    let analysis = Analysis::simulate(cfg, &[SERVER], cal, None);
    let window = analysis.window(SimDuration::from_millis(50));
    let report = analysis.report(SERVER, window, &DetectorConfig::default());
    let intervals: Vec<(SimTime, SimTime)> = (0..window.len()).map(|i| window.bounds(i)).collect();
    let overlaps = |(a, b): (SimTime, SimTime), (c, d): (SimTime, SimTime)| a < d && c < b;

    // Recall counts the pauses inside the window that last at least one
    // interval: a shorter one need not move any 50 ms interval past N*.
    let all_pauses = gc_pauses(&analysis.run, SERVER);
    let pauses: Vec<(SimTime, SimTime)> = (all_pauses.iter().copied())
        .filter(|&(start, end)| start >= window.start && end <= window.end)
        .filter(|&(start, end)| end - start >= window.interval)
        .collect();
    let flagged: Vec<usize> = (0..intervals.len())
        .filter(|&i| {
            matches!(
                report.states[i],
                IntervalState::Congested | IntervalState::Frozen
            )
        })
        .collect();
    let found = pauses
        .iter()
        .filter(|&&p| flagged.iter().any(|&i| overlaps(p, intervals[i])))
        .count();
    let frozen: Vec<usize> = (0..intervals.len())
        .filter(|&i| report.states[i] == IntervalState::Frozen)
        .collect();
    let true_frozen = frozen
        .iter()
        .filter(|&&i| all_pauses.iter().any(|&p| overlaps(p, intervals[i])))
        .count();
    assert!(!pauses.is_empty(), "the run must pause Tomcat");
    assert!(
        !frozen.is_empty(),
        "the detector must call some interval frozen"
    );
    let recall = found as f64 / pauses.len() as f64;
    let precision = true_frozen as f64 / frozen.len() as f64;
    let counts = format!(
        "{found} of {} pauses found ({} in all), {true_frozen} of {} frozen intervals in a pause",
        pauses.len(),
        all_pauses.len(),
        frozen.len()
    );
    println!("{counts}");
    // Measured at seed 20130708: 10 of 10 pauses, 47 of 47 frozen
    // intervals. The floors leave two pauses and one frozen interval in
    // ten of slack.
    assert!(recall >= 0.8, "recall {recall:.3}: {counts}");
    assert!(precision >= 0.9, "precision {precision:.3}: {counts}");
}
