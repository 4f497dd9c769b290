//! The detector scored against the simulator's ground truth on short runs
//! through the figure route. With JDK 1.5, Tomcat's stop-the-world pauses
//! must show as congested or frozen intervals (recall), and the intervals
//! called frozen must be pauses (precision). With SpeedStep on, MySQL's
//! busy windows below P0 must show as congested or frozen intervals, and
//! the intervals so flagged must fall in such a window. The floors sit below the
//! measured values by the margins stated beside them, so a change that
//! costs the detector accuracy fails here rather than only moving a figure.

use fgbd_core::detect::{DetectorConfig, IntervalState};
use fgbd_des::{SimDuration, SimTime};
use fgbd_oracle::truth::{gc_pauses, slow_clock};
use fgbd_repro::scenario::{GC_JDK15, SPEEDSTEP_ON};
use fgbd_repro::{Analysis, Calibration};

const SERVER: &str = "tomcat-1";
const MYSQL: &str = "mysql-1";

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

#[test]
fn mysql_slow_clock_is_found_and_flagged_intervals_are_slow_clock() {
    let mut cfg = SPEEDSTEP_ON.config(10_000);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let analysis = Analysis::simulate(cfg, &[MYSQL], cal, None);
    let window = analysis.window(SimDuration::from_millis(50));
    let report = analysis.report(MYSQL, window, &DetectorConfig::default());
    let intervals: Vec<(SimTime, SimTime)> = (0..window.len()).map(|i| window.bounds(i)).collect();
    let overlaps = |(a, b): (SimTime, SimTime), (c, d): (SimTime, SimTime)| a < d && c < b;

    // Recall counts the slow-clock windows inside the analysis window that
    // last at least one interval, as for the pauses above.
    let all_slow = slow_clock(&analysis.run, MYSQL);
    let slow: Vec<(SimTime, SimTime)> = (all_slow.iter().copied())
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
    let found = slow
        .iter()
        .filter(|&&w| flagged.iter().any(|&i| overlaps(w, intervals[i])))
        .count();
    let true_flagged = flagged
        .iter()
        .filter(|&&i| all_slow.iter().any(|&w| overlaps(w, intervals[i])))
        .count();
    assert!(
        !slow.is_empty(),
        "the run must slow MySQL's clock under load"
    );
    assert!(!flagged.is_empty(), "the detector must flag some interval");
    let recall = found as f64 / slow.len() as f64;
    let precision = true_flagged as f64 / flagged.len() as f64;
    let counts = format!(
        "{found} of {} slow-clock windows found ({} in all), \
         {true_flagged} of {} flagged intervals in one",
        slow.len(),
        all_slow.len(),
        flagged.len()
    );
    println!("{counts}");
    // Measured at seed 20130708: 59 of 59 windows, 202 of 284 flagged
    // intervals (0.711); the governor never reached P0 in these 25 s, so
    // the flagged intervals outside a window are ones whose CPU samples
    // stayed under 90% busy. The floors leave two windows in ten and 31
    // flagged intervals (0.11) of slack.
    assert!(recall >= 0.8, "recall {recall:.3}: {counts}");
    assert!(precision >= 0.6, "precision {precision:.3}: {counts}");
}
