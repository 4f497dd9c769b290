//! The detector scored against the simulator's ground truth on short runs
//! through the figure route. With JDK 1.5, Tomcat's stop-the-world pauses
//! must show as congested or frozen intervals (recall), and the intervals
//! called frozen must be pauses (precision). With SpeedStep on, MySQL's
//! busy windows below P0 must show as congested or frozen intervals, and
//! the intervals so flagged must fall in such a window. The GC row is also
//! scored on the live verdicts a monitor on the tap emits: which pauses
//! draw an onset, and how many intervals after the pause starts. The floors
//! sit below the measured values by the margins stated beside them, so a
//! change that costs the detector accuracy fails here rather than only
//! moving a figure.

use fgbd_core::detect::{DetectorConfig, IntervalState};
use fgbd_core::online::{OnlineConfig, OnlineDetector, VerdictKind};
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::system::NTierSystem;
use fgbd_ntier::SystemConfig;
use fgbd_oracle::truth::{gc_pauses, slow_clock};
use fgbd_repro::pipeline::WORK_UNIT_RESOLUTION;
use fgbd_repro::scenario::{GC_JDK15, SPEEDSTEP_ON};
use fgbd_repro::{Analysis, Calibration};

const SERVER: &str = "tomcat-1";
const MYSQL: &str = "mysql-1";

/// The GC row's run: JDK 1.5 at WL 14,000, 20 s after a 5 s warm-up.
fn gc_config() -> SystemConfig {
    let mut cfg = GC_JDK15.config(14_000);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

#[test]
fn tomcat_gc_pauses_are_found_and_frozen_intervals_are_pauses() {
    let cfg = gc_config();
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

/// The GC row scored on live verdicts: tomcat-1's records, as the tap
/// delivers them, feed a 50 ms detector calibrated as the live monitor
/// calibrates it. A pause that lasts an interval is *found* by the first
/// onset whose streak starts in an interval the pause overlaps, with a
/// latency from the pause's start to the onset's emission, in intervals (an
/// interval is final only once no request open at the server can reach it,
/// so an onset waits for its pause to end). A pause is *covered* if the
/// live state, dated by the verdicts' streaks, is congested in one of its
/// intervals, whether or not it drew an onset of its own.
#[test]
fn tomcat_gc_pauses_draw_live_onsets() {
    let cfg = gc_config();
    let cal = Calibration::for_scenario(&GC_JDK15);
    let interval = SimDuration::from_millis(50);
    let start = SimTime::ZERO + cfg.warmup;
    let ocfg = OnlineConfig::new(start, interval, WORK_UNIT_RESOLUTION);
    let mut detector = OnlineDetector::new(ocfg, cal.services.clone());
    for (&node, &wu) in &cal.work_units {
        detector.set_work_unit(node, wu);
    }
    let node = fgbd_ntier::system::node_metas(&cfg)
        .into_iter()
        .find(|n| n.name == SERVER)
        .expect("tomcat-1 exists")
        .id;
    let run = NTierSystem::run_with_record_tap(cfg, |rec| {
        if rec.span_node() == node {
            detector.push(&rec);
        }
    });
    let finish = detector.finish(run.horizon);
    let window = finish.reports[0].window;

    // The live state by interval: congested from each onset's streak to
    // the next clear's.
    let mut congested: Vec<(usize, usize)> = Vec::new();
    let mut onsets: Vec<(usize, SimTime)> = Vec::new();
    for e in &finish.events {
        match e.kind {
            VerdictKind::Onset => onsets.push((e.interval, e.interval_end + e.detect_latency)),
            VerdictKind::Clear => {
                congested.push((onsets.last().expect("onset first").0, e.interval))
            }
        }
    }
    if finish
        .events
        .last()
        .is_some_and(|e| e.kind == VerdictKind::Onset)
    {
        congested.push((onsets.last().expect("an onset").0, window.len()));
    }
    let index_of = |t: SimTime| ((t - window.start).as_micros() / interval.as_micros()) as usize;
    let pauses: Vec<(SimTime, SimTime)> = (gc_pauses(&run, SERVER).into_iter())
        .filter(|&(start, end)| start >= window.start && end <= window.end)
        .filter(|&(start, end)| end - start >= window.interval)
        .collect();
    let mut latencies = Vec::new();
    let mut covered = 0;
    for &(from, to) in &pauses {
        // The intervals the pause overlaps.
        let (first, last) = (index_of(from), index_of(to - SimDuration::from_micros(1)));
        if let Some(&(_, emitted)) = onsets.iter().find(|(i, _)| (first..=last).contains(i)) {
            latencies.push((emitted - from).as_secs_f64() / interval.as_secs_f64());
        }
        covered += usize::from(congested.iter().any(|&(a, b)| a <= last && first < b));
    }
    latencies.sort_by(f64::total_cmp);
    assert!(!pauses.is_empty(), "the run must pause Tomcat");
    let median = latencies
        .get(latencies.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    let max = latencies.last().copied().unwrap_or(f64::NAN);
    let counts = format!(
        "{} of {} pauses drew a live onset ({} onsets in all), {covered} covered; \
         latency median {median:.1}, max {max:.1} intervals",
        latencies.len(),
        pauses.len(),
        onsets.len()
    );
    println!("{counts}");
    // Measured at seed 20130708: 1 of 10 pauses drew an onset (2 onsets in
    // all), 4 of 10 covered, latency 18.2 intervals. Live recall is too low
    // for a floor below it to mean much: the live fits at 64 and 128
    // finalized intervals find no N*, so the six pauses before the fit at
    // 192 cannot be called, and from the second onset on the live state
    // stays congested across the later pauses. So this asserts what holds:
    // a pause draws an onset, three pauses in ten are covered (one of
    // slack), and the latency stays under 36 intervals (twice the
    // measured).
    assert!(
        !latencies.is_empty(),
        "no pause drew a live onset: {counts}"
    );
    assert!(covered >= 3, "{counts}");
    assert!(max <= 36.0, "{counts}");
}
