//! The detector scored against the simulator's ground truth on short runs
//! through the figure route: the short scorecard
//! (`examples/scorecard.rs --short`, one seed), row by row. With JDK 1.5,
//! Tomcat's stop-the-world pauses must show as congested or frozen
//! intervals (recall), and the intervals called frozen must be pauses
//! (precision). With SpeedStep on, MySQL's busy windows below P0 must show
//! as congested or frozen intervals, and the intervals so flagged must fall
//! in such a window. The GC row is also scored on the live verdicts a
//! monitor on the tap emits: which pauses draw an onset, and how many
//! intervals after the pause starts. And where no JVM stops the world —
//! JDK 1.6 on both Tomcats, or on the one beside a JDK 1.5 Tomcat — no
//! interval may be called frozen. The floors sit below the measured
//! values by the margins stated beside them, so a change that costs the
//! detector accuracy fails here rather than only moving a figure.

use fgbd_repro::scenario::MASTER_SEED;

#[allow(dead_code)]
#[path = "../examples/scorecard.rs"]
mod scorecard;

/// The named row's score at the master seed.
fn short(row: &str) -> scorecard::Score {
    let row = scorecard::named(row);
    row.score(MASTER_SEED, row.calibration())
}

#[test]
fn tomcat_gc_pauses_are_found_and_frozen_intervals_are_pauses() {
    let s = short("gc_final");
    assert!(s.episodes > 0, "the run must pause Tomcat");
    assert!(s.scored > 0, "the detector must call some interval frozen");
    let recall = s.found as f64 / s.episodes as f64;
    let precision = s.true_scored as f64 / s.scored as f64;
    let counts = format!(
        "{} of {} pauses found ({} in all), {} of {} frozen intervals in a pause",
        s.found, s.episodes, s.all_episodes, s.true_scored, s.scored
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
    let s = short("dvfs_final");
    assert!(s.episodes > 0, "the run must slow MySQL's clock under load");
    assert!(s.scored > 0, "the detector must flag some interval");
    let recall = s.found as f64 / s.episodes as f64;
    let precision = s.true_scored as f64 / s.scored as f64;
    let counts = format!(
        "{} of {} slow-clock windows found ({} in all), \
         {} of {} flagged intervals in one",
        s.found, s.episodes, s.all_episodes, s.true_scored, s.scored
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

/// The GC row scored on live verdicts (the scorecard's `gc_live`: a 50 ms
/// detector on tomcat-1's records as the tap delivers them).
#[test]
fn tomcat_gc_pauses_draw_live_onsets() {
    let s = short("gc_live");
    assert!(s.episodes > 0, "the run must pause Tomcat");
    let median = s
        .latencies
        .get(s.latencies.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    let max = s.latencies.last().copied().unwrap_or(f64::NAN);
    let counts = format!(
        "{} of {} pauses drew a live onset ({} onsets in all), {} covered; \
         latency median {median:.1}, max {max:.1} intervals",
        s.found, s.episodes, s.onsets, s.covered
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
    assert!(s.found > 0, "no pause drew a live onset: {counts}");
    assert!(s.covered >= 3, "{counts}");
    assert!(max <= 36.0, "{counts}");
}

/// The negative controls of the GC row: JDK 1.6 on both Tomcats
/// (`gc_control_jdk16`), and tomcat-2 on JDK 1.6 while tomcat-1 keeps JDK
/// 1.5 (`gc_one_jvm_control`), so tomcat-2 stalls only on what tomcat-1's
/// pauses push back.
#[test]
fn a_jvm_that_never_stops_the_world_has_no_frozen_interval() {
    for row in ["gc_control_jdk16", "gc_one_jvm_control"] {
        let s = short(row);
        let counts = format!(
            "{row}: {} pauses of an interval ({} in all), {} frozen intervals",
            s.episodes, s.all_episodes, s.scored
        );
        println!("{counts}");
        // Measured at seed 20130708: no pause of an interval and no frozen
        // interval in either row (14 and 12 shorter collections). The
        // ceiling leaves two frozen intervals of slack.
        assert_eq!(s.episodes, 0, "{counts}");
        assert!(s.scored <= 2, "{counts}");
    }
}
