//! **Fig 3** — the coarse-grained baseline view: Tomcat and MySQL CPU
//! utilization timelines at one-second granularity during the WL 8,000 run.
//! The paper's point: both average around 80% and *never* look saturated,
//! yet the same run exhibits the wide response-time variation of Fig 2(c) —
//! second-granularity monitoring cannot see the transient bottlenecks.

use fgbd_des::SimDuration;
use fgbd_metrics::UtilizationSeries;

use crate::plot;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::SPEEDSTEP_ON;

/// Runs WL 8,000 and samples per-second CPU utilization.
pub fn run() -> ExperimentSummary {
    let res = SPEEDSTEP_ON.run_uncaptured(8_000, None);
    let one_s = SimDuration::from_secs(1);
    let mut s = ExperimentSummary::new("fig03");
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (name, paper_mean) in [("tomcat-1", 79.9), ("mysql-1", 78.1)] {
        let idx = res.server_index(name).expect("server exists");
        let cumulative: Vec<_> = res.cpu_busy[idx]
            .iter()
            .map(|c| (c.at, c.busy_core_seconds))
            .collect();
        let series = UtilizationSeries::sample(&cumulative, res.servers[idx].cores, one_s);
        let vals: Vec<f64> = series
            .samples()
            .iter()
            .filter(|u| u.at >= res.warmup_end)
            .map(|u| u.util * 100.0)
            .collect();
        fgbd_obsv::log!(
            "fig03",
            "{}",
            plot::timeline(
                &format!("Fig 3 {name} CPU util [%] at 1s granularity"),
                &vals,
                10
            )
        );
        for (i, v) in vals.iter().enumerate() {
            csv_rows.push(vec![name.to_string(), i.to_string(), format!("{v:.2}")]);
        }
        let mean = series.mean_in(res.warmup_end, res.horizon) * 100.0;
        let mut sorted: Vec<f64> = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = sorted[sorted.len() / 2];
        s.row(
            &format!("{name} mean CPU util"),
            format!("{paper_mean:.1}%"),
            format!("{mean:.1}%"),
        );
        s.row(
            &format!("{name} median 1s CPU util"),
            "well below saturation",
            format!("{median:.1}%"),
        );
    }
    write_csv(
        "fig03_cpu_timeline",
        &["server", "second", "cpu_pct"],
        &csv_rows,
    );
    s.note("second-granularity utilization hovers near 80% — the millisecond bottlenecks of Fig 12 are invisible at this resolution");
    s
}
