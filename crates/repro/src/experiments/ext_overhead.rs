//! **Extension: the cost of fine-grained sampling.** §I's argument for
//! passive tracing: on-host monitors "incur very high overhead at
//! sub-second sampling intervals (about 6% CPU utilization overhead at
//! 100 ms interval and 12% at 20 ms)". This experiment injects exactly that
//! overhead into every server and measures what it does to the system at
//! WL 8,000 — the overhead of *observing* transient bottlenecks with
//! sampling tools creates more of them.

use fgbd_des::SimDuration;
use fgbd_metrics::sampling_overhead_frac;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;

use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::MASTER_SEED;

/// Runs WL 8,000 with monitors of different sampling periods installed.
pub fn run() -> ExperimentSummary {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, period) in [
        ("passive tracing", None),
        ("1s sampler", Some(SimDuration::from_secs(1))),
        ("100ms sampler", Some(SimDuration::from_millis(100))),
        ("20ms sampler", Some(SimDuration::from_millis(20))),
    ] {
        let overhead = period.map_or(0.0, sampling_overhead_frac);
        let mut cfg = SystemConfig::paper_1l2s1l2s(8_000, Jdk::Jdk16, true, MASTER_SEED)
            .with_monitoring_overhead(overhead);
        cfg.capture = false;
        let run = NTierSystem::run(cfg);
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", overhead),
            format!("{:.1}", run.throughput()),
            format!("{:.4}", run.mean_response_time()),
            format!("{:.5}", run.frac_slow()),
        ]);
        results.push((label, overhead, run));
    }
    write_csv(
        "ext_overhead",
        &[
            "monitor",
            "overhead_frac",
            "tput_tps",
            "mean_rt_s",
            "frac_rt_over_2s",
        ],
        &rows,
    );

    let base_rt = results[0].2.mean_response_time();
    let base_slow = results[0].2.frac_slow();
    let mut s = ExperimentSummary::new("ext_overhead");
    for (label, overhead, run) in &results[1..] {
        s.row(
            &format!("{label} ({:.0}% CPU overhead)", overhead * 100.0),
            "degrades RT / SLA vs passive tracing",
            format!(
                "rt {:.0} ms (x{:.2}), >2s {:.2}% (vs {:.2}%)",
                run.mean_response_time() * 1e3,
                run.mean_response_time() / base_rt.max(1e-9),
                run.frac_slow() * 100.0,
                base_slow * 100.0
            ),
        );
    }
    s.row(
        "passive tracing baseline",
        "negligible server-side cost",
        format!("rt {:.0} ms, >2s {:.2}%", base_rt * 1e3, base_slow * 100.0),
    );
    s.note("fine-grained sampling perturbs the very system it observes; passive tracing gets 50 ms visibility for free (§I)");
    s
}
