//! Capacity planning with transient-bottleneck awareness.
//!
//! The paper's motivation: clouds run at conservative average utilization
//! because response times degrade long before any resource *looks*
//! saturated. This example sweeps the workload and reports, per level,
//! what a coarse monitor sees (mean CPU%) next to what the fine-grained
//! detector sees (congestion frequency and the >2 s SLA violation rate) —
//! showing where the safe operating point actually is.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --example capacity_planning
//! ```

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_repro::{Analysis, Calibration};

fn main() {
    let mut cal_cfg = SystemConfig::paper_1l2s1l2s(300, Jdk::Jdk16, true, 17);
    cal_cfg.warmup = SimDuration::from_secs(3);
    cal_cfg.duration = SimDuration::from_secs(20);
    let cal = Calibration::from_run(&NTierSystem::run(cal_cfg));

    println!(
        "{:>6} | {:>9} | {:>10} | {:>11} | {:>12} | {:>9}",
        "users", "tput/s", "mysql cpu%", "tomcat cpu%", "congested%", ">2s SLA%"
    );
    println!("{}", "-".repeat(74));
    for users in [2_000u32, 4_000, 6_000, 8_000, 10_000] {
        let mut cfg = SystemConfig::paper_1l2s1l2s(users, Jdk::Jdk16, true, 17);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(30);
        let run = NTierSystem::run(cfg);
        let mysql_cpu = run.mean_cpu_util(run.server_index("mysql-1").expect("mysql")) * 100.0;
        let tomcat_cpu = run.mean_cpu_util(run.server_index("tomcat-1").expect("tomcat")) * 100.0;
        let sla = run.frac_slow() * 100.0;
        let tput = run.throughput();

        let analysis = Analysis::new(run, Calibration::clone(&cal));
        let window = analysis.window(SimDuration::from_millis(50));
        let report = analysis.report("mysql-1", window, &DetectorConfig::default());
        let congested =
            100.0 * report.congested_intervals() as f64 / report.states.len().max(1) as f64;
        println!(
            "{users:>6} | {tput:>9.0} | {mysql_cpu:>10.1} | {tomcat_cpu:>11.1} | {congested:>12.1} | {sla:>9.2}"
        );
    }
    println!(
        "\ncoarse CPU% looks safe well past the point where congestion frequency and\n\
         SLA violations take off — size capacity by transient-bottleneck frequency,\n\
         not average utilization (the paper's §I argument)."
    );
}
