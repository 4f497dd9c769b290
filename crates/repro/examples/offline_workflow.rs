//! Offline capture workflow, programmatically: record a run's tap output to
//! a `.fgbdcap` file, read it back, analyze it, and attribute freezes to
//! their originating tier — all without touching the simulator again.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --example offline_workflow
//! ```

use std::io::Cursor;

use fgbd_core::detect::{analyze_server, freeze_origins, DetectorConfig};
use fgbd_core::series::Window;
use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_repro::Calibration;
use fgbd_trace::{read_capture, write_capture2, NodeKind, SpanSet};

fn main() {
    // 1. Record: a GC-afflicted run, captured to an in-memory "file" (use a
    //    real std::fs::File in production).
    let mut cfg = SystemConfig::paper_1l2s1l2s(6_000, Jdk::Jdk15, false, 99);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(30);
    let run = NTierSystem::run(cfg);
    let mut file = Vec::new();
    write_capture2(&mut file, &run.log).expect("serialize capture");
    println!(
        "recorded {} messages into {} bytes ({}B/record)",
        run.log.records.len(),
        file.len(),
        file.len() / run.log.records.len().max(1)
    );

    // 2. Reload: the analysis side sees only the file.
    let log = read_capture(Cursor::new(&file)).expect("parse capture");
    let spans = SpanSet::extract(&log);
    let cal = Calibration::from_run(&run); // or a dedicated low-load capture

    // 3. Analyze every server on one grid, grouped by tier.
    let start = log.records.first().expect("non-empty").at;
    let end = log.records.last().expect("non-empty").at;
    let window = Window::new(start, end, SimDuration::from_millis(50));
    let cfg = DetectorConfig::default();
    let mut tiers: Vec<Vec<(String, fgbd_core::detect::ServerReport)>> = Vec::new();
    for meta in log.nodes.iter().filter(|n| n.kind == NodeKind::Server) {
        let tier = usize::from(meta.tier.unwrap_or(0));
        while tiers.len() <= tier {
            tiers.push(Vec::new());
        }
        let report = analyze_server(
            spans.server(meta.id),
            meta.id,
            window,
            &cal.services,
            cal.work_unit(meta.id),
            &cfg,
        );
        println!("  {}", report.render_summary(&meta.name));
        tiers[tier].push((meta.name.clone(), report));
    }

    // 4. Attribute freezes to their origin tier: upstream servers that
    //    freeze only while a deeper tier is frozen are push-back victims.
    let by_tier: Vec<Vec<&fgbd_core::detect::ServerReport>> = tiers
        .iter()
        .map(|t| t.iter().map(|(_, r)| r).collect())
        .collect();
    let origins = freeze_origins(&by_tier);
    println!("\nfreeze-origin attribution (frozen intervals originating per server):");
    for (tier, tier_reports) in tiers.iter().enumerate() {
        for (j, (name, report)) in tier_reports.iter().enumerate() {
            println!(
                "  {name:<10} tier {tier}: {} frozen, {} originating here",
                report.frozen_intervals(),
                origins[tier][j]
            );
        }
    }
    println!("\n=> the deepest tier with originating freezes hosts the stop-the-world culprit (the JDK 1.5 JVMs)");
}
