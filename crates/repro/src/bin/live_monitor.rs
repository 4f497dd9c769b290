//! A scenario with the live bottleneck monitor attached: every capture
//! record is handed straight from the simulator to the streaming monitor
//! ([`fgbd_repro::monitor`]). No span is held past its close: memory is the
//! requests in flight plus 24 B per finalized interval per server.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin live_monitor -- \
//!     [scenario] [users] [seconds] [--quiet]
//! ```
//!
//! Outputs under `out/monitor/`:
//!
//! * `live_monitor.events.jsonl` — one line per online onset/clear verdict;
//! * `live_monitor.heartbeats.jsonl` / `live_monitor.prom` — periodic
//!   telemetry snapshots;
//! * `live_monitor.final.jsonl` — the final congested-interval verdicts,
//!   re-classified with the full-run N\*. They are bit-for-bit the batch
//!   detector's over the same records; `tests/live_monitor.rs` holds that
//!   on a real run.

use fgbd_des::{SimDuration, SimTime};
use fgbd_obsv::json::Json;
use fgbd_obsv::jsonl::JsonlWriter;
use fgbd_repro::harness::{fail_path, number_arg};
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorRuntime};
use fgbd_repro::pipeline::Calibration;
use fgbd_repro::scenario::{Scenario, GC_JDK15, GC_JDK16, SPEEDSTEP_OFF, SPEEDSTEP_ON};

fn scenario_named(name: &str) -> &'static Scenario {
    match name {
        "speedstep_on" => &SPEEDSTEP_ON,
        "speedstep_off" => &SPEEDSTEP_OFF,
        "gc_jdk15" => &GC_JDK15,
        "gc_jdk16" => &GC_JDK16,
        other => {
            eprintln!("live_monitor: unknown scenario {other}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "live_monitor [scenario] [users] [seconds] [--quiet]";
const FINAL: &str = "out/monitor/live_monitor.final.jsonl";

fn main() {
    let args = fgbd_repro::harness::parse_std_flags();
    let scenario = args.first().map_or(&SPEEDSTEP_ON, |n| scenario_named(n));
    let users: u32 = number_arg(&args, 1, 600, USAGE);
    let seconds: u64 = number_arg(&args, 2, 20, USAGE);
    let fail = |path: &str, e: std::io::Error| -> ! { fail_path("live_monitor", path, e) };

    let mut scope = fgbd_repro::harness::begin("live_monitor");
    scope.field("scenario", Json::Str(scenario.name.into()));
    scope.field("users", Json::Num(f64::from(users)));
    scope.field("seconds", Json::Num(seconds as f64));
    let _root = fgbd_obsv::span::enter("live_monitor");

    let cal = Calibration::for_scenario(scenario);
    let mut cfg = scenario.config(users);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(seconds);
    let nodes = fgbd_ntier::system::node_metas(&cfg);
    let start = SimTime::ZERO + cfg.warmup;
    let mut runtime = MonitorRuntime::new(
        "live_monitor",
        &MonitorConfig::default(),
        start,
        &cal,
        &nodes,
    )
    .unwrap_or_else(|e| fail("out/monitor", e));

    let run = {
        fgbd_obsv::span!("simulate");
        fgbd_ntier::system::NTierSystem::run_with_record_tap(cfg, |rec| {
            runtime
                .push(&rec)
                .unwrap_or_else(|e| fail("out/monitor", e));
        })
    };
    let reports = {
        fgbd_obsv::span!("monitor_finish");
        runtime
            .finish(run.horizon)
            .unwrap_or_else(|e| fail("out/monitor", e))
    };

    fgbd_obsv::log!(
        "live_monitor",
        "\n{:<12} {:>10} {:>10} {:>10} {:>10}",
        "server",
        "N*",
        "congested",
        "frozen",
        "live_cong"
    );
    let mut final_log = JsonlWriter::create(FINAL).unwrap_or_else(|e| fail(FINAL, e));
    for rep in &reports {
        // `node_metas` names every node, its id the table index.
        let name = &nodes[usize::from(rep.server.0)].name;
        for line in verdict_lines(
            name,
            rep.window,
            &rep.loads,
            &rep.rates,
            &rep.states,
            rep.nstar.as_ref(),
        ) {
            final_log.write(&line).unwrap_or_else(|e| fail(FINAL, e));
        }
        fgbd_obsv::log!(
            "live_monitor",
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            name,
            rep.nstar
                .as_ref()
                .map_or("n/a".to_string(), |n| format!("{:.1}", n.nstar)),
            rep.congested_intervals(),
            rep.frozen_intervals(),
            rep.live_congested
        );
    }
    for artifact in [
        "out/monitor/live_monitor.events.jsonl",
        "out/monitor/live_monitor.heartbeats.jsonl",
        "out/monitor/live_monitor.prom",
        FINAL,
    ] {
        scope.artifact(artifact);
    }

    fgbd_obsv::log!(
        "live_monitor",
        "\n=> {} online verdicts, {} heartbeats, {} servers",
        fgbd_obsv::metrics::counter("monitor.verdicts").get(),
        fgbd_obsv::metrics::counter("monitor.heartbeats").get(),
        reports.len()
    );
    scope.field("servers", Json::Num(reports.len() as f64));
    drop(_root);
    scope.finish();
}
