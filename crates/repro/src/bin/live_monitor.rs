//! End-to-end live bottleneck monitoring: runs a scenario with every
//! capture record teed straight into the streaming monitor
//! ([`fgbd_repro::monitor`]), then proves the online verdicts against the
//! batch detector run over the same (materialized) capture.
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
//! * `live_monitor.final.jsonl` / `live_monitor.batch.jsonl` — the final
//!   congested-interval verdicts from the online and batch paths through
//!   the same renderer. With retention on (the default) the two files are
//!   **byte-identical**; CI `cmp`s them at the master seed, and this
//!   binary exits non-zero itself on any bitwise divergence.

use std::sync::{Arc, Mutex};

use fgbd_core::detect::{analyze_server, DetectorConfig};
use fgbd_core::series::Window;
use fgbd_des::{SimDuration, SimTime};
use fgbd_obsv::json::Json;
use fgbd_obsv::jsonl::JsonlWriter;
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorRuntime};
use fgbd_repro::pipeline::Calibration;
use fgbd_repro::scenario::{Scenario, GC_JDK15, GC_JDK16, SPEEDSTEP_OFF, SPEEDSTEP_ON};
use fgbd_trace::{NodeId, SpanSet, TraceLog};

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

fn main() {
    let args = fgbd_repro::harness::parse_std_flags();
    let scenario = args.first().map_or(&SPEEDSTEP_ON, |n| scenario_named(n));
    let users: u32 = args
        .get(1)
        .map_or(Ok(600), |s| s.parse())
        .expect("users must be a number");
    let seconds: u64 = args
        .get(2)
        .map_or(Ok(20), |s| s.parse())
        .expect("seconds must be a number");

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
    let mcfg = MonitorConfig::from_env();
    let start = SimTime::ZERO + cfg.warmup;
    let runtime = MonitorRuntime::new("live_monitor", &mcfg, start, &cal, &nodes)
        .expect("create monitor outputs under out/monitor/");

    // Tee every record inline on the simulation thread: into the monitor
    // (detection) and into a materialized log (the batch baseline). The
    // DES delivers records single-threaded, so the mutex is uncontended.
    let tee = Arc::new(Mutex::new((runtime, TraceLog::new(nodes.clone()))));
    let tap = Arc::clone(&tee);
    let run = {
        fgbd_obsv::span!("simulate");
        fgbd_ntier::system::NTierSystem::run_with_record_tap(cfg, move |rec| {
            let mut tee = tap.lock().unwrap();
            tee.0.push(&rec).expect("monitor telemetry write");
            tee.1.push(rec);
        })
    };
    let (runtime, log) = Arc::try_unwrap(tee)
        .expect("record tap released")
        .into_inner()
        .unwrap();
    let reports = {
        fgbd_obsv::span!("monitor_finish");
        runtime.finish(run.horizon).expect("finish monitor")
    };

    // Batch baseline over the same capture, same calibration, same grid.
    let spans = {
        fgbd_obsv::span!("batch_baseline");
        SpanSet::extract(&log)
    };
    let window = Window::new(run.warmup_end, run.horizon, mcfg.interval);
    let dcfg = DetectorConfig::default();
    let name_of = |node: NodeId| {
        nodes
            .iter()
            .find(|m| m.id == node)
            .map_or_else(|| format!("server-{}", node.0), |m| m.name.clone())
    };

    let mut online_lines = Vec::new();
    let mut batch_lines = Vec::new();
    let mut mismatches = 0usize;
    fgbd_obsv::log!(
        "live_monitor",
        "\n{:<12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "server",
        "N*",
        "congested",
        "frozen",
        "live_cong",
        "match"
    );
    for rep in &reports {
        let name = name_of(rep.server);
        let batch = analyze_server(
            spans.server(rep.server),
            rep.server,
            window,
            &cal.services,
            cal.work_unit(rep.server),
            &dcfg,
        );
        let rates = batch.tput.unit_rates();
        let mut ok = mcfg.retain;
        if mcfg.retain {
            ok &= rep.loads.len() == batch.load.len()
                && rep
                    .loads
                    .iter()
                    .zip(batch.load.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            ok &= rep
                .rates
                .iter()
                .zip(&rates)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            ok &= rep.states == batch.states;
            ok &= match (&rep.nstar, &batch.nstar) {
                (Some(a), Some(b)) => {
                    a.nstar.to_bits() == b.nstar.to_bits()
                        && a.tp_max.to_bits() == b.tp_max.to_bits()
                }
                (a, b) => a.is_none() && b.is_none(),
            };
            if !ok {
                mismatches += 1;
                eprintln!("live_monitor: ONLINE/BATCH DIVERGENCE at {name}");
            }
            online_lines.extend(verdict_lines(
                &name,
                rep.window,
                &rep.loads,
                &rep.rates,
                &rep.states,
                rep.nstar.as_ref(),
            ));
            batch_lines.extend(verdict_lines(
                &name,
                window,
                batch.load.values(),
                &rates,
                &batch.states,
                batch.nstar.as_ref(),
            ));
        }
        fgbd_obsv::log!(
            "live_monitor",
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>8}",
            name,
            batch
                .nstar
                .as_ref()
                .map_or("n/a".to_string(), |n| format!("{:.1}", n.nstar)),
            batch.congested_intervals(),
            batch.frozen_intervals(),
            rep.live_congested,
            if mcfg.retain {
                if ok {
                    "bit="
                } else {
                    "DIFF"
                }
            } else {
                "n/a"
            }
        );
    }

    // The two verdict streams through the shared renderer: CI byte-compares
    // these files.
    let write_lines = |file: &str, lines: &[Json]| {
        let mut w =
            JsonlWriter::create(format!("out/monitor/{file}")).expect("create verdict file");
        for l in lines {
            w.write(l).expect("write verdict line");
        }
    };
    write_lines("live_monitor.final.jsonl", &online_lines);
    write_lines("live_monitor.batch.jsonl", &batch_lines);
    for artifact in [
        "out/monitor/live_monitor.events.jsonl",
        "out/monitor/live_monitor.heartbeats.jsonl",
        "out/monitor/live_monitor.prom",
        "out/monitor/live_monitor.final.jsonl",
        "out/monitor/live_monitor.batch.jsonl",
    ] {
        scope.artifact(artifact);
    }

    let verdicts = fgbd_obsv::metrics::counter("monitor.verdicts").get();
    let heartbeats = fgbd_obsv::metrics::counter("monitor.heartbeats").get();
    fgbd_obsv::log!(
        "live_monitor",
        "\n=> {} online verdicts, {} heartbeats, {} servers; online vs batch: {}",
        verdicts,
        heartbeats,
        reports.len(),
        if !mcfg.retain {
            "not checked (retention off)".to_string()
        } else if mismatches == 0 {
            "bit-identical".to_string()
        } else {
            format!("{mismatches} DIVERGENT servers")
        }
    );
    scope.field("servers", Json::Num(reports.len() as f64));
    scope.field("mismatches", Json::Num(mismatches as f64));
    drop(_root);
    scope.finish();
    if mismatches > 0 {
        std::process::exit(1);
    }
}
