//! Integration coverage of the live monitor.
//!
//! Two things are pinned here. `--quiet` must mute the *console* log sink
//! only — the monitor's heartbeat and verdict JSONL files plus the
//! Prometheus exposition are machine-readable artifacts and keep being
//! written under quiet mode. And the monitor attached to a real run (what
//! the `live_monitor` binary does) ends on the batch detector's verdicts,
//! bit for bit.

use std::collections::HashMap;
use std::sync::Mutex;

use fgbd_core::detect::{analyze_server, DetectorConfig};
use fgbd_core::series::Window;
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_obsv::json::Json;
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorRuntime};
use fgbd_repro::pipeline::Calibration;
use fgbd_repro::scenario::GC_JDK15;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, SpanSet, TraceLog};

fn synthetic_calibration() -> Calibration {
    Calibration {
        services: ServiceTimeTable::new(),
        work_units: HashMap::new(),
        mean_service: HashMap::new(),
    }
}

/// One request/response pair on `conn` at `at_us`, lasting `dur_us`.
fn pair(at_us: u64, dur_us: u64, conn: u32) -> [MsgRecord; 2] {
    let req = MsgRecord {
        at: SimTime::from_micros(at_us),
        src: NodeId(0),
        dst: NodeId(1),
        kind: MsgKind::Request,
        conn: ConnId(conn),
        class: ClassId(0),
        bytes: 64,
        truth: None,
    };
    let resp = MsgRecord {
        at: SimTime::from_micros(at_us + dur_us),
        src: NodeId(1),
        dst: NodeId(0),
        kind: MsgKind::Response,
        ..req
    };
    [req, resp]
}

/// Both tests flip the process-wide quiet switch; the harness runs them
/// on parallel threads.
static QUIET_SWITCH: Mutex<()> = Mutex::new(());

#[test]
fn quiet_mode_still_writes_monitor_telemetry() {
    let _switch = QUIET_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    fgbd_obsv::set_quiet(true);
    let mcfg = MonitorConfig {
        interval: SimDuration::from_micros(2_000),
        heartbeat: SimDuration::from_micros(5_000),
    };
    let cal = synthetic_calibration();
    let mut mon = MonitorRuntime::new("test_quiet_regression", &mcfg, SimTime::ZERO, &cal, &[])
        .expect("create monitor outputs");
    // 100 ms of traffic: far past several heartbeat periods.
    for i in 0..200u64 {
        for rec in pair(i * 500, 400, (i % 4) as u32) {
            mon.push(&rec).expect("monitor write under quiet mode");
        }
    }
    let heartbeats = mon.heartbeats();
    let reports = mon
        .finish(SimTime::from_micros(110_000))
        .expect("finish under quiet mode");
    fgbd_obsv::set_quiet(false);

    assert_eq!(reports.len(), 1);
    assert!(heartbeats > 0, "sim-time pacing must have fired heartbeats");
    for (file, must_have_content) in [
        ("out/monitor/test_quiet_regression.heartbeats.jsonl", true),
        ("out/monitor/test_quiet_regression.prom", true),
        // Verdicts depend on classification; the file just has to exist.
        ("out/monitor/test_quiet_regression.events.jsonl", false),
    ] {
        let meta = std::fs::metadata(file)
            .unwrap_or_else(|e| panic!("{file} missing under quiet mode: {e}"));
        if must_have_content {
            assert!(meta.len() > 0, "{file} empty under quiet mode");
        }
    }
}

fn rendered(lines: &[Json]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        out.extend_from_slice(line.render().as_bytes());
        out.push(b'\n');
    }
    out
}

/// The record tap of one seed-20130708 run feeds a scenario-calibrated
/// [`MonitorRuntime`] and, beside it, a [`TraceLog`]; the monitor's final
/// reports must equal `SpanSet::extract` + `analyze_server` over that log —
/// the rendered verdict bytes, and every load, rate and N\* by bits.
#[test]
fn tap_fed_monitor_final_verdicts_equal_batch() {
    // Keeps a hundred onset/clear lines out of the test output.
    let _switch = QUIET_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    fgbd_obsv::set_quiet(true);
    // Short, but loaded enough that the JDK 1.5 collector freezes Tomcat —
    // so the verdict stream is not empty.
    let mut cfg = GC_JDK15.config(3_000);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(9);
    let cal = Calibration::for_scenario(&GC_JDK15);
    let nodes = node_metas(&cfg);
    let mcfg = MonitorConfig::default();
    let mut monitor = MonitorRuntime::new(
        "test_tap_fed_monitor",
        &mcfg,
        SimTime::ZERO + cfg.warmup,
        &cal,
        &nodes,
    )
    .expect("create monitor outputs");

    let mut log = TraceLog::new(nodes.clone());
    let run = NTierSystem::run_with_record_tap(cfg, |rec| {
        monitor.push(&rec).expect("monitor telemetry write");
        log.push(rec);
    });
    let reports = monitor.finish(run.horizon).expect("finish monitor");
    fgbd_obsv::set_quiet(false);

    let spans = SpanSet::extract(&log);
    let window = Window::new(run.warmup_end, run.horizon, mcfg.interval);
    let (mut online, mut batch) = (Vec::new(), Vec::new());
    assert!(!reports.is_empty());
    for rep in &reports {
        let name = &nodes
            .iter()
            .find(|m| m.id == rep.server)
            .expect("a known server")
            .name;
        let reference = analyze_server(
            spans.server(rep.server),
            rep.server,
            window,
            &cal.services,
            cal.work_unit(rep.server),
            &DetectorConfig::default(),
        );
        let rates = reference.tput.unit_rates();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(rep.window, window, "{name}");
        assert_eq!(bits(&rep.loads), bits(reference.load.values()), "{name}");
        assert_eq!(bits(&rep.rates), bits(&rates), "{name}");
        assert_eq!(rep.states, reference.states, "{name}");
        let nstar_bits = |n: &fgbd_core::nstar::NStar| (n.nstar.to_bits(), n.tp_max.to_bits());
        assert_eq!(
            rep.nstar.as_ref().map(nstar_bits),
            reference.nstar.as_ref().map(nstar_bits),
            "{name}"
        );
        online.extend(verdict_lines(
            name,
            rep.window,
            &rep.loads,
            &rep.rates,
            &rep.states,
            rep.nstar.as_ref(),
        ));
        batch.extend(verdict_lines(
            name,
            window,
            reference.load.values(),
            &rates,
            &reference.states,
            reference.nstar.as_ref(),
        ));
    }
    assert!(!batch.is_empty(), "the run must produce verdict lines");
    assert!(
        rendered(&online) == rendered(&batch),
        "verdicts differ from the batch detector's"
    );
}
