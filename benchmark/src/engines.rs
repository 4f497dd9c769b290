//! Each workload's route from input to output, replayed in-process from the
//! crates' public functions with a span around every call into a layer.
//! The layer names are the crate names (`des`, `ntier`, `trace`, `core`,
//! `repro`); `README.md` lists the functions pinned here.
//!
//! The routes mirror what the binaries do at their defaults. Where one
//! duplicates product code (the zero-copy engine is `fgbd_repro::zerocopy`
//! taken apart so its stages can be timed), its verdict bytes are compared
//! with the product function's, so the copy cannot drift unnoticed.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use fgbd_core::detect::{analyze_server, DetectorConfig, IntervalState, ServerReport};
use fgbd_core::nstar::NStar;
use fgbd_core::online::{OnlineConfig, OnlineDetector, OnlineReport};
use fgbd_core::series::Window;
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorRuntime};
use fgbd_repro::pipeline::{calib_records_from_env, Analysis, Calibration, WORK_UNIT_RESOLUTION};
use fgbd_repro::report::{write_csv, ExperimentSummary};
use fgbd_repro::scenario::{MASTER_SEED, SPEEDSTEP_ON};
use fgbd_repro::zerocopy::analyze_capture2_zero_copy;
use fgbd_trace::capture2::{threads_from_env, ChunkCursor};
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{
    CaptureChunks, CaptureError, ChunkedWriter, MsgRecord, NodeKind, NodeMeta, Projection, SpanSet,
    TailConfig, TailReader, TraceLog,
};

use crate::spans::Recorder;

/// The paper's fine granularity, and `analyze_capture`'s default.
pub const INTERVAL: SimDuration = SimDuration::from_millis(50);

/// One analyzed server, from either detector, ready for the shared renderer.
struct View<'a> {
    name: &'a str,
    loads: &'a [f64],
    rates: &'a [f64],
    states: &'a [IntervalState],
    nstar: Option<&'a NStar>,
}

/// The bytes `analyze_capture --verdicts` writes for these views.
fn render(window: Window, views: &[View<'_>]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in views {
        for line in verdict_lines(v.name, window, v.loads, v.rates, v.states, v.nstar) {
            out.extend_from_slice(line.render().as_bytes());
            out.push(b'\n');
        }
    }
    out
}

fn render_online(window: Window, reports: &[(String, OnlineReport)]) -> Vec<u8> {
    let views: Vec<View<'_>> = reports
        .iter()
        .map(|(name, r)| View {
            name,
            loads: &r.loads,
            rates: &r.rates,
            states: &r.states,
            nstar: r.nstar.as_ref(),
        })
        .collect();
    render(window, &views)
}

/// The calibration prefix of a capture of `n` records.
pub fn prefix_len(n: usize) -> usize {
    n.min(calib_records_from_env())
}

/// Verdict bytes of the product's zero-copy engine, untimed: the reference
/// the CLI outputs and the replayed engines are held to.
pub fn zero_copy_verdicts(path: &Path) -> Result<Vec<u8>, CaptureError> {
    let za = analyze_capture2_zero_copy(path, INTERVAL, threads_from_env())?;
    if za.records == 0 {
        return Ok(Vec::new());
    }
    Ok(render_online(
        Window::new(za.start, za.end, INTERVAL),
        &za.reports,
    ))
}

/// The batch engine (`analyze_capture` without flags, minus its threaded
/// decode front-end): pair spans, calibrate on the prefix, run the batch
/// detector on every server, render.
pub fn batch_engine(rec: &mut Recorder, log: &TraceLog) -> Vec<u8> {
    let (Some(first), Some(last)) = (log.records.first(), log.records.last()) else {
        return Vec::new();
    };
    let spans = rec.span("trace.pair", |_| SpanSet::extract(log));
    let prefix = &log.records[..prefix_len(log.records.len())];
    let cal = rec.span("repro.calibrate", |_| {
        Calibration::from_capture_prefix(&log.nodes, prefix)
    });
    let window = Window::new(first.at, last.at, INTERVAL);
    let cfg = DetectorConfig::default();
    let reports = rec.span("core.analyze", |_| {
        log.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Server && !spans.server(n.id).is_empty())
            .map(|n| {
                let report = analyze_server(
                    spans.server(n.id),
                    n.id,
                    window,
                    &cal.services,
                    cal.work_unit(n.id),
                    &cfg,
                );
                (n.name.as_str(), report)
            })
            .collect::<Vec<_>>()
    });
    let reports: Vec<(&str, &ServerReport)> = reports.iter().map(|(name, r)| (*name, r)).collect();
    rec.span("repro.render", |_| render_batch(window, &reports))
}

/// Verdict bytes for batch-detector reports.
pub fn render_batch(window: Window, reports: &[(&str, &ServerReport)]) -> Vec<u8> {
    let rates: Vec<Vec<f64>> = reports.iter().map(|(_, r)| r.tput.unit_rates()).collect();
    let views: Vec<View<'_>> = reports
        .iter()
        .zip(&rates)
        .map(|((name, r), rates)| View {
            name,
            loads: r.load.values(),
            rates,
            states: &r.states,
            nstar: r.nstar.as_ref(),
        })
        .collect();
    render(window, &views)
}

/// The zero-copy engine (`million_users`' analysis stage): mmap, full-column
/// cursor over the calibration prefix, projected cursor into the online
/// detector with consumed pages released behind the scan.
pub fn zero_copy_engine(rec: &mut Recorder, path: &Path) -> Result<Vec<u8>, CaptureError> {
    let map = rec.span("trace.mmap_open", |_| Mapping::open(path))?;
    map.advise_sequential();
    let mut cursor = ChunkCursor::new(&map)?;
    let nodes: Vec<NodeMeta> = cursor.nodes().to_vec();
    let Some((start_us, end_us)) = cursor.time_bounds() else {
        return Ok(Vec::new());
    };
    let (start, end) = (SimTime::from_micros(start_us), SimTime::from_micros(end_us));

    let cap = calib_records_from_env();
    let prefix = rec.span("trace.cursor_full", |_| -> Result<_, CaptureError> {
        let mut prefix: Vec<MsgRecord> = Vec::new();
        let mut buf = Vec::new();
        while prefix.len() < cap && cursor.next_chunk(&mut buf)? {
            prefix.extend_from_slice(&buf);
        }
        prefix.truncate(cap);
        Ok(prefix)
    })?;
    let cal = rec.span("repro.calibrate", |_| {
        Calibration::from_capture_prefix(&nodes, &prefix)
    });
    drop(prefix);

    let mut det = OnlineDetector::new(
        OnlineConfig::new(start, INTERVAL, WORK_UNIT_RESOLUTION),
        cal.services.clone(),
    );
    for (&node, &wu) in &cal.work_units {
        det.set_work_unit(node, wu);
    }
    let mut cursor = ChunkCursor::new(&map)?
        .with_projection(Projection::DETECT)
        .with_threads(threads_from_env());
    let mut buf = Vec::new();
    while rec.span("trace.cursor_projected", |_| cursor.next_chunk(&mut buf))? {
        rec.span("core.online_push", |_| det.push_chunk(&buf));
        map.release_until(cursor.consumed_bytes());
    }
    let fin = rec.span("core.online_finish", |_| det.finish(end));

    // Node-table order, servers with at least one matched span: the batch
    // engine's report set.
    let mut by_id: HashMap<u16, OnlineReport> =
        fin.reports.into_iter().map(|r| (r.server.0, r)).collect();
    let reports: Vec<(String, OnlineReport)> = nodes
        .iter()
        .filter(|n| n.kind == NodeKind::Server)
        .filter_map(|n| by_id.remove(&n.id.0).map(|r| (n.name.clone(), r)))
        .filter(|(_, r)| r.matched > 0)
        .collect();
    Ok(rec.span("repro.render", |_| {
        render_online(Window::new(start, end, INTERVAL), &reports)
    }))
}

/// The live monitor as `analyze_capture --follow` builds it: service times
/// are unknown until the capture completes, so it runs uncalibrated and
/// labels servers by id. Writes under `out/monitor/` of the cwd.
pub fn follow_monitor(name: &str) -> std::io::Result<MonitorRuntime> {
    let mcfg = MonitorConfig {
        interval: INTERVAL,
        ..MonitorConfig::default()
    };
    let uncalibrated = Calibration {
        services: ServiceTimeTable::new(),
        work_units: HashMap::new(),
        mean_service: HashMap::new(),
    };
    MonitorRuntime::new(name, &mcfg, SimTime::ZERO, &uncalibrated, &[])
}

/// `analyze_capture --follow` on a sealed capture: the tail reader streams
/// whole chunks through the live monitor (uncalibrated, with its event,
/// heartbeat and Prometheus file writes under `out/monitor/` of the cwd)
/// while materializing the log, then the batch engine analyzes it.
pub fn follow_route(rec: &mut Recorder, path: &Path) -> Result<Vec<u8>, CaptureError> {
    let reader = BufReader::new(TailReader::new(File::open(path)?, TailConfig::default()));
    let mut chunks = CaptureChunks::open(reader)?;
    let mut mon = follow_monitor("benchmark_follow")?;
    let mut log = TraceLog::new(chunks.nodes().to_vec());
    while let Some(chunk) = rec.span("trace.chunks_stream", |_| chunks.next()) {
        let chunk = chunk?;
        rec.span("repro.monitor_push", |_| mon.push_chunk(&chunk))?;
        rec.span("trace.materialize", |_| log.records.extend(chunk));
    }
    if let Some(last) = log.records.last() {
        rec.span("repro.monitor_finish", |_| mon.finish(last.at))?;
    }
    Ok(batch_engine(rec, &log))
}

/// `million_users <users> <secs> <path>`: simulate with the record tap
/// streaming into the chunked writer, then the zero-copy engine over the
/// file just written. Simulation and encode interleave inside one call, so
/// they share a span; `ntier.capture_tap_share` and
/// `trace.encode_ns_per_record` split it. Returns records written.
pub fn stream_record_route(
    rec: &mut Recorder,
    users: u32,
    secs: u64,
    path: &Path,
) -> Result<u64, CaptureError> {
    let mut cfg = SystemConfig::paper_1l2s1l2s(users, Jdk::Jdk16, false, MASTER_SEED);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(1);
    let writer = ChunkedWriter::new(BufWriter::new(File::create(path)?), &node_metas(&cfg))?;
    let writer = Arc::new(Mutex::new(Some((writer, 0u64))));
    let sink = Arc::clone(&writer);
    rec.span("ntier.simulate_tap", |_| {
        NTierSystem::run_with_record_tap(cfg, move |r| {
            let mut guard = sink.lock().expect("capture writer lock");
            let (w, n) = guard.as_mut().expect("capture writer live during the run");
            w.push(r).expect("write capture record");
            *n += 1;
        })
    });
    let (w, records) = writer
        .lock()
        .expect("capture writer lock")
        .take()
        .expect("writer still present");
    rec.span("trace.encode_finish", |_| w.finish())?.flush()?;
    zero_copy_engine(rec, path)?;
    Ok(records)
}

/// `fig05_mysql_finegrained --quiet`: calibrate on the scenario's low-load
/// run, simulate workload `users` (7,000 in the figure), pair spans, analyze MySQL over the zoom
/// and the full window, write the CSVs and the summary (under
/// `target/experiments/` of the cwd). Plots are skipped, as `--quiet`
/// skips them.
pub fn fig05_route(rec: &mut Recorder, users: u32) {
    let cal = rec.span("repro.calibrate", |rec| {
        let run = rec.span("ntier.simulate", |_| SPEEDSTEP_ON.calibration_run());
        Calibration::from_run(&run)
    });
    let run = rec.span("ntier.simulate", |_| SPEEDSTEP_ON.run(users));
    let spans = rec.span("trace.pair", |_| SpanSet::extract(&run.log));
    let analysis = Analysis::with_spans(run, spans, cal);
    let cfg = DetectorConfig::default();
    let zoom = analysis.sub_window(
        SimDuration::from_secs(60),
        SimDuration::from_secs(12),
        INTERVAL,
    );
    let (zoom_report, report) = rec.span("core.analyze", |_| {
        (
            analysis.report("mysql-1", zoom, &cfg),
            analysis.report("mysql-1", analysis.window(INTERVAL), &cfg),
        )
    });
    rec.span("repro.render", |_| {
        let ms = analysis.cal.mean_service(zoom_report.server);
        let rows: Vec<Vec<String>> = (0..zoom_report.load.len())
            .map(|i| {
                vec![
                    format!("{:.3}", zoom.mid_secs(i)),
                    format!("{:.3}", zoom_report.load.get(i)),
                    format!("{:.1}", zoom_report.tput.equivalent_rate(i, ms)),
                ]
            })
            .collect();
        write_csv("fig05_zoom", &["t_s", "load", "tput_eq_rps"], &rows);
        let scatter: Vec<Vec<String>> = analysis
            .scatter_points_eq(&report)
            .iter()
            .map(|&(l, t)| vec![format!("{l:.3}"), format!("{t:.1}")])
            .collect();
        write_csv("fig05_scatter", &["load", "tput_eq_rps"], &scatter);
        let mut s = ExperimentSummary::new("fig05");
        s.row(
            "congested intervals (load > N*)",
            "frequent short-term congestion",
            report.congested_intervals(),
        );
        s.save();
    });
}
