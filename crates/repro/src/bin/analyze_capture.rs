//! Offline analysis of a recorded `.fgbdcap` capture — the consumer half of
//! the workflow: reads the file, derives service times from the capture's
//! own quietest stretch, runs the 50 ms transient-bottleneck analysis on
//! every server, and prints the verdicts.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin analyze_capture -- \
//!     capture.fgbdcap [interval_ms] [--follow] [--verdicts out.jsonl] [--quiet]
//! ```
//!
//! Two engines produce the (byte-identical) report:
//!
//! * **batch** (default): the capture is materialized as a `TraceLog`,
//!   spans are extracted, and each server runs the batch detector;
//! * **zero-copy** (`FGBD_CAPTURE_MMAP=1`, `FGBDCAP2` captures): the file
//!   is memory-mapped and a lazy chunk cursor streams projected columns
//!   straight into the online detector — peak memory stays flat no matter
//!   how large the capture is (see [`fgbd_repro::zerocopy`]).
//!
//! Both engines calibrate service times over the same bounded record
//! prefix (`FGBD_CALIB_RECORDS`, default 1 Mi), so their verdicts agree
//! byte for byte — CI diffs them.
//!
//! `--follow` tails a capture that is **still being written** (a growing
//! file, or a FIFO fed by a live writer): whole chunks are decoded as
//! their bytes land and pushed through the streaming monitor pipeline
//! ([`fgbd_repro::monitor`]), printing provisional onset/clear verdicts
//! incrementally; once the writer's footer appears (or the
//! `FGBD_FOLLOW_IDLE_MS` budget runs dry) the standard analysis runs over
//! the complete capture — zero-copy over the now-sealed file when
//! `FGBD_CAPTURE_MMAP=1`, batch otherwise. `--verdicts PATH` additionally
//! writes the final congested-interval verdicts as JSON lines —
//! byte-identical whether the capture was read batch, tailed, or
//! memory-mapped, which CI exploits.
//!
//! A run manifest is written to `out/manifests/analyze_capture.*`.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use fgbd_core::detect::{analyze_server, DetectorConfig, IntervalState};
use fgbd_core::nstar::NStar;
use fgbd_core::series::Window;
use fgbd_des::{SimDuration, SimTime};
use fgbd_obsv::json::Json;
use fgbd_obsv::jsonl::JsonlWriter;
use fgbd_repro::harness::RunScope;
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorRuntime};
use fgbd_repro::pipeline::{calib_records_from_env, Calibration, WORK_UNIT_RESOLUTION};
use fgbd_repro::zerocopy::{analyze_capture2_zero_copy, is_capture2};
use fgbd_trace::capture2::threads_from_env;
use fgbd_trace::mmapio::mmap_from_env;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{
    read_capture_file, wait_for_file, CaptureChunks, NodeId, NodeKind, SpanSet, TailConfig,
    TailReader, TraceLog,
};

/// One rendered table row plus the series the verdict stream needs —
/// built from a batch `ServerReport` or a zero-copy `OnlineReport`, so
/// both engines share one renderer (and therefore one output format).
struct ReportView {
    name: String,
    server: NodeId,
    spans: usize,
    congested: usize,
    frozen: usize,
    ratio: f64,
    nstar: Option<NStar>,
    loads: Vec<f64>,
    rates: Vec<f64>,
    states: Vec<IntervalState>,
}

/// What either engine hands the renderer: capture shape plus per-server
/// views (node-table order, servers with spans only).
struct AnalysisOutput {
    nodes: usize,
    records: u64,
    bounds: Option<(SimTime, SimTime)>,
    views: Vec<ReportView>,
}

fn main() {
    let mut args = fgbd_repro::harness::parse_std_flags();
    let follow = if let Some(i) = args.iter().position(|a| a == "--follow") {
        args.remove(i);
        true
    } else {
        false
    };
    let verdicts_path = args.iter().position(|a| a == "--verdicts").map(|i| {
        args.remove(i);
        if i < args.len() {
            args.remove(i)
        } else {
            eprintln!("analyze_capture: --verdicts needs a path");
            std::process::exit(2);
        }
    });
    let Some(path) = args.first() else {
        eprintln!(
            "usage: analyze_capture <capture.fgbdcap> [interval_ms] [--follow] [--verdicts out.jsonl]"
        );
        std::process::exit(2);
    };
    let interval_ms: u64 = args
        .get(1)
        .map_or(Ok(50), |s| s.parse())
        .expect("interval must be milliseconds");
    let interval = SimDuration::from_millis(interval_ms.max(1));

    let mut scope = fgbd_repro::harness::begin("analyze_capture");
    scope.field("capture", Json::Str(path.clone()));
    scope.field("interval_ms", Json::Num(interval_ms as f64));
    scope.field("follow", Json::Bool(follow));
    let _root = fgbd_obsv::span::enter("analyze_capture");

    // Pick the engine. `--follow` tails first (live provisional verdicts),
    // then analyzes the sealed file; a materialized log from the tail is
    // reused by the batch engine, while under FGBD_CAPTURE_MMAP the tail
    // skips materializing entirely and the zero-copy engine re-reads the
    // (now complete) file through the chunk cursor.
    let out = if follow {
        match tail_capture(Path::new(path), interval_ms) {
            Some(log) => analyze_batch(log, interval),
            None => analyze_zero_copy(Path::new(path), interval),
        }
    } else if mmap_from_env() && is_capture2(Path::new(path)) {
        analyze_zero_copy(Path::new(path), interval)
    } else {
        let log = read_capture_file(Path::new(path)).expect("parse capture");
        analyze_batch(log, interval)
    };

    fgbd_obsv::log!(
        "analyze_capture",
        "capture: {} nodes, {} messages",
        out.nodes,
        out.records
    );
    let Some((start, end)) = out.bounds else {
        fgbd_obsv::log!("analyze_capture", "empty capture — nothing to analyze");
        drop(_root);
        scope.finish();
        return;
    };
    let window = Window::new(start, end, interval);
    render_report(
        &out.views,
        window,
        interval_ms,
        start,
        end,
        verdicts_path,
        &mut scope,
    );

    scope.field("servers", Json::Num(out.views.len() as f64));
    drop(_root);
    scope.finish();
}

/// Batch engine: extract spans, calibrate service times over the bounded
/// record prefix (the same prefix the zero-copy engine uses, so the two
/// agree), then one batch detector per server, fanned across cores.
fn analyze_batch(log: TraceLog, interval: SimDuration) -> AnalysisOutput {
    let spans = SpanSet::extract(&log);
    let records = log.records.len() as u64;
    let Some(end) = log.records.last().map(|r| r.at) else {
        return AnalysisOutput {
            nodes: log.nodes.len(),
            records: 0,
            bounds: None,
            views: Vec::new(),
        };
    };
    let start = log.records.first().map(|r| r.at).expect("non-empty");

    // Service-time calibration from the capture itself: reconstruct and
    // approximate with a low quantile (the offline stand-in for a dedicated
    // low-load calibration run), over at most FGBD_CALIB_RECORDS records.
    let prefix = log.records.len().min(calib_records_from_env());
    let cal = Calibration::from_capture_prefix(&log.nodes, &log.records[..prefix]);

    let window = Window::new(start, end, interval);
    let cfg = DetectorConfig::default();

    // One worker per server: the per-server analyses are independent, so
    // they fan out across cores and the table prints afterwards in node
    // order.
    let metas: Vec<_> = log
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::Server && !spans.server(n.id).is_empty())
        .collect();
    let views: Vec<ReportView> = fgbd_repro::par::par_map(&metas, |meta| {
        let report = analyze_server(
            spans.server(meta.id),
            meta.id,
            window,
            &cal.services,
            cal.work_units
                .get(&meta.id)
                .copied()
                .unwrap_or(WORK_UNIT_RESOLUTION),
            &cfg,
        );
        ReportView {
            name: meta.name.clone(),
            server: meta.id,
            spans: spans.server(meta.id).len(),
            congested: report.congested_intervals(),
            frozen: report.frozen_intervals(),
            ratio: report.congestion_ratio(),
            nstar: report.nstar.clone(),
            loads: report.load.values().to_vec(),
            rates: report.tput.unit_rates(),
            states: report.states,
        }
    });
    AnalysisOutput {
        nodes: log.nodes.len(),
        records,
        bounds: Some((start, end)),
        views,
    }
}

/// Zero-copy engine: mmap + lazy projected chunk decode through the
/// online detector (see [`fgbd_repro::zerocopy`]). The reports are
/// bit-identical to the batch engine's.
fn analyze_zero_copy(path: &Path, interval: SimDuration) -> AnalysisOutput {
    let za = analyze_capture2_zero_copy(path, interval, threads_from_env()).expect("parse capture");
    let views = za
        .reports
        .into_iter()
        .map(|(name, rep)| ReportView {
            name,
            server: rep.server,
            spans: rep.matched as usize,
            congested: rep.congested_intervals(),
            frozen: rep.frozen_intervals(),
            ratio: rep.congestion_ratio(),
            nstar: rep.nstar,
            loads: rep.loads,
            rates: rep.rates,
            states: rep.states,
        })
        .collect();
    AnalysisOutput {
        nodes: za.nodes.len(),
        records: za.records,
        bounds: (za.records > 0).then_some((za.start, za.end)),
        views,
    }
}

/// The shared report renderer: table, ranking, verdict stream. One code
/// path for both engines means the bytes cannot drift apart.
fn render_report(
    views: &[ReportView],
    window: Window,
    interval_ms: u64,
    start: SimTime,
    end: SimTime,
    verdicts_path: Option<String>,
    scope: &mut RunScope,
) {
    fgbd_obsv::log!(
        "analyze_capture",
        "\n{:<12} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "server",
        "spans",
        "N*",
        "congested",
        "frozen",
        "ratio%"
    );
    for v in views {
        fgbd_obsv::log!(
            "analyze_capture",
            "{:<12} {:>8} {:>10} {:>10} {:>8} {:>8.1}",
            v.name,
            v.spans,
            v.nstar
                .as_ref()
                .map_or("n/a".to_string(), |n| format!("{:.1}", n.nstar)),
            v.congested,
            v.frozen,
            v.ratio * 100.0
        );
    }

    // `rank_bottlenecks` inlined over the views (it takes `ServerReport`s,
    // which the zero-copy engine never builds): same stable descending
    // sort on congestion ratio.
    let mut ranked: Vec<(NodeId, f64)> = views.iter().map(|v| (v.server, v.ratio)).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ratio is finite"));
    if let Some((top, ratio)) = ranked.first() {
        let name = views
            .iter()
            .find(|v| v.server == *top)
            .map_or("?", |v| v.name.as_str());
        fgbd_obsv::log!(
            "analyze_capture",
            "\n=> most frequently congested server: {name} ({:.1}% of active {interval_ms} ms intervals)",
            ratio * 100.0
        );
        let frozen: usize = views.iter().map(|v| v.frozen).sum();
        if frozen > 0 {
            fgbd_obsv::log!(
                "analyze_capture",
                "   {frozen} frozen (POI) intervals across servers — look for stop-the-world events (e.g. JVM GC)"
            );
        }
    }
    let analyzed_until = SimTime::from_micros(end.as_micros());
    fgbd_obsv::log!(
        "analyze_capture",
        "   analyzed window: {} .. {} at {interval_ms} ms granularity",
        start,
        analyzed_until
    );

    // Final verdict stream through the shared renderer — the same bytes
    // whether the capture was read batch, tailed with `--follow`, or
    // memory-mapped.
    if let Some(vpath) = verdicts_path {
        let mut w = JsonlWriter::create(&vpath).expect("create verdicts file");
        for v in views {
            for line in verdict_lines(
                &v.name,
                window,
                &v.loads,
                &v.rates,
                &v.states,
                v.nstar.as_ref(),
            ) {
                w.write(&line).expect("write verdict line");
            }
        }
        fgbd_obsv::log!(
            "analyze_capture",
            "   wrote {} final verdict lines to {vpath}",
            w.lines()
        );
        scope.artifact(&vpath);
    }
}

/// Tails a capture that may still be growing: whole chunks are decoded as
/// their bytes land (see [`TailReader`] and [`CaptureChunks`]), feeding
/// each through the live monitor for provisional incremental verdicts.
/// Service times are unknown until the capture completes, so the live
/// pass runs uncalibrated — each span contributes its own residence time
/// (capped at one work unit) and servers are labeled `server-<id>`; the
/// analysis afterwards is calibrated and authoritative.
///
/// Returns the materialized log for the batch engine, or `None` under
/// `FGBD_CAPTURE_MMAP=1` with an `FGBDCAP2` capture — the records are
/// then *not* retained (tailing stays flat-memory) and the caller runs
/// the zero-copy engine over the sealed file instead.
fn tail_capture(path: &Path, interval_ms: u64) -> Option<TraceLog> {
    let tcfg = TailConfig::from_env();
    if !wait_for_file(path, tcfg) {
        eprintln!(
            "analyze_capture: {} did not appear within the follow idle budget",
            path.display()
        );
        std::process::exit(1);
    }
    let mut mcfg = MonitorConfig::from_env();
    mcfg.interval = SimDuration::from_millis(interval_ms.max(1));
    // No calibration yet: empty service table, default work unit.
    let cal = Calibration {
        services: ServiceTimeTable::new(),
        work_units: HashMap::new(),
        mean_service: HashMap::new(),
    };
    let mut mon = MonitorRuntime::new("analyze_capture_follow", &mcfg, SimTime::ZERO, &cal, &[])
        .expect("create monitor outputs under out/monitor/");
    fgbd_obsv::log!(
        "analyze_capture",
        "following {} (poll {:?}, idle budget {:?})",
        path.display(),
        tcfg.poll,
        tcfg.idle
    );
    // The file exists by now, so the magic probe is reliable; a flat
    // FGBDCAP1 capture always materializes (the cursor only reads v2).
    let materialize = !(mmap_from_env() && is_capture2(path));
    let file = File::open(path).expect("open capture file");
    let log = {
        fgbd_obsv::span!("tail_capture");
        let mut chunks = CaptureChunks::open(BufReader::new(TailReader::new(file, tcfg)))
            .expect("parse capture");
        let mut log = TraceLog::new(chunks.nodes().to_vec());
        let mut end = SimTime::ZERO;
        for chunk in &mut chunks {
            let chunk = chunk.expect("parse capture");
            let _ = mon.push_chunk(&chunk);
            if let Some(last) = chunk.last() {
                end = last.at;
            }
            if materialize {
                log.records.extend(chunk);
            }
        }
        if end > SimTime::ZERO {
            let _ = mon.finish(end);
        }
        log
    };
    materialize.then_some(log)
}
