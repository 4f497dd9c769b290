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
//! There is one engine ([`fgbd_repro::zerocopy`]): the capture is scanned
//! once, front to back, and every chunk goes straight to the online
//! detector, which pairs it at once and holds the spans it closes; a worker
//! thread meanwhile folds the first `FGBD_CALIB_RECORDS` records (default
//! 1 Mi) into the service-time calibration, and the held spans are weighed
//! when it lands. The detector holds at most as many spans as that budget
//! has records, so peak memory stays flat no matter how large the capture
//! is. A file is memory-mapped; anything but an `FGBDCAP2` capture is
//! refused as foreign input.
//!
//! `--follow` tails a capture that is **still being written** (a growing
//! file, or a FIFO fed by a live writer — the path is opened once and never
//! probed): whole chunks are decoded as their bytes land and handed to the
//! same analyzer, so when the writer's footer appears the calibrated report
//! is ready without re-reading anything. Its one detector also drives the
//! live monitor's telemetry ([`fgbd_repro::monitor`]) under
//! `out/monitor/analyze_capture_follow.*`: heartbeats from the first record,
//! and provisional onset/clear verdicts — calibrated, named, on the final
//! grid — once the calibration prefix has streamed. `--verdicts PATH`
//! additionally writes the final congested-interval verdicts as JSON lines —
//! byte-identical whether the capture was read from a file or tailed.
//!
//! An unreadable or damaged capture is reported on stderr as
//! `analyze_capture: <path>: <error>` with exit status 1 (usage errors,
//! a zero or non-numeric interval included, exit 2), an unwritable monitor
//! output as `analyze_capture: out/monitor: <error>`. A run manifest is written to `out/manifests/analyze_capture.*`,
//! including which route ran (`source`,
//! `calib_prefix_records`, `decode_threads`) and how calibration overlapped
//! it (`calib_wait_ms`, `calib_held_spans`). A capture in which a request
//! arrives on a connection whose previous request is still open — what a
//! lost response leaves — gets one warning line on stderr; the report is
//! unchanged.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

use fgbd_des::SimDuration;
use fgbd_obsv::json::Json;
use fgbd_obsv::jsonl::JsonlWriter;
use fgbd_repro::harness::{fail_path, RunScope};
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorTelemetry};
use fgbd_repro::zerocopy::{analyze_capture2_zero_copy, CaptureAnalyzer, ZeroCopyAnalysis};
use fgbd_trace::capture2::threads_from_env;
use fgbd_trace::{wait_for_file, CaptureChunks, CaptureError, TailConfig, TailReader};

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
    let interval_ms = match args.get(1).map_or(Ok(50), |s| s.parse::<u64>()) {
        Ok(ms) if ms > 0 => ms,
        _ => {
            eprintln!("analyze_capture: interval must be a positive number of milliseconds");
            std::process::exit(2);
        }
    };
    let interval = SimDuration::from_millis(interval_ms);

    let mut scope = fgbd_repro::harness::begin("analyze_capture");
    scope.field("capture", Json::Str(path.clone()));
    scope.field("interval_ms", Json::Num(interval_ms as f64));
    scope.field("follow", Json::Bool(follow));
    let _root = fgbd_obsv::span::enter("analyze_capture");

    let analysis = if follow {
        follow_capture(Path::new(path), interval)
    } else {
        analyze_capture2_zero_copy(Path::new(path), interval, threads_from_env())
    };
    let za = analysis.unwrap_or_else(|e| fail_path("analyze_capture", path, e));
    za.stamp_route(&mut scope);
    let lost: u64 = za.reports.iter().map(|(_, rep)| rep.conn_overlap).sum();
    if lost > 0 {
        eprintln!("analyze_capture: warning: {path}: {lost} requests lost their response");
    }

    fgbd_obsv::log!(
        "analyze_capture",
        "capture: {} nodes, {} messages",
        za.nodes.len(),
        za.records
    );
    if za.records == 0 {
        fgbd_obsv::log!("analyze_capture", "empty capture — nothing to analyze");
    } else {
        render_report(&za, interval, verdicts_path, &mut scope);
        scope.field("servers", Json::Num(za.reports.len() as f64));
    }
    drop(_root);
    scope.finish();
}

/// Renders the table, the ranking and (with `--verdicts`) the verdict
/// stream straight from the analysis.
fn render_report(
    za: &ZeroCopyAnalysis,
    interval: SimDuration,
    verdicts_path: Option<String>,
    scope: &mut RunScope,
) {
    let interval_ms = interval.as_micros() / 1000;
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
    for (name, rep) in &za.reports {
        fgbd_obsv::log!(
            "analyze_capture",
            "{:<12} {:>8} {:>10} {:>10} {:>8} {:>8.1}",
            name,
            rep.matched,
            rep.nstar
                .as_ref()
                .map_or("n/a".to_string(), |n| format!("{:.1}", n.nstar)),
            rep.congested_intervals(),
            rep.frozen_intervals(),
            rep.congestion_ratio() * 100.0
        );
    }

    // The most congested server; of equal ratios the first in node-table
    // order (`max_by` would keep the last).
    let top = za.reports.iter().reduce(|best, cand| {
        if cand.1.congestion_ratio() > best.1.congestion_ratio() {
            cand
        } else {
            best
        }
    });
    if let Some((name, rep)) = top {
        fgbd_obsv::log!(
            "analyze_capture",
            "\n=> most frequently congested server: {name} ({:.1}% of active {interval_ms} ms intervals)",
            rep.congestion_ratio() * 100.0
        );
        let frozen: usize = za.reports.iter().map(|(_, r)| r.frozen_intervals()).sum();
        if frozen > 0 {
            fgbd_obsv::log!(
                "analyze_capture",
                "   {frozen} frozen (POI) intervals across servers — look for stop-the-world events (e.g. JVM GC)"
            );
        }
    }
    fgbd_obsv::log!(
        "analyze_capture",
        "   analyzed window: {} .. {} at {interval_ms} ms granularity",
        za.start,
        za.end
    );

    if let Some(vpath) = verdicts_path {
        let fail = |e: std::io::Error| -> ! { fail_path("analyze_capture", &vpath, e) };
        let mut w = JsonlWriter::create(&vpath).unwrap_or_else(|e| fail(e));
        for (name, rep) in &za.reports {
            for line in verdict_lines(
                name,
                rep.window,
                &rep.loads,
                &rep.rates,
                &rep.states,
                rep.nstar.as_ref(),
            ) {
                w.write(&line).unwrap_or_else(|e| fail(e));
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
/// their bytes land (see [`TailReader`] and [`CaptureChunks`]) and handed
/// to the analyzer, whose one detector also drives the live monitor's
/// telemetry. Live verdicts start once the calibration prefix has streamed
/// (heartbeats before that); the final report is the authoritative one. A
/// monitor output that cannot be written is reported as `out/monitor`.
fn follow_capture(path: &Path, interval: SimDuration) -> Result<ZeroCopyAnalysis, CaptureError> {
    let tcfg = TailConfig::from_env();
    if !wait_for_file(path, tcfg) {
        return Err(CaptureError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            "did not appear within the follow idle budget",
        )));
    }
    fgbd_obsv::log!(
        "analyze_capture",
        "following {} (poll {:?}, idle budget {:?})",
        path.display(),
        tcfg.poll,
        tcfg.idle
    );
    fgbd_obsv::span!("tail_capture");
    let reader = BufReader::new(TailReader::new(File::open(path)?, tcfg));
    let mut chunks = CaptureChunks::open(reader)?;

    let fail = |e: io::Error| -> ! { fail_path("analyze_capture", "out/monitor", e) };
    let heartbeat = MonitorConfig::default().heartbeat;
    let mut telemetry =
        MonitorTelemetry::create("analyze_capture_follow", heartbeat, chunks.nodes())
            .unwrap_or_else(|e| fail(e));
    let mut analyzer = CaptureAnalyzer::new(chunks.nodes().to_vec(), interval);
    let mut buf = Vec::new();
    while chunks.next_into(&mut buf)? {
        buf = analyzer.push_observed(buf, |det| {
            telemetry.observe(det).unwrap_or_else(|e| fail(e));
        });
    }
    let za = analyzer.finish_observed("stream", 1, |det, end| {
        telemetry.finish(det, end).unwrap_or_else(|e| fail(e))
    });
    Ok(za)
}
