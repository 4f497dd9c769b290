//! End-to-end proof that the chunked `FGBDCAP2` capture path is a pure
//! re-encoding of the batch pipeline: streaming a run's records through
//! [`fgbd_trace::ChunkedWriter`] via the inline record tap and reading the
//! file back yields exactly the log the batch simulator materializes at
//! the same seed and config — same nodes, same records, and an empty
//! in-memory log on the tapped side (nothing was double-buffered).
//!
//! The second case drives the shipped `analyze_capture` binary over one
//! run's capture, from a file, `--follow` and through a FIFO, and
//! holds every verdict file to bytes computed here by the batch detector —
//! an independent implementation of the same analysis. The third holds
//! `--follow`'s live verdict stream to an eagerly calibrated monitor's and
//! to itself across runs. The fourth feeds it damaged captures and a flat
//! `FGBDCAP1` file, a format no reader accepts: an error message and exit
//! status 1, never a panic. The fifth holds
//! `compare_captures` — the same route, two files — to both, and the sixth
//! holds the writers (`record_capture`, `million_users`, `live_monitor`,
//! `analyze_capture --verdicts` and `--follow`) to the same contract on a
//! bad count or an output they cannot create. The seventh drops one
//! response from a tapped run, and duplicates one request: the pairing
//! table closes one request as lost, the report moves only where that
//! request lived, and `analyze_capture` warns once. The eighth runs the
//! record-and-analyze helper (`TapWriter`): its file is the inline tap's,
//! byte for byte, and its analysis of those bytes as they land is the
//! analysis of the finished file.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fgbd_core::detect::{analyze_server, DetectorConfig};
use fgbd_core::online::{OnlineConfig, OnlineDetector, OnlineReport};
use fgbd_core::series::Window;
use fgbd_des::SimDuration;
use fgbd_ntier::config::{BurstConfig, Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::json::Json;
use fgbd_repro::monitor::{verdict_lines, MonitorConfig, MonitorRuntime};
use fgbd_repro::pipeline::{Calibration, DEFAULT_CALIB_RECORDS, WORK_UNIT_RESOLUTION};
use fgbd_repro::scenario::GC_JDK15;
use fgbd_repro::tapwriter::TapWriter;
use fgbd_repro::zerocopy::analyze_capture2_zero_copy;
use fgbd_trace::{
    read_capture_file, write_capture2, ChunkedWriter, MsgKind, NodeKind, NodeMeta, SpanSet,
    TraceLog,
};

fn smoke_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_1l2s1l2s(60, Jdk::Jdk16, false, seed);
    cfg.burst = BurstConfig::disabled();
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(9);
    cfg
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fgbd_{name}_{}.fgbdcap", std::process::id()))
}

#[test]
fn tapped_chunked_capture_equals_batch_log() {
    let seed = 0xC2_2013_0708;
    let mut batch_txns = Vec::new();
    let batch =
        NTierSystem::run_with_taps(smoke_cfg(seed), None, Some(&mut |t| batch_txns.push(t)));
    assert!(
        !batch.log.records.is_empty(),
        "the batch run must capture records"
    );

    let path = temp_path("tap_roundtrip");
    // A tiny chunk size forces many chunks (headers, footer index, and the
    // flush path all get exercised), not just one big one.
    let nodes = fgbd_ntier::node_metas(&smoke_cfg(seed));
    let file = File::create(&path).expect("create capture file");
    let mut writer = ChunkedWriter::with_chunk_records(BufWriter::new(file), &nodes, 512)
        .expect("start capture");
    let mut tapped_txns = Vec::new();
    let tapped = NTierSystem::run_with_taps(
        smoke_cfg(seed),
        Some(&mut |rec| writer.push(rec).expect("write record")),
        Some(&mut |t| tapped_txns.push(t)),
    );
    writer.finish().expect("seal capture");

    assert!(
        tapped.log.records.is_empty(),
        "the tapped run must not materialize a log"
    );
    // Everything except the capture transport is unchanged.
    assert!(!batch_txns.is_empty());
    assert_eq!(batch_txns, tapped_txns);
    assert_eq!(batch.txns, tapped.txns);
    assert_eq!(batch.cpu_busy, tapped.cpu_busy);

    let reread = read_capture_file(&path).expect("read chunked capture");
    std::fs::remove_file(&path).ok();
    assert_eq!(batch.log.nodes, reread.nodes);
    assert_eq!(batch.log.records, reread.records);
}

/// `log` as `FGBDCAP2` bytes cut into `chunk`-record chunks.
fn chunked_bytes(log: &TraceLog, chunk: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = ChunkedWriter::with_chunk_records(&mut out, &log.nodes, chunk).expect("header");
    for &rec in &log.records {
        w.push(rec).expect("push record");
    }
    w.finish().expect("seal capture");
    out
}

/// Runs the `analyze_capture` binary on `capture` from inside `dir` (the
/// run manifest and monitor files land under its `out/`) with `env` set on
/// the child only; returns its output and the path of the `--verdicts`
/// file it was asked to write.
fn run_cli(dir: &Path, capture: &str, follow: bool, env: &[(&str, String)]) -> (Output, PathBuf) {
    let verdicts = dir.join(format!(
        "{capture}.{}.jsonl",
        if follow { "follow" } else { "plain" }
    ));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_analyze_capture"));
    cmd.current_dir(dir).args([capture, "50", "--quiet"]);
    if follow {
        cmd.arg("--follow");
    }
    cmd.arg("--verdicts").arg(&verdicts);
    cmd.envs(env.iter().map(|(k, v)| (k, v)));
    (cmd.output().expect("spawn analyze_capture"), verdicts)
}

/// The verdict bytes of a successful run, after checking that its manifest
/// names the route that ran: the `source` and the `calib` records service
/// times were calibrated on.
fn cli_verdicts(
    dir: &Path,
    capture: &str,
    follow: bool,
    env: &[(&str, String)],
    (source, calib): (&str, usize),
) -> Vec<u8> {
    let (out, verdicts) = run_cli(dir, capture, follow, env);
    assert!(
        out.status.success(),
        "analyze_capture {capture} follow={follow}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(dir.join("out/manifests/analyze_capture.json"))
        .expect("read run manifest");
    let doc = Json::parse(&manifest).expect("manifest is JSON");
    let field = |key: &str| {
        doc.get(key)
            .unwrap_or_else(|| panic!("manifest lacks {key}"))
    };
    let what = format!("{capture} follow={follow}");
    assert_eq!(field("source").as_str(), Some(source), "{what}");
    assert_eq!(
        field("calib_prefix_records").as_f64(),
        Some(calib as f64),
        "{what}"
    );
    // Only the mapped cursor decodes ahead; its width is the host's
    // business, but it is never reported as less than one.
    let threads = field("decode_threads").as_f64().expect("a number");
    assert!(
        threads == 1.0 || (threads > 1.0 && !follow),
        "{what}: decode_threads {threads}"
    );
    std::fs::read(verdicts).expect("read verdicts file")
}

/// What `analyze_capture --verdicts` must write for `log` when service
/// times are calibrated on its first `calib` records — from the batch side:
/// every span extracted, then `analyze_server` per server.
fn batch_verdicts(log: &TraceLog, calib: usize) -> Vec<u8> {
    let spans = SpanSet::extract(log);
    let cal = Calibration::from_capture_prefix(&log.nodes, &log.records[..calib]);
    let (first, last) = (log.records[0].at, log.records[log.records.len() - 1].at);
    let window = Window::new(first, last, SimDuration::from_millis(50));
    let cfg = DetectorConfig::default();
    let mut out = Vec::new();
    for meta in log.nodes.iter().filter(|n| n.kind == NodeKind::Server) {
        if spans.server(meta.id).is_empty() {
            continue;
        }
        let report = analyze_server(
            spans.server(meta.id),
            meta.id,
            window,
            &cal.services,
            cal.work_unit(meta.id),
            &cfg,
        );
        for line in verdict_lines(
            &meta.name,
            window,
            report.load.values(),
            &report.tput.unit_rates(),
            &report.states,
            report.nstar.as_ref(),
        ) {
            out.extend_from_slice(line.render().as_bytes());
            out.push(b'\n');
        }
    }
    out
}

#[test]
fn analyze_capture_cli_agrees_across_formats_and_follow() {
    // One seed-20130708 run, short but loaded enough that the JDK 1.5
    // collector freezes Tomcat — so the verdict stream is not empty.
    let mut cfg = GC_JDK15.config(3_000);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.duration = SimDuration::from_secs(12);
    let log = NTierSystem::run(cfg).log;
    let n = log.records.len();
    assert!(
        n < DEFAULT_CALIB_RECORDS,
        "the default prefix is the whole run"
    );

    let dir = std::env::temp_dir().join(format!("fgbd_cli_formats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut chunked = Vec::new();
    write_capture2(&mut chunked, &log).expect("encode FGBDCAP2");
    // The compression target: the chunked file stays <= 0.7x the 31 B per
    // record that a flat, fixed-width record layout takes.
    assert!(
        chunked.len() * 10 <= n * 31 * 7,
        "{n} records, chunked {} B",
        chunked.len()
    );
    std::fs::write(dir.join("run.cap2"), &chunked).expect("write FGBDCAP2 file");
    // Small chunks for the short-prefix input: the prefix ends mid-chunk and
    // most chunks reach the analyzer after calibration.
    std::fs::write(dir.join("fine.cap2"), chunked_bytes(&log, 4096)).expect("write file");

    let mapped = if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        "mmap"
    } else {
        "heap"
    };
    let third = n / 3;
    assert!(
        !third.is_multiple_of(4096),
        "the short prefix must end inside a chunk"
    );
    let short = [("FGBD_CALIB_RECORDS", third.to_string())];
    for (calib, env, cap2) in [(n, &[][..], "run.cap2"), (third, &short[..], "fine.cap2")] {
        let reference = batch_verdicts(&log, calib);
        assert!(!reference.is_empty(), "the run must produce verdict lines");
        for (follow, source) in [(false, mapped), (true, "stream")] {
            assert!(
                cli_verdicts(&dir, cap2, follow, env, (source, calib)) == reference,
                "{cap2} follow={follow} calib={calib}: verdicts differ from the batch detector's"
            );
        }
    }

    // `--follow` on a FIFO: the path is opened once and never probed, so a
    // stream that cannot be re-read or sized still analyzes to the same
    // bytes as the file.
    #[cfg(unix)]
    {
        let made = Command::new("mkfifo")
            .arg(dir.join("run.fifo"))
            .status()
            .expect("spawn mkfifo");
        assert!(made.success(), "mkfifo: {made}");
        let fifo = dir.join("run.fifo");
        let writer = std::thread::spawn(move || {
            let mut w = File::create(fifo).expect("open fifo for writing");
            for slice in chunked.chunks(chunked.len() / 5 + 1) {
                w.write_all(slice).expect("feed fifo");
                w.flush().expect("flush fifo");
            }
        });
        let tailed = cli_verdicts(&dir, "run.fifo", true, &[], ("stream", n));
        writer.join().expect("fifo writer");
        let plain = std::fs::read(dir.join("run.cap2.plain.jsonl")).expect("plain run's verdicts");
        assert!(tailed == plain, "FIFO verdicts differ from the plain run's");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Per server, in order, the fields of each live verdict line that do not
/// depend on when calibration landed (detection latency and queue depth
/// do); fails on a server outside `nodes`.
fn live_verdicts(events: &[u8], nodes: &[NodeMeta]) -> BTreeMap<String, Vec<Vec<String>>> {
    const KEYS: [&str; 8] = [
        "kind",
        "server",
        "interval",
        "interval_end_us",
        "nstar",
        "tp_max",
        "load",
        "rate",
    ];
    let mut out = BTreeMap::<String, Vec<Vec<String>>>::new();
    for line in std::str::from_utf8(events).expect("UTF-8").lines() {
        let doc = Json::parse(line).expect("an events line is JSON");
        let server = doc.get("server").and_then(Json::as_str).expect("a server");
        assert!(
            nodes.iter().any(|m| m.name == server),
            "{server} is not a node-table name"
        );
        let fields = KEYS.iter().map(|k| doc.get(k).expect(k).render()).collect();
        out.entry(server.to_string()).or_default().push(fields);
    }
    out
}

/// `analyze_capture --follow` runs one detector: its live verdicts are
/// calibrated on the prefix, named from the node table and on the
/// `--verdicts` grid — per server, what a monitor calibrated on that prefix
/// before the first record emits, up to when each verdict was emitted —
/// and the live stream is a function of the capture and the prefix budget,
/// byte for byte.
#[test]
fn follow_live_verdicts_are_the_calibrated_detectors() {
    let mut cfg = GC_JDK15.config(3_000);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.duration = SimDuration::from_secs(12);
    let log = NTierSystem::run(cfg).log;
    let third = log.records.len() / 3;
    let dir = std::env::temp_dir().join(format!("fgbd_cli_live_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("fine.cap2"), chunked_bytes(&log, 4096)).expect("write file");

    let short = [("FGBD_CALIB_RECORDS", third.to_string())];
    // (events, heartbeats) of one `--follow` run.
    let live = || {
        let (out, _) = run_cli(&dir, "fine.cap2", true, &short);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let read = |ext: &str| {
            let path = dir.join(format!("out/monitor/analyze_capture_follow.{ext}.jsonl"));
            std::fs::read(path).expect("read live monitor output")
        };
        (read("events"), read("heartbeats"))
    };
    let (events, heartbeats) = live();
    assert!(!events.is_empty(), "the live stream must carry verdicts");
    assert!(
        !heartbeats.is_empty(),
        "the live stream must carry heartbeats"
    );
    assert!(
        live() == (events.clone(), heartbeats),
        "the live stream differs between two runs"
    );

    // The CLI's monitor: 50 ms intervals, grid start at the first record.
    fgbd_obsv::set_quiet(true);
    let mcfg = MonitorConfig::default();
    let cal = Calibration::from_capture_prefix(&log.nodes, &log.records[..third]);
    let (first, last) = (log.records[0].at, log.records[log.records.len() - 1].at);
    let mut eager = MonitorRuntime::new("test_follow_eager", &mcfg, first, &cal, &log.nodes)
        .expect("create monitor outputs");
    eager.push_chunk(&log.records).expect("monitor write");
    eager.finish(last).expect("finish monitor");
    fgbd_obsv::set_quiet(false);
    let expected = std::fs::read("out/monitor/test_follow_eager.events.jsonl").expect("read");
    assert_eq!(
        live_verdicts(&events, &log.nodes),
        live_verdicts(&expected, &log.nodes),
        "live verdicts differ from an eagerly calibrated monitor's"
    );

    // Records that share one timestamp span no grid, but the live stream
    // still ends on its final heartbeat: the first record's beat, then it.
    let mut flat = TraceLog {
        nodes: log.nodes.clone(),
        records: log.records[..64].to_vec(),
    };
    flat.records.iter_mut().for_each(|r| r.at = first);
    std::fs::write(dir.join("flat.cap2"), chunked_bytes(&flat, 4096)).expect("write file");
    let (out, _) = run_cli(&dir, "flat.cap2", true, &short);
    assert!(out.status.success(), "{:?}", out);
    let path = dir.join("out/monitor/analyze_capture_follow.heartbeats.jsonl");
    let beats = std::fs::read_to_string(path).expect("read live monitor output");
    assert_eq!(beats.lines().count(), 2, "{beats}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_capture_cli_reports_damaged_captures_without_panicking() {
    let log = NTierSystem::run(smoke_cfg(20130708)).log;
    let good = chunked_bytes(&log, 512);
    // Flip one payload byte of chunk 1, found through the footer index:
    // trailer -> index offset -> entry 1 -> chunk offset; the payload
    // starts after the 33-byte chunk header.
    let trailer = good.len() - 16;
    let index = u64::from_le_bytes(good[trailer..trailer + 8].try_into().unwrap()) as usize;
    let entry = index + 5 + 28;
    let chunk1 = u64::from_le_bytes(good[entry..entry + 8].try_into().unwrap()) as usize;
    let mut flipped = good.clone();
    flipped[chunk1 + 33 + 7] ^= 0x5A;

    let dir = std::env::temp_dir().join(format!("fgbd_cli_damaged_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("foreign.cap"), b"PCAPNG\0\0 not an fgbd capture").expect("write");
    // A flat `FGBDCAP1` capture with no nodes and no records: well formed
    // in that retired format, foreign to every reader now.
    let mut v1 = b"FGBDCAP1".to_vec();
    v1.extend_from_slice(&[0; 4 + 8]);
    std::fs::write(dir.join("v1.cap"), v1).expect("write");
    std::fs::write(dir.join("truncated.cap"), &good[..chunk1 + 100]).expect("write");
    std::fs::write(dir.join("flipped.cap"), flipped).expect("write");

    // A truncated file looks like a writer that went quiet: keep the
    // follow legs' idle budget short.
    let env = [
        ("FGBD_FOLLOW_IDLE_MS", "100".to_string()),
        ("FGBD_FOLLOW_POLL_MS", "5".to_string()),
    ];
    for (capture, needle) in [
        ("foreign.cap", "not a capture file"),
        ("v1.cap", "not a capture file"),
        ("truncated.cap", "malformed capture"),
        ("flipped.cap", "malformed capture chunk 1:"),
        ("missing.cap", "missing.cap"),
    ] {
        for follow in [false, true] {
            let (out, _) = run_cli(&dir, capture, follow, &env);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{capture} follow={follow}: {}\n{stderr}", out.status);
            assert_eq!(out.status.code(), Some(1), "{what}");
            assert!(
                stderr.starts_with(&format!("analyze_capture: {capture}: ")),
                "{what}"
            );
            assert!(stderr.contains(needle), "{what}");
            assert!(!stderr.contains("panicked at"), "{what}");
        }
    }
    // A zero interval is a usage error, like a non-numeric one: not a run
    // at some other granularity than the one asked for.
    std::fs::write(dir.join("good.cap"), &good).expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_analyze_capture"))
        .current_dir(&dir)
        .args(["good.cap", "0", "--quiet"])
        .output()
        .expect("spawn analyze_capture");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("interval must be a positive"), "{stderr}");
    assert!(out.stdout.is_empty(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_captures_cli_takes_the_capture_route_and_reports_bad_files() {
    let mut log = NTierSystem::run(smoke_cfg(20130708)).log;
    let servers = SpanSet::extract(&log).servers().len();
    assert!(servers > 0, "the run must pair spans");
    let good = chunked_bytes(&log, 512);
    let dir = std::env::temp_dir().join(format!("fgbd_cli_compare_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("good.cap"), &good).expect("write");
    std::fs::write(dir.join("truncated.cap"), &good[..good.len() / 2]).expect("write");
    // One record: a capture with no interval grid at all.
    log.records.truncate(1);
    std::fs::write(dir.join("instant.cap"), chunked_bytes(&log, 512)).expect("write");

    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_compare_captures"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("spawn compare_captures");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };
    let rows = |stdout: &str| {
        stdout
            .lines()
            .filter(|l| l.ends_with("| unchanged"))
            .count()
    };

    let (code, stdout, stderr) = run(&["good.cap", "good.cap"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(rows(&stdout), servers, "{stdout}");
    let (code, stdout, stderr) = run(&["instant.cap", "instant.cap"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(rows(&stdout), 0, "{stdout}");

    for args in [
        &["truncated.cap", "good.cap"][..],
        &["good.cap", "truncated.cap", "--raw"][..],
        &["good.cap", "missing.cap"][..],
    ] {
        let (code, _, stderr) = run(args);
        let bad = args.iter().find(|a| **a != "good.cap").expect("a bad file");
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("compare_captures: {bad}: ")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writer_clis_report_bad_numbers_and_unwritable_outputs_without_panicking() {
    let dir = std::env::temp_dir().join(format!("fgbd_cli_writers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let log = NTierSystem::run(smoke_cfg(20130708)).log;
    std::fs::write(dir.join("good.cap"), chunked_bytes(&log, 512)).expect("write");
    // `out` is a file here, so nothing under `out/monitor/` can be created.
    std::fs::write(dir.join("out"), b"in the way").expect("write");

    let record = env!("CARGO_BIN_EXE_record_capture");
    let million = env!("CARGO_BIN_EXE_million_users");
    let monitor = env!("CARGO_BIN_EXE_live_monitor");
    let analyze = env!("CARGO_BIN_EXE_analyze_capture");
    let nowhere = "no_such_dir/out.file";
    // (binary, arguments, exit status, what stderr starts with)
    let cases: [(&str, &[&str], i32, String); 8] = [
        (
            record,
            &["gc_jdk16", "lots"],
            2,
            "usage: record_capture".into(),
        ),
        (
            record,
            &["gc_jdk16", "50", "1s"],
            2,
            "usage: record_capture".into(),
        ),
        (million, &["many"], 2, "usage: million_users".into()),
        (
            monitor,
            &["gc_jdk16", "60", "soon"],
            2,
            "usage: live_monitor".into(),
        ),
        (
            record,
            &["gc_jdk16", "50", "1", nowhere],
            1,
            format!("record_capture: {nowhere}: "),
        ),
        (
            million,
            &["50", "1", nowhere],
            1,
            format!("million_users: {nowhere}: "),
        ),
        (
            analyze,
            // `--verdicts` makes missing parents; a file in the way stops it.
            &["good.cap", "--verdicts", "out/verdicts.jsonl"],
            1,
            "analyze_capture: out/verdicts.jsonl: ".into(),
        ),
        (
            analyze,
            // The live monitor's outputs, not the capture, are at fault.
            &["good.cap", "--follow"],
            1,
            "analyze_capture: out/monitor: ".into(),
        ),
    ];
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin)
            .current_dir(&dir)
            .args(args)
            .arg("--quiet")
            .output()
            .expect("spawn");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for (bin, args, status, prefix) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(status), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with(&prefix), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    let (code, stderr) = run(monitor, &["gc_jdk16", "60", "1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("live_monitor: out/monitor: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A lost response is loud and local. The request it answered is closed
/// as lost when the next request reuses its connection: the pairing table
/// counts it once (`trace.conn_overlap`), it is unmatched, and the final
/// report differs from pristine only in the intervals its lifetime touches.
/// A duplicated request is closed the same way, and every span and verdict
/// byte is pristine. Calibration pairs on the same table, so over either
/// whole damaged log every service time is pristine's. `analyze_capture`
/// warns once for each; a pristine run counts none and prints no warning.
#[test]
fn a_lost_response_is_counted_as_connection_overlap() {
    let cfg = smoke_cfg(20130708);
    let nodes = fgbd_ntier::system::node_metas(&cfg);
    let mysql = nodes
        .iter()
        .find(|n| n.name == "mysql-1")
        .expect("mysql")
        .id;
    let mut log = TraceLog::new(nodes.clone());
    NTierSystem::run_with_record_tap(cfg, |rec| log.push(rec));
    let half = log.records.len() / 2;
    let lost = (half..log.records.len())
        .find(|&i| {
            let rec = &log.records[i];
            rec.kind == MsgKind::Response && rec.span_node() == mysql
        })
        .expect("a mid-run mysql-1 response");
    let response = log.records[lost];
    let asked = (0..lost)
        .rfind(|&i| {
            let rec = &log.records[i];
            rec.kind == MsgKind::Request && rec.span_node() == mysql && rec.conn == response.conn
        })
        .expect("the request it answers");
    let (arrival, departure) = (log.records[asked].at, response.at);
    let mut lossy = log.clone();
    lossy.records.remove(lost);
    let mut duplicated = log.clone();
    duplicated.records.insert(asked + 1, log.records[asked]);

    let cal = Calibration::from_capture_prefix(&nodes, &log.records);
    let bits = |cal: &Calibration| {
        let services = &cal.services;
        (nodes.iter())
            .flat_map(|n| services.classes(n.id).into_iter().map(move |c| (n.id, c)))
            .map(|(n, c)| (n, c, services.get_secs(n, c).map(f64::to_bits)))
            .collect::<Vec<_>>()
    };
    for (what, run) in [("lossy", &lossy), ("duplicated", &duplicated)] {
        let again = Calibration::from_capture_prefix(&nodes, &run.records);
        assert_eq!(bits(&again), bits(&cal), "{what}: service times");
    }
    let detect = |log: &TraceLog| {
        let start = log.records[0].at;
        let ocfg = OnlineConfig::new(start, SimDuration::from_millis(50), WORK_UNIT_RESOLUTION);
        let mut det = OnlineDetector::new(ocfg, cal.services.clone());
        for n in &nodes {
            det.set_work_unit(n.id, cal.work_unit(n.id));
        }
        det.push_chunk(&log.records);
        det.finish(log.records.last().expect("records").at).reports
    };
    let counted = |reports: &[OnlineReport]| {
        (reports.iter())
            .map(|r| (r.server, r.conn_overlap))
            .filter(|&(_, n)| n > 0)
            .collect::<Vec<_>>()
    };
    let pristine = detect(&log);
    assert_eq!(counted(&pristine), [], "a pristine run loses nothing");
    for (what, run, dropped) in [("lossy", &lossy, true), ("duplicated", &duplicated, false)] {
        let reports = detect(run);
        assert_eq!(counted(&reports), [(mysql, 1)], "{what}");
        assert_eq!(reports.len(), pristine.len(), "{what}");
        for (want, got) in pristine.iter().zip(&reports) {
            let here = got.server == mysql;
            assert_eq!(got.server, want.server, "{what}");
            assert_eq!(got.unmatched, want.unmatched + usize::from(here), "{what}");
            // The fit's curve holds the touched intervals' samples; the
            // estimate it settles on does not move.
            let fit = |r: &OnlineReport| r.nstar.as_ref().map(|n| (n.nstar, n.tp_max));
            assert_eq!(fit(got), fit(want), "{what}");
            assert_eq!(got.states, want.states, "{what}");
            for i in 0..want.window.len() {
                let (from, to) = want.window.bounds(i);
                if dropped && here && from <= departure && to > arrival {
                    continue;
                }
                let load = (got.loads[i].to_bits(), want.loads[i].to_bits());
                let rate = (got.rates[i].to_bits(), want.rates[i].to_bits());
                assert!(load.0 == load.1 && rate.0 == rate.1, "{what}: interval {i}");
            }
        }
    }
    let spans = SpanSet::extract(&log);
    let again = SpanSet::extract(&duplicated);
    for n in &nodes {
        assert_eq!(again.server(n.id), spans.server(n.id), "{}", n.name);
    }

    let dir = std::env::temp_dir().join(format!("fgbd_cli_overlap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut verdicts = Vec::new();
    for (name, log, warned) in [
        ("pristine.cap2", &log, false),
        ("lossy.cap2", &lossy, true),
        ("duplicated.cap2", &duplicated, true),
    ] {
        let mut bytes = Vec::new();
        write_capture2(&mut bytes, log).expect("encode FGBDCAP2");
        std::fs::write(dir.join(name), bytes).expect("write capture");
        let (out, written) = run_cli(&dir, name, false, &[]);
        assert!(out.status.success(), "{name}: {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let warnings: Vec<_> = stderr.lines().filter(|l| l.contains("warning")).collect();
        let expect = format!("analyze_capture: warning: {name}: 1 requests lost their response");
        assert_eq!(warnings, [expect.as_str()][..usize::from(warned)], "{name}");
        verdicts.push(std::fs::read(written).expect("read verdicts"));
    }
    assert!(
        !verdicts[0].is_empty(),
        "the run must produce verdict lines"
    );
    assert!(
        verdicts[2] == verdicts[0],
        "a duplicated request changed the verdicts"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tap_writer_writes_the_inline_bytes_and_analyzes_them_as_they_land() {
    let seed = 20130708;
    let nodes = fgbd_ntier::node_metas(&smoke_cfg(seed));
    let (inline, threaded) = (temp_path("tap_inline"), temp_path("tap_threaded"));
    let file = File::create(&inline).expect("create capture file");
    let mut writer = ChunkedWriter::new(BufWriter::new(file), &nodes).expect("start capture");
    NTierSystem::run_with_record_tap(smoke_cfg(seed), |rec| {
        writer.push(rec).expect("write record");
    });
    writer
        .finish()
        .expect("seal capture")
        .flush()
        .expect("flush");

    let interval = SimDuration::from_millis(50);
    let mut tap = TapWriter::create(&threaded, &nodes, Some(interval)).expect("start capture");
    NTierSystem::run_with_record_tap(smoke_cfg(seed), |rec| tap.push(rec));
    let tapped = tap.finish().expect("record and analyze");
    let bytes = std::fs::read(&threaded).expect("read capture");
    assert_eq!(bytes, std::fs::read(&inline).expect("read capture"));
    std::fs::remove_file(&inline).ok();

    let live = tapped.analysis.expect("an analyzer was asked for");
    let file = analyze_capture2_zero_copy(&threaded, interval, 1).expect("analyze the file");
    std::fs::remove_file(&threaded).ok();
    assert_eq!((live.source, live.decode_threads), ("tap", 1));
    assert_eq!(live.records, tapped.records);
    assert_eq!(live.records, file.records);
    assert_eq!((live.start, live.end), (file.start, file.end));
    assert_eq!(live.calib_held_spans, file.calib_held_spans);
    assert!(!live.reports.is_empty(), "the run reports its servers");
    assert_eq!(live.reports.len(), file.reports.len());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ((name, a), (file_name, b)) in live.reports.iter().zip(&file.reports) {
        assert_eq!(name, file_name);
        assert_eq!(bits(&a.loads), bits(&b.loads), "{name}: loads");
        assert_eq!(bits(&a.rates), bits(&b.rates), "{name}: rates");
        assert_eq!(a.states, b.states, "{name}: states");
        assert_eq!(a.nstar, b.nstar, "{name}: N*");
        let counts = |r: &OnlineReport| (r.matched, r.unmatched, r.conn_overlap);
        assert_eq!(counts(a), counts(b), "{name}: counts");
    }
}
