//! Compares two `.fgbdcap` captures of the same deployment — the
//! before/after workflow of the paper's two fixes (§IV-B, §IV-D): record a
//! capture, apply a change (JDK upgrade, BIOS setting), record again, and
//! diff the per-server transient-bottleneck verdicts.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin compare_captures -- \
//!     before.fgbdcap after.fgbdcap [--raw] [--quiet]
//! ```
//!
//! Memory: the analysis path holds ONE capture's records resident at a
//! time (reconstruction needs random access over the whole log), never
//! both. `--raw` skips analysis entirely and streams both captures
//! chunk-at-a-time — flat memory regardless of capture size — reporting
//! record totals and the first diverging record, which is the cheap way to
//! check whether two recordings are byte-equivalent re-encodings.
//!
//! A run manifest is written to `out/manifests/compare_captures.*`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use fgbd_core::detect::{analyze_server, DetectorConfig, ServerReport};
use fgbd_core::series::Window;
use fgbd_des::SimDuration;
use fgbd_obsv::json::Json;
use fgbd_repro::pipeline::{Calibration, WORK_UNIT_RESOLUTION};
use fgbd_trace::{read_capture_file, CaptureChunks, MsgRecord, NodeKind, SpanSet, TraceLog};

fn load(path: &str) -> TraceLog {
    read_capture_file(Path::new(path)).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn reports(log: TraceLog) -> BTreeMap<String, ServerReport> {
    let (Some(first), Some(last)) = (log.records.first(), log.records.last()) else {
        return BTreeMap::new();
    };
    let (start, end) = (first.at, last.at);
    if end <= start + SimDuration::from_millis(50) {
        return BTreeMap::new(); // capture too short for even one interval
    }
    // Calibrate from the capture itself.
    let spans = SpanSet::extract(&log);
    let cal = {
        fgbd_obsv::span!("calibrate");
        Calibration::from_log(&log, &spans)
    };
    let window = Window::new(start, end, SimDuration::from_millis(50));
    // Per-server analyses are independent — fan them out across cores.
    let servers: Vec<_> = log
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::Server && !spans.server(n.id).is_empty())
        .collect();
    fgbd_repro::par::par_map(&servers, |n| {
        let report = analyze_server(
            spans.server(n.id),
            n.id,
            window,
            &cal.services,
            cal.work_units
                .get(&n.id)
                .copied()
                .unwrap_or(WORK_UNIT_RESOLUTION),
            &DetectorConfig::default(),
        );
        (n.name.clone(), report)
    })
    .into_iter()
    .collect()
}

/// Flattens a [`CaptureChunks`] iterator into single records, holding at
/// most one decoded chunk in memory.
struct RecordCursor<R: Read> {
    chunks: CaptureChunks<R>,
    buf: Vec<MsgRecord>,
    pos: usize,
}

impl<R: Read> RecordCursor<R> {
    fn open(r: R, path: &str) -> Self {
        let chunks = CaptureChunks::open(r).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        RecordCursor {
            chunks,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self, path: &str) -> Option<MsgRecord> {
        loop {
            if let Some(&rec) = self.buf.get(self.pos) {
                self.pos += 1;
                return Some(rec);
            }
            self.buf = self
                .chunks
                .next()?
                .unwrap_or_else(|e| panic!("parse {path}: {e}"));
            self.pos = 0;
        }
    }
}

/// Record-level streaming diff: both captures are walked chunk-at-a-time,
/// so memory stays flat no matter how large the captures are. Works across
/// formats — a flat `FGBDCAP1` file diffs cleanly against its chunked
/// `FGBDCAP2` re-encoding.
fn raw_diff(before_path: &str, after_path: &str) -> (u64, u64, Option<u64>) {
    let mut before = RecordCursor::open(
        BufReader::new(
            File::open(before_path).unwrap_or_else(|e| panic!("open {before_path}: {e}")),
        ),
        before_path,
    );
    let mut after = RecordCursor::open(
        BufReader::new(File::open(after_path).unwrap_or_else(|e| panic!("open {after_path}: {e}"))),
        after_path,
    );
    if before.chunks.nodes() != after.chunks.nodes() {
        fgbd_obsv::log!("compare_captures", "node tables differ");
    }
    let (mut n_before, mut n_after) = (0u64, 0u64);
    let mut first_divergence = None;
    loop {
        let b = before.next(before_path);
        let a = after.next(after_path);
        if b.is_some() {
            n_before += 1;
        }
        if a.is_some() {
            n_after += 1;
        }
        match (b, a) {
            (None, None) => break,
            (b, a) => {
                if b != a && first_divergence.is_none() {
                    first_divergence = Some(n_before.max(n_after) - 1);
                    if let (Some(b), Some(a)) = (b, a) {
                        fgbd_obsv::log!(
                            "compare_captures",
                            "first divergence at record {}:\n  before: {b:?}\n  after:  {a:?}",
                            n_before - 1
                        );
                    }
                }
            }
        }
    }
    (n_before, n_after, first_divergence)
}

fn main() {
    let mut args = fgbd_repro::harness::parse_std_flags();
    let raw = args.iter().any(|a| a == "--raw");
    args.retain(|a| a != "--raw");
    let (Some(before_path), Some(after_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: compare_captures <before.fgbdcap> <after.fgbdcap> [--raw]");
        std::process::exit(2);
    };
    let mut scope = fgbd_repro::harness::begin("compare_captures");
    scope.field("before", Json::Str(before_path.clone()));
    scope.field("after", Json::Str(after_path.clone()));
    scope.field("raw", Json::Bool(raw));
    let _root = fgbd_obsv::span::enter("compare_captures");

    if raw {
        let (n_before, n_after, divergence) = raw_diff(before_path, after_path);
        fgbd_obsv::log!(
            "compare_captures",
            "records: before {n_before}, after {n_after}"
        );
        match divergence {
            None => fgbd_obsv::log!("compare_captures", "captures are record-identical"),
            Some(at) => fgbd_obsv::log!("compare_captures", "captures diverge at record {at}"),
        }
        scope.field("records_before", Json::Num(n_before as f64));
        scope.field("records_after", Json::Num(n_after as f64));
        scope.field("identical", Json::Bool(divergence.is_none()));
        drop(_root);
        scope.finish();
        if divergence.is_some() {
            std::process::exit(1);
        }
        return;
    }

    // One capture is fully analyzed (and dropped) before the other loads.
    let before = reports(load(before_path));
    let after = reports(load(after_path));

    fgbd_obsv::log!(
        "compare_captures",
        "{:<12} | {:>10} {:>8} | {:>10} {:>8} | verdict",
        "server",
        "congested",
        "frozen",
        "congested",
        "frozen"
    );
    fgbd_obsv::log!(
        "compare_captures",
        "{:<12} | {:^19} | {:^19} |",
        "",
        "before",
        "after"
    );
    fgbd_obsv::log!("compare_captures", "{}", "-".repeat(70));
    for (name, b) in &before {
        let Some(a) = after.get(name) else {
            fgbd_obsv::log!("compare_captures", "{name:<12} | (missing in after)");
            continue;
        };
        let verdict = if b.congested_intervals() > 0
            && a.congested_intervals() * 4 <= b.congested_intervals()
        {
            "improved"
        } else if a.congested_intervals() > b.congested_intervals() * 4 {
            "REGRESSED"
        } else {
            "unchanged"
        };
        fgbd_obsv::log!(
            "compare_captures",
            "{name:<12} | {:>10} {:>8} | {:>10} {:>8} | {verdict}",
            b.congested_intervals(),
            b.frozen_intervals(),
            a.congested_intervals(),
            a.frozen_intervals(),
        );
    }
    for name in after.keys().filter(|n| !before.contains_key(*n)) {
        fgbd_obsv::log!("compare_captures", "{name:<12} | (missing in before)");
    }

    scope.field("servers_before", Json::Num(before.len() as f64));
    scope.field("servers_after", Json::Num(after.len() as f64));
    drop(_root);
    scope.finish();
}
