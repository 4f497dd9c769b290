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
//! Each capture takes the one capture route ([`fgbd_repro::zerocopy`], the
//! engine behind `analyze_capture`): scanned once front to back, service
//! times calibrated on its first `FGBD_CALIB_RECORDS` records, verdicts from
//! the online detector — flat memory, one capture at a time. For a capture
//! no longer than that prefix the table is what whole-capture calibration
//! gives; for a longer one it agrees with `analyze_capture` on the same
//! file. `--raw` skips analysis entirely and streams both captures
//! chunk-at-a-time, reporting record totals and the first diverging record,
//! which is the cheap way to check whether two recordings are
//! byte-equivalent re-encodings.
//!
//! An unreadable or damaged capture is reported on stderr as
//! `compare_captures: <path>: <error>` with exit status 1 (usage errors
//! exit 2). A run manifest is written to `out/manifests/compare_captures.*`.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use fgbd_core::online::OnlineReport;
use fgbd_des::SimDuration;
use fgbd_obsv::json::Json;
use fgbd_repro::zerocopy::analyze_capture2_zero_copy;
use fgbd_trace::capture2::threads_from_env;
use fgbd_trace::{CaptureChunks, MsgRecord};

const INTERVAL: SimDuration = SimDuration::from_millis(50);

/// Reports a capture that cannot be read and exits with status 1.
fn fail(path: &str, err: impl Display) -> ! {
    fgbd_repro::harness::fail_path("compare_captures", path, err)
}

fn reports(path: &str) -> BTreeMap<String, OnlineReport> {
    let za = analyze_capture2_zero_copy(Path::new(path), INTERVAL, threads_from_env())
        .unwrap_or_else(|e| fail(path, e));
    if za.end <= za.start + INTERVAL {
        return BTreeMap::new(); // empty, or too short for even one interval
    }
    za.reports.into_iter().collect()
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
        let chunks = CaptureChunks::open(r).unwrap_or_else(|e| fail(path, e));
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
            self.buf = self.chunks.next()?.unwrap_or_else(|e| fail(path, e));
            self.pos = 0;
        }
    }
}

/// Record-level streaming diff: both captures are walked chunk-at-a-time,
/// so memory stays flat no matter how large the captures are. Records are
/// compared, not bytes, so captures cut into different chunks diff cleanly.
fn raw_diff(before_path: &str, after_path: &str) -> (u64, u64, Option<u64>) {
    let open = |path| BufReader::new(File::open(path).unwrap_or_else(|e| fail(path, e)));
    let mut before = RecordCursor::open(open(before_path), before_path);
    let mut after = RecordCursor::open(open(after_path), after_path);
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

    let before = reports(before_path);
    let after = reports(after_path);

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
