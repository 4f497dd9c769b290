//! The capture route: capture → verdicts in one forward pass, with peak
//! memory independent of capture size.
//!
//! ```text
//! source ──chunks──▶ prefix buffer ──▶ calibrate ──▶ online detector ──▶ reports
//! (mmap cursor,      (first FGBD_CALIB_RECORDS      (buffer replayed, then every
//!  FGBDCAP1 import,   records, or the whole          later chunk straight through)
//!  --follow tail)     capture if it is shorter)
//! ```
//!
//! [`CaptureAnalyzer`] is that pass. The detector normalizes by calibrated
//! service times, so it cannot start before calibration ends: the analyzer
//! buffers chunks until [`calib_records_from_env`] records (default 1 Mi) or
//! the end of input have arrived, calibrates on exactly that prefix
//! ([`Calibration::from_capture_prefix`]), builds the [`OnlineDetector`],
//! replays the buffered chunks into it and drops them; every later chunk
//! goes straight to the detector. Nothing is decoded twice and no
//! `TraceLog`, `SpanSet` or reconstruction of the capture ever exists:
//! calibration is a fold whose state is the requests open at once, so the
//! replay buffer alone is bounded by the budget rather than by a chunk.
//! The reports are bit-identical to batch `analyze_server` over the
//! materialized capture (`tests/capture_formats.rs` holds the CLI to that).
//!
//! Every capture consumer drives this one body:
//! [`analyze_capture2_zero_copy`] for a file (`analyze_capture`,
//! `million_users`) and `analyze_capture --follow` for a growing file or a
//! FIFO, which tees each tailed chunk into the live monitor as well.

use std::path::Path;

use fgbd_core::online::{OnlineConfig, OnlineDetector, OnlineReport};
use fgbd_des::{SimDuration, SimTime};
use fgbd_obsv::json::Json;
use fgbd_trace::capture2::ChunkCursor;
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::{CaptureChunks, CaptureError, MsgRecord, NodeKind, NodeMeta, Projection};

use crate::harness::RunScope;
use crate::pipeline::{calib_records_from_env, Calibration, WORK_UNIT_RESOLUTION};

/// Everything the analysis produces — enough to render the exact
/// `analyze_capture` report without ever holding the capture in memory.
#[derive(Debug)]
pub struct ZeroCopyAnalysis {
    /// The capture's node table.
    pub nodes: Vec<NodeMeta>,
    /// Total records in the capture.
    pub records: u64,
    /// First record timestamp (grid start). Zero for an empty capture.
    pub start: SimTime,
    /// Last record timestamp (grid end). Zero for an empty capture.
    pub end: SimTime,
    /// `(name, report)` per server, in node-table order, servers with at
    /// least one matched span only. The reports' loads/rates/states/N\* are
    /// bit-identical to `analyze_server` on the materialized capture.
    pub reports: Vec<(String, OnlineReport)>,
    /// Capture format read: `1` (flat `FGBDCAP1`) or `2` (chunked `FGBDCAP2`).
    pub capture_format: u8,
    /// How the records arrived: `"mmap"`, `"heap"` (the automatic fallback
    /// of [`Mapping::open`]) or `"stream"` (`--follow`).
    pub source: &'static str,
    /// Records service times were calibrated on (the buffered prefix).
    pub calib_prefix_records: usize,
    /// Decode width actually used (after clamping), not the one requested.
    pub decode_threads: usize,
}

impl ZeroCopyAnalysis {
    /// Stamps the route that ran into a run manifest — so a silent fallback
    /// (mmap → heap, clamped decode threads) is visible.
    pub fn stamp_route(&self, scope: &mut RunScope) {
        let num = |v: usize| Json::Num(v as f64);
        scope.field("capture_format", num(self.capture_format.into()));
        scope.field("source", Json::Str(self.source.into()));
        scope.field("calib_prefix_records", num(self.calib_prefix_records));
        scope.field("decode_threads", num(self.decode_threads));
    }
}

/// The forward-only analyzer (see the module docs): push chunks in capture
/// order, then [`finish`](Self::finish).
#[derive(Debug)]
pub struct CaptureAnalyzer {
    nodes: Vec<NodeMeta>,
    interval: SimDuration,
    calib_cap: usize,
    /// Chunks held back for calibration; empty once the detector exists.
    prefix: Vec<MsgRecord>,
    detector: Option<OnlineDetector>,
    records: u64,
    /// First and last record timestamps seen so far.
    bounds: Option<(SimTime, SimTime)>,
}

impl CaptureAnalyzer {
    /// An analyzer for a capture with node table `nodes`, detecting at
    /// `interval` granularity.
    pub fn new(nodes: Vec<NodeMeta>, interval: SimDuration) -> CaptureAnalyzer {
        CaptureAnalyzer {
            nodes,
            interval,
            calib_cap: calib_records_from_env(),
            prefix: Vec::new(),
            detector: None,
            records: 0,
            bounds: None,
        }
    }

    /// `true` once the prefix has been calibrated on — later chunks only
    /// need the columns detection reads ([`Projection::DETECT`]).
    pub fn calibrated(&self) -> bool {
        self.detector.is_some()
    }

    /// Consumes the next chunk of the capture (full columns until
    /// [`calibrated`](Self::calibrated)).
    pub fn push_chunk(&mut self, chunk: &[MsgRecord]) {
        let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
            return;
        };
        let start = self.bounds.map_or(first.at, |(start, _)| start);
        self.bounds = Some((start, last.at));
        self.records += chunk.len() as u64;
        match &mut self.detector {
            Some(det) => det.push_chunk(chunk),
            None => {
                self.prefix.extend_from_slice(chunk);
                if self.prefix.len() >= self.calib_cap {
                    self.calibrate(start);
                }
            }
        }
    }

    /// Calibrates on the buffered prefix, builds the detector on the grid
    /// starting at `start`, and replays the buffer into it.
    fn calibrate(&mut self, start: SimTime) {
        let buffered = std::mem::take(&mut self.prefix);
        let prefix = &buffered[..buffered.len().min(self.calib_cap)];
        let cal = Calibration::from_capture_prefix(&self.nodes, prefix);
        let ocfg = OnlineConfig::new(start, self.interval, WORK_UNIT_RESOLUTION);
        let mut det = OnlineDetector::new(ocfg, cal.services);
        for (&node, &wu) in &cal.work_units {
            det.set_work_unit(node, wu);
        }
        det.push_chunk(&buffered);
        self.detector = Some(det);
    }

    /// Ends the capture: calibrates now if it was shorter than the budget,
    /// closes the grid at the last record, and returns the reports in
    /// node-table order, stamped with the route the caller fed it by. An
    /// empty capture yields `records == 0` and no reports.
    pub fn finish(
        mut self,
        capture_format: u8,
        source: &'static str,
        decode_threads: usize,
    ) -> ZeroCopyAnalysis {
        let (start, end) = self.bounds.unwrap_or((SimTime::ZERO, SimTime::ZERO));
        if self.detector.is_none() && self.records > 0 {
            self.calibrate(start);
        }
        // Node-table order, servers only, at least one matched span — the
        // batch filter (`matched > 0` ⇔ the batch span set is non-empty).
        // A capture whose records share one timestamp has no grid at all.
        let mut found = self
            .detector
            .filter(|_| end > start)
            .map_or(Vec::new(), |det| det.finish(end).reports);
        let reports = self
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Server)
            .filter_map(|n| {
                let i = found
                    .iter()
                    .position(|r| r.server == n.id && r.matched > 0)?;
                Some((n.name.clone(), found.swap_remove(i)))
            })
            .collect();
        ZeroCopyAnalysis {
            nodes: self.nodes,
            records: self.records,
            start,
            end,
            reports,
            capture_format,
            source,
            // The first `calib_cap` records, or all of a shorter capture.
            calib_prefix_records: self.calib_cap.min(self.records as usize),
            decode_threads,
        }
    }
}

/// Analyzes a capture file: the file is mapped ([`Mapping::open`], heap
/// fallback automatic) and scanned once, front to back, through a
/// [`CaptureAnalyzer`]. An `FGBDCAP2` capture is walked by the lazy
/// [`ChunkCursor`] — all columns, one chunk at a time, while the
/// calibration prefix is buffering; only the detector's columns, `threads`
/// chunks decoded ahead (clamped on <2-core hosts), afterwards — with
/// consumed pages released behind the scan. A flat `FGBDCAP1` capture (the
/// cursor's `BadMagic`) is imported through [`CaptureChunks`] over the same
/// mapping. `interval` is the analysis granularity.
///
/// # Errors
///
/// [`CaptureError::Io`] for filesystem failures, [`CaptureError::BadMagic`]
/// for a file of neither format, and [`CaptureError::Malformed`] /
/// [`CaptureError::Chunk`] for damaged captures, attributed per chunk.
pub fn analyze_capture2_zero_copy(
    path: &Path,
    interval: SimDuration,
    threads: usize,
) -> Result<ZeroCopyAnalysis, CaptureError> {
    fgbd_obsv::span!("zero_copy_analyze");
    let map = Mapping::open(path)?;
    map.advise_sequential();
    let source = if map.is_mapped() { "mmap" } else { "heap" };

    let mut cursor = match ChunkCursor::new(&map) {
        Ok(cursor) => cursor,
        Err(CaptureError::BadMagic(_)) => {
            let mut chunks = CaptureChunks::open(&map[..])?;
            let mut analyzer = CaptureAnalyzer::new(chunks.nodes().to_vec(), interval);
            for chunk in &mut chunks {
                analyzer.push_chunk(&chunk?);
            }
            return Ok(analyzer.finish(chunks.format(), source, 1));
        }
        Err(e) => return Err(e),
    };
    let mut analyzer = CaptureAnalyzer::new(cursor.nodes().to_vec(), interval);
    let mut buf = Vec::new();
    while cursor.next_chunk(&mut buf)? {
        let buffering = !analyzer.calibrated();
        analyzer.push_chunk(&buf);
        if buffering && analyzer.calibrated() {
            cursor = cursor
                .with_projection(Projection::DETECT)
                .with_threads(threads);
        }
        map.release_until(cursor.consumed_bytes());
    }
    Ok(analyzer.finish(2, source, cursor.threads()))
}
