//! The capture route: capture → verdicts in one forward pass, with peak
//! memory independent of capture size.
//!
//! ```text
//!                                 ┌─▶ online detector ──────────────────▶ reports
//! source ──chunk──▶ decode ──rows┤   (pairs from the first chunk; holds    ▲
//! (mmap cursor,                   │    spans until the service times land) │
//!  --follow tail)                 │     └─▶ (--follow) live telemetry      │
//! record tap ─────batches────────▶┴─▶ calibration worker ──service times───┘
//! (the capture writer's,              (first FGBD_CALIB_RECORDS records;
//!  nothing decoded)                    the buffer comes back for reuse)
//! ```
//!
//! [`CaptureAnalyzer`] is that pass. The detector normalizes by calibrated
//! service times, but pairing does not need them: every batch of rows (a
//! whole decoded chunk from the mmap cursor,
//! [`ROW_BATCH`](fgbd_trace::capture2::ROW_BATCH) decoded rows from the
//! stream walker, a tap batch the capture writer just encoded) goes to an
//! [`OnlineDetector::uncalibrated`] detector first, which pairs it, folds
//! the spans it closes into its rings and holds about 4 bytes of each (its
//! residence; its departure interval as part of a run) for weighing, and
//! then — the same buffer, moved over a channel — to a worker thread that
//! folds exactly the first
//! [`calib_records_from_env`] records (default 1 Mi) into the calibration
//! ([`Calibration::from_capture_prefix`]'s fold). The buffers come from a
//! [`BufferPool`] of at most [`POOL_BUFFERS`], so the decoder runs at most
//! three batches ahead of the worker, however the threads are scheduled.
//! At the end of the capture chunk that completes the prefix (or
//! at end of input, if it never does) the main thread joins the worker —
//! at most those three batches behind — and the detector is
//! [calibrated](OnlineDetector::calibrate): the held spans are weighed,
//! class by class, and finalized, and from then on spans are weighed as
//! they close. So calibration overlaps decode and pairing instead of
//! preceding them, nothing is decoded twice, no record is copied, and no
//! `TraceLog`, `SpanSet` or reconstruction of the capture ever exists. The
//! detector holds only the spans the prefix's chunks closed — memory is
//! bounded by the budget, not by the capture — and where calibration lands depends on
//! the capture and the budget alone, never on thread timing. The reports
//! are bit-identical to batch `analyze_server` over the materialized
//! capture (`tests/capture_formats.rs` holds the CLI to that; CI
//! byte-compares a run pinned to one core with one on two).
//!
//! Every capture consumer drives this one body:
//! [`analyze_capture2_zero_copy`] for a file (`analyze_capture`,
//! `compare_captures`), the capture writer's thread for the record tap
//! (`million_users`: it hands over each batch it has encoded, see
//! [`crate::tapwriter`]) and `analyze_capture --follow` for a growing file
//! or a FIFO, which hands this one detector to the live monitor's telemetry
//! after every record ([`CaptureAnalyzer::push_observed`]): live verdicts
//! are calibrated, named and on the `--verdicts` grid, with heartbeats only
//! until the chunk that completes the prefix.

use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fgbd_core::online::{OnlineConfig, OnlineDetector, OnlineReport};
use fgbd_des::{SimDuration, SimTime};
use fgbd_obsv::json::Json;
use fgbd_trace::capture2::ChunkCursor;
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::{CaptureError, MsgRecord, NodeKind, NodeMeta, Projection};

use crate::harness::RunScope;
use crate::pipeline::{calib_records_from_env, Calibration, CalibrationFold, WORK_UNIT_RESOLUTION};

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
    /// How the records arrived: `"mmap"`, `"heap"` (the automatic fallback
    /// of [`Mapping::open`]), `"stream"` (`--follow`) or `"tap"` (the
    /// capture writer's batches, [`crate::tapwriter`]).
    pub source: &'static str,
    /// Records service times were calibrated on (the prefix).
    pub calib_prefix_records: usize,
    /// Decode width actually used (after clamping), not the one requested.
    pub decode_threads: usize,
    /// Time the main thread spent blocked on the calibration worker: waits
    /// for a buffer of its pool, and the join for its last batches at the
    /// prefix end.
    pub calib_wait: Duration,
    /// Spans the detector held until it was calibrated (its peak).
    pub calib_held_spans: usize,
}

impl ZeroCopyAnalysis {
    /// Stamps the route that ran into a run manifest — so a silent fallback
    /// (mmap → heap, clamped decode threads, a worker that did not overlap)
    /// is visible.
    pub fn stamp_route(&self, scope: &mut RunScope) {
        let num = |v: usize| Json::Num(v as f64);
        scope.field("source", Json::Str(self.source.into()));
        scope.field("calib_prefix_records", num(self.calib_prefix_records));
        scope.field("decode_threads", num(self.decode_threads));
        let wait_ms = self.calib_wait.as_secs_f64() * 1e3;
        scope.field("calib_wait_ms", Json::Num(wait_ms));
        scope.field("calib_held_spans", num(self.calib_held_spans));
    }
}

/// Record buffers in the analyzer's [`BufferPool`]: it fills one while the
/// worker holds the other three (one it folds, two queued), so it runs at
/// most three batches ahead before it waits.
pub(crate) const POOL_BUFFERS: usize = 4;

/// The record buffers a producer thread and the thread it feeds pass round:
/// at most the pool's size of them, whatever the threads' timing. The
/// producer reuses a buffer the consumer has handed back, makes a new one
/// only while fewer exist, and otherwise waits for one, so the pool, not a
/// channel bound, caps what is in flight. Making them all up front cost a
/// short capture the page faults of buffers it never needed:
/// `analyze_capture` ran 2–6% longer on 1–3 MB captures.
#[derive(Debug)]
pub(crate) struct BufferPool {
    /// Buffers not made yet.
    unmade: usize,
    back: Receiver<Vec<MsgRecord>>,
    /// Takes that waited for a buffer, and how long they waited.
    pub(crate) waits: u64,
    pub(crate) waited: Duration,
}

impl BufferPool {
    /// A pool of `buffers`, the first of which the producer already holds,
    /// and the sender its consumer hands buffers back on.
    pub(crate) fn new(buffers: usize) -> (BufferPool, Sender<Vec<MsgRecord>>) {
        let (give, back) = mpsc::channel();
        let pool = BufferPool {
            unmade: buffers - 1,
            back,
            waits: 0,
            waited: Duration::ZERO,
        };
        (pool, give)
    }

    /// An empty buffer: one handed back if one is, else a new one while the
    /// pool is short, else the next one handed back, waiting for it. Once
    /// the consumer is gone (the producer's own channel tells it why) every
    /// call makes a new one.
    pub(crate) fn take(&mut self) -> Vec<MsgRecord> {
        let mut buf = match self.back.try_recv() {
            Ok(buf) => buf,
            Err(_) if self.unmade > 0 => {
                self.unmade -= 1;
                return Vec::new();
            }
            Err(_) => {
                let t = Instant::now();
                let buf = self.back.recv().unwrap_or_default();
                self.waits += 1;
                self.waited += t.elapsed();
                buf
            }
        };
        buf.clear();
        buf
    }
}

/// The calibration worker: folds the prefix it is sent, hands each buffer
/// back, and returns the calibration when its channel closes.
#[derive(Debug)]
struct CalibWorker {
    /// Batches and how many of their records are prefix; taken to close
    /// the channel, which ends the fold.
    chunks: Option<Sender<(Vec<MsgRecord>, usize)>>,
    /// The buffers the analyzer decodes into while the worker runs.
    pool: BufferPool,
    handle: Option<JoinHandle<Calibration>>,
    /// Prefix records sent so far.
    fed: usize,
}

impl CalibWorker {
    fn spawn(nodes: &[NodeMeta]) -> CalibWorker {
        let (chunks, todo) = mpsc::channel::<(Vec<MsgRecord>, usize)>();
        let (pool, done) = BufferPool::new(POOL_BUFFERS);
        let mut fold = CalibrationFold::new(nodes);
        // The worker's `calibrate` spans root where the analyzer runs.
        let base = fgbd_obsv::span::current_path();
        let handle = std::thread::Builder::new()
            .name("fgbd-calibrate".into())
            .spawn(move || {
                fgbd_obsv::span::adopt_path(&base);
                for (chunk, take) in todo {
                    let _span = fgbd_obsv::span::enter("calibrate");
                    fold.push_chunk(&chunk[..take]);
                    // The analyzer may already be past wanting spares.
                    let _ = done.send(chunk);
                }
                let cal = {
                    fgbd_obsv::span!("calibrate");
                    fold.finish()
                };
                fgbd_obsv::span::flush_thread();
                cal
            })
            .expect("spawn the calibration worker");
        CalibWorker {
            chunks: Some(chunks),
            pool,
            handle: Some(handle),
            fed: 0,
        }
    }

    /// Waits for the calibration, re-raising a panic of the worker's.
    fn join(mut self) -> Calibration {
        self.chunks = None;
        let handle = self.handle.take().expect("the worker is joined once");
        handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Drop for CalibWorker {
    /// An analyzer dropped mid-capture (a damaged chunk) still joins: the
    /// closed channel ends the fold of what was sent.
    fn drop(&mut self) {
        self.chunks = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The forward-only analyzer (see the module docs): push chunks in capture
/// order, then [`finish`](Self::finish).
#[derive(Debug)]
pub struct CaptureAnalyzer {
    nodes: Vec<NodeMeta>,
    interval: SimDuration,
    calib_cap: usize,
    /// Built on the first record, whose timestamp starts the grid.
    detector: Option<OnlineDetector>,
    /// Folding the prefix; `None` before the first record and once the
    /// detector is calibrated.
    worker: Option<CalibWorker>,
    records: u64,
    /// First and last record timestamps seen so far.
    bounds: Option<(SimTime, SimTime)>,
    calib_wait: Duration,
    calib_held_spans: usize,
}

impl CaptureAnalyzer {
    /// An analyzer for a capture with node table `nodes`, detecting at
    /// `interval` granularity.
    pub fn new(nodes: Vec<NodeMeta>, interval: SimDuration) -> CaptureAnalyzer {
        CaptureAnalyzer {
            nodes,
            interval,
            calib_cap: calib_records_from_env(),
            detector: None,
            worker: None,
            records: 0,
            bounds: None,
            calib_wait: Duration::ZERO,
            calib_held_spans: 0,
        }
    }

    /// `true` while calibration still wants records — until then chunks
    /// need all their columns; afterwards only the ones detection reads
    /// ([`Projection::DETECT`]).
    fn wants_full_columns(&self) -> bool {
        self.detector.is_none() || self.worker.is_some()
    }

    /// Consumes the next rows of the capture (full columns until the
    /// calibration prefix is complete), `chunk_end` when they end their
    /// capture chunk, and returns a buffer to decode the rows after into:
    /// one from the worker's [`BufferPool`], or `rows` itself.
    pub fn push_rows(&mut self, rows: Vec<MsgRecord>, chunk_end: bool) -> Vec<MsgRecord> {
        self.push_observed(rows, chunk_end, |_| {})
    }

    /// [`push_rows`](Self::push_rows), handing the detector to `observe`
    /// after each record (`--follow`'s live telemetry).
    pub fn push_observed(
        &mut self,
        rows: Vec<MsgRecord>,
        chunk_end: bool,
        mut observe: impl FnMut(&mut OnlineDetector),
    ) -> Vec<MsgRecord> {
        let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
            return rows;
        };
        let start = self.bounds.map_or(first.at, |(start, _)| start);
        self.bounds = Some((start, last.at));
        self.records += rows.len() as u64;
        if self.detector.is_none() {
            let ocfg = OnlineConfig::new(start, self.interval, WORK_UNIT_RESOLUTION);
            self.detector = Some(OnlineDetector::uncalibrated(ocfg));
            self.worker = Some(CalibWorker::spawn(&self.nodes));
        }
        let det = self.detector.as_mut().expect("built on the first record");
        for rec in &rows {
            det.push(rec);
            observe(det);
        }
        let Some(worker) = &mut self.worker else {
            return rows;
        };
        let take = rows.len().min(self.calib_cap - worker.fed);
        let spare = if take == 0 {
            rows
        } else {
            worker.fed += take;
            let chunks = worker.chunks.as_ref().expect("open until joined");
            // A worker that died drops its receiver; `join` re-raises why.
            let _ = chunks.send((rows, take));
            worker.pool.take()
        };
        // Calibration lands at the end of the capture chunk that completes
        // the prefix, however the walker batches its rows: that fixes the
        // held spans and the live verdicts' emission times.
        if worker.fed == self.calib_cap && chunk_end {
            self.calibrate();
        }
        spare
    }

    /// Waits for the worker's calibration and calibrates the detector with
    /// it; a no-op once calibrated or before the first record.
    fn calibrate(&mut self) {
        let (Some(det), Some(worker)) = (&mut self.detector, self.worker.take()) else {
            return;
        };
        let t = Instant::now();
        let waited = worker.pool.waited;
        let cal = worker.join();
        self.calib_wait += waited + t.elapsed();
        self.calib_held_spans = det.held_spans();
        det.calibrate(cal.services, cal.work_units);
    }

    /// Ends the capture: calibrates now if the prefix never completed,
    /// closes the grid at the last record, and returns the reports in
    /// node-table order, stamped with the route the caller fed it by. An
    /// empty capture yields `records == 0` and no reports.
    pub fn finish(self, source: &'static str, decode_threads: usize) -> ZeroCopyAnalysis {
        self.finish_observed(source, decode_threads, |det, end| {
            end.map_or(Vec::new(), |end| det.finish(end).reports)
        })
    }

    /// [`finish`](Self::finish), handing the calibrated detector and the
    /// grid end to `close` for the reports (`--follow`'s final heartbeat and
    /// tail verdicts). The end is `None` when the records share one
    /// timestamp: there is no grid at all.
    pub fn finish_observed(
        mut self,
        source: &'static str,
        decode_threads: usize,
        close: impl FnOnce(OnlineDetector, Option<SimTime>) -> Vec<OnlineReport>,
    ) -> ZeroCopyAnalysis {
        let (start, end) = self.bounds.unwrap_or((SimTime::ZERO, SimTime::ZERO));
        self.calibrate();
        let grid = (end > start).then_some(end);
        let mut found = self.detector.take().map_or(Vec::new(), |d| close(d, grid));
        // Node-table order, servers only, at least one matched span — the
        // batch filter (`matched > 0` ⇔ the batch span set is non-empty).
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
            source,
            // The first `calib_cap` records, or all of a shorter capture.
            calib_prefix_records: self.calib_cap.min(self.records as usize),
            decode_threads,
            calib_wait: self.calib_wait,
            calib_held_spans: self.calib_held_spans,
        }
    }
}

/// Analyzes a capture file: the file is mapped ([`Mapping::open`], heap
/// fallback automatic) and scanned once, front to back, through a
/// [`CaptureAnalyzer`]. The capture is walked by the lazy
/// [`ChunkCursor`] — all columns, one chunk at a time, while the
/// calibration worker still wants records; only the detector's columns,
/// `threads` chunks decoded ahead (clamped on <2-core hosts), afterwards — with
/// consumed pages released behind the scan. `interval` is the analysis
/// granularity.
///
/// # Errors
///
/// [`CaptureError::Io`] for filesystem failures, [`CaptureError::BadMagic`]
/// for a file that is not an `FGBDCAP2` capture, and
/// [`CaptureError::Malformed`] / [`CaptureError::Chunk`] for damaged
/// captures, attributed per chunk.
pub fn analyze_capture2_zero_copy(
    path: &Path,
    interval: SimDuration,
    threads: usize,
) -> Result<ZeroCopyAnalysis, CaptureError> {
    fgbd_obsv::span!("zero_copy_analyze");
    let map = Mapping::open(path)?;
    map.advise_sequential();
    let source = if map.is_mapped() { "mmap" } else { "heap" };

    let mut cursor = ChunkCursor::new(&map)?;
    let mut analyzer = CaptureAnalyzer::new(cursor.nodes().to_vec(), interval);
    let mut buf = Vec::new();
    while cursor.next_chunk(&mut buf)? {
        let full = analyzer.wants_full_columns();
        buf = analyzer.push_rows(std::mem::take(&mut buf), true);
        if full && !analyzer.wants_full_columns() {
            cursor = cursor
                .with_projection(Projection::DETECT)
                .with_threads(threads);
        }
        map.release_until(cursor.consumed_bytes());
    }
    Ok(analyzer.finish(source, cursor.threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbd_trace::{ClassId, ConnId, MsgKind, NodeId};

    #[test]
    fn the_pool_holds_its_size_in_buffers_under_a_slowed_consumer() {
        let (mut pool, give) = BufferPool::new(POOL_BUFFERS);
        let (feed, fed) = mpsc::channel::<Vec<MsgRecord>>();
        let (open, gate) = mpsc::channel::<()>();
        // A consumer that hands a buffer back only when the gate opens.
        let consumer = std::thread::spawn(move || {
            for buf in fed {
                if gate.recv().is_err() {
                    return;
                }
                give.send(buf).expect("the pool is alive");
            }
        });
        let (mut made, mut sent) = (1, Vec::new());
        let mut buf = Vec::new();
        for round in 0..5 * POOL_BUFFERS {
            buf.push(MsgRecord {
                at: SimTime::ZERO,
                src: NodeId(0),
                dst: NodeId(1),
                kind: MsgKind::Request,
                conn: ConnId(0),
                class: ClassId(0),
                bytes: 0,
                truth: None,
            });
            sent.push(buf.as_ptr());
            feed.send(buf).expect("the consumer is alive");
            if round + 1 >= POOL_BUFFERS {
                // Every buffer is with the consumer: the next comes back.
                open.send(()).expect("the consumer is alive");
            }
            buf = pool.take();
            assert!(buf.is_empty());
            if buf.capacity() == 0 {
                made += 1;
            } else {
                // The oldest buffer out, handed back.
                assert_eq!(buf.as_ptr(), sent[round + 1 - POOL_BUFFERS]);
            }
        }
        assert_eq!(made, POOL_BUFFERS);
        drop((feed, open));
        consumer.join().expect("the consumer ends");
    }
}
