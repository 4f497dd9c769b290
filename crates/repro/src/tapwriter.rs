//! The record tap's capture writer: the simulation thread only batches
//! records, and a writer thread encodes each batch into a chunked
//! `FGBDCAP2` file and — when asked — hands the same batch to the
//! analyzer.
//!
//! ```text
//! simulation ──batches──▶ writer ─────────────────────▶ file
//! (the tap)   (bounded)   (ChunkedWriter, then
//!     ▲                    CaptureAnalyzer) ──────────▶ reports
//!     └──────spare batches──┘    └─▶ calibration worker
//! ```
//!
//! The writer thread owns the one [`ChunkedWriter`], so chunk boundaries
//! and file bytes are those of an inline tap. It also owns the
//! [`CaptureAnalyzer`], which reads the tap's own batches once they are
//! encoded — the records are never copied, decoded or held twice — and is
//! told a batch ends a chunk when the writer just sealed one, so its
//! reports and calibration point are those of
//! [`analyze_capture2_zero_copy`](crate::zerocopy::analyze_capture2_zero_copy)
//! on the finished file (manifest `source: "tap"`). The analyzer's spare
//! buffers go back to the tap, so at most `TAP_BATCHES + POOL_BUFFERS`
//! batches ever exist, and when the simulation stops only the last chunk
//! and the N\* fits remain. On one core the threads take turns; nothing
//! depends on how they interleave.
//!
//! A writer that dies (a failed write) never blocks the simulation: the
//! tap drops records once its channel is gone, and [`TapWriter::finish`]
//! returns the cause.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use fgbd_des::SimDuration;
use fgbd_trace::capture2::DEFAULT_CHUNK_RECORDS;
use fgbd_trace::{CaptureError, ChunkedWriter, MsgRecord, NodeMeta};

use crate::zerocopy::{BufferPool, CaptureAnalyzer, ZeroCopyAnalysis};

/// Records per batch the tap hands the writer thread. A batch is 160 KiB
/// of records, a sixteenth of a chunk, so while the writer keeps up the
/// tap holds a few of them. The simulation thread sends about 400 times a
/// second at the `million_users` rate, a channel send each — nothing next
/// to the simulation.
const TAP_BATCH_RECORDS: usize = 4 * 1024;

// A chunk is sealed at the end of a batch, so the analyzer learns exactly
// where chunks end.
const _: () = assert!(DEFAULT_CHUNK_RECORDS.is_multiple_of(TAP_BATCH_RECORDS));

/// The tap's [`BufferPool`]: up to a chunk of records in flight. The
/// writer encodes about ten times faster than the simulation records, but
/// it pauses for each chunk's seal and for the analyzer's calibration
/// worker; batches made only while it lags absorb those pauses. With four
/// 4 Ki-record batches the simulation waited on it: `million_users` ran
/// 12–17% longer on two cores than with the 16 Ki-record batches before,
/// against 5% (inside the run-to-run spread) with sixteen.
const TAP_BATCHES: usize = 16;

/// What a finished [`TapWriter`] reports.
#[derive(Debug)]
pub struct Tapped {
    /// Records written to the capture.
    pub records: u64,
    /// The analysis of the written records, if one was asked for.
    pub analysis: Option<ZeroCopyAnalysis>,
}

/// A capture file fed from the record tap (see the module docs): create it
/// before the run, [`push`](Self::push) each record from the tap, then
/// [`finish`](Self::finish).
#[derive(Debug)]
pub struct TapWriter {
    /// The batch being filled.
    batch: Vec<MsgRecord>,
    /// Full batches to the writer; `None` once the writer is gone.
    full: Option<Sender<Vec<MsgRecord>>>,
    /// The batches, back from the writer for reuse.
    pool: BufferPool,
    records: u64,
    writer: JoinHandle<Result<Option<ZeroCopyAnalysis>, CaptureError>>,
}

impl TapWriter {
    /// Creates the capture at `path` with node table `nodes` and starts
    /// the writer thread; with `analyze`, the writer also detects at that
    /// granularity on the records it encodes.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Io`] if the file cannot be created or its header
    /// written, or the thread cannot be started.
    pub fn create(
        path: &Path,
        nodes: &[NodeMeta],
        analyze: Option<SimDuration>,
    ) -> Result<TapWriter, CaptureError> {
        let capture = ChunkedWriter::new(BufWriter::new(File::create(path)?), nodes)?;
        let analyzer = analyze.map(|interval| CaptureAnalyzer::new(nodes.to_vec(), interval));
        let (full, todo) = mpsc::channel::<Vec<MsgRecord>>();
        let (pool, done) = BufferPool::new(TAP_BATCHES);
        let base = fgbd_obsv::span::current_path();
        let writer = std::thread::Builder::new()
            .name("fgbd-capture".into())
            .spawn(move || {
                fgbd_obsv::span::adopt_path(&base);
                let out = write_batches(todo, done, capture, analyzer);
                fgbd_obsv::span::flush_thread();
                out
            })?;
        Ok(TapWriter {
            batch: Vec::with_capacity(TAP_BATCH_RECORDS),
            full: Some(full),
            pool,
            records: 0,
            writer,
        })
    }

    /// Appends one record (the tap's whole work); a full batch goes to the
    /// writer thread.
    #[inline]
    pub fn push(&mut self, rec: MsgRecord) {
        self.records += 1;
        self.batch.push(rec);
        if self.batch.len() == TAP_BATCH_RECORDS {
            self.hand_off();
        }
    }

    fn hand_off(&mut self) {
        let Some(full) = &self.full else {
            // The writer died: `finish` reports why.
            self.batch.clear();
            return;
        };
        let batch = std::mem::take(&mut self.batch);
        if full.send(batch).is_err() {
            self.full = None;
            return;
        }
        self.batch = self.pool.take();
    }

    /// Hands over the last records and waits for the writer to seal the
    /// file and, if one was asked for, finish the analysis.
    ///
    /// # Errors
    ///
    /// The writer's error if it failed. A panic on its thread is re-raised.
    pub fn finish(mut self) -> Result<Tapped, CaptureError> {
        if !self.batch.is_empty() {
            self.hand_off();
        }
        // Closing the channel ends the writer.
        self.full = None;
        let analysis = self
            .writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        // Retained, so a run the simulation never waited in reports 0.
        if fgbd_obsv::enabled() {
            let counter = fgbd_obsv::metrics::counter_retained;
            counter("tap.pool_waits").add(self.pool.waits);
            counter("tap.pool_wait_us").add(self.pool.waited.as_micros() as u64);
        }
        Ok(Tapped {
            records: self.records,
            analysis,
        })
    }
}

/// The writer thread: encodes each batch, hands it to the analyzer if
/// there is one, returns a spare to the tap, and seals the file once the
/// tap is done.
fn write_batches(
    todo: Receiver<Vec<MsgRecord>>,
    done: Sender<Vec<MsgRecord>>,
    mut capture: ChunkedWriter<BufWriter<File>>,
    mut analyzer: Option<CaptureAnalyzer>,
) -> Result<Option<ZeroCopyAnalysis>, CaptureError> {
    for batch in todo {
        {
            let _span = fgbd_obsv::span::enter("encode");
            for &rec in &batch {
                capture.push(rec)?;
            }
        }
        let spare = match &mut analyzer {
            Some(analyzer) => {
                let _span = fgbd_obsv::span::enter("analyze");
                analyzer.push_rows(batch, capture.at_chunk_end())
            }
            None => batch,
        };
        // The tap may already be finished and gone.
        let _ = done.send(spare);
    }
    // A dropped `BufWriter` would swallow a failed flush.
    capture.finish()?.flush()?;
    Ok(analyzer.map(|analyzer| analyzer.finish("tap", 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbd_des::SimTime;
    use fgbd_trace::{ClassId, ConnId, MsgKind, NodeId, NodeKind};

    #[test]
    #[cfg(target_os = "linux")]
    fn a_failed_write_ends_in_the_writers_error_not_a_hang() {
        let nodes = [NodeMeta {
            id: NodeId(0),
            name: "clients".into(),
            kind: NodeKind::Client,
            tier: None,
        }];
        // Every write to `/dev/full` fails with "no space left on device".
        let mut tap = TapWriter::create(
            Path::new("/dev/full"),
            &nodes,
            Some(SimDuration::from_millis(50)),
        )
        .expect("opens for writing");
        for i in 0..8 * TAP_BATCH_RECORDS as u64 {
            tap.push(MsgRecord {
                at: SimTime::from_micros(i),
                src: NodeId(0),
                dst: NodeId(0),
                kind: MsgKind::Request,
                conn: ConnId(0),
                class: ClassId(0),
                bytes: 1,
                truth: None,
            });
        }
        assert_eq!(tap.records, 8 * TAP_BATCH_RECORDS as u64);
        match tap.finish() {
            Err(CaptureError::Io(e)) => assert_eq!(e.raw_os_error(), Some(28), "ENOSPC: {e}"),
            other => panic!("expected the write error, got {other:?}"),
        }
    }
}
