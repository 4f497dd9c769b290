//! The record tap's capture writer: the simulation thread only batches
//! records, a writer thread encodes them into a chunked `FGBDCAP2` file,
//! and — when asked — an analyzer thread reads the bytes it writes as they
//! land.
//!
//! ```text
//! simulation ──batches──▶ writer ──────────bytes──▶ file
//! (the tap)   (bounded)   (ChunkedWriter)   └─tee─▶ pipe ──▶ analyzer ──▶ reports
//!                                                          (analyze_stream,
//!                                                           its calibration worker)
//! ```
//!
//! The writer thread owns the one [`ChunkedWriter`], so chunk boundaries
//! and file bytes are those of an inline tap. The analyzer decodes the very
//! bytes that go to disk through an in-process pipe with the stream walker
//! ([`analyze_stream`]), so its reports are those of
//! [`analyze_capture2_zero_copy`](crate::zerocopy::analyze_capture2_zero_copy)
//! on the finished file, and when the simulation stops only the last chunk
//! and the N\* fits remain. On one core the stages take turns; nothing
//! depends on how they interleave.
//!
//! A consumer that dies (a failed write, a failed decode) never blocks the
//! simulation: the tap drops records once its channel is gone, a dead
//! analyzer only loses its pipe while the file is still written, and
//! [`TapWriter::finish`] returns the first cause.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, PipeWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use fgbd_des::SimDuration;
use fgbd_trace::{CaptureError, ChunkedWriter, MsgRecord, NodeMeta};

use crate::zerocopy::{analyze_stream, ZeroCopyAnalysis};

/// Records per batch the tap hands the writer thread. A batch is 512 KiB
/// of records and a quarter of a chunk, so the simulation thread sends
/// about a hundred times a second at the `million_users` rate — the channel
/// costs nothing next to the simulation — while the batches in flight stay
/// small beside the chunk buffer the writer holds anyway. On a 2-core host,
/// batches four times as large were no faster and held about 3 MiB more.
const TAP_BATCH_RECORDS: usize = 16 * 1024;

/// Full batches queued for the writer before the tap waits. The writer
/// encodes about ten times faster than the simulation records, so the
/// queue only absorbs the pause while it encodes a chunk.
const BATCHES_IN_FLIGHT: usize = 2;

/// What a finished [`TapWriter`] reports.
#[derive(Debug)]
pub struct Tapped {
    /// Records written to the capture.
    pub records: u64,
    /// The analysis of the written bytes, if one was asked for.
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
    full: Option<SyncSender<Vec<MsgRecord>>>,
    /// Written batches, back for reuse.
    spent: Receiver<Vec<MsgRecord>>,
    records: u64,
    writer: JoinHandle<Result<(), CaptureError>>,
    analyzer: Option<JoinHandle<Result<ZeroCopyAnalysis, CaptureError>>>,
}

impl TapWriter {
    /// Creates the capture at `path` with node table `nodes` and starts
    /// the writer thread; with `analyze`, also an analyzer thread that
    /// detects at that granularity on the bytes as they are written.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Io`] if the file cannot be created or its header
    /// written, or a thread cannot be started.
    pub fn create(
        path: &Path,
        nodes: &[NodeMeta],
        analyze: Option<SimDuration>,
    ) -> Result<TapWriter, CaptureError> {
        let file = File::create(path)?;
        let (pipe, analyzer) = match analyze {
            Some(interval) => {
                let (reader, pipe) = io::pipe()?;
                let analyzer = spawn("fgbd-analyze", move || {
                    analyze_stream(BufReader::new(reader), interval)
                })?;
                (Some(pipe), Some(analyzer))
            }
            None => (None, None),
        };
        let mut capture = ChunkedWriter::new(BufWriter::new(Tee { file, pipe }), nodes)?;
        let (full, todo) = mpsc::sync_channel::<Vec<MsgRecord>>(BATCHES_IN_FLIGHT);
        let (done, spent) = mpsc::channel();
        let writer = spawn("fgbd-capture", move || {
            for mut batch in todo {
                let _span = fgbd_obsv::span::enter("encode");
                for rec in batch.drain(..) {
                    capture.push(rec)?;
                }
                // The tap may already be finished and gone.
                let _ = done.send(batch);
            }
            // A dropped `BufWriter` would swallow a failed flush; dropping
            // the tee closes the pipe behind the footer.
            capture.finish()?.flush()?;
            Ok(())
        })?;
        Ok(TapWriter {
            batch: Vec::with_capacity(TAP_BATCH_RECORDS),
            full: Some(full),
            spent,
            records: 0,
            writer,
            analyzer,
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
        let spare = self
            .spent
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(TAP_BATCH_RECORDS));
        if full
            .send(std::mem::replace(&mut self.batch, spare))
            .is_err()
        {
            self.full = None;
        }
    }

    /// Hands over the last records, waits for the writer to seal the file
    /// and, if one runs, for the analyzer's reports.
    ///
    /// # Errors
    ///
    /// The writer's error if it failed (a failed write fails the analysis
    /// too: its pipe ends early), else the analyzer's. A panic on either
    /// thread is re-raised.
    pub fn finish(mut self) -> Result<Tapped, CaptureError> {
        if !self.batch.is_empty() {
            self.hand_off();
        }
        // Closing the channel ends the writer, and the writer's end closes
        // the pipe: both joins return.
        self.full = None;
        let written = join(self.writer);
        let analysis = self.analyzer.map(join).transpose();
        written?;
        Ok(Tapped {
            records: self.records,
            analysis: analysis?,
        })
    }
}

/// Spawns a named stage thread whose spans root where it was started.
fn spawn<T: Send + 'static>(
    name: &str,
    stage: impl FnOnce() -> Result<T, CaptureError> + Send + 'static,
) -> io::Result<JoinHandle<Result<T, CaptureError>>> {
    let base = fgbd_obsv::span::current_path();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            fgbd_obsv::span::adopt_path(&base);
            let out = stage();
            fgbd_obsv::span::flush_thread();
            out
        })
}

fn join<T>(handle: JoinHandle<Result<T, CaptureError>>) -> Result<T, CaptureError> {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The file, and a copy of every byte into the analyzer's pipe while that
/// is open. A failed pipe write (the analyzer is gone) drops the pipe and
/// keeps the file going.
struct Tee {
    file: File,
    pipe: Option<PipeWriter>,
}

impl Write for Tee {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        if let Some(pipe) = &mut self.pipe {
            if pipe.write_all(&buf[..n]).is_err() {
                self.pipe = None;
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
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
