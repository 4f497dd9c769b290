#![warn(missing_docs)]

//! # fgbd-trace — passive network tracing substrate
//!
//! The paper's detection method is fed by *passive network tracing* (Fujitsu
//! SysViz): a tap on the switch mirror port records every interaction message
//! between tiers with microsecond timestamps and negligible overhead on the
//! servers. This crate reproduces that substrate:
//!
//! * [`record`] — the capture schema: [`MsgRecord`] / [`TraceLog`], with
//!   ground-truth annotations that black-box code cannot use.
//! * [`span`] — per-server request spans (arrival/departure pairs), paired
//!   with one open request per connection; these are the direct inputs of
//!   the fine-grained load/throughput analysis in `fgbd-core`.
//! * [`reconstruct`] — black-box transaction reconstruction: stitching
//!   per-server spans into whole-transaction trees using only timing and
//!   nesting constraints (SysViz is a black-box tracer; the paper reports
//!   over 99% reconstruction accuracy, which the tests measure against
//!   simulator ground truth with `fgbd_oracle::reconstruct::Accuracy`).
//! * [`servicetime`] — per-class service-time approximation from low-load
//!   capture windows (paper §III-B), feeding throughput normalization.
//! * [`capture`] / [`capture2`] — the on-disk capture format (the
//!   reproduction's pcap analogue): one chunked writer and two chunk
//!   walkers, [`ChunkCursor`] in memory and [`CaptureChunks`] on a stream.
//! * [`mmapio`] — zero-copy capture input: a dependency-free `mmap` wrapper
//!   (heap fallback elsewhere) whose `&[u8]` feeds the lazy
//!   [`capture2::ChunkCursor`] without materializing the file.
//!
//! # Examples
//!
//! ```
//! use fgbd_des::SimTime;
//! use fgbd_trace::record::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId};
//! use fgbd_trace::span::SpanSet;
//!
//! let mut log = TraceLog::new(vec![
//!     NodeMeta { id: NodeId(0), name: "client".into(), kind: NodeKind::Client, tier: None },
//!     NodeMeta { id: NodeId(1), name: "web-1".into(), kind: NodeKind::Server, tier: Some(0) },
//! ]);
//! let req = MsgRecord {
//!     at: SimTime::from_micros(100), src: NodeId(0), dst: NodeId(1),
//!     kind: MsgKind::Request, conn: ConnId(1), class: ClassId(0), bytes: 512,
//!     truth: Some(TxnId(1)),
//! };
//! log.push(req);
//! log.push(MsgRecord { at: SimTime::from_micros(900), src: NodeId(1), dst: NodeId(0),
//!     kind: MsgKind::Response, ..req });
//! let spans = SpanSet::extract(&log);
//! assert_eq!(spans.server(NodeId(1)).len(), 1);
//! ```

pub mod capture;
pub mod capture2;
pub mod mmapio;
pub mod reconstruct;
pub mod record;
pub mod servicetime;
pub mod span;
pub mod tail;

pub use capture::{read_capture, read_capture_file, CaptureError};
pub use capture2::{write_capture2, CaptureChunks, ChunkCursor, ChunkedWriter, Projection};
pub use mmapio::Mapping;
pub use record::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId,
};
pub use span::{Span, SpanSet};
pub use tail::{wait_for_file, TailConfig, TailReader};
