//! Capture files: a compact, versioned binary serialization of
//! [`TraceLog`] — the reproduction's analogue of a pcap file, so captures
//! can be written during a run and analyzed offline (or exchanged between
//! tools) without dragging a JSON serializer through millions of records.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   [u8;8]  = b"FGBDCAP1"
//! n_nodes u32
//!   per node: id u16, kind u8 (0=client, 1=server), tier u8 (0xFF = none),
//!             name_len u16, name bytes (UTF-8)
//! n_records u64
//!   per record: at u64, src u16, dst u16, kind u8 (0=req, 1=resp),
//!               conn u32, class u16, bytes u32,
//!               truth u64 (u64::MAX = none)
//! ```
//!
//! Readers reject unknown magics and truncated inputs with
//! [`CaptureError`]; writers stream, so memory stays flat regardless of
//! capture size.
//!
//! A second, chunked columnar format (`FGBDCAP2`, see [`crate::capture2`])
//! shares the node-table encoding and the reader entry points below:
//! [`read_capture`] / [`read_capture_file`] sniff the magic and decode
//! either format, so every consumer of `.fgbdcap` files accepts both.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use fgbd_des::SimTime;

use crate::record::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId,
};

pub(crate) const MAGIC: &[u8; 8] = b"FGBDCAP1";
const NO_TIER: u8 = 0xFF;
const NO_TRUTH: u64 = u64::MAX;

/// Failures while reading or writing a capture file.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a capture file (or a newer, unknown version).
    BadMagic([u8; 8]),
    /// The input ended mid-structure or contains an invalid field.
    Malformed(&'static str),
    /// A specific chunk of an `FGBDCAP2` capture failed validation; the
    /// index pinpoints the damage so multi-GB captures do not have to be
    /// bisected by hand.
    Chunk {
        /// Zero-based index of the failing chunk within the capture.
        index: u32,
        /// What failed inside that chunk.
        what: &'static str,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Io(e) => write!(f, "capture i/o error: {e}"),
            CaptureError::BadMagic(m) => write!(f, "not a capture file (magic {m:02x?})"),
            CaptureError::Malformed(what) => write!(f, "malformed capture: {what}"),
            CaptureError::Chunk { index, what } => {
                write!(f, "malformed capture chunk {index}: {what}")
            }
        }
    }
}

impl std::error::Error for CaptureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CaptureError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CaptureError {
    fn from(e: io::Error) -> Self {
        // An unexpected EOF while decoding means truncation, which is a
        // format error from the caller's point of view.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CaptureError::Malformed("truncated input")
        } else {
            CaptureError::Io(e)
        }
    }
}

/// Writes `log` as a capture stream.
///
/// The writer can be anything implementing [`Write`]; pass `&mut file` to
/// keep using the file afterwards.
///
/// # Errors
///
/// Returns [`CaptureError::Io`] on underlying write failures.
pub fn write_capture<W: Write>(mut w: W, log: &TraceLog) -> Result<(), CaptureError> {
    w.write_all(MAGIC)?;
    write_node_table(&mut w, &log.nodes)?;
    w.write_all(&(log.records.len() as u64).to_le_bytes())?;
    for r in &log.records {
        w.write_all(&r.at.as_micros().to_le_bytes())?;
        w.write_all(&r.src.0.to_le_bytes())?;
        w.write_all(&r.dst.0.to_le_bytes())?;
        w.write_all(&[match r.kind {
            MsgKind::Request => 0u8,
            MsgKind::Response => 1u8,
        }])?;
        w.write_all(&r.conn.0.to_le_bytes())?;
        w.write_all(&r.class.0.to_le_bytes())?;
        w.write_all(&r.bytes.to_le_bytes())?;
        w.write_all(&r.truth.map_or(NO_TRUTH, |t| t.0).to_le_bytes())?;
    }
    Ok(())
}

/// Writes the node table — shared verbatim by both capture formats, so a
/// format upgrade never changes how topology metadata is encoded.
pub(crate) fn write_node_table<W: Write>(
    w: &mut W,
    nodes: &[NodeMeta],
) -> Result<(), CaptureError> {
    w.write_all(&(nodes.len() as u32).to_le_bytes())?;
    for n in nodes {
        w.write_all(&n.id.0.to_le_bytes())?;
        w.write_all(&[match n.kind {
            NodeKind::Client => 0u8,
            NodeKind::Server => 1u8,
        }])?;
        w.write_all(&[n.tier.unwrap_or(NO_TIER)])?;
        let name = n.name.as_bytes();
        w.write_all(&(name.len() as u16).to_le_bytes())?;
        w.write_all(name)?;
    }
    Ok(())
}

/// Reads the node table (see [`write_node_table`]).
pub(crate) fn read_node_table<R: Read>(r: &mut R) -> Result<Vec<NodeMeta>, CaptureError> {
    let n_nodes = read_u32(r)? as usize;
    if n_nodes > u16::MAX as usize + 1 {
        return Err(CaptureError::Malformed("implausible node count"));
    }
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let id = NodeId(read_u16(r)?);
        let kind = match read_u8(r)? {
            0 => NodeKind::Client,
            1 => NodeKind::Server,
            _ => return Err(CaptureError::Malformed("unknown node kind")),
        };
        let tier = match read_u8(r)? {
            NO_TIER => None,
            t => Some(t),
        };
        let name_len = read_u16(r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name =
            String::from_utf8(name).map_err(|_| CaptureError::Malformed("non-UTF-8 name"))?;
        nodes.push(NodeMeta {
            id,
            name,
            kind,
            tier,
        });
    }
    Ok(nodes)
}

/// Reads a capture stream back into a [`TraceLog`]. Accepts both formats
/// (`FGBDCAP1` and the chunked columnar `FGBDCAP2`) by sniffing the magic.
///
/// # Errors
///
/// Returns [`CaptureError::BadMagic`] for foreign inputs and
/// [`CaptureError::Malformed`] / [`CaptureError::Chunk`] for truncated or
/// invalid ones.
pub fn read_capture<R: Read>(mut r: R) -> Result<TraceLog, CaptureError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == crate::capture2::MAGIC2 {
        return crate::capture2::read_capture2_after_magic(r);
    }
    if &magic != MAGIC {
        return Err(CaptureError::BadMagic(magic));
    }
    let nodes = read_node_table(&mut r)?;
    let n_records = read_u64(&mut r)?;
    let mut log = TraceLog::new(nodes);
    log.records
        .reserve(usize::try_from(n_records).unwrap_or(0).min(1 << 28));
    let mut prev = SimTime::ZERO;
    for _ in 0..n_records {
        let rec = read_record_v1(&mut r, prev)?;
        prev = rec.at;
        log.records.push(rec);
    }
    Ok(log)
}

/// Reads a capture file, using the parallel chunk decoder for `FGBDCAP2`
/// inputs when `FGBD_CAPTURE_THREADS` (or the host parallelism) allows —
/// the fastest way to materialize a whole capture. The file is
/// memory-mapped where the platform allows and heap-read otherwise
/// (`crate::mmapio`); the decoded log is identical to [`read_capture`]'s,
/// byte for byte, at every thread count either way.
///
/// # Errors
///
/// Propagates [`CaptureError::Io`] for filesystem failures plus everything
/// [`read_capture`] can return.
pub fn read_capture_file(path: &Path) -> Result<TraceLog, CaptureError> {
    let bytes = crate::mmapio::Mapping::open(path)?;
    if bytes.len() >= 8 && &bytes[..8] == crate::capture2::MAGIC2 {
        crate::capture2::read_capture2_parallel(&bytes, crate::capture2::threads_from_env())
    } else {
        read_capture(&*bytes)
    }
}

/// Decodes one flat-format record, enforcing time order against `prev` —
/// shared by [`read_capture`] and the dual-format chunk iterator in
/// [`crate::capture2`].
pub(crate) fn read_record_v1<R: Read>(r: &mut R, prev: SimTime) -> Result<MsgRecord, CaptureError> {
    let at = SimTime::from_micros(read_u64(r)?);
    if at < prev {
        return Err(CaptureError::Malformed("records out of order"));
    }
    let src = NodeId(read_u16(r)?);
    let dst = NodeId(read_u16(r)?);
    let kind = match read_u8(r)? {
        0 => MsgKind::Request,
        1 => MsgKind::Response,
        _ => return Err(CaptureError::Malformed("unknown message kind")),
    };
    let conn = ConnId(read_u32(r)?);
    let class = ClassId(read_u16(r)?);
    let bytes = read_u32(r)?;
    let truth = match read_u64(r)? {
        NO_TRUTH => None,
        t => Some(TxnId(t)),
    };
    Ok(MsgRecord {
        at,
        src,
        dst,
        kind,
        conn,
        class,
        bytes,
        truth,
    })
}

pub(crate) fn read_u8<R: Read>(r: &mut R) -> Result<u8, CaptureError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub(crate) fn read_u16<R: Read>(r: &mut R) -> Result<u16, CaptureError> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> Result<u32, CaptureError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64, CaptureError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_log() -> TraceLog {
        let mut log = TraceLog::new(vec![
            NodeMeta {
                id: NodeId(0),
                name: "clients".into(),
                kind: NodeKind::Client,
                tier: None,
            },
            NodeMeta {
                id: NodeId(1),
                name: "web-1".into(),
                kind: NodeKind::Server,
                tier: Some(0),
            },
        ]);
        for i in 0..100u64 {
            log.push(MsgRecord {
                at: SimTime::from_micros(i * 10),
                src: NodeId(0),
                dst: NodeId(1),
                kind: MsgKind::Request,
                conn: ConnId(i as u32),
                class: ClassId((i % 7) as u16),
                bytes: 100 + i as u32,
                truth: if i % 3 == 0 { Some(TxnId(i)) } else { None },
            });
        }
        log
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let log = demo_log();
        let mut buf = Vec::new();
        write_capture(&mut buf, &log).expect("write");
        let back = read_capture(buf.as_slice()).expect("read");
        assert_eq!(back.nodes, log.nodes);
        assert_eq!(back.records, log.records);
    }

    #[test]
    fn foreign_input_is_rejected() {
        let err = read_capture(&b"NOTACAP0rest"[..]).unwrap_err();
        assert!(matches!(err, CaptureError::BadMagic(_)));
        assert!(err.to_string().contains("not a capture file"));
    }

    #[test]
    fn truncation_is_detected() {
        let log = demo_log();
        let mut buf = Vec::new();
        write_capture(&mut buf, &log).expect("write");
        for cut in [4usize, 12, 20, buf.len() - 3] {
            let err = read_capture(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CaptureError::Malformed(_)),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn corrupted_kind_is_detected() {
        let log = demo_log();
        let mut buf = Vec::new();
        write_capture(&mut buf, &log).expect("write");
        // Find the first record's kind byte: header is 8 magic + 4 count +
        // 2 nodes of (2+1+1+2+name). Compute instead of hardcoding.
        let node_bytes: usize = log.nodes.iter().map(|n| 2 + 1 + 1 + 2 + n.name.len()).sum();
        let kind_off = 8 + 4 + node_bytes + 8 + 8 + 2 + 2;
        buf[kind_off] = 9;
        let err = read_capture(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            CaptureError::Malformed("unknown message kind")
        ));
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = TraceLog::new(vec![]);
        let mut buf = Vec::new();
        write_capture(&mut buf, &log).expect("write");
        let back = read_capture(buf.as_slice()).expect("read");
        assert!(back.nodes.is_empty());
        assert!(back.records.is_empty());
    }
}
