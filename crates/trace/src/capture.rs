//! Capture files: the reproduction's analogue of a pcap file, so captures
//! can be written during a run and analyzed offline (or exchanged between
//! tools) without dragging a JSON serializer through millions of records.
//!
//! There is one format, the chunked columnar `FGBDCAP2` (see
//! [`crate::capture2`]). This module holds its node-table encoding,
//! [`CaptureError`], and the two whole-log readers: [`read_capture`]
//! collects a stream through [`CaptureChunks`], [`read_capture_file`]
//! collects a file through [`ChunkCursor`]. Readers reject unknown magics
//! and truncated inputs with [`CaptureError`].

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::capture2::{threads_from_env, CaptureChunks, ChunkCursor};
use crate::record::{NodeId, NodeKind, NodeMeta, TraceLog};

const NO_TIER: u8 = 0xFF;

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

/// Writes the node table of a capture's header.
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

/// Reads a capture stream into a [`TraceLog`]: one loop over the stream
/// walker, [`CaptureChunks`].
///
/// # Errors
///
/// Returns [`CaptureError::BadMagic`] for foreign inputs and
/// [`CaptureError::Malformed`] / [`CaptureError::Chunk`] for truncated or
/// invalid ones.
pub fn read_capture<R: Read>(r: R) -> Result<TraceLog, CaptureError> {
    let mut chunks = CaptureChunks::open(r)?;
    let mut log = TraceLog::new(chunks.nodes().to_vec());
    for chunk in &mut chunks {
        log.records.extend(chunk?);
    }
    Ok(log)
}

/// Reads a capture file into a [`TraceLog`]: one loop over the in-memory
/// walker, [`ChunkCursor`], decoding up to four chunks ahead, one per core
/// ([`threads_from_env`]). The file is memory-mapped where the platform
/// allows and heap-read otherwise (`crate::mmapio`). The decoded log is the
/// same at every thread count.
///
/// # Errors
///
/// Propagates [`CaptureError::Io`] for filesystem failures plus everything
/// [`read_capture`] can return.
pub fn read_capture_file(path: &Path) -> Result<TraceLog, CaptureError> {
    let bytes = crate::mmapio::Mapping::open(path)?;
    let mut cursor = ChunkCursor::new(&bytes)?.with_threads(threads_from_env());
    let mut log = TraceLog::new(cursor.nodes().to_vec());
    // The index counts are unchecked, but no record is smaller than a byte.
    let total = usize::try_from(cursor.total_records()).unwrap_or(usize::MAX);
    log.records.reserve(total.min(bytes.len()));
    let mut chunk = Vec::new();
    while cursor.next_chunk(&mut chunk)? {
        log.records.extend_from_slice(&chunk);
    }
    Ok(log)
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

    #[test]
    fn foreign_input_is_rejected() {
        let err = read_capture(&b"NOTACAP0rest"[..]).unwrap_err();
        assert!(matches!(err, CaptureError::BadMagic(_)));
        assert!(err.to_string().contains("not a capture file"));
    }
}
