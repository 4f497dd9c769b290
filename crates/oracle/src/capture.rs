//! The `FGBDCAP1` writer. The shipped crates still read flat captures
//! (old files, imports through `fgbd_trace::CaptureChunks`) but write only
//! `FGBDCAP2`; this is the fixture the import tests encode with. The layout
//! is documented in `fgbd_trace::capture`.

use std::io::{self, Write};

use fgbd_trace::{MsgKind, NodeKind, TraceLog};

/// Writes `log` as a flat `FGBDCAP1` stream.
///
/// # Errors
///
/// Returns the underlying write failure.
pub fn write_capture<W: Write>(mut w: W, log: &TraceLog) -> io::Result<()> {
    w.write_all(b"FGBDCAP1")?;
    w.write_all(&(log.nodes.len() as u32).to_le_bytes())?;
    for n in &log.nodes {
        w.write_all(&n.id.0.to_le_bytes())?;
        w.write_all(&[match n.kind {
            NodeKind::Client => 0u8,
            NodeKind::Server => 1u8,
        }])?;
        w.write_all(&[n.tier.unwrap_or(0xFF)])?;
        let name = n.name.as_bytes();
        w.write_all(&(name.len() as u16).to_le_bytes())?;
        w.write_all(name)?;
    }
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
        w.write_all(&r.truth.map_or(u64::MAX, |t| t.0).to_le_bytes())?;
    }
    Ok(())
}
