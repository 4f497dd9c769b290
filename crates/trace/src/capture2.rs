//! `FGBDCAP2`: the chunked columnar capture format.
//!
//! `FGBDCAP1` (see [`crate::capture`]) is a flat stream of 31-byte records —
//! simple, but every read is sequential and every byte is paid even for
//! columns that barely change (`src`/`dst`/`kind` cycle through a handful of
//! values; timestamps are near-monotone micros). `FGBDCAP2` regroups the
//! stream into fixed-size chunks of column-major data so captures are
//! smaller on disk **and** readable in parallel or by time range:
//!
//! ```text
//! magic   [u8;8] = b"FGBDCAP2"
//! node table     (identical encoding to FGBDCAP1, see capture::write_node_table)
//! chunk*         tag u8 = 0x01
//!                record_count u32, min_at u64, max_at u64,
//!                byte_len u32 (payload), checksum u64 (folded xor-multiply, see checksum64)
//!                payload: columns, in order
//!                  at     varint deltas from min_at (first delta = 0)
//!                  src    dict column (see below)
//!                  dst    dict column
//!                  kind   dict column (0 = request, 1 = response)
//!                  conn   dict column
//!                  class  dict column
//!                  bytes  dict column
//!                  truth  presence bitmap (ceil(n/8) bytes, LSB-first) then
//!                         zigzag varint deltas between present values
//!
//! dict column    tag u8 = 0x00: dict_len varint, dict values varint each,
//!                then per-record dictionary indices bit-packed LSB-first at
//!                the minimum width for dict_len (0 bits when constant);
//!                tag u8 = 0x01 (> 4096 distinct values): per-record varints
//! footer         tag u8 = 0x00
//!                n_chunks u32
//!                per chunk: offset u64 (of its tag byte), record_count u32,
//!                           min_at u64, max_at u64
//! trailer        index_offset u64 (of the footer tag byte)
//!                magic [u8;8] = b"FGBDIDX2"
//! ```
//!
//! The footer index is what buys random access: a reader maps (or reads)
//! the file, jumps to the last 16 bytes, finds the index, and can then
//! decode the chunks in any order — fanned out across threads
//! ([`read_capture2_parallel`]) or lazily, one at a time
//! ([`ChunkCursor`]). Chunks validate independently (checksum +
//! internal ordering), so corruption is reported per chunk
//! ([`CaptureError::Chunk`]) instead of as a file-sized shrug.
//!
//! Writers stream through [`ChunkedWriter`]: memory is bounded by one
//! chunk (default 64 Ki records) regardless of capture size, which is what
//! lets million-user runs write captures without materializing a
//! [`TraceLog`].

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};

use fgbd_des::SimTime;

use crate::capture::{
    read_node_table, read_u32, read_u64, read_u8, write_node_table, CaptureError, MAGIC,
};
use crate::record::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeMeta, TraceLog, TxnId};

/// File magic for the chunked columnar format.
pub const MAGIC2: &[u8; 8] = b"FGBDCAP2";
/// Trailer magic; its presence (at EOF - 8) is how readers know the footer
/// index survived — a truncated capture loses it first.
pub const INDEX_MAGIC: &[u8; 8] = b"FGBDIDX2";

const TAG_INDEX: u8 = 0x00;
const TAG_CHUNK: u8 = 0x01;
/// tag + record_count + min_at + max_at + byte_len + checksum.
const CHUNK_HEADER_LEN: usize = 1 + 4 + 8 + 8 + 4 + 8;
/// index_offset + INDEX_MAGIC.
const TRAILER_LEN: usize = 8 + 8;
const NO_TRUTH: u64 = u64::MAX;

/// Default records per chunk (64 Ki): big enough that per-chunk headers and
/// index entries are noise, small enough that a 200k-record capture still
/// splits across 4 threads.
pub const DEFAULT_CHUNK_RECORDS: usize = 64 * 1024;

// --- env-driven knobs -----------------------------------------------------

/// Decode threads selected by `FGBD_CAPTURE_THREADS`, defaulting to
/// `min(4, available_parallelism)`. The decoded log is identical at every
/// value; this only trades wall-clock for cores.
pub fn threads_from_env() -> usize {
    std::env::var("FGBD_CAPTURE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
                .min(4)
        })
}

// --- primitive encodings ---------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Chunk checksum: FNV-style xor-multiply folded over 8-byte words (the
/// tail is zero-padded into one final word alongside the length, so
/// truncation and extension both perturb the digest). Word-at-a-time keeps
/// verification off the decode critical path — a byte-wise FNV-1a costs
/// more than the columnar decode it protects.
fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// Cursor over a chunk payload slice; every failure names the chunk.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    chunk: u32,
}

impl<'a> PayloadReader<'a> {
    #[inline]
    fn varint(&mut self) -> Result<u64, CaptureError> {
        // One-byte fast path: most timestamp deltas, RLE values, and run
        // lengths fit in 7 bits, and the decode loop lives or dies here.
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        self.varint_slow()
    }

    #[cold]
    fn varint_slow(&mut self) -> Result<u64, CaptureError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        while shift < 64 {
            let byte = *self.buf.get(self.pos).ok_or(CaptureError::Chunk {
                index: self.chunk,
                what: "column overrun",
            })?;
            self.pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
        Err(CaptureError::Chunk {
            index: self.chunk,
            what: "varint too long",
        })
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CaptureError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or(CaptureError::Chunk {
            index: self.chunk,
            what: "column overrun",
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// Per-column encoding tags, and the dictionary-size ceiling past which a
/// column falls back to plain varints (a dictionary only pays while it is
/// small enough that indices are much narrower than values).
const COL_DICT: u8 = 0x00;
const COL_PLAIN: u8 = 0x01;
const DICT_MAX_ENTRIES: usize = 4096;

/// Bits per bit-packed dictionary index (0 when the column is constant).
fn dict_width(len: usize) -> u32 {
    debug_assert!(len >= 1);
    64 - ((len - 1) as u64).leading_zeros()
}

/// Encodes one low-cardinality column: a first-occurrence-ordered
/// dictionary of distinct values, then every record's dictionary index
/// bit-packed at the minimum width (LSB-first). A constant column costs
/// zero bits per record; a column that blows past [`DICT_MAX_ENTRIES`]
/// distinct values is written as plain per-record varints instead.
fn put_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64> + Clone) {
    // One pass builds the dictionary AND the per-record index buffer, so
    // packing below needs no second round of hash lookups.
    let mut dict: Vec<u64> = Vec::new();
    let mut map = fgbd_des::hash::FxHashMap::default();
    let mut idxs: Vec<u32> = Vec::with_capacity(values.size_hint().0);
    for v in values.clone() {
        let next = dict.len() as u32;
        let idx = *map.entry(v).or_insert(next);
        if idx == next {
            if dict.len() == DICT_MAX_ENTRIES {
                out.push(COL_PLAIN);
                for v in values {
                    put_varint(out, v);
                }
                return;
            }
            dict.push(v);
        }
        idxs.push(idx);
    }
    out.push(COL_DICT);
    put_varint(out, dict.len() as u64);
    for &v in &dict {
        put_varint(out, v);
    }
    let width = match dict.len() {
        0 => return, // empty column (never produced for a non-empty chunk)
        len => dict_width(len),
    };
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &idx in &idxs {
        acc |= u64::from(idx) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
}

/// Decodes one column straight into the record slice. Dictionary values are
/// validated against `max` once each (naming `out_of_range` on failure);
/// the per-record path is then a branch-light bit extract + table lookup,
/// with `set` storing the already-validated value.
fn read_column(
    r: &mut PayloadReader<'_>,
    records: &mut [MsgRecord],
    max: u64,
    out_of_range: &'static str,
    mut set: impl FnMut(&mut MsgRecord, u64),
) -> Result<(), CaptureError> {
    let n = records.len();
    let chunk = r.chunk;
    let bad = |what: &'static str| CaptureError::Chunk { index: chunk, what };
    match r.bytes(1)?[0] {
        COL_PLAIN => {
            for rec in records.iter_mut() {
                let v = r.varint()?;
                if v > max {
                    return Err(bad(out_of_range));
                }
                set(rec, v);
            }
        }
        COL_DICT => {
            let dict_len = r.varint()? as usize;
            if dict_len > DICT_MAX_ENTRIES || (dict_len == 0 && n > 0) {
                return Err(bad("bad dictionary"));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                let v = r.varint()?;
                if v > max {
                    return Err(bad(out_of_range));
                }
                dict.push(v);
            }
            if n == 0 {
                return Ok(());
            }
            let width = dict_width(dict_len);
            if width == 0 {
                let v = dict[0];
                for rec in records.iter_mut() {
                    set(rec, v);
                }
                return Ok(());
            }
            let packed = r.bytes((n as u64 * u64::from(width)).div_ceil(8) as usize)?;
            let mask = (1u64 << width) - 1;
            let mut acc = 0u64;
            let mut nbits = 0u32;
            let mut pos = 0usize;
            for rec in records.iter_mut() {
                // `pos` cannot overrun: the loop pulls exactly the bytes
                // whose bits it consumes, and `packed` holds all n·width.
                while nbits < width {
                    acc |= u64::from(packed[pos]) << nbits;
                    pos += 1;
                    nbits += 8;
                }
                let idx = (acc & mask) as usize;
                acc >>= width;
                nbits -= width;
                let v = *dict.get(idx).ok_or(bad("bad dictionary index"))?;
                set(rec, v);
            }
        }
        _ => return Err(bad("unknown column encoding")),
    }
    Ok(())
}

/// Skips one encoded column without materializing it. Dictionary columns
/// skip their packed index block in O(dictionary) — the payoff of column
/// projection — while plain columns still walk their varints (no length
/// prefix to jump by). The bytes consumed are exactly what
/// [`read_column`] would consume, so the end-of-chunk trailing check
/// holds under any projection.
fn skip_column(r: &mut PayloadReader<'_>, n: usize) -> Result<(), CaptureError> {
    let chunk = r.chunk;
    let bad = |what: &'static str| CaptureError::Chunk { index: chunk, what };
    match r.bytes(1)?[0] {
        COL_PLAIN => {
            for _ in 0..n {
                r.varint()?;
            }
        }
        COL_DICT => {
            let dict_len = r.varint()? as usize;
            if dict_len > DICT_MAX_ENTRIES || (dict_len == 0 && n > 0) {
                return Err(bad("bad dictionary"));
            }
            for _ in 0..dict_len {
                r.varint()?;
            }
            if n == 0 || dict_len == 0 {
                return Ok(());
            }
            let width = dict_width(dict_len);
            if width > 0 {
                r.bytes((n as u64 * u64::from(width)).div_ceil(8) as usize)?;
            }
        }
        _ => return Err(bad("unknown column encoding")),
    }
    Ok(())
}

/// Which columns a chunk decode materializes. Timestamps are always
/// decoded (they create the records); every other column can be skipped,
/// leaving its field at the [`MsgRecord`] default. Skipping is *legal*
/// for a consumer exactly when it never reads the field — see the
/// "Zero-copy analysis" section of DESIGN.md for the per-consumer table.
/// The chunk checksum always covers the full payload, so corruption is
/// detected (and attributed per chunk) even in skipped columns;
/// projection only forgoes the skipped columns' semantic range checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    /// Decode `src` (message source node).
    pub src: bool,
    /// Decode `dst` (message destination node).
    pub dst: bool,
    /// Decode `kind` (request/response).
    pub kind: bool,
    /// Decode `conn` (connection id — FIFO pairing key).
    pub conn: bool,
    /// Decode `class` (request class — service-time lookup key).
    pub class: bool,
    /// Decode `bytes` (message size).
    pub bytes: bool,
    /// Decode `truth` (ground-truth transaction annotations).
    pub truth: bool,
}

impl Projection {
    /// Decode everything — the reference projection; bit-identical to the
    /// pre-projection decoder.
    pub const ALL: Projection = Projection {
        src: true,
        dst: true,
        kind: true,
        conn: true,
        class: true,
        bytes: true,
        truth: true,
    };

    /// What detection needs: span pairing reads `(src, dst, kind, conn)`
    /// and service lookup reads `class`; `bytes` and the ground-truth
    /// column are never consulted by the black-box detector.
    pub const DETECT: Projection = Projection {
        bytes: false,
        truth: false,
        ..Projection::ALL
    };
}

// --- chunk encode / decode ---------------------------------------------------

fn encode_chunk_payload(records: &[MsgRecord], min_at: u64) -> Vec<u8> {
    // ~12 B/record is typical for simulator traffic; reserve generously to
    // avoid re-allocation in the writer hot path.
    let mut out = Vec::with_capacity(records.len() * 16);
    let mut prev = min_at;
    for r in records {
        let at = r.at.as_micros();
        put_varint(&mut out, at - prev);
        prev = at;
    }
    put_column(&mut out, records.iter().map(|r| u64::from(r.src.0)));
    put_column(&mut out, records.iter().map(|r| u64::from(r.dst.0)));
    put_column(
        &mut out,
        records.iter().map(|r| match r.kind {
            MsgKind::Request => 0u64,
            MsgKind::Response => 1u64,
        }),
    );
    put_column(&mut out, records.iter().map(|r| u64::from(r.conn.0)));
    put_column(&mut out, records.iter().map(|r| u64::from(r.class.0)));
    put_column(&mut out, records.iter().map(|r| u64::from(r.bytes)));
    // Truth column: bitmap of which records carry ground truth, then
    // zigzag deltas between consecutive present values (txn ids from one
    // simulator stream are near-sequential, so deltas are tiny).
    let mut bitmap = vec![0u8; records.len().div_ceil(8)];
    for (i, r) in records.iter().enumerate() {
        if r.truth.is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    let mut prev_truth: u64 = 0;
    for r in records {
        if let Some(t) = r.truth {
            put_varint(&mut out, zigzag(t.0.wrapping_sub(prev_truth) as i64));
            prev_truth = t.0;
        }
    }
    out
}

/// Decodes one chunk payload, appending its records to `out` (so sequential
/// readers build the final log with zero stitch copies; `out` may hold
/// partially-decoded records after an error). `index` is only for error
/// attribution.
fn decode_chunk_payload(
    payload: &[u8],
    index: u32,
    record_count: u32,
    min_at: u64,
    max_at: u64,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    decode_chunk_projected(
        payload,
        index,
        record_count,
        min_at,
        max_at,
        Projection::ALL,
        out,
    )
}

/// [`decode_chunk_payload`] with column projection: skipped columns are
/// walked (and still covered by the already-verified checksum) but never
/// materialized, leaving their record fields at the defaults.
fn decode_chunk_projected(
    payload: &[u8],
    index: u32,
    record_count: u32,
    min_at: u64,
    max_at: u64,
    proj: Projection,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    let n = record_count as usize;
    let mut r = PayloadReader {
        buf: payload,
        pos: 0,
        chunk: index,
    };
    let bad = |what: &'static str| CaptureError::Chunk { index, what };

    // The timestamp column materializes the records (every later column
    // fills fields in place — no intermediate column vectors).
    let start = out.len();
    out.reserve(n);
    let mut prev = min_at;
    for _ in 0..n {
        prev = prev
            .checked_add(r.varint()?)
            .ok_or(bad("timestamp overflow"))?;
        out.push(MsgRecord {
            at: SimTime::from_micros(prev),
            src: NodeId(0),
            dst: NodeId(0),
            kind: MsgKind::Request,
            conn: ConnId(0),
            class: ClassId(0),
            bytes: 0,
            truth: None,
        });
    }
    let records = &mut out[start..];
    if n > 0 && (records[0].at.as_micros() != min_at || prev != max_at) {
        return Err(bad("timestamp bounds mismatch"));
    }
    if proj.src {
        read_column(
            &mut r,
            records,
            u64::from(u16::MAX),
            "src out of range",
            |rec, v| {
                rec.src = NodeId(v as u16);
            },
        )?;
    } else {
        skip_column(&mut r, n)?;
    }
    if proj.dst {
        read_column(
            &mut r,
            records,
            u64::from(u16::MAX),
            "dst out of range",
            |rec, v| {
                rec.dst = NodeId(v as u16);
            },
        )?;
    } else {
        skip_column(&mut r, n)?;
    }
    if proj.kind {
        read_column(&mut r, records, 1, "unknown message kind", |rec, v| {
            rec.kind = if v == 0 {
                MsgKind::Request
            } else {
                MsgKind::Response
            };
        })?;
    } else {
        skip_column(&mut r, n)?;
    }
    if proj.conn {
        read_column(
            &mut r,
            records,
            u64::from(u32::MAX),
            "conn out of range",
            |rec, v| {
                rec.conn = ConnId(v as u32);
            },
        )?;
    } else {
        skip_column(&mut r, n)?;
    }
    if proj.class {
        read_column(
            &mut r,
            records,
            u64::from(u16::MAX),
            "class out of range",
            |rec, v| {
                rec.class = ClassId(v as u16);
            },
        )?;
    } else {
        skip_column(&mut r, n)?;
    }
    if proj.bytes {
        read_column(
            &mut r,
            records,
            u64::from(u32::MAX),
            "bytes out of range",
            |rec, v| {
                rec.bytes = v as u32;
            },
        )?;
    } else {
        skip_column(&mut r, n)?;
    }
    let bitmap = r.bytes(n.div_ceil(8))?;
    if proj.truth {
        let mut prev_truth: u64 = 0;
        for (i, rec) in records.iter_mut().enumerate() {
            if bitmap[i / 8] >> (i % 8) & 1 == 1 {
                prev_truth = prev_truth.wrapping_add(unzigzag(r.varint()?) as u64);
                if prev_truth == NO_TRUTH {
                    return Err(bad("reserved truth value"));
                }
                rec.truth = Some(TxnId(prev_truth));
            }
        }
    } else {
        // Bits at positions >= n are padding the full decode never reads;
        // mask them out of the last byte before counting how many truth
        // varints follow.
        let mut present: usize = 0;
        for (byte_i, &b) in bitmap.iter().enumerate() {
            let mut b = b;
            if byte_i == n / 8 {
                b &= ((1u16 << (n % 8)) - 1) as u8;
            }
            present += b.count_ones() as usize;
        }
        for _ in 0..present {
            r.varint()?;
        }
    }
    if r.pos != payload.len() {
        return Err(bad("trailing bytes in chunk"));
    }
    Ok(())
}

// --- writer -----------------------------------------------------------------

/// One footer-index entry; also the unit the parallel readers fan out over.
#[derive(Debug, Clone, Copy)]
struct ChunkInfo {
    offset: u64,
    record_count: u32,
    min_at: u64,
    max_at: u64,
}

/// Streaming `FGBDCAP2` writer: buffers at most one chunk of records, so a
/// capture of any length writes in flat memory. Create with the node table,
/// [`push`](ChunkedWriter::push) records in time order, then
/// [`finish`](ChunkedWriter::finish) to emit the footer index — a capture
/// without its footer reads as truncated.
pub struct ChunkedWriter<W: Write> {
    w: W,
    /// Bytes written so far == offset of the next byte; the footer index
    /// stores these, so the writer never needs `Seek`.
    offset: u64,
    buf: Vec<MsgRecord>,
    chunk_records: usize,
    index: Vec<ChunkInfo>,
    last_at: SimTime,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts a capture with [`DEFAULT_CHUNK_RECORDS`] records per chunk.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] on underlying write failures.
    pub fn new(w: W, nodes: &[NodeMeta]) -> Result<Self, CaptureError> {
        Self::with_chunk_records(w, nodes, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a capture with an explicit records-per-chunk bound.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] on underlying write failures.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero.
    pub fn with_chunk_records(
        mut w: W,
        nodes: &[NodeMeta],
        chunk_records: usize,
    ) -> Result<Self, CaptureError> {
        assert!(chunk_records > 0, "chunk size must be positive");
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC2);
        write_node_table(&mut header, nodes)?;
        w.write_all(&header)?;
        Ok(ChunkedWriter {
            w,
            offset: header.len() as u64,
            buf: Vec::with_capacity(chunk_records),
            chunk_records,
            index: Vec::new(),
            last_at: SimTime::ZERO,
        })
    }

    /// Appends one record, flushing a chunk when the buffer fills.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] on write failures and
    /// [`CaptureError::Malformed`] if `rec` precedes the previous record —
    /// readers reject a chunk whose `[min_at, max_at]` header does not bound
    /// its records or overlaps the chunk before it.
    pub fn push(&mut self, rec: MsgRecord) -> Result<(), CaptureError> {
        if rec.at < self.last_at {
            return Err(CaptureError::Malformed("records out of order"));
        }
        self.last_at = rec.at;
        self.buf.push(rec);
        if self.buf.len() == self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), CaptureError> {
        let min_at = self.buf[0].at.as_micros();
        let max_at = self.buf[self.buf.len() - 1].at.as_micros();
        let payload = encode_chunk_payload(&self.buf, min_at);
        self.index.push(ChunkInfo {
            offset: self.offset,
            record_count: self.buf.len() as u32,
            min_at,
            max_at,
        });
        self.w.write_all(&[TAG_CHUNK])?;
        self.w.write_all(&(self.buf.len() as u32).to_le_bytes())?;
        self.w.write_all(&min_at.to_le_bytes())?;
        self.w.write_all(&max_at.to_le_bytes())?;
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&checksum64(&payload).to_le_bytes())?;
        self.w.write_all(&payload)?;
        self.offset += (CHUNK_HEADER_LEN + payload.len()) as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the trailing partial chunk and writes the footer index,
    /// returning the inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] on underlying write failures.
    pub fn finish(mut self) -> Result<W, CaptureError> {
        if !self.buf.is_empty() {
            self.flush_chunk()?;
        }
        let index_offset = self.offset;
        self.w.write_all(&[TAG_INDEX])?;
        self.w.write_all(&(self.index.len() as u32).to_le_bytes())?;
        for c in &self.index {
            self.w.write_all(&c.offset.to_le_bytes())?;
            self.w.write_all(&c.record_count.to_le_bytes())?;
            self.w.write_all(&c.min_at.to_le_bytes())?;
            self.w.write_all(&c.max_at.to_le_bytes())?;
        }
        self.w.write_all(&index_offset.to_le_bytes())?;
        self.w.write_all(INDEX_MAGIC)?;
        Ok(self.w)
    }
}

/// Writes `log` in `FGBDCAP2` form — the chunked counterpart of
/// [`crate::capture::write_capture`].
///
/// # Errors
///
/// Returns [`CaptureError::Io`] on underlying write failures.
pub fn write_capture2<W: Write>(w: W, log: &TraceLog) -> Result<(), CaptureError> {
    let mut cw = ChunkedWriter::new(w, &log.nodes)?;
    for &rec in &log.records {
        cw.push(rec)?;
    }
    // `w` may be a `BufWriter`, whose drop would swallow a failed flush.
    cw.finish()?.flush()?;
    Ok(())
}

// --- sequential (streaming) reader -------------------------------------------

/// Reads one chunk header + payload from a byte stream, appending the
/// decoded records to `out`; `false` means the footer tag was hit (its
/// body has NOT been consumed) and nothing was appended.
fn read_stream_chunk<R: Read>(
    r: &mut R,
    index: u32,
    prev_max: &mut u64,
    out: &mut Vec<MsgRecord>,
) -> Result<bool, CaptureError> {
    match read_u8(r)? {
        TAG_INDEX => return Ok(false),
        TAG_CHUNK => {}
        _ => return Err(CaptureError::Malformed("unknown block tag")),
    }
    let record_count = read_u32(r)?;
    let min_at = read_u64(r)?;
    let max_at = read_u64(r)?;
    let byte_len = read_u32(r)? as usize;
    let checksum = read_u64(r)?;
    if record_count == 0 || min_at > max_at {
        return Err(CaptureError::Chunk {
            index,
            what: "bad chunk header",
        });
    }
    if index > 0 && min_at < *prev_max {
        return Err(CaptureError::Chunk {
            index,
            what: "chunk out of order",
        });
    }
    *prev_max = max_at;
    let mut payload = vec![0u8; byte_len];
    r.read_exact(&mut payload)
        .map_err(|_| CaptureError::Chunk {
            index,
            what: "truncated chunk payload",
        })?;
    if checksum64(&payload) != checksum {
        return Err(CaptureError::Chunk {
            index,
            what: "checksum mismatch",
        });
    }
    decode_chunk_payload(&payload, index, record_count, min_at, max_at, out)?;
    Ok(true)
}

/// Consumes and validates the footer body (the tag byte has already been
/// read) against the number of chunks actually decoded.
fn read_stream_footer<R: Read>(r: &mut R, chunks_seen: u32) -> Result<(), CaptureError> {
    let n_chunks = read_u32(r)?;
    if n_chunks != chunks_seen {
        return Err(CaptureError::Malformed("chunk index count mismatch"));
    }
    for _ in 0..n_chunks {
        read_u64(r)?;
        read_u32(r)?;
        read_u64(r)?;
        read_u64(r)?;
    }
    read_u64(r)?; // index_offset — only the random-access path needs it
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != INDEX_MAGIC {
        return Err(CaptureError::Malformed("bad index magic"));
    }
    Ok(())
}

/// Sequential `FGBDCAP2` reader for streams: decodes chunk by chunk in
/// capture order. Called by [`crate::capture::read_capture`] once it has
/// sniffed [`MAGIC2`] (so `r` is positioned just past the magic).
///
/// # Errors
///
/// Returns [`CaptureError::Chunk`] naming the failing chunk for per-chunk
/// damage and [`CaptureError::Malformed`] for structural damage (missing
/// footer, truncation between chunks).
pub(crate) fn read_capture2_after_magic<R: Read>(mut r: R) -> Result<TraceLog, CaptureError> {
    let nodes = read_node_table(&mut r)?;
    let mut log = TraceLog::new(nodes);
    let mut chunk = 0u32;
    let mut prev_max = 0u64;
    while read_stream_chunk(&mut r, chunk, &mut prev_max, &mut log.records)? {
        chunk += 1;
    }
    read_stream_footer(&mut r, chunk)?;
    Ok(log)
}

// --- random-access readers (slice-based: fs::read or mmap both fit) ----------

/// The parsed skeleton of an in-memory capture: node table + chunk index.
struct CaptureIndex {
    nodes: Vec<NodeMeta>,
    chunks: Vec<ChunkInfo>,
}

fn parse_index(bytes: &[u8]) -> Result<CaptureIndex, CaptureError> {
    if bytes.len() < 8 {
        return Err(CaptureError::Malformed("truncated input"));
    }
    if &bytes[..8] != MAGIC2 {
        let mut m = [0u8; 8];
        m.copy_from_slice(&bytes[..8]);
        return Err(CaptureError::BadMagic(m));
    }
    let mut cursor = &bytes[8..];
    let nodes = read_node_table(&mut cursor)?;
    if bytes.len() < TRAILER_LEN || &bytes[bytes.len() - 8..] != INDEX_MAGIC {
        return Err(CaptureError::Malformed("missing chunk index"));
    }
    let index_offset = u64::from_le_bytes(
        bytes[bytes.len() - TRAILER_LEN..bytes.len() - 8]
            .try_into()
            .unwrap(),
    );
    let footer = bytes
        .get(index_offset as usize..bytes.len() - TRAILER_LEN)
        .ok_or(CaptureError::Malformed("bad index offset"))?;
    let mut f = footer;
    if read_u8(&mut f)? != TAG_INDEX {
        return Err(CaptureError::Malformed("bad index offset"));
    }
    let n_chunks = read_u32(&mut f)? as usize;
    if n_chunks.checked_mul(28).is_none_or(|need| need != f.len()) {
        return Err(CaptureError::Malformed("chunk index count mismatch"));
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut prev_max = 0u64;
    for i in 0..n_chunks {
        let c = ChunkInfo {
            offset: read_u64(&mut f)?,
            record_count: read_u32(&mut f)?,
            min_at: read_u64(&mut f)?,
            max_at: read_u64(&mut f)?,
        };
        if c.min_at > c.max_at || (i > 0 && c.min_at < prev_max) {
            return Err(CaptureError::Chunk {
                index: i as u32,
                what: "chunk out of order",
            });
        }
        prev_max = c.max_at;
        chunks.push(c);
    }
    Ok(CaptureIndex { nodes, chunks })
}

/// Decodes the chunk `info` describes directly from the capture slice into
/// `out`, verifying its header against the index entry and its checksum.
fn decode_indexed_chunk(
    bytes: &[u8],
    index: u32,
    info: ChunkInfo,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    decode_indexed_chunk_projected(bytes, index, info, Projection::ALL, out)
}

/// [`decode_indexed_chunk`] with column projection.
fn decode_indexed_chunk_projected(
    bytes: &[u8],
    index: u32,
    info: ChunkInfo,
    proj: Projection,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    let bad = |what: &'static str| CaptureError::Chunk { index, what };
    let start = info.offset as usize;
    let header = bytes
        .get(start..start + CHUNK_HEADER_LEN)
        .ok_or(bad("chunk offset out of range"))?;
    if header[0] != TAG_CHUNK {
        return Err(bad("chunk offset out of range"));
    }
    let record_count = u32::from_le_bytes(header[1..5].try_into().unwrap());
    let min_at = u64::from_le_bytes(header[5..13].try_into().unwrap());
    let max_at = u64::from_le_bytes(header[13..21].try_into().unwrap());
    let byte_len = u32::from_le_bytes(header[21..25].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(header[25..33].try_into().unwrap());
    if record_count != info.record_count || min_at != info.min_at || max_at != info.max_at {
        return Err(bad("header disagrees with index"));
    }
    let payload = bytes
        .get(start + CHUNK_HEADER_LEN..start + CHUNK_HEADER_LEN + byte_len)
        .ok_or(bad("truncated chunk payload"))?;
    if checksum64(payload) != checksum {
        return Err(bad("checksum mismatch"));
    }
    decode_chunk_projected(payload, index, record_count, min_at, max_at, proj, out)
}

/// Effective decode parallelism on a host with `host_cores` usable cores.
///
/// Below two cores the workers cannot overlap: the parallel path's thread
/// spawns and per-chunk reassembly copies are pure overhead on top of a
/// serialized decode, which showed up as `chunked_read_*_t4` benching
/// *slower* than `_t1` on a single-core box. Fall back to the in-place
/// sequential decode there (the same reasoning as the streaming tap's zero
/// spin budget on single-core hosts); the decoded bytes are identical
/// either way.
fn effective_decode_threads(requested: usize, host_cores: usize) -> usize {
    if host_cores < 2 {
        1
    } else {
        requested
    }
}

/// Fans chunk decoding out over the selected chunks and appends the results
/// to `out` in chunk order — deterministic at any thread count. The
/// single-thread path decodes straight into `out` (no per-chunk buffers or
/// stitch copies); the parallel path pays one copy per chunk to reassemble.
/// Hosts with fewer than two cores always take the sequential path (see
/// [`effective_decode_threads`]).
fn decode_chunks_parallel(
    bytes: &[u8],
    selected: &[(u32, ChunkInfo)],
    threads: usize,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    out.reserve(selected.iter().map(|(_, c)| c.record_count as usize).sum());
    let host = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let threads = effective_decode_threads(threads, host).clamp(1, selected.len().max(1));
    if threads <= 1 || selected.len() <= 1 {
        for &(i, info) in selected {
            decode_indexed_chunk(bytes, i, info, out)?;
        }
        return Ok(());
    }
    let mut slots = decode_slots(bytes, selected, threads, Projection::ALL);
    for slot in slots.drain(..) {
        out.extend(slot.expect("every chunk slot claimed")?);
    }
    Ok(())
}

/// Work-stealing fan-out over `selected`: each worker claims the next
/// un-decoded chunk and records (slot, result); the returned vector is
/// ordered by slot, so thread scheduling never reorders output. Shared by
/// the batch reader (which flattens the slots into one record vector) and
/// the [`ChunkCursor`] decode-ahead path (which queues them chunk-wise).
fn decode_slots(
    bytes: &[u8],
    selected: &[(u32, ChunkInfo)],
    threads: usize,
    proj: Projection,
) -> Vec<Option<Result<Vec<MsgRecord>, CaptureError>>> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<Vec<MsgRecord>, CaptureError>>> =
        (0..selected.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(i, info)) = selected.get(slot) else {
                            return mine;
                        };
                        let mut buf = Vec::new();
                        let result = decode_indexed_chunk_projected(bytes, i, info, proj, &mut buf);
                        mine.push((slot, result.map(|()| buf)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (slot, result) in h.join().expect("chunk decode worker panicked") {
                slots[slot] = Some(result);
            }
        }
    });
    slots
}

/// Reads an in-memory `FGBDCAP2` capture, decoding chunks across `threads`
/// worker threads. Accepts any `&[u8]` — `fs::read` output today, a memory
/// map when one is available — and produces a [`TraceLog`] identical to the
/// sequential reader's at every thread count.
///
/// # Errors
///
/// Returns [`CaptureError::BadMagic`] for foreign inputs,
/// [`CaptureError::Malformed`] for structural damage (lost footer,
/// truncation), and [`CaptureError::Chunk`] naming the failing chunk.
pub fn read_capture2_parallel(bytes: &[u8], threads: usize) -> Result<TraceLog, CaptureError> {
    let idx = parse_index(bytes)?;
    let selected: Vec<(u32, ChunkInfo)> = idx
        .chunks
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u32, c))
        .collect();
    let mut log = TraceLog::new(idx.nodes);
    decode_chunks_parallel(bytes, &selected, threads, &mut log.records)?;
    Ok(log)
}

// --- lazy chunk cursor -------------------------------------------------------

/// Lazy, zero-copy cursor over an in-memory `FGBDCAP2` capture.
///
/// Borrows the capture bytes (a heap buffer or an [`mmapio::Mapping`]
/// dereference — see `crate::mmapio`), parses only the footer index up
/// front, and decodes chunks on demand into a caller-supplied buffer, so
/// peak memory is one chunk (times the decode-ahead depth under
/// [`with_threads`](Self::with_threads)) regardless of capture size.
///
/// Under a column projection ([`with_projection`](Self::with_projection))
/// skipped columns are walked but never materialized; the per-chunk
/// checksum still covers them, so corruption attribution is unaffected.
///
/// Decode order is always chunk order — with `threads > 1` a work-stealing
/// batch decodes ahead and results are re-queued by slot, so output is
/// deterministic at any thread count, same as [`read_capture2_parallel`].
pub struct ChunkCursor<'a> {
    bytes: &'a [u8],
    nodes: Vec<NodeMeta>,
    selected: Vec<(u32, ChunkInfo)>,
    /// Next selected chunk to *decode* (may run ahead of `yielded`).
    next: usize,
    /// Selected chunks already handed to the caller.
    yielded: usize,
    projection: Projection,
    threads: usize,
    ahead: VecDeque<Result<Vec<MsgRecord>, CaptureError>>,
}

impl<'a> ChunkCursor<'a> {
    /// Opens a cursor over `bytes`, parsing the node table and footer
    /// index (the only eager work). The projection is
    /// [`Projection::ALL`] and decode is sequential until the builders say
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::BadMagic`] for foreign inputs (including
    /// `FGBDCAP1` — the cursor is `FGBDCAP2`-only; batch-read flat
    /// captures instead) and [`CaptureError::Malformed`] for a damaged
    /// header or footer.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CaptureError> {
        let idx = parse_index(bytes)?;
        let selected = idx
            .chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u32, c))
            .collect();
        Ok(ChunkCursor {
            bytes,
            nodes: idx.nodes,
            selected,
            next: 0,
            yielded: 0,
            projection: Projection::ALL,
            threads: 1,
            ahead: VecDeque::new(),
        })
    }

    /// Sets which columns [`next_chunk`](Self::next_chunk) materializes.
    pub fn with_projection(mut self, proj: Projection) -> Self {
        self.projection = proj;
        self
    }

    /// Decodes up to `threads` chunks ahead with the work-stealing
    /// fan-out; results are still yielded in chunk order. Values below 2
    /// (and any value on a <2-core host — see [`effective_decode_threads`])
    /// keep the sequential in-place path.
    pub fn with_threads(mut self, threads: usize) -> Self {
        let host = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        self.threads = effective_decode_threads(threads.max(1), host);
        self
    }

    /// The capture's node table.
    pub fn nodes(&self) -> &[NodeMeta] {
        &self.nodes
    }

    /// The decode width in effect — what [`with_threads`](Self::with_threads)
    /// clamped its request to, for manifests that report the route taken.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total records in the capture, from the footer index alone.
    pub fn total_records(&self) -> u64 {
        self.selected
            .iter()
            .map(|(_, c)| u64::from(c.record_count))
            .sum()
    }

    /// `(first, last)` record timestamps of the capture, in microsecond
    /// capture time; `None` for an empty capture.
    pub fn time_bounds(&self) -> Option<(u64, u64)> {
        let first = self.selected.first()?.1.min_at;
        let last = self.selected.last()?.1.max_at;
        Some((first, last))
    }

    /// Byte offset before which the cursor will never read again: the
    /// start of the next un-yielded chunk, or the capture length once the
    /// walk is done. Feed this to [`mmapio::Mapping::release_until`] to
    /// keep resident memory flat while scanning a mapped capture.
    pub fn consumed_bytes(&self) -> usize {
        match self.selected.get(self.yielded) {
            Some(&(_, info)) => info.offset as usize,
            None => self.bytes.len(),
        }
    }

    /// Decodes the next chunk into `out` (clearing it first).
    /// Returns `Ok(false)` when the walk is complete.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Chunk`] naming the failing chunk, exactly as the
    /// batch readers attribute it; the cursor then resumes with the next
    /// chunk if polled again.
    pub fn next_chunk(&mut self, out: &mut Vec<MsgRecord>) -> Result<bool, CaptureError> {
        out.clear();
        if self.ahead.is_empty() && self.next < self.selected.len() {
            if self.threads <= 1 {
                let (i, info) = self.selected[self.next];
                self.next += 1;
                self.yielded += 1;
                decode_indexed_chunk_projected(self.bytes, i, info, self.projection, out)?;
                return Ok(true);
            }
            self.decode_ahead();
        }
        match self.ahead.pop_front() {
            Some(res) => {
                self.yielded += 1;
                *out = res?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Decodes the next batch of (at most `threads`) chunks in parallel
    /// into the `ahead` queue, preserving chunk order.
    fn decode_ahead(&mut self) {
        let end = (self.next + self.threads).min(self.selected.len());
        let batch = &self.selected[self.next..end];
        let workers = self.threads.min(batch.len()).max(1);
        let mut slots = decode_slots(self.bytes, batch, workers, self.projection);
        for slot in slots.drain(..) {
            self.ahead
                .push_back(slot.expect("every chunk slot claimed"));
        }
        self.next = end;
    }
}

impl std::fmt::Debug for ChunkCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCursor")
            .field("capture_bytes", &self.bytes.len())
            .field("chunks", &self.selected.len())
            .field("yielded", &self.yielded)
            .field("projection", &self.projection)
            .field("threads", &self.threads)
            .finish()
    }
}

// --- dual-format chunk iterator ----------------------------------------------

/// Streams a capture of either format as chunks of records, so consumers
/// (e.g. `compare_captures --raw`) can diff or scan multi-GB captures in
/// flat memory. `FGBDCAP2` yields its native chunks; `FGBDCAP1` is re-cut
/// into [`DEFAULT_CHUNK_RECORDS`]-sized chunks on the fly.
pub struct CaptureChunks<R: Read> {
    r: R,
    nodes: Vec<NodeMeta>,
    format: u8,
    state: ChunksState,
}

enum ChunksState {
    /// FGBDCAP1: records remaining, previous timestamp (order check).
    Flat { remaining: u64, prev: SimTime },
    /// FGBDCAP2: next chunk index, previous chunk's max timestamp.
    Chunked { next: u32, prev_max: u64 },
    /// Footer consumed or error yielded; iteration is over.
    Done,
}

impl<R: Read> CaptureChunks<R> {
    /// Opens a capture stream of either format, consuming its header.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::BadMagic`] for foreign inputs and
    /// [`CaptureError::Malformed`] for truncated headers.
    pub fn open(mut r: R) -> Result<Self, CaptureError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let format = if &magic == MAGIC2 {
            2
        } else if &magic == MAGIC {
            1
        } else {
            return Err(CaptureError::BadMagic(magic));
        };
        let nodes = read_node_table(&mut r)?;
        let state = if format == 2 {
            ChunksState::Chunked {
                next: 0,
                prev_max: 0,
            }
        } else {
            ChunksState::Flat {
                remaining: read_u64(&mut r)?,
                prev: SimTime::ZERO,
            }
        };
        Ok(CaptureChunks {
            r,
            nodes,
            format,
            state,
        })
    }

    /// The capture's node table (decoded eagerly by [`open`](Self::open)).
    pub fn nodes(&self) -> &[NodeMeta] {
        &self.nodes
    }

    /// The format [`open`](Self::open) sniffed: `1` for flat `FGBDCAP1`,
    /// `2` for chunked `FGBDCAP2`.
    pub fn format(&self) -> u8 {
        self.format
    }

    fn next_flat(
        &mut self,
        remaining: u64,
        mut prev: SimTime,
    ) -> Result<Vec<MsgRecord>, CaptureError> {
        let take = remaining.min(DEFAULT_CHUNK_RECORDS as u64);
        let mut out = Vec::with_capacity(take as usize);
        for _ in 0..take {
            let rec = crate::capture::read_record_v1(&mut self.r, prev)?;
            prev = rec.at;
            out.push(rec);
        }
        self.state = if remaining == take {
            ChunksState::Done
        } else {
            ChunksState::Flat {
                remaining: remaining - take,
                prev,
            }
        };
        Ok(out)
    }
}

impl<R: Read> Iterator for CaptureChunks<R> {
    type Item = Result<Vec<MsgRecord>, CaptureError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.state {
            ChunksState::Done => None,
            ChunksState::Flat { remaining, prev } => {
                if remaining == 0 {
                    self.state = ChunksState::Done;
                    return None;
                }
                Some(self.next_flat(remaining, prev).inspect_err(|_| {
                    self.state = ChunksState::Done;
                }))
            }
            ChunksState::Chunked { next, mut prev_max } => {
                let mut records = Vec::new();
                let step = read_stream_chunk(&mut self.r, next, &mut prev_max, &mut records)
                    .and_then(|got_chunk| {
                        if got_chunk {
                            Ok(true)
                        } else {
                            read_stream_footer(&mut self.r, next).map(|()| false)
                        }
                    });
                match step {
                    Ok(true) => {
                        self.state = ChunksState::Chunked {
                            next: next + 1,
                            prev_max,
                        };
                        Some(Ok(records))
                    }
                    Ok(false) => {
                        self.state = ChunksState::Done;
                        None
                    }
                    Err(e) => {
                        self.state = ChunksState::Done;
                        Some(Err(e))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NodeKind;

    fn nodes() -> Vec<NodeMeta> {
        vec![
            NodeMeta {
                id: NodeId(0),
                name: "client".into(),
                kind: NodeKind::Client,
                tier: None,
            },
            NodeMeta {
                id: NodeId(1),
                name: "web-1".into(),
                kind: NodeKind::Server,
                tier: Some(0),
            },
        ]
    }

    fn sample_log(n: u64) -> TraceLog {
        let mut log = TraceLog::new(nodes());
        for i in 0..n {
            log.push(MsgRecord {
                at: SimTime::from_micros(100 + i * 7),
                src: NodeId((i % 2) as u16),
                dst: NodeId(((i + 1) % 2) as u16),
                kind: if i % 2 == 0 {
                    MsgKind::Request
                } else {
                    MsgKind::Response
                },
                conn: ConnId((i % 5) as u32),
                class: ClassId((i % 3) as u16),
                bytes: 256 + (i % 4) as u32 * 100,
                truth: if i % 7 == 0 { None } else { Some(TxnId(i / 2)) },
            });
        }
        log
    }

    fn encode(log: &TraceLog, chunk: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::with_chunk_records(&mut out, &log.nodes, chunk).unwrap();
        for &r in &log.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn round_trips_sequential_and_parallel() {
        let log = sample_log(1000);
        let bytes = encode(&log, 64);
        let seq = crate::capture::read_capture(bytes.as_slice()).unwrap();
        assert_eq!(seq.nodes, log.nodes);
        assert_eq!(seq.records, log.records);
        for threads in [1, 2, 4, 7] {
            let par = read_capture2_parallel(&bytes, threads).unwrap();
            assert_eq!(par.nodes, log.nodes);
            assert_eq!(par.records, log.records);
        }
    }

    #[test]
    fn low_core_hosts_fall_back_to_sequential_decode() {
        // Below two cores the parallel path is pure overhead: any request
        // collapses to the sequential decode.
        assert_eq!(effective_decode_threads(1, 1), 1);
        assert_eq!(effective_decode_threads(4, 1), 1);
        assert_eq!(effective_decode_threads(7, 0), 1);
        // At two or more cores the caller's request stands.
        assert_eq!(effective_decode_threads(4, 2), 4);
        assert_eq!(effective_decode_threads(7, 8), 7);
        assert_eq!(effective_decode_threads(1, 8), 1);
    }

    #[test]
    fn empty_capture_round_trips() {
        let log = TraceLog::new(nodes());
        let bytes = encode(&log, 8);
        assert!(read_capture2_parallel(&bytes, 4)
            .unwrap()
            .records
            .is_empty());
        let seq = crate::capture::read_capture(bytes.as_slice()).unwrap();
        assert_eq!(seq.nodes, log.nodes);
        assert!(seq.records.is_empty());
    }

    #[test]
    fn corrupt_payload_names_the_chunk() {
        let log = sample_log(300);
        let mut bytes = encode(&log, 100);
        // Flip a byte inside the second chunk's payload: find it via the
        // index the reader itself uses.
        let idx = parse_index(&bytes).unwrap();
        let victim = idx.chunks[1].offset as usize + CHUNK_HEADER_LEN + 3;
        bytes[victim] ^= 0xFF;
        match read_capture2_parallel(&bytes, 2) {
            Err(CaptureError::Chunk { index: 1, what }) => {
                assert_eq!(what, "checksum mismatch");
            }
            other => panic!("expected chunk-1 checksum error, got {other:?}"),
        }
        // The sequential reader attributes it identically.
        match crate::capture::read_capture(bytes.as_slice()) {
            Err(CaptureError::Chunk { index: 1, .. }) => {}
            other => panic!("expected chunk-1 error, got {other:?}"),
        }
    }

    fn drain_cursor(mut cur: ChunkCursor<'_>) -> Vec<MsgRecord> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while cur.next_chunk(&mut buf).unwrap() {
            out.extend_from_slice(&buf);
        }
        out
    }

    #[test]
    fn cursor_matches_batch_reader_at_any_thread_count() {
        let log = sample_log(1000);
        let bytes = encode(&log, 64);
        for threads in [1, 2, 4, 7] {
            let cur = ChunkCursor::new(&bytes).unwrap().with_threads(threads);
            assert_eq!(cur.total_records(), 1000);
            assert_eq!(cur.time_bounds(), Some((100, 100 + 999 * 7)));
            assert_eq!(cur.nodes(), &log.nodes[..]);
            assert_eq!(drain_cursor(cur), log.records);
        }
    }

    #[test]
    fn cursor_consumed_bytes_is_monotone_and_ends_at_len() {
        let log = sample_log(500);
        let bytes = encode(&log, 64);
        let mut cur = ChunkCursor::new(&bytes).unwrap();
        let mut buf = Vec::new();
        let mut prev = cur.consumed_bytes();
        while cur.next_chunk(&mut buf).unwrap() {
            let now = cur.consumed_bytes();
            assert!(now >= prev, "watermark went backwards: {prev} -> {now}");
            prev = now;
        }
        assert_eq!(cur.consumed_bytes(), bytes.len());
    }

    #[test]
    fn cursor_projection_skips_exactly_the_unrequested_columns() {
        let log = sample_log(500);
        let bytes = encode(&log, 64);
        let cur = ChunkCursor::new(&bytes)
            .unwrap()
            .with_projection(Projection::DETECT);
        let recs = drain_cursor(cur);
        assert_eq!(recs.len(), log.records.len());
        for (got, want) in recs.iter().zip(&log.records) {
            assert_eq!(got.at, want.at);
            assert_eq!(got.src, want.src);
            assert_eq!(got.dst, want.dst);
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.conn, want.conn);
            assert_eq!(got.class, want.class);
            // Skipped columns stay at the record defaults.
            assert_eq!(got.bytes, 0);
            assert_eq!(got.truth, None);
        }
    }

    #[test]
    fn cursor_attributes_corruption_and_resumes() {
        let log = sample_log(300);
        let mut bytes = encode(&log, 100);
        let idx = parse_index(&bytes).unwrap();
        let victim = idx.chunks[1].offset as usize + CHUNK_HEADER_LEN + 3;
        bytes[victim] ^= 0xFF;
        // Projection does not weaken detection: the checksum covers the
        // whole payload, skipped columns included.
        let project = |r: &MsgRecord, proj: Projection| MsgRecord {
            bytes: if proj.bytes { r.bytes } else { 0 },
            truth: if proj.truth { r.truth } else { None },
            ..*r
        };
        for proj in [Projection::ALL, Projection::DETECT] {
            let expect = |range: std::ops::Range<usize>| -> Vec<MsgRecord> {
                log.records[range]
                    .iter()
                    .map(|r| project(r, proj))
                    .collect()
            };
            let mut cur = ChunkCursor::new(&bytes).unwrap().with_projection(proj);
            let mut buf = Vec::new();
            assert!(cur.next_chunk(&mut buf).unwrap());
            assert_eq!(buf, expect(0..100));
            match cur.next_chunk(&mut buf) {
                Err(CaptureError::Chunk { index: 1, what }) => {
                    assert_eq!(what, "checksum mismatch");
                }
                other => panic!("expected chunk-1 checksum error, got {other:?}"),
            }
            // The cursor can keep walking past the damaged chunk.
            assert!(cur.next_chunk(&mut buf).unwrap());
            assert_eq!(buf, expect(200..300));
            assert!(!cur.next_chunk(&mut buf).unwrap());
        }
    }

    #[test]
    fn cursor_handles_an_empty_capture() {
        let log = TraceLog::new(nodes());
        let bytes = encode(&log, 8);
        let mut cur = ChunkCursor::new(&bytes).unwrap();
        assert_eq!(cur.total_records(), 0);
        assert_eq!(cur.time_bounds(), None);
        assert_eq!(cur.consumed_bytes(), bytes.len());
        let mut buf = Vec::new();
        assert!(!cur.next_chunk(&mut buf).unwrap());
    }

    #[test]
    fn truncation_is_detected() {
        let log = sample_log(300);
        let bytes = encode(&log, 100);
        // Losing the trailer costs random access...
        let cut = &bytes[..bytes.len() - TRAILER_LEN];
        assert!(matches!(
            read_capture2_parallel(cut, 2),
            Err(CaptureError::Malformed("missing chunk index"))
        ));
        // ...and mid-chunk truncation is named by the sequential reader.
        let idx = parse_index(&bytes).unwrap();
        let mid = idx.chunks[2].offset as usize + CHUNK_HEADER_LEN + 1;
        match crate::capture::read_capture(&bytes[..mid]) {
            Err(CaptureError::Chunk { index: 2, what }) => {
                assert_eq!(what, "truncated chunk payload");
            }
            other => panic!("expected chunk-2 truncation, got {other:?}"),
        }
    }

    #[test]
    fn chunk_iterator_reads_both_formats() {
        let log = sample_log(200);
        let v2 = encode(&log, 64);
        let mut v1 = Vec::new();
        crate::capture::write_capture(&mut v1, &log).unwrap();
        for bytes in [v1, v2] {
            let it = CaptureChunks::open(bytes.as_slice()).unwrap();
            assert_eq!(it.nodes(), log.nodes.as_slice());
            let records: Vec<MsgRecord> = it.flat_map(|c| c.unwrap()).collect();
            assert_eq!(records, log.records);
        }
    }

    #[test]
    fn writer_rejects_out_of_order_records() {
        let mut w = ChunkedWriter::with_chunk_records(Vec::new(), &nodes(), 8).unwrap();
        let mut rec = sample_log(1).records[0];
        w.push(rec).unwrap();
        rec.at = SimTime::ZERO;
        assert!(matches!(
            w.push(rec),
            Err(CaptureError::Malformed("records out of order"))
        ));
    }

    #[test]
    fn chunked_is_smaller_than_flat() {
        let log = sample_log(10_000);
        let mut v1 = Vec::new();
        crate::capture::write_capture(&mut v1, &log).unwrap();
        let v2 = encode(&log, DEFAULT_CHUNK_RECORDS);
        assert!(
            (v2.len() as f64) <= 0.7 * (v1.len() as f64),
            "chunked {} bytes vs flat {} bytes",
            v2.len(),
            v1.len()
        );
    }
}
