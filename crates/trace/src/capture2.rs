//! `FGBDCAP2`: the chunked columnar capture format, the only one.
//!
//! Most columns barely change (`src`/`dst`/`kind` cycle through a handful
//! of values; timestamps are near-monotone micros), so the records are
//! grouped into fixed-size chunks of column-major data: captures are small
//! on disk **and** readable in parallel or by time range:
//!
//! ```text
//! magic   [u8;8] = b"FGBDCAP2"
//! node table     n_nodes u32, then per node: id u16, kind u8 (0=client,
//!                1=server), tier u8 (0xFF = none), name_len u16, name bytes
//!                (UTF-8); see capture::write_node_table
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
//! Every read takes one chunk step — parse and validate the header, verify
//! the checksum, decode under a [`Projection`] — under one of two walkers:
//! [`ChunkCursor`] over a capture in memory (mmap or heap), which finds the
//! chunks through the footer index (the last 16 bytes point at it) and can
//! decode ahead across threads, and [`CaptureChunks`] over a stream (a
//! FIFO, a `--follow` tail), which reads chunk after chunk and checks their
//! order. Chunks validate independently, so corruption is reported per
//! chunk ([`CaptureError::Chunk`]) instead of as a file-sized shrug.
//!
//! Writers stream through [`ChunkedWriter`]: memory is bounded by one
//! chunk (default 64 Ki records) regardless of capture size, which is what
//! lets million-user runs write captures without materializing a
//! [`TraceLog`].

use std::collections::VecDeque;
use std::io::{Read, Write};

use fgbd_des::SimTime;

use crate::capture::{
    read_node_table, read_u32, read_u64, read_u8, write_node_table, CaptureError,
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
/// Most payload a stream read reserves before the bytes arrive (a default
/// chunk's payload is ~0.8 MB); past it the buffer grows as they do.
const PAYLOAD_RESERVE: usize = 1 << 20;
const NO_TRUTH: u64 = u64::MAX;

/// Default records per chunk (64 Ki): big enough that per-chunk headers and
/// index entries are noise, small enough that a 200k-record capture still
/// splits across 4 threads.
pub const DEFAULT_CHUNK_RECORDS: usize = 64 * 1024;

// --- decode width ---------------------------------------------------------

/// Decode threads for this host: `min(4, available_parallelism)`. The
/// decoded log is identical at every width; this only trades wall-clock
/// for cores. (The name predates the width becoming a fact of the host.)
pub fn threads_from_env() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .min(4)
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
    /// Decode `conn` (connection id — the pairing key).
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

/// The fields of a chunk header that passed [`decode_chunk`]'s checks.
#[derive(Debug, Clone, Copy)]
struct ChunkHeader {
    record_count: u32,
    min_at: u64,
    max_at: u64,
    byte_len: usize,
}

/// The one chunk step under both walkers. Parses and validates the 33-byte
/// header `head` (the walker has matched its tag), hands the header to
/// `payload` — which applies the walker's own check (chunk order on a
/// stream, agreement with the footer index in memory) and returns at most
/// `byte_len` payload bytes — verifies the checksum and decodes under
/// `proj`, appending to `out` (which may hold part of the chunk after an
/// error).
///
/// The header sits outside the checksum, so nothing it claims sizes an
/// allocation: every record costs at least one timestamp byte, a header
/// promising more records than payload bytes is rejected, and the records
/// are reserved only once their payload is in hand.
fn decode_chunk<'p>(
    head: &[u8; CHUNK_HEADER_LEN],
    index: u32,
    payload: impl FnOnce(&ChunkHeader) -> Result<&'p [u8], CaptureError>,
    proj: Projection,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    let bad = |what: &'static str| CaptureError::Chunk { index, what };
    let u32_at = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().unwrap());
    let h = ChunkHeader {
        record_count: u32_at(1),
        min_at: u64_at(5),
        max_at: u64_at(13),
        byte_len: u32_at(21) as usize,
    };
    if h.record_count == 0 || h.min_at > h.max_at {
        return Err(bad("bad chunk header"));
    }
    if h.record_count as usize > h.byte_len {
        return Err(bad("record count exceeds payload"));
    }
    let bytes = payload(&h)?;
    if bytes.len() != h.byte_len {
        return Err(bad("truncated chunk payload"));
    }
    if checksum64(bytes) != u64_at(25) {
        return Err(bad("checksum mismatch"));
    }
    decode_payload(bytes, index, &h, proj, out)
}

/// Decodes a checksummed chunk payload under `proj`: skipped columns are
/// walked but never materialized, leaving their record fields at the
/// defaults. `index` is only for error attribution.
fn decode_payload(
    payload: &[u8],
    index: u32,
    h: &ChunkHeader,
    proj: Projection,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    let n = h.record_count as usize;
    let (min_at, max_at) = (h.min_at, h.max_at);
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

/// One footer-index entry: where a chunk starts and what its header says.
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

/// Writes a whole `log` in `FGBDCAP2` form through a [`ChunkedWriter`].
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

// --- in-memory walker (heap buffer or mmap) ----------------------------------

/// Parses an in-memory capture's skeleton: its node table and footer index.
fn parse_index(bytes: &[u8]) -> Result<(Vec<NodeMeta>, Vec<ChunkInfo>), CaptureError> {
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
    Ok((nodes, chunks))
}

/// The in-memory walker's chunk read: a chunk must start where its index
/// entry says and its header must agree with that entry; the rest is the
/// shared [`decode_chunk`] step.
fn decode_indexed(
    bytes: &[u8],
    index: u32,
    info: ChunkInfo,
    proj: Projection,
    out: &mut Vec<MsgRecord>,
) -> Result<(), CaptureError> {
    let bad = |what: &'static str| CaptureError::Chunk { index, what };
    let (head, rest) = bytes
        .get(info.offset as usize..)
        .and_then(<[u8]>::split_first_chunk)
        .filter(|(head, _)| head[0] == TAG_CHUNK)
        .ok_or(bad("chunk offset out of range"))?;
    let payload = |h: &ChunkHeader| {
        if (h.record_count, h.min_at, h.max_at) != (info.record_count, info.min_at, info.max_at) {
            return Err(bad("header disagrees with index"));
        }
        Ok(rest.get(..h.byte_len).unwrap_or(rest))
    };
    decode_chunk(head, index, payload, proj, out)
}

/// Effective decode parallelism on a host with `host_cores` usable cores.
///
/// Below two cores the workers cannot overlap: decode-ahead's thread
/// spawns are pure overhead on top of a serialized decode, so a
/// single-core host keeps the in-place sequential decode (the same
/// reasoning as the streaming tap's zero spin budget on single-core
/// hosts); the decoded bytes are identical either way.
fn effective_decode_threads(requested: usize, host_cores: usize) -> usize {
    if host_cores < 2 {
        1
    } else {
        requested
    }
}

/// Lazy, zero-copy cursor over an in-memory `FGBDCAP2` capture — the
/// in-memory walker.
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
/// Decode order is always chunk order — with `threads > 1` a batch of
/// chunks is decoded ahead, one thread each, and queued in chunk order, so
/// output is deterministic at any thread count.
pub struct ChunkCursor<'a> {
    bytes: &'a [u8],
    nodes: Vec<NodeMeta>,
    chunks: Vec<ChunkInfo>,
    /// Next chunk to *decode* (may run ahead of `yielded`).
    next: usize,
    /// Chunks already handed to the caller.
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
    /// Returns [`CaptureError::BadMagic`] for foreign inputs and
    /// [`CaptureError::Malformed`] for a damaged header or footer.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CaptureError> {
        let (nodes, chunks) = parse_index(bytes)?;
        Ok(ChunkCursor {
            bytes,
            nodes,
            chunks,
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

    /// Decodes up to `threads` chunks ahead, one thread each; results are
    /// still yielded in chunk order. Values below 2 (and any value on a
    /// <2-core host — see [`effective_decode_threads`]) keep the sequential
    /// in-place path.
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
        self.chunks.iter().map(|c| u64::from(c.record_count)).sum()
    }

    /// `(first, last)` record timestamps of the capture, in microsecond
    /// capture time; `None` for an empty capture.
    pub fn time_bounds(&self) -> Option<(u64, u64)> {
        Some((self.chunks.first()?.min_at, self.chunks.last()?.max_at))
    }

    /// Byte offset before which the cursor will never read again: the
    /// start of the next un-yielded chunk, or the capture length once the
    /// walk is done. Feed this to [`mmapio::Mapping::release_until`] to
    /// keep resident memory flat while scanning a mapped capture.
    pub fn consumed_bytes(&self) -> usize {
        match self.chunks.get(self.yielded) {
            Some(info) => info.offset as usize,
            None => self.bytes.len(),
        }
    }

    /// Decodes the next chunk into `out` (clearing it first).
    /// Returns `Ok(false)` when the walk is complete.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Chunk`] naming the failing chunk; the cursor then
    /// resumes with the next chunk if polled again.
    pub fn next_chunk(&mut self, out: &mut Vec<MsgRecord>) -> Result<bool, CaptureError> {
        out.clear();
        if self.ahead.is_empty() && self.next < self.chunks.len() {
            if self.threads <= 1 {
                let index = self.next;
                self.next += 1;
                self.yielded += 1;
                decode_indexed(
                    self.bytes,
                    index as u32,
                    self.chunks[index],
                    self.projection,
                    out,
                )?;
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

    /// Decodes the next (at most `threads`) chunks on one scoped thread
    /// each and queues the results in chunk order.
    fn decode_ahead(&mut self) {
        let end = (self.next + self.threads).min(self.chunks.len());
        let (bytes, proj) = (self.bytes, self.projection);
        std::thread::scope(|s| {
            let workers: Vec<_> = (self.next..end)
                .map(|index| {
                    let info = self.chunks[index];
                    s.spawn(move || {
                        let mut records = Vec::new();
                        decode_indexed(bytes, index as u32, info, proj, &mut records)
                            .map(|()| records)
                    })
                })
                .collect();
            for w in workers {
                let decoded = w.join().expect("chunk decode worker panicked");
                self.ahead.push_back(decoded);
            }
        });
        self.next = end;
    }
}

impl std::fmt::Debug for ChunkCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCursor")
            .field("capture_bytes", &self.bytes.len())
            .field("chunks", &self.chunks.len())
            .field("yielded", &self.yielded)
            .field("projection", &self.projection)
            .field("threads", &self.threads)
            .finish()
    }
}

// --- stream walker -----------------------------------------------------------

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
    read_u64(r)?; // index_offset — only the in-memory walker needs it
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != INDEX_MAGIC {
        return Err(CaptureError::Malformed("bad index magic"));
    }
    Ok(())
}

/// Streams a capture as chunks of records — the stream walker, under
/// `read_capture`, `analyze_capture --follow` and FIFO input, and
/// `compare_captures --raw` — in flat memory. Each chunk is checked to
/// start no earlier than the one before ended.
pub struct CaptureChunks<R: Read> {
    r: R,
    nodes: Vec<NodeMeta>,
    /// Next chunk index and the previous chunk's max timestamp; `None`
    /// once the footer is consumed or an error yielded.
    state: Option<(u32, u64)>,
    /// Payload buffer, reused from chunk to chunk.
    payload: Vec<u8>,
}

impl<R: Read> CaptureChunks<R> {
    /// Opens a capture stream, consuming its header.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::BadMagic`] for foreign inputs and
    /// [`CaptureError::Malformed`] for truncated headers.
    pub fn open(mut r: R) -> Result<Self, CaptureError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC2 {
            return Err(CaptureError::BadMagic(magic));
        }
        let nodes = read_node_table(&mut r)?;
        Ok(CaptureChunks {
            r,
            nodes,
            state: Some((0, 0)),
            payload: Vec::new(),
        })
    }

    /// The capture's node table (decoded eagerly by [`open`](Self::open)).
    pub fn nodes(&self) -> &[NodeMeta] {
        &self.nodes
    }

    /// Decodes the next chunk into `out` (clearing it first, keeping its
    /// allocation), as [`ChunkCursor::next_chunk`] does. Returns `Ok(false)`
    /// when the walk is complete.
    ///
    /// # Errors
    ///
    /// As the iterator: an error ends the walk, and later calls return
    /// `Ok(false)`.
    pub fn next_into(&mut self, out: &mut Vec<MsgRecord>) -> Result<bool, CaptureError> {
        out.clear();
        let Some((next, prev_max)) = self.state.take() else {
            return Ok(false);
        };
        let step = self.next_chunked(next, prev_max, out);
        if let Ok(true) = step {
            let prev_max = out.last().map_or(prev_max, |r| r.at.as_micros());
            self.state = Some((next + 1, prev_max));
        }
        step
    }

    /// The next chunk into `out` through the shared [`decode_chunk`] step;
    /// `false` once the footer is read and agrees with the chunks seen.
    fn next_chunked(
        &mut self,
        index: u32,
        prev_max: u64,
        out: &mut Vec<MsgRecord>,
    ) -> Result<bool, CaptureError> {
        let mut head = [0u8; CHUNK_HEADER_LEN];
        self.r.read_exact(&mut head[..1])?;
        match head[0] {
            TAG_INDEX => return read_stream_footer(&mut self.r, index).map(|()| false),
            TAG_CHUNK => self.r.read_exact(&mut head[1..])?,
            _ => return Err(CaptureError::Malformed("unknown block tag")),
        }
        let (r, buf) = (&mut self.r, &mut self.payload);
        let payload = move |h: &ChunkHeader| {
            if index > 0 && h.min_at < prev_max {
                return Err(CaptureError::Chunk {
                    index,
                    what: "chunk out of order",
                });
            }
            // Moved out of the closure's state, so the slice returned
            // below may outlive this call.
            let buf = buf;
            // Grown as the bytes arrive: the header is unchecked, so a
            // claimed length reserves no more than `PAYLOAD_RESERVE`.
            buf.clear();
            buf.reserve(h.byte_len.min(PAYLOAD_RESERVE));
            let read = r.take(h.byte_len as u64).read_to_end(buf);
            read.map_err(|_| CaptureError::Chunk {
                index,
                what: "truncated chunk payload",
            })?;
            Ok(&buf[..])
        };
        decode_chunk(&head, index, payload, Projection::ALL, out)?;
        Ok(true)
    }
}

/// Each chunk in a fresh `Vec`; [`CaptureChunks::next_into`] reuses one.
impl<R: Read> Iterator for CaptureChunks<R> {
    type Item = Result<Vec<MsgRecord>, CaptureError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut out = Vec::new();
        self.next_into(&mut out)
            .map(|more| more.then_some(out))
            .transpose()
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
            let cur = ChunkCursor::new(&bytes).unwrap().with_threads(threads);
            assert_eq!(drain_cursor(cur), log.records);
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
        assert!(drain_cursor(ChunkCursor::new(&bytes).unwrap().with_threads(4)).is_empty());
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
        let (_, chunks) = parse_index(&bytes).unwrap();
        let victim = chunks[1].offset as usize + CHUNK_HEADER_LEN + 3;
        bytes[victim] ^= 0xFF;
        let mut cur = ChunkCursor::new(&bytes).unwrap().with_threads(2);
        let mut buf = Vec::new();
        assert!(cur.next_chunk(&mut buf).unwrap());
        match cur.next_chunk(&mut buf) {
            Err(CaptureError::Chunk { index: 1, what }) => {
                assert_eq!(what, "checksum mismatch");
            }
            other => panic!("expected chunk-1 checksum error, got {other:?}"),
        }
        // The stream walker attributes it identically.
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
        let (_, chunks) = parse_index(&bytes).unwrap();
        let victim = chunks[1].offset as usize + CHUNK_HEADER_LEN + 3;
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
            ChunkCursor::new(cut),
            Err(CaptureError::Malformed("missing chunk index"))
        ));
        // ...and mid-chunk truncation is named by the stream walker.
        let (_, chunks) = parse_index(&bytes).unwrap();
        let mid = chunks[2].offset as usize + CHUNK_HEADER_LEN + 1;
        match crate::capture::read_capture(&bytes[..mid]) {
            Err(CaptureError::Chunk { index: 2, what }) => {
                assert_eq!(what, "truncated chunk payload");
            }
            other => panic!("expected chunk-2 truncation, got {other:?}"),
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
}
