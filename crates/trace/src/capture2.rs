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
/// chunk's payload is about 360 KB); past it the buffer grows as they do.
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

    /// Steps past `n` varints without decoding them: past the `n`th byte
    /// with its top bit clear. Counting those a 64-byte block at a time
    /// costs a fraction of decoding them, which is what lets
    /// [`ChunkRows::new`] find every column before any row is decoded; a
    /// varint's value, and its length limit, are checked where it is.
    fn skip_varints(&mut self, n: usize) -> Result<(), CaptureError> {
        let rest = &self.buf[self.pos..];
        let (mut left, mut at) = (n, 0);
        for block in rest.chunks_exact(64) {
            let ends = block.iter().filter(|&&b| b < 0x80).count();
            if ends >= left {
                break;
            }
            (left, at) = (left - ends, at + 64);
        }
        while left > 0 {
            let byte = *rest.get(at).ok_or(CaptureError::Chunk {
                index: self.chunk,
                what: "column overrun",
            })?;
            at += 1;
            left -= usize::from(byte < 0x80);
        }
        self.pos += at;
        Ok(())
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
    // An index is below `DICT_MAX_ENTRIES`, so 2 bytes hold it.
    let mut idxs: Vec<u16> = Vec::with_capacity(values.size_hint().0);
    for v in values.clone() {
        let next = dict.len() as u16;
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

/// Encodes one chunk's payload into a buffer of `reserve` bytes (the
/// writer's estimate, see [`ChunkedWriter`]'s `last_payload`).
fn encode_chunk_payload(records: &[MsgRecord], min_at: u64, reserve: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(reserve);
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

/// The fields of a chunk header that passed [`verify_chunk`]'s checks.
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
/// `byte_len` payload bytes — and verifies the checksum, returning the
/// header and the payload for [`ChunkRows`] to decode.
///
/// The header sits outside the checksum, so nothing it claims sizes an
/// allocation: every record costs at least one timestamp byte, a header
/// promising more records than payload bytes is rejected, and the records
/// are reserved only once their payload is in hand.
fn verify_chunk<'p>(
    head: &[u8; CHUNK_HEADER_LEN],
    index: u32,
    payload: impl FnOnce(&ChunkHeader) -> Result<&'p [u8], CaptureError>,
) -> Result<(ChunkHeader, &'p [u8]), CaptureError> {
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
    Ok((h, bytes))
}

/// Where one of a payload's dictionary-or-plain columns lies, as
/// [`ChunkRows::new`] found it.
#[derive(Debug, Default)]
enum Column {
    /// Not projected: stepped over at setup, never read again.
    #[default]
    Skipped,
    /// Per-record varints from offset `pos` on, each checked against
    /// `max` (naming `out_of_range`) as its row decodes.
    Plain {
        pos: usize,
        max: u64,
        out_of_range: &'static str,
    },
    /// The dictionary (range-checked) and the offset of the bit-packed
    /// indices, `width` bits each.
    Dict {
        dict: Vec<u64>,
        width: u32,
        packed: usize,
    },
}

impl Column {
    /// Finds the column at `r`, leaving `r` past it. When the column is
    /// `wanted`, its dictionary values are validated against `max` once
    /// each (naming `out_of_range`), and a plain column's values as they
    /// decode; a skipped column forgoes those semantic checks. Dictionary
    /// columns skip their packed index block in O(dictionary), the payoff
    /// of projection; plain ones count their varints (no length prefix to
    /// jump by).
    fn locate(
        r: &mut PayloadReader<'_>,
        n: usize,
        wanted: bool,
        max: u64,
        out_of_range: &'static str,
    ) -> Result<Column, CaptureError> {
        let chunk = r.chunk;
        let bad = |what: &'static str| CaptureError::Chunk { index: chunk, what };
        match r.bytes(1)?[0] {
            COL_PLAIN => {
                let pos = r.pos;
                r.skip_varints(n)?;
                Ok(if wanted {
                    Column::Plain {
                        pos,
                        max,
                        out_of_range,
                    }
                } else {
                    Column::Skipped
                })
            }
            COL_DICT => {
                let dict_len = r.varint()? as usize;
                if dict_len > DICT_MAX_ENTRIES || (dict_len == 0 && n > 0) {
                    return Err(bad("bad dictionary"));
                }
                let mut dict = Vec::with_capacity(if wanted { dict_len } else { 0 });
                for _ in 0..dict_len {
                    let v = r.varint()?;
                    if wanted {
                        if v > max {
                            return Err(bad(out_of_range));
                        }
                        dict.push(v);
                    }
                }
                let width = if dict_len == 0 {
                    0
                } else {
                    dict_width(dict_len)
                };
                let packed = r.pos;
                r.bytes((n as u64 * u64::from(width)).div_ceil(8) as usize)?;
                Ok(if wanted {
                    Column::Dict {
                        dict,
                        width,
                        packed,
                    }
                } else {
                    Column::Skipped
                })
            }
            _ => Err(bad("unknown column encoding")),
        }
    }

    /// Stores the values of rows `first..first + records.len()` through
    /// `set`: a branch-light bit extract and table lookup per record for a
    /// dictionary column (starting mid-byte when `first` does), one varint
    /// for a plain one.
    fn decode(
        &mut self,
        payload: &[u8],
        chunk: u32,
        first: usize,
        records: &mut [MsgRecord],
        mut set: impl FnMut(&mut MsgRecord, u64),
    ) -> Result<(), CaptureError> {
        match self {
            Column::Skipped => {}
            Column::Plain {
                pos,
                max,
                out_of_range,
            } => {
                let mut r = PayloadReader {
                    buf: payload,
                    pos: *pos,
                    chunk,
                };
                for rec in records.iter_mut() {
                    let v = r.varint()?;
                    if v > *max {
                        return Err(CaptureError::Chunk {
                            index: chunk,
                            what: out_of_range,
                        });
                    }
                    set(rec, v);
                }
                *pos = r.pos;
            }
            Column::Dict {
                dict,
                width,
                packed,
            } => {
                let width = *width;
                let bit = first as u64 * u64::from(width);
                // `pos` cannot overrun: the loop pulls exactly the bytes whose
                // bits it consumes, and setup found all n·width of them.
                let mut pos = *packed + (bit / 8) as usize;
                let (mut acc, mut nbits) = match (bit % 8) as u32 {
                    0 => (0, 0),
                    skip => {
                        pos += 1;
                        (u64::from(payload[pos - 1]) >> skip, 8 - skip)
                    }
                };
                let mask = (1u64 << width) - 1;
                for rec in records.iter_mut() {
                    while nbits < width {
                        acc |= u64::from(payload[pos]) << nbits;
                        pos += 1;
                        nbits += 8;
                    }
                    let idx = (acc & mask) as usize;
                    acc >>= width;
                    nbits -= width;
                    let v = *dict.get(idx).ok_or(CaptureError::Chunk {
                        index: chunk,
                        what: "bad dictionary index",
                    })?;
                    set(rec, v);
                }
            }
        }
        Ok(())
    }
}

/// The truth column's read position: its presence bitmap, the next delta
/// and the last value.
#[derive(Debug)]
struct TruthCursor {
    bitmap: usize,
    pos: usize,
    prev: u64,
}

/// A verified chunk payload, decoded a row range at a time under a
/// [`Projection`]. Setup steps over the payload once: it validates every
/// column's structure and projected dictionaries, and notes where each
/// column's rows start; each [`decode`](Self::decode) then materializes
/// the next rows, column by column, straight into the records. So a chunk
/// can be handed out in row batches without ever being decoded whole, and
/// a whole-chunk decode is one batch. A value fault surfaces with the
/// batch whose rows carry it: a timestamp that overflows or misses the
/// header's bounds (checked at the first and last rows), a plain value out
/// of range, a dictionary index past its dictionary, a bad truth delta,
/// and trailing bytes (found with the last row). None can pass the
/// checksum of a chunk [`ChunkedWriter`] wrote.
#[derive(Debug)]
struct ChunkRows {
    index: u32,
    n: usize,
    /// Rows decoded so far.
    next: usize,
    /// The timestamp column's next varint and the last timestamp.
    at: (usize, u64),
    /// The header's first and last timestamps.
    bounds: (u64, u64),
    /// src, dst, kind, conn, class, bytes.
    cols: [Column; 6],
    /// `None` when truth is not projected (setup walked it to the end).
    truth: Option<TruthCursor>,
}

impl ChunkRows {
    fn new(
        payload: &[u8],
        index: u32,
        h: &ChunkHeader,
        proj: Projection,
    ) -> Result<ChunkRows, CaptureError> {
        let n = h.record_count as usize;
        let mut r = PayloadReader {
            buf: payload,
            pos: 0,
            chunk: index,
        };
        let bad = |what: &'static str| CaptureError::Chunk { index, what };
        r.skip_varints(n)?;
        let specs = [
            (proj.src, u64::from(u16::MAX), "src out of range"),
            (proj.dst, u64::from(u16::MAX), "dst out of range"),
            (proj.kind, 1, "unknown message kind"),
            (proj.conn, u64::from(u32::MAX), "conn out of range"),
            (proj.class, u64::from(u16::MAX), "class out of range"),
            (proj.bytes, u64::from(u32::MAX), "bytes out of range"),
        ];
        let mut cols: [Column; 6] = Default::default();
        for (col, (wanted, max, what)) in cols.iter_mut().zip(specs) {
            *col = Column::locate(&mut r, n, wanted, max, what)?;
        }
        let bitmap = r.pos;
        let bits = r.bytes(n.div_ceil(8))?;
        let truth = if proj.truth {
            Some(TruthCursor {
                bitmap,
                pos: r.pos,
                prev: 0,
            })
        } else {
            // Bits at positions >= n are padding the full decode never
            // reads; mask them out of the last byte before counting how
            // many truth varints follow.
            let mut present: usize = 0;
            for (byte_i, &b) in bits.iter().enumerate() {
                let mut b = b;
                if byte_i == n / 8 {
                    b &= ((1u16 << (n % 8)) - 1) as u8;
                }
                present += b.count_ones() as usize;
            }
            r.skip_varints(present)?;
            if r.pos != payload.len() {
                return Err(bad("trailing bytes in chunk"));
            }
            None
        };
        Ok(ChunkRows {
            index,
            n,
            next: 0,
            at: (0, h.min_at),
            bounds: (h.min_at, h.max_at),
            cols,
            truth,
        })
    }

    /// Whether every row has been decoded.
    fn done(&self) -> bool {
        self.next == self.n
    }

    /// Appends the next (at most `rows`) records of `payload` — the one
    /// setup walked — to `out`; unprojected fields keep the
    /// [`MsgRecord`] defaults. After an error `out` may hold part of them.
    fn decode(
        &mut self,
        payload: &[u8],
        rows: usize,
        out: &mut Vec<MsgRecord>,
    ) -> Result<(), CaptureError> {
        let (index, first) = (self.index, self.next);
        let end = first.saturating_add(rows).min(self.n);
        let bad = |what: &'static str| CaptureError::Chunk { index, what };
        // The timestamp column materializes the records (every later column
        // fills fields in place — no intermediate column vectors).
        let start = out.len();
        out.reserve(end - first);
        let mut r = PayloadReader {
            buf: payload,
            pos: self.at.0,
            chunk: index,
        };
        let mut prev = self.at.1;
        for _ in first..end {
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
        self.at = (r.pos, prev);
        let records = &mut out[start..];
        let (min_at, max_at) = self.bounds;
        let first_off = first == 0 && records.first().is_some_and(|r| r.at.as_micros() != min_at);
        if first_off || (end == self.n && prev != max_at) {
            return Err(bad("timestamp bounds mismatch"));
        }
        let [src, dst, kind, conn, class, bytes] = &mut self.cols;
        // Values are range-checked (dictionaries at setup, plain values as
        // they decode), so the casts are exact.
        src.decode(payload, index, first, records, |rec, v| {
            rec.src = NodeId(v as u16);
        })?;
        dst.decode(payload, index, first, records, |rec, v| {
            rec.dst = NodeId(v as u16);
        })?;
        kind.decode(payload, index, first, records, |rec, v| {
            rec.kind = if v == 0 {
                MsgKind::Request
            } else {
                MsgKind::Response
            };
        })?;
        conn.decode(payload, index, first, records, |rec, v| {
            rec.conn = ConnId(v as u32);
        })?;
        class.decode(payload, index, first, records, |rec, v| {
            rec.class = ClassId(v as u16);
        })?;
        bytes.decode(payload, index, first, records, |rec, v| {
            rec.bytes = v as u32;
        })?;
        if let Some(t) = &mut self.truth {
            let mut r = PayloadReader {
                buf: payload,
                pos: t.pos,
                chunk: index,
            };
            for (i, rec) in (first..end).zip(records.iter_mut()) {
                if payload[t.bitmap + i / 8] >> (i % 8) & 1 == 1 {
                    t.prev = t.prev.wrapping_add(unzigzag(r.varint()?) as u64);
                    if t.prev == NO_TRUTH {
                        return Err(bad("reserved truth value"));
                    }
                    rec.truth = Some(TxnId(t.prev));
                }
            }
            t.pos = r.pos;
            if end == self.n && t.pos != payload.len() {
                return Err(bad("trailing bytes in chunk"));
            }
        }
        self.next = end;
        Ok(())
    }
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
    /// The last chunk's payload bytes and records: the next payload
    /// reserves its bytes per record plus an eighth, so the writer
    /// neither regrows nor over-holds the buffer. Simulator traffic
    /// encodes to 5.5–6.0 B/record; the first chunk assumes 7.
    last_payload: (usize, usize),
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
            last_payload: (7, 1),
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
        let (bytes, records) = self.last_payload;
        // About the payload's size, which fits the header's `u32`.
        let reserve = (bytes as u64 * self.buf.len() as u64 / records as u64) as usize;
        let payload = encode_chunk_payload(&self.buf, min_at, reserve + reserve / 8);
        self.last_payload = (payload.len(), self.buf.len());
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
/// shared [`verify_chunk`] step, decoded whole.
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
    let (h, bytes) = verify_chunk(head, index, payload)?;
    ChunkRows::new(bytes, index, &h, proj)?.decode(bytes, usize::MAX, out)
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

/// Rows [`CaptureChunks`] decodes per step: a quarter of a default chunk,
/// so a stream consumer holds 16 Ki decoded records (640 KiB) at a time,
/// not 64 Ki, while the per-step cost (a channel send, a buffer swap) stays
/// a small share of decoding the rows.
pub const ROW_BATCH: usize = 16 * 1024;

/// Streams a capture as row batches — the stream walker, under
/// `read_capture`, `analyze_capture --follow` and FIFO input, and
/// `compare_captures --raw` — in flat memory. Each chunk is checked to
/// start no earlier than the one before ended, and its payload is verified
/// whole before any of its rows is handed out; the rows are then decoded
/// from the payload [`ROW_BATCH`] at a time, so no step holds a whole
/// decoded chunk.
pub struct CaptureChunks<R: Read> {
    r: R,
    nodes: Vec<NodeMeta>,
    /// Next chunk index and the previous chunk's max timestamp; `None`
    /// once the footer is consumed or an error yielded.
    state: Option<(u32, u64)>,
    /// Payload of the chunk being handed out, its buffer reused from chunk
    /// to chunk.
    payload: Vec<u8>,
    /// Where that chunk's rows stand; `None` before the first chunk.
    rows: Option<ChunkRows>,
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
            rows: None,
        })
    }

    /// The capture's node table (decoded eagerly by [`open`](Self::open)).
    pub fn nodes(&self) -> &[NodeMeta] {
        &self.nodes
    }

    /// Decodes the next row batch into `out` (clearing it first, keeping
    /// its allocation): at most [`ROW_BATCH`] rows, all of one chunk.
    /// Returns `Ok(false)` when the walk is complete.
    ///
    /// # Errors
    ///
    /// As the iterator: an error ends the walk, and later calls return
    /// `Ok(false)`.
    pub fn next_into(&mut self, out: &mut Vec<MsgRecord>) -> Result<bool, CaptureError> {
        out.clear();
        let step = self.next_rows(out);
        if step.is_err() {
            (self.state, self.rows) = (None, None);
        }
        step
    }

    /// Whether the rows [`next_into`](Self::next_into) returned last ended
    /// their chunk.
    pub fn chunk_done(&self) -> bool {
        self.rows.as_ref().is_none_or(ChunkRows::done)
    }

    fn next_rows(&mut self, out: &mut Vec<MsgRecord>) -> Result<bool, CaptureError> {
        if self.chunk_done() {
            let Some((index, prev_max)) = self.state else {
                return Ok(false);
            };
            match self.next_chunk(index, prev_max)? {
                Some(max_at) => self.state = Some((index + 1, max_at)),
                None => {
                    self.state = None;
                    return Ok(false);
                }
            }
        }
        let rows = self.rows.as_mut().expect("a chunk is in hand");
        rows.decode(&self.payload, ROW_BATCH, out)?;
        Ok(true)
    }

    /// Reads and verifies the next chunk through the shared
    /// [`verify_chunk`] step and sets up its rows, returning its max
    /// timestamp; `None` once the footer is read and agrees with the
    /// chunks seen.
    fn next_chunk(&mut self, index: u32, prev_max: u64) -> Result<Option<u64>, CaptureError> {
        let mut head = [0u8; CHUNK_HEADER_LEN];
        self.r.read_exact(&mut head[..1])?;
        match head[0] {
            TAG_INDEX => return read_stream_footer(&mut self.r, index).map(|()| None),
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
        let (h, bytes) = verify_chunk(&head, index, payload)?;
        self.rows = Some(ChunkRows::new(bytes, index, &h, Projection::ALL)?);
        Ok(Some(h.max_at))
    }
}

/// Each row batch in a fresh `Vec`; [`CaptureChunks::next_into`] reuses one.
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

    /// Every chunk of `bytes` decoded `rows` at a time under `proj`.
    fn decode_in_rows(bytes: &[u8], rows: usize, proj: Projection) -> Vec<MsgRecord> {
        let (_, chunks) = parse_index(bytes).unwrap();
        let mut out = Vec::new();
        for (i, info) in chunks.into_iter().enumerate() {
            let start = info.offset as usize;
            let head: &[u8; CHUNK_HEADER_LEN] =
                bytes[start..][..CHUNK_HEADER_LEN].try_into().unwrap();
            let rest = &bytes[start + CHUNK_HEADER_LEN..];
            let (h, payload) = verify_chunk(head, i as u32, |h| Ok(&rest[..h.byte_len])).unwrap();
            let mut chunk = ChunkRows::new(payload, i as u32, &h, proj).unwrap();
            while !chunk.done() {
                chunk.decode(payload, rows, &mut out).unwrap();
            }
        }
        out
    }

    #[test]
    fn timestamps_off_the_header_bounds_fail_the_batch_that_reaches_them() {
        let log = sample_log(1_000);
        let payload = encode_chunk_payload(&log.records, log.records[0].at.as_micros(), 0);
        // A header one µs off the last timestamp: the first batch decodes,
        // the last fails.
        let h = ChunkHeader {
            record_count: 1_000,
            min_at: log.records[0].at.as_micros(),
            max_at: log.records[999].at.as_micros() + 1,
            byte_len: payload.len(),
        };
        let mut rows = ChunkRows::new(&payload, 7, &h, Projection::ALL).unwrap();
        let mut out = Vec::new();
        rows.decode(&payload, 600, &mut out).unwrap();
        assert_eq!(out, log.records[..600]);
        match rows.decode(&payload, 600, &mut out) {
            Err(CaptureError::Chunk { index: 7, what }) => {
                assert_eq!(what, "timestamp bounds mismatch");
            }
            other => panic!("expected a bounds error, got {other:?}"),
        }
    }

    #[test]
    fn row_batches_decode_what_the_whole_chunk_decodes() {
        let mut log = sample_log(9_000);
        let dense = encode(&log, 2_000);
        // Distinct connections past the dictionary ceiling: a plain column.
        for (i, rec) in log.records.iter_mut().enumerate() {
            rec.conn = ConnId(i as u32);
        }
        let plain = encode(&log, 9_000);
        for bytes in [dense, plain] {
            for proj in [Projection::ALL, Projection::DETECT] {
                let whole = drain_cursor(ChunkCursor::new(&bytes).unwrap().with_projection(proj));
                // Odd batch sizes start the packed columns mid-byte.
                for rows in [1, 7, 333, 1_999, 2_000, usize::MAX] {
                    assert_eq!(decode_in_rows(&bytes, rows, proj), whole, "{rows} rows");
                }
            }
        }
    }

    #[test]
    fn the_stream_walker_hands_out_row_batches_and_marks_chunk_ends() {
        let log = sample_log(2 * ROW_BATCH as u64 + 5_000);
        let bytes = encode(&log, ROW_BATCH + 3_000);
        let mut chunks = CaptureChunks::open(bytes.as_slice()).unwrap();
        let (mut got, mut steps) = (Vec::new(), Vec::new());
        let mut buf = Vec::new();
        while chunks.next_into(&mut buf).unwrap() {
            got.extend_from_slice(&buf);
            steps.push((buf.len(), chunks.chunk_done()));
        }
        assert_eq!(got, log.records);
        let full = ROW_BATCH;
        assert_eq!(
            steps,
            [(full, false), (3_000, true), (full, false), (2_000, true)]
        );
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
