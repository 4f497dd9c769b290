//! `ChunkedWriter` stages each chunk column by column as its records
//! arrive. This holds it to the whole-chunk encoder it replaced, kept here
//! as the reference: every column encoded from a chunk's records at once,
//! straight from the format doc in `capture2.rs`. The two must write the
//! same bytes at every chunk size, for constant columns, for a column that
//! passes the dictionary ceiling mid-chunk, and with ground truth present,
//! absent and mixed.

use std::collections::HashMap;

use fgbd_des::SimTime;
use fgbd_trace::capture2::ChunkedWriter;
use fgbd_trace::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TxnId};
use proptest::prelude::*;

/// Distinct values a dictionary column holds before it goes plain.
const DICT_MAX_ENTRIES: usize = 4096;

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

fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    for w in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// One dictionary column, encoded whole: a first-occurrence dictionary and
/// every record's index bit-packed at the minimum width (LSB-first), or
/// plain varints once the values pass `DICT_MAX_ENTRIES`.
fn put_column(out: &mut Vec<u8>, values: &[u64]) {
    let mut dict: Vec<u64> = Vec::new();
    let mut seen = HashMap::new();
    let mut idxs = Vec::with_capacity(values.len());
    for &v in values {
        let idx = match seen.get(&v) {
            Some(&i) => i,
            None if dict.len() == DICT_MAX_ENTRIES => {
                out.push(0x01);
                for &v in values {
                    put_varint(out, v);
                }
                return;
            }
            None => {
                seen.insert(v, dict.len());
                dict.push(v);
                dict.len() - 1
            }
        };
        idxs.push(idx as u64);
    }
    out.push(0x00);
    put_varint(out, dict.len() as u64);
    for &v in &dict {
        put_varint(out, v);
    }
    let width = 64 - (dict.len() as u64 - 1).leading_zeros();
    let (mut acc, mut nbits) = (0u64, 0u32);
    for idx in idxs {
        acc |= idx << nbits;
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

/// One chunk's payload, encoded from its records at once.
fn encode_chunk_payload(records: &[MsgRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = records[0].at.as_micros();
    for r in records {
        put_varint(&mut out, r.at.as_micros() - prev);
        prev = r.at.as_micros();
    }
    let column = |f: fn(&MsgRecord) -> u64| records.iter().map(f).collect::<Vec<_>>();
    put_column(&mut out, &column(|r| u64::from(r.src.0)));
    put_column(&mut out, &column(|r| u64::from(r.dst.0)));
    put_column(
        &mut out,
        &column(|r| u64::from(r.kind == MsgKind::Response)),
    );
    put_column(&mut out, &column(|r| u64::from(r.conn.0)));
    put_column(&mut out, &column(|r| u64::from(r.class.0)));
    put_column(&mut out, &column(|r| u64::from(r.bytes)));
    let mut bitmap = vec![0u8; records.len().div_ceil(8)];
    let mut prev_truth = 0u64;
    let mut deltas = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if let Some(t) = r.truth {
            bitmap[i / 8] |= 1 << (i % 8);
            let d = t.0.wrapping_sub(prev_truth) as i64;
            put_varint(&mut deltas, ((d << 1) ^ (d >> 63)) as u64);
            prev_truth = t.0;
        }
    }
    out.extend_from_slice(&bitmap);
    out.extend_from_slice(&deltas);
    out
}

/// A whole capture: header, node table, one chunk per `chunk` records,
/// footer index and trailer.
fn reference_capture(nodes: &[NodeMeta], records: &[MsgRecord], chunk: usize) -> Vec<u8> {
    let mut out = b"FGBDCAP2".to_vec();
    out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for n in nodes {
        out.extend_from_slice(&n.id.0.to_le_bytes());
        out.push(u8::from(n.kind == NodeKind::Server));
        out.push(n.tier.unwrap_or(0xFF));
        out.extend_from_slice(&(n.name.len() as u16).to_le_bytes());
        out.extend_from_slice(n.name.as_bytes());
    }
    let mut index = Vec::new();
    for recs in records.chunks(chunk) {
        let payload = encode_chunk_payload(recs);
        let (min_at, max_at) = (recs[0].at.as_micros(), recs[recs.len() - 1].at.as_micros());
        index.push((out.len() as u64, recs.len() as u32, min_at, max_at));
        out.push(0x01);
        out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
        out.extend_from_slice(&min_at.to_le_bytes());
        out.extend_from_slice(&max_at.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    let index_offset = out.len() as u64;
    out.push(0x00);
    out.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for (offset, count, min_at, max_at) in index {
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&min_at.to_le_bytes());
        out.extend_from_slice(&max_at.to_le_bytes());
    }
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(b"FGBDIDX2");
    out
}

fn staged_capture(nodes: &[NodeMeta], records: &[MsgRecord], chunk: usize) -> Vec<u8> {
    let mut w = ChunkedWriter::with_chunk_records(Vec::new(), nodes, chunk).expect("header");
    for &r in records {
        w.push(r).expect("in order");
    }
    w.finish().expect("footer")
}

fn nodes() -> Vec<NodeMeta> {
    let node = |id, name: &str, kind, tier| NodeMeta {
        id: NodeId(id),
        name: name.into(),
        kind,
        tier,
    };
    vec![
        node(0, "clients", NodeKind::Client, None),
        node(1, "web-1", NodeKind::Server, Some(0)),
        node(7, "db-1", NodeKind::Server, Some(2)),
    ]
}

/// How a generated column draws its values.
#[derive(Debug, Clone, Copy)]
enum Values {
    Constant,
    /// From `0..k` (ties and small dictionaries).
    Few(u64),
    /// Every record distinct from `first` on: the dictionary passes its
    /// ceiling `DICT_MAX_ENTRIES - first` records later, mid-chunk.
    DistinctFrom(usize),
}

impl Values {
    fn draw(self, i: usize, seed: u64) -> u64 {
        match self {
            Values::Constant => seed,
            Values::Few(k) => seed.wrapping_mul(i as u64 + 1) % k,
            Values::DistinctFrom(first) if i >= first => (i - first) as u64 * 3 + 1_000,
            Values::DistinctFrom(_) => seed % 5,
        }
    }
}

fn values() -> impl Strategy<Value = Values> {
    (0u8..3, 1u64..40, 0usize..3_000).prop_map(|(which, k, first)| match which {
        0 => Values::Constant,
        1 => Values::Few(k),
        _ => Values::DistinctFrom(first),
    })
}

/// Truth on no record, on every record, or on some.
fn truth(mode: u8, i: usize, seed: u64) -> Option<TxnId> {
    let present = match mode {
        0 => false,
        1 => true,
        _ => (seed >> (i % 61)) & 1 == 1,
    };
    // Backwards steps too: the deltas are zigzag.
    present.then(|| {
        TxnId(
            (i as u64 / 2)
                .wrapping_add(seed % 7)
                .wrapping_sub(i as u64 % 3),
        )
    })
}

fn records(n: usize, cols: [Values; 3], truth_mode: u8, seed: u64) -> Vec<MsgRecord> {
    let mut at = 5_000u64;
    (0..n)
        .map(|i| {
            at += seed.wrapping_mul(i as u64 + 7) % 300 * u64::from(i % 4 != 0);
            MsgRecord {
                at: SimTime::from_micros(at),
                src: NodeId(cols[0].draw(i, seed) as u16),
                dst: NodeId((i % 3) as u16),
                kind: if i % 2 == 0 {
                    MsgKind::Request
                } else {
                    MsgKind::Response
                },
                conn: ConnId(cols[1].draw(i, seed) as u32),
                class: ClassId((seed % 4) as u16),
                bytes: cols[2].draw(i, seed.rotate_left(17)) as u32,
                truth: truth(truth_mode, i, seed),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The staged writer's bytes are the reference encoder's, chunk sizes
    /// from a record to more than the capture.
    #[test]
    fn staged_chunks_write_the_whole_chunk_encoders_bytes(
        n in 1usize..9_000,
        cols in (values(), values(), values()),
        truth_mode in 0u8..3,
        seed in 0u64..u64::MAX,
        chunk_div in 1usize..12,
    ) {
        let recs = records(n, [cols.0, cols.1, cols.2], truth_mode, seed);
        let chunk = n.div_ceil(chunk_div) + usize::from(chunk_div == 1);
        prop_assert_eq!(staged_capture(&nodes(), &recs, chunk), reference_capture(&nodes(), &recs, chunk));
    }
}

#[test]
fn every_chunk_size_up_to_the_capture_writes_the_reference_bytes() {
    let recs = records(
        67,
        [Values::Few(3), Values::DistinctFrom(20), Values::Constant],
        2,
        0x9E37_79B9,
    );
    for chunk in 1..=recs.len() + 1 {
        assert_eq!(
            staged_capture(&nodes(), &recs, chunk),
            reference_capture(&nodes(), &recs, chunk),
            "{chunk} records per chunk"
        );
    }
}

#[test]
fn a_column_that_passes_the_dictionary_ceiling_mid_chunk_goes_plain() {
    let distinct = DICT_MAX_ENTRIES + 1;
    let recs = records(
        distinct + 600,
        [Values::Constant, Values::DistinctFrom(600), Values::Few(2)],
        1,
        11,
    );
    // One chunk: the conn column's dictionary fills 4,096 records after
    // its first distinct value, with 600 records staged before that.
    let bytes = staged_capture(&nodes(), &recs, recs.len());
    assert_eq!(bytes, reference_capture(&nodes(), &recs, recs.len()));
    // ... and exactly at the ceiling it stays a dictionary.
    let at_ceiling = &recs[..DICT_MAX_ENTRIES - 1 + 600];
    assert_eq!(
        staged_capture(&nodes(), at_ceiling, at_ceiling.len()),
        reference_capture(&nodes(), at_ceiling, at_ceiling.len())
    );
}
