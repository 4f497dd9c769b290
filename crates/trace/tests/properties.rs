//! Property-based tests for span extraction and black-box reconstruction.

use std::collections::BTreeMap;

use fgbd_des::SimTime;
use fgbd_oracle::reconstruct as reference;
use fgbd_oracle::reconstruct::Accuracy;
use fgbd_trace::capture::{read_capture, CaptureError};
use fgbd_trace::capture2::{ChunkCursor, ChunkedWriter};
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::servicetime::{ServiceFold, ServiceTimeTable};
use fgbd_trace::span::OpenTable;
use fgbd_trace::Projection;
use fgbd_trace::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, SpanSet, TraceLog, TxnId,
};
use proptest::prelude::*;

const CLIENT: NodeId = NodeId(0);
const WEB: NodeId = NodeId(1);
const APP: NodeId = NodeId(2);
const DB: NodeId = NodeId(3);

fn nodes() -> Vec<NodeMeta> {
    vec![
        NodeMeta {
            id: CLIENT,
            name: "client".into(),
            kind: NodeKind::Client,
            tier: None,
        },
        NodeMeta {
            id: WEB,
            name: "web".into(),
            kind: NodeKind::Server,
            tier: Some(0),
        },
        NodeMeta {
            id: APP,
            name: "app".into(),
            kind: NodeKind::Server,
            tier: Some(1),
        },
    ]
}

/// Builds a log of fully serial transactions (one at a time) from random
/// shape parameters: per txn, a web span containing `calls` app spans.
fn serial_log(shapes: &[(u8, u16)]) -> TraceLog {
    let mut log = TraceLog::new(nodes());
    let mut t = 0u64;
    for (i, &(calls, class)) in shapes.iter().enumerate() {
        let txn = TxnId(i as u64);
        let conn = ConnId(10);
        let mk = |at: u64, src: NodeId, dst: NodeId, kind: MsgKind, conn: ConnId, class: u16| {
            MsgRecord {
                at: SimTime::from_micros(at),
                src,
                dst,
                kind,
                conn,
                class: ClassId(class),
                bytes: 100,
                truth: Some(txn),
            }
        };
        log.push(mk(t, CLIENT, WEB, MsgKind::Request, conn, class));
        t += 5;
        for _ in 0..calls {
            let cc = ConnId(100);
            log.push(mk(t, WEB, APP, MsgKind::Request, cc, class));
            t += 7;
            log.push(mk(t, APP, WEB, MsgKind::Response, cc, class));
            t += 3;
        }
        log.push(mk(t, WEB, CLIENT, MsgKind::Response, conn, class));
        t += 11;
    }
    log
}

proptest! {
    /// Span extraction conserves messages: every request/response pair
    /// becomes exactly one span; span count equals response count.
    #[test]
    fn extraction_conserves_pairs(shapes in prop::collection::vec((0u8..6, 0u16..4), 1..30)) {
        let log = serial_log(&shapes);
        let spans = SpanSet::extract(&log);
        let responses = log
            .records
            .iter()
            .filter(|r| r.kind == MsgKind::Response)
            .count();
        prop_assert_eq!(spans.len(), responses);
        prop_assert!(spans.unmatched.is_empty());
        // Every span is causally ordered and attributed to a server node.
        for node in spans.servers() {
            for s in spans.server(node) {
                prop_assert!(s.departure > s.arrival);
            }
        }
    }

    /// Serial transactions reconstruct perfectly.
    #[test]
    fn serial_reconstruction_is_exact(shapes in prop::collection::vec((0u8..6, 0u16..4), 1..25)) {
        let log = serial_log(&shapes);
        let rec = Reconstruction::run(&log, Heuristic::ProfileGuided);
        prop_assert_eq!(rec.txns.len(), shapes.len());
        let acc = Accuracy::evaluate(&rec);
        prop_assert_eq!(acc.edge_accuracy, 1.0);
        prop_assert_eq!(acc.txn_accuracy, 1.0);
    }

    /// Reconstruction decisions are identical on the blinded capture —
    /// ground truth can never leak into attribution.
    #[test]
    fn attribution_is_truth_blind(shapes in prop::collection::vec((0u8..5, 0u16..3), 1..15)) {
        let log = serial_log(&shapes);
        let a = Reconstruction::run(&log, Heuristic::ProfileGuided);
        let b = Reconstruction::run(&log.blinded(), Heuristic::ProfileGuided);
        let pa: Vec<Option<usize>> = a.spans.iter().map(|s| s.parent).collect();
        let pb: Vec<Option<usize>> = b.spans.iter().map(|s| s.parent).collect();
        prop_assert_eq!(pa, pb);
    }

    /// Every reconstructed span's root is a fixed point of the parent
    /// chain, and txn membership is consistent.
    #[test]
    fn parent_chains_terminate_at_roots(shapes in prop::collection::vec((0u8..6, 0u16..4), 1..20)) {
        let log = serial_log(&shapes);
        let rec = Reconstruction::run(&log, Heuristic::ProfileGuided);
        for (i, s) in rec.spans.iter().enumerate() {
            // Walk the chain to a root.
            let mut cur = i;
            let mut hops = 0;
            while let Some(p) = rec.spans[cur].parent {
                cur = p;
                hops += 1;
                prop_assert!(hops <= rec.spans.len(), "parent cycle at span {}", i);
            }
            prop_assert_eq!(cur, s.root);
        }
        for (t, txn) in rec.txns.iter().enumerate() {
            let _ = t;
            for &m in &txn.spans {
                prop_assert_eq!(rec.spans[m].root, txn.root);
            }
        }
    }
}

fn nodes4() -> Vec<NodeMeta> {
    let mut n = nodes();
    n.push(NodeMeta {
        id: DB,
        name: "db".into(),
        kind: NodeKind::Server,
        tier: Some(2),
    });
    n
}

/// Encodes a log in the chunked columnar format (`FGBDCAP2`) with an
/// explicit records-per-chunk bound, returning the raw bytes.
fn chunked_bytes(log: &TraceLog, chunk_records: usize) -> Vec<u8> {
    let mut w = ChunkedWriter::with_chunk_records(Vec::new(), &log.nodes, chunk_records)
        .expect("open chunked writer");
    for &r in &log.records {
        w.push(r).expect("push record");
    }
    w.finish().expect("finish chunked capture")
}

/// A capture collected through the in-memory walker at `threads` decode
/// width; the first chunk error ends it.
fn cursor_log(bytes: &[u8], threads: usize) -> Result<TraceLog, CaptureError> {
    let mut cursor = ChunkCursor::new(bytes)?.with_threads(threads);
    let mut log = TraceLog::new(cursor.nodes().to_vec());
    let mut chunk = Vec::new();
    while cursor.next_chunk(&mut chunk)? {
        log.records.extend_from_slice(&chunk);
    }
    Ok(log)
}

/// Builds a log of *interleaved* multi-tier transactions from random shape
/// parameters: per txn `(calls, class, start, spacing)`, a web span issuing
/// `calls` app calls (odd classes also fan out app→db), all overlapping in
/// time and sharing small connection pools, then truncated at both ends —
/// concurrency, FIFO conn reuse, orphan calls, and orphan responses in one
/// generator.
fn interleaved_log(shapes: &[(u8, u16, u64, u64)], drop_head: usize, drop_tail: usize) -> TraceLog {
    let mk = |at: u64, src: NodeId, dst: NodeId, kind: MsgKind, conn: u32, class: u16, txn: u64| {
        MsgRecord {
            at: SimTime::from_micros(at),
            src,
            dst,
            kind,
            conn: ConnId(conn),
            class: ClassId(class),
            bytes: 100,
            truth: Some(TxnId(txn)),
        }
    };
    let mut evs: Vec<MsgRecord> = Vec::new();
    for (i, &(calls, class, start, spacing)) in shapes.iter().enumerate() {
        let txn = i as u64;
        let cc = (i % 4) as u32;
        evs.push(mk(start, CLIENT, WEB, MsgKind::Request, cc, class, txn));
        let mut t = start + 2;
        for k in 0..u64::from(calls) {
            let ac = 100 + ((i as u64 + k) % 5) as u32;
            evs.push(mk(t, WEB, APP, MsgKind::Request, ac, class, txn));
            if class % 2 == 1 {
                let dc = 200 + ((i as u64 + k) % 3) as u32;
                evs.push(mk(t + 1, APP, DB, MsgKind::Request, dc, class, txn));
                evs.push(mk(
                    t + spacing - 1,
                    DB,
                    APP,
                    MsgKind::Response,
                    dc,
                    class,
                    txn,
                ));
            }
            evs.push(mk(t + spacing, APP, WEB, MsgKind::Response, ac, class, txn));
            t += spacing + 2;
        }
        evs.push(mk(t + 3, WEB, CLIENT, MsgKind::Response, cc, class, txn));
    }
    evs.sort_by_key(|r| r.at);
    let lo = drop_head.min(evs.len());
    let hi = evs.len().saturating_sub(drop_tail).max(lo);
    let mut log = TraceLog::new(nodes4());
    for r in &evs[lo..hi] {
        log.push(*r);
    }
    log
}

/// Adversarial "record soup" from `(dt, srcdst, is_resp, conn, class)`
/// steps: arbitrary src/dst pairs (including node ids absent from the node
/// table), arbitrary request/response interleavings, colliding connection
/// ids. Time steps are mostly zero or small and, in `backwards` soups,
/// sometimes negative; node 0 is a server in `no_client` soups.
fn soup_log(soup: &[(u64, u16, bool, u32, u16)], backwards: bool, no_client: bool) -> TraceLog {
    let mut all = nodes();
    if no_client {
        all[0].kind = NodeKind::Server;
    }
    let mut log = TraceLog::new(all);
    let mut t = 100u64;
    for &(dt, srcdst, is_resp, conn, class) in soup {
        // dt 0..3 repeats the instant, 3 steps back (when allowed).
        t = match dt {
            0..=2 => t,
            3 if backwards => t.saturating_sub(1),
            _ => t + dt - 3,
        };
        // Straight into `records`: `push` debug-asserts time order.
        log.records.push(MsgRecord {
            at: SimTime::from_micros(t),
            src: NodeId(srcdst % 6),
            dst: NodeId(srcdst / 6),
            kind: if is_resp {
                MsgKind::Response
            } else {
                MsgKind::Request
            },
            conn: ConnId(conn),
            class: ClassId(class),
            bytes: 10,
            truth: None,
        });
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The oracle for the table consumer: on randomized interleaved
    /// multi-tier logs — varying concurrency, shared connections, truncated
    /// captures with orphan calls and orphan responses —
    /// [`Reconstruction::run`] produces span-for-span, txn-for-txn identical
    /// output to [`fgbd_oracle::reconstruct::run`] under the same rule.
    #[test]
    fn reconstruct_fast_matches_reference(
        shapes in prop::collection::vec((0u8..5, 0u16..4, 0u64..400, 2u64..10), 1..25),
        drops in (0usize..6, 0usize..6),
    ) {
        let log = interleaved_log(&shapes, drops.0, drops.1);
        let fast = Reconstruction::run(&log, Heuristic::ProfileGuided);
        let spec = reference::run(&log, reference::Heuristic::ProfileGuided);
        prop_assert_eq!(&fast.spans, &spec.spans);
        prop_assert_eq!(&fast.txns, &spec.txns);
    }

    /// Same oracle on adversarial "record soup": arbitrary src/dst pairs
    /// (including node ids absent from the node table), arbitrary
    /// request/response interleavings, and colliding connection ids. The
    /// fast path must agree with the reference even on captures with no
    /// transactional structure at all. Time steps are mostly zero or small
    /// (runs of equal timestamps across re-links: the early exit must walk
    /// ties through) and, in `backwards` soups, sometimes negative (the
    /// sortedness latch); node 0 is a server in `no_client` soups, so every
    /// server is a call source, the everyone-blocked fallback is reachable
    /// from all of them and parents hold several outstanding calls (a
    /// response then finds its parent already linked).
    #[test]
    fn reconstruct_fast_matches_reference_on_record_soup(
        soup in prop::collection::vec(
            (0u64..6, 0u16..36, prop::bool::ANY, 0u32..6, 0u16..3),
            1..120,
        ),
        backwards in prop::bool::ANY,
        no_client in prop::bool::ANY,
    ) {
        let log = soup_log(&soup, backwards, no_client);
        let fast = Reconstruction::run(&log, Heuristic::ProfileGuided);
        let spec = reference::run(&log, reference::Heuristic::ProfileGuided);
        prop_assert_eq!(&fast.spans, &spec.spans);
        prop_assert_eq!(&fast.txns, &spec.txns);
    }

    /// The service-time fold against its oracle, on the same soup: the
    /// table [`ServiceFold`] streams out equals
    /// [`ServiceTimeTable::approximate`] over the materialized
    /// reconstruction, and a windowed fold equals
    /// [`fgbd_oracle::reconstruct::approximate_window`] over the same
    /// window, key for key and bit for bit, at the minimum, the
    /// calibration quantile, the median and the maximum. Parents here hold
    /// several calls at once, lose their response before a child's, or
    /// never see a child close — each a different way for a sample to be
    /// emitted late or summed out of order. A response stamped before its
    /// request overflows the oracle's subtraction in a debug build; those
    /// soups are rejected.
    #[test]
    fn service_fold_matches_approximate(
        soup in prop::collection::vec(
            (0u64..6, 0u16..36, prop::bool::ANY, 0u32..6, 0u16..3),
            1..120,
        ),
        backwards in prop::bool::ANY,
        no_client in prop::bool::ANY,
        cut in 0usize..8,
        window in (0u64..200, 0u64..200),
    ) {
        let mut log = soup_log(&soup, backwards, no_client);
        log.records.truncate(log.records.len().saturating_sub(cut).max(1));
        let rec = Reconstruction::run(&log, Heuristic::ProfileGuided);
        prop_assume!(rec.spans.iter().all(|s| s.departure.is_none_or(|d| d >= s.arrival)));
        let from = SimTime::from_micros(100 + window.0);
        let to = SimTime::from_micros(100 + window.0 + window.1);
        let folded = |mut fold: ServiceFold, q| {
            log.records.iter().for_each(|r| fold.push(r));
            fold.finish(q)
        };
        for q in [0.0, 0.15, 0.5, 1.0] {
            let fold = folded(ServiceFold::new(&log.nodes), q);
            let spec = ServiceTimeTable::approximate(&rec, q);
            prop_assert_eq!(fold.len(), spec.len());
            for s in 0..6 {
                for c in 0..3 {
                    let at = |t: &ServiceTimeTable| t.get_secs(NodeId(s), ClassId(c)).map(f64::to_bits);
                    prop_assert_eq!(at(&fold), at(&spec), "q={} ({}, {})", q, s, c);
                }
            }
            let fold = folded(ServiceFold::new(&log.nodes).with_window(from, to), q);
            let spec = reference::approximate_window(&rec, q, from, to);
            prop_assert_eq!(fold.len(), spec.len());
            for (&(s, c), &secs) in &spec {
                prop_assert_eq!(fold.get_secs(s, c).map(f64::to_bits), Some(secs.to_bits()), "q={} window", q);
            }
        }
    }
}

proptest! {
    /// The batch extractor ([`SpanSet::extract`]) produces output
    /// identical to the `HashMap`-keyed reference on adversarial record
    /// soup: arbitrary interleavings, unknown node ids, colliding
    /// connections, truncation at both ends, same-microsecond arrivals
    /// (`dt == 0`: equal keys, which must keep response order) and, one
    /// step in eight, time running backwards.
    #[test]
    fn extract_fast_matches_reference(
        soup in prop::collection::vec(
            (0u64..3, 0u8..8, 0u16..16, prop::bool::ANY, 0u32..3, 0u16..3),
            1..160,
        ),
    ) {
        let mut log = TraceLog::new(nodes());
        let mut t = 10u64;
        for (i, &(dt, back, srcdst, is_resp, conn, class)) in soup.iter().enumerate() {
            t = if back == 0 { t.saturating_sub(dt) } else { t + dt };
            // Not `TraceLog::push`: it asserts the order this soup breaks.
            log.records.push(MsgRecord {
                at: SimTime::from_micros(t),
                src: NodeId(srcdst % 4),
                dst: NodeId(srcdst / 4),
                kind: if is_resp { MsgKind::Response } else { MsgKind::Request },
                conn: ConnId(conn),
                class: ClassId(class),
                bytes: 10,
                truth: if is_resp { None } else { Some(TxnId(i as u64)) },
            });
        }
        let fast = SpanSet::extract(&log);
        let (spec, spec_unmatched) = fgbd_oracle::span::extract(&log);
        prop_assert_eq!(fast.servers(), spec.keys().copied().collect::<Vec<_>>());
        for s in fast.servers() {
            prop_assert_eq!(fast.server(s), &spec[&s][..]);
        }
        prop_assert_eq!(&fast.unmatched, &spec_unmatched);
        prop_assert_eq!(fast.len(), spec.values().map(Vec::len).sum::<usize>());
    }

    /// [`OpenTable`] against a brute-force model — a map from each busy
    /// connection to its one open request — under random opens, closes and
    /// duplicate responses over a few connections, with time going forwards
    /// and backwards: an open on a busy connection evicts the older request
    /// (counted by `lost`) and returns its payload, `close` answers the
    /// request on the connection, `payloads` walks everything open in
    /// arrival order (equal arrivals in open order), `min_open` is its
    /// minimum, `len` counts it.
    #[test]
    fn open_table_matches_brute_force_model(
        ops in prop::collection::vec((prop::bool::ANY, 0u32..4, 0u64..5, prop::bool::ANY), 1..200),
    ) {
        let mut table = OpenTable::default();
        let mut model: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
        let mut evicted = 0u64;
        let mut t = 50u64;
        for (i, &(is_open, conn, dt, back)) in ops.iter().enumerate() {
            t = if back { t.saturating_sub(dt) } else { t + dt };
            if is_open {
                let displaced =
                    table.open(ConnId(conn), SimTime::from_micros(t), ClassId(conn as u16), i);
                let older = model.insert(conn, (t, i));
                evicted += u64::from(older.is_some());
                prop_assert_eq!(displaced, older.map(|(_, payload)| payload));
            } else {
                let expect = model.remove(&conn).map(|(at, payload)| (conn, at, payload));
                let got = table
                    .close(ConnId(conn))
                    .map(|(at, class, payload)| (class.0 as u32, at.as_micros(), payload));
                prop_assert_eq!(got, expect);
            }
            // Payloads grow with the op index, so sorting orders equal
            // arrivals as they opened.
            let mut open: Vec<(u64, usize)> = model.values().copied().collect();
            open.sort_unstable();
            let payloads: Vec<usize> = open.iter().map(|&(_, payload)| payload).collect();
            prop_assert_eq!(table.payloads().collect::<Vec<_>>(), payloads);
            let min = open.first().map(|&(at, _)| SimTime::from_micros(at));
            prop_assert_eq!(table.min_open(), min);
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            prop_assert_eq!(table.lost(), evicted);
        }
    }

    /// The chunked columnar format (`FGBDCAP2`) is a lossless roundtrip:
    /// both walkers — the in-memory cursor at 1–4 decode threads and the
    /// stream walker — decode chunked(log) to the source log itself at
    /// every chunk size.
    #[test]
    fn chunked_capture_matches_flat_roundtrip(
        shapes in prop::collection::vec((0u8..5, 0u16..4, 0u64..400, 2u64..10), 0..20),
        chunk in 1usize..48,
        threads in 1usize..5,
    ) {
        let log = interleaved_log(&shapes, 0, 0);
        let chunked = chunked_bytes(&log, chunk);
        let seq = read_capture(chunked.as_slice()).expect("read chunked");
        let par = cursor_log(&chunked, threads).expect("read chunked through the cursor");
        prop_assert_eq!(&seq.nodes, &log.nodes);
        prop_assert_eq!(&seq.records, &log.records);
        prop_assert_eq!(&par.nodes, &log.nodes);
        prop_assert_eq!(&par.records, &log.records);
    }

    /// Any truncation of a chunked capture is rejected by both walkers,
    /// never silently mis-decoded.
    #[test]
    fn chunked_truncation_always_detected(
        shapes in prop::collection::vec((0u8..4, 0u16..3, 0u64..200, 2u64..8), 1..8),
        chunk in 1usize..16,
        frac in 0.0f64..1.0,
    ) {
        let log = interleaved_log(&shapes, 0, 0);
        let buf = chunked_bytes(&log, chunk);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        prop_assert!(read_capture(&buf[..cut]).is_err());
        prop_assert!(cursor_log(&buf[..cut], 2).is_err());
    }

    /// A single-byte flip inside a chunk *payload* is attributed to exactly
    /// that chunk by index by both walkers — the per-chunk checksum
    /// contract.
    #[test]
    fn chunked_corruption_names_the_chunk(
        shapes in prop::collection::vec((0u8..4, 0u16..3, 0u64..200, 2u64..8), 2..8),
        chunk in 1usize..8,
        pick in (0usize..1 << 16, 0usize..1 << 16),
    ) {
        let log = interleaved_log(&shapes, 0, 0);
        let mut buf = chunked_bytes(&log, chunk);
        // Walk the public footer layout to the chunk table: trailer is
        // `index_offset u64 + magic`, footer body is `tag u8 + n u32 +
        // n × {offset u64, count u32, min u64, max u64}`.
        let trailer = buf.len() - 16;
        let index_offset =
            u64::from_le_bytes(buf[trailer..trailer + 8].try_into().unwrap()) as usize;
        let n_chunks =
            u32::from_le_bytes(buf[index_offset + 1..index_offset + 5].try_into().unwrap())
                as usize;
        prop_assert!(n_chunks >= 1);
        let victim = pick.0 % n_chunks;
        let entry = index_offset + 5 + victim * 28;
        let chunk_off =
            u64::from_le_bytes(buf[entry..entry + 8].try_into().unwrap()) as usize;
        let byte_len =
            u32::from_le_bytes(buf[chunk_off + 21..chunk_off + 25].try_into().unwrap())
                as usize;
        let flip = chunk_off + 33 + pick.1 % byte_len;
        buf[flip] ^= 0x5A;
        for got in [cursor_log(&buf, 2), read_capture(buf.as_slice())] {
            match got {
                Err(CaptureError::Chunk { index, .. }) => {
                    prop_assert_eq!(index as usize, victim);
                }
                Err(other) => prop_assert!(false, "expected chunk {} error, got {}", victim, other),
                Ok(_) => prop_assert!(false, "payload corruption went undetected"),
            }
        }
    }

    /// The lazy chunk cursor is a pure restriction of the full decode:
    /// under any projection, any chunk size (empty captures, single-chunk
    /// captures, and trailing partial chunks included) and any decode
    /// width, the records it yields are the fully decoded records with
    /// the unprojected columns zeroed.
    #[test]
    fn cursor_projected_range_decode_is_a_restriction_of_the_full_decode(
        shapes in prop::collection::vec((0u8..5, 0u16..4, 0u64..400, 2u64..10), 0..15),
        chunk in 1usize..48,
        threads in 1usize..4,
        project in prop::bool::ANY,
    ) {
        let log = interleaved_log(&shapes, 0, 0);
        let buf = chunked_bytes(&log, chunk);
        let proj = if project { Projection::DETECT } else { Projection::ALL };

        let mut cursor = ChunkCursor::new(&buf)
            .expect("open cursor")
            .with_projection(proj)
            .with_threads(threads);
        let mut drained = Vec::new();
        let mut buf_chunk = Vec::new();
        while cursor.next_chunk(&mut buf_chunk).expect("decode chunk") {
            drained.extend_from_slice(&buf_chunk);
        }

        let projected: Vec<MsgRecord> = log
            .records
            .iter()
            .map(|r| MsgRecord {
                bytes: if proj.bytes { r.bytes } else { 0 },
                truth: if proj.truth { r.truth } else { None },
                ..*r
            })
            .collect();
        prop_assert_eq!(drained, projected);
    }

    /// Single-byte chunk-payload corruption survives the mmap path: a
    /// cursor over a [`Mapping`] of the damaged file names exactly the
    /// flipped chunk (under full and projected decode alike — the
    /// checksum covers skipped columns too) and resumes with every other
    /// chunk decoded intact.
    #[test]
    fn cursor_over_a_mapping_attributes_corruption_and_resumes(
        shapes in prop::collection::vec((0u8..4, 0u16..3, 0u64..200, 2u64..8), 2..8),
        chunk in 1usize..8,
        pick in (0usize..1 << 16, 0usize..1 << 16),
        project in prop::bool::ANY,
    ) {
        let log = interleaved_log(&shapes, 0, 0);
        let mut buf = chunked_bytes(&log, chunk);
        // Same footer walk as `chunked_corruption_names_the_chunk`.
        let trailer = buf.len() - 16;
        let index_offset =
            u64::from_le_bytes(buf[trailer..trailer + 8].try_into().unwrap()) as usize;
        let n_chunks =
            u32::from_le_bytes(buf[index_offset + 1..index_offset + 5].try_into().unwrap())
                as usize;
        prop_assert!(n_chunks >= 1);
        let victim = pick.0 % n_chunks;
        let entry = index_offset + 5 + victim * 28;
        let chunk_off =
            u64::from_le_bytes(buf[entry..entry + 8].try_into().unwrap()) as usize;
        let byte_len =
            u32::from_le_bytes(buf[chunk_off + 21..chunk_off + 25].try_into().unwrap())
                as usize;
        buf[chunk_off + 33 + pick.1 % byte_len] ^= 0x5A;

        // Through a real file and a real mapping, like `analyze_capture`.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "fgbd_prop_cursor_{}_{}.fgbdcap",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::write(&path, &buf).expect("write capture file");
        let map = Mapping::open(&path).expect("map capture file");

        let proj = if project { Projection::DETECT } else { Projection::ALL };
        let mut cursor = ChunkCursor::new(&map)
            .expect("open cursor")
            .with_projection(proj);
        let mut good = 0usize;
        let mut bad = Vec::new();
        let mut out = Vec::new();
        for i in 0..n_chunks {
            match cursor.next_chunk(&mut out) {
                Ok(true) => good += 1,
                Ok(false) => {
                    prop_assert!(false, "cursor ended early at chunk {}", i);
                }
                Err(CaptureError::Chunk { index, .. }) => bad.push(index as usize),
                Err(other) => {
                    prop_assert!(false, "expected chunk error, got {}", other);
                }
            }
        }
        prop_assert!(!cursor.next_chunk(&mut out).expect("clean end"));
        drop(cursor);
        drop(map);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(bad, vec![victim]);
        prop_assert!(good > 0 || n_chunks == 1);
    }
}

/// Same-microsecond arrivals at one server: the specification orders them
/// by `(departure, response order)`, and the extractor's stable sort of
/// spans pushed in response order must give the same — including a span
/// answered before the next request came and a run with a never-answered
/// request in the middle.
#[test]
fn equal_arrivals_keep_the_reference_order() {
    use MsgKind::{Request as Q, Response as R};
    // (at, kind, conn); the transaction id is the record's position.
    let cases: [&[(u64, MsgKind, u32)]; 5] = [
        // A answered before B arrives, all in one microsecond.
        &[(7, Q, 1), (7, R, 1), (7, Q, 2), (7, R, 2)],
        // Answered in request order, then in reverse, at one instant.
        &[(7, Q, 1), (7, Q, 2), (9, R, 1), (9, R, 2)],
        &[(7, Q, 1), (7, Q, 2), (9, R, 2), (9, R, 1)],
        // The later response carries the earlier departure stamp.
        &[(7, Q, 1), (7, R, 1), (7, Q, 2), (6, R, 2)],
        // B never answered; C overtakes A.
        &[
            (5, Q, 4),
            (7, Q, 1),
            (7, Q, 2),
            (7, Q, 3),
            (8, R, 3),
            (9, R, 1),
            (9, R, 4),
        ],
    ];
    for case in cases {
        let mut log = TraceLog::new(nodes());
        for (i, &(at, kind, conn)) in case.iter().enumerate() {
            let (src, dst) = if kind == Q {
                (CLIENT, WEB)
            } else {
                (WEB, CLIENT)
            };
            log.records.push(MsgRecord {
                at: SimTime::from_micros(at),
                src,
                dst,
                kind,
                conn: ConnId(conn),
                class: ClassId(0),
                bytes: 10,
                truth: Some(TxnId(i as u64)),
            });
        }
        let fast = SpanSet::extract(&log);
        let (spec, spec_unmatched) = fgbd_oracle::span::extract(&log);
        let spec_web = spec.get(&WEB).map_or(&[][..], Vec::as_slice);
        assert_eq!(fast.server(WEB), spec_web, "{case:?}");
        assert_eq!(fast.unmatched, spec_unmatched, "{case:?}");
    }
}
