//! `FGBDCAP1` import: flat captures written by the oracle's fixture writer
//! read back through the stream walker, whole and damaged.

use fgbd_des::SimTime;
use fgbd_oracle::capture::write_capture;
use fgbd_trace::capture::{read_capture, CaptureError};
use fgbd_trace::capture2::{write_capture2, CaptureChunks, ChunkedWriter};
use fgbd_trace::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId,
};

fn sample_log(n: u64) -> TraceLog {
    let mut log = TraceLog::new(vec![
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
    ]);
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

fn flat(log: &TraceLog) -> Vec<u8> {
    let mut buf = Vec::new();
    write_capture(&mut buf, log).expect("write FGBDCAP1");
    buf
}

#[test]
fn roundtrip_preserves_everything() {
    let log = sample_log(100);
    let back = read_capture(flat(&log).as_slice()).expect("read");
    assert_eq!(back.nodes, log.nodes);
    assert_eq!(back.records, log.records);
}

#[test]
fn empty_log_roundtrips() {
    let log = TraceLog::new(vec![]);
    let back = read_capture(flat(&log).as_slice()).expect("read");
    assert!(back.nodes.is_empty());
    assert!(back.records.is_empty());
}

#[test]
fn truncation_is_detected() {
    let buf = flat(&sample_log(100));
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
    let log = sample_log(100);
    let mut buf = flat(&log);
    // The first record's kind byte: 8 magic + 4 node count + the node
    // table, then the 8-byte record count and the record's at/src/dst.
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
fn chunk_iterator_reads_both_formats() {
    let log = sample_log(200);
    let mut v2 = Vec::new();
    let mut w = ChunkedWriter::with_chunk_records(&mut v2, &log.nodes, 64).unwrap();
    for &r in &log.records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    for (bytes, format) in [(flat(&log), 1), (v2, 2)] {
        let it = CaptureChunks::open(bytes.as_slice()).unwrap();
        assert_eq!(it.format(), format);
        assert_eq!(it.nodes(), log.nodes.as_slice());
        let records: Vec<MsgRecord> = it.flat_map(|c| c.unwrap()).collect();
        assert_eq!(records, log.records);
    }
}

#[test]
fn chunked_is_smaller_than_flat() {
    let log = sample_log(10_000);
    let v1 = flat(&log);
    let mut v2 = Vec::new();
    write_capture2(&mut v2, &log).unwrap();
    assert!(
        (v2.len() as f64) <= 0.7 * (v1.len() as f64),
        "chunked {} bytes vs flat {} bytes",
        v2.len(),
        v1.len()
    );
}
