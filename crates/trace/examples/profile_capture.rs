//! Quick wall-clock comparison of the two chunk walkers on a 200k-record
//! fixture — the in-memory `ChunkCursor` at one thread and at the host's
//! decode width (`threads_from_env`), and the stream walker
//! `CaptureChunks` — plus
//! the encode; handy when tuning
//! `capture2` without a full benchmark run:
//!
//! ```bash
//! cargo run -p fgbd-trace --release --example profile_capture
//! ```

use std::time::Instant;

use fgbd_des::SimTime;
use fgbd_trace::capture2::threads_from_env;
use fgbd_trace::{
    CaptureChunks, ChunkCursor, ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta,
    TraceLog, TxnId,
};

fn fixture() -> TraceLog {
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
    for i in 0..200_000u64 {
        log.push(MsgRecord {
            at: SimTime::from_micros(i * 3),
            src: NodeId((i % 2) as u16),
            dst: NodeId(((i + 1) % 2) as u16),
            kind: if i % 2 == 0 {
                MsgKind::Request
            } else {
                MsgKind::Response
            },
            conn: ConnId((i % 512) as u32),
            class: ClassId((i % 24) as u16),
            bytes: 512,
            truth: Some(TxnId(i / 2)),
        });
    }
    log
}

fn time(label: &str, iters: u32, mut f: impl FnMut()) {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    println!(
        "{label:<24} {:>8.2} ms/iter",
        t.elapsed().as_secs_f64() * 1000.0 / f64::from(iters)
    );
}

/// Records yielded by the in-memory walker at `threads` decode width.
fn drain_cursor(bytes: &[u8], threads: usize) -> usize {
    let mut cursor = ChunkCursor::new(bytes).unwrap().with_threads(threads);
    let (mut n, mut chunk) = (0, Vec::new());
    while cursor.next_chunk(&mut chunk).unwrap() {
        n += std::hint::black_box(&chunk).len();
    }
    n
}

/// Records yielded by the stream walker.
fn drain_stream(bytes: &[u8]) -> usize {
    let chunks = CaptureChunks::open(bytes).unwrap();
    chunks.map(|c| std::hint::black_box(c.unwrap()).len()).sum()
}

fn main() {
    let log = fixture();
    let mut chunked = Vec::new();
    fgbd_trace::write_capture2(&mut chunked, &log).unwrap();
    let chunk_records: usize = std::env::var("PROFILE_CHUNK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if chunk_records > 0 {
        let mut buf = Vec::new();
        let mut w =
            fgbd_trace::ChunkedWriter::with_chunk_records(&mut buf, &log.nodes, chunk_records)
                .unwrap();
        for r in &log.records {
            w.push(*r).unwrap();
        }
        w.finish().unwrap();
        chunked = buf;
        println!("(re-encoded at {chunk_records} records/chunk)");
    }
    println!(
        "chunked {} B ({:.2} B/record)",
        chunked.len(),
        chunked.len() as f64 / log.records.len() as f64
    );
    let threads = threads_from_env();
    for _ in 0..3 {
        time("chunked stream read", 20, || {
            drain_stream(&chunked);
        });
        time("chunked cursor t1", 20, || {
            drain_cursor(&chunked, 1);
        });
        time(&format!("chunked cursor t{threads}"), 20, || {
            drain_cursor(&chunked, threads);
        });
        time("chunked write", 20, || {
            let mut buf = Vec::with_capacity(chunked.len());
            fgbd_trace::write_capture2(&mut buf, std::hint::black_box(&log)).unwrap();
            std::hint::black_box(buf);
        });
    }
}
