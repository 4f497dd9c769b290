//! Criterion benchmarks of the zero-copy capture path: the lazy chunk
//! cursor against the batch `FGBDCAP2` reader on the same 200k-record
//! fixture, isolating column projection (skip the `bytes` and
//! ground-truth columns detection never reads), plus the full mmap-backed
//! pass `analyze_capture` runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fgbd_des::SimTime;
use fgbd_trace::capture2::ChunkCursor;
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::{
    read_capture2_parallel, write_capture2, ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind,
    NodeMeta, Projection, TraceLog, TxnId,
};

/// The `capture_format` 200k-record fixture, rebuilt here so the two
/// groups stay independently runnable.
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

/// Drains a cursor, returning the total record count (the consumer work
/// the analysis pipeline would do, minus the detector).
fn drain(mut cursor: ChunkCursor<'_>) -> usize {
    let mut total = 0;
    let mut buf = Vec::new();
    while cursor.next_chunk(&mut buf).expect("decode chunk") {
        total += buf.len();
    }
    total
}

fn bench_cursor(c: &mut Criterion) {
    let log = fixture();
    let mut chunked = Vec::new();
    write_capture2(&mut chunked, &log).expect("encode chunked");
    let path =
        std::env::temp_dir().join(format!("fgbd_bench_cursor_{}.fgbdcap", std::process::id()));
    std::fs::write(&path, &chunked).expect("write capture file");
    let map = Mapping::open(&path).expect("map capture file");

    let mut group = c.benchmark_group("capture_cursor");
    group.throughput(criterion::Throughput::Bytes(chunked.len() as u64));
    // Reference: the batch reader materializing the whole TraceLog.
    group.bench_function("batch_read_200k", |b| {
        b.iter(|| read_capture2_parallel(black_box(chunked.as_slice()), 1).expect("decode"));
    });
    // The cursor decoding every column — same work, chunk at a time.
    group.bench_function("cursor_full_200k", |b| {
        b.iter(|| drain(ChunkCursor::new(black_box(chunked.as_slice())).expect("open")));
    });
    // Column projection: bytes + truth skipped, the detection profile.
    group.bench_function("cursor_projected_200k", |b| {
        b.iter(|| {
            drain(
                ChunkCursor::new(black_box(chunked.as_slice()))
                    .expect("open")
                    .with_projection(Projection::DETECT),
            )
        });
    });
    // The real zero-copy read: projected cursor over the mmap'd file.
    group.bench_function("mmap_cursor_projected_200k", |b| {
        b.iter(|| {
            drain(
                ChunkCursor::new(black_box(&map))
                    .expect("open")
                    .with_projection(Projection::DETECT),
            )
        });
    });
    group.finish();
    drop(map);
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_cursor);
criterion_main!(benches);
