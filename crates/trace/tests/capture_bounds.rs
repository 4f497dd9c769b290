//! Headers are untrusted: a count or length a capture claims sizes no
//! allocation. Chunk headers and the footer index sit outside the chunk
//! checksum, so a patched count must be rejected as malformed, not
//! honoured by a reservation that aborts the process.
//!
//! One test in its own binary: the gauge counts the whole process, so no
//! other test may allocate while it measures.

use std::path::PathBuf;

use fgbd_des::SimTime;
use fgbd_oracle::alloc::AllocGauge;
use fgbd_trace::capture::{read_capture, read_capture_file, CaptureError};
use fgbd_trace::capture2::{write_capture2, CaptureChunks, ChunkCursor};
use fgbd_trace::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog};

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

/// What a rejected input may allocate on its way to the error.
const BUDGET: u64 = 4 << 20;

fn one_record_log() -> TraceLog {
    let mut log = TraceLog::new(vec![NodeMeta {
        id: NodeId(1),
        name: "web-1".into(),
        kind: NodeKind::Server,
        tier: Some(0),
    }]);
    log.push(MsgRecord {
        at: SimTime::from_micros(5),
        src: NodeId(0),
        dst: NodeId(1),
        kind: MsgKind::Request,
        conn: ConnId(3),
        class: ClassId(0),
        bytes: 100,
        truth: None,
    });
    log
}

fn patch(buf: &mut [u8], at: usize, bytes: &[u8]) {
    buf[at..at + bytes.len()].copy_from_slice(bytes);
}

/// Runs `read` on a damaged input: it must fail, within [`BUDGET`].
fn rejects<T>(what: &str, read: impl FnOnce() -> Result<T, CaptureError>) -> CaptureError {
    let base = GLOBAL.live_bytes();
    GLOBAL.reset_peak();
    let got = read();
    let peak = GLOBAL.peak_bytes().saturating_sub(base);
    assert!(peak < BUDGET, "{what}: peaked at {peak} bytes");
    match got {
        Ok(_) => panic!("{what}: damaged capture accepted"),
        Err(e) => e,
    }
}

/// Every reader of a file: both walkers, both whole-log readers.
fn all_readers_reject(name: &str, bytes: &[u8]) -> Vec<CaptureError> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "fgbd_capture_bounds_{name}_{}.fgbdcap",
        std::process::id()
    ));
    std::fs::write(&path, bytes).expect("write capture file");
    let mut errors = Vec::new();
    for threads in [1, 2] {
        errors.push(rejects(&format!("{name}: cursor at {threads}"), || {
            let mut cursor = ChunkCursor::new(bytes)?.with_threads(threads);
            cursor.next_chunk(&mut Vec::new())
        }));
    }
    errors.push(rejects(&format!("{name}: stream"), || {
        CaptureChunks::open(bytes)?.try_for_each(|c| c.map(drop))
    }));
    errors.push(rejects(&format!("{name}: read_capture"), || {
        read_capture(bytes)
    }));
    errors.push(rejects(&format!("{name}: read_capture_file"), || {
        read_capture_file(&path)
    }));
    std::fs::remove_file(&path).ok();
    errors
}

#[test]
fn claimed_counts_and_lengths_size_no_allocation() {
    let log = one_record_log();
    let mut v2 = Vec::new();
    write_capture2(&mut v2, &log).expect("write FGBDCAP2");
    // magic + node table (count, then id/kind/tier/name_len/name).
    let chunk = 8 + 4 + 2 + 1 + 1 + 2 + "web-1".len();
    assert_eq!(v2[chunk], 0x01, "first chunk tag");
    // The trailer points at the footer; its one entry is {offset, count, ..}.
    let footer = u64::from_le_bytes(v2[v2.len() - 16..v2.len() - 8].try_into().unwrap());
    let entry = footer as usize + 1 + 4;

    // A valid one-record chunk whose header and index both claim
    // u32::MAX records: no walker may reserve for them.
    let mut counted = v2.clone();
    patch(&mut counted, chunk + 1, &u32::MAX.to_le_bytes());
    patch(&mut counted, entry + 8, &u32::MAX.to_le_bytes());
    let errors = all_readers_reject("count", &counted);
    for e in &errors {
        assert!(
            matches!(e, CaptureError::Chunk { index: 0, .. }),
            "count: {e}"
        );
    }

    // A stream chunk claiming a u32::MAX-byte payload over a 10-byte tail.
    let mut long = v2[..chunk + 33 + 10].to_vec();
    patch(&mut long, chunk + 21, &u32::MAX.to_le_bytes());
    let stream = rejects("long: stream", || read_capture(long.as_slice()));
    assert!(
        matches!(
            stream,
            CaptureError::Chunk {
                index: 0,
                what: "truncated chunk payload"
            }
        ),
        "long: {stream}"
    );
    all_readers_reject("long", &long);
}
