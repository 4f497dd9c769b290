//! The tap route's memory, as a measurement: records go from the tap
//! through a [`TapWriter`] — batched, encoded on a writer thread and teed
//! into a pipe — to the stream analyzer, whose worker folds the calibration
//! prefix while the detector holds the prefix's spans. Every buffer on the
//! way is kept at its working size: at most a chunk of records in
//! 4 Ki-record tap batches, one 64 Ki-record chunk in the writer, a
//! payload reserved from the size the last one encoded to, at most four
//! 16 Ki-record row batches between the stream walker and the worker, and
//! about 4 bytes per held span. So the route's peak allocation stays under a fixed bound
//! that the chunk-sized buffers and 8-byte held spans it replaced exceed.
//! One test per binary on purpose: the counting allocator (see
//! [`fgbd_oracle::alloc`]) and the budget's environment variable are
//! process-global.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_oracle::alloc::AllocGauge;
use fgbd_repro::tapwriter::TapWriter;
use fgbd_trace::{CaptureChunks, ChunkedWriter};

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

/// The calibration budget, in records (`FGBD_CALIB_RECORDS`): a quarter of
/// the run, so the route holds spans, calibrates mid-stream and then runs
/// calibrated.
const BUDGET: usize = 1 << 17;

/// The route's allowed peak, in bytes. Measured on x86-64: 9,304,165 to
/// 9,973,093 B over 9 runs, release and debug (the replay outruns the
/// writer, so the tap's pool fills to its 16 batches), and 14,151,835 B
/// with 16 Ki-record tap batches, whole decoded chunks handed to the
/// worker as thread timing allowed, and 8 bytes per held span. The margin
/// over the highest measured peak is 0.63 MB, about one more 640 KiB row
/// batch.
const PEAK_BOUND: u64 = 10_600_000;

#[test]
fn tap_route_peak_allocation_stays_at_its_working_size() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(8_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(20);
    let nodes = node_metas(&cfg);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let source = dir.join(format!("fgbd_tap_route_source_{pid}.fgbdcap"));
    let target = dir.join(format!("fgbd_tap_route_memory_{pid}.fgbdcap"));
    // The run is replayed from a capture of small chunks, so the replay's
    // own buffer is a small share of the bound.
    let file = File::create(&source).expect("create source capture");
    let mut writer = ChunkedWriter::with_chunk_records(BufWriter::new(file), &nodes, 512)
        .expect("start source capture");
    NTierSystem::run_with_record_tap(cfg, |rec| writer.push(rec).expect("write record"));
    writer.finish().expect("seal source capture");

    std::env::set_var("FGBD_CALIB_RECORDS", BUDGET.to_string());
    let replay = File::open(&source).expect("open source capture");
    let mut chunks = CaptureChunks::open(BufReader::new(replay)).expect("read source capture");
    GLOBAL.reset_peak();
    let base = GLOBAL.live_bytes();
    let mut tap = TapWriter::create(&target, &nodes, Some(SimDuration::from_millis(50)))
        .expect("create capture");
    let mut buf = Vec::new();
    while chunks.next_into(&mut buf).expect("replay the run") {
        for &rec in &buf {
            tap.push(rec);
        }
    }
    let tapped = tap.finish();
    let peak = GLOBAL.peak_bytes().saturating_sub(base);
    std::fs::remove_file(&source).ok();
    std::fs::remove_file(&target).ok();
    let tapped = tapped.expect("write and analyze the capture");
    let za = tapped.analysis.expect("an analysis was asked for");

    eprintln!(
        "{} records, {} spans held: peak {peak} B",
        za.records, za.calib_held_spans
    );
    assert_eq!(za.records, tapped.records);
    assert!(
        za.records > 4 * BUDGET as u64,
        "only {} records",
        za.records
    );
    assert_eq!(za.calib_prefix_records, BUDGET);
    assert!(!za.reports.is_empty(), "the capture must analyze");
    assert!(peak < PEAK_BOUND, "peak {peak} B, bound {PEAK_BOUND} B");
}
