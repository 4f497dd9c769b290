//! The capture analyzer's memory, as a measurement: the detector pairs the
//! capture while a worker folds the calibration prefix, and holds at most
//! as many spans as the budget has records, so its peak allocation on a
//! capture many budgets long stays below what the 1 Mi-record prefix buffer
//! it replaced cost on its own — the budget's `MsgRecord` bytes — and
//! below a fixed bound a detector holding 16 bytes per span exceeds. One test
//! per binary on purpose: the counting allocator (see
//! [`fgbd_oracle::alloc`]) and the budget's environment variable are
//! process-global.

use std::fs::File;
use std::io::BufWriter;

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_oracle::alloc::AllocGauge;
use fgbd_repro::zerocopy::analyze_capture2_zero_copy;
use fgbd_trace::{ChunkedWriter, MsgRecord};

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

/// The calibration budget, in records (`FGBD_CALIB_RECORDS`).
const BUDGET: usize = 1 << 16;

/// The analyzer's allowed peak, in bytes. Measured on x86-64: 905,953 to
/// 906,865 B with 8 bytes held per span, 1,046,673 to 1,068,041 B with the
/// 16-byte held spans it replaced. The margin over the measured peak,
/// 93 KB, is four more 20 KB chunk buffers than the one or two the worker's
/// timing usually keeps in flight.
const PEAK_BOUND: u64 = 1_000_000;

#[test]
fn analyzer_peak_allocation_stays_below_the_prefix_buffer() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(8_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(20);
    let nodes = node_metas(&cfg);
    let path = std::env::temp_dir().join(format!(
        "fgbd_analyzer_memory_{}.fgbdcap",
        std::process::id()
    ));
    // Small chunks, so a chunk in flight is a small share of the budget
    // and of the margin under `PEAK_BOUND`.
    let file = File::create(&path).expect("create capture file");
    let mut writer = ChunkedWriter::with_chunk_records(BufWriter::new(file), &nodes, 512)
        .expect("start capture");
    NTierSystem::run_with_record_tap(cfg, |rec| writer.push(rec).expect("write record"));
    writer.finish().expect("seal capture");

    std::env::set_var("FGBD_CALIB_RECORDS", BUDGET.to_string());
    GLOBAL.reset_peak();
    let base = GLOBAL.live_bytes();
    let za = analyze_capture2_zero_copy(&path, SimDuration::from_millis(50), 1);
    let peak = GLOBAL.peak_bytes().saturating_sub(base);
    std::fs::remove_file(&path).ok();
    let za = za.expect("analyze the capture");

    let buffer = (BUDGET * std::mem::size_of::<MsgRecord>()) as u64;
    eprintln!(
        "{} records, {} spans held: peak {peak} B, prefix buffer {buffer} B",
        za.records, za.calib_held_spans
    );
    assert!(
        za.records > 8 * BUDGET as u64,
        "only {} records",
        za.records
    );
    assert_eq!(za.calib_prefix_records, BUDGET);
    assert!(
        za.calib_held_spans <= BUDGET,
        "{} spans held",
        za.calib_held_spans
    );
    assert!(!za.reports.is_empty(), "the capture must analyze");
    assert!(peak < buffer, "peak {peak} B, prefix buffer {buffer} B");
    assert!(peak < PEAK_BOUND, "peak {peak} B, bound {PEAK_BOUND} B");
}
