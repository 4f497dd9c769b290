//! The capture analyzer's decode width is a fact of the host, not a
//! setting, and it must not change a byte of the analysis: one capture,
//! analyzed with one decode thread and with four, gives the same reports
//! and the same `--verdicts` lines. The calibration prefix is cut short and
//! the capture written in small chunks, so most chunks are decoded on the
//! projected, decode-ahead route the width applies to. One test per binary
//! on purpose: the prefix's environment variable is process-global.

use std::fs::File;
use std::io::BufWriter;

use fgbd_des::SimDuration;
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_repro::monitor::verdict_lines;
use fgbd_repro::scenario::GC_JDK16;
use fgbd_repro::zerocopy::{analyze_capture2_zero_copy, ZeroCopyAnalysis};
use fgbd_trace::ChunkedWriter;

/// The calibration prefix, in records (`FGBD_CALIB_RECORDS`).
const PREFIX: usize = 5_000;

/// Every verdict line of an analysis, rendered.
fn verdicts(za: &ZeroCopyAnalysis) -> Vec<String> {
    let lines = za.reports.iter().flat_map(|(name, r)| {
        verdict_lines(
            name,
            r.window,
            &r.loads,
            &r.rates,
            &r.states,
            r.nstar.as_ref(),
        )
    });
    lines.map(|line| line.render()).collect()
}

#[test]
fn decode_width_does_not_change_the_analysis() {
    let mut cfg = GC_JDK16.config(300);
    cfg.duration = SimDuration::from_secs(8);
    let nodes = node_metas(&cfg);
    let path =
        std::env::temp_dir().join(format!("fgbd_decode_width_{}.fgbdcap", std::process::id()));
    let file = File::create(&path).expect("create capture file");
    let mut writer = ChunkedWriter::with_chunk_records(BufWriter::new(file), &nodes, 1_024)
        .expect("start capture");
    NTierSystem::run_with_record_tap(cfg, |rec| writer.push(rec).expect("write record"));
    writer.finish().expect("seal capture");

    std::env::set_var("FGBD_CALIB_RECORDS", PREFIX.to_string());
    let interval = SimDuration::from_millis(50);
    let analyze = |threads| analyze_capture2_zero_copy(&path, interval, threads);
    let (one, four) = (analyze(1), analyze(4));
    std::fs::remove_file(&path).ok();
    let (one, four) = (one.expect("analyze"), four.expect("analyze"));

    assert!(
        one.records > 8 * PREFIX as u64,
        "only {} records",
        one.records
    );
    assert_eq!(one.calib_prefix_records, PREFIX);
    assert_eq!(one.decode_threads, 1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        // The cursor clamps its width to 1 below two cores, so both runs
        // decode sequentially and this compares that route with itself.
        eprintln!("host has {cores} core: the 4-thread decode is clamped to 1");
        assert_eq!(four.decode_threads, 1);
    } else {
        assert_eq!(four.decode_threads, 4);
    }

    assert!(!one.reports.is_empty(), "the capture reports its servers");
    assert_eq!(one.reports.len(), four.reports.len());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ((name, a), (four_name, b)) in one.reports.iter().zip(&four.reports) {
        assert_eq!(name, four_name);
        assert_eq!(bits(&a.loads), bits(&b.loads), "{name}: loads");
        assert_eq!(bits(&a.rates), bits(&b.rates), "{name}: rates");
        assert_eq!(a.states, b.states, "{name}: states");
        assert_eq!(a.nstar, b.nstar, "{name}: N*");
        assert_eq!(
            (a.matched, a.unmatched, a.conn_overlap),
            (b.matched, b.unmatched, b.conn_overlap),
            "{name}: counts"
        );
    }
    let lines = verdicts(&one);
    assert!(!lines.is_empty(), "the capture must produce verdict lines");
    assert_eq!(lines, verdicts(&four));
}
