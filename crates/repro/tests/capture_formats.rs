//! End-to-end proof that the chunked `FGBDCAP2` capture path is a pure
//! re-encoding of the batch pipeline: streaming a run's records through
//! [`fgbd_trace::ChunkedWriter`] via the inline record tap and reading the
//! file back yields exactly the log the batch simulator materializes at
//! the same seed and config — same nodes, same records, and an empty
//! in-memory log on the tapped side (nothing was double-buffered).
//!
//! The second case drives the shipped `analyze_capture` binary over both
//! formats of one run, batch and `--follow`, and compares the verdict
//! files byte for byte.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};

use fgbd_des::SimDuration;
use fgbd_ntier::config::{BurstConfig, Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_repro::scenario::GC_JDK15;
use fgbd_trace::{read_capture_file, write_capture, write_capture2, ChunkedWriter};

fn smoke_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_1l2s1l2s(60, Jdk::Jdk16, false, seed);
    cfg.burst = BurstConfig::disabled();
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(9);
    cfg
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fgbd_{name}_{}.fgbdcap", std::process::id()))
}

#[test]
fn tapped_chunked_capture_equals_batch_log() {
    let seed = 0xC2_2013_0708;
    let batch = NTierSystem::run(smoke_cfg(seed));
    assert!(
        !batch.log.records.is_empty(),
        "the batch run must capture records"
    );

    let path = temp_path("tap_roundtrip");
    // A tiny chunk size forces many chunks (headers, footer index, and the
    // flush path all get exercised), not just one big one.
    let nodes = fgbd_ntier::node_metas(&smoke_cfg(seed));
    let file = File::create(&path).expect("create capture file");
    let writer = ChunkedWriter::with_chunk_records(BufWriter::new(file), &nodes, 512)
        .expect("start capture");
    let writer = Arc::new(Mutex::new(Some(writer)));
    let sink = Arc::clone(&writer);
    let tapped = NTierSystem::run_with_record_tap(smoke_cfg(seed), move |rec| {
        sink.lock()
            .expect("writer lock")
            .as_mut()
            .expect("writer live during the run")
            .push(rec)
            .expect("write record");
    });
    writer
        .lock()
        .expect("writer lock")
        .take()
        .expect("writer still present")
        .finish()
        .expect("seal capture");

    assert!(
        tapped.log.records.is_empty(),
        "the tapped run must not materialize a log"
    );
    // Everything except the capture transport is unchanged.
    assert_eq!(batch.txns, tapped.txns);
    assert_eq!(batch.cpu_busy, tapped.cpu_busy);

    let reread = read_capture_file(&path).expect("read chunked capture");
    std::fs::remove_file(&path).ok();
    assert_eq!(batch.log.nodes, reread.nodes);
    assert_eq!(batch.log.records, reread.records);
}

/// Runs the `analyze_capture` binary on `capture` from inside `dir` (the
/// run manifest and monitor files land under its `out/`) and returns the
/// bytes of the `--verdicts` file.
fn cli_verdicts(dir: &Path, capture: &str, follow: bool) -> Vec<u8> {
    let verdicts = format!(
        "{capture}.{}.jsonl",
        if follow { "follow" } else { "batch" }
    );
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_analyze_capture"));
    cmd.current_dir(dir).args([capture, "50", "--quiet"]);
    if follow {
        cmd.arg("--follow");
    }
    let status = cmd
        .args(["--verdicts", &verdicts])
        .status()
        .expect("spawn analyze_capture");
    assert!(
        status.success(),
        "analyze_capture {capture} follow={follow}: {status}"
    );
    std::fs::read(dir.join(&verdicts)).expect("read verdicts file")
}

#[test]
fn analyze_capture_cli_agrees_across_formats_and_follow() {
    // One seed-20130708 run, short but loaded enough that the JDK 1.5
    // collector freezes Tomcat — so the verdict stream is not empty.
    let mut cfg = GC_JDK15.config(3_000);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.duration = SimDuration::from_secs(12);
    let run = NTierSystem::run(cfg);

    let dir = std::env::temp_dir().join(format!("fgbd_cli_formats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut flat = Vec::new();
    write_capture(&mut flat, &run.log).expect("encode FGBDCAP1");
    std::fs::write(dir.join("run.cap1"), flat).expect("write FGBDCAP1 file");
    let mut chunked = Vec::new();
    write_capture2(&mut chunked, &run.log).expect("encode FGBDCAP2");
    std::fs::write(dir.join("run.cap2"), chunked).expect("write FGBDCAP2 file");

    let reference = cli_verdicts(&dir, "run.cap1", false);
    assert!(!reference.is_empty(), "the run must produce verdict lines");
    for (capture, follow) in [("run.cap1", true), ("run.cap2", false), ("run.cap2", true)] {
        assert!(
            cli_verdicts(&dir, capture, follow) == reference,
            "{capture} follow={follow} verdicts differ from the FGBDCAP1 batch run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
