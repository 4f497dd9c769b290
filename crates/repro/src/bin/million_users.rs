//! Million-user smoke run: simulates a `users: 10^6` closed-loop
//! population, spills its capture to a chunked `FGBDCAP2` file, and
//! **analyzes that capture through the capture route while it is written**
//! — proving the three memory claims of the scale work at once: the SoA
//! user table costs a flat 20 bytes per user, the record tap plus chunked
//! writer keep the capture out of memory while writing (the tap hands
//! `TAP_BATCH_RECORDS`-record batches to a writer thread, which holds at
//! most one encode buffer of `DEFAULT_CHUNK_RECORDS` records), and the
//! stream walker keeps it out of memory while *reading*: the writer tees
//! the file's bytes into an in-process pipe, and an analyzer thread decodes
//! them with `CaptureChunks` one chunk at a time (manifest `source:
//! "stream"`, `decode_threads` 1), so the reports are those of the finished
//! file and only the last chunk and the N* fits are left when the
//! simulation stops.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin million_users -- \
//!     [users] [seconds] [out.fgbdcap] [--quiet]
//! ```
//!
//! Defaults: 1,000,000 users, 10 s, `target/experiments/million.fgbdcap`.
//! Prints records written, throughput, the analysis' wall time after the
//! simulation stopped, and the process peak RSS (`VmHWM`) after simulating
//! — which covers the concurrent analysis so far — and after the analysis
//! ends, so a sweep over `users` can show memory stays flat. A run
//! manifest is written to `out/manifests/million_users.*`.

use std::path::Path;
use std::time::Instant;

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::json::Json;
use fgbd_obsv::metrics::vm_hwm_kib;
use fgbd_repro::harness::{fail_path, number_arg};
use fgbd_repro::report::out_dir;
use fgbd_repro::scenario::MASTER_SEED;
use fgbd_repro::tapwriter::TapWriter;

const USAGE: &str = "million_users [users] [seconds] [out.fgbdcap] [--quiet]";

fn main() {
    let args = fgbd_repro::harness::parse_std_flags();
    let users: u32 = number_arg(&args, 0, 1_000_000, USAGE);
    let secs: u64 = number_arg(&args, 1, 10, USAGE);
    let path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| out_dir().join("million.fgbdcap").display().to_string());

    let mut scope = fgbd_repro::harness::begin("million_users");
    scope.field("users", Json::Num(f64::from(users)));
    scope.field("seconds", Json::Num(secs as f64));

    let mut cfg = SystemConfig::paper_1l2s1l2s(users, Jdk::Jdk16, false, MASTER_SEED);
    cfg.duration = SimDuration::from_secs(secs);
    // The scenario default is a 30 s steady-state warmup — right for the
    // paper's measurements, pointless for a memory smoke, and at 10^6 users
    // it multiplies wall time by an order of magnitude. One second is
    // enough to get every user scheduled and the tap warm.
    cfg.warmup = SimDuration::from_secs(1);

    // The chunked format needs the node table before the first record. The
    // tap only batches records: a writer thread encodes them to the file
    // and tees the bytes to an analyzer thread, which reads them with the
    // stream walker as they land.
    let nodes = fgbd_ntier::node_metas(&cfg);
    let fail = |e: &dyn std::fmt::Display| -> ! { fail_path("million_users", &path, e) };
    let interval = SimDuration::from_millis(50);
    let mut tap =
        TapWriter::create(Path::new(&path), &nodes, Some(interval)).unwrap_or_else(|e| fail(&e));

    fgbd_obsv::log!(
        "million_users",
        "simulating {users} users for {secs}s, streaming capture to {path} and analyzing it ..."
    );
    // The simulate stage carries the name `Scenario::run` gives it, so both
    // simulator-bound CLIs attribute it under one stage, and its rate
    // (`des.events` delta over the stage's wall time) rides in the manifest.
    let des_events = fgbd_obsv::metrics::counter("des.events");
    let events_before = des_events.get();
    let sim_wall = Instant::now();
    let run = {
        fgbd_obsv::span!("simulate");
        NTierSystem::run_with_record_tap(cfg, |rec| tap.push(rec))
    };
    let sim_secs = sim_wall.elapsed().as_secs_f64();
    let sim_events = des_events.get() - events_before;
    assert!(
        run.log.records.is_empty(),
        "tapped run must not materialize a log"
    );
    if let Some(kib) = vm_hwm_kib() {
        fgbd_obsv::log!(
            "million_users",
            "  peak RSS after simulate {:.1} MiB (VmHWM, the analysis so far included)",
            kib as f64 / 1024.0
        );
        scope.field("vm_hwm_sim_kib", Json::Num(kib as f64));
    }

    // What is left once the simulation stops: the writer's last chunk and
    // footer, the analyzer's decode of them, and the N* fits.
    let wall = Instant::now();
    let tapped = {
        fgbd_obsv::span!("million_analyze");
        tap.finish().unwrap_or_else(|e| fail(&e))
    };
    let wall = wall.elapsed();
    let records = tapped.records;
    let za = tapped.analysis.expect("an analyzer was asked for");
    fgbd_obsv::log!(
        "million_users",
        "  {records} records streamed, throughput {:.0} tx/s",
        run.throughput()
    );
    fgbd_obsv::log!(
        "million_users",
        "  stream analyze: {} records, {} servers reported {:.2}s after the simulation",
        za.records,
        za.reports.len(),
        wall.as_secs_f64()
    );
    assert_eq!(
        za.records, records,
        "analyze must see every streamed record"
    );
    scope.field("records", Json::Num(records as f64));
    scope.field("throughput", Json::Num(run.throughput()));
    // Absent with telemetry off (`FGBD_OBSV=0` freezes the counter).
    if sim_events > 0 {
        scope.field(
            "sim_events_per_s",
            Json::Num((sim_events as f64 / sim_secs).round()),
        );
    }
    scope.field("analyze_secs", Json::Num(wall.as_secs_f64()));
    scope.field("analyze_servers", Json::Num(za.reports.len() as f64));
    za.stamp_route(&mut scope);
    if let Some(kib) = vm_hwm_kib() {
        fgbd_obsv::log!(
            "million_users",
            "  peak RSS after analyze {:.1} MiB (VmHWM)",
            kib as f64 / 1024.0
        );
    }

    scope.artifact(&path);
    scope.finish();
    fgbd_obsv::log!("million_users", "wrote {path}");
}
