//! Records a scenario's passive network capture to a `.fgbdcap` file —
//! the producer half of the offline-analysis workflow.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin record_capture -- \
//!     [scenario] [users] [seconds] [out.fgbdcap] [--quiet]
//! ```
//!
//! `scenario` is one of `speedstep_on`, `speedstep_off`, `gc_jdk15`,
//! `gc_jdk16` (default `gc_jdk15`); defaults: 6,000 users, 30 s,
//! `target/experiments/capture.fgbdcap`. A run manifest is written to
//! `out/manifests/record_capture.*`.
//!
//! The file is written in the chunked columnar `FGBDCAP2` format, the one
//! format the readers accept.
//!
//! Records stream from the simulator's tap into the chunked writer through
//! the same writer thread as `million_users` (`tapwriter::TapWriter`, here
//! with no analyzer): a few batches and one encode buffer of records are
//! resident, never the run's log.

use std::path::Path;

use fgbd_des::SimDuration;
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::json::Json;
use fgbd_repro::harness::{fail_path, number_arg};
use fgbd_repro::report::out_dir;
use fgbd_repro::tapwriter::TapWriter;
use fgbd_repro::{Scenario, GC_JDK15, GC_JDK16, SPEEDSTEP_OFF, SPEEDSTEP_ON};

fn scenario_by_name(name: &str) -> Option<Scenario> {
    match name {
        "speedstep_on" => Some(SPEEDSTEP_ON),
        "speedstep_off" => Some(SPEEDSTEP_OFF),
        "gc_jdk15" => Some(GC_JDK15),
        "gc_jdk16" => Some(GC_JDK16),
        _ => None,
    }
}

const USAGE: &str = "record_capture [scenario] [users] [seconds] [out.fgbdcap] [--quiet]";

fn main() {
    let args = fgbd_repro::harness::parse_std_flags();
    let scenario_name = args.first().map_or("gc_jdk15", String::as_str);
    let Some(scenario) = scenario_by_name(scenario_name) else {
        eprintln!(
            "unknown scenario {scenario_name}; try speedstep_on, speedstep_off, gc_jdk15, gc_jdk16"
        );
        std::process::exit(2);
    };
    let users: u32 = number_arg(&args, 1, 6_000, USAGE);
    let secs: u64 = number_arg(&args, 2, 30, USAGE);
    let path = args
        .get(3)
        .cloned()
        .unwrap_or_else(|| out_dir().join("capture.fgbdcap").display().to_string());

    let mut scope = fgbd_repro::harness::begin("record_capture");
    scope.field("scenario", Json::Str(scenario_name.to_string()));
    scope.field("users", Json::Num(f64::from(users)));
    scope.field("seconds", Json::Num(secs as f64));
    scope.field("format", Json::Num(2.0));

    fgbd_obsv::log!(
        "record_capture",
        "simulating {scenario_name} at WL {users} for {secs}s ..."
    );
    let (run, messages) = {
        fgbd_obsv::span!("record_capture");
        let mut cfg = scenario.config(users);
        cfg.duration = SimDuration::from_secs(secs);
        // The chunked format needs the node table before the first record.
        let nodes = fgbd_ntier::node_metas(&cfg);
        let fail = |e: &dyn std::fmt::Display| -> ! { fail_path("record_capture", &path, e) };
        let mut tap =
            TapWriter::create(Path::new(&path), &nodes, None).unwrap_or_else(|e| fail(&e));
        let run = NTierSystem::run_with_record_tap(cfg, |rec| tap.push(rec));
        (run, tap.finish().unwrap_or_else(|e| fail(&e)).records)
    };
    assert!(
        run.log.records.is_empty(),
        "tapped run must not materialize a log"
    );
    fgbd_obsv::log!(
        "record_capture",
        "  {messages} messages captured (FGBDCAP2), throughput {:.0} tx/s",
        run.throughput()
    );

    scope.field("messages", Json::Num(messages as f64));
    scope.artifact(&path);
    scope.finish();
    fgbd_obsv::log!("record_capture", "wrote {path}");
    fgbd_obsv::log!(
        "record_capture",
        "analyze it with: cargo run -p fgbd-repro --release --bin analyze_capture -- {path}"
    );
}
