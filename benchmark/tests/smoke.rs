//! Drives `fgbd-benchmark all --smoke`: every workload, both passes, every
//! probe, at toy size (tiny captures, N = 1, no digests), and checks that
//! what it printed is what `BENCHMARK.json` promises.
//!
//! Needs the CLI binaries beside the benchmark executable, in the profile
//! the test was built in: `benchmark/run.sh --test` builds them first.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use fgbd_obsv::json::Json;

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("list in BENCHMARK.json")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_pass_emits_every_declared_metric_for_every_workload() {
    let exe = Path::new(env!("CARGO_BIN_EXE_fgbd-benchmark"));
    let out = Command::new(exe)
        .args(["all", "--smoke"])
        .env_remove("BENCH_BUILD_S")
        .output()
        .expect("run fgbd-benchmark");
    assert!(
        out.status.success(),
        "smoke pass failed (are the CLI binaries built? use benchmark/run.sh --test)\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let bench =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("json");
    let results_path = exe
        .parent()
        .and_then(Path::parent)
        .expect("target dir")
        .join("benchmark/results.json");
    let results =
        Json::parse(&std::fs::read_to_string(results_path).expect("results.json")).expect("json");

    let workloads = results
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    let ran: BTreeSet<String> = workloads.iter().map(|(w, _)| w.clone()).collect();
    assert_eq!(ran, names(&bench, "workloads"));
    for (workload, passes) in workloads {
        for (pass, declared) in [("e2e", "end_to_end"), ("layers", "per_layer")] {
            let doc = passes.get(pass).expect("pass");
            assert_eq!(
                doc.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload} {pass}: failed ops"
            );
            let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
            let emitted: BTreeSet<String> = metrics.iter().map(|(m, _)| m.clone()).collect();
            assert_eq!(emitted, names(&bench, declared), "{workload} {pass}");
        }
    }
}
