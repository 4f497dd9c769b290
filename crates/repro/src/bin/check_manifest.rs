//! Validates a `fgbd.run-manifest/v1` JSON document — the tiny in-repo
//! checker CI runs after an experiment binary, so a telemetry regression
//! (missing stages, zero timings, dropped fields) fails the build without
//! pulling in an external JSON-schema dependency.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin check_manifest -- out/manifests/fig06.json
//! ```
//!
//! Repeatable `--require-counter NAME` flags additionally assert that the
//! manifest's counter snapshot contains `NAME` — CI uses this to pin the
//! simulator's completion-token accounting (`des.cpu_done_stale` and
//! `des.cpu_done_reuse` must be *reported* even when zero, which is what
//! the retained-counter mechanism guarantees) and the monitor's
//! `monitor.verdicts` / `monitor.heartbeats`. Repeatable `--max
//! FIELD=VALUE` flags assert that the top-level numeric field `FIELD` is
//! present and at most `VALUE` — CI bounds fig05's `vm_hwm_kib` with it.
//!
//! Exits 0 and prints a one-line summary when the manifest is valid;
//! exits non-zero with the violation otherwise. This is the one
//! `fgbd-repro` binary that does not write a manifest of its own: it is
//! the validator, not a run.

use fgbd_obsv::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut maxima: Vec<(String, f64)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--require-counter" {
            match it.next() {
                Some(name) => required.push(name),
                None => {
                    eprintln!("check_manifest: --require-counter needs a counter name");
                    std::process::exit(2);
                }
            }
        } else if arg == "--max" {
            let bound = it.next().and_then(|b| {
                let (field, value) = b.split_once('=')?;
                Some((field.to_string(), value.parse::<f64>().ok()?))
            });
            let Some(bound) = bound else {
                eprintln!("check_manifest: --max needs FIELD=VALUE with a numeric VALUE");
                std::process::exit(2);
            };
            maxima.push(bound);
        } else if path.is_none() {
            path = Some(arg);
        } else {
            eprintln!("check_manifest: unexpected argument {arg}");
            std::process::exit(2);
        }
    }
    let Some(path) = path else {
        eprintln!(
            "usage: check_manifest <manifest.json> [--require-counter NAME]... [--max FIELD=VALUE]..."
        );
        std::process::exit(2);
    };
    let path = &path;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_manifest: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("check_manifest: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = fgbd_obsv::manifest::validate(&doc) {
        eprintln!("check_manifest: {path}: {e}");
        std::process::exit(1);
    }
    for name in &required {
        let present = doc.get("counters").is_some_and(|c| c.get(name).is_some());
        if !present {
            eprintln!("check_manifest: {path}: required counter {name} missing from manifest");
            std::process::exit(1);
        }
    }
    for (field, max) in &maxima {
        let value = doc.get(field).and_then(Json::as_f64);
        if !value.is_some_and(|v| v <= *max) {
            let shown = value.map_or("missing".to_string(), |v| v.to_string());
            eprintln!("check_manifest: {path}: {field} is {shown}; the bound is {max}");
            std::process::exit(1);
        }
    }
    let stages = doc
        .get("stages")
        .and_then(Json::as_arr)
        .map_or(0, <[_]>::len);
    let artifacts = doc
        .get("artifacts")
        .and_then(Json::as_arr)
        .map_or(0, <[_]>::len);
    println!(
        "check_manifest: {path} OK ({} stages, {} artifacts)",
        stages, artifacts
    );
}
