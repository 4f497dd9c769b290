//! `run_all <id>...` is the one way to regenerate a paper artifact: it runs
//! exactly the named experiments and writes what their dedicated bins
//! write, and an unknown id is a usage error that writes nothing.
//! `check_manifest` validates what it writes and can bound its fields.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fgbd_obsv::json::Json;

/// A fresh, empty working directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgbd_run_all_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(exe: &str, cwd: &Path, args: &[&str]) -> Output {
    Command::new(exe)
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn")
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// What a manifest says about the run, without what differs from run to
/// run (start time, wall and stage times, peak RSS) or by entry point
/// (argv).
fn manifest_facts(bytes: &[u8]) -> String {
    let doc = Json::parse(std::str::from_utf8(bytes).unwrap()).expect("manifest parses");
    let mut facts = Vec::new();
    for (key, value) in doc.as_obj().expect("manifest is an object") {
        match key.as_str() {
            "started_unix_ms" | "wall_ms" | "argv" | "vm_hwm_kib" => {}
            "stages" => {
                for stage in value.as_arr().unwrap() {
                    let field = |k| stage.get(k).unwrap().render();
                    facts.push(format!("stage {} x{}", field("path"), field("calls")));
                }
            }
            _ => facts.push(format!("{key} = {}", value.render())),
        }
    }
    facts.join("\n")
}

#[test]
fn run_all_with_ids_writes_exactly_what_the_dedicated_bins_write() {
    let via_run_all = scratch("ids");
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &via_run_all,
        &["fig07", "fig06", "--quiet"],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let via_bins = scratch("bins");
    for exe in [
        env!("CARGO_BIN_EXE_fig06_load_calc"),
        env!("CARGO_BIN_EXE_fig07_mixclass_example"),
    ] {
        let out = run(exe, &via_bins, &["--quiet"]);
        assert_eq!(out.status.code(), Some(0), "{exe}");
    }

    let (got, want) = (files(&via_run_all), files(&via_bins));
    let names: Vec<&str> = got.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "out/manifests/fig06.json",
            "out/manifests/fig07.json",
            "target/experiments/fig06.txt",
            "target/experiments/fig06_load.csv",
            "target/experiments/fig07.txt",
            "target/experiments/fig07_mixclass.csv",
        ]
    );
    assert!(got.keys().eq(want.keys()));
    for (name, bytes) in &got {
        if name.starts_with("out/manifests/") {
            assert_eq!(manifest_facts(bytes), manifest_facts(&want[name]), "{name}");
        } else {
            assert!(
                *bytes == want[name],
                "{name} differs from the dedicated bin's"
            );
        }
    }
    std::fs::remove_dir_all(&via_run_all).ok();
    std::fs::remove_dir_all(&via_bins).ok();
}

#[test]
fn run_all_with_an_unknown_id_lists_the_ids_and_writes_nothing() {
    let dir = scratch("unknown");
    let out = run(env!("CARGO_BIN_EXE_run_all"), &dir, &["nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let ids = fgbd_repro::experiments::all();
    assert_eq!(ids.len(), 19);
    for (id, _) in ids {
        assert!(stderr.contains(id), "usage must list {id}: {stderr}");
    }
    assert!(!dir.join("out").exists() && !dir.join("target").exists());
    assert!(files(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// `check_manifest --max FIELD=VALUE` bounds a top-level numeric field of
/// a run's manifest: it passes at or under the bound, and fails on a field
/// above it or missing; a malformed bound is a usage error.
#[test]
fn check_manifest_bounds_a_numeric_field() {
    let dir = scratch("max");
    let out = run(env!("CARGO_BIN_EXE_run_all"), &dir, &["fig06", "--quiet"]);
    assert_eq!(out.status.code(), Some(0));
    let check = |args: &[&str]| {
        let mut all = vec!["out/manifests/fig06.json"];
        all.extend_from_slice(args);
        let out = run(env!("CARGO_BIN_EXE_check_manifest"), &dir, &all);
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    assert_eq!(check(&["--max", "wall_ms=1e12"]).0, Some(0));
    let (code, stderr) = check(&["--max", "wall_ms=1e12", "--max", "started_unix_ms=1"]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("started_unix_ms is") && stderr.contains("bound is 1"),
        "{stderr}"
    );
    let (code, stderr) = check(&["--max", "no_such_field=1"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("no_such_field is missing"), "{stderr}");
    for bad in [
        &["--max", "wall_ms"][..],
        &["--max", "wall_ms=lots"],
        &["--max"],
    ] {
        assert_eq!(check(bad).0, Some(2), "{bad:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
