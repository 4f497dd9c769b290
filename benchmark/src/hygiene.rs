//! Run hygiene: what must hold before a run starts, and the facts about the
//! host and the build that are recorded beside every result.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

use fgbd_obsv::json::Json;

/// The CLI binaries the workloads run; all must sit beside this executable.
pub const CLI_BINS: [&str; 6] = [
    "analyze_capture",
    "million_users",
    "fig05_mysql_finegrained",
    "fig06_load_calc",
    "fig07_mixclass_example",
    "table02_pstates",
];

/// Every `FGBD_*` variable picks a non-default route through the program,
/// in the children and in the in-process probes alike. The benchmark
/// measures the defaults, so it refuses to start rather than scrub them
/// silently. Returns the offending names.
pub fn fgbd_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FGBD_"))
        .collect();
    names.sort();
    names
}

/// The directory holding this executable and the CLI binaries
/// (`<target>/release`).
pub fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark executable");
    // `cargo test` runs from `<profile>/deps/`.
    let dir = exe.parent().expect("executable has a parent directory");
    if dir.ends_with("deps") {
        dir.parent().expect("deps has a parent").to_path_buf()
    } else {
        dir.to_path_buf()
    }
}

/// The repository root: the parent of this crate's directory, fixed at
/// compile time (the checkout is built where it is run).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn newest_source(dir: &Path, newest: &mut Option<(SystemTime, PathBuf)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            newest_source(&path, newest);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(m) = meta.modified() {
                if newest.as_ref().is_none_or(|(t, _)| m > *t) {
                    *newest = Some((m, path));
                }
            }
        }
    }
}

/// Checks that every CLI binary exists and is no older than the newest
/// `.rs` file under `crates/*/src` — the rule cargo itself rebuilds by, so
/// after `run.sh`'s build this always holds; it catches a binary run by
/// hand against edited sources.
pub fn check_binaries(bin_dir: &Path, root: &Path) -> Result<(), String> {
    let mut newest = None;
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            newest_source(&c.path().join("src"), &mut newest);
        }
    }
    for name in CLI_BINS {
        let bin = bin_dir.join(name);
        let built = std::fs::metadata(&bin)
            .and_then(|m| m.modified())
            .map_err(|_| {
                format!(
                    "{} is missing: build with `cargo build --release -p fgbd-repro --bins` (benchmark/run.sh does)",
                    bin.display()
                )
            })?;
        if let Some((src_time, src)) = &newest {
            if built < *src_time {
                return Err(format!(
                    "{} is older than {}: rebuild before measuring (benchmark/run.sh does)",
                    bin.display(),
                    src.display()
                ));
            }
        }
    }
    Ok(())
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build facts for the result file.
pub fn facts(root: &Path) -> Json {
    let unknown = || Json::Str("unknown".into());
    let commit = stdout_of(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"]),
    );
    let dirty = stdout_of(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["status", "--porcelain"]),
    );
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "rustc".into(),
            stdout_of(Command::new("rustc").arg("--version")).map_or_else(unknown, Json::Str),
        ),
        // A checkout that is not a git repository has neither.
        ("git_commit".into(), commit.map_or_else(unknown, Json::Str)),
        (
            "git_dirty".into(),
            dirty.map_or_else(unknown, |s| Json::Bool(!s.is_empty())),
        ),
        // Always empty: a run with any FGBD_* variable set is refused.
        ("fgbd_env".into(), Json::Arr(Vec::new())),
    ])
}
