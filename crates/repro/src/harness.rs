//! Run-manifest scaffolding shared by every `fgbd-repro` binary.
//!
//! Each binary wraps its work in a [`RunScope`] (usually via
//! [`experiment_main`] or [`run_experiment`]): telemetry is snapshotted at
//! scope start, the work runs under a root span named after the run, and at
//! scope end the *deltas* — per-stage wall times and counters — are
//! written as one `fgbd.run-manifest/v1` JSON document under
//! [`manifest_dir`]. Artifact paths recorded through [`crate::report`]
//! while the scope was open are listed in the manifest.
//!
//! Standard flags every wrapped binary understands (see
//! [`parse_std_flags`]): `--quiet` mutes the `[fgbd:…]` log sink, and
//! `FGBD_OBSV=0` turns telemetry collection off. The CLIs share one exit
//! contract: a usage error (a non-numeric count included) prints usage and
//! exits 2 ([`number_arg`]); a file that cannot be read, created or written
//! prints `<bin>: <path>: <error>` and exits 1 ([`fail_path`]).

use std::path::PathBuf;

use fgbd_obsv::json::Json;
use fgbd_obsv::manifest::RunManifest;
use fgbd_obsv::metrics::MetricsSnapshot;
use fgbd_obsv::span::SpanSnapshot;

use crate::report::ExperimentSummary;
use crate::scenario::MASTER_SEED;

/// The directory run manifests are written to.
pub fn manifest_dir() -> PathBuf {
    PathBuf::from("out").join("manifests")
}

/// Applies telemetry environment variables and consumes the standard
/// harness flags from argv, returning the remaining (binary-specific)
/// arguments. Currently one flag: `--quiet` mutes the log sink.
pub fn parse_std_flags() -> Vec<String> {
    fgbd_obsv::init_from_env();
    let mut rest = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--quiet" {
            fgbd_obsv::set_quiet(true);
        } else {
            rest.push(a);
        }
    }
    rest
}

/// Positional argument `i` as a number, `default` when absent. Anything
/// else is a usage error: prints `usage` on stderr and exits with status 2.
pub fn number_arg<T: std::str::FromStr>(args: &[String], i: usize, default: T, usage: &str) -> T {
    match args.get(i).map(|s| s.parse()) {
        None => default,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("usage: {usage}");
            std::process::exit(2);
        }
    }
}

/// Reports a file that cannot be read, created or written as
/// `<bin>: <path>: <error>` on stderr and exits with status 1.
pub fn fail_path(bin: &str, path: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {path}: {err}");
    std::process::exit(1);
}

/// An open run-manifest scope: everything recorded between [`begin`] and
/// [`RunScope::finish`] lands in the manifest as this run's delta.
#[derive(Debug)]
pub struct RunScope {
    manifest: RunManifest,
    spans0: SpanSnapshot,
    metrics0: MetricsSnapshot,
}

/// Opens a manifest scope named `name`. Artifacts noted before this point
/// are dropped from the pending list so the manifest only claims files the
/// scoped run wrote itself.
pub fn begin(name: &str) -> RunScope {
    crate::report::take_artifacts();
    let mut manifest = RunManifest::start(name);
    manifest.field("seed", Json::Num(MASTER_SEED as f64));
    manifest.field("argv", Json::Arr(std::env::args().map(Json::Str).collect()));
    RunScope {
        manifest,
        spans0: fgbd_obsv::span::snapshot(),
        metrics0: fgbd_obsv::metrics::snapshot(),
    }
}

impl RunScope {
    /// Attaches a caller-defined field to the manifest.
    pub fn field(&mut self, key: &str, value: Json) {
        self.manifest.field(key, value);
    }

    /// Records an output artifact written outside the [`crate::report`]
    /// plumbing (e.g. a `.fgbdcap` capture file).
    pub fn artifact(&mut self, path: impl AsRef<std::path::Path>) {
        self.manifest.artifact(path);
    }

    /// Closes the scope: collects pending artifacts, computes the telemetry
    /// deltas, and writes `<name>.json` under [`manifest_dir`]. Returns the
    /// manifest path, or `None` if writing
    /// failed (the run's real outputs matter more than its telemetry, so
    /// I/O problems are logged and swallowed).
    pub fn finish(mut self) -> Option<PathBuf> {
        // Peak RSS rides along in every manifest (Linux only). It is the
        // program's own reading; the benchmark of record (`benchmark/run.sh`)
        // takes `peak_rss_mib` from the child's `ru_maxrss` instead.
        if let Some(kib) = fgbd_obsv::metrics::vm_hwm_kib() {
            self.manifest.field("vm_hwm_kib", Json::Num(kib as f64));
        }
        for artifact in crate::report::take_artifacts() {
            self.manifest.artifact(&artifact);
        }
        let spans = fgbd_obsv::span::snapshot().delta(&self.spans0);
        let metrics = fgbd_obsv::metrics::snapshot().delta(&self.metrics0);
        let name = self.manifest.name().to_string();
        match self.manifest.finish(manifest_dir(), &spans, &metrics) {
            Ok(path) => {
                fgbd_obsv::log!("manifest", "{name}: wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                fgbd_obsv::log!("manifest", "{name}: WARN could not write manifest: {e}");
                None
            }
        }
    }
}

/// Runs one experiment under a manifest scope: opens the scope, runs `f`
/// under a root span named `id`, saves and logs the summary, and writes
/// the manifest. This is the shared body of every figure/table binary and
/// of each `run_all` iteration.
pub fn run_experiment(
    id: &'static str,
    f: impl FnOnce() -> ExperimentSummary,
) -> ExperimentSummary {
    let scope = begin(id);
    let summary = {
        fgbd_obsv::span!(id);
        f()
    };
    // `log!` skips its arguments entirely under `--quiet`, so the save —
    // which writes the summary file and records it as an artifact — must
    // happen outside the macro.
    let rendered = summary.save();
    fgbd_obsv::log!(id, "{rendered}");
    scope.finish();
    summary
}

/// The whole `main` of a figure/table binary: standard flags, manifest
/// scope, summary printing.
pub fn experiment_main(id: &'static str, f: fn() -> ExperimentSummary) {
    parse_std_flags();
    run_experiment(id, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the scope tests: [`begin`]/[`RunScope::finish`] drain the
    /// process-global artifact list, so concurrent scopes would steal each
    /// other's artifacts.
    fn hold() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// End-to-end scope test against a real (tiny) pipeline piece: the
    /// manifest must validate, contain the root span as a stage, and list
    /// the artifacts written inside the scope.
    #[test]
    fn scope_writes_a_validating_manifest_with_stages_and_artifacts() {
        let _l = hold();
        let scope = begin("unit_harness_scope");
        {
            fgbd_obsv::span!("unit_harness_root");
            fgbd_obsv::counter!("t_harness_unit", 1);
            crate::report::write_csv("unit_harness_artifact", &["x"], &[vec!["1".into()]]);
        }
        let path = scope.finish().expect("manifest written");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        fgbd_obsv::manifest::validate(&doc).expect("manifest validates");
        let stages = doc.get("stages").unwrap().as_arr().unwrap();
        assert!(
            stages
                .iter()
                .any(|s| s.get("name").unwrap().as_str() == Some("unit_harness_root")),
            "root span missing from stages"
        );
        let artifacts = doc.get("artifacts").unwrap().as_arr().unwrap();
        assert!(
            artifacts.iter().any(|a| a
                .as_str()
                .is_some_and(|p| p.contains("unit_harness_artifact"))),
            "csv artifact missing from manifest"
        );
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(MASTER_SEED as f64));
    }

    /// `--quiet` must only mute terminal output: the summary file is still
    /// written and recorded as a manifest artifact. (Regression test — the
    /// save used to run as a `log!` argument, and `log!` skips argument
    /// evaluation entirely while quiet.)
    #[test]
    fn quiet_run_still_saves_and_records_the_summary() {
        let _l = hold();
        let txt = crate::report::out_dir().join("unit_harness_quiet.txt");
        let _ = std::fs::remove_file(&txt);
        let was_quiet = fgbd_obsv::quiet();
        fgbd_obsv::set_quiet(true);
        run_experiment("unit_harness_quiet", || {
            let mut s = ExperimentSummary::new("unit_harness_quiet");
            s.row("quantity", 1, 1);
            s
        });
        fgbd_obsv::set_quiet(was_quiet);
        assert!(txt.is_file(), "summary file must be written under --quiet");
        let manifest = manifest_dir().join("unit_harness_quiet.json");
        let doc = Json::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        let artifacts = doc.get("artifacts").unwrap().as_arr().unwrap();
        assert!(
            artifacts.iter().any(|a| a
                .as_str()
                .is_some_and(|p| p.contains("unit_harness_quiet.txt"))),
            "summary artifact missing from quiet-run manifest"
        );
    }
}
