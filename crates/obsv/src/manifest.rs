//! Structured run manifests: one JSON document per pipeline/experiment
//! run, built from the run's span and counter deltas.
//!
//! ## Schema (`fgbd.run-manifest/v1`)
//!
//! ```json
//! {
//!   "schema": "fgbd.run-manifest/v1",
//!   "name": "fig06",                      // run identifier (file stem)
//!   "started_unix_ms": 1754380800000,     // wall-clock start
//!   "wall_ms": 12.5,                      // total run wall time
//!   "telemetry": true,                    // was collection enabled?
//!   "...": "...",                         // caller fields (seed, argv, …)
//!   "stages": [                           // per-stage wall time
//!     {"path": "fig06;simulate", "name": "simulate",
//!      "calls": 1, "total_ns": 5200000}
//!   ],
//!   "counters": {"des.events": 123},      // counter deltas for this run
//!   "artifacts": ["target/experiments/fig06.csv"]
//! }
//! ```
//!
//! When `telemetry` is `true` the `stages` array must be non-empty and
//! every stage must show `calls >= 1` and `total_ns > 0` — the in-repo
//! checker ([`validate`], `check_manifest` bin, CI) fails otherwise.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::span::SpanSnapshot;

/// The schema identifier this module emits and [`validate`] requires.
pub const SCHEMA: &str = "fgbd.run-manifest/v1";

/// Builder for one run's manifest. Create at run start ([`start`]
/// stamps the wall clock), add fields and artifacts as the run
/// progresses, then [`finish`] with span/metrics deltas.
///
/// [`start`]: RunManifest::start
/// [`finish`]: RunManifest::finish
#[derive(Debug)]
pub struct RunManifest {
    name: String,
    started_unix_ms: u64,
    t0: Instant,
    fields: Vec<(String, Json)>,
    artifacts: Vec<String>,
}

impl RunManifest {
    /// Begins a manifest for the run named `name` (also the output file
    /// stem — keep it path-friendly).
    pub fn start(name: &str) -> RunManifest {
        let started_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        RunManifest {
            name: name.to_string(),
            started_unix_ms,
            t0: Instant::now(),
            fields: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// The run name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches a caller-defined field (scenario config, seed, argv …).
    /// Fields appear in the document after the standard header keys.
    pub fn field(&mut self, key: &str, value: Json) {
        self.fields.push((key.to_string(), value));
    }

    /// Records an output artifact path.
    pub fn artifact(&mut self, path: impl AsRef<Path>) {
        self.artifacts
            .push(path.as_ref().to_string_lossy().into_owned());
    }

    /// The manifest as a JSON document, with telemetry deltas attached.
    pub fn to_json(&self, spans: &SpanSnapshot, metrics: &MetricsSnapshot) -> Json {
        let wall_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        let mut members = vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "started_unix_ms".to_string(),
                Json::Num(self.started_unix_ms as f64),
            ),
            ("wall_ms".to_string(), Json::Num(wall_ms)),
            ("telemetry".to_string(), Json::Bool(crate::enabled())),
        ];
        members.extend(self.fields.iter().cloned());
        let stages = spans
            .spans
            .iter()
            .map(|(path, stat)| {
                let name = path.rsplit(';').next().unwrap_or(path).to_string();
                Json::Obj(vec![
                    ("path".to_string(), Json::Str(path.clone())),
                    ("name".to_string(), Json::Str(name)),
                    ("calls".to_string(), Json::Num(stat.calls as f64)),
                    ("total_ns".to_string(), Json::Num(stat.ns as f64)),
                ])
            })
            .collect();
        members.push(("stages".to_string(), Json::Arr(stages)));
        members.push((
            "counters".to_string(),
            Json::Obj(
                metrics
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                    .collect(),
            ),
        ));
        members.push((
            "artifacts".to_string(),
            Json::Arr(self.artifacts.iter().cloned().map(Json::Str).collect()),
        ));
        Json::Obj(members)
    }

    /// Writes the manifest to `<dir>/<name>.json`, creating `dir` as
    /// needed, and returns that path.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn finish(
        self,
        dir: impl AsRef<Path>,
        spans: &SpanSnapshot,
        metrics: &MetricsSnapshot,
    ) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{}.json", self.name));
        std::fs::write(&json_path, self.to_json(spans, metrics).render_pretty())?;
        Ok(json_path)
    }
}

/// Validates a parsed manifest against the documented schema. This is
/// the in-repo checker behind the `check_manifest` binary and the CI
/// end-to-end step: it fails on a wrong schema string, missing header
/// keys, and — when the run had telemetry enabled — on an empty stage
/// list, zero-call stages, or zero timings.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate(doc: &Json) -> Result<(), String> {
    let obj = doc
        .as_obj()
        .ok_or_else(|| "manifest root must be an object".to_string())?;
    let _ = obj;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field 'schema'".to_string())?;
    if schema != SCHEMA {
        return Err(format!("schema is '{schema}', expected '{SCHEMA}'"));
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field 'name'".to_string())?;
    if name.is_empty() {
        return Err("'name' must be non-empty".to_string());
    }
    for key in ["started_unix_ms", "wall_ms"] {
        let v = doc
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field '{key}'"))?;
        if v < 0.0 {
            return Err(format!("'{key}' must be non-negative, got {v}"));
        }
    }
    let telemetry = doc
        .get("telemetry")
        .and_then(Json::as_bool)
        .ok_or_else(|| "missing boolean field 'telemetry'".to_string())?;
    let stages = doc
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing array field 'stages'".to_string())?;
    if telemetry && stages.is_empty() {
        return Err("telemetry was enabled but 'stages' is empty".to_string());
    }
    for (i, stage) in stages.iter().enumerate() {
        let path = stage
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("stage {i}: missing string field 'path'"))?;
        if path.is_empty() {
            return Err(format!("stage {i}: 'path' must be non-empty"));
        }
        let calls = stage
            .get("calls")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stage '{path}': missing numeric field 'calls'"))?;
        if calls < 1.0 {
            return Err(format!("stage '{path}': 'calls' must be >= 1, got {calls}"));
        }
        let total_ns = stage
            .get("total_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stage '{path}': missing numeric field 'total_ns'"))?;
        if total_ns <= 0.0 {
            return Err(format!(
                "stage '{path}': zero timing (total_ns = {total_ns})"
            ));
        }
    }
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or_else(|| "missing object field 'counters'".to_string())?;
    for (k, v) in counters {
        if v.as_f64().is_none() {
            return Err(format!("counter '{k}' is not numeric"));
        }
    }
    let artifacts = doc
        .get("artifacts")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing array field 'artifacts'".to_string())?;
    for (i, a) in artifacts.iter().enumerate() {
        if a.as_str().is_none() {
            return Err(format!("artifact {i} is not a string"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStat;

    fn demo_snapshots() -> (SpanSnapshot, MetricsSnapshot) {
        let mut spans = SpanSnapshot::default();
        spans
            .spans
            .insert("run;stage_a".to_string(), SpanStat { calls: 2, ns: 1500 });
        spans
            .spans
            .insert("run".to_string(), SpanStat { calls: 1, ns: 9000 });
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("des.events".to_string(), 123);
        (spans, metrics)
    }

    #[test]
    fn manifest_roundtrips_and_validates() {
        let (spans, metrics) = demo_snapshots();
        let mut m = RunManifest::start("unit_manifest");
        m.field("seed", Json::Num(7.0));
        m.artifact("target/experiments/unit.csv");
        let doc = m.to_json(&spans, &metrics);
        validate(&doc).expect("demo manifest must validate");
        let back = Json::parse(&doc.render_pretty()).expect("reparse");
        validate(&back).expect("reparsed manifest must validate");
        assert_eq!(back.get("seed").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            back.get("counters")
                .unwrap()
                .get("des.events")
                .unwrap()
                .as_f64(),
            Some(123.0)
        );
    }

    #[test]
    fn finish_writes_exactly_the_manifest() {
        let (spans, metrics) = demo_snapshots();
        let dir =
            std::env::temp_dir().join(format!("fgbd_obsv_manifest_test_{}", std::process::id()));
        let m = RunManifest::start("unit_finish");
        let json_path = m.finish(&dir, &spans, &metrics).expect("write");
        let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        validate(&doc).expect("written manifest validates");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["unit_finish.json"], "one run, one file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validator_rejects_the_documented_failures() {
        let (spans, metrics) = demo_snapshots();
        let good = RunManifest::start("unit_bad").to_json(&spans, &metrics);

        // Wrong schema.
        let mut doc = good.clone();
        if let Json::Obj(m) = &mut doc {
            m[0].1 = Json::Str("other/v9".into());
        }
        assert!(validate(&doc).unwrap_err().contains("schema"));

        // Telemetry on but no stages.
        let mut doc = good.clone();
        if let Json::Obj(m) = &mut doc {
            for (k, v) in m.iter_mut() {
                if k == "stages" {
                    *v = Json::Arr(vec![]);
                }
            }
        }
        assert!(validate(&doc).unwrap_err().contains("empty"));

        // Zero timing in a stage.
        let mut doc = good.clone();
        if let Json::Obj(m) = &mut doc {
            for (k, v) in m.iter_mut() {
                if k == "stages" {
                    *v = Json::Arr(vec![Json::Obj(vec![
                        ("path".into(), Json::Str("run".into())),
                        ("name".into(), Json::Str("run".into())),
                        ("calls".into(), Json::Num(1.0)),
                        ("total_ns".into(), Json::Num(0.0)),
                    ])]);
                }
            }
        }
        assert!(validate(&doc).unwrap_err().contains("zero timing"));

        // Missing counters object.
        let mut doc = good.clone();
        if let Json::Obj(m) = &mut doc {
            m.retain(|(k, _)| k != "counters");
        }
        assert!(validate(&doc).unwrap_err().contains("counters"));

        // Telemetry off: empty stages become acceptable.
        let mut doc = good;
        if let Json::Obj(m) = &mut doc {
            for (k, v) in m.iter_mut() {
                if k == "telemetry" {
                    *v = Json::Bool(false);
                }
                if k == "stages" {
                    *v = Json::Arr(vec![]);
                }
            }
        }
        validate(&doc).expect("telemetry-off manifests may have no stages");
    }
}
