//! The live bottleneck monitor: [`fgbd_core::online`] wired to the
//! observability surface.
//!
//! [`MonitorTelemetry`] observes an [`OnlineDetector`] it is handed after
//! each record and writes
//!
//! * a structured **verdict log** — one JSON line per congestion
//!   onset/clear ([`MonitorEvent`]) under `out/monitor/<name>.events.jsonl`;
//! * periodic **heartbeat snapshots** — per-server live N\*, congestion
//!   state and open requests, spans in flight, lag and state bytes — as a
//!   JSONL stream under `out/monitor/<name>.heartbeats.jsonl` and a
//!   Prometheus text file `out/monitor/<name>.prom` overwritten on every
//!   beat.
//!
//! The JSONL/`.prom` files are the monitor's *data product* and are written
//! regardless of `--quiet` (quiet mutes console chatter, never telemetry
//! artifacts). Heartbeats are paced by **simulated** time
//! (one per [`MonitorConfig::heartbeat`] of stream time), so their count is
//! deterministic for a given capture.
//!
//! [`MonitorRuntime`] is a calibrated detector of its own plus that
//! telemetry — what `live_monitor` runs on [`MonitorConfig::default`].
//! `analyze_capture --follow` builds no detector here: the telemetry rides
//! on the capture analyzer's own ([`crate::zerocopy::CaptureAnalyzer`]).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use fgbd_core::detect::IntervalState;
use fgbd_core::nstar::NStar;
use fgbd_core::online::{
    MonitorEvent, MonitorSnapshot, OnlineConfig, OnlineDetector, OnlineReport, VerdictKind,
};
use fgbd_core::series::Window;
use fgbd_des::{SimDuration, SimTime};
use fgbd_obsv::json::Json;
use fgbd_obsv::jsonl::JsonlWriter;
use fgbd_trace::{MsgRecord, NodeId, NodeMeta};

use crate::pipeline::{Calibration, WORK_UNIT_RESOLUTION};

/// Monitor parameters; the detector's live window, refit period and
/// hysteresis are `fgbd_core::online`'s constants.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Analysis interval (the paper's fine granularity).
    pub interval: SimDuration,
    /// Heartbeat period in **stream** (simulated) time.
    pub heartbeat: SimDuration,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            interval: SimDuration::from_millis(50),
            heartbeat: SimDuration::from_millis(1000),
        }
    }
}

/// The monitor's telemetry sinks, observing a detector it is handed: the
/// verdict log, heartbeat pacing and the heartbeat outputs.
#[derive(Debug)]
pub struct MonitorTelemetry {
    names: HashMap<u16, String>,
    events_log: JsonlWriter,
    heartbeats_log: JsonlWriter,
    prom_path: PathBuf,
    hb_us: u64,
    /// Heartbeat grid index already emitted (stream-time / heartbeat).
    last_hb: Option<u64>,
    verdicts: u64,
    heartbeats: u64,
}

impl MonitorTelemetry {
    /// Creates the outputs of one run: `name` keys the files under
    /// `out/monitor/`, `heartbeat` is the stream-time beat period, and
    /// `nodes` supplies the server names the telemetry is labeled with.
    pub fn create(name: &str, heartbeat: SimDuration, nodes: &[NodeMeta]) -> io::Result<Self> {
        let names = nodes
            .iter()
            .map(|m| (m.id.0, m.name.clone()))
            .collect::<HashMap<_, _>>();
        let dir = Path::new("out").join("monitor");
        // Register the health counters up front so delta manifests report
        // explicit zeros when nothing fires (0 verdicts is a finding).
        fgbd_obsv::metrics::counter_retained("monitor.verdicts");
        fgbd_obsv::metrics::counter_retained("monitor.heartbeats");
        Ok(MonitorTelemetry {
            names,
            events_log: JsonlWriter::create(dir.join(format!("{name}.events.jsonl")))?,
            heartbeats_log: JsonlWriter::create(dir.join(format!("{name}.heartbeats.jsonl")))?,
            prom_path: dir.join(format!("{name}.prom")),
            hb_us: heartbeat.as_micros().max(1),
            last_hb: None,
            verdicts: 0,
            heartbeats: 0,
        })
    }

    /// Server name for telemetry labels (`server-<id>` when unknown).
    fn name_of(&self, node: NodeId) -> String {
        self.names
            .get(&node.0)
            .cloned()
            .unwrap_or_else(|| format!("server-{}", node.0))
    }

    /// Runs after each record `det` consumed: logs the verdicts it emitted
    /// and beats once per heartbeat period of stream time.
    pub fn observe(&mut self, det: &mut OnlineDetector) -> io::Result<()> {
        for e in det.drain_events() {
            self.emit(&e)?;
        }
        let idx = det.now().as_micros() / self.hb_us;
        if self.last_hb != Some(idx) {
            self.last_hb = Some(idx);
            self.heartbeat(&det.snapshot())?;
        }
        Ok(())
    }

    /// Ends the stream: the verdicts a late calibration released, a final
    /// heartbeat, then `det`'s tail verdicts and its batch-exact per-server
    /// reports — none when `end` is `None`: the stream spans no time, so
    /// there is no grid to close.
    pub fn finish(
        mut self,
        mut det: OnlineDetector,
        end: Option<SimTime>,
    ) -> io::Result<Vec<OnlineReport>> {
        // Stream time has not moved since the last record: no extra beat.
        self.observe(&mut det)?;
        self.heartbeat(&det.snapshot())?;
        let Some(end) = end else {
            return Ok(Vec::new());
        };
        let fin = det.finish(end);
        for e in &fin.events {
            self.emit(e)?;
        }
        Ok(fin.reports)
    }

    fn emit(&mut self, e: &MonitorEvent) -> io::Result<()> {
        let server = self.name_of(e.server);
        self.events_log.write(&event_json(&server, e))?;
        self.verdicts += 1;
        fgbd_obsv::counter!("monitor.verdicts", 1);
        let kind = match e.kind {
            VerdictKind::Onset => "ONSET",
            VerdictKind::Clear => "clear",
        };
        fgbd_obsv::log!(
            "monitor",
            "{kind} {server} interval {} (t={:.3}s) load={:.1} rate={:.1} n*={} queue={} latency={:.0}ms",
            e.interval,
            e.interval_end.as_secs_f64(),
            e.load,
            e.rate,
            e.nstar.map_or("?".into(), |n| format!("{n:.1}")),
            e.queue_depth,
            e.detect_latency.as_secs_f64() * 1e3,
        );
        Ok(())
    }

    /// Emits one heartbeat: a JSONL snapshot line and the overwritten
    /// Prometheus text file.
    fn heartbeat(&mut self, snap: &MonitorSnapshot) -> io::Result<()> {
        self.heartbeats_log
            .write(&heartbeat_json(snap, |n| self.name_of(n)))?;
        std::fs::write(&self.prom_path, self.render_prom(snap))?;
        self.heartbeats += 1;
        fgbd_obsv::counter!("monitor.heartbeats", 1);
        Ok(())
    }

    fn render_prom(&self, snap: &MonitorSnapshot) -> String {
        let mut out = String::new();
        out.push_str("# fgbd live monitor heartbeat (overwritten each beat)\n");
        out.push_str(&format!("fgbd_monitor_records {}\n", snap.records));
        out.push_str(&format!(
            "fgbd_monitor_spans_in_flight {}\n",
            snap.spans_in_flight
        ));
        out.push_str(&format!("fgbd_monitor_lag_us {}\n", snap.lag.as_micros()));
        out.push_str(&format!("fgbd_monitor_mem_bytes {}\n", snap.state_bytes));
        out.push_str(&format!("fgbd_monitor_verdicts_total {}\n", self.verdicts));
        out.push_str(&format!(
            "fgbd_monitor_heartbeats_total {}\n",
            self.heartbeats + 1
        ));
        for s in &snap.servers {
            let name = self.name_of(s.server);
            if let Some(n) = s.live_nstar {
                out.push_str(&format!(
                    "fgbd_monitor_window_nstar{{server=\"{name}\"}} {n}\n"
                ));
            }
            out.push_str(&format!(
                "fgbd_monitor_congested_now{{server=\"{name}\"}} {}\n",
                u8::from(s.congested_now)
            ));
            out.push_str(&format!(
                "fgbd_monitor_open_requests{{server=\"{name}\"}} {}\n",
                s.open_requests
            ));
        }
        out
    }
}

/// The streaming monitor: an [`OnlineDetector`] of its own plus its
/// [`MonitorTelemetry`].
#[derive(Debug)]
pub struct MonitorRuntime {
    detector: OnlineDetector,
    telemetry: MonitorTelemetry,
}

impl MonitorRuntime {
    /// Builds the monitor for one run. `name` keys the files under
    /// `out/monitor/`; `start` is the grid origin (normally the warm-up
    /// end); the calibration supplies service times and per-server work
    /// units exactly as the batch pipeline would; `nodes` supplies the
    /// server names the telemetry is labeled with.
    pub fn new(
        name: &str,
        cfg: &MonitorConfig,
        start: SimTime,
        cal: &Calibration,
        nodes: &[NodeMeta],
    ) -> io::Result<MonitorRuntime> {
        let ocfg = OnlineConfig::new(start, cfg.interval, WORK_UNIT_RESOLUTION);
        let mut detector = OnlineDetector::new(ocfg, cal.services.clone());
        for (&node, &wu) in &cal.work_units {
            detector.set_work_unit(node, wu);
        }
        let telemetry = MonitorTelemetry::create(name, cfg.heartbeat, nodes)?;
        Ok(MonitorRuntime {
            detector,
            telemetry,
        })
    }

    /// Consumes one record: detection, verdict logging, heartbeat pacing.
    pub fn push(&mut self, rec: &MsgRecord) -> io::Result<()> {
        self.detector.push(rec);
        self.telemetry.observe(&mut self.detector)
    }

    /// Consumes a chunk of records.
    pub fn push_chunk(&mut self, recs: &[MsgRecord]) -> io::Result<()> {
        for r in recs {
            self.push(r)?;
        }
        Ok(())
    }

    /// Verdicts emitted so far.
    pub fn verdicts(&self) -> u64 {
        self.telemetry.verdicts
    }

    /// Heartbeats emitted so far.
    pub fn heartbeats(&self) -> u64 {
        self.telemetry.heartbeats
    }

    /// Ends the stream: see [`MonitorTelemetry::finish`].
    pub fn finish(self, end: SimTime) -> io::Result<Vec<OnlineReport>> {
        self.telemetry.finish(self.detector, Some(end))
    }
}

/// JSON document for one verdict event.
fn event_json(server: &str, e: &MonitorEvent) -> Json {
    Json::Obj(vec![
        (
            "kind".into(),
            Json::Str(
                match e.kind {
                    VerdictKind::Onset => "onset",
                    VerdictKind::Clear => "clear",
                }
                .into(),
            ),
        ),
        ("server".into(), Json::Str(server.into())),
        ("interval".into(), Json::Num(e.interval as f64)),
        (
            "interval_end_us".into(),
            Json::Num(e.interval_end.as_micros() as f64),
        ),
        ("nstar".into(), e.nstar.map_or(Json::Null, Json::Num)),
        ("tp_max".into(), Json::Num(e.tp_max)),
        ("load".into(), Json::Num(e.load)),
        ("rate".into(), Json::Num(e.rate)),
        ("queue_depth".into(), Json::Num(e.queue_depth as f64)),
        (
            "detect_latency_us".into(),
            Json::Num(e.detect_latency.as_micros() as f64),
        ),
    ])
}

/// JSON document for one heartbeat snapshot.
fn heartbeat_json(snap: &MonitorSnapshot, name_of: impl Fn(NodeId) -> String) -> Json {
    let servers = snap
        .servers
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("server".into(), Json::Str(name_of(s.server))),
                ("finalized".into(), Json::Num(s.finalized as f64)),
                ("congested_now".into(), Json::Bool(s.congested_now)),
                (
                    "window_nstar".into(),
                    s.live_nstar.map_or(Json::Null, Json::Num),
                ),
                ("open_requests".into(), Json::Num(s.open_requests as f64)),
                ("last_load".into(), Json::Num(s.last_load)),
                ("last_rate".into(), Json::Num(s.last_rate)),
                (
                    "congested_intervals".into(),
                    Json::Num(s.congested_intervals as f64),
                ),
                (
                    "frozen_intervals".into(),
                    Json::Num(s.frozen_intervals as f64),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("at_us".into(), Json::Num(snap.at.as_micros() as f64)),
        ("records".into(), Json::Num(snap.records as f64)),
        (
            "spans_in_flight".into(),
            Json::Num(snap.spans_in_flight as f64),
        ),
        ("lag_us".into(), Json::Num(snap.lag.as_micros() as f64)),
        ("mem_bytes".into(), Json::Num(snap.state_bytes as f64)),
        ("servers".into(), Json::Arr(servers)),
    ])
}

/// Renders the congested/frozen intervals of one analyzed series as JSON
/// verdict lines. Every verdict file goes through it, whether the series
/// came from an [`OnlineReport`] or a batch `ServerReport`: bit-identical
/// `f64`s render byte-identically ([`Json`] numbers print
/// shortest-roundtrip), which is what the identity tests compare.
pub fn verdict_lines(
    server: &str,
    window: Window,
    loads: &[f64],
    rates: &[f64],
    states: &[IntervalState],
    nstar: Option<&NStar>,
) -> Vec<Json> {
    states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, IntervalState::Congested | IntervalState::Frozen))
        .map(|(i, s)| {
            let (b0, b1) = window.bounds(i);
            Json::Obj(vec![
                ("server".into(), Json::Str(server.into())),
                ("interval".into(), Json::Num(i as f64)),
                ("start_us".into(), Json::Num(b0.as_micros() as f64)),
                ("end_us".into(), Json::Num(b1.as_micros() as f64)),
                (
                    "state".into(),
                    Json::Str(
                        match s {
                            IntervalState::Frozen => "frozen",
                            _ => "congested",
                        }
                        .into(),
                    ),
                ),
                ("load".into(), Json::Num(loads[i])),
                ("rate".into(), Json::Num(rates[i])),
                (
                    "nstar".into(),
                    nstar.map_or(Json::Null, |e| Json::Num(e.nstar)),
                ),
                (
                    "tp_max".into(),
                    nstar.map_or(Json::Null, |e| Json::Num(e.tp_max)),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lines_filter_and_render_compactly() {
        let window = Window::new(
            SimTime::ZERO,
            SimTime::from_millis(200),
            SimDuration::from_millis(50),
        );
        let loads = [0.0, 5.0, 9.0, 1.0];
        let rates = [0.0, 100.0, 0.5, 90.0];
        let states = [
            IntervalState::Idle,
            IntervalState::Normal,
            IntervalState::Frozen,
            IntervalState::Normal,
        ];
        let lines = verdict_lines("mysql-1", window, &loads, &rates, &states, None);
        assert_eq!(lines.len(), 1);
        let line = lines[0].render();
        assert!(line.contains("\"server\":\"mysql-1\""), "{line}");
        assert!(line.contains("\"interval\":2"), "{line}");
        assert!(line.contains("\"state\":\"frozen\""), "{line}");
        assert!(line.contains("\"start_us\":100000"), "{line}");
    }
}
