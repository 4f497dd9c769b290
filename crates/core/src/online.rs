//! Online (streaming) transient-bottleneck detection.
//!
//! The batch pipeline materializes every span, then runs
//! [`crate::detect::analyze_server`] over the full capture. This module is
//! the same §III analysis restructured as a **one-pass stream consumer**
//! that holds no span past its close: its memory is the in-flight requests
//! plus 24 B per finalized interval per server (the integer cells the final
//! report is computed from). Feed it time-ordered [`MsgRecord`]s (from the
//! live DES tap or a tailed capture file) and it
//!
//! 1. pairs requests with responses on the one pairing engine,
//!    `fgbd_trace::span::OpenTable` — the table `SpanSet::extract` pairs
//!    on, so the rule is shared, not restated;
//! 2. folds each matched span into the one interval engine,
//!    `series::IntervalRing`, kept over the *unfinalized* suffix of the
//!    grid;
//! 3. **finalizes** an interval once the per-server watermark passes its
//!    end — the watermark is `min(earliest open request arrival, stream
//!    time)`, the first a read of the table's arrival-ordered open list,
//!    so a finalized interval provably can never be touched by a future
//!    record;
//! 4. keeps each finalized interval's cells, re-estimates N\* every
//!    [`REFIT_EVERY`] intervals on the last [`LIVE_WINDOW`] of them, and
//!    runs the interval state machine with [`HYSTERESIS`], emitting
//!    [`MonitorEvent`] onset/clear verdicts online.
//!
//! It has three consumers, one detector per record stream: the capture
//! analyzer (`analyze_capture`, `--follow`), the live monitor, and the
//! paper's figures, which feed it the simulator's record tap and report on
//! the series the detector hands back ([`OnlineReport::series`]).
//!
//! # Deferred calibration
//!
//! Step 2 needs service times for one of its three sums; pairing does not.
//! A detector built [`OnlineDetector::uncalibrated`] pairs from the first
//! record and folds each closed span's overlap and completion count into
//! its ring at once, with finalization deferred, and holds only what
//! calibration changes: the completion's departure interval and the span's
//! residence, two `u32`s (8 bytes) kept under the span's server and class.
//! [`OnlineDetector::calibrate`] then weighs each class's held completions
//! (one service-table probe per server and class) into the rings' service
//! sums and finalizes every server up to its watermark. Ring sums are
//! integers and nothing is popped before calibration, so weighing later,
//! and by class rather than in close order, gives the same cells. A class
//! the table lacks weighs `min(residence, work unit)`, so a residence
//! saturated at `u32::MAX` µs (71 minutes) is exact while the work unit
//! fits a `u32` (asserted at calibration); a departure before its arrival
//! weighs as residence 0. Intervals still pop in index order, so the live refit
//! sequence — and with it `live_congested` / `live_frozen` and the verdicts'
//! kind, interval, load and rate — is what a detector calibrated at
//! construction produces ([`OnlineDetector::new`] is exactly that: calibrated
//! at zero records). Only a verdict's emission-time fields (detection
//! latency, queue depth) move, to the stream time of the calibration.
//!
//! # Equivalence to the batch detector
//!
//! Batch and online share the ring and its one integer-to-`f64` step; the
//! only difference is that the batch ring knows the grid end and clamps to
//! it, while this one does not and drops intervals at or past the final
//! grid length at [`OnlineDetector::finish`] (see `IntervalRing` for why
//! the kept intervals hold identical integers). What is left to argue is
//! pairing and finalization: pairing is `SpanSet::extract`'s own table, and
//! an interval is popped only once no open or future request can reach it. So
//! the final series are the batch series, and the report on them — loads,
//! rates, N\* and states, through the same `ServerReport::from_series` — is
//! **bit-for-bit** what `analyze_server` computes from the materialized
//! capture — property-tested in `tests/online.rs`, and on real runs in
//! `fgbd-repro`'s `tests/live_monitor.rs`, `tests/capture_formats.rs` and
//! `tests/end_to_end_detection.rs`.
//!
//! Live verdicts are intentionally *provisional*: they use the
//! sliding-window N\* available at finalization time, trading the batch
//! detector's full-run fit for a refit cost that does not grow with the run
//! and bounded detection latency. The final report re-classifies with the
//! full-run fit.
//!
//! # Disorder
//!
//! The contract is a time-ordered stream. A record stamped before stream
//! time is taken as it comes and counted ([`OnlineDetector::finish`] flushes
//! `trace.reordered`), not repaired. The open list stays sorted (a late
//! stamp walks back to its place), so the watermark's first term is the
//! minimum over *all* open requests. A finalized interval never changes:
//! a span that reaches back into one — a response stamped before an
//! interval its request's arrival already closed, or a late request's
//! residence — keeps only its part from the first open interval on and is
//! counted in `trace.late_spans`, flushed beside `trace.reordered`.

use fgbd_des::hash::FxHashMap;
use fgbd_des::{SimDuration, SimTime};
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::span::{server_slot, OpenTable};
use fgbd_trace::{ClassId, MsgKind, MsgRecord, NodeId};

use crate::detect::{self, classify_one, fit_mainseq, DetectorConfig, IntervalState, ServerReport};
use crate::nstar::NStar;
use crate::series::{materialize, IntervalRing, SeriesSet, ServiceCache, Window};

/// Finalized intervals the live N\* is fit on, the most recent ones (one
/// minute of 50 ms intervals): a window keeps each refit's cost flat in run
/// length, and refitting on the whole finalized prefix instead moved
/// live-onset precision against the final report only from 0.45 to 0.47 on
/// a 60 s gc_jdk15 capture while costing fig05 4% wall and 8% peak memory.
pub const LIVE_WINDOW: usize = 1200;

/// Refit the live N\* every this many finalized intervals per server: a
/// count, not a time, so verdicts do not depend on how the stream is
/// chunked, and a fit every 64 keeps its cost a small share of the stream.
pub const REFIT_EVERY: usize = 64;

/// Consecutive intervals required to flip a server's congested state, in
/// both directions: keeps single-interval flickers out of the verdicts.
pub const HYSTERESIS: usize = 2;

/// The grid of the online detector; its N\* fit and interval states use
/// [`DetectorConfig::default`], as the batch detector's callers do.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Start of the analysis grid (records before it still feed pairing).
    pub start: SimTime,
    /// Interval length (the paper's fine granularity, e.g. 50 ms).
    pub interval: SimDuration,
    /// Default work unit for throughput normalization; override per
    /// server with [`OnlineDetector::set_work_unit`] to mirror the batch
    /// pipeline's per-server calibration.
    pub work_unit: SimDuration,
}

impl OnlineConfig {
    /// The grid starting at `start` with `interval`-long intervals.
    pub fn new(start: SimTime, interval: SimDuration, work_unit: SimDuration) -> OnlineConfig {
        OnlineConfig {
            start,
            interval,
            work_unit,
        }
    }
}

/// Did the server just enter or leave congestion?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// [`HYSTERESIS`] consecutive congested/frozen intervals finalized.
    Onset,
    /// [`HYSTERESIS`] consecutive uncongested intervals finalized.
    Clear,
}

/// One online verdict: a congestion onset or clear at one server.
#[derive(Debug, Clone, Copy)]
pub struct MonitorEvent {
    /// The server whose state flipped.
    pub server: NodeId,
    /// Onset or clear.
    pub kind: VerdictKind,
    /// Index of the first interval of the streak that caused the flip.
    pub interval: usize,
    /// End timestamp of that interval.
    pub interval_end: SimTime,
    /// Live N\* at emission time (`None` while unobservable).
    pub nstar: Option<f64>,
    /// Live `TP_max` at emission time (0 while N\* is unobservable).
    pub tp_max: f64,
    /// Load of the interval that completed the streak.
    pub load: f64,
    /// Normalized throughput rate of that interval.
    pub rate: f64,
    /// Open (in-flight) requests at the server when the verdict fired.
    pub queue_depth: usize,
    /// Sim-time from the streak's first interval end to verdict emission
    /// — the detection latency the monitor's histogram tracks.
    pub detect_latency: SimDuration,
}

/// Live per-server state, exported on heartbeats.
#[derive(Debug, Clone, Copy)]
pub struct ServerSnapshot {
    /// The server.
    pub server: NodeId,
    /// Intervals finalized so far.
    pub finalized: usize,
    /// Current hysteresis-filtered congestion state.
    pub congested_now: bool,
    /// Live sliding-window N\*.
    pub live_nstar: Option<f64>,
    /// Open (in-flight) requests.
    pub open_requests: usize,
    /// Load of the most recently finalized interval.
    pub last_load: f64,
    /// Normalized rate of the most recently finalized interval.
    pub last_rate: f64,
    /// Finalized intervals classified congested or frozen (live N\*).
    pub congested_intervals: usize,
    /// Finalized intervals classified frozen (live N\*).
    pub frozen_intervals: usize,
}

/// A point-in-time view of the whole monitor, for heartbeat emission.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// Stream time of the last consumed record.
    pub at: SimTime,
    /// Records consumed.
    pub records: u64,
    /// Open requests across all servers.
    pub spans_in_flight: usize,
    /// Stream time minus the slowest server watermark — or, while spans
    /// are held uncalibrated, minus the grid start: how far verdicts trail
    /// the stream.
    pub lag: SimDuration,
    /// Bytes of detector state (rings, open-request tables, held spans,
    /// finalized intervals).
    pub state_bytes: usize,
    /// Per-server live state, ordered by server id.
    pub servers: Vec<ServerSnapshot>,
}

/// Final per-server report from [`OnlineDetector::finish`].
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// The server.
    pub server: NodeId,
    /// The analysis grid the stream resolved to.
    pub window: Window,
    /// Full-run N\* (`None` if unobservable).
    pub nstar: Option<NStar>,
    /// Batch-exact per-interval states.
    pub states: Vec<IntervalState>,
    /// Batch-exact per-interval loads.
    pub loads: Vec<f64>,
    /// Batch-exact per-interval rates.
    pub rates: Vec<f64>,
    /// The series those come from, for [`ServerReport::from_series`].
    pub series: SeriesSet,
    /// Spans matched (request paired with response).
    pub matched: u64,
    /// Unmatched messages: front-truncated responses plus requests lost or
    /// still open at stream end — the batch `SpanSet::unmatched` rule.
    pub unmatched: usize,
    /// Requests closed as lost because a later request reused the
    /// connection (`OpenTable::lost`): 0 on a pristine trace.
    pub conn_overlap: u64,
    /// Intervals the *live* state machine saw as congested or frozen.
    pub live_congested: usize,
    /// Intervals the *live* state machine saw as frozen.
    pub live_frozen: usize,
}

impl OnlineReport {
    /// Number of congested intervals (including frozen ones) in the final
    /// states.
    pub fn congested_intervals(&self) -> usize {
        detect::tally(&self.states).0
    }

    /// Number of frozen (POI) intervals in the final states.
    pub fn frozen_intervals(&self) -> usize {
        detect::tally(&self.states).1
    }

    /// Fraction of non-idle intervals that are congested.
    pub fn congestion_ratio(&self) -> f64 {
        detect::congestion_ratio(&self.states)
    }
}

/// Everything [`OnlineDetector::finish`] produces: the per-server reports
/// plus any verdicts emitted while finalizing the tail of the grid (which
/// would otherwise be lost — the detector is consumed).
#[derive(Debug, Clone)]
pub struct OnlineFinish {
    /// Final per-server reports, ordered by server id.
    pub reports: Vec<OnlineReport>,
    /// Verdicts not yet drained, including tail-finalization ones.
    pub events: Vec<MonitorEvent>,
}

#[derive(Debug)]
struct ServerState {
    server: NodeId,
    wu_us: u64,
    /// Open requests: the pairing rule, and — as the head of its
    /// arrival-ordered list — the watermark's earliest open arrival.
    open: OpenTable<()>,
    /// Accumulators of the not-yet-finalized intervals; `ring.base()` is
    /// the number finalized.
    ring: IntervalRing,
    /// Finalized intervals' `IntervalRing::pop` triples: the final report's
    /// series, and (the last [`LIVE_WINDOW`]) the live N\* fit's samples.
    retained: Vec<(u64, u32, u64)>,
    /// Completions closed before calibration, by `ClassId.0`: the interval
    /// each was counted in and its residence in µs (module docs).
    held: Vec<Vec<(u32, u32)>>,
    live_nstar: Option<NStar>,
    streak: usize,
    streak_start: usize,
    clear_streak: usize,
    clear_start: usize,
    congested_now: bool,
    last_load: f64,
    last_rate: f64,
    live_congested: usize,
    live_frozen: usize,
    matched: u64,
    unmatched: usize,
}

impl ServerState {
    fn new(server: NodeId, wu_us: u64, cfg: &OnlineConfig) -> ServerState {
        ServerState {
            server,
            wu_us,
            open: OpenTable::default(),
            ring: IntervalRing::open_ended(cfg.start, cfg.interval),
            retained: Vec::new(),
            held: Vec::new(),
            live_nstar: None,
            streak: 0,
            streak_start: 0,
            clear_streak: 0,
            clear_start: 0,
            congested_now: false,
            last_load: 0.0,
            last_rate: 0.0,
            live_congested: 0,
            live_frozen: 0,
            matched: 0,
            unmatched: 0,
        }
    }

    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ring.state_bytes()
            + self.open.state_bytes()
            + self.retained.len() * size_of::<(u64, u32, u64)>()
    }

    /// Bytes of the held completions (while uncalibrated).
    fn held_bytes(&self) -> usize {
        let pairs: usize = self.held.iter().map(Vec::len).sum();
        pairs * std::mem::size_of::<(u32, u32)>()
    }

    /// Folds a span closed before calibration into the ring without its
    /// service time, and holds its departure interval and residence under
    /// its class for [`OnlineDetector::calibrate`] to weigh.
    fn hold(&mut self, class: ClassId, arrival_us: u64, departure_us: u64) {
        let Some(index) = self.ring.add_span(arrival_us, departure_us) else {
            return;
        };
        let index = u32::try_from(index).expect("a held span departs past interval u32::MAX");
        // Saturated: weighing reads it only as `min(residence, work unit)`.
        let residence_us = departure_us.saturating_sub(arrival_us);
        let residence_us = u32::try_from(residence_us).unwrap_or(u32::MAX);
        let class = class.0 as usize;
        if class >= self.held.len() {
            self.held.resize_with(class + 1, Vec::new);
        }
        self.held[class].push((index, residence_us));
    }
}

/// The streaming detector: one instance consumes one time-ordered record
/// stream and serves all servers appearing in it.
#[derive(Debug)]
pub struct OnlineDetector {
    cfg: OnlineConfig,
    services: ServiceTimeTable,
    service_cache: ServiceCache,
    wu_default_us: u64,
    /// Work units set before their server's first record.
    wu_overrides: FxHashMap<u16, u64>,
    /// Per-server state, indexed by `NodeId.0`.
    servers: Vec<Option<Box<ServerState>>>,
    /// Spans closed before [`calibrate`](Self::calibrate); `None` once
    /// calibrated.
    held: Option<usize>,
    cur_us: u64,
    records: u64,
    /// Records stamped before stream time (see the module docs).
    reordered: u64,
    events: Vec<MonitorEvent>,
}

impl OnlineDetector {
    /// Creates a detector over the given grid and calibration: an
    /// [`uncalibrated`](Self::uncalibrated) one calibrated at zero records.
    ///
    /// # Panics
    ///
    /// Panics if `interval` or `work_unit` is zero.
    pub fn new(cfg: OnlineConfig, services: ServiceTimeTable) -> OnlineDetector {
        let mut det = OnlineDetector::uncalibrated(cfg);
        det.calibrate(services, []);
        det
    }

    /// Creates a detector that pairs records but holds the spans they close
    /// until [`calibrate`](Self::calibrate) (see the module docs).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn uncalibrated(cfg: OnlineConfig) -> OnlineDetector {
        assert!(!cfg.interval.is_zero(), "interval must be positive");
        assert!(!cfg.work_unit.is_zero(), "work unit must be positive");
        OnlineDetector {
            wu_default_us: cfg.work_unit.as_micros(),
            wu_overrides: FxHashMap::default(),
            cfg,
            services: ServiceTimeTable::new(),
            service_cache: ServiceCache::default(),
            servers: Vec::new(),
            held: Some(0),
            cur_us: 0,
            records: 0,
            reordered: 0,
            events: Vec::new(),
        }
    }

    /// Supplies the service times and per-server work units, weighs every
    /// held completion into its server's ring and finalizes each server up
    /// to its watermark; from here on spans are weighed as they close.
    ///
    /// # Panics
    ///
    /// Panics if the detector is already calibrated, a work unit is zero,
    /// or a server with held completions has a work unit of `2^32` µs or
    /// more (its held residences are saturated `u32`s, see the module docs).
    pub fn calibrate(
        &mut self,
        services: ServiceTimeTable,
        work_units: impl IntoIterator<Item = (NodeId, SimDuration)>,
    ) {
        self.held.take().expect("detector calibrated twice");
        self.services = services;
        for (server, work_unit) in work_units {
            self.set_work_unit(server, work_unit);
        }
        let (services, cache, cur_us) = (&self.services, &mut self.service_cache, self.cur_us);
        for state in self.servers.iter_mut().flatten() {
            let (server, wu_us) = (state.server, state.wu_us);
            let held = std::mem::take(&mut state.held);
            assert!(
                held.is_empty() || wu_us <= u64::from(u32::MAX),
                "work unit of {server:?} too long to weigh held spans"
            );
            for (class, completions) in held.into_iter().enumerate() {
                let class = ClassId(class as u16);
                for (index, residence_us) in completions {
                    let service_us =
                        cache.service_us(services, server, class, residence_us.into(), wu_us);
                    state.ring.add_service(index as usize, service_us);
                }
            }
            let target = Self::watermark_index(state, cur_us);
            Self::finalize_to(state, target, cur_us, &self.cfg, &mut self.events);
        }
    }

    /// Spans held for weighing at calibration (0 once calibrated).
    pub fn held_spans(&self) -> usize {
        self.held.unwrap_or(0)
    }

    /// Overrides the work unit for one server (the batch pipeline
    /// calibrates one per server). Applies to spans weighed after the call
    /// — while uncalibrated, every span — so set it before streaming or
    /// through [`calibrate`](Self::calibrate) for batch equivalence.
    ///
    /// # Panics
    ///
    /// Panics if `work_unit` is zero.
    pub fn set_work_unit(&mut self, server: NodeId, work_unit: SimDuration) {
        assert!(!work_unit.is_zero(), "work unit must be positive");
        let wu = work_unit.as_micros();
        self.wu_overrides.insert(server.0, wu);
        if let Some(Some(state)) = self.servers.get_mut(server.0 as usize) {
            state.wu_us = wu;
        }
    }

    /// Stream time of the last consumed record.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.cur_us)
    }

    /// Consumes one record. Records must arrive in non-decreasing time
    /// order (the capture contract); one that does not is counted, not
    /// repaired.
    pub fn push(&mut self, rec: &MsgRecord) {
        let at_us = rec.at.as_micros();
        if at_us < self.cur_us {
            self.reordered += 1;
        } else {
            self.cur_us = at_us;
        }
        self.records += 1;
        let server = rec.span_node();
        let state = server_slot(&mut self.servers, server, || {
            let wu_us = self.wu_overrides.get(&server.0).copied();
            ServerState::new(server, wu_us.unwrap_or(self.wu_default_us), &self.cfg)
        });
        match rec.kind {
            MsgKind::Request => _ = state.open.open(rec.conn, rec.at, rec.class, ()),
            MsgKind::Response => match state.open.close(rec.conn) {
                None => state.unmatched += 1,
                Some((arrival, class, ())) => {
                    state.matched += 1;
                    let arrival_us = arrival.as_micros();
                    let (services, cache) = (&self.services, &mut self.service_cache);
                    match &mut self.held {
                        Some(held) => {
                            *held += 1;
                            state.hold(class, arrival_us, at_us);
                        }
                        None => Self::weigh(state, services, cache, class, arrival_us, at_us),
                    }
                }
            },
        }
        // Add-then-finalize: the watermark only advances once the record's
        // own effect is in the ring.
        if self.held.is_none() {
            let target = Self::watermark_index(state, self.cur_us);
            Self::finalize_to(state, target, self.cur_us, &self.cfg, &mut self.events);
        }
    }

    /// Folds one matched span into its server's ring, its completion
    /// weighed by the calibrated service time.
    #[inline]
    fn weigh(
        state: &mut ServerState,
        services: &ServiceTimeTable,
        cache: &mut ServiceCache,
        class: ClassId,
        arrival_us: u64,
        departure_us: u64,
    ) {
        let (server, wu_us) = (state.server, state.wu_us);
        state.ring.add(arrival_us, departure_us, || {
            let residence_us = departure_us.saturating_sub(arrival_us);
            cache.service_us(services, server, class, residence_us, wu_us)
        });
    }

    /// The interval holding the server's watermark, `min(earliest open
    /// arrival, stream time)`: every interval before it is final.
    fn watermark_index(state: &ServerState, cur_us: u64) -> usize {
        let wm = state
            .open
            .min_open()
            .map_or(cur_us, |a| a.as_micros().min(cur_us));
        state.ring.index_of(wm)
    }

    /// Consumes a chunk of records.
    pub fn push_chunk(&mut self, recs: &[MsgRecord]) {
        for r in recs {
            self.push(r);
        }
    }

    /// Finalizes intervals `state.ring.base() .. target`: retains and
    /// materializes each one, refits the live N\* on the last
    /// [`LIVE_WINDOW`] every [`REFIT_EVERY`], runs the hysteresis state
    /// machine and emits verdicts.
    fn finalize_to(
        state: &mut ServerState,
        target: usize,
        cur_us: u64,
        cfg: &OnlineConfig,
        events: &mut Vec<MonitorEvent>,
    ) {
        let detector = DetectorConfig::default();
        let (interval, wu_us) = (cfg.interval, state.wu_us);
        while state.ring.base() < target {
            let index = state.ring.base();
            let (overlap_us, count, service_us) = state.ring.pop();
            let (load, _units, rate) = materialize(overlap_us, service_us, interval, wu_us);
            state.last_load = load;
            state.last_rate = rate;
            state.retained.push((overlap_us, count, service_us));
            let finalized = state.retained.len();
            if finalized.is_multiple_of(REFIT_EVERY) {
                let window = &state.retained[finalized.saturating_sub(LIVE_WINDOW)..];
                let (ld, tp): (Vec<f64>, Vec<f64>) = (window.iter())
                    .map(|&(o, _, s)| materialize(o, s, interval, wu_us))
                    .map(|(load, _units, rate)| (load, rate))
                    .unzip();
                state.live_nstar = fit_mainseq(&ld, &tp, &detector);
            }
            let verdict = classify_one(load, rate, state.live_nstar.as_ref(), &detector);
            let congested = matches!(verdict, IntervalState::Congested | IntervalState::Frozen);
            if congested {
                state.live_congested += 1;
                if matches!(verdict, IntervalState::Frozen) {
                    state.live_frozen += 1;
                }
                if state.streak == 0 {
                    state.streak_start = index;
                }
                state.streak += 1;
                state.clear_streak = 0;
                if !state.congested_now && state.streak >= HYSTERESIS {
                    state.congested_now = true;
                    events.push(Self::event(state, VerdictKind::Onset, cur_us, load, rate));
                }
            } else {
                if state.clear_streak == 0 {
                    state.clear_start = index;
                }
                state.clear_streak += 1;
                state.streak = 0;
                if state.congested_now && state.clear_streak >= HYSTERESIS {
                    state.congested_now = false;
                    events.push(Self::event(state, VerdictKind::Clear, cur_us, load, rate));
                }
            }
        }
    }

    /// The verdict for the flip `kind`, dated at the first interval of the
    /// streak that caused it.
    fn event(
        state: &ServerState,
        kind: VerdictKind,
        cur_us: u64,
        load: f64,
        rate: f64,
    ) -> MonitorEvent {
        let interval = match kind {
            VerdictKind::Onset => state.streak_start,
            VerdictKind::Clear => state.clear_start,
        };
        let end_us = state.ring.end_of(interval);
        MonitorEvent {
            server: state.server,
            kind,
            interval,
            interval_end: SimTime::from_micros(end_us),
            nstar: state.live_nstar.as_ref().map(|e| e.nstar),
            tp_max: state.live_nstar.as_ref().map_or(0.0, |e| e.tp_max),
            load,
            rate,
            queue_depth: state.open.len(),
            detect_latency: SimTime::from_micros(cur_us.max(end_us)) - SimTime::from_micros(end_us),
        }
    }

    /// Takes all verdicts emitted since the last drain.
    pub fn drain_events(&mut self) -> Vec<MonitorEvent> {
        std::mem::take(&mut self.events)
    }

    /// A point-in-time view for heartbeat emission.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let cur_us = self.cur_us;
        let mut spans_in_flight = 0;
        let mut min_wm = cur_us;
        let mut servers = Vec::new();
        for s in self.servers.iter().flatten() {
            spans_in_flight += s.open.len();
            if let Some(a) = s.open.min_open() {
                min_wm = min_wm.min(a.as_micros());
            }
            servers.push(ServerSnapshot {
                server: s.server,
                finalized: s.ring.base(),
                congested_now: s.congested_now,
                live_nstar: s.live_nstar.as_ref().map(|e| e.nstar),
                open_requests: s.open.len(),
                last_load: s.last_load,
                last_rate: s.last_rate,
                congested_intervals: s.live_congested,
                frozen_intervals: s.live_frozen,
            });
        }
        if self.held.is_some() {
            // Nothing is final before calibration: verdicts trail the grid.
            min_wm = self.cfg.start.as_micros().min(cur_us);
        }
        MonitorSnapshot {
            at: SimTime::from_micros(cur_us),
            records: self.records,
            spans_in_flight,
            lag: SimTime::from_micros(cur_us) - SimTime::from_micros(min_wm),
            state_bytes: self.state_bytes(),
            servers,
        }
    }

    /// Bytes of detector state.
    pub fn state_bytes(&self) -> usize {
        let servers = self.servers.iter().flatten();
        servers.map(|s| s.state_bytes() + s.held_bytes()).sum()
    }

    /// Ends the stream at `end`, resolving the grid to
    /// `Window::new(start, end, interval)`: finalizes every whole interval,
    /// drops accumulators past the grid (the unclamped-accumulation
    /// counterpart of the batch grid-end clamp), counts still-open
    /// requests as unmatched, and reports on the grid's series through
    /// `analyze_server`'s own tail,
    /// [`ServerReport::from_series`], reproducing it bit-for-bit. Reports
    /// are ordered by server id; verdicts emitted by the tail finalization
    /// ride along in [`OnlineFinish::events`].
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` (the `Window::new` contract) or the detector
    /// was never calibrated.
    pub fn finish(mut self, end: SimTime) -> OnlineFinish {
        assert!(self.held.is_none(), "finish before calibrate");
        let window = Window::new(self.cfg.start, end, self.cfg.interval);
        let len = window.len();
        let mut out = Vec::new();
        let mut late = 0;
        for mut state in std::mem::take(&mut self.servers).into_iter().flatten() {
            late += state.ring.late();
            // Requests lost or still open at stream end never become
            // spans; the batch extractor counts them unmatched.
            state.unmatched += state.open.len() + state.open.lost() as usize;
            Self::finalize_to(&mut state, len, self.cur_us, &self.cfg, &mut self.events);
            // Intervals finalized past the grid end (the stream ran beyond
            // `end`) are not part of the grid.
            let (wu, retained) = (state.wu_us, std::mem::take(&mut state.retained));
            let series = SeriesSet::from_pops(window, SimDuration::from_micros(wu), retained);
            let report =
                ServerReport::from_series(state.server, &series, &DetectorConfig::default());
            out.push(OnlineReport {
                server: state.server,
                window,
                nstar: report.nstar,
                states: report.states,
                loads: report.load.values().to_vec(),
                rates: report.tput.unit_rates(),
                series,
                matched: state.matched,
                unmatched: state.unmatched,
                conn_overlap: state.open.lost(),
                live_congested: state.live_congested,
                live_frozen: state.live_frozen,
            });
        }
        if fgbd_obsv::enabled() {
            // Retained: 0 on a time-ordered, lossless stream is the finding.
            fgbd_obsv::metrics::counter_retained("trace.reordered").add(self.reordered);
            fgbd_obsv::metrics::counter_retained("trace.late_spans").add(late);
            let lost = out.iter().map(|r| r.conn_overlap).sum();
            fgbd_obsv::metrics::counter_retained("trace.conn_overlap").add(lost);
        }
        OnlineFinish {
            reports: out,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::analyze_server;
    use fgbd_trace::{ClassId, ConnId, NodeKind, NodeMeta, SpanSet, TraceLog};

    fn rec(at_us: u64, src: u16, dst: u16, kind: MsgKind, conn: u32, class: u16) -> MsgRecord {
        MsgRecord {
            at: SimTime::from_micros(at_us),
            src: NodeId(src),
            dst: NodeId(dst),
            kind,
            conn: ConnId(conn),
            class: ClassId(class),
            bytes: 100,
            truth: None,
        }
    }

    fn nodes() -> Vec<NodeMeta> {
        vec![
            NodeMeta {
                id: NodeId(0),
                name: "client".into(),
                kind: NodeKind::Client,
                tier: None,
            },
            NodeMeta {
                id: NodeId(1),
                name: "web".into(),
                kind: NodeKind::Server,
                tier: Some(0),
            },
        ]
    }

    /// A record stream with an idle phase, a steady phase, and a burst of
    /// overlapping requests (congestion), all on reused connections.
    fn demo_records() -> Vec<MsgRecord> {
        let mut recs = Vec::new();
        // Steady: serial requests on conn 1, 10 ms residence each.
        for i in 0..100u64 {
            recs.push(rec(i * 20_000, 0, 1, MsgKind::Request, 1, 0));
            recs.push(rec(i * 20_000 + 10_000, 1, 0, MsgKind::Response, 1, 0));
        }
        // Burst at 2.0 s: 30 overlapping requests on conns 10..40 that all
        // drain slowly (transient congestion).
        for j in 0..30u64 {
            recs.push(rec(
                2_000_000 + j * 100,
                0,
                1,
                MsgKind::Request,
                10 + j as u32,
                0,
            ));
        }
        for j in 0..30u64 {
            recs.push(rec(
                2_200_000 + j * 8_000,
                1,
                0,
                MsgKind::Response,
                10 + j as u32,
                0,
            ));
        }
        // Post-burst steady tail.
        for i in 0..20u64 {
            recs.push(rec(2_500_000 + i * 20_000, 0, 1, MsgKind::Request, 1, 0));
            recs.push(rec(
                2_500_000 + i * 20_000 + 10_000,
                1,
                0,
                MsgKind::Response,
                1,
                0,
            ));
        }
        recs.sort_by_key(|r| r.at);
        recs
    }

    /// `n` demos back to back, 3 s apart.
    fn demo_cycles(n: u64) -> Vec<MsgRecord> {
        let demo = demo_records();
        let mut recs = Vec::new();
        for c in 0..n {
            let shift = SimDuration::from_secs(3 * c);
            recs.extend(demo.iter().map(|r| MsgRecord {
                at: r.at + shift,
                ..*r
            }));
        }
        recs
    }

    fn services() -> ServiceTimeTable {
        let mut t = ServiceTimeTable::new();
        t.insert(NodeId(1), ClassId(0), SimDuration::from_millis(10));
        t
    }

    fn online_cfg() -> OnlineConfig {
        OnlineConfig::new(
            SimTime::ZERO,
            SimDuration::from_millis(50),
            SimDuration::from_millis(10),
        )
    }

    /// A 10 ms grid: [`demo_cycles`] then spans more than [`LIVE_WINDOW`]
    /// intervals.
    fn fine_cfg() -> OnlineConfig {
        OnlineConfig::new(
            SimTime::ZERO,
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
        )
    }

    #[test]
    fn final_report_matches_batch_bit_for_bit() {
        let recs = demo_records();
        let end = SimTime::from_millis(2_930);
        // Batch path: materialize, extract, analyze.
        let mut log = TraceLog::new(nodes());
        for r in &recs {
            log.push(*r);
        }
        let spans = SpanSet::extract(&log);
        let window = Window::new(SimTime::ZERO, end, SimDuration::from_millis(50));
        let batch = analyze_server(
            spans.server(NodeId(1)),
            NodeId(1),
            window,
            &services(),
            SimDuration::from_millis(10),
            &DetectorConfig::default(),
        );
        // Online path: push the same records one at a time.
        let mut online = OnlineDetector::new(online_cfg(), services());
        for r in &recs {
            online.push(r);
        }
        let reports = online.finish(end).reports;
        assert_eq!(reports.len(), 1);
        let rep = &reports[0];
        assert_eq!(rep.server, NodeId(1));
        assert_eq!(rep.loads.len(), window.len());
        for i in 0..window.len() {
            assert_eq!(
                rep.loads[i].to_bits(),
                batch.load.get(i).to_bits(),
                "load bits diverge at interval {i}"
            );
            assert_eq!(
                rep.rates[i].to_bits(),
                batch.tput.unit_rate(i).to_bits(),
                "rate bits diverge at interval {i}"
            );
        }
        assert_eq!(rep.states, batch.states);
        match (&rep.nstar, &batch.nstar) {
            (Some(a), Some(b)) => {
                assert_eq!(a.nstar.to_bits(), b.nstar.to_bits());
                assert_eq!(a.tp_max.to_bits(), b.tp_max.to_bits());
            }
            (a, b) => assert_eq!(a.is_none(), b.is_none()),
        }
        assert_eq!(rep.matched as usize, spans.server(NodeId(1)).len());
        assert_eq!(rep.unmatched, 0);
    }

    #[test]
    fn chunking_does_not_change_results_or_events() {
        let recs = demo_cycles(6);
        let end = SimTime::from_millis(17_900);
        let run = |chunk: usize| {
            let mut online = OnlineDetector::new(fine_cfg(), services());
            let mut events = Vec::new();
            for c in recs.chunks(chunk) {
                online.push_chunk(c);
                events.extend(online.drain_events());
            }
            let fin = online.finish(end);
            events.extend(fin.events);
            (fin.reports, events)
        };
        let (rep1, ev1) = run(1);
        let (rep7, ev7) = run(7);
        let (rep_all, ev_all) = run(recs.len());
        assert!(!ev1.is_empty(), "the bursts raise verdicts");
        assert_eq!(rep1[0].states, rep7[0].states);
        assert_eq!(rep1[0].states, rep_all[0].states);
        for (a, b) in [(&ev1, &ev7), (&ev1, &ev_all)] {
            assert_eq!(a.len(), b.len(), "event counts diverge");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.interval, y.interval);
                assert_eq!(x.server, y.server);
            }
        }
    }

    #[test]
    fn verdict_stream_alternates_and_measures_latency() {
        // Six demos on a 10 ms grid: 1,789 finalized intervals, so the live
        // N\* is refit 27 times and the later fits see an evicting window.
        let recs = demo_cycles(6);
        let mut online = OnlineDetector::new(fine_cfg(), services());
        let mut events = Vec::new();
        for r in &recs {
            online.push(r);
            events.extend(online.drain_events());
        }
        assert!(online.snapshot().servers[0].finalized > LIVE_WINDOW);
        // The fits before the first burst see no knee, so it raises
        // nothing; each later burst is an onset and a clear.
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            let expect = if i % 2 == 0 {
                VerdictKind::Onset
            } else {
                VerdictKind::Clear
            };
            assert_eq!(e.kind, expect, "event {i} out of order");
            assert!(e.detect_latency >= SimDuration::ZERO);
        }
        assert!(events[0].interval_end > SimTime::from_secs(5));
    }

    #[test]
    fn unmatched_rules_match_batch() {
        // A front-truncated response and a never-answered request.
        let recs = vec![
            rec(100, 1, 0, MsgKind::Response, 9, 0),
            rec(200, 0, 1, MsgKind::Request, 1, 0),
            rec(300, 1, 0, MsgKind::Response, 1, 0),
            rec(400, 0, 1, MsgKind::Request, 2, 0),
        ];
        let mut log = TraceLog::new(nodes());
        for r in &recs {
            log.push(*r);
        }
        let spans = SpanSet::extract(&log);
        let mut online = OnlineDetector::new(online_cfg(), services());
        for r in &recs {
            online.push(r);
        }
        let reports = online.finish(SimTime::from_millis(50)).reports;
        assert_eq!(
            reports[0].unmatched,
            *spans.unmatched.get(&NodeId(1)).unwrap()
        );
        assert_eq!(reports[0].matched, 1);
    }

    #[test]
    fn snapshot_tracks_in_flight_and_lag() {
        let mut online = OnlineDetector::new(online_cfg(), services());
        online.push(&rec(10_000, 0, 1, MsgKind::Request, 1, 0));
        online.push(&rec(500_000, 0, 1, MsgKind::Request, 2, 0));
        let snap = online.snapshot();
        assert_eq!(snap.spans_in_flight, 2);
        // Watermark pinned at the oldest open arrival.
        assert_eq!(snap.lag, SimDuration::from_micros(490_000));
        assert_eq!(snap.servers.len(), 1);
        assert_eq!(snap.servers[0].open_requests, 2);
        assert!(snap.state_bytes > 0);
    }

    #[test]
    fn open_state_tracks_open_requests_under_pinned_watermark() {
        // One ancient open request pins the watermark while other
        // connections churn: pairing state is sized by the requests open at
        // once (here at most two), not by how many have come and gone.
        let mut online = OnlineDetector::new(online_cfg(), services());
        online.push(&rec(0, 0, 1, MsgKind::Request, 999, 0));
        let mut after_first_rounds = 0;
        for i in 0..10_000u64 {
            let t = 1_000 + i * 100;
            online.push(&rec(t, 0, 1, MsgKind::Request, 1 + (i % 8) as u32, 0));
            online.push(&rec(t + 50, 1, 0, MsgKind::Response, 1 + (i % 8) as u32, 0));
            if i == 15 {
                after_first_rounds = online.servers[1].as_ref().unwrap().open.state_bytes();
            }
        }
        let state = online.servers[1].as_ref().unwrap();
        assert_eq!(state.open.len(), 1);
        assert_eq!(
            state.open.state_bytes(),
            after_first_rounds,
            "open-request state grew with churn"
        );
        assert!(
            after_first_rounds < 1024,
            "{after_first_rounds} B for 2 open"
        );
        // The ring grows while the watermark is pinned (correctness over
        // memory until the request resolves) — resolve it and the ring
        // drains.
        assert_eq!(state.ring.base(), 0, "watermark pinned at the open request");
        online.push(&rec(2_000_000, 1, 0, MsgKind::Response, 999, 0));
        let state = online.servers[1].as_ref().unwrap();
        assert!(state.ring.base() > 0, "watermark released finalization");
        assert!(
            state.ring.len() <= 2,
            "ring drained after release: {}",
            state.ring.len()
        );
    }

    #[test]
    fn disorder_is_counted_and_the_watermark_is_the_true_open_minimum() {
        let mut online = OnlineDetector::new(online_cfg(), services());
        online.push(&rec(10_000, 0, 1, MsgKind::Request, 1, 0));
        // Stamped before stream time: it walks back ahead of 10,000 µs.
        online.push(&rec(9_000, 0, 1, MsgKind::Request, 4, 0));
        online.push(&rec(9_500, 0, 1, MsgKind::Request, 2, 0));
        online.push(&rec(12_000, 0, 1, MsgKind::Request, 3, 0));
        assert_eq!(online.reordered, 2);
        assert_eq!(
            online.now(),
            SimTime::from_micros(12_000),
            "time never moves back"
        );
        let snap = online.snapshot();
        assert_eq!(snap.lag, SimDuration::from_micros(3_000));
        // Closing the later-stamped request leaves the minimum in place;
        // closing the minimum moves the watermark to the next one.
        online.push(&rec(12_500, 1, 0, MsgKind::Response, 1, 0));
        assert_eq!(online.snapshot().lag, SimDuration::from_micros(3_500));
        online.push(&rec(13_000, 1, 0, MsgKind::Response, 4, 0));
        assert_eq!(online.snapshot().lag, SimDuration::from_micros(3_500));
        let fin = online.finish(SimTime::from_millis(50));
        assert_eq!((fin.reports[0].matched, fin.reports[0].unmatched), (2, 2));
        assert_eq!(fin.reports[0].conn_overlap, 0);
    }

    #[test]
    fn a_response_stamped_before_a_finalized_interval_is_counted_not_a_panic() {
        let cfg = OnlineConfig::new(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            SimDuration::from_millis(10),
        );
        let mut online = OnlineDetector::new(cfg, services());
        online.push(&rec(500_000, 0, 1, MsgKind::Request, 1, 0));
        online.push(&rec(700_000, 1, 0, MsgKind::Response, 1, 0));
        // The request finalizes intervals 0-2; its response is stamped in
        // interval 2.
        online.push(&rec(3_000_000, 0, 1, MsgKind::Request, 2, 0));
        assert_eq!(online.servers[1].as_ref().unwrap().ring.base(), 3);
        online.push(&rec(2_999_500, 1, 0, MsgKind::Response, 2, 0));
        // A late request resident across finalized intervals into open ones.
        online.push(&rec(1_500_000, 0, 1, MsgKind::Request, 3, 0));
        online.push(&rec(3_250_000, 1, 0, MsgKind::Response, 3, 0));
        assert_eq!(online.reordered, 2);
        let state = online.servers[1].as_ref().unwrap();
        assert_eq!(state.ring.late(), 2);
        let fin = online.finish(SimTime::from_secs(5));
        let report = &fin.reports[0];
        assert_eq!((report.matched, report.unmatched), (3, 0));
        // Interval 0 kept its span; the finalized intervals 1-2 stayed as
        // they were; interval 3 got only the late request's open part.
        assert_eq!(report.loads[..4], [0.2, 0.0, 0.0, 0.25]);
    }

    #[test]
    fn uncalibrated_detector_holds_spans_until_calibrated() {
        let recs = demo_records();
        let mut online = OnlineDetector::uncalibrated(online_cfg());
        online.push_chunk(&recs);
        assert_eq!(online.held_spans(), recs.len() / 2);
        let snap = online.snapshot();
        assert_eq!(
            snap.servers[0].finalized, 0,
            "nothing final before calibration"
        );
        let last_us = recs.last().unwrap().at.as_micros();
        // Nothing is open, but nothing is final: lag runs from the grid start.
        assert_eq!(snap.lag, SimDuration::from_micros(last_us));
        online.calibrate(services(), []);
        assert_eq!(online.held_spans(), 0);
        let snap = online.snapshot();
        assert_eq!(snap.lag, SimDuration::ZERO);
        let finalized = snap.servers[0].finalized;
        assert_eq!(finalized as u64, last_us / 50_000, "all before stream time");
    }

    #[test]
    fn wide_held_spans_weigh_as_if_calibrated_before_they_closed() {
        let long = u64::from(u32::MAX);
        let mut recs = demo_records();
        // Past the demo's 2.93 s: a response stamped before its request (a
        // reordered capture; in the same interval, which the calibrated
        // detector has not finalized), then residences one short of, at
        // and past the `u32` range, and two spans of class 9, which the
        // service table lacks: they weigh their residence capped at the
        // 10 ms work unit, the second one from a saturated residence.
        let t0 = 3_000_600;
        recs.push(rec(t0, 0, 1, MsgKind::Request, 50, 0));
        recs.push(rec(t0 - 500, 1, 0, MsgKind::Response, 50, 0));
        let spans = [
            (51, long - 1, 0),
            (52, long, 0),
            (53, long + 7, 0),
            (54, 3_000, 9),
            (55, long + 7, 9),
        ];
        for (conn, residence, class) in spans {
            recs.push(rec(t0 + conn, 0, 1, MsgKind::Request, conn as u32, class));
            recs.push(rec(
                t0 + conn + residence,
                1,
                0,
                MsgKind::Response,
                conn as u32,
                class,
            ));
        }
        let mut tail = recs.split_off(recs.len() - 10);
        tail.sort_by_key(|r| r.at);
        recs.extend(tail);
        // A 1 s grid keeps the 72-minute spans to a few thousand intervals.
        let cfg = || {
            OnlineConfig::new(
                SimTime::ZERO,
                SimDuration::from_secs(1),
                SimDuration::from_millis(10),
            )
        };
        let mut early = OnlineDetector::new(cfg(), services());
        let mut late = OnlineDetector::uncalibrated(cfg());
        early.push_chunk(&recs);
        late.push_chunk(&recs);
        assert_eq!(late.held_spans(), recs.len() / 2);
        // What holding adds to the state: at most 8 B per held span.
        let unheld: usize = late.servers.iter().flatten().map(|s| s.state_bytes()).sum();
        let held_bytes = late.state_bytes() - unheld;
        assert!(
            held_bytes <= 8 * late.held_spans() + 64,
            "{held_bytes} B for {} held spans",
            late.held_spans()
        );
        late.calibrate(services(), []);
        let end = recs.last().unwrap().at + SimDuration::from_secs(1);
        let (early, late) = (early.finish(end).reports, late.finish(end).reports);
        assert_eq!(early.len(), 1);
        let (a, b) = (&early[0], &late[0]);
        assert_eq!((a.matched, a.unmatched), (b.matched, b.unmatched));
        assert_eq!(a.loads.len(), b.loads.len());
        for (x, y) in a.loads.iter().zip(&b.loads) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.rates.iter().zip(&b.rates) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.states, b.states);
        let bits = |r: &OnlineReport| {
            r.nstar
                .as_ref()
                .map(|n| (n.nstar.to_bits(), n.tp_max.to_bits()))
        };
        assert_eq!(bits(a), bits(b));
        // The class-9 fallback: interval 3 holds the reordered span's
        // 10 ms and conn 54's 3 ms residence; the last completion interval
        // the three long class-0 spans' 30 ms and conn 55's capped 10 ms.
        let tput = b.series.tput();
        assert_eq!((tput.count(3), tput.units(3)), (2, 1.3));
        let last = ((t0 + 55 + long + 7) / 1_000_000) as usize;
        assert_eq!((tput.count(last), tput.units(last)), (4, 4.0));
    }
}
