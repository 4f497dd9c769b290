//! Per-class service-time approximation (paper §III-B, "Service time
//! approximation").
//!
//! Throughput normalization needs, for every `(server, class)`, the *service
//! time* — the intra-node delay a request of that class experiences when no
//! queueing is present. The paper measures it online from the passive trace
//! "when the production system is under low workload in order to mask out
//! the queueing effects inside a server", and recomputes it as service times
//! drift.
//!
//! Here the intra-node delay of a reconstructed span is its residence time
//! minus the residence of its direct children (time the thread was blocked
//! downstream, which includes two network hops per call — a small known bias
//! documented on [`ServiceTimeTable::approximate`]). A low quantile over the
//! observed delays approximates the queueing-free service time, over the
//! whole capture or over the spans arriving in one window
//! ([`ServiceFold::with_window`]) — the recomputation drift calls for.

use std::collections::HashMap;

use fgbd_des::hash::FxHashMap;
use fgbd_des::{SimDuration, SimTime};

use crate::reconstruct::{Attribution, Consumer, Reconstruction};
use crate::record::{ClassId, MsgRecord, NodeId, NodeMeta};

/// Per-`(server, class)` service-time estimates in seconds, each with the
/// number of spans of that class the estimate was measured over (the class
/// mix [`mean_service`](Self::mean_service) weighs by).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceTimeTable {
    map: HashMap<(NodeId, ClassId), (f64, u64)>,
}

/// Per key: the spans retired, and their positive intra-node delays.
type Delays = (u64, Vec<f64>);

impl ServiceTimeTable {
    /// An empty table (populate with [`ServiceTimeTable::insert`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates service times from a reconstruction, taking the `quantile`
    /// (in `[0,1]`; the paper's low-load measurement corresponds to a low
    /// quantile such as 0.1) of intra-node delays per `(server, class)`.
    ///
    /// The intra-node delay subtracts direct children's residence times, so
    /// it over-counts by one network round-trip per downstream call; with
    /// LAN latencies (hundreds of microseconds) against millisecond service
    /// times this bias is small and constant per class, which normalization
    /// tolerates.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn approximate(rec: &Reconstruction, quantile: f64) -> Self {
        // Sum of child residences per parent span.
        let mut child_wait = vec![0.0f64; rec.spans.len()];
        for s in &rec.spans {
            if let (Some(p), Some(dep)) = (s.parent, s.departure) {
                child_wait[p] += (dep - s.arrival).as_secs_f64();
            }
        }
        let mut samples: HashMap<(NodeId, ClassId), Delays> = HashMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            let Some(dep) = s.departure else { continue };
            let intra = (dep - s.arrival).as_secs_f64() - child_wait[i];
            let (spans, delays) = samples.entry((s.server, s.class)).or_default();
            *spans += 1;
            if intra > 0.0 {
                delays.push(intra);
            }
        }
        ServiceTimeTable::quantiles(samples, quantile)
    }

    /// The `quantile` order statistic of each key's delays, with its span
    /// count: a selection, not a sort. A key with no positive delay has no
    /// service time.
    fn quantiles(
        delays: impl IntoIterator<Item = ((NodeId, ClassId), Delays)>,
        quantile: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&quantile), "quantile out of range");
        let select = |(key, (spans, mut xs)): (_, Delays)| {
            let idx = ((xs.len().checked_sub(1)?) as f64 * quantile).round() as usize;
            let by = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaN delays");
            Some((key, (*xs.select_nth_unstable_by(idx, by).1, spans)))
        };
        let map = delays.into_iter().filter_map(select).collect();
        ServiceTimeTable { map }
    }

    /// Sets the service time for `(server, class)` directly (synthetic
    /// workloads, tests), counting no span.
    pub fn insert(&mut self, server: NodeId, class: ClassId, service: SimDuration) {
        self.map.insert((server, class), (service.as_secs_f64(), 0));
    }

    /// The estimated service time, if that class was observed on that
    /// server.
    pub fn get(&self, server: NodeId, class: ClassId) -> Option<SimDuration> {
        self.get_secs(server, class).map(SimDuration::from_secs_f64)
    }

    /// Service time in fractional seconds (convenient for normalization
    /// arithmetic).
    pub fn get_secs(&self, server: NodeId, class: ClassId) -> Option<f64> {
        self.map.get(&(server, class)).map(|&(secs, _)| secs)
    }

    /// The mean service time of the spans `server` was measured over: each
    /// class's service time weighted by its span count, `Σ n_c·s_c / Σ n_c`
    /// over the classes that have a service time. `None` if no such span
    /// was counted (a table built by [`insert`](Self::insert)).
    pub fn mean_service(&self, server: NodeId) -> Option<SimDuration> {
        let mut classes: Vec<_> = self.map.iter().filter(|(k, _)| k.0 == server).collect();
        // Class order, not hash order, so every process sums alike.
        classes.sort_unstable_by_key(|&(k, _)| k.1);
        let spans: u64 = classes.iter().map(|(_, e)| e.1).sum();
        let total: f64 = classes.iter().map(|(_, e)| e.1 as f64 * e.0).sum();
        (spans > 0).then(|| SimDuration::from_secs_f64(total / spans as f64))
    }

    /// Classes observed on `server`, ascending.
    pub fn classes(&self, server: NodeId) -> Vec<ClassId> {
        let mut cs: Vec<ClassId> = self
            .map
            .keys()
            .filter(|(s, _)| *s == server)
            .map(|(_, c)| *c)
            .collect();
        cs.sort();
        cs
    }

    /// The paper's *work unit* for a server: the greatest common divisor of
    /// its classes' service times (§III-B; e.g. 30 ms and 10 ms → 10 ms).
    ///
    /// Real-valued times have no exact GCD, so times are first rounded to
    /// `resolution`; the result is never smaller than `resolution`.
    ///
    /// Returns `None` if no class was observed on `server`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn work_unit(&self, server: NodeId, resolution: SimDuration) -> Option<SimDuration> {
        assert!(!resolution.is_zero(), "resolution must be positive");
        let res = resolution.as_micros();
        let mut g: Option<u64> = None;
        for (&(s, _), &(secs, _)) in &self.map {
            if s != server {
                continue;
            }
            let q = ((secs * 1e6 / res as f64).round() as u64).max(1) * res;
            g = Some(match g {
                None => q,
                Some(prev) => gcd(prev, q),
            });
        }
        g.map(|us| SimDuration::from_micros(us.max(res)))
    }

    /// Number of `(server, class)` entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The fold's consumer: per `(server, class)`, the spans arriving in
/// `[from, to)` and their positive intra-node delays, one entry for both.
struct Window {
    from: SimTime,
    to: SimTime,
    by_key: FxHashMap<(NodeId, ClassId), Delays>,
}

impl Consumer for Window {
    fn retired(&mut self, server: NodeId, class: ClassId, arrival: SimTime, intra: f64) {
        if (self.from..self.to).contains(&arrival) {
            let (spans, delays) = self.by_key.entry((server, class)).or_default();
            *spans += 1;
            if intra > 0.0 {
                delays.push(intra);
            }
        }
    }
}

/// [`ServiceTimeTable::approximate`] as a fold over the capture: records go
/// in one at a time, in capture order, the attribution core holds a span
/// only while it or one of its children is open, and its intra-node delay
/// is all that is kept. Bit-identical to `approximate` over
/// [`Reconstruction::run`] (the `service_fold_matches_approximate` property),
/// and, [windowed](Self::with_window), to its specification restricted to
/// the spans arriving in the window.
pub struct ServiceFold {
    core: Attribution,
    window: Window,
}

impl ServiceFold {
    /// A fold over every span of a capture with node table `nodes`.
    pub fn new(nodes: &[NodeMeta]) -> ServiceFold {
        ServiceFold {
            core: Attribution::new(nodes),
            window: Window {
                from: SimTime::ZERO,
                to: SimTime::MAX,
                by_key: FxHashMap::default(),
            },
        }
    }

    /// Keeps only the spans arriving in `[from, to)`: calibration on a
    /// known low-load window, or on the most recent one as service times
    /// drift. Every record still goes through [`push`](Self::push), since a
    /// span's parent and children may lie outside the window.
    pub fn with_window(mut self, from: SimTime, to: SimTime) -> ServiceFold {
        (self.window.from, self.window.to) = (from, to);
        self
    }

    /// Consumes the next record of the capture.
    #[inline]
    pub fn push(&mut self, rec: &MsgRecord) {
        self.core.push(rec, &mut self.window);
    }

    /// Ends the capture: the `quantile` of each `(server, class)`'s delays,
    /// counted by the spans it retired.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn finish(mut self, quantile: f64) -> ServiceTimeTable {
        self.core.finish(&mut self.window);
        ServiceTimeTable::quantiles(self.window.by_key, quantile)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::Heuristic;
    use crate::record::{MsgKind, NodeKind, TraceLog, TxnId};
    use crate::ConnId;

    const CLIENT: NodeId = NodeId(0);
    const WEB: NodeId = NodeId(1);
    const APP: NodeId = NodeId(2);

    fn nodes() -> Vec<NodeMeta> {
        vec![
            NodeMeta {
                id: CLIENT,
                name: "client".into(),
                kind: NodeKind::Client,
                tier: None,
            },
            NodeMeta {
                id: WEB,
                name: "web".into(),
                kind: NodeKind::Server,
                tier: Some(0),
            },
            NodeMeta {
                id: APP,
                name: "app".into(),
                kind: NodeKind::Server,
                tier: Some(1),
            },
        ]
    }

    fn rec(
        at: u64,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        conn: u32,
        class: u16,
        truth: u64,
    ) -> MsgRecord {
        MsgRecord {
            at: SimTime::from_micros(at),
            src,
            dst,
            kind,
            conn: ConnId(conn),
            class: ClassId(class),
            bytes: 64,
            truth: Some(TxnId(truth)),
        }
    }

    /// One serial transaction: web residence 100us around an app call of
    /// 40us -> web intra-node delay 60us; app service 40us.
    fn one_txn(log: &mut TraceLog, base: u64, conn: u32, truth: u64) {
        log.push(rec(base, CLIENT, WEB, MsgKind::Request, conn, 1, truth));
        log.push(rec(
            base + 30,
            WEB,
            APP,
            MsgKind::Request,
            100 + conn,
            1,
            truth,
        ));
        log.push(rec(
            base + 70,
            APP,
            WEB,
            MsgKind::Response,
            100 + conn,
            1,
            truth,
        ));
        log.push(rec(
            base + 100,
            WEB,
            CLIENT,
            MsgKind::Response,
            conn,
            1,
            truth,
        ));
    }

    #[test]
    fn intra_node_delay_subtracts_child_wait() {
        let mut log = TraceLog::new(nodes());
        for i in 0..5 {
            one_txn(&mut log, i * 1_000, 10 + i as u32, i + 1);
        }
        let r = Reconstruction::run(&log, Heuristic::ProfileGuided);
        let t = ServiceTimeTable::approximate(&r, 0.5);
        assert_eq!(t.get(WEB, ClassId(1)), Some(SimDuration::from_micros(60)));
        assert_eq!(t.get(APP, ClassId(1)), Some(SimDuration::from_micros(40)));
        assert_eq!(t.classes(WEB), vec![ClassId(1)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn low_quantile_masks_queueing() {
        // Class 2 at APP: true service 40us, but some spans are inflated by
        // queueing; the low quantile should recover ~40us.
        let mut log = TraceLog::new(nodes());
        let mut push_app = |base: u64, dur: u64, conn: u32, truth: u64| {
            log.push(rec(base, WEB, APP, MsgKind::Request, conn, 2, truth));
            log.push(rec(base + dur, APP, WEB, MsgKind::Response, conn, 2, truth));
        };
        for i in 0..8u64 {
            push_app(i * 1_000, 40, 200 + i as u32, i);
        }
        for i in 8..10u64 {
            push_app(i * 1_000, 400, 200 + i as u32, i); // queued
        }
        let r = Reconstruction::run(&log, Heuristic::ProfileGuided);
        let t = ServiceTimeTable::approximate(&r, 0.1);
        assert_eq!(t.get(APP, ClassId(2)), Some(SimDuration::from_micros(40)));
        // The high quantile sees the inflated ones.
        let t90 = ServiceTimeTable::approximate(&r, 0.95);
        assert_eq!(
            t90.get(APP, ClassId(2)),
            Some(SimDuration::from_micros(400))
        );
    }

    #[test]
    fn window_restricts_samples() {
        let mut log = TraceLog::new(nodes());
        // Early window: 40us services; late window: 80us (drift).
        for i in 0..4u64 {
            log.push(rec(
                i * 100,
                WEB,
                APP,
                MsgKind::Request,
                300 + i as u32,
                3,
                i,
            ));
            log.push(rec(
                i * 100 + 40,
                APP,
                WEB,
                MsgKind::Response,
                300 + i as u32,
                3,
                i,
            ));
        }
        for i in 0..4u64 {
            let base = 1_000_000 + i * 100;
            log.push(rec(
                base,
                WEB,
                APP,
                MsgKind::Request,
                400 + i as u32,
                3,
                10 + i,
            ));
            log.push(rec(
                base + 80,
                APP,
                WEB,
                MsgKind::Response,
                400 + i as u32,
                3,
                10 + i,
            ));
        }
        let windowed = |from, to| {
            let mut fold = ServiceFold::new(&log.nodes).with_window(from, to);
            log.records.iter().for_each(|r| fold.push(r));
            fold.finish(0.5)
        };
        let early = windowed(SimTime::ZERO, SimTime::from_millis(500));
        let late = windowed(SimTime::from_millis(500), SimTime::MAX);
        assert_eq!(
            early.get(APP, ClassId(3)),
            Some(SimDuration::from_micros(40))
        );
        assert_eq!(
            late.get(APP, ClassId(3)),
            Some(SimDuration::from_micros(80))
        );
    }

    #[test]
    fn mean_service_weighs_classes_by_spans_retired() {
        // At APP, three class-2 spans of 40us and one class-3 span of 80us:
        // (3 * 40 + 80) / 4 = 50us.
        let mut log = TraceLog::new(nodes());
        for (i, (class, dur)) in [(2, 40), (2, 40), (3, 80), (2, 40)].into_iter().enumerate() {
            let (base, conn) = (i as u64 * 1_000, 500 + i as u32);
            log.push(rec(base, WEB, APP, MsgKind::Request, conn, class, i as u64));
            log.push(rec(
                base + dur,
                APP,
                WEB,
                MsgKind::Response,
                conn,
                class,
                i as u64,
            ));
        }
        let mut fold = ServiceFold::new(&log.nodes);
        log.records.iter().for_each(|r| fold.push(r));
        let folded = fold.finish(0.5);
        let r = Reconstruction::run(&log, Heuristic::ProfileGuided);
        let spec = ServiceTimeTable::approximate(&r, 0.5);
        assert_eq!(folded, spec);
        assert_eq!(folded.mean_service(APP), Some(SimDuration::from_micros(50)));
        assert_eq!(folded.mean_service(WEB), None);
        // A table built by hand counts no span.
        let mut t = ServiceTimeTable::new();
        t.insert(APP, ClassId(2), SimDuration::from_micros(40));
        assert_eq!(t.mean_service(APP), None);
    }

    #[test]
    fn work_unit_is_gcd_of_class_services() {
        // Paper's Fig 7 example: 30ms and 10ms -> 10ms work unit.
        let mut t = ServiceTimeTable::new();
        t.insert(APP, ClassId(1), SimDuration::from_millis(30));
        t.insert(APP, ClassId(2), SimDuration::from_millis(10));
        assert_eq!(
            t.work_unit(APP, SimDuration::from_millis(1)),
            Some(SimDuration::from_millis(10))
        );
        // Coprime-ish values collapse to the resolution.
        let mut t2 = ServiceTimeTable::new();
        t2.insert(APP, ClassId(1), SimDuration::from_micros(7_001));
        t2.insert(APP, ClassId(2), SimDuration::from_micros(11_000));
        assert_eq!(
            t2.work_unit(APP, SimDuration::from_micros(1_000)),
            Some(SimDuration::from_micros(1_000))
        );
        assert_eq!(t2.work_unit(WEB, SimDuration::from_millis(1)), None);
    }

    #[test]
    fn empty_reconstruction_gives_empty_table() {
        let r = Reconstruction::default();
        let t = ServiceTimeTable::approximate(&r, 0.1);
        assert!(t.is_empty());
    }
}
