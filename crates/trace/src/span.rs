//! Per-server request spans: the arrival/departure timestamp pairs that the
//! fine-grained load/throughput analysis consumes (paper §III-A/B).
//!
//! A *span* is one request's residence at one server: from the instant its
//! request message reaches the server to the instant its response message
//! leaves. Spans are extracted from the raw message log by pairing requests
//! with responses on the same TCP connection — requests on one connection are
//! serviced serially, so pairing is FIFO per `(server, conn)`.

use std::collections::{HashMap, VecDeque};

use fgbd_des::hash::FxHashMap;
use fgbd_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::record::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, TraceLog, TxnId};

/// One request's residence interval at one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// The server the request visited.
    pub server: NodeId,
    /// Class signature of the request.
    pub class: ClassId,
    /// When the request message arrived at the server.
    pub arrival: SimTime,
    /// When the response message left the server.
    pub departure: SimTime,
    /// The connection the request travelled on.
    pub conn: ConnId,
    /// Ground truth (propagated from annotated records; `None` when
    /// extracted from a blinded capture).
    pub truth: Option<TxnId>,
}

impl Span {
    /// Residence time at the server (queueing + service).
    pub fn residence(&self) -> SimDuration {
        self.departure - self.arrival
    }

    /// `true` if the span overlaps the half-open window `[from, to)`.
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.arrival < to && self.departure > from
    }
}

/// Spans grouped by server, each list sorted by arrival time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpanSet {
    by_server: HashMap<NodeId, Vec<Span>>,
    /// Requests whose response never appeared (still in flight at capture
    /// end, or lost); per server.
    pub unmatched: HashMap<NodeId, usize>,
}

impl SpanSet {
    /// Extracts spans from a capture by FIFO request/response pairing per
    /// `(server, connection)`.
    ///
    /// Responses with no outstanding request on their connection are counted
    /// in [`SpanSet::unmatched`] for the *server* side (they indicate capture
    /// truncation at the front), as are requests left unanswered at the end.
    ///
    /// This is [`SpanPairer`] fed the whole log: push every record, finish.
    pub fn extract(log: &TraceLog) -> SpanSet {
        fgbd_obsv::span!("extract_spans");
        let mut pairer = SpanPairer::default();
        for rec in &log.records {
            pairer.push(rec);
        }
        let set = pairer.finish();
        fgbd_obsv::counter!("trace.extract_reuse_hits", set.len() as u64);
        fgbd_obsv::counter!("extract.spans", set.len() as u64);
        set
    }

    /// Spans observed at `server`, sorted by arrival.
    pub fn server(&self, server: NodeId) -> &[Span] {
        self.by_server.get(&server).map_or(&[], Vec::as_slice)
    }

    /// Servers that have at least one span.
    pub fn servers(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.by_server.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The spans of several servers merged into one arrival-sorted list —
    /// a *tier-level* view (e.g. both Tomcats as one logical server). The
    /// per-span `server` field is preserved so class/service lookups stay
    /// correct.
    pub fn merged(&self, servers: &[NodeId]) -> Vec<Span> {
        let mut out: Vec<Span> = servers
            .iter()
            .flat_map(|&n| self.server(n).iter().copied())
            .collect();
        out.sort_by_key(|s| (s.arrival, s.departure));
        out
    }

    /// Total spans across all servers.
    pub fn len(&self) -> usize {
        self.by_server.values().map(Vec::len).sum()
    }

    /// `true` if no spans were extracted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a span keeps of its request record while the response is awaited.
#[derive(Debug)]
struct OpenRequest {
    at: SimTime,
    class: ClassId,
    truth: Option<TxnId>,
}

/// The span-pairing engine in its streaming form: records go in one at a
/// time, in capture order, from wherever they are born — a [`TraceLog`]
/// ([`SpanSet::extract`]) or the simulator's record tap, which never holds
/// a log — and [`finish`](Self::finish) hands back the [`SpanSet`].
///
/// Requests on one connection are serviced serially, so each
/// `(server, connection)` keeps a FIFO of open requests; a response closes
/// the oldest one into a span, appended to its server's list (departure
/// order).
#[derive(Debug, Default)]
pub struct SpanPairer {
    open: FxHashMap<(NodeId, ConnId), VecDeque<OpenRequest>>,
    set: SpanSet,
}

impl SpanPairer {
    /// Consumes the next record of the capture.
    pub fn push(&mut self, rec: &MsgRecord) {
        let server = rec.span_node();
        match rec.kind {
            MsgKind::Request => {
                self.open
                    .entry((server, rec.conn))
                    .or_default()
                    .push_back(OpenRequest {
                        at: rec.at,
                        class: rec.class,
                        truth: rec.truth,
                    });
            }
            MsgKind::Response => {
                let req = self
                    .open
                    .get_mut(&(server, rec.conn))
                    .and_then(VecDeque::pop_front);
                match req {
                    Some(req) => self.set.by_server.entry(server).or_default().push(Span {
                        server,
                        class: req.class,
                        arrival: req.at,
                        departure: rec.at,
                        conn: rec.conn,
                        truth: req.truth,
                    }),
                    None => *self.set.unmatched.entry(server).or_default() += 1,
                }
            }
        }
    }

    /// Ends the capture: requests still open are counted unmatched at their
    /// server, and each server's spans are stable-sorted by
    /// `(arrival, departure)`.
    pub fn finish(mut self) -> SpanSet {
        for ((server, _), q) in self.open {
            if !q.is_empty() {
                *self.set.unmatched.entry(server).or_default() += q.len();
            }
        }
        for spans in self.set.by_server.values_mut() {
            spans.sort_by_key(|s| (s.arrival, s.departure));
        }
        self.set
    }
}

pub mod reference {
    //! The original whole-log span extractor, kept verbatim as the
    //! executable specification [`SpanPairer`](super::SpanPairer) is
    //! property-tested bit-identical to (the same role
    //! `reconstruct::reference` plays for reconstruction).

    use std::collections::{HashMap, VecDeque};

    use super::{Span, SpanSet};
    use crate::record::{ConnId, MsgKind, MsgRecord, NodeId, TraceLog};

    /// Extracts spans by FIFO request/response pairing per
    /// `(server, connection)`; see [`SpanSet::extract`].
    pub fn extract(log: &TraceLog) -> SpanSet {
        let mut open: HashMap<(NodeId, ConnId), VecDeque<MsgRecord>> = HashMap::new();
        let mut by_server: HashMap<NodeId, Vec<Span>> = HashMap::new();
        let mut unmatched: HashMap<NodeId, usize> = HashMap::new();
        for rec in &log.records {
            let server = rec.span_node();
            match rec.kind {
                MsgKind::Request => {
                    open.entry((server, rec.conn)).or_default().push_back(*rec);
                }
                MsgKind::Response => {
                    match open
                        .get_mut(&(server, rec.conn))
                        .and_then(VecDeque::pop_front)
                    {
                        Some(req) => {
                            by_server.entry(server).or_default().push(Span {
                                server,
                                class: req.class,
                                arrival: req.at,
                                departure: rec.at,
                                conn: rec.conn,
                                truth: req.truth,
                            });
                        }
                        None => *unmatched.entry(server).or_default() += 1,
                    }
                }
            }
        }
        for ((server, _), q) in open {
            if !q.is_empty() {
                *unmatched.entry(server).or_default() += q.len();
            }
        }
        let mut set = SpanSet {
            by_server,
            unmatched,
        };
        for spans in set.by_server.values_mut() {
            spans.sort_by_key(|s| (s.arrival, s.departure));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MsgRecord, NodeKind, NodeMeta};

    fn node(id: u16, name: &str, kind: NodeKind) -> NodeMeta {
        NodeMeta {
            id: NodeId(id),
            name: name.into(),
            kind,
            tier: None,
        }
    }

    fn rec(at: u64, src: u16, dst: u16, kind: MsgKind, conn: u32, truth: u64) -> MsgRecord {
        MsgRecord {
            at: SimTime::from_micros(at),
            src: NodeId(src),
            dst: NodeId(dst),
            kind,
            conn: ConnId(conn),
            class: ClassId(3),
            bytes: 64,
            truth: Some(TxnId(truth)),
        }
    }

    fn demo_log() -> TraceLog {
        let mut log = TraceLog::new(vec![
            node(0, "client", NodeKind::Client),
            node(1, "web", NodeKind::Server),
        ]);
        // Two overlapping requests on different connections.
        log.push(rec(100, 0, 1, MsgKind::Request, 10, 1));
        log.push(rec(150, 0, 1, MsgKind::Request, 11, 2));
        log.push(rec(300, 1, 0, MsgKind::Response, 10, 1));
        log.push(rec(500, 1, 0, MsgKind::Response, 11, 2));
        log
    }

    #[test]
    fn pairs_by_connection() {
        let set = SpanSet::extract(&demo_log());
        let spans = set.server(NodeId(1));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].arrival, SimTime::from_micros(100));
        assert_eq!(spans[0].departure, SimTime::from_micros(300));
        assert_eq!(spans[0].truth, Some(TxnId(1)));
        assert_eq!(spans[1].residence(), SimDuration::from_micros(350));
        assert!(set.unmatched.is_empty());
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn serial_reuse_of_one_connection_pairs_fifo() {
        let mut log = TraceLog::new(vec![
            node(0, "client", NodeKind::Client),
            node(1, "web", NodeKind::Server),
        ]);
        log.push(rec(10, 0, 1, MsgKind::Request, 5, 1));
        log.push(rec(20, 1, 0, MsgKind::Response, 5, 1));
        log.push(rec(30, 0, 1, MsgKind::Request, 5, 2));
        log.push(rec(45, 1, 0, MsgKind::Response, 5, 2));
        let set = SpanSet::extract(&log);
        let spans = set.server(NodeId(1));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].truth, Some(TxnId(1)));
        assert_eq!(spans[1].truth, Some(TxnId(2)));
    }

    #[test]
    fn truncated_capture_counts_unmatched() {
        let mut log = demo_log();
        // Request with no response (in flight at capture end).
        log.push(rec(600, 0, 1, MsgKind::Request, 12, 3));
        // Response with no request (lost front of capture) — use a fresh log
        // to keep ordering valid.
        let set = SpanSet::extract(&log);
        assert_eq!(set.unmatched.get(&NodeId(1)), Some(&1));

        let mut log2 = TraceLog::new(vec![node(1, "web", NodeKind::Server)]);
        log2.push(rec(5, 1, 0, MsgKind::Response, 9, 4));
        let set2 = SpanSet::extract(&log2);
        assert_eq!(set2.unmatched.get(&NodeId(1)), Some(&1));
        assert!(set2.is_empty());
    }

    #[test]
    fn pairer_counts_both_unmatched_rules_record_by_record() {
        let mut pairer = SpanPairer::default();
        // A response with no open request on its connection.
        pairer.push(&rec(5, 1, 0, MsgKind::Response, 9, 4));
        // A matched pair, then a request that is never answered; the late
        // response on another connection does not close it.
        pairer.push(&rec(10, 0, 1, MsgKind::Request, 5, 1));
        pairer.push(&rec(20, 1, 0, MsgKind::Response, 5, 1));
        pairer.push(&rec(30, 0, 1, MsgKind::Request, 5, 2));
        pairer.push(&rec(40, 1, 0, MsgKind::Response, 6, 3));
        let set = pairer.finish();
        assert_eq!(set.len(), 1);
        assert_eq!(set.server(NodeId(1))[0].truth, Some(TxnId(1)));
        assert_eq!(set.unmatched.get(&NodeId(1)), Some(&3));
    }

    #[test]
    fn merged_combines_and_sorts() {
        let mut log = TraceLog::new(vec![
            node(0, "client", NodeKind::Client),
            node(1, "app-1", NodeKind::Server),
            node(2, "app-2", NodeKind::Server),
        ]);
        log.push(rec(10, 0, 2, MsgKind::Request, 20, 1));
        log.push(rec(15, 0, 1, MsgKind::Request, 10, 2));
        log.push(rec(40, 1, 0, MsgKind::Response, 10, 2));
        log.push(rec(50, 2, 0, MsgKind::Response, 20, 1));
        let set = SpanSet::extract(&log);
        let tier = set.merged(&[NodeId(1), NodeId(2)]);
        assert_eq!(tier.len(), 2);
        assert!(tier[0].arrival <= tier[1].arrival);
        assert_eq!(tier[0].server, NodeId(2)); // earliest arrival first
        assert_eq!(tier[1].server, NodeId(1));
        // Unknown servers contribute nothing.
        assert!(set.merged(&[NodeId(9)]).is_empty());
    }

    #[test]
    fn overlap_predicate_is_half_open() {
        let s = Span {
            server: NodeId(1),
            class: ClassId(0),
            arrival: SimTime::from_micros(100),
            departure: SimTime::from_micros(200),
            conn: ConnId(0),
            truth: None,
        };
        assert!(s.overlaps(SimTime::from_micros(150), SimTime::from_micros(160)));
        assert!(s.overlaps(SimTime::from_micros(0), SimTime::from_micros(101)));
        assert!(!s.overlaps(SimTime::from_micros(200), SimTime::from_micros(300)));
        assert!(!s.overlaps(SimTime::from_micros(0), SimTime::from_micros(100)));
    }
}
