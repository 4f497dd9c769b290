//! Per-server request spans: the arrival/departure timestamp pairs that the
//! fine-grained load/throughput analysis consumes (paper §III-A/B).
//!
//! A *span* is one request's residence at one server: from the instant its
//! request message reaches the server to the instant its response message
//! leaves. Spans come from pairing requests with responses on the same TCP
//! connection, which carries one request at a time: a response closes the
//! open request on its `(server, conn)`, and a request that finds its
//! connection busy closes the older one as lost, never to be paired.
//!
//! Two streaming pairers sit on [`OpenTable`], each consuming the records
//! it pairs once and keeping no span: `fgbd-core`'s online detector, which
//! folds each pair into its interval ring and reads the table's earliest
//! open arrival as its watermark, and calibration's attribution core
//! (`ServiceFold`). [`SpanSet::extract`] is the batch extractor over a kept
//! log: it pairs on the same table, keeps each span in response order, and
//! sorts each server's list once, stably, by `(arrival, departure)` — the
//! specification's own rule (`fgbd_oracle::span::extract`).

use std::collections::HashMap;
use std::mem::size_of;

use fgbd_des::hash::FxHashMap;
use fgbd_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::record::{ClassId, ConnId, MsgKind, NodeId, TraceLog, TxnId};

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
    /// end, or closed as lost) and orphan responses; per server.
    pub unmatched: HashMap<NodeId, usize>,
}

impl SpanSet {
    /// Extracts spans from a capture, one open request per connection.
    ///
    /// Responses with no open request on their connection are counted in
    /// [`SpanSet::unmatched`] for the *server* side (they indicate capture
    /// truncation at the front), as are requests lost or unanswered.
    /// Each server's spans are sorted by `(arrival, departure)`, equal keys
    /// in response order.
    pub fn extract(log: &TraceLog) -> SpanSet {
        fgbd_obsv::span!("extract_spans");
        let mut servers: Vec<Option<Box<Pairing>>> = Vec::new();
        for rec in &log.records {
            let server = rec.span_node();
            let s = server_slot(&mut servers, server, Pairing::default);
            match rec.kind {
                MsgKind::Request => _ = s.open.open(rec.conn, rec.at, rec.class, rec.truth),
                MsgKind::Response => match s.open.close(rec.conn) {
                    Some((arrival, class, truth)) => s.spans.push(Span {
                        server,
                        class,
                        arrival,
                        departure: rec.at,
                        conn: rec.conn,
                        truth,
                    }),
                    None => s.orphans += 1,
                },
            }
        }
        let mut set = SpanSet::default();
        let mut lost = 0;
        for (id, s) in servers.into_iter().enumerate() {
            let Some(mut s) = s else { continue };
            let server = NodeId(id as u16);
            lost += s.open.lost();
            let unmatched = s.orphans + s.open.lost() as usize + s.open.len();
            if unmatched > 0 {
                set.unmatched.insert(server, unmatched);
            }
            s.spans.sort_by_key(|span| (span.arrival, span.departure));
            if !s.spans.is_empty() {
                set.by_server.insert(server, s.spans);
            }
        }
        fgbd_obsv::counter!("extract.spans", set.len() as u64);
        if fgbd_obsv::enabled() {
            // Retained: 0 on every lossless capture is the finding.
            fgbd_obsv::metrics::counter_retained("trace.conn_overlap").add(lost);
        }
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

/// "No entry" in [`OpenTable`]'s intrusive links.
const NIL: u32 = u32::MAX;

/// One open request in the slab.
#[derive(Debug, Clone, Copy)]
struct Entry<P> {
    at: SimTime,
    class: ClassId,
    payload: P,
    /// Neighbours in the arrival-ordered open list; on a freed entry `next`
    /// links the free list.
    prev: u32,
    next: u32,
}

/// One server's open requests — the pairing engine under the online
/// detector, calibration's attribution and [`SpanSet::extract`].
///
/// A slab with a free list, threaded by the server-wide open list in
/// arrival order, and a map from each busy connection to its one open
/// request (the pairing rule). A time-ordered tap delivers requests in
/// arrival order, so [`open`](Self::open) appends at the tail; a request
/// stamped earlier walks back to its sorted place, so the head is the
/// minimum over *all* open requests on any input. On a time-ordered stream
/// every operation is `O(1)` with one hash probe (the connection).
#[derive(Debug)]
pub struct OpenTable<P> {
    slab: Vec<Entry<P>>,
    free: u32,
    /// The open request of every connection that has one.
    conns: FxHashMap<u32, u32>,
    head: u32,
    tail: u32,
    len: usize,
    /// Requests closed as lost.
    lost: u64,
}

impl<P> Default for OpenTable<P> {
    fn default() -> Self {
        OpenTable {
            slab: Vec::new(),
            free: NIL,
            conns: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            len: 0,
            lost: 0,
        }
    }
}

impl<P: Copy> OpenTable<P> {
    /// Records a request that reached the server at `at` on `conn`, and
    /// returns the payload of an older one open there, closed as [`lost`](Self::lost).
    #[inline]
    pub fn open(&mut self, conn: ConnId, at: SimTime, class: ClassId, payload: P) -> Option<P> {
        // Behind the youngest request not stamped later: the tail, unless
        // the stream ran backwards.
        let mut prev = self.tail;
        while prev != NIL && self.slab[prev as usize].at > at {
            prev = self.slab[prev as usize].prev;
        }
        let next = match prev {
            NIL => self.head,
            p => self.slab[p as usize].next,
        };
        let entry = Entry {
            at,
            class,
            payload,
            prev,
            next,
        };
        let idx = self.free;
        let idx = if idx == NIL {
            assert!(self.slab.len() < NIL as usize, "open-request slab is full");
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        } else {
            self.free = std::mem::replace(&mut self.slab[idx as usize], entry).next;
            idx
        };
        match prev {
            NIL => self.head = idx,
            p => self.slab[p as usize].next = idx,
        }
        match next {
            NIL => self.tail = idx,
            n => self.slab[n as usize].prev = idx,
        }
        self.len += 1;
        let older = self.conns.insert(conn.0, idx)?;
        self.lost += 1;
        Some(self.unlink(older).2)
    }

    /// Closes the open request on `conn` — the one a response on that
    /// connection answers — and returns its `(arrival, class, payload)`, or
    /// `None` if the connection has none.
    #[inline]
    pub fn close(&mut self, conn: ConnId) -> Option<(SimTime, ClassId, P)> {
        self.conns.remove(&conn.0).map(|idx| self.unlink(idx))
    }

    /// Takes entry `idx` off the open list and frees its slot.
    #[inline]
    fn unlink(&mut self, idx: u32) -> (SimTime, ClassId, P) {
        let entry = self.slab[idx as usize];
        match entry.prev {
            NIL => self.head = entry.next,
            p => self.slab[p as usize].next = entry.next,
        }
        match entry.next {
            NIL => self.tail = entry.prev,
            n => self.slab[n as usize].prev = entry.prev,
        }
        self.slab[idx as usize].next = std::mem::replace(&mut self.free, idx);
        self.len -= 1;
        (entry.at, entry.class, entry.payload)
    }

    /// Arrival of the earliest open request: the open list's head ([`NIL`]
    /// indexes past any slab, so an empty list reads as `None`).
    #[inline]
    pub fn min_open(&self) -> Option<SimTime> {
        self.slab.get(self.head as usize).map(|e| e.at)
    }

    /// The payloads of the open requests, earliest arrival first (equal
    /// arrivals in the order they opened).
    pub fn payloads(&self) -> impl Iterator<Item = P> + '_ {
        let entry = |i: u32| self.slab.get(i as usize);
        std::iter::successors(entry(self.head), move |e| entry(e.next)).map(|e| e.payload)
    }

    /// Requests currently open.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no request is open.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Requests closed as lost because a later request reused the
    /// connection: 0 on a pristine trace (one request per connection at a
    /// time), 1 per dropped response on a connection that carried more.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Bytes held: the slab (its capacity is the open high-water mark) and
    /// the connection map at its 7/8 load factor, one control byte a bucket.
    pub fn state_bytes(&self) -> usize {
        self.slab.capacity() * size_of::<Entry<P>>()
            + self.conns.capacity() * 8 / 7 * (size_of::<(u32, u32)>() + 1)
    }
}

/// The slot for `server` in a dense per-server table indexed by `NodeId.0`,
/// created on first use (boxed, so a stray large id costs a pointer per
/// skipped slot).
#[inline]
pub fn server_slot<T>(
    slots: &mut Vec<Option<Box<T>>>,
    server: NodeId,
    new: impl FnOnce() -> T,
) -> &mut T {
    let i = server.0 as usize;
    if i >= slots.len() {
        slots.resize_with(i + 1, || None);
    }
    slots[i].get_or_insert_with(|| Box::new(new()))
}

/// One server's half of [`SpanSet::extract`].
#[derive(Default)]
struct Pairing {
    /// Open requests; the payload is the request's ground truth.
    open: OpenTable<Option<TxnId>>,
    /// Matched spans, in response order.
    spans: Vec<Span>,
    /// Responses that found no open request on their connection.
    orphans: usize,
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
    fn extract_counts_both_unmatched_rules() {
        let mut log = TraceLog::new(vec![
            node(0, "client", NodeKind::Client),
            node(1, "web", NodeKind::Server),
        ]);
        // A response with no open request on its connection.
        log.push(rec(5, 1, 0, MsgKind::Response, 9, 4));
        // A matched pair, then a request that is never answered; the late
        // response on another connection does not close it.
        log.push(rec(10, 0, 1, MsgKind::Request, 5, 1));
        log.push(rec(20, 1, 0, MsgKind::Response, 5, 1));
        log.push(rec(30, 0, 1, MsgKind::Request, 5, 2));
        log.push(rec(40, 1, 0, MsgKind::Response, 6, 3));
        // A request displaced on its connection is lost, never paired.
        log.push(rec(50, 0, 1, MsgKind::Request, 7, 5));
        log.push(rec(60, 0, 1, MsgKind::Request, 7, 6));
        log.push(rec(70, 1, 0, MsgKind::Response, 7, 6));
        let set = SpanSet::extract(&log);
        assert_eq!(set.len(), 2);
        assert_eq!(set.server(NodeId(1))[0].truth, Some(TxnId(1)));
        assert_eq!(set.server(NodeId(1))[1].truth, Some(TxnId(6)));
        assert_eq!(set.unmatched.get(&NodeId(1)), Some(&4));
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
