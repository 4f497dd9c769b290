//! Black-box transaction reconstruction (the SysViz role).
//!
//! SysViz is a *black-box* tracer: interaction messages carry no global
//! transaction identifier, so the trace of each transaction must be
//! reconstructed from timing and nesting constraints alone (paper §II-C; the
//! authors report >99% accuracy on a 4-tier application under high
//! concurrency).
//!
//! The structural facts available to a black-box reconstructor:
//!
//! * A downstream call observed on server `P → S` must belong to a request
//!   that is currently **active** on `P` (its thread is blocked on the call —
//!   calls are synchronous in n-tier middleware).
//! * A request that already has an **outstanding** downstream call cannot
//!   issue another one — its thread is blocked. This hard constraint prunes
//!   most candidates under high concurrency.
//! * The **class signature** visible in message payloads (URL pattern /
//!   query template) must be consistent along a transaction: a parent of
//!   class *c* only issues class-*c* calls. (SysViz learns such
//!   URL-to-query-template associations from its transaction models.)
//! * The parent server `P` is *known* from the message's source address; the
//!   ambiguity is only **which** of the requests active on `P` issued the
//!   call.
//! * A TCP connection carries one request at a time: a response answers the
//!   open request on its `(server, conn)`, in the one pairing [`OpenTable`].
//!
//! After pruning, the remaining tie is broken by one rule,
//! [`Heuristic::ProfileGuided`]: the candidate whose last observed event is
//! oldest (under processor sharing it has had the most time to finish its
//! CPU segment and issue the next call), among those that have not yet
//! issued as many calls as their class was seen to issue in unambiguous
//! (single-candidate) situations. The naive baselines it was chosen over —
//! recency, FIFO and the unfiltered oldest-last-event rule — live with the
//! specification in `fgbd_oracle::reconstruct`, which scores all four
//! against simulator ground truth.
//!
//! A request that finds its `(server, conn)` busy closes the older request
//! as **lost** (its response was dropped), *before* its own parent is
//! chosen. A lost span leaves exactly as an answered one does — it leaves
//! the candidate lists, feeds the fan-out profile, and its parent is
//! unblocked and stamped with the displacing request's time, so every list
//! stays sorted by `last_event` — except that it has no departure: it is
//! never sampled and adds no residence to its parent, and if it still has
//! open children it stays in the slab until they close, then is freed
//! without a sample. A pristine capture loses none (`reconstruct.lost`).
//!
//! # One attribution core, two consumers
//!
//! Attribution has to remember a request only while it is *open* — until its
//! response, and those of the calls attributed to it, have been seen. So the
//! record loop ([`Attribution`]) keeps its spans in a slab with a free list
//! and meets nodes, classes and connections as records arrive: its state is
//! sized by the requests in flight (`calibrate.open_peak`), not by the
//! capture, and a record costs one hash probe: its connection, in its
//! server's [`OpenTable`], whose payload is the span's slot. Candidate sets
//! are intrusive lists through the slab, parent selection folds candidates
//! into a running winner ([`TierBest`]), and ties break on the span's global
//! creation index, which slot reuse leaves alone. What the core learns goes
//! to a [`Consumer`]: [`Reconstruction::run`] appends a [`RecSpan`] per
//! request and lists the transactions;
//! [`ServiceFold`](crate::servicetime::ServiceFold) — calibration — keeps one
//! number per span, its intra-node delay, handed over when the span and the
//! last of its children have closed.
//!
//! The walk does not scan a server's queue. Unblocked active spans live in
//! one list per `(server, class)` that carries its length, and a span is
//! linked only at its arrival or at a child's response, both at the current
//! record's time (an already-linked parent moves to the tail), so every
//! list is sorted by `last_event`. The class tier's candidate count is the
//! list's length, and the walk stops at the first candidate strictly later
//! than the first fan-out-eligible one, having walked its ties. From the
//! first record whose timestamp goes backwards the walk is in full: that
//! latches the early exit off, and a full walk is exact whatever the order
//! because keys are total. The rare fallbacks walk all of the server's
//! lists (class relaxed), then its table's open list (everyone blocked). The
//! work is counted: `reconstruct.candidates`.
//!
//! The original `HashMap`-keyed implementation is the specification,
//! `fgbd_oracle::reconstruct::run` (a dev-only crate): the property tests
//! hold the table consumer (`reconstruct_fast_matches_reference*`) and,
//! through it, the fold (`service_fold_matches_approximate`) bit-identical
//! to it.

use fgbd_des::{SimDuration, SimTime};

use crate::record::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId,
};
use crate::span::OpenTable;

/// The parent-attribution rule for downstream calls, applied after the
/// hard blocked/class pruning. There is one; the type names it at the
/// [`Reconstruction::run`] call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Attribute to the candidate whose last observed event (arrival, issued
    /// call, or received child response) is **oldest**, among those that
    /// have issued fewer calls than their class's learned fan-out cap (the
    /// most calls an unambiguous parent of that class issued, once eight
    /// were seen); when the caps rule everyone out, among all candidates.
    ProfileGuided,
}

/// One reconstructed per-server span, with its attributed parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecSpan {
    /// Server the request visited.
    pub server: NodeId,
    /// Class signature.
    pub class: ClassId,
    /// Request-message capture time.
    pub arrival: SimTime,
    /// Response-message capture time; `None` if still open at capture end.
    pub departure: Option<SimTime>,
    /// Connection the request travelled on.
    pub conn: ConnId,
    /// Index of the attributed parent span, `None` for transaction roots.
    pub parent: Option<usize>,
    /// Index of this span's transaction root.
    pub root: usize,
    /// Number of downstream calls attributed to this span.
    pub calls_issued: u32,
    /// Ground truth transaction id (copied through for validation; never
    /// consulted during attribution).
    pub truth: Option<TxnId>,
}

/// One reconstructed transaction: a root client request and every span
/// attributed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Index of the root span.
    pub root: usize,
    /// All member spans (including the root), in creation order.
    pub spans: Vec<usize>,
    /// `true` if every member span saw its response before capture end.
    pub complete: bool,
}

/// The result of black-box reconstruction over a capture.
#[derive(Debug, Clone, Default)]
pub struct Reconstruction {
    /// Every reconstructed span.
    pub spans: Vec<RecSpan>,
    /// Transactions, one per client request observed.
    pub txns: Vec<Txn>,
}

/// Linked-list / slot sentinel.
const NONE: u32 = u32::MAX;

/// What [`Attribution`] tells its consumer. Spans are named by their global
/// creation index: the capture's `n`-th request opens span `n`.
pub(crate) trait Consumer {
    /// Request `rec` opened the next span, a call of span `parent`.
    fn opened(&mut self, _rec: &MsgRecord, _parent: Option<usize>) {}
    /// The response to span `idx` was captured at `at`.
    fn closed(&mut self, _idx: usize, _at: SimTime) {}
    /// A span that arrived at `arrival` has departed and so has the last of
    /// its children, or the capture ended: `intra` is its residence minus
    /// theirs, in seconds.
    fn retired(&mut self, _server: NodeId, _class: ClassId, _arrival: SimTime, _intra: f64) {}
}

/// A request's residence in seconds, as `approximate` computes it in
/// a release build: a response stamped before its request (a capture whose
/// clock ran backwards) wraps.
fn residence(arrival: SimTime, departure: SimTime) -> f64 {
    SimDuration::from_micros(departure.as_micros().wrapping_sub(arrival.as_micros())).as_secs_f64()
}

/// One slab slot: a span from its request until it and all its children
/// have closed.
struct OpenSpan {
    /// Global creation index: the span's name, and every key's tie-break.
    idx: usize,
    /// Last observed event (arrival, issued call, received child response).
    last_event: SimTime,
    /// Request-message capture time.
    arrival: SimTime,
    /// Response-message capture time; `None` while open, or if lost.
    departure: Option<SimTime>,
    /// The span's [`Cell`].
    server: NodeId,
    class: ClassId,
    /// Downstream calls attributed so far (the fan-out cap test).
    calls_issued: u32,
    /// Links of the cell's unblocked list, while `in_unb`; on a freed slot
    /// `unb_next` links the free list.
    unb_prev: u32,
    unb_next: u32,
    /// Slot of the attributed parent, alive until this span closes.
    parent: u32,
    /// Children whose response has not been seen.
    open_children: u32,
    /// Residence of the closed children, summed in creation order.
    child_wait: f64,
    /// `(idx, residence)` of children that closed while a sibling was open:
    /// an older one may still close, so these wait to be summed in order.
    late: Vec<(usize, f64)>,
    in_unb: bool,
    /// Answered or lost: on no list or table, it waits for open children.
    closed: bool,
    /// No call had a second candidate parent: the count feeds the profile.
    unambiguous: bool,
}

impl OpenSpan {
    /// The departed span's intra-node delay, its children's residences
    /// added in creation order as `approximate` adds them: those
    /// summed directly are older than those in `late`.
    fn intra(&mut self, departure: SimTime) -> f64 {
        self.late.sort_unstable_by_key(|&(idx, _)| idx);
        for (_, wait) in self.late.drain(..) {
            self.child_wait += wait;
        }
        residence(self.arrival, departure) - self.child_wait
    }
}

/// One `(server, class)` pair.
#[derive(Clone, Copy)]
struct Cell {
    /// Intrusive list of the cell's *unblocked* active spans, entered at the
    /// tail: sorted by `last_event` while record times never go backwards.
    head: u32,
    tail: u32,
    len: u32,
    /// Fan-out profile: (max calls, samples) over unambiguous parents.
    profile: (u32, u64),
}

impl Cell {
    const EMPTY: Cell = Cell {
        head: NONE,
        tail: NONE,
        len: 0,
        profile: (0, 0),
    };
}

/// Per-node state, indexed by `NodeId.0` and grown on demand. Ids absent
/// from the node table (foreign taps, corrupt captures) are servers —
/// exactly how the reference treats them.
#[derive(Default)]
struct Node {
    client: bool,
    /// The server's open requests; the payload is the span's slot.
    open: OpenTable<u32>,
    /// The server's cells, indexed by `ClassId.0`.
    cells: Vec<Cell>,
}

/// Running winner over one candidate tier (class-matched, or the
/// class-relaxed / everyone-blocked fallback) of the parent scan: the
/// oldest `(last_event, idx)` of the tier and of its fan-out-eligible
/// candidates — so no candidate set is ever materialized.
#[derive(Clone, Copy)]
struct TierBest {
    count: u32,
    best: u32,
    best_key: (SimTime, usize),
    eligible: u32,
    eligible_best: u32,
    eligible_key: (SimTime, usize),
}

impl TierBest {
    const EMPTY: TierBest = TierBest {
        count: 0,
        best: NONE,
        best_key: (SimTime::ZERO, 0),
        eligible: 0,
        eligible_best: NONE,
        eligible_key: (SimTime::ZERO, 0),
    };

    /// Folds the candidate in slot `i`, a span of the server whose cells
    /// are `cells`, into the running winners; the eligible winner takes
    /// only candidates under their learned fan-out cap.
    #[inline]
    fn add(&mut self, i: u32, s: &OpenSpan, cells: &[Cell]) {
        let key = (s.last_event, s.idx);
        self.count += 1;
        if self.count == 1 || key < self.best_key {
            self.best = i;
            self.best_key = key;
        }
        let (max, n) = cells[usize::from(s.class.0)].profile;
        if n < 8 || s.calls_issued < max {
            self.eligible += 1;
            if self.eligible == 1 || key < self.eligible_key {
                self.eligible_best = i;
                self.eligible_key = key;
            }
        }
    }

    /// Walking a list sorted by `last_event`: is the winner already in hand
    /// at a candidate stamped `t`, strictly later than it?
    #[inline]
    fn settled_at(&self, t: SimTime) -> bool {
        self.eligible > 0 && t > self.eligible_key.0
    }

    /// The slot of the tier's chosen parent (`NONE` for an empty tier): the
    /// best eligible candidate, falling back to the unfiltered winner when
    /// the learned caps rule everyone out (mirroring the specification's
    /// fallback).
    #[inline]
    fn pick(&self) -> u32 {
        if self.eligible > 0 {
            self.eligible_best
        } else {
            self.best
        }
    }
}

/// The black-box attribution rules as a streaming record loop: push the
/// capture's records in order, then [`finish`](Self::finish).
pub(crate) struct Attribution {
    slab: Vec<OpenSpan>,
    /// Head of the free-slot list (through `unb_next`).
    free: u32,
    nodes: Vec<Node>,
    /// The early exit needs the winner at the head of a sorted list: true
    /// until a record time goes backwards.
    sorted: bool,
    prev_at: SimTime,
    records: u64,
    spans: usize,
    roots: u64,
    visited: u64,
}

impl Attribution {
    pub(crate) fn new(nodes: &[NodeMeta]) -> Attribution {
        let mut core = Attribution {
            slab: Vec::new(),
            free: NONE,
            nodes: Vec::new(),
            sorted: true,
            prev_at: SimTime::ZERO,
            records: 0,
            spans: 0,
            roots: 0,
            visited: 0,
        };
        for n in nodes.iter().filter(|n| n.kind == NodeKind::Client) {
            Attribution::node(&mut core.nodes, n.id).client = true;
        }
        core
    }

    /// The state of node `id` in `nodes`, created on first sight.
    fn node(nodes: &mut Vec<Node>, id: NodeId) -> &mut Node {
        let i = usize::from(id.0);
        if i >= nodes.len() {
            nodes.resize_with(i + 1, Node::default);
        }
        &mut nodes[i]
    }

    /// Consumes the next record of the capture.
    #[inline]
    pub(crate) fn push(&mut self, rec: &MsgRecord, out: &mut impl Consumer) {
        self.records += 1;
        self.sorted &= rec.at >= self.prev_at;
        self.prev_at = rec.at;
        match rec.kind {
            MsgKind::Request => self.request(rec, out),
            // A response with no open request on its connection is a
            // front-truncated capture: skip.
            MsgKind::Response => {
                let node = self.nodes.get_mut(usize::from(rec.src.0));
                if let Some((_, _, slot)) = node.and_then(|n| n.open.close(rec.conn)) {
                    self.close(slot, rec.at, true, out);
                }
            }
        }
    }

    /// Unlinks the span in `slot` from its cell's unblocked list, if on it.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let s = &mut self.slab[slot as usize];
        if !std::mem::take(&mut s.in_unb) {
            return;
        }
        let (p, n) = (s.unb_prev, s.unb_next);
        let cell = &mut self.nodes[usize::from(s.server.0)].cells[usize::from(s.class.0)];
        cell.len -= 1;
        match p {
            NONE => cell.head = n,
            p => self.slab[p as usize].unb_next = n,
        }
        match n {
            NONE => cell.tail = p,
            n => self.slab[n as usize].unb_prev = p,
        }
    }

    /// Appends the span in `slot` to the tail of its cell's unblocked list.
    #[inline]
    fn push_back(&mut self, slot: u32) {
        let s = &self.slab[slot as usize];
        let cell = &mut self.nodes[usize::from(s.server.0)].cells[usize::from(s.class.0)];
        let t = std::mem::replace(&mut cell.tail, slot);
        cell.len += 1;
        match t {
            NONE => cell.head = slot,
            t => self.slab[t as usize].unb_next = slot,
        }
        let s = &mut self.slab[slot as usize];
        (s.unb_prev, s.unb_next, s.in_unb) = (t, NONE, true);
    }

    /// The open span on server `src` that issued call `rec` (slot `new`), or `NONE`.
    fn choose_parent(&mut self, rec: &MsgRecord, new: u32) -> u32 {
        let node = &self.nodes[usize::from(rec.src.0)];
        let mut tier = TierBest::EMPTY;
        // Folds the unblocked list from `cur` into `tier`; `early` stops at
        // the first candidate the winner is settled at.
        let walk = |tier: &mut TierBest, mut cur: u32, early| {
            while let Some(s) = self.slab.get(cur as usize) {
                if early && tier.settled_at(s.last_event) {
                    break;
                }
                tier.add(cur, s, &node.cells);
                cur = s.unb_next;
            }
        };
        // Soft constraint (a transaction keeps its class): the source's
        // unblocked spans of the call's class, head first, up to the winner
        // when sorted. Blocked spans cannot call (the hard constraint), so
        // they are on no unblocked list.
        let class_cell = node.cells.get(usize::from(rec.class.0));
        if let Some(cell) = class_cell {
            walk(&mut tier, cell.head, self.sorted);
        }
        if tier.count == 0 {
            // Relaxed: every unblocked span on the server.
            for cell in &node.cells {
                walk(&mut tier, cell.head, false);
            }
        }
        if tier.count == 0 {
            // Everyone is blocked: every open span on the server but the
            // call's own (a server calling itself has opened it already).
            for i in node.open.payloads().filter(|&i| i != new) {
                tier.add(i, &self.slab[i as usize], &node.cells);
            }
        }
        self.visited += u64::from(tier.count);
        let parent = tier.pick();
        // A class list's members are candidates walked or not. With more
        // than one, the parent's call count depends on the tie-break.
        if parent != NONE && tier.count.max(class_cell.map_or(0, |c| c.len)) > 1 {
            self.slab[parent as usize].unambiguous = false;
        }
        parent
    }

    fn request(&mut self, rec: &MsgRecord, out: &mut impl Consumer) {
        let idx = self.spans;
        self.spans += 1;
        // The span's slot, taken before closing a lost span can free one.
        let slot = match self.free {
            NONE => {
                assert!(self.slab.len() < NONE as usize, "open-span slab is full");
                self.slab.len() as u32
            }
            slot => {
                self.free = self.slab[slot as usize].unb_next;
                slot
            }
        };
        let server = Attribution::node(&mut self.nodes, rec.dst);
        if let Some(older) = server.open.open(rec.conn, rec.at, rec.class, slot) {
            self.close(older, rec.at, false, out);
        }
        // An orphan call (capture truncation) is its own root.
        let parent = match Attribution::node(&mut self.nodes, rec.src).client {
            true => NONE,
            false => self.choose_parent(rec, slot),
        };
        if parent == NONE {
            self.roots += 1;
            out.opened(rec, None);
        } else {
            self.unlink(parent);
            let p = &mut self.slab[parent as usize];
            p.calls_issued += 1;
            p.open_children += 1;
            p.last_event = rec.at;
            out.opened(rec, Some(p.idx));
        }

        let cells = &mut self.nodes[usize::from(rec.dst.0)].cells;
        let class = usize::from(rec.class.0);
        if class >= cells.len() {
            cells.resize(class + 1, Cell::EMPTY);
        }
        let span = OpenSpan {
            idx,
            last_event: rec.at,
            arrival: rec.at,
            departure: None,
            server: rec.dst,
            class: rec.class,
            calls_issued: 0,
            unb_prev: NONE,
            unb_next: NONE,
            parent,
            open_children: 0,
            child_wait: 0.0,
            late: Vec::new(),
            in_unb: false,
            closed: false,
            unambiguous: true,
        };
        match self.slab.get_mut(slot as usize) {
            Some(free) => *free = span,
            None => self.slab.push(span),
        }
        self.push_back(slot);
    }

    /// The span in `slot` has left its table at `at`: `answered` by a
    /// response, or lost.
    fn close(&mut self, slot: u32, at: SimTime, answered: bool, out: &mut impl Consumer) {
        let s = &mut self.slab[slot as usize];
        s.closed = true;
        let wait = answered.then(|| {
            s.departure = Some(at);
            out.closed(s.idx, at);
            residence(s.arrival, at)
        });
        let (idx, parent) = (s.idx, s.parent);
        // Feed the fan-out profile from unambiguous spans.
        if s.unambiguous && s.calls_issued > 0 {
            let cell = &mut self.nodes[usize::from(s.server.0)].cells[usize::from(s.class.0)];
            cell.profile.0 = cell.profile.0.max(s.calls_issued);
            cell.profile.1 += 1;
        }
        self.unlink(slot);
        if let Some(p) = self.slab.get_mut(parent as usize) {
            p.last_event = at;
            // An only open child with nothing waiting is younger than all
            // those summed; any other may have an older sibling still open.
            match wait {
                Some(wait) if p.open_children == 1 && p.late.is_empty() => p.child_wait += wait,
                Some(wait) => p.late.push((idx, wait)),
                None => {}
            }
            p.open_children -= 1;
            if p.closed {
                // The parent closed first (truncated or lossy capture): it
                // leaves with its last child.
                if p.open_children == 0 {
                    self.retire(parent, out);
                }
            } else {
                // The parent is a candidate again. One that is already
                // linked (it held two outstanding calls, the second taken
                // in the everyone-blocked fallback) moves to the tail: its
                // list stays sorted.
                self.unlink(parent);
                self.push_back(parent);
            }
        }
        if self.slab[slot as usize].open_children == 0 {
            self.retire(slot, out);
        }
    }

    /// Hands the closed, childless span in `slot` over — a lost one leaves
    /// no sample — and frees the slot.
    fn retire(&mut self, slot: u32, out: &mut impl Consumer) {
        let s = &mut self.slab[slot as usize];
        if let Some(departure) = s.departure.take() {
            out.retired(s.server, s.class, s.arrival, s.intra(departure));
        }
        s.unb_next = std::mem::replace(&mut self.free, slot);
    }

    /// Ends the capture: departed spans still waiting on a child that never
    /// closed retire with the children that did.
    pub(crate) fn finish(mut self, out: &mut impl Consumer) {
        for s in &mut self.slab {
            if let Some(departure) = s.departure {
                out.retired(s.server, s.class, s.arrival, s.intra(departure));
            }
        }
        fgbd_obsv::counter!("reconstruct.records", self.records);
        fgbd_obsv::counter!("reconstruct.spans", self.spans as u64);
        fgbd_obsv::counter!("reconstruct.txns", self.roots);
        fgbd_obsv::counter!("reconstruct.candidates", self.visited);
        if fgbd_obsv::enabled() {
            // Retained: the slab's high-water mark bounds the core's state,
            // and 0 lost requests on a pristine capture is the finding.
            fgbd_obsv::metrics::counter_retained("calibrate.open_peak").add(self.slab.len() as u64);
            let lost = self.nodes.iter().map(|n| n.open.lost()).sum();
            fgbd_obsv::metrics::counter_retained("reconstruct.lost").add(lost);
        }
    }
}

/// The table consumer: one [`RecSpan`] per request, in creation order.
impl Consumer for Vec<RecSpan> {
    fn opened(&mut self, rec: &MsgRecord, parent: Option<usize>) {
        let idx = self.len();
        let root = parent.map_or(idx, |p| {
            self[p].calls_issued += 1;
            self[p].root
        });
        self.push(RecSpan {
            server: rec.dst,
            class: rec.class,
            arrival: rec.at,
            departure: None,
            conn: rec.conn,
            parent,
            root,
            calls_issued: 0,
            truth: rec.truth,
        });
    }

    fn closed(&mut self, idx: usize, at: SimTime) {
        self[idx].departure = Some(at);
    }
}

impl Reconstruction {
    /// Reconstructs transactions from a capture: the attribution core with
    /// the table consumer, bit-identical to the specification.
    ///
    /// Only observable fields are consulted; ground truth is copied through
    /// for later validation but never influences attribution (verified by
    /// the `blinded_log_gives_identical_edges` test).
    pub fn run(log: &TraceLog, _rule: Heuristic) -> Reconstruction {
        fgbd_obsv::span!("reconstruct");
        let mut core = Attribution::new(&log.nodes);
        let mut spans: Vec<RecSpan> = Vec::with_capacity(log.records.len() / 2 + 1);
        for rec in &log.records {
            core.push(rec, &mut spans);
        }
        core.finish(&mut spans);

        // A root opens a transaction and precedes its members, so one pass
        // in creation order lists them as the reference's registration does.
        let mut txn_of = Vec::with_capacity(spans.len());
        let mut txns: Vec<Txn> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() {
                txn_of.push(txns.len());
                txns.push(Txn {
                    root: i,
                    spans: Vec::new(),
                    complete: true,
                });
            } else {
                txn_of.push(txn_of[s.root]);
            }
            let txn = &mut txns[txn_of[i]];
            txn.spans.push(i);
            txn.complete &= s.departure.is_some();
        }
        Reconstruction { spans, txns }
    }

    /// Number of complete transactions.
    pub fn complete_txns(&self) -> usize {
        self.txns.iter().filter(|t| t.complete).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MsgRecord, NodeMeta};

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

    fn rec(at: u64, src: NodeId, dst: NodeId, kind: MsgKind, conn: u32, truth: u64) -> MsgRecord {
        MsgRecord {
            at: SimTime::from_micros(at),
            src,
            dst,
            kind,
            conn: ConnId(conn),
            class: ClassId(1),
            bytes: 64,
            truth: Some(TxnId(truth)),
        }
    }

    fn run(log: &TraceLog) -> Reconstruction {
        Reconstruction::run(log, Heuristic::ProfileGuided)
    }

    /// Every span's attributed parent, in creation order.
    fn parents(r: &Reconstruction) -> Vec<Option<usize>> {
        r.spans.iter().map(|s| s.parent).collect()
    }

    /// Two fully serial transactions: unambiguous.
    fn serial_log() -> TraceLog {
        let mut log = TraceLog::new(nodes());
        for (base, truth, conn) in [(0u64, 1u64, 10u32), (1000, 2, 11)] {
            log.push(rec(base + 10, CLIENT, WEB, MsgKind::Request, conn, truth));
            log.push(rec(
                base + 20,
                WEB,
                APP,
                MsgKind::Request,
                100 + conn,
                truth,
            ));
            log.push(rec(
                base + 50,
                APP,
                WEB,
                MsgKind::Response,
                100 + conn,
                truth,
            ));
            log.push(rec(base + 60, WEB, CLIENT, MsgKind::Response, conn, truth));
        }
        log
    }

    #[test]
    fn serial_transactions_reconstruct_perfectly() {
        let r = run(&serial_log());
        assert_eq!(r.txns.len(), 2);
        assert_eq!(r.complete_txns(), 2);
        assert_eq!(parents(&r), [None, Some(0), None, Some(2)]);
        assert_eq!(r.txns[1].spans, [2, 3]);
    }

    /// A blocked span cannot be attributed a second call: while txn 1's app
    /// call is outstanding, txn 2's call can only belong to txn 2.
    #[test]
    fn blocked_constraint_resolves_interleaved_calls() {
        let mut log = TraceLog::new(nodes());
        log.push(rec(10, CLIENT, WEB, MsgKind::Request, 10, 1));
        log.push(rec(12, WEB, APP, MsgKind::Request, 110, 1)); // txn1 now blocked
        log.push(rec(30, CLIENT, WEB, MsgKind::Request, 11, 2));
        log.push(rec(32, WEB, APP, MsgKind::Request, 111, 2)); // only txn2 can call
        log.push(rec(60, APP, WEB, MsgKind::Response, 110, 1));
        log.push(rec(70, APP, WEB, MsgKind::Response, 111, 2));
        log.push(rec(80, WEB, CLIENT, MsgKind::Response, 10, 1));
        log.push(rec(90, WEB, CLIENT, MsgKind::Response, 11, 2));
        let r = run(&log);
        assert_eq!(parents(&r), [None, Some(0), None, Some(2)]);
        assert_eq!(r.complete_txns(), 2);
    }

    #[test]
    fn blinded_log_gives_identical_edges() {
        let log = serial_log();
        let a = run(&log);
        let b = run(&log.blinded());
        assert_eq!(parents(&a), parents(&b));
        // Blinded spans carry no truth.
        assert!(b.spans.iter().all(|s| s.truth.is_none()));
    }

    #[test]
    fn incomplete_txn_is_flagged() {
        let mut log = serial_log();
        // A root whose response never arrives.
        log.push(rec(5000, CLIENT, WEB, MsgKind::Request, 12, 3));
        let r = run(&log);
        assert_eq!(r.txns.len(), 3);
        assert_eq!(r.complete_txns(), 2);
    }

    #[test]
    fn orphan_downstream_call_becomes_root() {
        let mut log = TraceLog::new(nodes());
        // An app call with no active web span (front truncation).
        log.push(rec(10, WEB, APP, MsgKind::Request, 100, 9));
        log.push(rec(20, APP, WEB, MsgKind::Response, 100, 9));
        let r = run(&log);
        assert_eq!(r.txns.len(), 1);
        assert!(r.spans[0].parent.is_none());
    }
}
