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
//! * Requests on one TCP connection are serial, so request/response pairing
//!   per connection is exact.
//!
//! After pruning, remaining ties are broken by a [`Heuristic`]: recency (a
//! thread that just received a response or just arrived is the most likely
//! next caller), FIFO (oldest active request first), or a profile-guided
//! mode that learns per-class fan-out counts from unambiguous
//! (single-candidate) situations and uses them to rule out parents that
//! already issued their full complement of calls. [`Accuracy`] scores any
//! reconstruction against simulator ground truth.
//!
//! # The ingestion fast path
//!
//! Reconstruction runs on every calibration prefix, so
//! [`Reconstruction::run`] is built to be allocation-free and cache-friendly
//! per record: a one-time [`LogIndex`] pass interns nodes, classes, and
//! `(server, connection)` pairs into dense `usize` slots, then a single
//! forward loop over the records keeps the candidate sets and
//! per-connection FIFO queues as intrusive linked lists threaded through
//! flat arrays, and parent selection folds candidates into a running winner
//! ([`TierBest`]) instead of materializing candidate vectors.
//!
//! The walk does not scan a server's queue. Unblocked active spans live in
//! one list per `(server, class)` that carries its length, and a span is
//! linked only at its arrival or at a child's response — both stamp
//! `last_event` with the current record's time (a child response reaching a
//! parent that is already linked moves it to the tail) — so every list is
//! sorted by `last_event`. The class tier's candidate count is the list's
//! length, the [`Heuristic::LongestQuiescent`] winner is at the head, and
//! the walk stops at the first candidate strictly later than the winner
//! (for [`Heuristic::ProfileGuided`], than the first fan-out-eligible one);
//! equal timestamps are walked through because keys tie-break on the span
//! index. `MostRecent` and `Fifo` walk the class list in full, and so does
//! everyone from the first record whose timestamp goes backwards: that
//! latches the early exit off, and a full walk is exact whatever the order
//! because keys are total. The rare fallbacks walk all of the server's lists
//! (class relaxed), then its active list (everyone blocked). The work is
//! counted: `reconstruct.candidates`.
//!
//! The original `HashMap`-keyed implementation is kept verbatim as
//! [`reference`] — the executable specification that the property tests
//! (`reconstruct_fast_matches_reference*`) hold the fast path bit-identical
//! to.

use std::collections::HashMap;

use fgbd_des::hash::FxBuildHasher;
use fgbd_des::SimTime;

use crate::record::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId,
};

/// Parent-attribution strategy for downstream calls (applied after the hard
/// blocked/class pruning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Attribute to the candidate whose last observed event (arrival, issued
    /// call, or received child response) is **oldest**: under processor
    /// sharing it has had the most time to finish its CPU segment and issue
    /// the next call. The default, and empirically the most accurate.
    LongestQuiescent,
    /// Attribute to the candidate whose last observed event is most recent.
    /// A baseline `ntier/tests/reconstruction_quality.rs` scores against.
    MostRecent,
    /// Attribute to the oldest active request (FIFO by arrival). A naive
    /// baseline.
    Fifo,
    /// [`Heuristic::LongestQuiescent`], additionally filtered by learned
    /// per-class fan-out counts: parents that already issued as many calls
    /// as their class was ever observed to issue (in unambiguous cases) are
    /// ruled out.
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

/// Linked-list / slot sentinel for the dense tables.
const NONE: u32 = u32::MAX;

/// Dense per-capture tables built in one pass before reconstruction: node,
/// class, and `(span server, connection)` identifiers are interned into
/// contiguous `0..n` slots so the record loop indexes flat arrays instead of
/// hashing. Node ids that appear in records but not in `nodes` (foreign
/// taps, corrupt captures) are interned as servers — exactly how the
/// reference treats them.
struct LogIndex {
    /// `NodeId.0 → dense node slot` (`NONE` = id never seen).
    node_slot: Vec<u32>,
    /// Per node slot: is this node a client generator? Replaces the old
    /// linear `Vec::contains` client test with one indexed load.
    client: Vec<bool>,
    /// Number of interned nodes.
    n_nodes: usize,
    /// `ClassId.0 → dense class slot`.
    class_slot: Vec<u32>,
    /// Number of interned classes.
    n_classes: usize,
    /// Per record: dense slot of its `(span server, connection)` pair — the
    /// key request/response matching runs on.
    rec_conn: Vec<u32>,
    /// Number of interned `(span server, connection)` pairs.
    n_conns: usize,
}

impl LogIndex {
    fn build(nodes: &[NodeMeta], records: &[MsgRecord]) -> LogIndex {
        let mut max_node = 0usize;
        let mut max_class = 0usize;
        for n in nodes {
            max_node = max_node.max(usize::from(n.id.0));
        }
        for r in records {
            max_node = max_node.max(usize::from(r.src.0)).max(usize::from(r.dst.0));
            max_class = max_class.max(usize::from(r.class.0));
        }
        let mut node_slot = vec![NONE; max_node + 1];
        let mut client = Vec::with_capacity(nodes.len());
        for n in nodes {
            let e = &mut node_slot[usize::from(n.id.0)];
            if *e == NONE {
                *e = client.len() as u32;
                client.push(n.kind == NodeKind::Client);
            }
        }
        let mut class_slot = vec![NONE; max_class + 1];
        let mut n_classes = 0u32;
        let mut conn_slots: HashMap<(u32, ConnId), u32, FxBuildHasher> =
            HashMap::with_capacity_and_hasher(records.len() / 2 + 1, FxBuildHasher);
        let mut rec_conn = Vec::with_capacity(records.len());
        for r in records {
            for id in [r.src, r.dst] {
                let e = &mut node_slot[usize::from(id.0)];
                if *e == NONE {
                    *e = client.len() as u32;
                    client.push(false);
                }
            }
            let ce = &mut class_slot[usize::from(r.class.0)];
            if *ce == NONE {
                *ce = n_classes;
                n_classes += 1;
            }
            let span_server = node_slot[usize::from(r.span_node().0)];
            let next = conn_slots.len() as u32;
            rec_conn.push(*conn_slots.entry((span_server, r.conn)).or_insert(next));
        }
        LogIndex {
            n_nodes: client.len(),
            node_slot,
            client,
            class_slot,
            n_classes: n_classes as usize,
            rec_conn,
            n_conns: conn_slots.len(),
        }
    }

    #[inline]
    fn node(&self, id: NodeId) -> usize {
        self.node_slot[usize::from(id.0)] as usize
    }
}

/// Running winner over one candidate tier (class-matched, or the
/// class-relaxed / everyone-blocked fallback) of the parent scan. Tracks the
/// heuristic's best candidate plus, for [`Heuristic::ProfileGuided`], the
/// best among fan-out-eligible candidates — so no candidate set is ever
/// materialized.
#[derive(Clone, Copy)]
struct TierBest {
    count: u32,
    best: u32,
    best_key: (SimTime, u32),
    pg_count: u32,
    pg_best: u32,
    pg_key: (SimTime, u32),
}

impl TierBest {
    const EMPTY: TierBest = TierBest {
        count: 0,
        best: NONE,
        best_key: (SimTime::ZERO, 0),
        pg_count: 0,
        pg_best: NONE,
        pg_key: (SimTime::ZERO, 0),
    };

    /// Folds candidate `i` into the running winners under `heuristic`'s sort
    /// key (max-key for MostRecent, min-key otherwise); the profile-guided
    /// winner takes only candidates under their learned fan-out cap.
    #[inline]
    fn add(&mut self, i: u32, h: &HotSpan, heuristic: Heuristic, profile: &[(u32, u64)]) {
        let key = match heuristic {
            Heuristic::Fifo => (h.arrival, i),
            _ => (h.last_event, i),
        };
        let take_max = heuristic == Heuristic::MostRecent;
        self.count += 1;
        let better = self.count == 1 || ((key > self.best_key) == take_max && key != self.best_key);
        if better {
            self.best = i;
            self.best_key = key;
        }
        let eligible = heuristic == Heuristic::ProfileGuided && {
            let (max, n) = profile[h.cell as usize];
            n < 8 || h.calls_issued < max
        };
        if eligible {
            self.pg_count += 1;
            if self.pg_count == 1 || key < self.pg_key {
                self.pg_best = i;
                self.pg_key = key;
            }
        }
    }

    /// Walking a list sorted by `last_event`: is the min-key winner already
    /// in hand at a candidate stamped `t`, strictly later than it?
    #[inline]
    fn settled_at(&self, t: SimTime, heuristic: Heuristic) -> bool {
        let (seen, key) = match heuristic {
            Heuristic::ProfileGuided => (self.pg_count, self.pg_key),
            _ => (self.count, self.best_key),
        };
        seen > 0 && t > key.0
    }

    /// The tier's chosen parent — for ProfileGuided the best eligible
    /// candidate, falling back to the unfiltered winner when the learned
    /// caps rule everyone out (mirroring [`reference`]'s fallback).
    #[inline]
    fn pick(&self, heuristic: Heuristic) -> Option<usize> {
        if self.count == 0 {
            None
        } else if heuristic == Heuristic::ProfileGuided && self.pg_count > 0 {
            Some(self.pg_best as usize)
        } else {
            Some(self.best as usize)
        }
    }
}

/// Everything the candidate walk reads about a span, packed into a single
/// cache line's worth of state (32 bytes): the walk chases `unb_next` /
/// `act_next` pointers through random heap order, so one load per candidate
/// instead of one per parallel array is the difference between a
/// memory-bound and a compute-bound scan. `unb_prev`/`unb_next` thread the
/// span's *unblocked* list ([`UnbLists`]) through this same struct.
#[derive(Clone, Copy)]
struct HotSpan {
    /// Last observed event (arrival, issued call, received child response).
    last_event: SimTime,
    /// Request-message capture time (the FIFO heuristic's sort key).
    arrival: SimTime,
    /// Dense `(server slot, class slot)` cell: `server * n_classes + class`
    /// — the span's unblocked list and its fan-out profile entry.
    cell: u32,
    /// Downstream calls attributed so far (the profile-guided cap test).
    calls_issued: u32,
    /// Intrusive unblocked-list links.
    unb_prev: u32,
    unb_next: u32,
}

/// One intrusive list of *unblocked* active spans per `(server, class)`
/// cell, each carrying its length. Spans enter at the tail, stamped with the
/// current record's time, so while record times never go backwards every
/// list is sorted by `last_event`.
struct UnbLists {
    head: Vec<u32>,
    tail: Vec<u32>,
    len: Vec<u32>,
}

impl UnbLists {
    /// Unlinks span `i` from its cell's list.
    #[inline]
    fn unlink(&mut self, hot: &mut [HotSpan], i: usize) {
        let (cell, p, n) = (hot[i].cell as usize, hot[i].unb_prev, hot[i].unb_next);
        if p == NONE {
            self.head[cell] = n;
        } else {
            hot[p as usize].unb_next = n;
        }
        if n == NONE {
            self.tail[cell] = p;
        } else {
            hot[n as usize].unb_prev = p;
        }
        self.len[cell] -= 1;
    }

    /// Appends span `i` to the tail of its cell's list.
    #[inline]
    fn push_back(&mut self, hot: &mut [HotSpan], i: usize) {
        let cell = hot[i].cell as usize;
        let t = self.tail[cell];
        if t == NONE {
            self.head[cell] = i as u32;
        } else {
            hot[t as usize].unb_next = i as u32;
        }
        hot[i].unb_prev = t;
        hot[i].unb_next = NONE;
        self.tail[cell] = i as u32;
        self.len[cell] += 1;
    }
}

impl Reconstruction {
    /// Reconstructs transactions from a capture using `heuristic`.
    ///
    /// Only observable fields are consulted; ground truth is copied through
    /// for later validation but never influences attribution (verified by
    /// the `blinded_log_gives_identical_edges` test).
    pub fn run(log: &TraceLog, heuristic: Heuristic) -> Reconstruction {
        Reconstruction::run_records(&log.nodes, &log.records, heuristic)
    }

    /// [`Reconstruction::run`] over borrowed records — what a capture
    /// prefix calibrates through without building a [`TraceLog`].
    ///
    /// This is the dense-index fast path: after the one-time [`LogIndex`]
    /// interning pass, one forward loop that performs no heap allocation
    /// beyond growing the output span table — property-tested bit-identical
    /// to [`reference::run`] across all four heuristics.
    pub fn run_records(
        nodes: &[NodeMeta],
        records: &[MsgRecord],
        heuristic: Heuristic,
    ) -> Reconstruction {
        fgbd_obsv::span!("reconstruct");
        assert!(
            records.len() < NONE as usize,
            "capture too large for u32 span indices"
        );
        let ix = LogIndex::build(nodes, records);
        let n_cells = ix.n_nodes * ix.n_classes;

        let cap = records.len() / 2 + 1;
        let mut spans: Vec<RecSpan> = Vec::with_capacity(cap);
        // Per-span dense state, parallel to `spans`. The candidate walk
        // touches only `hot`; the flags and the active/FIFO links are read
        // at single points per record.
        let mut hot: Vec<HotSpan> = Vec::with_capacity(cap);
        let mut blocked: Vec<bool> = Vec::with_capacity(cap);
        let mut in_unb: Vec<bool> = Vec::with_capacity(cap);
        let mut unambiguous: Vec<bool> = Vec::with_capacity(cap);
        // Intrusive per-server active list (doubly linked: O(1) unlink on
        // response) and per-(server, conn) open-request FIFO (singly linked).
        let mut act_prev: Vec<u32> = Vec::with_capacity(cap);
        let mut act_next: Vec<u32> = Vec::with_capacity(cap);
        let mut open_next: Vec<u32> = Vec::with_capacity(cap);
        let mut active_head = vec![NONE; ix.n_nodes];
        let mut active_tail = vec![NONE; ix.n_nodes];
        // Blocked spans cannot call (the hard constraint): candidates come
        // from these lists, except in the everyone-blocked fallback.
        let mut unb = UnbLists {
            head: vec![NONE; n_cells],
            tail: vec![NONE; n_cells],
            len: vec![0; n_cells],
        };
        let mut open_head = vec![NONE; ix.n_conns];
        let mut open_tail = vec![NONE; ix.n_conns];
        // Fan-out profile per cell: (max calls, samples), unambiguous parents.
        let mut profile = vec![(0u32, 0u64); n_cells];
        // The early exit needs the winner at the head of a sorted list: the
        // min-`last_event` heuristics, until a record time goes backwards.
        let mut sorted = !matches!(heuristic, Heuristic::MostRecent | Heuristic::Fifo);
        let mut prev_at = SimTime::ZERO;
        let mut visited = 0u64;

        for (ri, rec) in records.iter().enumerate() {
            sorted &= rec.at >= prev_at;
            prev_at = rec.at;
            match rec.kind {
                MsgKind::Request => {
                    let server = rec.dst;
                    let idx = spans.len();
                    let src = ix.node(rec.src);
                    let rec_class = ix.class_slot[usize::from(rec.class.0)] as usize;
                    let (parent, root) = if ix.client[src] {
                        (None, idx)
                    } else {
                        // Soft constraint (a transaction keeps its class):
                        // the source's unblocked spans of the call's class,
                        // head first, up to the winner when sorted.
                        let cells = src * ix.n_classes..(src + 1) * ix.n_classes;
                        let cell = cells.start + rec_class;
                        let mut tier = TierBest::EMPTY;
                        let mut cur = unb.head[cell];
                        while cur != NONE {
                            let h = &hot[cur as usize];
                            if sorted && tier.settled_at(h.last_event, heuristic) {
                                break;
                            }
                            tier.add(cur, h, heuristic, &profile);
                            cur = h.unb_next;
                        }
                        if tier.count == 0 {
                            // Relaxed: every unblocked span on the server.
                            for c in cells {
                                let mut cur = unb.head[c];
                                while cur != NONE {
                                    let h = &hot[cur as usize];
                                    tier.add(cur, h, heuristic, &profile);
                                    cur = h.unb_next;
                                }
                            }
                        }
                        if tier.count == 0 {
                            // Everyone is blocked: the full active list.
                            let mut cur = active_head[src];
                            while cur != NONE {
                                tier.add(cur, &hot[cur as usize], heuristic, &profile);
                                cur = act_next[cur as usize];
                            }
                        }
                        visited += u64::from(tier.count);
                        // A class list's members are candidates walked or not.
                        let candidates = tier.count.max(unb.len[cell]);
                        match tier.pick(heuristic) {
                            Some(p) => {
                                if candidates > 1 {
                                    // This parent's call count is now
                                    // heuristic-dependent; don't learn from it.
                                    unambiguous[p] = false;
                                }
                                blocked[p] = true;
                                if in_unb[p] {
                                    unb.unlink(&mut hot, p);
                                    in_unb[p] = false;
                                }
                                (Some(p), spans[p].root)
                            }
                            // Orphan call (capture truncation): treat as its
                            // own root so analysis can continue.
                            None => (None, idx),
                        }
                    };
                    spans.push(RecSpan {
                        server,
                        class: rec.class,
                        arrival: rec.at,
                        departure: None,
                        conn: rec.conn,
                        parent,
                        root,
                        calls_issued: 0,
                        truth: rec.truth,
                    });
                    let d = ix.node(server);
                    hot.push(HotSpan {
                        last_event: rec.at,
                        arrival: rec.at,
                        cell: (d * ix.n_classes + rec_class) as u32,
                        calls_issued: 0,
                        unb_prev: NONE,
                        unb_next: NONE,
                    });
                    blocked.push(false);
                    in_unb.push(true);
                    unambiguous.push(true);
                    act_prev.push(NONE);
                    act_next.push(NONE);
                    open_next.push(NONE);
                    if let Some(p) = parent {
                        spans[p].calls_issued += 1;
                        hot[p].calls_issued += 1;
                        hot[p].last_event = rec.at;
                    }
                    let idx32 = idx as u32;
                    // Append to the (server, conn) open-request FIFO.
                    let c = ix.rec_conn[ri] as usize;
                    if open_tail[c] == NONE {
                        open_head[c] = idx32;
                    } else {
                        open_next[open_tail[c] as usize] = idx32;
                    }
                    open_tail[c] = idx32;
                    // Append to the server's active and unblocked lists.
                    let tail = active_tail[d];
                    if tail == NONE {
                        active_head[d] = idx32;
                    } else {
                        act_next[tail as usize] = idx32;
                    }
                    act_prev[idx] = tail;
                    active_tail[d] = idx32;
                    unb.push_back(&mut hot, idx);
                }
                MsgKind::Response => {
                    // Pop the (server, conn) FIFO head; a response with no
                    // matching request is a front-truncated capture — skip.
                    let c = ix.rec_conn[ri] as usize;
                    let head = open_head[c];
                    if head == NONE {
                        continue;
                    }
                    let idx = head as usize;
                    open_head[c] = open_next[idx];
                    if open_head[c] == NONE {
                        open_tail[c] = NONE;
                    }
                    spans[idx].departure = Some(rec.at);
                    // Unlink from the server's active and unblocked lists.
                    let sslot = ix.node(spans[idx].server);
                    let (p, n) = (act_prev[idx], act_next[idx]);
                    if p == NONE {
                        active_head[sslot] = n;
                    } else {
                        act_next[p as usize] = n;
                    }
                    if n == NONE {
                        active_tail[sslot] = p;
                    } else {
                        act_prev[n as usize] = p;
                    }
                    if in_unb[idx] {
                        unb.unlink(&mut hot, idx);
                        in_unb[idx] = false;
                    }
                    if let Some(par) = spans[idx].parent {
                        hot[par].last_event = rec.at;
                        blocked[par] = false;
                        // The parent is a candidate again — unless it already
                        // departed (out-of-order pairing in a truncated
                        // capture), in which case it left the active set. One
                        // that is already linked (it held two outstanding
                        // calls, the second taken in the everyone-blocked
                        // fallback) moves to the tail: its list stays sorted.
                        if spans[par].departure.is_none() {
                            if in_unb[par] {
                                unb.unlink(&mut hot, par);
                            }
                            unb.push_back(&mut hot, par);
                            in_unb[par] = true;
                        }
                    }
                    // Feed the fan-out profile from unambiguous spans.
                    if unambiguous[idx] && spans[idx].calls_issued > 0 {
                        let e = &mut profile[hot[idx].cell as usize];
                        e.0 = e.0.max(spans[idx].calls_issued);
                        e.1 += 1;
                    }
                }
            }
        }

        // Materialize transactions in two exact-capacity passes: roots in
        // creation order, then members in span (creation) order — the same
        // ordering the incremental reference registration produces.
        let mut txn_of_root: Vec<u32> = vec![NONE; spans.len()];
        let mut txns: Vec<Txn> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() && s.root == i {
                txn_of_root[i] = txns.len() as u32;
                txns.push(Txn {
                    root: i,
                    spans: Vec::new(),
                    complete: false,
                });
            }
        }
        let mut counts = vec![0usize; txns.len()];
        for s in &spans {
            counts[txn_of_root[s.root] as usize] += 1;
        }
        for (t, c) in txns.iter_mut().zip(counts) {
            t.spans.reserve_exact(c);
        }
        for (i, s) in spans.iter().enumerate() {
            txns[txn_of_root[s.root] as usize].spans.push(i);
        }
        for txn in &mut txns {
            txn.complete = txn.spans.iter().all(|&i| spans[i].departure.is_some());
        }

        fgbd_obsv::counter!("reconstruct.records", records.len() as u64);
        fgbd_obsv::counter!("reconstruct.spans", spans.len() as u64);
        fgbd_obsv::counter!("reconstruct.txns", txns.len() as u64);
        fgbd_obsv::counter!("reconstruct.candidates", visited);
        Reconstruction { spans, txns }
    }

    /// Number of complete transactions.
    pub fn complete_txns(&self) -> usize {
        self.txns.iter().filter(|t| t.complete).count()
    }

    /// Indices of the direct children of span `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(i))
            .map(|(j, _)| j)
            .collect()
    }
}

/// The original `HashMap`-keyed reconstruction, kept verbatim as the
/// executable specification of [`Reconstruction::run`]: the proptest oracle
/// (`reconstruct_fast_matches_reference*`) compares the dense fast path
/// against this span-for-span.
pub mod reference {
    use super::*;

    /// Reconstructs transactions from a capture using `heuristic` — the
    /// specification implementation the fast path is held bit-identical to.
    pub fn run(log: &TraceLog, heuristic: Heuristic) -> Reconstruction {
        let client: Vec<NodeId> = log
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Client)
            .map(|n| n.id)
            .collect();
        let is_client = |id: NodeId| client.contains(&id);

        let mut spans: Vec<RecSpan> = Vec::new();
        let mut last_event: Vec<SimTime> = Vec::new();
        // Spans blocked on an outstanding downstream call (synchronous
        // middleware: such spans cannot issue another call).
        let mut blocked: Vec<bool> = Vec::new();
        // Open requests per (server, conn), FIFO.
        let mut open: HashMap<(NodeId, ConnId), Vec<usize>> = HashMap::new();
        // Active span indices per server.
        let mut active: HashMap<NodeId, Vec<usize>> = HashMap::new();
        // Learned fan-out profile: (server, class) -> (max calls, samples)
        // from unambiguous parents.
        let mut profile: HashMap<(NodeId, ClassId), (u32, u64)> = HashMap::new();
        // Marks spans whose entire life had exactly one candidate ambiguity
        // (so their call count is trustworthy for the profile).
        let mut unambiguous: Vec<bool> = Vec::new();
        let mut txn_of_root: HashMap<usize, usize> = HashMap::new();
        let mut txns: Vec<Txn> = Vec::new();

        for rec in &log.records {
            match rec.kind {
                MsgKind::Request => {
                    let server = rec.dst;
                    let idx = spans.len();
                    let (parent, root) = if is_client(rec.src) {
                        (None, idx)
                    } else {
                        let all = active.get(&rec.src).map_or(&[][..], Vec::as_slice);
                        // Hard constraint: blocked spans cannot call.
                        let unblocked: Vec<usize> =
                            all.iter().copied().filter(|&i| !blocked[i]).collect();
                        // Soft constraint: class signatures are consistent
                        // along a transaction; relax if it empties the set.
                        let class_match: Vec<usize> = unblocked
                            .iter()
                            .copied()
                            .filter(|&i| spans[i].class == rec.class)
                            .collect();
                        let cands: &[usize] = if !class_match.is_empty() {
                            &class_match
                        } else if !unblocked.is_empty() {
                            &unblocked
                        } else {
                            all
                        };
                        let chosen = choose_parent(cands, &spans, &last_event, &profile, heuristic);
                        match chosen {
                            Some(p) => {
                                if cands.len() > 1 {
                                    // This parent's call count is now
                                    // heuristic-dependent; don't learn from it.
                                    unambiguous[p] = false;
                                }
                                blocked[p] = true;
                                (Some(p), spans[p].root)
                            }
                            // Orphan call (capture truncation): treat as its
                            // own root so analysis can continue.
                            None => (None, idx),
                        }
                    };
                    spans.push(RecSpan {
                        server,
                        class: rec.class,
                        arrival: rec.at,
                        departure: None,
                        conn: rec.conn,
                        parent,
                        root,
                        calls_issued: 0,
                        truth: rec.truth,
                    });
                    last_event.push(rec.at);
                    blocked.push(false);
                    unambiguous.push(true);
                    if let Some(p) = parent {
                        spans[p].calls_issued += 1;
                        last_event[p] = rec.at;
                    }
                    open.entry((server, rec.conn)).or_default().push(idx);
                    active.entry(server).or_default().push(idx);
                    // Register the transaction when a root appears.
                    if parent.is_none() && root == idx {
                        let t = txns.len();
                        txns.push(Txn {
                            root: idx,
                            spans: vec![idx],
                            complete: false,
                        });
                        txn_of_root.insert(idx, t);
                    } else {
                        let t = txn_of_root[&root];
                        txns[t].spans.push(idx);
                    }
                }
                MsgKind::Response => {
                    let server = rec.src;
                    let Some(idx) = open
                        .get_mut(&(server, rec.conn))
                        .filter(|v| !v.is_empty())
                        .map(|v| v.remove(0))
                    else {
                        // Response with no matching request: front-truncated
                        // capture; skip.
                        continue;
                    };
                    spans[idx].departure = Some(rec.at);
                    if let Some(v) = active.get_mut(&server) {
                        v.retain(|&i| i != idx);
                    }
                    if let Some(p) = spans[idx].parent {
                        last_event[p] = rec.at;
                        blocked[p] = false;
                    }
                    // Feed the fan-out profile from unambiguous spans.
                    if unambiguous[idx] && spans[idx].calls_issued > 0 {
                        let e = profile.entry((server, spans[idx].class)).or_insert((0, 0));
                        e.0 = e.0.max(spans[idx].calls_issued);
                        e.1 += 1;
                    }
                }
            }
        }

        for txn in &mut txns {
            txn.complete = txn.spans.iter().all(|&i| spans[i].departure.is_some());
        }

        Reconstruction { spans, txns }
    }

    fn choose_parent(
        cands: &[usize],
        spans: &[RecSpan],
        last_event: &[SimTime],
        profile: &HashMap<(NodeId, ClassId), (u32, u64)>,
        heuristic: Heuristic,
    ) -> Option<usize> {
        if cands.is_empty() {
            return None;
        }
        if cands.len() == 1 {
            return Some(cands[0]);
        }
        match heuristic {
            Heuristic::LongestQuiescent => longest_quiescent(cands, last_event),
            Heuristic::MostRecent => cands.iter().copied().max_by_key(|&i| (last_event[i], i)),
            Heuristic::Fifo => cands.iter().copied().min_by_key(|&i| (spans[i].arrival, i)),
            Heuristic::ProfileGuided => {
                // Keep candidates that have not yet exhausted their learned
                // fan-out cap; fall back to all candidates if none qualify.
                let cap = |i: usize| -> Option<u32> {
                    let (max, n) = profile.get(&(spans[i].server, spans[i].class))?;
                    if *n < 8 {
                        return None; // too few samples to trust
                    }
                    Some(*max)
                };
                let eligible: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| cap(i).is_none_or(|b| spans[i].calls_issued < b))
                    .collect();
                if eligible.is_empty() {
                    longest_quiescent(cands, last_event)
                } else {
                    longest_quiescent(&eligible, last_event)
                }
            }
        }
    }

    fn longest_quiescent(cands: &[usize], last_event: &[SimTime]) -> Option<usize> {
        cands.iter().copied().min_by_key(|&i| (last_event[i], i))
    }
}

/// Reconstruction quality relative to ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Fraction of non-root spans attributed to a parent of the correct
    /// transaction.
    pub edge_accuracy: f64,
    /// Fraction of complete ground-truth transactions whose reconstructed
    /// span set matches exactly.
    pub txn_accuracy: f64,
    /// Number of non-root spans scored.
    pub edges: usize,
    /// Number of ground-truth transactions scored.
    pub txns: usize,
}

impl Accuracy {
    /// Scores `rec` against the ground-truth annotations it carries.
    ///
    /// Spans without ground truth (blinded captures) are skipped; call this
    /// on a reconstruction of the *annotated* log.
    pub fn evaluate(rec: &Reconstruction) -> Accuracy {
        let mut edges = 0usize;
        let mut correct_edges = 0usize;
        for s in &rec.spans {
            let (Some(p), Some(truth)) = (s.parent, s.truth) else {
                continue;
            };
            edges += 1;
            if rec.spans[p].truth == Some(truth) {
                correct_edges += 1;
            }
        }

        // Ground-truth span multiset per txn id (only spans that closed).
        let mut truth_count: HashMap<TxnId, usize> = HashMap::new();
        for s in &rec.spans {
            if let (Some(t), Some(_)) = (s.truth, s.departure) {
                *truth_count.entry(t).or_default() += 1;
            }
        }
        let mut txns = 0usize;
        let mut correct_txns = 0usize;
        for txn in &rec.txns {
            if !txn.complete {
                continue;
            }
            let Some(root_truth) = rec.spans[txn.root].truth else {
                continue;
            };
            txns += 1;
            let all_match = txn
                .spans
                .iter()
                .all(|&i| rec.spans[i].truth == Some(root_truth));
            if all_match && truth_count.get(&root_truth) == Some(&txn.spans.len()) {
                correct_txns += 1;
            }
        }

        Accuracy {
            edge_accuracy: if edges == 0 {
                1.0
            } else {
                correct_edges as f64 / edges as f64
            },
            txn_accuracy: if txns == 0 {
                1.0
            } else {
                correct_txns as f64 / txns as f64
            },
            edges,
            txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MsgRecord, NodeMeta};

    const CLIENT: NodeId = NodeId(0);
    const WEB: NodeId = NodeId(1);
    const APP: NodeId = NodeId(2);

    const ALL_HEURISTICS: [Heuristic; 4] = [
        Heuristic::LongestQuiescent,
        Heuristic::MostRecent,
        Heuristic::Fifo,
        Heuristic::ProfileGuided,
    ];

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

    /// Two fully serial transactions: unambiguous regardless of heuristic.
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
        for h in ALL_HEURISTICS {
            let rec = Reconstruction::run(&serial_log(), h);
            assert_eq!(rec.txns.len(), 2);
            assert_eq!(rec.complete_txns(), 2);
            let acc = Accuracy::evaluate(&rec);
            assert_eq!(acc.edge_accuracy, 1.0, "heuristic {h:?}");
            assert_eq!(acc.txn_accuracy, 1.0, "heuristic {h:?}");
            assert_eq!(acc.edges, 2);
        }
    }

    /// A blocked span cannot be attributed a second call, no matter the
    /// heuristic: while txn 1's app call is outstanding, txn 2's call can
    /// only belong to txn 2.
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
        for h in [
            Heuristic::LongestQuiescent,
            Heuristic::MostRecent,
            Heuristic::Fifo,
        ] {
            let r = Reconstruction::run(&log, h);
            let acc = Accuracy::evaluate(&r);
            assert_eq!(acc.edge_accuracy, 1.0, "{h:?}");
            assert_eq!(acc.txn_accuracy, 1.0, "{h:?}");
        }
    }

    /// When two unblocked same-class spans are candidates, the one whose
    /// last event is oldest has had the time to finish its CPU segment and
    /// issue the call — LongestQuiescent resolves this, MostRecent does not.
    #[test]
    fn longest_quiescent_beats_most_recent_on_second_calls() {
        let mut log = TraceLog::new(nodes());
        // Txn 1 arrives, issues call 1 immediately, gets its response at 20,
        // then computes for 20us before issuing call 2 at t=40.
        log.push(rec(0, CLIENT, WEB, MsgKind::Request, 10, 1));
        log.push(rec(2, WEB, APP, MsgKind::Request, 110, 1));
        log.push(rec(20, APP, WEB, MsgKind::Response, 110, 1));
        // Txn 2 arrives at 30 (its last event is newer than txn 1's).
        log.push(rec(30, CLIENT, WEB, MsgKind::Request, 11, 2));
        // Txn 1 issues its second call at t=40.
        log.push(rec(40, WEB, APP, MsgKind::Request, 111, 1));
        log.push(rec(55, APP, WEB, MsgKind::Response, 111, 1));
        log.push(rec(60, WEB, CLIENT, MsgKind::Response, 10, 1));
        // Txn 2 issues its call only after txn 1 finished.
        log.push(rec(65, WEB, APP, MsgKind::Request, 112, 2));
        log.push(rec(75, APP, WEB, MsgKind::Response, 112, 2));
        log.push(rec(80, WEB, CLIENT, MsgKind::Response, 11, 2));
        let good = Accuracy::evaluate(&Reconstruction::run(&log, Heuristic::LongestQuiescent));
        assert_eq!(good.edge_accuracy, 1.0);
        let bad = Accuracy::evaluate(&Reconstruction::run(&log, Heuristic::MostRecent));
        assert!(bad.edge_accuracy < 1.0);
    }

    #[test]
    fn blinded_log_gives_identical_edges() {
        let log = serial_log();
        let a = Reconstruction::run(&log, Heuristic::LongestQuiescent);
        let b = Reconstruction::run(&log.blinded(), Heuristic::LongestQuiescent);
        let edges_a: Vec<Option<usize>> = a.spans.iter().map(|s| s.parent).collect();
        let edges_b: Vec<Option<usize>> = b.spans.iter().map(|s| s.parent).collect();
        assert_eq!(edges_a, edges_b);
        // Blinded spans carry no truth.
        assert!(b.spans.iter().all(|s| s.truth.is_none()));
    }

    #[test]
    fn incomplete_txn_is_flagged() {
        let mut log = serial_log();
        // A root whose response never arrives.
        log.push(rec(5000, CLIENT, WEB, MsgKind::Request, 12, 3));
        let r = Reconstruction::run(&log, Heuristic::LongestQuiescent);
        assert_eq!(r.txns.len(), 3);
        assert_eq!(r.complete_txns(), 2);
    }

    #[test]
    fn orphan_downstream_call_becomes_root() {
        let mut log = TraceLog::new(nodes());
        // An app call with no active web span (front truncation).
        log.push(rec(10, WEB, APP, MsgKind::Request, 100, 9));
        log.push(rec(20, APP, WEB, MsgKind::Response, 100, 9));
        let r = Reconstruction::run(&log, Heuristic::LongestQuiescent);
        assert_eq!(r.txns.len(), 1);
        assert!(r.spans[0].parent.is_none());
    }

    #[test]
    fn children_lists_direct_descendants() {
        let r = Reconstruction::run(&serial_log(), Heuristic::LongestQuiescent);
        assert_eq!(r.children(0), vec![1]);
        assert!(r.children(1).is_empty());
    }

    /// Spot-check of the proptest oracle: fast path and reference agree
    /// span-for-span on an ambiguous interleaved log, for every heuristic.
    #[test]
    fn fast_path_matches_reference_on_interleaved_log() {
        let mut log = TraceLog::new(nodes());
        // Three concurrent same-class web spans with overlapping app calls:
        // attribution is genuinely heuristic-dependent.
        log.push(rec(0, CLIENT, WEB, MsgKind::Request, 10, 1));
        log.push(rec(5, CLIENT, WEB, MsgKind::Request, 11, 2));
        log.push(rec(8, CLIENT, WEB, MsgKind::Request, 12, 3));
        log.push(rec(12, WEB, APP, MsgKind::Request, 110, 1));
        log.push(rec(14, WEB, APP, MsgKind::Request, 111, 2));
        log.push(rec(20, APP, WEB, MsgKind::Response, 110, 1));
        log.push(rec(22, WEB, APP, MsgKind::Request, 112, 3));
        log.push(rec(25, APP, WEB, MsgKind::Response, 111, 2));
        log.push(rec(28, APP, WEB, MsgKind::Response, 112, 3));
        log.push(rec(30, WEB, CLIENT, MsgKind::Response, 10, 1));
        log.push(rec(32, WEB, CLIENT, MsgKind::Response, 11, 2));
        log.push(rec(34, WEB, CLIENT, MsgKind::Response, 12, 3));
        // Plus an orphan response (front truncation) and an orphan call.
        log.push(rec(40, APP, WEB, MsgKind::Response, 999, 9));
        log.push(rec(45, WEB, APP, MsgKind::Request, 998, 9));
        for h in ALL_HEURISTICS {
            let fast = Reconstruction::run(&log, h);
            let spec = reference::run(&log, h);
            assert_eq!(fast.spans, spec.spans, "{h:?}");
            assert_eq!(fast.txns, spec.txns, "{h:?}");
        }
    }

    /// Records naming nodes absent from the node table (foreign taps) are
    /// treated as server traffic by both implementations.
    #[test]
    fn unknown_nodes_match_reference() {
        let mut log = TraceLog::new(nodes());
        let ghost = NodeId(7);
        log.push(rec(10, CLIENT, WEB, MsgKind::Request, 10, 1));
        log.push(rec(12, ghost, APP, MsgKind::Request, 200, 5));
        log.push(rec(15, WEB, ghost, MsgKind::Request, 201, 1));
        log.push(rec(20, APP, ghost, MsgKind::Response, 200, 5));
        log.push(rec(25, ghost, WEB, MsgKind::Response, 201, 1));
        log.push(rec(30, WEB, CLIENT, MsgKind::Response, 10, 1));
        for h in ALL_HEURISTICS {
            let fast = Reconstruction::run(&log, h);
            let spec = reference::run(&log, h);
            assert_eq!(fast.spans, spec.spans, "{h:?}");
            assert_eq!(fast.txns, spec.txns, "{h:?}");
        }
    }
}
