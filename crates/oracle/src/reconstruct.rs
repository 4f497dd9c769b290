//! The original `HashMap`-keyed black-box reconstruction: the executable
//! specification of `fgbd_trace::reconstruct`, with the baseline
//! tie-breaks the product's one rule was chosen over. The property tests
//! compare `Reconstruction::run` against it span for span under
//! [`Heuristic::ProfileGuided`], and through that table the service-time
//! fold, whole (`ServiceTimeTable::approximate`) and windowed
//! ([`approximate_window`]). [`Accuracy`] scores a reconstruction against
//! simulator ground truth.

use std::collections::HashMap;

use fgbd_des::SimTime;
use fgbd_trace::reconstruct::{RecSpan, Reconstruction, Txn};
use fgbd_trace::{ClassId, ConnId, MsgKind, NodeId, NodeKind, TraceLog, TxnId};

/// Parent-attribution tie-break among the candidates left after the hard
/// blocked/class pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// The candidate whose last observed event (arrival, issued call, or
    /// received child response) is **oldest**: under processor sharing it
    /// has had the most time to finish its CPU segment and issue the next
    /// call.
    LongestQuiescent,
    /// The candidate whose last observed event is most recent. A baseline.
    MostRecent,
    /// The oldest active request (FIFO by arrival). A naive baseline.
    Fifo,
    /// [`Heuristic::LongestQuiescent`], additionally filtered by learned
    /// per-class fan-out counts: parents that already issued as many calls
    /// as their class was ever observed to issue (in unambiguous cases) are
    /// ruled out. The rule `fgbd_trace::reconstruct` implements.
    ProfileGuided,
}

/// Reconstructs transactions from a capture using `heuristic` — under
/// [`Heuristic::ProfileGuided`], the specification the fast path is held
/// bit-identical to.
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
    // The open request per (server, conn): a connection carries one.
    let mut open: HashMap<(NodeId, ConnId), usize> = HashMap::new();
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
        // A response closes the open request on its (server, conn); a
        // request that finds one there closes it as lost, before its own
        // parent is chosen. A response with nothing open (front-truncated
        // capture) is skipped.
        let (server, conn) = (rec.span_node(), rec.conn);
        let closed = match rec.kind {
            MsgKind::Request => open.insert((server, conn), spans.len()),
            MsgKind::Response => open.remove(&(server, conn)),
        };
        if let Some(idx) = closed {
            // Only an answered span departs; a lost one leaves all the same.
            if rec.kind == MsgKind::Response {
                spans[idx].departure = Some(rec.at);
            }
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
        let MsgKind::Request = rec.kind else {
            continue;
        };
        let idx = spans.len();
        let (parent, root) = if is_client(rec.src) {
            (None, idx)
        } else {
            let all = active.get(&rec.src).map_or(&[][..], Vec::as_slice);
            // Hard constraint: blocked spans cannot call.
            let unblocked: Vec<usize> = all.iter().copied().filter(|&i| !blocked[i]).collect();
            // Soft constraint: class signatures are consistent along a
            // transaction; relax if it empties the set.
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
                        // This parent's call count is now heuristic-
                        // dependent; don't learn from it.
                        unambiguous[p] = false;
                    }
                    blocked[p] = true;
                    (Some(p), spans[p].root)
                }
                // Orphan call (capture truncation): treat as its own root
                // so analysis can continue.
                None => (None, idx),
            }
        };
        spans.push(RecSpan {
            server,
            class: rec.class,
            arrival: rec.at,
            departure: None,
            conn,
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

/// `ServiceTimeTable::approximate` restricted to the spans of `rec` arriving
/// in `[from, to)`, as plain `(server, class) → seconds`: the specification
/// of `ServiceFold::with_window`. A span's intra-node delay subtracts all of
/// its children's residences, whenever they arrived.
pub fn approximate_window(
    rec: &Reconstruction,
    quantile: f64,
    from: SimTime,
    to: SimTime,
) -> HashMap<(NodeId, ClassId), f64> {
    let mut child_wait = vec![0.0f64; rec.spans.len()];
    for s in &rec.spans {
        if let (Some(p), Some(dep)) = (s.parent, s.departure) {
            child_wait[p] += (dep - s.arrival).as_secs_f64();
        }
    }
    let mut samples: HashMap<(NodeId, ClassId), Vec<f64>> = HashMap::new();
    for (i, s) in rec.spans.iter().enumerate() {
        let Some(dep) = s.departure else { continue };
        let intra = (dep - s.arrival).as_secs_f64() - child_wait[i];
        if (from..to).contains(&s.arrival) && intra > 0.0 {
            samples.entry((s.server, s.class)).or_default().push(intra);
        }
    }
    samples
        .into_iter()
        .map(|(key, mut xs)| {
            xs.sort_by(f64::total_cmp);
            let idx = ((xs.len() - 1) as f64 * quantile).round() as usize;
            (key, xs[idx])
        })
        .collect()
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

/// Spot-checks of the proptest oracle (`crates/trace/tests/properties.rs`)
/// on hand-built logs; run from here because `fgbd-trace`'s own unit tests
/// would see this crate's copy of its types.
#[cfg(test)]
mod tests {
    use fgbd_trace::reconstruct::Heuristic as Rule;
    use fgbd_trace::{MsgRecord, NodeMeta};
    use MsgKind::{Request, Response};

    use super::*;

    const CLIENT: NodeId = NodeId(0);
    const WEB: NodeId = NodeId(1);
    const APP: NodeId = NodeId(2);

    /// A CLIENT → WEB → APP capture from
    /// `(at_us, src, dst, kind, conn, truth)`.
    fn log_of(events: &[(u64, NodeId, NodeId, MsgKind, u32, u64)]) -> TraceLog {
        let node = |id, name: &str, kind, tier| NodeMeta {
            id,
            name: name.into(),
            kind,
            tier,
        };
        let mut log = TraceLog::new(vec![
            node(CLIENT, "client", NodeKind::Client, None),
            node(WEB, "web", NodeKind::Server, Some(0)),
            node(APP, "app", NodeKind::Server, Some(1)),
        ]);
        for &(at, src, dst, kind, conn, truth) in events {
            log.push(MsgRecord {
                at: SimTime::from_micros(at),
                src,
                dst,
                kind,
                conn: ConnId(conn),
                class: ClassId(1),
                bytes: 64,
                truth: Some(TxnId(truth)),
            });
        }
        log
    }

    fn assert_fast_path_matches(log: &TraceLog) {
        let fast = Reconstruction::run(log, Rule::ProfileGuided);
        let spec = run(log, Heuristic::ProfileGuided);
        assert_eq!(fast.spans, spec.spans);
        assert_eq!(fast.txns, spec.txns);
    }

    /// Fast path and reference agree span-for-span on an ambiguous
    /// interleaved log.
    #[test]
    fn fast_path_matches_reference_on_interleaved_log() {
        assert_fast_path_matches(&log_of(&[
            // Three concurrent same-class web spans with overlapping app
            // calls: attribution genuinely depends on the tie-break.
            (0, CLIENT, WEB, Request, 10, 1),
            (5, CLIENT, WEB, Request, 11, 2),
            (8, CLIENT, WEB, Request, 12, 3),
            (12, WEB, APP, Request, 110, 1),
            (14, WEB, APP, Request, 111, 2),
            (20, APP, WEB, Response, 110, 1),
            (22, WEB, APP, Request, 112, 3),
            (25, APP, WEB, Response, 111, 2),
            (28, APP, WEB, Response, 112, 3),
            (30, WEB, CLIENT, Response, 10, 1),
            (32, WEB, CLIENT, Response, 11, 2),
            (34, WEB, CLIENT, Response, 12, 3),
            // Plus an orphan response (front truncation) and an orphan call.
            (40, APP, WEB, Response, 999, 9),
            (45, WEB, APP, Request, 998, 9),
        ]));
    }

    /// Records naming nodes absent from the node table (foreign taps) are
    /// treated as server traffic by both implementations.
    #[test]
    fn unknown_nodes_match_reference() {
        let ghost = NodeId(7);
        assert_fast_path_matches(&log_of(&[
            (10, CLIENT, WEB, Request, 10, 1),
            (12, ghost, APP, Request, 200, 5),
            (15, WEB, ghost, Request, 201, 1),
            (20, APP, ghost, Response, 200, 5),
            (25, ghost, WEB, Response, 201, 1),
            (30, WEB, CLIENT, Response, 10, 1),
        ]));
    }

    /// When two unblocked same-class spans are candidates, the one whose
    /// last event is oldest has had the time to finish its CPU segment and
    /// issue the call — LongestQuiescent (and the product's rule) resolves
    /// this, MostRecent does not.
    #[test]
    fn longest_quiescent_beats_most_recent_on_second_calls() {
        let log = log_of(&[
            // Txn 1 arrives, issues call 1 immediately, gets its response
            // at 20, then computes for 20us before issuing call 2 at t=40.
            (0, CLIENT, WEB, Request, 10, 1),
            (2, WEB, APP, Request, 110, 1),
            (20, APP, WEB, Response, 110, 1),
            // Txn 2 arrives at 30 (its last event is newer than txn 1's).
            (30, CLIENT, WEB, Request, 11, 2),
            // Txn 1 issues its second call at t=40.
            (40, WEB, APP, Request, 111, 1),
            (55, APP, WEB, Response, 111, 1),
            (60, WEB, CLIENT, Response, 10, 1),
            // Txn 2 issues its call only after txn 1 finished.
            (65, WEB, APP, Request, 112, 2),
            (75, APP, WEB, Response, 112, 2),
            (80, WEB, CLIENT, Response, 11, 2),
        ]);
        let good = Accuracy::evaluate(&run(&log, Heuristic::LongestQuiescent));
        assert_eq!(good.edge_accuracy, 1.0);
        let shipped = Accuracy::evaluate(&Reconstruction::run(&log, Rule::ProfileGuided));
        assert_eq!(shipped.edge_accuracy, 1.0);
        let bad = Accuracy::evaluate(&run(&log, Heuristic::MostRecent));
        assert!(bad.edge_accuracy < 1.0);
    }
}
