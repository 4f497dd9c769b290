//! The original `HashMap`-keyed black-box reconstruction: the executable
//! specification of `fgbd_trace::reconstruct`. The property tests compare
//! `Reconstruction::run` against it span for span under all four
//! heuristics, and through that table the service-time fold.

use std::collections::HashMap;

use fgbd_des::SimTime;
use fgbd_trace::reconstruct::{Heuristic, RecSpan, Reconstruction, Txn};
use fgbd_trace::{ClassId, ConnId, MsgKind, NodeId, NodeKind, TraceLog};

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

/// Spot-checks of the proptest oracle (`crates/trace/tests/properties.rs`)
/// on hand-built logs; run from here because `fgbd-trace`'s own unit tests
/// would see this crate's copy of its types.
#[cfg(test)]
mod tests {
    use fgbd_trace::{MsgRecord, NodeMeta, TxnId};
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
        for h in [
            Heuristic::LongestQuiescent,
            Heuristic::MostRecent,
            Heuristic::Fifo,
            Heuristic::ProfileGuided,
        ] {
            let fast = Reconstruction::run(log, h);
            let spec = run(log, h);
            assert_eq!(fast.spans, spec.spans, "{h:?}");
            assert_eq!(fast.txns, spec.txns, "{h:?}");
        }
    }

    /// Fast path and reference agree span-for-span on an ambiguous
    /// interleaved log, for every heuristic.
    #[test]
    fn fast_path_matches_reference_on_interleaved_log() {
        assert_fast_path_matches(&log_of(&[
            // Three concurrent same-class web spans with overlapping app
            // calls: attribution is genuinely heuristic-dependent.
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
}
