//! The original whole-log span extractor: the executable specification
//! `fgbd_trace::SpanPairer` (and so `SpanSet::extract`) is property-tested
//! bit-identical to.

use std::collections::{BTreeMap, HashMap, VecDeque};

use fgbd_trace::{ConnId, MsgKind, MsgRecord, NodeId, Span, TraceLog};

/// Extracts spans by FIFO request/response pairing per
/// `(server, connection)`: each server's spans sorted by
/// `(arrival, departure)`, and per server the count of unanswered
/// requests plus responses with no open request — what `SpanSet::server`
/// and `SpanSet::unmatched` hold.
pub fn extract(log: &TraceLog) -> (BTreeMap<NodeId, Vec<Span>>, HashMap<NodeId, usize>) {
    let mut open: HashMap<(NodeId, ConnId), VecDeque<MsgRecord>> = HashMap::new();
    let mut by_server: BTreeMap<NodeId, Vec<Span>> = BTreeMap::new();
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
    for spans in by_server.values_mut() {
        spans.sort_by_key(|s| (s.arrival, s.departure));
    }
    (by_server, unmatched)
}
