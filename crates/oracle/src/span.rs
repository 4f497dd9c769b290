//! The original whole-log span extractor: the executable specification
//! `fgbd_trace::SpanSet::extract` is property-tested bit-identical to. Both
//! sort each server's spans stably by `(arrival, departure)` from response
//! order; the shipped one pairs on `span::OpenTable`, the table the online
//! detector and calibration's attribution core pair on.

use std::collections::{BTreeMap, HashMap};

use fgbd_trace::{ConnId, MsgKind, MsgRecord, NodeId, Span, TraceLog};

/// Extracts spans by request/response pairing per `(server, connection)`,
/// one open request per connection: a request on a busy connection closes
/// the older one as lost. Returns each server's spans sorted by
/// `(arrival, departure)`, and per server the count of lost and unanswered
/// requests plus responses with no open request — what `SpanSet::server`
/// and `SpanSet::unmatched` hold.
pub fn extract(log: &TraceLog) -> (BTreeMap<NodeId, Vec<Span>>, HashMap<NodeId, usize>) {
    let mut open: HashMap<(NodeId, ConnId), MsgRecord> = HashMap::new();
    let mut by_server: BTreeMap<NodeId, Vec<Span>> = BTreeMap::new();
    let mut unmatched: HashMap<NodeId, usize> = HashMap::new();
    for rec in &log.records {
        let server = rec.span_node();
        let key = (server, rec.conn);
        let unpaired = match rec.kind {
            // A request on a busy connection closes the older one as lost.
            MsgKind::Request => open.insert(key, *rec).is_some(),
            MsgKind::Response => match open.remove(&key) {
                Some(req) => {
                    by_server.entry(server).or_default().push(Span {
                        server,
                        class: req.class,
                        arrival: req.at,
                        departure: rec.at,
                        conn: rec.conn,
                        truth: req.truth,
                    });
                    false
                }
                None => true,
            },
        };
        if unpaired {
            *unmatched.entry(server).or_default() += 1;
        }
    }
    for (server, _) in open.into_keys() {
        *unmatched.entry(server).or_default() += 1;
    }
    for spans in by_server.values_mut() {
        spans.sort_by_key(|s| (s.arrival, s.departure));
    }
    (by_server, unmatched)
}
