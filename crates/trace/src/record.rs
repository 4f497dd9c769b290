//! The raw observables of passive network tracing.
//!
//! A network tap (the paper uses Fujitsu SysViz attached to mirror ports)
//! sees every interaction message between tiers: its capture timestamp, the
//! link it crossed, the TCP connection it belongs to, whether it is a request
//! or a response, and — because HTTP/SQL payloads are visible — a *class
//! signature* (URL pattern / query template). It does **not** see any global
//! transaction identifier; recovering transactions is the job of
//! [`crate::reconstruct`].
//!
//! For validation, the simulator annotates each record with the ground-truth
//! transaction id in [`MsgRecord::truth`]. Black-box code paths must never
//! read it; the reconstruction API statically prevents this by operating on
//! [`MsgRecord::observable`] views.

use serde::{Deserialize, Serialize};

use fgbd_des::SimTime;

/// A node (client generator or server) visible on the traced network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u16);

/// A TCP connection, identified by its 5-tuple in a real capture; the
/// simulator allocates them from per-link pools just like a connection pool
/// or ephemeral-port range would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConnId(pub u32);

/// A request class signature (URL pattern / prepared-statement template).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClassId(pub u16);

/// Ground-truth transaction id (simulator-only; invisible to black-box
/// analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

/// Message direction relative to the lower tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MsgKind {
    /// A call travelling down-tier (client → web → app → …).
    Request,
    /// A reply travelling back up-tier.
    Response,
}

/// What kind of node this is; used by span extraction to know where
/// transactions originate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Workload generator (the RUBBoS client farm).
    Client,
    /// A component server of the n-tier system.
    Server,
}

/// Metadata for one traced node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeMeta {
    /// Node identifier referenced by [`MsgRecord`]s.
    pub id: NodeId,
    /// Human-readable name, e.g. `"tomcat-1"`.
    pub name: String,
    /// Client or server.
    pub kind: NodeKind,
    /// Tier index (0 = web) for servers; `None` for clients.
    pub tier: Option<u8>,
}

/// One captured interaction message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgRecord {
    /// Capture timestamp (microsecond granularity, single tap clock — the
    /// paper stresses this sidesteps NTP skew between servers).
    pub at: SimTime,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Request or response.
    pub kind: MsgKind,
    /// TCP connection the message travelled on.
    pub conn: ConnId,
    /// Class signature parsed from the payload.
    pub class: ClassId,
    /// Payload size in bytes (drives network-utilization accounting).
    pub bytes: u32,
    /// Ground truth for validation only — never read by black-box analysis.
    pub truth: Option<TxnId>,
}

impl MsgRecord {
    /// The black-box view of this record: everything a real tap would see,
    /// with the ground-truth annotation stripped.
    pub fn observable(&self) -> MsgRecord {
        MsgRecord {
            truth: None,
            ..*self
        }
    }

    /// The server this message is a request *to* (its `dst`) or a response
    /// *from* (its `src`) — i.e. the node whose span this message bounds.
    pub fn span_node(&self) -> NodeId {
        match self.kind {
            MsgKind::Request => self.dst,
            MsgKind::Response => self.src,
        }
    }
}

/// A complete capture: node metadata plus the time-ordered message log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    /// All nodes that appear in `records`.
    pub nodes: Vec<NodeMeta>,
    /// Messages in capture order (non-decreasing `at`).
    pub records: Vec<MsgRecord>,
}

impl TraceLog {
    /// Creates an empty log with the given node table.
    pub fn new(nodes: Vec<NodeMeta>) -> Self {
        TraceLog {
            nodes,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `rec.at` precedes the previous record —
    /// captures are time-ordered by construction.
    pub fn push(&mut self, rec: MsgRecord) {
        debug_assert!(
            self.records.last().is_none_or(|p| p.at <= rec.at),
            "trace records must be time-ordered"
        );
        self.records.push(rec);
    }

    /// Looks up node metadata.
    pub fn node(&self, id: NodeId) -> Option<&NodeMeta> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// A copy with all ground-truth annotations stripped — what a real
    /// capture file would contain.
    pub fn blinded(&self) -> TraceLog {
        TraceLog {
            nodes: self.nodes.clone(),
            records: self.records.iter().map(MsgRecord::observable).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_us: u64, src: u16, dst: u16, kind: MsgKind) -> MsgRecord {
        MsgRecord {
            at: SimTime::from_micros(at_us),
            src: NodeId(src),
            dst: NodeId(dst),
            kind,
            conn: ConnId(1),
            class: ClassId(0),
            bytes: 100,
            truth: Some(TxnId(7)),
        }
    }

    #[test]
    fn observable_strips_truth() {
        let r = rec(5, 0, 1, MsgKind::Request);
        assert_eq!(r.truth, Some(TxnId(7)));
        assert_eq!(r.observable().truth, None);
        assert_eq!(r.observable().at, r.at);
    }

    #[test]
    fn span_node_follows_direction() {
        assert_eq!(rec(1, 0, 1, MsgKind::Request).span_node(), NodeId(1));
        assert_eq!(rec(2, 1, 0, MsgKind::Response).span_node(), NodeId(1));
    }

    #[test]
    fn blinded_log_has_no_truth() {
        let mut log = TraceLog::new(vec![
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
        ]);
        log.push(rec(1, 0, 1, MsgKind::Request));
        log.push(rec(9, 1, 0, MsgKind::Response));
        let b = log.blinded();
        assert!(b.records.iter().all(|r| r.truth.is_none()));
        assert_eq!(b.records.len(), 2);
        assert_eq!(log.node(NodeId(1)).unwrap().name, "web");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics_in_debug() {
        let mut log = TraceLog::new(vec![]);
        log.push(rec(10, 0, 1, MsgKind::Request));
        log.push(rec(5, 0, 1, MsgKind::Request));
    }
}
