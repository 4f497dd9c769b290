//! The three cases that keep the sorted per-class candidate lists exact
//! (see `reconstruct.rs`' module docs), each built so that dropping its
//! handling changes the attributed parent — and held, like everything else,
//! to [`reference::run`] under all four heuristics.

use fgbd_des::SimTime;
use fgbd_trace::reconstruct::{reference, Heuristic, Reconstruction};
use fgbd_trace::{ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog};

const CLIENT: NodeId = NodeId(0);
const WEB: NodeId = NodeId(1);
const APP: NodeId = NodeId(2);

/// Builds a CLIENT → WEB → APP log from `(at_us, src, dst, kind, conn)`.
fn log_of(events: &[(u64, NodeId, NodeId, MsgKind, u32)]) -> TraceLog {
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
    for &(at, src, dst, kind, conn) in events {
        // Straight into `records`: `push` debug-asserts time order.
        log.records.push(MsgRecord {
            at: SimTime::from_micros(at),
            src,
            dst,
            kind,
            conn: ConnId(conn),
            class: ClassId(1),
            bytes: 64,
            truth: None,
        });
    }
    log
}

/// Parent of the last span under each heuristic (LongestQuiescent,
/// MostRecent, Fifo, ProfileGuided), after checking the whole
/// reconstruction against the reference.
fn last_parents(log: &TraceLog) -> [Option<usize>; 4] {
    [
        Heuristic::LongestQuiescent,
        Heuristic::MostRecent,
        Heuristic::Fifo,
        Heuristic::ProfileGuided,
    ]
    .map(|h| {
        let fast = Reconstruction::run(log, h);
        let spec = reference::run(log, h);
        assert_eq!(fast.spans, spec.spans, "{h:?}");
        assert_eq!(fast.txns, spec.txns, "{h:?}");
        fast.spans.last().expect("a span").parent
    })
}

use MsgKind::{Request, Response};

/// A parent holding two outstanding calls (the second taken in the
/// everyone-blocked fallback) is linked by the first response and must move
/// to the tail on the second: left in place, its newer `last_event` ends the
/// walk before a tied candidate with a lower span index behind it.
#[test]
fn relinked_parent_with_two_outstanding_calls_moves_to_the_tail() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10), // span 0: X
        (1, WEB, APP, Request, 100),   // span 1: X's call A
        (2, WEB, APP, Request, 101),   // span 2: call B — everyone blocked, X again
        (2, CLIENT, WEB, Request, 11), // span 3: Y
        (2, WEB, APP, Request, 102),   // span 4: Y's call
        (3, CLIENT, WEB, Request, 12), // span 5: W            list: [W@3]
        (3, APP, WEB, Response, 100),  // A returns, X linked        [W@3, X@3]
        (3, APP, WEB, Response, 102),  // Y linked                   [W@3, X@3, Y@3]
        (5, APP, WEB, Response, 101),  // B returns, X already linked [W@3, Y@3, X@5]
        (6, WEB, APP, Request, 103),   // span 6: Y and W tie at 3; Y's index is lower
    ]);
    let r = Reconstruction::run(&log, Heuristic::LongestQuiescent);
    assert_eq!(r.spans[2].parent, Some(0), "call B goes to the blocked X");
    assert_eq!(last_parents(&log), [Some(3), Some(0), Some(0), Some(3)]);
}

/// Once a timestamp goes backwards the lists are no longer sorted, and a
/// head-first early exit would stop at W and never see the older Y.
#[test]
fn backwards_timestamp_latches_the_early_exit_off() {
    let log = log_of(&[
        (4, CLIENT, WEB, Request, 10), // span 0: V
        (5, CLIENT, WEB, Request, 11), // span 1: W
        (3, CLIENT, WEB, Request, 12), // span 2: Y, stamped before both
        (6, WEB, APP, Request, 100),   // span 3
    ]);
    assert_eq!(last_parents(&log), [Some(2), Some(1), Some(2), Some(2)]);
}

/// MostRecent's winner is at the tail and Fifo's key (arrival) is not the
/// lists' order: both walk the class list in full.
#[test]
fn most_recent_and_fifo_walk_the_whole_class_list() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10), // span 0: X
        (1, WEB, APP, Request, 100),   // span 1: X's call
        (2, CLIENT, WEB, Request, 11), // span 2: Y            list: [Y@2]
        (3, CLIENT, WEB, Request, 12), // span 3: Z                  [Y@2, Z@3]
        (5, APP, WEB, Response, 100),  // X linked behind them       [Y@2, Z@3, X@5]
        (6, WEB, APP, Request, 101),   // span 4
    ]);
    assert_eq!(last_parents(&log), [Some(2), Some(0), Some(0), Some(2)]);
}
