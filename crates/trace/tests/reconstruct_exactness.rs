//! The cases that keep the attribution core exact (see `reconstruct.rs`'
//! module docs), each built so that dropping its handling changes the
//! result: two for the sorted per-class candidate lists, where the
//! attributed parent would move — held, like everything else, to
//! [`fgbd_oracle::reconstruct::run`] — four for the service-time fold,
//! where a sample would be lost, early or summed in the wrong order — held
//! to [`ServiceTimeTable::approximate`] bit for bit — and two for a lost
//! response, where a later request on the connection would be paired with
//! it.

use fgbd_des::{SimDuration, SimTime};
use fgbd_oracle::reconstruct as reference;
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::servicetime::{ServiceFold, ServiceTimeTable};
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

/// Parent of the last span, after checking the whole reconstruction
/// against the reference.
fn last_parent(log: &TraceLog) -> Option<usize> {
    let fast = Reconstruction::run(log, Heuristic::ProfileGuided);
    let spec = reference::run(log, reference::Heuristic::ProfileGuided);
    assert_eq!(fast.spans, spec.spans);
    assert_eq!(fast.txns, spec.txns);
    fast.spans.last().expect("a span").parent
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
    let r = Reconstruction::run(&log, Heuristic::ProfileGuided);
    assert_eq!(r.spans[2].parent, Some(0), "call B goes to the blocked X");
    assert_eq!(last_parent(&log), Some(3));
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
    assert_eq!(last_parent(&log), Some(2));
}

/// The fold's median table over `log`, `(WEB, APP)` entries in seconds,
/// after checking it against the oracle.
fn fold_medians(log: &TraceLog) -> [Option<f64>; 2] {
    let mut fold = ServiceFold::new(&log.nodes);
    log.records.iter().for_each(|r| fold.push(r));
    let fold = fold.finish(0.5);
    let rec = Reconstruction::run(log, Heuristic::ProfileGuided);
    let spec = ServiceTimeTable::approximate(&rec, 0.5);
    assert_eq!(fold.len(), spec.len());
    [WEB, APP].map(|n| {
        let bits = |t: &ServiceTimeTable| t.get_secs(n, ClassId(1)).map(f64::to_bits);
        assert_eq!(bits(&fold), bits(&spec), "{n:?}");
        fold.get_secs(n, ClassId(1))
    })
}

/// Child residences are summed in creation order, as the oracle sums them,
/// whatever order the children close in: f64 addition does not associate,
/// and here `(1 + 4) + 2` and `(1 + 2) + 4` microseconds differ in the last
/// place. A and B are outstanding at once (B taken in the everyone-blocked
/// fallback) and close youngest first.
#[test]
fn child_waits_are_summed_in_creation_order() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10),   // span 0: X
        (1, WEB, APP, Request, 100),     // span 1: Z
        (2, APP, WEB, Response, 100),    // Z closes: 1 us
        (3, WEB, APP, Request, 101),     // span 2: A
        (4, WEB, APP, Request, 102),     // span 3: B — everyone blocked, X again
        (6, APP, WEB, Response, 102),    // B closes first: 2 us
        (7, APP, WEB, Response, 101),    // A closes: 4 us
        (20, WEB, CLIENT, Response, 10), // X: 20 us
    ]);
    let (z, a, b) = (1e-6, 4e-6, 2e-6);
    let [web, app] = fold_medians(&log);
    assert_eq!(web, Some(20e-6 - ((z + a) + b)));
    assert_ne!(web, Some(20e-6 - ((z + b) + a)), "close order would show");
    assert_eq!(app, Some(b));
}

/// A parent whose response is paired before its child's (front-truncated
/// or mis-paired capture) still owes the child's residence: its sample
/// waits for the child instead of leaving with the response.
#[test]
fn departed_parent_waits_for_its_last_child() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10),    // span 0: X
        (90, WEB, APP, Request, 100),     // span 1: X's call
        (100, WEB, CLIENT, Response, 10), // X departs with the call open
        (105, APP, WEB, Response, 100),   // the call closes: 15 us
    ]);
    assert_eq!(fold_medians(&log), [Some(100e-6 - 15e-6), Some(15e-6)]);
}

/// A child that never closes must not hold its parent's sample back for
/// good: at the end of the capture the departed parent leaves with the
/// children that did close.
#[test]
fn never_closing_child_releases_the_parent_at_the_end() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10),   // span 0: X
        (1, WEB, APP, Request, 100),     // span 1: closes
        (3, APP, WEB, Response, 100),    //   2 us
        (5, WEB, APP, Request, 101),     // span 2: never closes
        (20, WEB, CLIENT, Response, 10), // X: 20 us
    ]);
    assert_eq!(fold_medians(&log), [Some(20e-6 - 2e-6), Some(2e-6)]);
}

/// A response with no open request on its connection is skipped, and a call
/// from a server with no active span is its own root: the capture's other
/// spans are sampled as if neither were there.
#[test]
fn orphan_response_is_skipped_and_orphan_call_is_a_root() {
    let log = log_of(&[
        (2, WEB, APP, Request, 100),  // span 0: no span active on WEB
        (3, APP, WEB, Response, 999), // nothing ever opened on 999
        (6, APP, WEB, Response, 100), //   4 us
        (7, APP, WEB, Response, 100), // answered already
    ]);
    assert_eq!(fold_medians(&log), [None, Some(4e-6)]);
    let r = Reconstruction::run(&log, Heuristic::ProfileGuided);
    assert_eq!((r.spans.len(), r.txns.len()), (1, 1));
    assert_eq!((r.spans[0].parent, r.spans[0].root), (None, 0));
}

/// A request on a busy connection closes the older one as lost before its
/// own parent is chosen: call A's response never came, so X is unblocked
/// by C, C is X's call, and the response at 9 answers C. A per-connection
/// queue would pair it with A instead (`[12, 9, None]`, WEB 4 us, APP 8 us).
#[test]
fn a_lost_call_is_displaced_before_the_next_call_picks_its_parent() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10),   // span 0: X
        (1, WEB, APP, Request, 100),     // span 1: X's call A, response lost
        (5, WEB, APP, Request, 100),     // span 2: X's call C displaces A
        (9, APP, WEB, Response, 100),    // C closes: 4 us
        (12, WEB, CLIENT, Response, 10), // X: 12 us
    ]);
    assert_eq!(last_parent(&log), Some(0));
    let r = Reconstruction::run(&log, Heuristic::ProfileGuided);
    let departures: Vec<_> = r.spans.iter().map(|s| s.departure).collect();
    let at = |us| Some(SimTime::from_micros(us));
    assert_eq!(departures, [at(12), None, at(9)]);
    assert_eq!(fold_medians(&log), [Some(12e-6 - 4e-6), Some(4e-6)]);
}

/// A departed parent whose only open child is lost retires when a later
/// request displaces that child, not at the end of the capture: X leaves
/// then, once, with no residence from A, and the response at 9 answers C.
/// A per-connection queue would pair it with A, X would go unsampled and Y
/// would wait for C until the end of the capture (WEB 10 us, APP 8 us).
#[test]
fn a_departed_parent_of_a_lost_child_retires_at_the_displacement() {
    let log = log_of(&[
        (0, CLIENT, WEB, Request, 10),   // span 0: X
        (1, WEB, APP, Request, 100),     // span 1: X's call A, response lost
        (4, WEB, CLIENT, Response, 10),  // X departs with A open: 4 us
        (6, CLIENT, WEB, Request, 11),   // span 2: Y
        (7, WEB, APP, Request, 100),     // span 3: Y's call C displaces A
        (9, APP, WEB, Response, 100),    // C closes: 2 us
        (16, WEB, CLIENT, Response, 11), // Y: 10 us
    ]);
    assert_eq!(last_parent(&log), Some(2));
    // Sampled twice, X would be the median.
    assert_eq!(fold_medians(&log), [Some(10e-6 - 2e-6), Some(2e-6)]);

    // Repeated a thousand times, the slab holds one transaction's spans:
    // kept until the end, every X would hold a slot. The peak counter also
    // sums this binary's other folds, each a few slots.
    let peak = fgbd_obsv::metrics::counter("calibrate.open_peak");
    let before = peak.get();
    let mut fold = ServiceFold::new(&log.nodes);
    for k in 0..1000 {
        for mut r in log.records.iter().copied() {
            r.at += SimDuration::from_micros(20 * k);
            fold.push(&r);
        }
    }
    fold.finish(0.5);
    assert!(peak.get() - before < 500, "{} slots", peak.get() - before);
}
