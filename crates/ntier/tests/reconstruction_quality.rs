//! Reconstruction-heuristic comparison on realistic simulated traffic.
//!
//! The paper reports SysViz achieves >99% transaction-trace reconstruction
//! accuracy on a 4-tier application under high concurrent workload; our
//! profile-guided black-box reconstructor reaches the same regime, and the
//! simpler baselines (in `fgbd_oracle::reconstruct`) rank as expected.

use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_oracle::reconstruct::{self as reference, Accuracy};
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::servicetime::ServiceFold;

#[test]
fn heuristic_accuracy_ranking_matches_design() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(2_000, Jdk::Jdk16, false, 51);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    let res = NTierSystem::run(cfg);

    let baseline = |h| Accuracy::evaluate(&reference::run(&res.log, h));
    let guided = Accuracy::evaluate(&Reconstruction::run(&res.log, Heuristic::ProfileGuided));
    let quiescent = baseline(reference::Heuristic::LongestQuiescent);
    let recent = baseline(reference::Heuristic::MostRecent);
    let fifo = baseline(reference::Heuristic::Fifo);

    // The paper's regime: >99% for the full reconstructor.
    assert!(
        guided.edge_accuracy > 0.98,
        "profile-guided edge accuracy {}",
        guided.edge_accuracy
    );
    assert!(
        guided.txn_accuracy > 0.90,
        "txn accuracy {}",
        guided.txn_accuracy
    );
    // Learned fan-out caps must not hurt the base heuristic.
    assert!(guided.edge_accuracy >= quiescent.edge_accuracy);
    // The processor-sharing-aware tiebreak beats both naive baselines.
    assert!(quiescent.edge_accuracy > recent.edge_accuracy + 0.02);
    assert!(quiescent.edge_accuracy > fifo.edge_accuracy + 0.02);
    // All heuristics see the same span population.
    assert_eq!(guided.edges, fifo.edges);
    assert!(guided.edges > 10_000);
}

/// Reconstruction accuracy degrades gracefully with concurrency: still in
/// the paper's >99% regime at moderate load and above 95% even near
/// saturation.
#[test]
fn accuracy_degrades_gracefully_with_concurrency() {
    let mut previous = 1.0f64;
    for users in [500u32, 2_000, 5_000] {
        let mut cfg = SystemConfig::paper_1l2s1l2s(users, Jdk::Jdk16, false, 77);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(15);
        let res = NTierSystem::run(cfg);
        let rec = Reconstruction::run(&res.log, Heuristic::ProfileGuided);
        let acc = Accuracy::evaluate(&rec);
        assert!(
            acc.edge_accuracy > 0.95,
            "WL {users}: accuracy {} below floor",
            acc.edge_accuracy
        );
        // Monotone within a small tolerance (higher concurrency can only
        // add ambiguity).
        assert!(
            acc.edge_accuracy <= previous + 0.01,
            "WL {users}: accuracy {} rose implausibly from {previous}",
            acc.edge_accuracy
        );
        previous = acc.edge_accuracy;
    }
}

/// The fast path equals the `HashMap`-keyed reference span for span and txn
/// for txn on a real congested run (small enough for the reference, which
/// is quadratic in the queue length).
#[test]
fn fast_path_matches_reference_on_a_congested_run() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(12_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(4);
    let res = NTierSystem::run(cfg);
    let fast = Reconstruction::run(&res.log, Heuristic::ProfileGuided);
    let spec = reference::run(&res.log, reference::Heuristic::ProfileGuided);
    assert!(fast.spans == spec.spans, "spans differ");
    assert!(fast.txns == spec.txns, "txns differ");
}

/// Drift recalibration (`ext_drift`) folds the capture on the tap, one
/// windowed fold per table; on a drifting run it gets, bit for bit, the
/// tables the materialized route gets from the whole log: the reference
/// windowed approximation over `Reconstruction::run`.
#[test]
fn tap_fed_windowed_folds_match_the_log_route() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk16, false, 20130708);
    cfg.demand_drift_per_hour = 4.0;
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(12);
    let start = SimTime::ZERO + cfg.warmup;
    let end = start + cfg.duration;
    let windows = [
        (start, start + SimDuration::from_secs(3)),
        (end - SimDuration::from_secs(3), end),
    ];
    let nodes = node_metas(&cfg);
    let mut folds = windows.map(|(from, to)| ServiceFold::new(&nodes).with_window(from, to));
    NTierSystem::run_with_record_tap(cfg.clone(), |rec| {
        folds.iter_mut().for_each(|f| f.push(&rec))
    });
    let rec = Reconstruction::run(&NTierSystem::run(cfg).log, Heuristic::ProfileGuided);
    for (fold, (from, to)) in folds.into_iter().zip(windows) {
        let table = fold.finish(0.15);
        let spec = reference::approximate_window(&rec, 0.15, from, to);
        assert!(spec.len() > 20, "only {} (server, class) keys", spec.len());
        assert_eq!(table.len(), spec.len());
        for (&(server, class), &secs) in &spec {
            assert_eq!(
                table.get_secs(server, class).map(f64::to_bits),
                Some(secs.to_bits())
            );
        }
    }
}
