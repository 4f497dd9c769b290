//! Reconstruction-heuristic comparison on realistic simulated traffic.
//!
//! The paper reports SysViz achieves >99% transaction-trace reconstruction
//! accuracy on a 4-tier application under high concurrent workload; our
//! profile-guided black-box reconstructor reaches the same regime, and the
//! simpler baselines rank as expected.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_oracle::reconstruct as reference;
use fgbd_trace::reconstruct::{Accuracy, Heuristic, Reconstruction};

#[test]
fn heuristic_accuracy_ranking_matches_design() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(2_000, Jdk::Jdk16, false, 51);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    let res = NTierSystem::run(cfg);

    let score = |h: Heuristic| {
        let rec = Reconstruction::run(&res.log, h);
        Accuracy::evaluate(&rec)
    };
    let guided = score(Heuristic::ProfileGuided);
    let quiescent = score(Heuristic::LongestQuiescent);
    let recent = score(Heuristic::MostRecent);
    let fifo = score(Heuristic::Fifo);

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
/// is quadratic in the queue length), under every heuristic.
#[test]
fn fast_path_matches_reference_on_a_congested_run() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(12_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(4);
    let res = NTierSystem::run(cfg);
    for h in [
        Heuristic::LongestQuiescent,
        Heuristic::MostRecent,
        Heuristic::Fifo,
        Heuristic::ProfileGuided,
    ] {
        let fast = Reconstruction::run(&res.log, h);
        let spec = reference::run(&res.log, h);
        assert!(fast.spans == spec.spans, "{h:?}: spans differ");
        assert!(fast.txns == spec.txns, "{h:?}: txns differ");
    }
}
