//! End-to-end behavioural tests of the n-tier simulator: calibration,
//! conservation, determinism, and the two transient-event models.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_ntier::{RunResult, TxnSample};
use fgbd_oracle::reconstruct::Accuracy;
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::{MsgKind, SpanSet};

fn quick_cfg(users: u32, jdk: Jdk, speedstep: bool, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_1l2s1l2s(users, jdk, speedstep, seed);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

/// Runs `cfg`, collecting every completed transaction through the consumer.
fn run_txns(cfg: SystemConfig) -> (RunResult, Vec<TxnSample>) {
    let mut txns = Vec::new();
    let res = NTierSystem::run_with_taps(cfg, None, Some(&mut |t| txns.push(t)));
    (res, txns)
}

#[test]
fn low_load_throughput_matches_closed_loop_law() {
    // 600 users, ~7.5 s think, negligible response time: X ~ N / Z.
    let res = NTierSystem::run(quick_cfg(600, Jdk::Jdk16, false, 7));
    let x = res.throughput();
    let expected = 600.0 / 7.5;
    assert!(
        (x - expected).abs() / expected < 0.15,
        "throughput {x} vs expected {expected}"
    );
    // Response times at low load are a few ms to tens of ms.
    let rt = res.mean_response_time();
    assert!(rt > 0.003 && rt < 0.2, "mean rt {rt}");
    assert_eq!(res.retransmissions, 0, "no refused connections at low load");
}

#[test]
fn span_extraction_matches_completed_visits() {
    let res = NTierSystem::run(quick_cfg(300, Jdk::Jdk16, false, 11));
    let spans = SpanSet::extract(&res.log);
    for (i, info) in res.servers.iter().enumerate() {
        let n_spans = spans.server(info.node).len() as u64;
        let completed = res.completed_visits[i];
        assert_eq!(
            n_spans, completed,
            "{}: spans {} vs completed {}",
            info.name, n_spans, completed
        );
        // In-flight requests at the horizon are the only unmatched ones.
        let unmatched = spans.unmatched.get(&info.node).copied().unwrap_or(0);
        assert!(unmatched < 600, "{}: unmatched {}", info.name, unmatched);
    }
}

#[test]
fn request_response_counts_are_conserved() {
    let (res, txns) = run_txns(quick_cfg(300, Jdk::Jdk16, false, 13));
    let mut req = 0u64;
    let mut resp = 0u64;
    for r in &res.log.records {
        match r.kind {
            MsgKind::Request => req += 1,
            MsgKind::Response => resp += 1,
        }
    }
    assert!(req >= resp, "responses cannot outnumber requests");
    assert!(
        req - resp < 2_000,
        "too many in-flight at horizon: {}",
        req - resp
    );
    // Every transaction involves >= 4 request messages (one per tier).
    assert!(req as usize >= 4 * txns.len());
}

#[test]
fn identical_seeds_give_identical_runs() {
    let (a, a_txns) = run_txns(quick_cfg(200, Jdk::Jdk15, true, 99));
    let (b, b_txns) = run_txns(quick_cfg(200, Jdk::Jdk15, true, 99));
    assert_eq!(a.log.records.len(), b.log.records.len());
    assert_eq!(a_txns, b_txns);
    assert_eq!(a.txns, b.txns);
    assert_eq!(a.completed_visits, b.completed_visits);
    assert_eq!(a.gc_events.len(), b.gc_events.len());
    assert_eq!(a.pstate_log.len(), b.pstate_log.len());
    for (x, y) in a.log.records.iter().zip(&b.log.records) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_differ() {
    let (a, a_txns) = run_txns(quick_cfg(200, Jdk::Jdk16, false, 1));
    let (b, b_txns) = run_txns(quick_cfg(200, Jdk::Jdk16, false, 2));
    assert_ne!(a_txns.len(), 0);
    assert!(
        a.log.records.len() != b.log.records.len()
            || a_txns.iter().zip(&b_txns).any(|(x, y)| x != y),
        "different seeds produced identical runs"
    );
}

#[test]
fn jdk15_freezes_are_long_jdk16_short() {
    // High enough load that the serial collector's live-set-scaled pauses
    // reach the paper's tens-of-milliseconds regime.
    let old = NTierSystem::run(quick_cfg(6_000, Jdk::Jdk15, false, 21));
    let new = NTierSystem::run(quick_cfg(6_000, Jdk::Jdk16, false, 21));
    assert!(!old.gc_events.is_empty(), "JDK 1.5 run had no collections");
    assert!(!new.gc_events.is_empty(), "JDK 1.6 run had no collections");
    let mean_stw = |events: &[fgbd_ntier::GcEvent]| {
        events
            .iter()
            .map(|e| (e.stw_end - e.start).as_secs_f64())
            .sum::<f64>()
            / events.len() as f64
    };
    let stw_old = mean_stw(&old.gc_events);
    let stw_new = mean_stw(&new.gc_events);
    assert!(stw_old > 0.03, "serial pauses too short: {stw_old}");
    assert!(stw_new < 0.02, "concurrent pauses too long: {stw_new}");
    assert!(stw_old > 5.0 * stw_new, "old {stw_old} vs new {stw_new}");
}

#[test]
fn speedstep_governor_reacts_to_load() {
    // Enough load that MySQL cannot stay in P8 the whole run.
    let mut cfg = quick_cfg(9_000, Jdk::Jdk16, true, 31);
    cfg.duration = SimDuration::from_secs(30);
    let res = NTierSystem::run(cfg);
    assert!(!res.pstate_log.is_empty(), "governor never ticked");
    let states: std::collections::HashSet<usize> =
        res.pstate_log.iter().map(|p| p.pstate).collect();
    assert!(
        states.len() >= 2,
        "governor never changed P-state: {states:?}"
    );
    // Disabled SpeedStep never logs.
    let off = NTierSystem::run(quick_cfg(1_000, Jdk::Jdk16, false, 31));
    assert!(off.pstate_log.is_empty());
}

#[test]
fn utilization_scales_with_workload() {
    let lo = NTierSystem::run(quick_cfg(1_000, Jdk::Jdk16, false, 41));
    let hi = NTierSystem::run(quick_cfg(4_000, Jdk::Jdk16, false, 41));
    let tomcat_lo = lo.mean_cpu_util(lo.server_index("tomcat-1").unwrap());
    let tomcat_hi = hi.mean_cpu_util(hi.server_index("tomcat-1").unwrap());
    assert!(tomcat_hi > tomcat_lo * 2.0, "lo {tomcat_lo} hi {tomcat_hi}");
    // Tomcat is the hottest tier.
    let apache_hi = hi.mean_cpu_util(hi.server_index("apache").unwrap());
    assert!(
        tomcat_hi > apache_hi,
        "tomcat {tomcat_hi} apache {apache_hi}"
    );
}

#[test]
fn reconstruction_accuracy_is_high_on_real_traffic() {
    let res = NTierSystem::run(quick_cfg(2_000, Jdk::Jdk16, false, 51));
    let rec = Reconstruction::run(&res.log, Heuristic::ProfileGuided);
    let acc = Accuracy::evaluate(&rec);
    assert!(acc.edges > 10_000, "too few edges scored: {}", acc.edges);
    assert!(
        acc.edge_accuracy > 0.97,
        "edge accuracy {} too low (paper reports >99%)",
        acc.edge_accuracy
    );
}

#[test]
fn saturation_limits_throughput() {
    // Far beyond the ~1,418 pages/s Tomcat capacity: throughput must cap.
    let res = NTierSystem::run(quick_cfg(14_000, Jdk::Jdk16, false, 61));
    let x = res.throughput();
    assert!(x > 900.0, "saturated throughput collapsed: {x}");
    assert!(x < 1_600.0, "throughput above capacity: {x}");
    // And response times are far above the low-load regime.
    assert!(
        res.mean_response_time() > 0.5,
        "rt {}",
        res.mean_response_time()
    );
    assert!(res.retransmissions > 0, "no admission pushback at WL 14000");
}
