//! Property-based robustness tests of the whole simulator: arbitrary small
//! configurations must run to completion with conserved bookkeeping.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_ntier::TxnSample;
use fgbd_trace::{MsgKind, SpanSet};
use proptest::prelude::*;

fn run_small(
    users: u32,
    jdk: Jdk,
    speedstep: bool,
    tomcats: usize,
    seed: u64,
) -> (fgbd_ntier::RunResult, Vec<TxnSample>) {
    let mut cfg = SystemConfig::paper_scaled_tomcats(users, jdk, speedstep, seed, tomcats);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(4);
    let mut txns = Vec::new();
    let res = NTierSystem::run_with_taps(cfg, None, Some(&mut |t| txns.push(t)));
    (res, txns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any small configuration completes, and its capture is internally
    /// consistent: requests >= responses, spans causal, completions
    /// conserved across the tap and the servers' own counters.
    #[test]
    fn simulator_invariants_hold(
        users in 20u32..250,
        jdk_flag in prop::bool::ANY,
        speedstep in prop::bool::ANY,
        tomcats in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let jdk = if jdk_flag { Jdk::Jdk15 } else { Jdk::Jdk16 };
        let (res, txns) = run_small(users, jdk, speedstep, tomcats, seed);
        prop_assert!(res.throughput() > 0.0, "no throughput at all");

        let mut req = 0u64;
        let mut resp = 0u64;
        let mut prev = fgbd_des::SimTime::ZERO;
        for r in &res.log.records {
            prop_assert!(r.at >= prev, "capture out of order");
            prev = r.at;
            match r.kind {
                MsgKind::Request => req += 1,
                MsgKind::Response => resp += 1,
            }
        }
        prop_assert!(req >= resp);

        let spans = SpanSet::extract(&res.log);
        for (i, info) in res.servers.iter().enumerate() {
            let n = spans.server(info.node).len() as u64;
            prop_assert_eq!(
                n,
                res.completed_visits[i],
                "span/visit mismatch at {}",
                &info.name
            );
            for s in spans.server(info.node) {
                prop_assert!(s.departure > s.arrival);
            }
        }

        // CPU busy integrals are monotone.
        for series in &res.cpu_busy {
            for w in series.windows(2) {
                prop_assert!(w[1].busy_core_seconds >= w[0].busy_core_seconds - 1e-9);
            }
        }

        // Client samples are causal and within the horizon.
        for t in &txns {
            prop_assert!(t.finished >= t.started);
            prop_assert!(t.finished <= res.horizon);
        }
    }

    /// Determinism across reruns for arbitrary configurations.
    #[test]
    fn arbitrary_configs_are_deterministic(
        users in 20u32..150,
        speedstep in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        let (a, a_txns) = run_small(users, Jdk::Jdk15, speedstep, 2, seed);
        let (b, b_txns) = run_small(users, Jdk::Jdk15, speedstep, 2, seed);
        prop_assert_eq!(a.log.records.len(), b.log.records.len());
        prop_assert_eq!(a_txns, b_txns);
        prop_assert_eq!(a.txns, b.txns);
        prop_assert_eq!(a.completed_visits, b.completed_visits);
    }
}
