//! The pairer's spans are born sorted on what the simulator emits: a
//! time-ordered tap never trips the per-server disorder fallback, so
//! `extract.resorted` stays 0 and no whole-list sort runs. One test per
//! binary on purpose — the counter is process-global.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::metrics::counter;
use fgbd_trace::SpanSet;

#[test]
fn simulated_capture_pairs_without_a_resort_and_matches_the_reference() {
    // JDK 1.5 stop-the-world pauses release requests in same-microsecond
    // bursts: the equal-arrival runs the pairer has to re-order.
    let mut cfg = SystemConfig::paper_1l2s1l2s(4_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(6);
    let res = NTierSystem::run(cfg);

    let before = counter("extract.resorted").get();
    let fast = SpanSet::extract(&res.log);
    assert_eq!(counter("extract.resorted").get() - before, 0);

    let (spec, spec_unmatched) = fgbd_oracle::span::extract(&res.log);
    assert!(fast.len() > 50_000, "only {} spans", fast.len());
    assert_eq!(fast.servers(), spec.keys().copied().collect::<Vec<_>>());
    for s in fast.servers() {
        assert_eq!(fast.server(s), &spec[&s][..], "server {s:?}");
    }
    assert_eq!(fast.unmatched, spec_unmatched);
}
