//! The batch extractor against its specification on what the simulator
//! emits: JDK 1.5 stop-the-world pauses release requests in
//! same-microsecond bursts, so many spans share an arrival and their order
//! rests on the `(arrival, departure)` sort keeping equal keys in response
//! order, as `fgbd_oracle::span::extract` does.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_trace::SpanSet;

#[test]
fn simulated_burst_capture_pairs_like_the_reference() {
    let mut cfg = SystemConfig::paper_1l2s1l2s(4_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(6);
    let res = NTierSystem::run(cfg);

    let fast = SpanSet::extract(&res.log);
    let (spec, spec_unmatched) = fgbd_oracle::span::extract(&res.log);
    assert!(fast.len() > 50_000, "only {} spans", fast.len());
    assert_eq!(fast.servers(), spec.keys().copied().collect::<Vec<_>>());
    for s in fast.servers() {
        assert_eq!(fast.server(s), &spec[&s][..], "server {s:?}");
    }
    assert_eq!(fast.unmatched, spec_unmatched);
}
