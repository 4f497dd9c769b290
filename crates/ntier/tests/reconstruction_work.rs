//! Reconstruction's work per downstream call, as a count: the parent walk
//! must visit a small constant number of candidates however long the
//! congested server's queue is. One test per binary on purpose — the
//! `reconstruct.candidates` counter is process-global.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::metrics::counter;
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};

#[test]
fn candidate_walk_is_constant_per_call_on_a_congested_capture() {
    // JDK 1.5 stop-the-world collections at this load pile hundreds of
    // requests onto the Tomcats: walking a server's whole unblocked queue
    // visits 67.6 candidates per call on this capture.
    let mut cfg = SystemConfig::paper_1l2s1l2s(12_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(8);
    let res = NTierSystem::run(cfg);

    let before = counter("reconstruct.candidates").get();
    let rec = Reconstruction::run(&res.log, Heuristic::ProfileGuided);
    let visited = counter("reconstruct.candidates").get() - before;
    let calls = rec.spans.iter().filter(|s| s.parent.is_some()).count();
    assert!(calls > 100_000, "only {calls} attributed calls");
    let per_call = visited as f64 / calls as f64;
    eprintln!("{visited} candidates / {calls} calls = {per_call:.2}");
    assert!(per_call >= 1.0, "a call with a parent visited it");
    assert!(per_call < 4.0, "{per_call:.2} candidates per call");
}
