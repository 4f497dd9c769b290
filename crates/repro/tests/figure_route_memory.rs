//! The figure route's memory, as a measurement: a figure reports one server,
//! so [`Analysis::simulate`] pairs only that server's records, and on a
//! loaded run its allocation peak is a fraction of pairing every server.
//! One test per binary on purpose: the counting allocator (see
//! [`fgbd_oracle::alloc`]) is process-global.

use fgbd_des::SimDuration;
use fgbd_oracle::alloc::AllocGauge;
use fgbd_repro::{Analysis, Calibration, SPEEDSTEP_ON};
use fgbd_trace::NodeKind;

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

#[test]
fn one_server_pairing_peaks_well_below_all_servers() {
    // Fig 5's load over a shorter run, still long enough for the spans to
    // outweigh the simulator's own state (at 3,000 users over 10 s they do
    // not, and the two peaks differ by only a fifth).
    let mut cfg = SPEEDSTEP_ON.config(7_000);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(30);
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let all: Vec<String> = (fgbd_ntier::system::node_metas(&cfg).into_iter())
        .filter(|n| n.kind == NodeKind::Server)
        .map(|n| n.name)
        .collect();
    let all: Vec<&str> = all.iter().map(String::as_str).collect();

    let peak_of = |servers: &[&str]| {
        GLOBAL.reset_peak();
        let base = GLOBAL.live_bytes();
        let analysis = Analysis::simulate(cfg.clone(), servers, Calibration::clone(&cal));
        let peak = GLOBAL.peak_bytes().saturating_sub(base);
        (peak, analysis.spans.len())
    };
    let (one, one_spans) = peak_of(&["mysql-1"]);
    let (every, every_spans) = peak_of(&all);

    eprintln!("mysql-1: {one} B for {one_spans} spans; all: {every} B for {every_spans} spans");
    assert!(
        every_spans > 4 * one_spans,
        "{one_spans} of {every_spans} spans"
    );
    assert!(
        (one as f64) < 0.6 * every as f64,
        "one server peaks at {one} B, every server at {every} B"
    );
}
