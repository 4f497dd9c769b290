//! The figure route's memory, as a measurement: a figure reports from the
//! online detector on the record tap ([`Analysis::simulate`]), which holds
//! the open requests and one retained 10 ms series per named server, never
//! a span, so on a loaded run its allocation peak is below pairing even the
//! one server it reports. One test per binary on purpose: the counting
//! allocator (see [`fgbd_oracle::alloc`]) is process-global.

use fgbd_des::SimDuration;
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_oracle::alloc::AllocGauge;
use fgbd_repro::{Analysis, Calibration, SPEEDSTEP_ON};
use fgbd_trace::span::OpenTable;
use fgbd_trace::{MsgKind, Span};

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

#[test]
fn report_route_peaks_below_one_server_pairing() {
    // Fig 5's load over half its run, long enough for mysql-1's spans to
    // outweigh the simulator's own growth. Measured on a 2-core x86-64
    // host: 255,263 spans, and the report route peaks at 3.7 MB against
    // 14.0 MB for holding mysql-1's spans alone (0.27).
    let mut cfg = SPEEDSTEP_ON.config(7_000);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(90);
    let cal = Calibration::for_scenario(&SPEEDSTEP_ON);
    let metas = node_metas(&cfg);
    let node = metas
        .iter()
        .find(|n| n.name == "mysql-1")
        .expect("mysql")
        .id;
    let peak_of = |route: &dyn Fn() -> usize| {
        GLOBAL.reset_peak();
        let base = GLOBAL.live_bytes();
        let held = route();
        (GLOBAL.peak_bytes().saturating_sub(base), held)
    };

    let (report, _) = peak_of(&|| {
        let analysis =
            Analysis::simulate(cfg.clone(), &["mysql-1"], Calibration::clone(&cal), None);
        assert!(analysis.spans.is_empty(), "the report route holds no spans");
        0
    });
    // The baseline holds one `Span` per mysql-1 span as it closes.
    let (pairing, spans) = peak_of(&|| {
        let mut open = OpenTable::default();
        let mut spans = Vec::new();
        NTierSystem::run_with_record_tap(cfg.clone(), |rec| {
            if rec.span_node() != node {
                return;
            }
            match rec.kind {
                MsgKind::Request => _ = open.open(rec.conn, rec.at, rec.class, rec.truth),
                MsgKind::Response => {
                    if let Some((arrival, class, truth)) = open.close(rec.conn) {
                        spans.push(Span {
                            server: node,
                            class,
                            arrival,
                            departure: rec.at,
                            conn: rec.conn,
                            truth,
                        });
                    }
                }
            }
        });
        spans.len()
    });

    eprintln!("report route: {report} B; pairing mysql-1: {pairing} B for {spans} spans");
    assert!(spans > 50_000, "{spans} spans");
    assert!(
        (report as f64) < 0.8 * pairing as f64,
        "the report route peaks at {report} B, pairing mysql-1 at {pairing} B"
    );
}
