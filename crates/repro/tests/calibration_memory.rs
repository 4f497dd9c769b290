//! Calibration's state, as a measurement: the attribution core holds a span
//! only while it or one of its children is open, so on a congested capture
//! its slab peaks at a small fraction of the spans it attributes, and the
//! service-time fold allocates a fraction of what materializing the
//! reconstruction does. The companion of
//! `crates/ntier/tests/reconstruction_work.rs` (same run), here because
//! [`Calibration`] is; one test per binary on purpose — the counters and the
//! counting allocator (see [`fgbd_oracle::alloc`]) are process-global.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::metrics::counter;
use fgbd_oracle::alloc::AllocGauge;
use fgbd_repro::pipeline::{Calibration, SERVICE_QUANTILE};
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::servicetime::ServiceTimeTable;

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

/// Allocation high-water mark of `f`, in bytes above what was live before.
fn peak_of(f: impl FnOnce()) -> u64 {
    GLOBAL.reset_peak();
    let base = GLOBAL.live_bytes();
    f();
    GLOBAL.peak_bytes().saturating_sub(base)
}

#[test]
fn calibration_state_is_sized_by_open_requests() {
    // JDK 1.5 stop-the-world collections at this load pile hundreds of
    // requests onto the Tomcats: the worst case for "open at once".
    let mut cfg = SystemConfig::paper_1l2s1l2s(12_000, Jdk::Jdk15, false, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(8);
    let log = NTierSystem::run(cfg).log;

    let table = peak_of(|| {
        let rec = Reconstruction::run(&log, Heuristic::ProfileGuided);
        ServiceTimeTable::approximate(&rec, SERVICE_QUANTILE);
    });

    let (open_peak, spans) = (counter("calibrate.open_peak"), counter("reconstruct.spans"));
    let before = (open_peak.get(), spans.get());
    let fold = peak_of(|| {
        Calibration::from_capture_prefix(&log.nodes, &log.records);
    });
    let (open_peak, spans) = (open_peak.get() - before.0, spans.get() - before.1);

    eprintln!("slab peak {open_peak} of {spans} spans; fold {fold} B, table {table} B");
    assert!(spans > 100_000, "only {spans} spans");
    assert!(
        open_peak * 50 < spans,
        "{open_peak} slots for {spans} spans"
    );
    assert!(fold * 4 < table, "fold {fold} B, table {table} B");
}
