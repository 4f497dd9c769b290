//! Telemetry must be purely observational: with the kill switch off, the
//! instrumented pipeline records nothing *and* produces bit-identical
//! analysis results. Lives in its own test binary because it flips the
//! process-global enabled switch, which would race the other telemetry
//! tests' assumptions.

use fgbd_core::detect::DetectorConfig;
use fgbd_des::SimDuration;
use fgbd_repro::{Analysis, Calibration, GC_JDK15};

/// One short captured run through the full analysis pipeline, rendered
/// to a deterministic digest.
fn analysis_digest() -> String {
    let mut cfg = GC_JDK15.config(1_000);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(8);
    let run = fgbd_ntier::system::NTierSystem::run(cfg);
    let cal = Calibration::from_run(&run);
    let analysis = Analysis::new(run, cal);
    let window = analysis.window(SimDuration::from_millis(50));
    let reports: Vec<_> = (analysis.run.servers.iter())
        .map(|info| analysis.report(&info.name, window, &DetectorConfig::default()))
        .collect();
    format!("{reports:?}")
}

#[test]
fn disabled_telemetry_records_nothing_and_changes_nothing() {
    let enabled_digest = analysis_digest();

    fgbd_obsv::set_enabled(false);
    let spans0 = fgbd_obsv::span::snapshot();
    let metrics0 = fgbd_obsv::metrics::snapshot();
    let disabled_digest = analysis_digest();
    let span_delta = fgbd_obsv::span::snapshot().delta(&spans0);
    let metrics_delta = fgbd_obsv::metrics::snapshot().delta(&metrics0);
    fgbd_obsv::set_enabled(true);

    assert_eq!(
        enabled_digest, disabled_digest,
        "analysis output must be identical with telemetry off (same seed, same sim)"
    );
    assert!(
        span_delta.spans.is_empty(),
        "disabled run must record no spans, got {:?}",
        span_delta.spans.keys().collect::<Vec<_>>()
    );
    // Retained counters (`counter_retained`) appear in every delta once
    // registered, explicitly reporting zero — their documented contract.
    // The enabled run above registers them; a zero-valued entry here is
    // "nothing recorded", not a recording.
    let recorded: Vec<_> = metrics_delta
        .counters
        .iter()
        .filter(|&(_, &v)| v > 0)
        .map(|(k, _)| k)
        .collect();
    assert!(
        recorded.is_empty(),
        "disabled run must record no metrics, got {recorded:?}"
    );
}
