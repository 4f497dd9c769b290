//! # fgbd-bench — Criterion benchmarks
//!
//! Performance benchmarks for the `fgbd` reproduction, plus ablation
//! benches for the design choices called out in `DESIGN.md`:
//!
//! * `benches/analysis.rs` — the detector pipeline (load/throughput series,
//!   N\* estimation, plateau modes) on synthetic captures.
//! * `benches/simulator.rs` — n-tier simulator event rate across workloads
//!   and scenarios.
//! * `benches/ablations.rs` — normalized vs straightforward throughput,
//!   interval-length sensitivity, reconstruction heuristics, and the
//!   sampling-overhead model.
//! * `benches/figures.rs` — reduced-scale end-to-end figure pipelines.
//!
//! This crate exposes shared helpers for the bench targets.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::result::RunResult;
use fgbd_ntier::system::NTierSystem;

/// A short (benchmark-scale) run of the paper topology: 10 simulated
/// seconds after a 2-second warm-up.
pub fn short_run(users: u32, jdk: Jdk, speedstep: bool, capture: bool) -> RunResult {
    let mut cfg = SystemConfig::paper_1l2s1l2s(users, jdk, speedstep, 42);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(10);
    cfg.capture = capture;
    NTierSystem::run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_produces_traffic() {
        let res = short_run(500, Jdk::Jdk16, false, true);
        assert!(res.throughput() > 20.0);
        assert!(!res.log.records.is_empty());
    }
}
