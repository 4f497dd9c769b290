//! Named experimental scenarios matching the paper's two case studies.
//!
//! A scenario is run three ways, by what the caller needs of the capture:
//! [`Scenario::analyze`] feeds the record tap to the online detector for
//! the servers a figure reports and keeps neither a log nor a span (the
//! figures; a figure that reads response times also passes a transaction
//! consumer), and [`Calibration::for_scenario`] folds the short low-load
//! calibration workload on the tap, service times and class mix in one
//! pass;
//! [`Scenario::calibration_run`] runs that workload keeping its log, for
//! callers that want the capture itself, and [`Scenario::run_uncaptured`]
//! records nothing.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::result::{RunResult, TxnSample};
use fgbd_ntier::system::NTierSystem;

use crate::pipeline::{Analysis, Calibration};

/// The master seed shared by all experiments (figures are deterministic).
pub const MASTER_SEED: u64 = 20130708;

/// A named scenario: the 1L/2S/1L/2S topology with the case-study knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario family name (used in output paths).
    pub name: &'static str,
    /// Tomcat JDK (GC model).
    pub jdk: Jdk,
    /// MySQL SpeedStep enabled?
    pub speedstep: bool,
}

/// The configuration of Fig 2/3/5/12 and Table I: JDK 1.6 Tomcat, SpeedStep
/// enabled on MySQL.
pub const SPEEDSTEP_ON: Scenario = Scenario {
    name: "speedstep_on",
    jdk: Jdk::Jdk16,
    speedstep: true,
};

/// The §IV-D fix: SpeedStep disabled (MySQL pinned at P0) — Fig 13.
pub const SPEEDSTEP_OFF: Scenario = Scenario {
    name: "speedstep_off",
    jdk: Jdk::Jdk16,
    speedstep: false,
};

/// The §IV-A configuration: JDK 1.5 Tomcat (serial stop-the-world GC),
/// SpeedStep disabled — Figs 8, 9, 10, 11(c).
pub const GC_JDK15: Scenario = Scenario {
    name: "gc_jdk15",
    jdk: Jdk::Jdk15,
    speedstep: false,
};

/// The §IV-B fix: JDK 1.6 Tomcat — Fig 11(a)/(b).
pub const GC_JDK16: Scenario = Scenario {
    name: "gc_jdk16",
    jdk: Jdk::Jdk16,
    speedstep: false,
};

impl Scenario {
    /// The full configuration at the given workload (3-minute measured
    /// period after a 30 s warm-up, like the paper's runs).
    pub fn config(&self, users: u32) -> SystemConfig {
        SystemConfig::paper_1l2s1l2s(users, self.jdk, self.speedstep, MASTER_SEED)
    }

    /// Runs the scenario at workload `users` and detects on the tap for the
    /// named `servers` ([`Analysis::simulate`]) — what the figures call;
    /// neither a log nor a span is kept, and each completed transaction
    /// goes to `txns`, if given.
    pub fn analyze(
        &self,
        users: u32,
        servers: &[&str],
        cal: Calibration,
        txns: Option<&mut dyn FnMut(TxnSample)>,
    ) -> Analysis {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        Analysis::simulate(self.config(users), servers, cal, txns)
    }

    /// Runs the scenario at workload `users` keeping the whole capture log.
    pub fn run(&self, users: u32) -> RunResult {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        NTierSystem::run(self.config(users))
    }

    /// Runs without message capture — cheaper, for experiments that only
    /// need the client-side summary and CPU counters (Fig 2, Fig 3,
    /// Table I); each completed transaction goes to `txns`, if given.
    pub fn run_uncaptured(&self, users: u32, txns: Option<&mut dyn FnMut(TxnSample)>) -> RunResult {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        let mut cfg = self.config(users);
        cfg.capture = false;
        NTierSystem::run_with_taps(cfg, None, txns)
    }

    /// The short run service times are approximated on (the paper measures
    /// them "when the production system is under low workload").
    pub(crate) fn calibration_config(&self) -> SystemConfig {
        let mut cfg = self.config(400);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(40);
        cfg
    }

    /// Runs the calibration workload keeping the whole capture log
    /// ([`Calibration::from_run`] calibrates on it).
    pub fn calibration_run(&self) -> RunResult {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        NTierSystem::run(self.calibration_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_set_their_knobs() {
        assert!(SPEEDSTEP_ON.config(100).topology[3][0].dvfs.is_some());
        assert!(SPEEDSTEP_OFF.config(100).topology[3][0].dvfs.is_none());
        let gc15 = GC_JDK15.config(100).topology[1][0].gc.unwrap();
        assert_eq!(
            gc15.collector,
            fgbd_ntier::gc::Collector::SerialStopTheWorld
        );
        let gc16 = GC_JDK16.config(100).topology[1][0].gc.unwrap();
        assert_eq!(
            gc16.collector,
            fgbd_ntier::gc::Collector::ConcurrentMarkSweep
        );
    }

    #[test]
    fn calibration_run_is_short_and_light() {
        let res = SPEEDSTEP_OFF.calibration_run();
        assert!(res.throughput() > 10.0);
        assert!(res.horizon.as_secs_f64() <= 46.0);
        // Low load: Tomcat nowhere near saturation.
        let t = res.server_index("tomcat-1").unwrap();
        assert!(res.mean_cpu_util(t) < 0.3);
    }
}
