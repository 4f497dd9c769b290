//! System configuration: topology, VM sizing, workload, and scenario knobs.
//!
//! The paper's experiments all use the 1L/2S/1L/2S topology of Fig 1(c):
//! one "L" Apache, two "S" Tomcats, one "L" C-JDBC, two "S" MySQLs, each VM
//! pinned to dedicated cores ("L" = 2 cores, "S" = 1 core here). The two
//! case-study knobs are the Tomcat JDK version (GC model) and whether MySQL
//! has SpeedStep enabled (DVFS model).

use fgbd_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::class::{MixTargets, WorkloadMix};
use crate::dvfs::DvfsConfig;
use crate::gc::GcConfig;

/// Reference CPU clock (Xeon P0 state), MHz.
pub const BASE_MHZ: f64 = 2261.0;

/// One component server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Display name, e.g. `"tomcat-1"`.
    pub name: String,
    /// Tier index: 0 = web, 1 = app, 2 = middleware, 3 = db.
    pub tier: usize,
    /// Pinned CPU cores.
    pub cores: u32,
    /// Base clock, MHz (modulated by DVFS if configured).
    pub base_mhz: f64,
    /// Worker-thread limit; requests beyond it wait in the accept queue.
    pub max_threads: usize,
    /// Accept-queue (listen backlog) capacity. When threads and backlog are
    /// both full, a new connection is refused and the client retries after
    /// the TCP retransmission timeout (web tier; paper §II footnote 1).
    pub backlog: usize,
    /// JVM GC model, if this server runs a JVM.
    pub gc: Option<GcConfig>,
    /// SpeedStep governor, if enabled on this server.
    pub dvfs: Option<DvfsConfig>,
    /// CPU permanently consumed by an on-host monitoring daemon, as a
    /// fraction of one core (the paper's §I overhead: ~6% at 100 ms
    /// sampling, 12% at 20 ms). Zero for passive network tracing.
    pub monitor_overhead: f64,
}

/// Tomcat JDK choice (paper §IV-A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Jdk {
    /// JDK 1.5: serial stop-the-world collector.
    Jdk15,
    /// JDK 1.6: concurrent collector.
    Jdk16,
}

/// Client burstiness modulator (Mi et al.-style bursty workloads, which the
/// paper names as the trigger that transient events amplify).
///
/// A global two-state process modulates the instantaneous "think-completion"
/// rate of every user: normal (factor 1) and burst (factor sampled per
/// episode from a bounded Pareto). Implemented by Lewis thinning, so in the
/// normal state think times are exactly exponential with the configured
/// mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstConfig {
    /// Whether the modulator runs at all.
    pub enabled: bool,
    /// Mean dwell time in the normal state.
    pub mean_normal: SimDuration,
    /// Mean dwell time in a burst episode.
    pub mean_burst: SimDuration,
    /// Bounded-Pareto tail index for the episode intensity factor.
    pub factor_alpha: f64,
    /// Minimum episode factor.
    pub factor_min: f64,
    /// Maximum episode factor (also the thinning envelope).
    pub factor_max: f64,
}

impl BurstConfig {
    /// The modulation used in all experiments: episodes every ~2.5 s
    /// lasting ~650 ms with intensity 1.15-2.6x (heavy-tailed) — long and
    /// deep enough for bursts to outrun the DVFS governor's one-rung-per-
    /// period climb and to pile onto GC pauses.
    pub fn paper_default() -> BurstConfig {
        BurstConfig {
            enabled: true,
            mean_normal: SimDuration::from_millis(2_500),
            mean_burst: SimDuration::from_millis(650),
            factor_alpha: 2.2,
            factor_min: 1.15,
            factor_max: 2.6,
        }
    }

    /// No burstiness (pure exponential think times).
    pub fn disabled() -> BurstConfig {
        BurstConfig {
            enabled: false,
            ..BurstConfig::paper_default()
        }
    }
}

/// Payload sizes in bytes, per directed message type; drive the
/// network-utilization columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgSizes {
    /// client → web request.
    pub web_req: u32,
    /// web → client response (full page).
    pub web_resp: u32,
    /// web → app request.
    pub app_req: u32,
    /// app → web response (page body).
    pub app_resp: u32,
    /// app → middleware query.
    pub mw_req: u32,
    /// middleware → app result.
    pub mw_resp: u32,
    /// middleware → db query.
    pub db_req: u32,
    /// db → middleware result.
    pub db_resp: u32,
}

impl MsgSizes {
    /// Sizes calibrated to Table I's network columns at workload 8,000.
    pub fn paper_default() -> MsgSizes {
        MsgSizes {
            web_req: 2_500,
            web_resp: 21_000,
            app_req: 3_300,
            app_resp: 9_500,
            mw_req: 500,
            mw_resp: 800,
            db_req: 450,
            db_resp: 700,
        }
    }
}

/// Complete configuration of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Servers per tier, outermost (web) first. Every tier must be
    /// non-empty.
    pub topology: Vec<Vec<ServerSpec>>,
    /// Request-class mix.
    pub mix: WorkloadMix,
    /// Number of concurrent emulated users ("WL" in the paper).
    pub users: u32,
    /// Mean think time between a user's transactions.
    pub think_time: SimDuration,
    /// One-way network latency per hop.
    pub net_latency: SimDuration,
    /// TCP retransmission timeout for refused connections.
    pub retrans_timeout: SimDuration,
    /// Warm-up excluded from analysis (records are still captured).
    pub warmup: SimDuration,
    /// Measured duration after warm-up.
    pub duration: SimDuration,
    /// Master RNG seed.
    pub seed: u64,
    /// Client burstiness modulation.
    pub burst: BurstConfig,
    /// Message payload sizes.
    pub sizes: MsgSizes,
    /// Period of the built-in CPU-busy sampler feeding `fgbd-metrics`.
    pub cpu_sample_period: SimDuration,
    /// Linear drift of every class's service demand over the run: a value
    /// of 0.5 means demands grow 50% per simulated hour (the paper's
    /// "service time of each class of requests may drift over time (e.g.,
    /// due to changes in the data selectivity)", §III-B). Zero by default.
    pub demand_drift_per_hour: f64,
    /// Capture interaction messages (disable to save memory in pure
    /// capacity benchmarks).
    pub capture: bool,
}

impl SystemConfig {
    /// The paper's 1L/2S/1L/2S deployment with the standard calibration.
    ///
    /// * `users` — the workload (number of emulated clients).
    /// * `jdk` — Tomcat collector ([`Jdk::Jdk15`] reproduces §IV-A's
    ///   transient bottlenecks; [`Jdk::Jdk16`] is the §IV-B fix).
    /// * `speedstep` — MySQL DVFS ([`true`] reproduces §IV-C;
    ///   [`false`] is the §IV-D fix).
    pub fn paper_1l2s1l2s(users: u32, jdk: Jdk, speedstep: bool, seed: u64) -> SystemConfig {
        let gc = match jdk {
            Jdk::Jdk15 => GcConfig::jdk15_serial(),
            Jdk::Jdk16 => GcConfig::jdk16_concurrent(),
        };
        let dvfs = speedstep.then(DvfsConfig::dell_bios);
        let server =
            |name: &str, tier: usize, cores: u32, threads: usize, backlog: usize| ServerSpec {
                name: name.to_string(),
                tier,
                cores,
                base_mhz: BASE_MHZ,
                max_threads: threads,
                backlog,
                gc: None,
                dvfs: None,
                monitor_overhead: 0.0,
            };
        let topology = vec![
            // Web tier: 1 "L" Apache. The admission point: finite backlog.
            vec![server("apache", 0, 2, 300, 120)],
            // App tier: 2 "S" Tomcats with the selected JVM.
            vec![
                ServerSpec {
                    gc: Some(gc),
                    ..server("tomcat-1", 1, 1, 200, 4096)
                },
                ServerSpec {
                    gc: Some(gc),
                    ..server("tomcat-2", 1, 1, 200, 4096)
                },
            ],
            // Middleware tier: 1 "L" C-JDBC.
            vec![server("cjdbc", 2, 2, 400, 4096)],
            // DB tier: 2 "S" MySQLs with optional SpeedStep.
            vec![
                ServerSpec {
                    dvfs,
                    ..server("mysql-1", 3, 1, 250, 4096)
                },
                ServerSpec {
                    dvfs,
                    ..server("mysql-2", 3, 1, 250, 4096)
                },
            ],
        ];
        SystemConfig {
            topology,
            mix: WorkloadMix::browse_only(MixTargets::paper_calibration()),
            users,
            think_time: SimDuration::from_millis(7_500),
            net_latency: SimDuration::from_micros(100),
            retrans_timeout: SimDuration::from_secs(3),
            warmup: SimDuration::from_secs(30),
            duration: SimDuration::from_secs(180),
            seed,
            burst: BurstConfig::paper_default(),
            sizes: MsgSizes::paper_default(),
            cpu_sample_period: SimDuration::from_millis(50),
            demand_drift_per_hour: 0.0,
            capture: true,
        }
    }

    /// The paper topology with `n` Tomcats instead of two — the paper's
    /// §IV-B alternative fix ("simply scaling-out/up the Tomcat tier since
    /// low utilization of Tomcat can reduce the negative impact of JVM
    /// GC").
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn paper_scaled_tomcats(
        users: u32,
        jdk: Jdk,
        speedstep: bool,
        seed: u64,
        n: usize,
    ) -> SystemConfig {
        assert!(n > 0, "need at least one tomcat");
        let mut cfg = SystemConfig::paper_1l2s1l2s(users, jdk, speedstep, seed);
        let template = cfg.topology[1][0].clone();
        cfg.topology[1] = (0..n)
            .map(|i| ServerSpec {
                name: format!("tomcat-{}", i + 1),
                ..template.clone()
            })
            .collect();
        cfg
    }

    /// A classic three-tier deployment (web → app×2 → db×2, no clustering
    /// middleware): the RUBBoS alternative configuration mentioned in
    /// §II-A. The app tier calls the database directly.
    pub fn paper_3tier(users: u32, jdk: Jdk, speedstep: bool, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper_1l2s1l2s(users, jdk, speedstep, seed);
        // Remove the middleware tier and renumber the db tier.
        cfg.topology.remove(2);
        for s in &mut cfg.topology[2] {
            s.tier = 2;
        }
        cfg
    }

    /// The measured window: from the end of the warm-up to the run horizon.
    /// The transactions that finish in it are the run's measured ones.
    pub fn measured(&self) -> std::ops::Range<SimTime> {
        let start = SimTime::ZERO + self.warmup;
        start..start + self.duration
    }

    /// Attaches an on-host sampling monitor consuming `overhead_frac` of
    /// one core to every server (the §I overhead experiment); passive
    /// tracing corresponds to leaving this at zero.
    ///
    /// # Panics
    ///
    /// Panics if `overhead_frac` is not in `[0, 1)`.
    pub fn with_monitoring_overhead(mut self, overhead_frac: f64) -> SystemConfig {
        assert!(
            (0.0..1.0).contains(&overhead_frac),
            "overhead must be a fraction of one core"
        );
        for tier in &mut self.topology {
            for s in tier {
                s.monitor_overhead = overhead_frac;
            }
        }
        self
    }

    /// Checks structural invariants; called by the simulator constructor.
    ///
    /// # Panics
    ///
    /// Panics on an empty topology, an empty tier, zero users, or a
    /// zero-length run.
    pub fn validate(&self) {
        assert!(!self.topology.is_empty(), "topology must have tiers");
        for (i, tier) in self.topology.iter().enumerate() {
            assert!(!tier.is_empty(), "tier {i} has no servers");
            for s in tier {
                assert_eq!(s.tier, i, "server {} has wrong tier index", s.name);
                assert!(s.cores > 0 && s.max_threads > 0, "server {} sizing", s.name);
            }
        }
        assert!(self.users > 0, "need at least one user");
        assert!(!self.duration.is_zero(), "duration must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_is_1l2s1l2s() {
        let cfg = SystemConfig::paper_1l2s1l2s(8_000, Jdk::Jdk16, true, 1);
        cfg.validate();
        let sizes: Vec<usize> = cfg.topology.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 2, 1, 2]);
        // L = 2 cores, S = 1 core.
        assert_eq!(cfg.topology[0][0].cores, 2);
        assert_eq!(cfg.topology[1][0].cores, 1);
        assert_eq!(cfg.topology[2][0].cores, 2);
        assert_eq!(cfg.topology[3][1].cores, 1);
    }

    #[test]
    fn jdk_knob_selects_collector() {
        use crate::gc::Collector;
        let a = SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk15, false, 1);
        let b = SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk16, false, 1);
        assert_eq!(
            a.topology[1][0].gc.unwrap().collector,
            Collector::SerialStopTheWorld
        );
        assert_eq!(
            b.topology[1][0].gc.unwrap().collector,
            Collector::ConcurrentMarkSweep
        );
        // GC only on the app tier.
        assert!(a.topology[0][0].gc.is_none());
        assert!(a.topology[3][0].gc.is_none());
    }

    #[test]
    fn speedstep_knob_selects_dvfs() {
        let on = SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk16, true, 1);
        let off = SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk16, false, 1);
        assert!(on.topology[3][0].dvfs.is_some());
        assert!(on.topology[3][1].dvfs.is_some());
        assert!(off.topology[3][0].dvfs.is_none());
        // DVFS only on the db tier.
        assert!(on.topology[1][0].dvfs.is_none());
    }

    #[test]
    fn scaled_tomcats_builder() {
        let cfg = SystemConfig::paper_scaled_tomcats(1_000, Jdk::Jdk15, false, 1, 4);
        cfg.validate();
        assert_eq!(cfg.topology[1].len(), 4);
        assert_eq!(cfg.topology[1][3].name, "tomcat-4");
        // All tomcats keep the JVM model.
        assert!(cfg.topology[1].iter().all(|s| s.gc.is_some()));
    }

    #[test]
    fn three_tier_builder_drops_middleware() {
        let cfg = SystemConfig::paper_3tier(1_000, Jdk::Jdk16, false, 1);
        cfg.validate();
        assert_eq!(cfg.topology.len(), 3);
        assert_eq!(cfg.topology[2][0].name, "mysql-1");
        assert_eq!(cfg.topology[2][0].tier, 2);
    }

    #[test]
    fn monitoring_overhead_builder_applies_everywhere() {
        let cfg = SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk16, false, 1)
            .with_monitoring_overhead(0.06);
        for tier in &cfg.topology {
            for s in tier {
                assert_eq!(s.monitor_overhead, 0.06);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fraction of one core")]
    fn monitoring_overhead_rejects_full_core() {
        let _ =
            SystemConfig::paper_1l2s1l2s(1_000, Jdk::Jdk16, false, 1).with_monitoring_overhead(1.0);
    }

    #[test]
    #[should_panic(expected = "wrong tier index")]
    fn validate_catches_tier_mismatch() {
        let mut cfg = SystemConfig::paper_1l2s1l2s(100, Jdk::Jdk16, false, 1);
        cfg.topology[2][0].tier = 9;
        cfg.validate();
    }
}
