#![warn(missing_docs)]

//! # fgbd-ntier — the n-tier application simulator
//!
//! The testbed substitute for the `fgbd` reproduction of *"Detecting
//! Transient Bottlenecks in n-Tier Applications through Fine-Grained
//! Analysis"* (ICDCS 2013). The paper ran RUBBoS on a physical/virtualized
//! 4-tier deployment (Apache → Tomcat×2 → C-JDBC → MySQL×2); this crate
//! simulates the same system from first principles:
//!
//! * [`class`] — the 24-interaction RUBBoS-like workload mix (browse-only
//!   and read/write), calibrated to the paper's measured utilizations.
//! * [`config`] — topology and scenario knobs (Tomcat JDK, MySQL SpeedStep).
//! * [`gc`] — the JVM garbage-collection model (serial stop-the-world vs
//!   concurrent), the paper's software-layer transient-event source.
//! * [`dvfs`] — the Intel SpeedStep P-state governor (Table II clocks), the
//!   architecture-layer transient-event source.
//! * [`system`] — the discrete-event simulator itself: processor-sharing
//!   multi-core servers, finite thread pools, blocking synchronous calls,
//!   listen-backlog admission with 3 s TCP retransmission, closed-loop
//!   clients with bursty think-rate modulation, and a passive network tap
//!   that records every interaction message into a
//!   [`fgbd_trace::TraceLog`].
//! * [`result`] — everything a run keeps: per-second series, counters and
//!   a fixed-size summary of its transactions.
//!
//! # Examples
//!
//! Run a small scenario and inspect its capture:
//!
//! ```
//! use fgbd_des::SimDuration;
//! use fgbd_ntier::config::{Jdk, SystemConfig};
//! use fgbd_ntier::system::NTierSystem;
//!
//! let mut cfg = SystemConfig::paper_1l2s1l2s(50, Jdk::Jdk16, false, 42);
//! cfg.warmup = SimDuration::from_secs(1);
//! cfg.duration = SimDuration::from_secs(4);
//! let result = NTierSystem::run(cfg);
//! assert!(result.throughput() > 0.0);
//! assert!(!result.log.records.is_empty());
//! ```

pub mod arena;
pub mod class;
pub mod config;
pub mod dvfs;
pub mod gc;
pub mod result;
pub mod system;
pub mod users;

pub use class::{MixTargets, RequestClass, WorkloadMix};
pub use config::{BurstConfig, Jdk, MsgSizes, ServerSpec, SystemConfig, BASE_MHZ};
pub use dvfs::{DvfsConfig, DvfsState, PState, PStateSample, XEON_PSTATES};
pub use gc::{Collector, GcConfig, GcEvent};
pub use result::{CpuSample, RunResult, ServerInfo, TxnSample};
pub use system::{node_metas, Ev, NTierSystem, Parent};
pub use users::UserTable;
