#![warn(missing_docs)]

//! # fgbd-core — fine-grained transient bottleneck detection
//!
//! The primary contribution of *"Detecting Transient Bottlenecks in n-Tier
//! Applications through Fine-Grained Analysis"* (Wang et al., ICDCS 2013),
//! as a library. Given per-server request spans from passive network
//! tracing ([`fgbd_trace`]), it:
//!
//! 1. computes fine-grained **load** (time-weighted concurrent requests)
//!    and **normalized throughput** (work units per interval) series at
//!    granularities down to 50 ms — [`series`];
//! 2. estimates each server's **congestion point N\*** by statistical
//!    intervention analysis over the load/throughput correlation —
//!    [`nstar`];
//! 3. classifies every interval (normal / congested / frozen) and
//!    aggregates congestion episodes, ranking servers by how often they are
//!    **transient bottlenecks** — [`detect`];
//! 4. explains root causes: **POI** (frozen) intervals flag stop-the-world
//!    events like JVM GC; multiple congested-throughput **plateaus** flag
//!    DVFS clock switching — [`plateau`]; interval-aligned correlations
//!    ([`correlate`]) connect the dots (GC ratio ↔ load ↔ response time).
//!    The paper's stated future work — automatic selection of the
//!    monitoring interval length — is implemented in [`interval`].
//!
//! # Examples
//!
//! Detect a transient bottleneck in a hand-built span log:
//!
//! ```
//! use fgbd_core::detect::{analyze_server, DetectorConfig};
//! use fgbd_core::series::Window;
//! use fgbd_des::{SimDuration, SimTime};
//! use fgbd_trace::servicetime::ServiceTimeTable;
//! use fgbd_trace::{ClassId, ConnId, NodeId, Span};
//!
//! let server = NodeId(1);
//! let mut spans = Vec::new();
//! // Steady phase: one 10 ms request at a time.
//! for i in 0..200u64 {
//!     spans.push(Span {
//!         server, class: ClassId(0), conn: ConnId(0), truth: None,
//!         arrival: SimTime::from_micros(i * 10_000),
//!         departure: SimTime::from_micros(i * 10_000 + 9_000),
//!     });
//! }
//! // A burst of 40 concurrent requests that drain slowly.
//! for j in 0..40u64 {
//!     spans.push(Span {
//!         server, class: ClassId(0), conn: ConnId(1), truth: None,
//!         arrival: SimTime::from_millis(2_000),
//!         departure: SimTime::from_micros(2_050_000 + j * 5_000),
//!     });
//! }
//! let mut services = ServiceTimeTable::new();
//! services.insert(server, ClassId(0), SimDuration::from_millis(10));
//! let window = Window::new(SimTime::ZERO, SimTime::from_millis(2_400),
//!                          SimDuration::from_millis(50));
//! let report = analyze_server(&spans, server, window, &services,
//!                             SimDuration::from_millis(10),
//!                             &DetectorConfig::default());
//! assert!(report.congested_intervals() > 0);
//! ```

pub mod correlate;
pub mod detect;
pub mod interval;
pub mod nstar;
pub mod online;
pub mod plateau;
pub mod series;
pub mod stats;

pub use detect::{analyze_server, rank_bottlenecks, DetectorConfig, IntervalState, ServerReport};
pub use nstar::{NStar, NStarConfig};
pub use online::{
    MonitorEvent, MonitorSnapshot, OnlineConfig, OnlineDetector, OnlineFinish, OnlineReport,
    ServerSnapshot, VerdictKind,
};
pub use plateau::{find_plateaus, match_levels, Plateau, PlateauConfig};
pub use series::{LoadSeries, ThroughputSeries, Window};
