#![warn(missing_docs)]

//! # fgbd-metrics — coarse-grained monitors and summary statistics
//!
//! The paper contrasts its fine-grained passive-tracing method with the
//! conventional monitoring stack (Sysstat at 1 s, esxtop at 2 s). This crate
//! provides that conventional stack for the reproduction:
//!
//! * [`sampler`] — sysstat-like utilization monitors derived from the
//!   simulator's cumulative busy integrals at any period, plus the paper's
//!   monitoring-overhead model (6% CPU at 100 ms sampling, 12% at 20 ms).
//!   These regenerate Table I and Fig 3 — the "no resource looks saturated"
//!   baseline view.
//! * [`histogram`] — bucketed histograms (linear, logarithmic, and the
//!   paper's Fig 2(c) edges) for long-tail response-time distributions.
//!
//! # Examples
//!
//! ```
//! use fgbd_des::{SimDuration, SimTime};
//! use fgbd_metrics::sampler::UtilizationSeries;
//!
//! // A server busy 30% of one core for 5 seconds.
//! let cumulative: Vec<(SimTime, f64)> = (0..=50)
//!     .map(|i| (SimTime::from_millis(i * 100), i as f64 * 0.03))
//!     .collect();
//! let series = UtilizationSeries::sample(&cumulative, 1, SimDuration::from_secs(1));
//! assert_eq!(series.len(), 5);
//! assert!((series.samples()[0].util - 0.3).abs() < 1e-9);
//! ```

pub mod histogram;
pub mod sampler;

pub use histogram::Histogram;
pub use sampler::{sampling_overhead_frac, UtilSample, UtilizationSeries};
