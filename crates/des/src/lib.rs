#![warn(missing_docs)]

//! # fgbd-des — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `fgbd` reproduction of *"Detecting
//! Transient Bottlenecks in n-Tier Applications through Fine-Grained
//! Analysis"* (ICDCS 2013). It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//!   matching the microsecond timestamps produced by the paper's passive
//!   network tracing.
//! * [`EventQueue`] and the [`Simulation`] driver — a hierarchical timing
//!   wheel with amortized O(1) schedule/pop and deterministic FIFO
//!   tie-breaking at equal [`SimTime`] (the contract is specified in the
//!   [`queue`] module docs), so identical seeds produce identical traces.
//! * [`Dice`] — a seeded random-variate generator (exponential, uniform,
//!   bounded Pareto, …) used by the workload and transient-event models.
//! * [`PsIntegrator`] — an exact egalitarian processor-sharing integrator
//!   used by the n-tier server model to advance many concurrent requests in
//!   O(log n) per event without time-slicing error.
//!
//! # Examples
//!
//! ```
//! use fgbd_des::{SimTime, SimDuration, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(5), "late");
//! q.schedule(SimTime::from_millis(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(1));
//! assert_eq!(ev, "early");
//! ```

pub mod hash;
pub mod ps;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use ps::{JobId, PsIntegrator};
pub use queue::EventQueue;
pub use rng::{Dice, LogNormal};
pub use sim::{Actor, Scheduler, Simulation};
pub use time::{SimDuration, SimTime};
