#![warn(missing_docs)]

//! # fgbd-oracle — what the fgbd crates are tested against
//!
//! Dev-only: the shipped crates reach this one through
//! `[dev-dependencies]`, so none of it is in a release build of the
//! product. Each module is the slow, obvious version of something a
//! shipped crate does fast, returning plain data so it shares no code with
//! what it checks:
//!
//! * [`queue::HeapQueue`] — `BinaryHeap` event queue, for `fgbd_des::EventQueue`.
//! * [`ps::PsIntegrator`] — heap + lazy-deletion PS integrator, for
//!   `fgbd_des::PsIntegrator`.
//! * [`series`] — per-span interval walks, for `fgbd_core::series`.
//! * [`span::extract`] — whole-log request/response pairing, for
//!   `fgbd_trace::SpanSet::extract`.
//! * [`reconstruct::run`] — `HashMap`-keyed transaction reconstruction, for
//!   `fgbd_trace::reconstruct`, with the baseline tie-breaks the product's
//!   one rule was chosen over, [`reconstruct::approximate_window`] for the
//!   windowed service-time fold, and [`reconstruct::Accuracy`], which
//!   scores a reconstruction against simulator ground truth.
//! * [`oplaw`] — Little's-law and Utilization-law audits of a capture.
//! * [`alloc::AllocGauge`] — a counting `#[global_allocator]` for the
//!   allocation-free and bounded-memory tests.
//! * [`truth::gc_pauses`] and [`truth::slow_clock`] — a run's
//!   stop-the-world windows and busy below-P0 windows, the ground truth
//!   the detector's final and live verdicts are scored against.
//!
//! The two Criterion benches (`cargo bench -p fgbd-oracle`) time the two
//! comparisons no `benchmark/` probe makes: `EventQueue` vs `HeapQueue`
//! and the lane `PsIntegrator` vs [`ps::PsIntegrator`].

pub mod alloc;
pub mod oplaw;
pub mod ps;
pub mod queue;
pub mod reconstruct;
pub mod series;
pub mod span;
pub mod truth;
