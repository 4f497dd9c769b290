//! # fgbd-bench — Criterion micro-benches
//!
//! The benchmark of record is `benchmark/run.sh` (`benchmark/README.md`);
//! its layer probes time every crate's public functions on the workloads'
//! own inputs. What stays here are the two comparisons no probe makes,
//! each of a shipped structure against its `reference` oracle:
//!
//! * `benches/event_queue.rs` — timing-wheel `EventQueue` vs the
//!   `BinaryHeap` `HeapQueue` (hold and boot shapes).
//! * `benches/ps_integrator.rs` — lane/tournament `PsIntegrator` vs the
//!   heap plus lazy-deletion reference.
