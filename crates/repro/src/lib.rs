#![warn(missing_docs)]

//! # fgbd-repro — the experiment harness
//!
//! Regenerates every table and figure of *"Detecting Transient Bottlenecks
//! in n-Tier Applications through Fine-Grained Analysis"* (ICDCS 2013)
//! against the simulated testbed. See `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! * [`scenario`] — the named configurations (SpeedStep on/off, JDK 1.5/1.6).
//! * [`pipeline`] — capture → spans → service-time calibration → per-server
//!   fine-grained reports.
//! * [`par`] — the lock-free fork/join helper behind the workload sweeps
//!   and the per-server report fan-out.
//! * [`experiments`] — one module per paper artifact, registered by id in
//!   `experiments::all`; the `run_all` binary runs what
//!   `experiments::select` picks.
//! * [`harness`] — run-manifest scopes and the standard telemetry flags
//!   (`--quiet`, `FGBD_OBSV`) shared by every binary; each
//!   run writes a `fgbd.run-manifest/v1` document under `out/manifests/`.
//! * [`plot`] / [`report`] — terminal rendering and CSV/summary output under
//!   `target/experiments/`.
//! * [`zerocopy`] — the capture route: one forward pass from a mapped or
//!   tailed capture through prefix calibration into the online detector,
//!   peak memory independent of capture size.
//! * [`tapwriter`] — the record tap's capture writer: encode on a writer
//!   thread, and optionally analyze the written bytes as they land.
//!
//! `run_all` is the one way to regenerate an artifact: name its ids, or
//! none for everything.
//!
//! ```bash
//! cargo run -p fgbd-repro --release --bin run_all -- fig12
//! cargo run -p fgbd-repro --release --bin run_all
//! ```

pub mod experiments;
pub mod harness;
pub mod monitor;
pub mod par;
pub mod pipeline;
pub mod plot;
pub mod report;
pub mod scenario;
pub mod tapwriter;
pub mod zerocopy;

pub use pipeline::{Analysis, Calibration};
pub use report::ExperimentSummary;
pub use scenario::{Scenario, GC_JDK15, GC_JDK16, SPEEDSTEP_OFF, SPEEDSTEP_ON};
