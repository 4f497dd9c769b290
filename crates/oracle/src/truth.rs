//! Simulator ground truth, read from a run's own record of what it did,
//! for scoring what the detector inferred from the capture alone.

use fgbd_des::SimTime;
use fgbd_ntier::RunResult;

/// The stop-the-world windows `[start, stw_end)` of every collection the
/// server named `server` ran, in the order the run logged them.
///
/// # Panics
///
/// Panics if the run has no server of that name.
pub fn gc_pauses(run: &RunResult, server: &str) -> Vec<(SimTime, SimTime)> {
    let index = run
        .server_index(server)
        .unwrap_or_else(|| panic!("no server named {server}"));
    run.gc_events
        .iter()
        .filter(|e| e.server == index)
        .map(|e| (e.start, e.stw_end))
        .collect()
}
