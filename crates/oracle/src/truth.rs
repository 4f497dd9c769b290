//! Simulator ground truth, read from a run's own record of what it did,
//! for scoring what the detector inferred from the capture alone.

use fgbd_des::SimTime;
use fgbd_ntier::dvfs::DvfsConfig;
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

/// The windows in which the server named `server` ran below P0 while busy,
/// merged where they touch, from its governor's first decision on: the
/// P-state segments with an index above 0 (each decision in `pstate_log`
/// holds until the server's next one, the last until the run's horizon)
/// intersected with the CPU-busy sample periods in which its utilization
/// reached the SpeedStep governor's down threshold
/// ([`DvfsConfig::dell_bios`]), below which the governor slows the clock.
/// A run without SpeedStep logs no decisions and has none.
///
/// # Panics
///
/// Panics if the run has no server of that name.
pub fn slow_clock(run: &RunResult, server: &str) -> Vec<(SimTime, SimTime)> {
    let index = run
        .server_index(server)
        .unwrap_or_else(|| panic!("no server named {server}"));
    let decisions: Vec<_> = (run.pstate_log.iter())
        .filter(|s| s.server == index)
        .collect();
    let ends = (decisions.iter().skip(1).map(|s| s.at)).chain([run.horizon]);
    let slow: Vec<(SimTime, SimTime)> = (decisions.iter().zip(ends))
        .filter(|(s, _)| s.pstate > 0)
        .map(|(s, end)| (s.at, end))
        .collect();
    let busy_util = DvfsConfig::dell_bios().down_threshold;
    let cores = f64::from(run.servers[index].cores);
    let busy: Vec<(SimTime, SimTime)> = (run.cpu_busy[index].windows(2))
        .filter(|w| {
            let period = (w[1].at - w[0].at).as_secs_f64();
            w[1].busy_core_seconds - w[0].busy_core_seconds >= cores * period * busy_util
        })
        .map(|w| (w[0].at, w[1].at))
        .collect();
    let mut out: Vec<(SimTime, SimTime)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < slow.len() && j < busy.len() {
        let (start, end) = (slow[i].0.max(busy[j].0), slow[i].1.min(busy[j].1));
        if start < end {
            match out.last_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => out.push((start, end)),
            }
        }
        if slow[i].1 < busy[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}
