//! Memory audit of a simulated run: what a run keeps grows with simulated
//! time only through its per-second series (the CPU-busy samples, the
//! P-state decisions and the GC log), never per transaction — completed
//! transactions go to a consumer, if the caller passed one, and the run
//! keeps a fixed-size summary, and the event queue frees the buffers of
//! slots that do not come round again within a run. A 4× longer run may raise the allocation high-water
//! mark by the growth of those series and no more (within a fixed slack).
//! A counting global allocator approximates `VmHWM` portably (see
//! [`fgbd_oracle::alloc`]); this file holds exactly one test because the
//! gauge counts for the whole process.

use std::mem::size_of;

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_ntier::{CpuSample, GcEvent, PStateSample, RunResult};
use fgbd_oracle::alloc::AllocGauge;

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

/// The bytes a run's per-second series hold, by capacity.
fn series_bytes(res: &RunResult) -> usize {
    let cpu: usize = res.cpu_busy.iter().map(Vec::capacity).sum();
    cpu * size_of::<CpuSample>()
        + res.pstate_log.capacity() * size_of::<PStateSample>()
        + res.gc_events.capacity() * size_of::<GcEvent>()
}

/// An uncaptured run of 3,000 users (SpeedStep on, so the P-state log
/// grows too) measured for `secs`: its allocation high-water mark relative
/// to just before the run, its series bytes and its measured transactions.
fn peak_of_run(secs: u64) -> (u64, usize, u64) {
    let mut cfg = SystemConfig::paper_1l2s1l2s(3_000, Jdk::Jdk16, true, 20130708);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.capture = false;
    GLOBAL.reset_peak();
    let base = GLOBAL.live_bytes();
    let res = NTierSystem::run(cfg);
    let peak = GLOBAL.peak_bytes().saturating_sub(base);
    (peak, series_bytes(&res), res.throughput() as u64 * secs)
}

#[test]
fn peak_memory_grows_only_by_the_per_second_series() {
    // Warm-up run: lets lazily-initialized process state (metrics
    // registries, hash seeds) allocate outside the measured sections.
    peak_of_run(2);
    // 40 s is past the event queue's warm-up: every 262 ms slot of its
    // level 3 (a 16.8 s cycle) has reached its working size by then.
    let (short, short_series, short_txns) = peak_of_run(40);
    let (long, long_series, long_txns) = peak_of_run(160);
    assert!(
        long_txns > 3 * short_txns,
        "{short_txns} vs {long_txns} txns"
    );
    // The series may grow by doubling, so a reallocation briefly holds
    // both buffers: twice their growth, plus 128 KiB of slack for the
    // queue's high-water marks. Measured on x86-64 (3,000 users): the
    // peak grows 468 KB against 848 KB allowed, where keeping 32 B per
    // transaction grew it 3.8 MB.
    let allowed = 2 * (long_series - short_series) + (128 << 10);
    eprintln!(
        "peak {short} -> {long} B, series {short_series} -> {long_series} B, allowed +{allowed} B"
    );
    assert!(
        long < short + allowed as u64,
        "peak grew past the series: {short} B over {short_txns} txns, \
         4x run {long} B over {long_txns} txns ({short_series} -> {long_series} series B)"
    );
}
