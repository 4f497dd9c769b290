//! Memory audit of a simulated run: what a run keeps grows with simulated
//! time only through its per-second series (the CPU-busy samples, the
//! P-state decisions and the GC log), never per transaction — completed
//! transactions go to a consumer, if the caller passed one, and the run
//! keeps a fixed-size summary, and the event queue frees the buffers of
//! slots that come round less often than every 262 ms. A 4× longer run may
//! raise the allocation high-water mark by the growth of those series and
//! no more (within a fixed slack).
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

/// Asserts the `long`-second run's peak exceeds the `short`-second one's by
/// no more than the growth of its series: twice that growth, since a
/// doubling reallocation briefly holds both buffers, plus 128 KiB of slack
/// for the queue's high-water marks.
fn assert_peak_grows_only_by_series(short: u64, long: u64) {
    let (short_peak, short_series, short_txns) = peak_of_run(short);
    let (long_peak, long_series, long_txns) = peak_of_run(long);
    assert!(
        long_txns > 3 * short_txns,
        "{short_txns} vs {long_txns} txns"
    );
    let allowed = 2 * (long_series - short_series) + (128 << 10);
    eprintln!(
        "{short} s -> {long} s: peak {short_peak} -> {long_peak} B, \
         series {short_series} -> {long_series} B, allowed +{allowed} B"
    );
    assert!(
        long_peak < short_peak + allowed as u64,
        "peak grew past the series: {short_peak} B over {short_txns} txns, \
         {long} s run {long_peak} B over {long_txns} txns \
         ({short_series} -> {long_series} series B)"
    );
}

#[test]
fn peak_memory_grows_only_by_the_per_second_series() {
    // Warm-up run: lets lazily-initialized process state (metrics
    // registries, hash seeds) allocate outside the measured sections.
    peak_of_run(2);
    // Measured on x86-64 (3,000 users): from 40 s to 160 s the peak grows
    // 368 KB against 848 KB allowed, where keeping 32 B per transaction
    // grew it 3.8 MB.
    assert_peak_grows_only_by_series(40, 160);
    // A drained level-3 bucket (262 ms slots on a 16.8 s cycle) frees its
    // buffer, so the queue holds only what is pending. When each bucket
    // kept its own high-water mark the peak crept for 80 s: from 10 s to
    // 40 s it grew 740 KB against 310 KB allowed; freed, it grows 301 KB.
    // (15 s against 60 s and 20 s against 80 s pass either way.)
    assert_peak_grows_only_by_series(10, 40);
}
