//! Microbenchmarks of the future-event list: the timing-wheel
//! [`EventQueue`] against the `BinaryHeap` [`HeapQueue`] under
//! the classic *hold* model (steady state: each operation pops the earliest
//! event and schedules a successor), at small and large pending-set sizes.
//! The DES pops and pushes once per simulated event across millions of
//! events per run, so per-op cost here is the `simulate` manifest stage.
//! Each bench warms its queue with `2×` the pending-set size in hold
//! operations before measuring, so the wheel's one-time fill cascades
//! (and the heap's initial sift pattern) don't pollute the steady-state
//! per-op cost being compared.
//!
//! The `*_boot_10k` pair measures the other shape every n-tier run has:
//! pop the queue empty, schedule the whole population's first think from
//! one `now`, drain. The first schedule re-anchors the idle wheel at its
//! own time, so each later new minimum rewinds the wheel's clock. The
//! `*_hold_*` fills above have the same shape (an empty queue filled from
//! `now = 0`) and rely on their 2× warm-up to get past it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fgbd_des::{Dice, EventQueue, SimDuration, SimTime};
use fgbd_oracle::queue::HeapQueue;

/// Pending-set size for the large hold benches (the acceptance bar: the
/// wheel must be ≥2× the heap here).
const LARGE: usize = 100_000;
const SMALL: usize = 1_000;
/// Population of the boot benches (the paper's largest workload).
const BOOT: usize = 10_000;

/// Mean think time of the boot benches' exponential first-think delays.
const THINK: SimDuration = SimDuration::from_secs(7);

/// Random future offset mimicking the n-tier event mix: mostly short
/// think/service delays, occasionally a long timer.
fn offset(dice: &mut Dice) -> SimDuration {
    let us = if dice.chance(0.05) {
        1 + dice.index(5_000_000) as u64
    } else {
        1 + dice.index(20_000) as u64
    };
    SimDuration::from_micros(us)
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(criterion::Throughput::Elements(1));

    group.bench_function("wheel_hold_100k", |b| {
        let mut dice = Dice::seed(42);
        let mut q = EventQueue::with_capacity(LARGE);
        let mut now = SimTime::ZERO;
        for i in 0..LARGE as u64 {
            q.schedule(now + offset(&mut dice), i);
        }
        for _ in 0..2 * LARGE {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
        }
        b.iter(|| {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
            black_box(t);
        });
    });

    group.bench_function("heap_hold_100k", |b| {
        let mut dice = Dice::seed(42);
        let mut q = HeapQueue::with_capacity(LARGE);
        let mut now = SimTime::ZERO;
        for i in 0..LARGE as u64 {
            q.schedule(now + offset(&mut dice), i);
        }
        for _ in 0..2 * LARGE {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
        }
        b.iter(|| {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
            black_box(t);
        });
    });

    group.bench_function("wheel_hold_1k", |b| {
        let mut dice = Dice::seed(42);
        let mut q = EventQueue::with_capacity(SMALL);
        let mut now = SimTime::ZERO;
        for i in 0..SMALL as u64 {
            q.schedule(now + offset(&mut dice), i);
        }
        for _ in 0..2 * SMALL {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
        }
        b.iter(|| {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
            black_box(t);
        });
    });

    group.bench_function("heap_hold_1k", |b| {
        let mut dice = Dice::seed(42);
        let mut q = HeapQueue::with_capacity(SMALL);
        let mut now = SimTime::ZERO;
        for i in 0..SMALL as u64 {
            q.schedule(now + offset(&mut dice), i);
        }
        for _ in 0..2 * SMALL {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
        }
        b.iter(|| {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(&mut dice), e);
            black_box(t);
        });
    });

    // One iteration = one whole boot cycle (2 × BOOT + 2 queue operations).
    group.throughput(criterion::Throughput::Elements(2 * BOOT as u64 + 2));

    // Same body for both queues (they share method names, not a trait).
    macro_rules! boot_bench {
        ($name:literal, $queue:ident) => {
            group.bench_function($name, |b| {
                let mut dice = Dice::seed(42);
                let mut q = $queue::with_capacity(BOOT);
                let mut now = SimTime::ZERO;
                b.iter(|| {
                    q.schedule(now, u64::MAX);
                    let (t, _) = q.pop().expect("boot event");
                    for user in 0..BOOT as u64 {
                        q.schedule(t + dice.exp_duration(THINK), user);
                    }
                    while let Some((t, e)) = q.pop() {
                        now = t;
                        black_box(e);
                    }
                });
            });
        };
    }
    boot_bench!("wheel_boot_10k", EventQueue);
    boot_bench!("heap_boot_10k", HeapQueue);

    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
