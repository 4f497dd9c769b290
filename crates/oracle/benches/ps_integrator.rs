//! Microbenchmarks of the PS integrator hot path: the per-class
//! FIFO-lane/cached-tournament implementation against the heap plus
//! lazy-deletion [`fgbd_oracle::ps::PsIntegrator`], under the hold pattern the
//! simulator drives — every event probes `next_completion`, completions
//! drain through a reusable caller-owned buffer, and arrivals append with
//! a request-class lane hint. A freeze-churn variant breaks lane
//! monotonicity on schedule so the spill-heap path is measured too, not
//! just the monotone append fast path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fgbd_des::{Dice, JobId, PsIntegrator, SimDuration, SimTime};
use fgbd_oracle::ps::PsIntegrator as RefPs;

/// Concurrent jobs held in service — the order of magnitude a bottleneck
/// tier sees at saturation.
const POP: u64 = 64;
const LANES: usize = 4;

fn demand(dice: &mut Dice) -> f64 {
    dice.uniform_in(0.5, 20.0)
}

fn bench_ps_integrator(c: &mut Criterion) {
    let mut group = c.benchmark_group("ps_integrator");
    group.throughput(criterion::Throughput::Elements(1));

    group.bench_function("lanes_hold_64", |b| {
        let mut dice = Dice::seed(42);
        let mut ps = PsIntegrator::with_lanes(1_000.0, 2, LANES);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut buf = Vec::with_capacity(POP as usize);
        for _ in 0..POP {
            ps.insert_lane(
                now,
                JobId(next_id),
                demand(&mut dice),
                (next_id % LANES as u64) as usize,
            );
            next_id += 1;
        }
        b.iter(|| {
            let due = ps
                .next_completion(now)
                .expect("hold population never drains");
            now = due;
            ps.pop_due_into(now, &mut buf);
            for _ in 0..buf.len() {
                ps.insert_lane(
                    now,
                    JobId(next_id),
                    demand(&mut dice),
                    (next_id % LANES as u64) as usize,
                );
                next_id += 1;
            }
            black_box(buf.len());
        });
    });

    group.bench_function("reference_hold_64", |b| {
        let mut dice = Dice::seed(42);
        let mut ps = RefPs::new(1_000.0, 2);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut buf = Vec::with_capacity(POP as usize);
        for _ in 0..POP {
            ps.insert(now, JobId(next_id), demand(&mut dice));
            next_id += 1;
        }
        b.iter(|| {
            let due = ps
                .next_completion(now)
                .expect("hold population never drains");
            now = due;
            ps.pop_due_into(now, &mut buf);
            for _ in 0..buf.len() {
                ps.insert(now, JobId(next_id), demand(&mut dice));
                next_id += 1;
            }
            black_box(buf.len());
        });
    });

    // The reschedule probe alone: the simulator calls `next_completion`
    // once per event, and most probes change nothing — the lane
    // integrator answers from its cached tournament winner (a field
    // read), the reference from a heap peek plus a liveness hash probe.
    group.bench_function("lanes_probe_64", |b| {
        let mut dice = Dice::seed(42);
        let mut ps = PsIntegrator::with_lanes(1_000.0, 2, LANES);
        for i in 0..POP {
            ps.insert_lane(
                SimTime::ZERO,
                JobId(i),
                demand(&mut dice),
                (i % LANES as u64) as usize,
            );
        }
        let now = SimTime::from_millis(1);
        b.iter(|| black_box(ps.next_completion(now)));
    });

    group.bench_function("reference_probe_64", |b| {
        let mut dice = Dice::seed(42);
        let mut ps = RefPs::new(1_000.0, 2);
        for i in 0..POP {
            ps.insert(SimTime::ZERO, JobId(i), demand(&mut dice));
        }
        let now = SimTime::from_millis(1);
        b.iter(|| black_box(ps.next_completion(now)));
    });

    // GC-shaped churn: a freeze spanning arrivals stalls the attained
    // accumulator, so same-lane appends go non-monotone and spill. This
    // holds the integrator to its worst case instead of the monotone
    // fast path.
    group.bench_function("lanes_hold_freeze_churn", |b| {
        let mut dice = Dice::seed(42);
        let mut ps = PsIntegrator::with_lanes(1_000.0, 2, LANES);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut buf = Vec::with_capacity(POP as usize);
        let mut tick = 0u64;
        // Extra jobs admitted during freezes; later completions skip
        // reinsertion until the debt is repaid, keeping the population
        // bounded at POP..POP+4 across arbitrarily many iterations.
        let mut debt = 0usize;
        for _ in 0..POP {
            ps.insert_lane(
                now,
                JobId(next_id),
                demand(&mut dice),
                (next_id % LANES as u64) as usize,
            );
            next_id += 1;
        }
        b.iter(|| {
            tick += 1;
            if tick.is_multiple_of(16) && debt == 0 {
                // Freeze across a handful of arrivals, then thaw: the
                // stalled accumulator makes these appends non-monotone.
                ps.set_frozen(now, true);
                for _ in 0..4 {
                    now += SimDuration::from_micros(50);
                    ps.insert_lane(
                        now,
                        JobId(next_id),
                        demand(&mut dice),
                        (next_id % LANES as u64) as usize,
                    );
                    next_id += 1;
                    debt += 1;
                }
                ps.set_frozen(now, false);
            }
            let due = ps
                .next_completion(now)
                .expect("hold population never drains");
            now = due;
            ps.pop_due_into(now, &mut buf);
            let repaid = buf.len().min(debt);
            debt -= repaid;
            for _ in 0..buf.len() - repaid {
                ps.insert_lane(
                    now,
                    JobId(next_id),
                    demand(&mut dice),
                    (next_id % LANES as u64) as usize,
                );
                next_id += 1;
            }
            black_box(buf.len());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_ps_integrator);
criterion_main!(benches);
