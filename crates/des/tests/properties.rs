//! Property-based tests for the DES kernel invariants.

use fgbd_des::{Dice, EventQueue, JobId, LogNormal, PsIntegrator, SimDuration, SimTime};
use fgbd_oracle::queue::HeapQueue;
use proptest::prelude::*;

/// Decodes one raw op for the wheel-vs-heap equivalence driver: a schedule
/// time drawn from regimes that stress every queue path (same-instant ties,
/// wheel level boundaries, the overflow range, and times below the wheel's
/// clock), or `None` for the probes and compound shapes the driver handles
/// (pop, restamp, peek, boot, burst).
fn decode_op(kind: u64, raw: u64) -> Option<u64> {
    const BOUNDARIES: [u64; 12] = [
        0,
        63,
        64,
        65,
        4_095,
        4_096,
        262_143,
        262_144,
        16_777_216,
        (1 << 42) - 1,
        1 << 42,
        (1 << 42) + 1,
    ];
    match kind {
        // Dense small times: same-instant FIFO ties.
        0 | 1 => Some(raw % 64),
        // A 3-minute-capture-scale range.
        2 => Some(raw % 200_000_000),
        // Exact level/overflow boundaries, and sums of two of them.
        3 => Some(BOUNDARIES[(raw % 12) as usize] + BOUNDARIES[((raw / 12) % 12) as usize]),
        // Anything up to four wheel ranges out.
        4 => Some(raw),
        _ => None,
    }
}

/// The wheel and the reference heap driven in lockstep: every operation is
/// applied to both and must be observably identical.
#[derive(Default)]
struct QueuePair {
    wheel: EventQueue<usize>,
    heap: HeapQueue<usize>,
    /// Every ticket ever issued, live or not: a restamp op may target a
    /// popped entry, which both queues must report as gone.
    tickets: Vec<(SimTime, u64)>,
    /// The time of the last pop: fixed-delay lane schedules go out from
    /// here, as the simulator's go out from `now`.
    now: u64,
}

impl QueuePair {
    fn schedule(&mut self, t: u64) -> Result<(), String> {
        let t = SimTime::from_micros(t);
        let payload = self.tickets.len();
        let sw = self.wheel.schedule(t, payload);
        let sh = self.heap.schedule(t, payload);
        prop_assert_eq!(sw, sh);
        self.tickets.push((t, sw));
        Ok(())
    }

    /// Schedules on the wheel's fixed-delay lane and plainly on the heap:
    /// the lane is a fast path, never an ordering input.
    fn schedule_lane(&mut self, t: u64) -> Result<(), String> {
        let t = SimTime::from_micros(t);
        let payload = self.tickets.len();
        let sw = self.wheel.schedule_lane(t, payload);
        let sh = self.heap.schedule(t, payload);
        prop_assert_eq!(sw, sh);
        self.tickets.push((t, sw));
        Ok(())
    }

    /// A run of fixed-delay schedules from the last pop, as the simulator's
    /// network hops are, interleaved with pops that move the clock: the
    /// times are monotone while the delay holds. A second delay in the
    /// same run lands before the lane's tail whenever it is shorter.
    fn hops(&mut self, raw: u64) -> Result<(), String> {
        let delays = [raw % 200, (raw >> 8) % 200];
        for i in 0..2 + (raw >> 16) as usize % 24 {
            let delay = delays[usize::from((raw >> (20 + i % 40)) & 1 == 1)];
            self.schedule_lane(self.now + delay)?;
            if (raw >> (i % 60)) & 3 == 0 {
                self.pop()?;
            }
        }
        Ok(())
    }

    /// Restamps ticket number `k` (in issue order), wherever it is now.
    fn restamp(&mut self, k: usize) -> Result<(), String> {
        let (t, seq) = self.tickets[k];
        let rw = self.wheel.restamp(t, seq);
        let rh = self.heap.restamp(t, seq);
        prop_assert_eq!(rw, rh, "restamp diverged for ({:?}, {})", t, seq);
        if let Some(fresh) = rw {
            self.tickets[k].1 = fresh;
        }
        Ok(())
    }

    /// Pops both; `Ok(false)` once they are (both) empty.
    fn pop(&mut self) -> Result<bool, String> {
        prop_assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
        let (w, h) = (self.wheel.pop(), self.heap.pop());
        prop_assert_eq!(w, h);
        if let Some((t, _)) = w {
            self.now = t.as_micros();
        }
        Ok(w.is_some())
    }

    /// The shape every n-tier run boots with: pop to empty, schedule one
    /// far event (the idle wheel re-anchors *there*), then many nearer ones
    /// in random order, each new minimum landing below the wheel's clock.
    fn boot(&mut self, raw: u64) -> Result<(), String> {
        while self.pop()? {}
        let mut dice = Dice::seed(raw);
        let now = raw % 50_000_000;
        // Spans from one level-1 slot to past the wheel's range.
        let span = 1u64 << [8, 20, 33, 43][(raw >> 8) as usize % 4];
        let far = now + 1 + (raw >> 1) % span;
        self.schedule(far)?;
        for _ in 0..8 + raw % 56 {
            let t = now + dice.index((far - now) as usize + 1) as u64;
            self.schedule(t)?;
        }
        Ok(())
    }

    /// A deep same-instant bucket with restamps landing in its middle (the
    /// `CpuDone` completion-token shape), then a few pops off its front.
    fn burst(&mut self, raw: u64) -> Result<(), String> {
        let t = raw % 300_000;
        let first = self.tickets.len();
        let depth = 8 + (raw >> 20) as usize % 56;
        for _ in 0..depth {
            self.schedule(t)?;
        }
        let mut dice = Dice::seed(raw);
        for _ in 0..depth / 3 {
            self.restamp(first + 1 + dice.index(depth - 2))?;
        }
        for _ in 0..dice.index(depth / 2) {
            self.pop()?;
        }
        Ok(())
    }
}

proptest! {
    /// The timing wheel and the reference heap queue deliver bit-identical
    /// `(time, payload)` sequences — same pops, same peeks, same lengths —
    /// under arbitrary schedule/pop/peek/restamp interleavings, including
    /// same-instant ties, schedules below an advanced clock (the `run_until`
    /// horizon-crossing shape: peek far ahead, decline, schedule earlier),
    /// overflow promotions, the boot shape (a drained queue refilled from
    /// one far event downwards), deep same-instant buckets restamped in
    /// the middle, and fixed-delay lane schedules — monotone runs from the
    /// last pop, and lone ones at any time (before the lane's tail they
    /// take the wheel) — merged with all of the above, restamps of lane
    /// entries included.
    #[test]
    fn wheel_matches_reference_heap(
        ops in prop::collection::vec((0u64..12, 0u64..(1u64 << 44)), 2..400),
    ) {
        let mut q = QueuePair::default();
        for &(kind, raw) in &ops {
            match decode_op(kind, raw) {
                Some(t) => q.schedule(t)?,
                None if kind == 11 => q.hops(raw)?,
                None if kind == 10 => {
                    let t = decode_op(raw % 5, raw >> 3).expect("regimes 0-4 are times");
                    q.schedule_lane(t)?;
                }
                None if kind == 9 => q.burst(raw)?,
                None if kind == 8 => q.boot(raw)?,
                None if kind == 7 => {
                    prop_assert_eq!(q.wheel.peek_time(), q.heap.peek_time());
                }
                None if kind == 6 && !q.tickets.is_empty() => {
                    q.restamp((raw as usize) % q.tickets.len())?;
                }
                None => {
                    q.pop()?;
                }
            }
            prop_assert_eq!(q.wheel.len(), q.heap.len());
            prop_assert_eq!(q.wheel.is_empty(), q.heap.is_empty());
        }
        // Drain: every remaining event must come out identically.
        while q.pop()? {}
    }

    /// Events always pop in non-decreasing time order, FIFO within a tick —
    /// whether scheduled in drawn order or latest-first (every new minimum
    /// below the wheel's clock).
    #[test]
    fn queue_pops_sorted(
        times in prop::collection::vec(0u64..1_000_000, 1..200),
        descending in prop::bool::ANY,
    ) {
        let mut times = times;
        if descending {
            times.sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            prop_assert_eq!(t, SimTime::from_micros(times[i]));
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated within a tick");
                }
            }
            last = Some((t, i));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The PS integrator conserves work: every admitted job completes after
    /// attaining exactly its demand (within event-grid roundup).
    #[test]
    fn ps_conserves_work(
        demands in prop::collection::vec(0.1f64..50.0, 1..60),
        gaps in prop::collection::vec(0u64..20_000, 1..60),
        speed in 10.0f64..5_000.0,
        cores in 1u32..8,
    ) {
        let mut ps = PsIntegrator::new(speed, cores);
        let mut now = SimTime::ZERO;
        let mut inserted = 0.0;
        let mut completed = 0;
        let n = demands.len().min(gaps.len());
        for i in 0..n {
            let arrive = now + SimDuration::from_micros(gaps[i]);
            // Drain completions that fall before the next arrival, exactly as
            // the event loop would.
            while let Some(due) = ps.next_completion(now) {
                if due > arrive {
                    break;
                }
                now = due;
                completed += ps.pop_due(now).len();
            }
            now = arrive;
            ps.insert(now, JobId(i as u64), demands[i]);
            inserted += demands[i];
        }
        while let Some(due) = ps.next_completion(now) {
            prop_assert!(due >= now);
            now = due;
            completed += ps.pop_due(now).len();
        }
        prop_assert_eq!(completed, n);
        prop_assert!(ps.is_empty());
        let out = ps.busy_core_seconds(now) * speed;
        // Each completion event rounds up by <= 1 us; bound total slack.
        let slack = n as f64 * speed * 1e-6 * cores as f64 + 1e-6 * inserted + 1e-9;
        prop_assert!((out - inserted).abs() <= slack + inserted * 1e-9,
            "in={} out={} slack={}", inserted, out, slack);
    }

    /// A job's sojourn time in PS is never shorter than demand/speed (its
    /// isolated running time) no matter what else happens.
    #[test]
    fn ps_sojourn_lower_bound(
        demands in prop::collection::vec(1.0f64..20.0, 2..30),
        speed in 100.0f64..2_000.0,
    ) {
        let mut ps = PsIntegrator::new(speed, 1);
        let mut now = SimTime::ZERO;
        for (i, &d) in demands.iter().enumerate() {
            ps.insert(now, JobId(i as u64), d);
        }
        let mut finish = vec![SimTime::ZERO; demands.len()];
        while let Some(due) = ps.next_completion(now) {
            now = due;
            for j in ps.pop_due(now) {
                finish[j.0 as usize] = now;
            }
        }
        for (i, &d) in demands.iter().enumerate() {
            let sojourn = finish[i].as_secs_f64();
            prop_assert!(sojourn + 2e-6 >= d / speed,
                "job {} finished faster than isolated time", i);
        }
    }

    /// Removing a job and re-inserting its remaining work preserves the
    /// final completion time (up to event-grid rounding).
    #[test]
    fn ps_remove_reinsert_equivalence(demand in 5.0f64..100.0, cut_ms in 1u64..40) {
        let speed = 100.0;
        // Run A: uninterrupted.
        let mut a = PsIntegrator::new(speed, 1);
        a.insert(SimTime::ZERO, JobId(1), demand);
        let fin_a = a.next_completion(SimTime::ZERO).unwrap();

        // Run B: remove at cut, re-insert immediately with remaining work.
        let cut = SimTime::from_millis(cut_ms);
        let mut b = PsIntegrator::new(speed, 1);
        b.insert(SimTime::ZERO, JobId(1), demand);
        if cut < fin_a {
            let rem = b.remove(cut, JobId(1)).unwrap();
            prop_assert!(rem > 0.0);
            b.insert(cut, JobId(2), rem);
            let fin_b = b.next_completion(cut).unwrap();
            let diff = fin_b.as_secs_f64() - fin_a.as_secs_f64();
            prop_assert!(diff.abs() < 5e-6, "diff {}", diff);
        }
    }

    /// Dice::weighted never returns an index with zero weight.
    #[test]
    fn weighted_never_picks_zero(seed in 0u64..1_000, pattern in prop::collection::vec(prop::bool::ANY, 1..10)) {
        prop_assume!(pattern.iter().any(|&b| b));
        let weights: Vec<f64> = pattern.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let mut d = Dice::seed(seed);
        for _ in 0..50 {
            let i = d.weighted(&weights);
            prop_assert!(pattern[i]);
        }
    }

    /// Exponential and bounded-Pareto samples respect their supports.
    #[test]
    fn variates_in_support(seed in 0u64..1_000) {
        let mut d = Dice::seed(seed);
        for _ in 0..100 {
            prop_assert!(d.exp(2.0) >= 0.0);
            let p = d.bounded_pareto(1.5, 2.0, 10.0);
            prop_assert!((2.0..=10.0).contains(&p));
            let u = d.uniform_in(-3.0, 4.5);
            prop_assert!((-3.0..4.5).contains(&u));
        }
    }
}

use fgbd_oracle::ps::PsIntegrator as RefPs;

/// Decodes one raw op for the PS fast-vs-reference equivalence driver.
/// Demands span ~nine decades (1e-7 .. ~5e2 work-units) so completion
/// intervals land both below and far above the 1 us event grid.
fn ps_demand(raw: u64) -> f64 {
    let mant = 1.0 + ((raw >> 4) % 100) as f64 / 25.0; // 1.0 .. 4.96
    let exp = (raw % 10) as i32 - 7; // 1e-7 .. 1e2
    mant * 10f64.powi(exp)
}

/// Single drain step shared by the equivalence proptest: probe both
/// integrators, insist on the same verdict, and if a completion is due,
/// advance to it and insist on the same completion batch (order included).
fn ps_drain_step(
    fast: &mut PsIntegrator,
    slow: &mut RefPs,
    now: &mut SimTime,
    live: &mut Vec<JobId>,
) -> Result<bool, String> {
    let a = fast.next_completion(*now);
    let b = slow.next_completion(*now);
    prop_assert_eq!(a, b, "next_completion diverged at {:?}", *now);
    match a {
        Some(due) => {
            *now = due;
            let da = fast.pop_due(*now);
            let db = slow.pop_due(*now);
            prop_assert_eq!(&da, &db, "completion batch diverged at {:?}", *now);
            live.retain(|j| !da.contains(j));
            Ok(true)
        }
        None => Ok(false),
    }
}

proptest! {
    /// The lane-based PS integrator is observably *identical* to the
    /// heap+lazy-deletion reference — same `next_completion` instants, same
    /// completion batches in the same order, same remaining work on
    /// removal, same busy-core integral to the bit — across randomized
    /// schedules of arrivals, mid-service removals, DVFS speed changes
    /// (including on an empty integrator), GC freeze/unfreeze spans
    /// (including spans an armed completion falls inside), and event-loop
    /// drains. Lanes on the fast side are assigned pseudo-randomly: a lane
    /// is a performance hint and must never become an ordering input. The
    /// lane count ranges past the 64 lanes the occupancy mask covers (the
    /// full-scan fallback), and inserts also name lanes past the count the
    /// integrator was built with, growing it mid-run — across 64 too.
    /// Few jobs over many lanes means removals and completions empty lanes
    /// all the time, so a lane left marked occupied would be caught.
    #[test]
    fn ps_lane_integrator_matches_reference(
        ops in prop::collection::vec((0u64..8, 0u64..(1u64 << 32)), 1..150),
        speed in 50.0f64..2_000.0,
        cores in 1u32..6,
        lanes in 1u64..100,
    ) {
        let mut fast = PsIntegrator::with_lanes(speed, cores, lanes as usize);
        let mut slow = RefPs::new(speed, cores);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut live: Vec<JobId> = Vec::new();
        let mut frozen = false;
        for &(kind, raw) in &ops {
            now += SimDuration::from_micros(raw % 2_500);
            match kind {
                // Arrivals are the most common op (three op codes).
                0..=2 => {
                    let job = JobId(next_id);
                    next_id += 1;
                    let demand = ps_demand(raw);
                    fast.insert_lane(now, job, demand, ((raw >> 12) % (lanes + 8)) as usize);
                    slow.insert(now, job, demand);
                    live.push(job);
                }
                3 => {
                    if !live.is_empty() {
                        let job = live.swap_remove(raw as usize % live.len());
                        let ra = fast.remove(now, job);
                        let rb = slow.remove(now, job);
                        // Identical float op sequences -> identical bits.
                        prop_assert_eq!(ra.map(f64::to_bits), rb.map(f64::to_bits));
                    }
                }
                4 => {
                    // Hits the empty integrator whenever the schedule says
                    // so — a speed change with no jobs must be inert on
                    // both sides.
                    let s = 10.0 + (raw % 5_000) as f64;
                    fast.set_speed(now, s);
                    slow.set_speed(now, s);
                }
                5 => {
                    // Toggle; spans routinely cover armed completions
                    // because drains (ops 6-7) interleave freely.
                    frozen = !frozen;
                    fast.set_frozen(now, frozen);
                    slow.set_frozen(now, frozen);
                }
                _ => {
                    ps_drain_step(&mut fast, &mut slow, &mut now, &mut live)?;
                }
            }
            prop_assert_eq!(fast.len(), slow.len());
        }
        if frozen {
            fast.set_frozen(now, false);
            slow.set_frozen(now, false);
        }
        while ps_drain_step(&mut fast, &mut slow, &mut now, &mut live)? {}
        prop_assert!(fast.is_empty() && slow.is_empty());
        prop_assert!(live.is_empty());
        prop_assert_eq!(
            fast.busy_core_seconds(now).to_bits(),
            slow.busy_core_seconds(now).to_bits()
        );
    }
}

/// One entry in the randomized DVFS/GC timeline the oracle test replays.
#[derive(Clone, Copy, Debug)]
enum PsEvent {
    Arrive(JobId, f64),
    Speed(f64),
    Freeze(bool),
}

/// Replays `timeline` against the exact integrator with an event-loop
/// drain, returning each job's completion time in microseconds.
fn ps_exact_run(timeline: &[(u64, PsEvent)], cores: u32) -> Vec<(JobId, u64)> {
    let mut ps = PsIntegrator::with_lanes(200.0, cores, 2);
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    for &(t_us, ev) in timeline {
        let t = SimTime::from_micros(t_us);
        while let Some(due) = ps.next_completion(now) {
            if due > t {
                break;
            }
            now = due;
            for j in ps.pop_due(now) {
                done.push((j, now.as_micros()));
            }
        }
        now = t;
        match ev {
            PsEvent::Arrive(job, demand) => ps.insert(now, job, demand),
            PsEvent::Speed(s) => ps.set_speed(now, s),
            PsEvent::Freeze(f) => ps.set_frozen(now, f),
        }
    }
    while let Some(due) = ps.next_completion(now) {
        now = due;
        for j in ps.pop_due(now) {
            done.push((j, now.as_micros()));
        }
    }
    done
}

/// Replays `timeline` against a brute-force time-sliced PS simulation:
/// every `dt_us` the egalitarian per-job rate is recomputed and each live
/// job's remaining demand decremented. Deliberately naive — this is the
/// slow executable definition of processor sharing, discretization error
/// and all.
fn ps_sliced_run(timeline: &[(u64, PsEvent)], cores: u32, dt_us: u64) -> Vec<(JobId, u64)> {
    let mut speed = 200.0;
    let mut frozen = false;
    let mut jobs: Vec<(JobId, f64)> = Vec::new();
    let mut done = Vec::new();
    let mut idx = 0;
    let mut t_us = 0u64;
    while idx < timeline.len() || !jobs.is_empty() {
        while idx < timeline.len() && timeline[idx].0 <= t_us {
            match timeline[idx].1 {
                PsEvent::Arrive(job, demand) => jobs.push((job, demand)),
                PsEvent::Speed(s) => speed = s,
                PsEvent::Freeze(f) => frozen = f,
            }
            idx += 1;
        }
        if !frozen && !jobs.is_empty() {
            let n = jobs.len() as f64;
            let step = speed * (f64::from(cores) / n).min(1.0) * dt_us as f64 * 1e-6;
            for j in &mut jobs {
                j.1 -= step;
            }
            jobs.retain(|&(id, rem)| {
                if rem <= 1e-12 {
                    done.push((id, t_us + dt_us));
                    false
                } else {
                    true
                }
            });
        }
        t_us += dt_us;
        assert!(t_us < 60_000_000, "sliced oracle ran away");
    }
    done
}

proptest! {
    // The sliced oracle walks tens of thousands of slices per case; keep
    // the case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact integrator agrees with the slow time-slicing definition of
    /// egalitarian PS — per-job completion times within the oracle's
    /// discretization tolerance — across randomized arrival schedules
    /// overlaid with DVFS speed changes and GC freeze spans. The exact
    /// integrator exists precisely to avoid this oracle's slicing error, so
    /// the tolerance scales with slice width and event count, nothing else.
    #[test]
    fn ps_matches_slow_time_slicing_oracle(
        arrivals in prop::collection::vec((0u64..40_000, 1u64..100), 1..9),
        speeds in prop::collection::vec((0u64..60_000, 100u64..400), 0..4),
        freezes in prop::collection::vec((0u64..60_000, 200u64..15_000), 0..3),
        cores in 1u32..4,
    ) {
        let mut timeline: Vec<(u64, PsEvent)> = Vec::new();
        for (i, &(t, d)) in arrivals.iter().enumerate() {
            // 0.05 .. 5 work-units at >= 100 u/s: everything completes in
            // well under a simulated second.
            timeline.push((t, PsEvent::Arrive(JobId(i as u64), d as f64 * 0.05)));
        }
        for &(t, s) in &speeds {
            timeline.push((t, PsEvent::Speed(s as f64)));
        }
        for &(t, dur) in &freezes {
            timeline.push((t, PsEvent::Freeze(true)));
            timeline.push((t + dur, PsEvent::Freeze(false)));
        }
        timeline.sort_by_key(|&(t, _)| t);
        // Both replays must end unfrozen or neither drains; the sort keeps
        // freeze/unfreeze pairs ordered, so ending frozen means a span ran
        // past every later unfreeze — append a final thaw.
        let frozen_at_end = timeline
            .iter()
            .fold(false, |f, &(_, ev)| match ev {
                PsEvent::Freeze(x) => x,
                _ => f,
            });
        if frozen_at_end {
            let last = timeline.last().map_or(0, |&(t, _)| t);
            timeline.push((last + 1, PsEvent::Freeze(false)));
        }

        const DT_US: u64 = 20;
        let exact = ps_exact_run(&timeline, cores);
        let sliced = ps_sliced_run(&timeline, cores, DT_US);
        prop_assert_eq!(exact.len(), sliced.len());
        // Each timeline event (and each completion, which changes the
        // sharing factor mid-slice) contributes up to one slice of error.
        let tol = DT_US * (2 * timeline.len() as u64 + 8);
        for &(job, t_exact) in &exact {
            let found = sliced.iter().find(|&&(j, _)| j == job).map(|&(_, t)| t);
            prop_assert!(found.is_some(), "{:?} missing from oracle", job);
            let t_sliced = found.unwrap();
            prop_assert!(
                t_exact.abs_diff(t_sliced) <= tol,
                "{:?}: exact {} us vs sliced {} us (tol {} us)",
                job, t_exact, t_sliced, tol
            );
        }
    }
}

/// A DVFS transition on an *empty* integrator must be inert: no progress,
/// no phantom busy time, and a later job completes exactly as if the
/// integrator were freshly built at the new speed — on both
/// implementations.
#[test]
fn ps_speed_change_with_empty_heap_is_inert() {
    let mut fast = PsIntegrator::new(100.0, 2);
    let mut slow = RefPs::new(100.0, 2);
    for ps_set in [50.0, 400.0] {
        fast.set_speed(SimTime::from_millis(10), ps_set);
        slow.set_speed(SimTime::from_millis(10), ps_set);
    }
    let t1 = SimTime::from_millis(20);
    fast.insert(t1, JobId(1), 40.0);
    slow.insert(t1, JobId(1), 40.0);
    // 40 units at 400 u/s -> 100 ms.
    let due = SimTime::from_millis(120);
    assert_eq!(fast.next_completion(t1), Some(due));
    assert_eq!(slow.next_completion(t1), Some(due));
    assert_eq!(fast.pop_due(due), vec![JobId(1)]);
    assert_eq!(slow.pop_due(due), vec![JobId(1)]);
    // No job ran before t1: the busy integral starts at the insert.
    assert_eq!(
        fast.busy_core_seconds(due).to_bits(),
        slow.busy_core_seconds(due).to_bits()
    );
    assert!((fast.busy_core_seconds(due) - 0.1).abs() < 1e-9);
}

/// A GC freeze that spans an armed completion pushes it out by exactly the
/// frozen interval, identically on both implementations.
#[test]
fn ps_freeze_spanning_completion_defers_it_by_the_frozen_interval() {
    let mut fast = PsIntegrator::new(100.0, 1);
    let mut slow = RefPs::new(100.0, 1);
    fast.insert(SimTime::ZERO, JobId(7), 50.0);
    slow.insert(SimTime::ZERO, JobId(7), 50.0);
    // Armed for t=500 ms; freeze 300..900 ms swallows it.
    assert_eq!(
        fast.next_completion(SimTime::ZERO),
        Some(SimTime::from_millis(500))
    );
    fast.set_frozen(SimTime::from_millis(300), true);
    slow.set_frozen(SimTime::from_millis(300), true);
    assert_eq!(fast.next_completion(SimTime::from_millis(500)), None);
    assert_eq!(slow.next_completion(SimTime::from_millis(500)), None);
    fast.set_frozen(SimTime::from_millis(900), false);
    slow.set_frozen(SimTime::from_millis(900), false);
    // 30 units attained before the freeze; 20 to go -> 1100 ms.
    let due = SimTime::from_millis(1100);
    assert_eq!(fast.next_completion(SimTime::from_millis(900)), Some(due));
    assert_eq!(slow.next_completion(SimTime::from_millis(900)), Some(due));
    assert_eq!(fast.pop_due(due), vec![JobId(7)]);
    assert_eq!(slow.pop_due(due), vec![JobId(7)]);
}

/// Zero demand is rejected by contract (see the `should_panic` tests in
/// `ps.rs` and in `fgbd_oracle::ps`); the nearest legal thing is a demand
/// so small its completion interval rounds up to the 1 us event grid. Both
/// implementations must agree on that floor and complete the job on the
/// very next probe.
#[test]
fn ps_near_zero_demand_completes_on_the_next_microsecond_tick() {
    let mut fast = PsIntegrator::new(100.0, 1);
    let mut slow = RefPs::new(100.0, 1);
    let t0 = SimTime::from_millis(5);
    fast.insert(t0, JobId(1), 1e-9);
    slow.insert(t0, JobId(1), 1e-9);
    let due = t0 + SimDuration::from_micros(1);
    assert_eq!(fast.next_completion(t0), Some(due));
    assert_eq!(slow.next_completion(t0), Some(due));
    assert_eq!(fast.pop_due(due), vec![JobId(1)]);
    assert_eq!(slow.pop_due(due), vec![JobId(1)]);
    assert!(fast.is_empty() && slow.is_empty());
}

/// The log-normal draw as `Dice::lognormal_mean_cv` was specified before
/// its parameters could be worked out once: both logs and the root per
/// draw.
fn lognormal_spec(dice: &mut Dice, mean: f64, cv: f64) -> f64 {
    if cv == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    dice.normal(mu, sigma2.sqrt()).exp()
}

proptest! {
    /// A draw from a [`LogNormal`] worked out once is bit-identical to the
    /// per-draw formula, and so is `lognormal_mean_cv`, across seeds,
    /// means over ten decades and CVs (zero included, which draws nothing),
    /// with draws from several distributions interleaved on one stream as
    /// the simulator's classes interleave on a server's dice.
    #[test]
    fn cached_lognormal_draws_match_the_formula_bit_for_bit(
        seed in 0u64..u64::MAX,
        dists in prop::collection::vec((-6.0f64..4.0, 0u64..4, 0.0f64..3.0), 1..6),
        picks in prop::collection::vec(0u64..1_000, 1..200),
    ) {
        let dists: Vec<(f64, f64)> = dists
            .iter()
            .map(|&(log_mean, cv_kind, cv)| {
                let cv = match cv_kind {
                    0 => 0.0,
                    1 => cv * 1e-9,
                    _ => cv,
                };
                (10f64.powf(log_mean), cv)
            })
            .collect();
        let cached: Vec<LogNormal> =
            dists.iter().map(|&(m, cv)| LogNormal::from_mean_cv(m, cv)).collect();
        let mut spec = Dice::seed(seed);
        let mut fast = Dice::seed(seed);
        let mut plain = Dice::seed(seed);
        for &pick in &picks {
            let i = pick as usize % dists.len();
            let (mean, cv) = dists[i];
            let want = lognormal_spec(&mut spec, mean, cv);
            prop_assert_eq!(fast.lognormal(&cached[i]).to_bits(), want.to_bits());
            prop_assert_eq!(plain.lognormal_mean_cv(mean, cv).to_bits(), want.to_bits());
        }
        // The streams consumed the same randomness.
        prop_assert_eq!(fast.uniform().to_bits(), spec.uniform().to_bits());
    }
}
