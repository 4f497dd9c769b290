//! Exact egalitarian processor-sharing (PS) integrator.
//!
//! A multi-core server processing `n` concurrent requests gives each request
//! a service rate of `speed · min(1, cores/n)` work-units per second (each
//! request runs on at most one core; beyond `cores` active requests the cores
//! are shared equally). Because all active jobs progress at the *same* rate,
//! attained service can be tracked with a single global accumulator: a job
//! that arrives when the accumulator reads `A` completes when the accumulator
//! reaches `A + demand`. This makes every insert/remove/completion cheap and
//! introduces **no time-slicing discretization error** — essential when
//! the analysis downstream looks at 50 ms windows.
//!
//! The integrator also supports `speed` changes (DVFS P-state transitions)
//! and freezes (stop-the-world garbage collection), the two transient-event
//! mechanisms studied in the paper.
//!
//! # Structure: per-class FIFO lanes under a tournament min
//!
//! Completion thresholds are `A + d` where `A` (the shared attained-service
//! accumulator) is monotone non-decreasing in insertion time. When demands
//! `d` within a *class* of jobs are deterministic — or merely similar, as
//! with the n-tier simulator's per-class lognormal demands — same-class
//! thresholds arrive in (nearly) increasing order, so each class can be a
//! plain FIFO lane: insert is an O(1) tail append, and the global minimum is
//! a K-way tournament over the lane heads. Inserts that *would* break a
//! lane's monotonicity (possible when attained progress stalls under a GC
//! freeze, or when demand variance outruns the accumulator between
//! arrivals) spill to a small ordered heap that participates in the same
//! tournament — correctness never depends on the monotonicity holding, only
//! the constant factor does. The winning key is cached across
//! [`PsIntegrator::next_completion`] calls, so the per-event reschedule
//! probe in the simulator's hot loop is a field read, not a heap peek plus
//! a hash probe.
//!
//! A miss recomputes the tournament over the *occupied* lanes only: a
//! 64-bit occupancy mask (bit `i` set iff lane `i` holds a job) is kept
//! on every append, pop and removal, and the scan walks its set bits. The
//! n-tier simulator gives every request class a lane, and classes with a
//! zero mix weight (the read/write classes under the browse-only mix)
//! never hold one, so half of its 24 lanes are always skipped. An
//! integrator with more than 64 lanes scans them all.
//!
//! The previous `BinaryHeap` + lazy-deletion index implementation is the
//! executable specification, `fgbd_oracle::ps::PsIntegrator` (a dev-only
//! crate). Property tests (`crates/des/tests/properties.rs`) hold the lane
//! integrator to identical `(time, completion-sequence)` behaviour across
//! randomized DVFS speed-change and freeze/unfreeze schedules, and both to
//! a slow time-slicing integrator within its discretization tolerance.
//!
//! Unlike the event queue, this structure cannot become a timing wheel: its
//! keys are *attained-work thresholds* — continuous `f64`s whose mapping
//! to completion times is rescaled retroactively by every DVFS speed
//! change and GC freeze, so there is no stable integer time axis to
//! bucket on, and quantizing thresholds would reintroduce exactly the
//! time-slicing error this integrator exists to avoid.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Opaque identifier of a job inside a [`PsIntegrator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Completion-threshold key: ordered first by threshold value then by
/// insertion sequence so equal thresholds complete FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    // Thresholds are non-negative finite f64s, for which IEEE-754 bit
    // patterns order identically to the values themselves.
    bits: u64,
    seq: u64,
}

impl Key {
    fn new(threshold: f64, seq: u64) -> Self {
        debug_assert!(threshold.is_finite() && threshold >= 0.0);
        Key {
            bits: threshold.to_bits(),
            seq,
        }
    }

    fn threshold(self) -> f64 {
        f64::from_bits(self.bits)
    }
}

/// Lanes covered by the occupancy mask; past this many, a tournament miss
/// scans every lane.
const MASK_LANES: usize = u64::BITS as usize;

/// Lane `i`'s bit in the occupancy mask (none past [`MASK_LANES`]).
#[inline]
fn lane_bit(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(0)
}

/// Where the cached tournament winner lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Head of lane `i`.
    Lane(u32),
    /// Top of the spill heap.
    Spill,
}

/// Exact processor-sharing progress integrator for one server.
///
/// Work is measured in *work-units*; in the n-tier simulator one work-unit is
/// one megacycle, and `speed` is the CPU clock in MHz, so demands are
/// CPU-time-at-reference-clock quantities.
///
/// Jobs carry an optional *lane* hint ([`PsIntegrator::insert_lane`]) — the
/// n-tier system passes the request class — which buys O(1) inserts while
/// the lane stays monotone (see the module docs). [`PsIntegrator::insert`]
/// uses lane 0.
///
/// # Examples
///
/// ```
/// use fgbd_des::{JobId, PsIntegrator, SimTime};
///
/// // 1 core at 100 work-units/s.
/// let mut ps = PsIntegrator::new(100.0, 1);
/// ps.insert(SimTime::ZERO, JobId(1), 50.0); // needs 0.5 s alone
/// ps.insert(SimTime::ZERO, JobId(2), 50.0); // shares the core -> 1.0 s
/// let done = ps.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(done, SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct PsIntegrator {
    speed: f64,
    cores: u32,
    frozen: bool,
    /// Per-job attained service accumulator (work-units).
    attained: f64,
    last_update: SimTime,
    /// Per-lane FIFO queues; invariant: keys within a lane are strictly
    /// increasing (each insert gets a fresh sequence number, so keys are
    /// unique), which makes every lane head a tournament candidate.
    lanes: Vec<VecDeque<(Key, JobId)>>,
    /// Bit `i` set iff lane `i` is non-empty, for the first
    /// [`MASK_LANES`] lanes.
    occupied: u64,
    /// Inserts that would have broken their lane's monotonicity. Ordered
    /// min-first; always exact (no lazy deletion — [`Self::remove`] is a
    /// cold path that deletes eagerly).
    spill: BinaryHeap<Reverse<(Key, JobId)>>,
    /// Live job count (lanes + spill).
    live: usize,
    seq: u64,
    /// Integral of occupied cores over time (core-seconds of job progress).
    busy_core_seconds: f64,
    /// Cached tournament winner; meaningful only while `top_valid`.
    top: Option<(Key, JobId, Place)>,
    top_valid: bool,
    /// Lane appends + lane pops, accumulated in a plain field (the event
    /// loop is far too hot for per-op atomics) and flushed to the
    /// process-wide `des.ps_lane_ops` counter when the integrator drops.
    lane_ops: u64,
    /// Spill-heap pushes + pops, flushed to `des.ps_heap_ops` on drop —
    /// the ratio against `des.ps_lane_ops` is the monotonicity hit rate.
    heap_ops: u64,
}

impl Drop for PsIntegrator {
    fn drop(&mut self) {
        if self.lane_ops > 0 {
            fgbd_obsv::counter!("des.ps_lane_ops", self.lane_ops);
        }
        if self.heap_ops > 0 {
            fgbd_obsv::counter!("des.ps_heap_ops", self.heap_ops);
        }
    }
}

impl PsIntegrator {
    /// Creates an idle integrator with a single lane.
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0` or `cores == 0`.
    pub fn new(speed: f64, cores: u32) -> Self {
        Self::with_lanes(speed, cores, 1)
    }

    /// Creates an idle integrator with `lanes` pre-sized FIFO lanes, so a
    /// caller that knows its class count (the n-tier system does, from the
    /// workload mix) never grows the lane table in the hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0` or `cores == 0`.
    pub fn with_lanes(speed: f64, cores: u32, lanes: usize) -> Self {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        assert!(cores > 0, "need at least one core");
        PsIntegrator {
            speed,
            cores,
            frozen: false,
            attained: 0.0,
            last_update: SimTime::ZERO,
            lanes: std::iter::repeat_with(VecDeque::new)
                .take(lanes.max(1))
                .collect(),
            occupied: 0,
            spill: BinaryHeap::new(),
            live: 0,
            seq: 0,
            busy_core_seconds: 0.0,
            top: None,
            top_valid: true,
            lane_ops: 0,
            heap_ops: 0,
        }
    }

    /// Current per-job progress rate in work-units per second.
    fn per_job_rate(&self) -> f64 {
        if self.frozen || self.live == 0 {
            return 0.0;
        }
        let n = self.live as f64;
        self.speed * (self.cores as f64 / n).min(1.0)
    }

    /// Number of cores currently doing job work.
    fn cores_in_use(&self) -> f64 {
        if self.frozen {
            return 0.0;
        }
        (self.live as f64).min(self.cores as f64)
    }

    /// The current global minimum `(key, job, place)`, recomputing the
    /// cached tournament if an op invalidated it. O(occupied lanes) on a
    /// miss, O(1) on a hit — and the hot loop (one `next_completion` probe
    /// per simulator event) hits far more often than it misses.
    fn peek_top(&mut self) -> Option<(Key, JobId, Place)> {
        if self.top_valid {
            return self.top;
        }
        let mut best: Option<(Key, JobId, Place)> = None;
        let mut consider = |i: usize, lane: &VecDeque<(Key, JobId)>| {
            if let Some(&(key, job)) = lane.front() {
                if best.is_none_or(|(bk, _, _)| key < bk) {
                    best = Some((key, job, Place::Lane(i as u32)));
                }
            }
        };
        if self.lanes.len() <= MASK_LANES {
            let mut mask = self.occupied;
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                consider(i, &self.lanes[i]);
            }
        } else {
            for (i, lane) in self.lanes.iter().enumerate() {
                consider(i, lane);
            }
        }
        if let Some(&Reverse((key, job))) = self.spill.peek() {
            if best.is_none_or(|(bk, _, _)| key < bk) {
                best = Some((key, job, Place::Spill));
            }
        }
        self.top = best;
        self.top_valid = true;
        best
    }

    /// Removes the cached tournament winner from its structure.
    fn pop_top(&mut self, key: Key, place: Place) {
        match place {
            Place::Lane(i) => {
                let lane = &mut self.lanes[i as usize];
                let popped = lane.pop_front();
                debug_assert_eq!(popped.map(|(k, _)| k), Some(key));
                if lane.is_empty() {
                    self.occupied &= !lane_bit(i as usize);
                }
                self.lane_ops += 1;
            }
            Place::Spill => {
                let popped = self.spill.pop();
                debug_assert_eq!(popped.map(|Reverse((k, _))| k), Some(key));
                self.heap_ops += 1;
            }
        }
        self.live -= 1;
        self.top_valid = false;
    }

    /// Integrates progress up to `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `now` precedes the last update — callers must only
    /// move forward in time.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "PS integrator moved backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            self.attained += self.per_job_rate() * dt;
            self.busy_core_seconds += self.cores_in_use() * dt;
        }
        self.last_update = now;
    }

    /// Changes the CPU clock (DVFS transition). Progress up to `now` is
    /// integrated at the old speed.
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0`.
    pub fn set_speed(&mut self, now: SimTime, speed: f64) {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        self.advance(now);
        self.speed = speed;
    }

    /// Current CPU clock in work-units per second per core.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Number of cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Freezes or thaws all job progress (stop-the-world GC). Progress up to
    /// `now` is integrated with the old state.
    pub fn set_frozen(&mut self, now: SimTime, frozen: bool) {
        self.advance(now);
        self.frozen = frozen;
    }

    /// Admits a job needing `demand` work-units, on lane 0.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not positive and finite; debug builds also
    /// panic if `job` is already present.
    pub fn insert(&mut self, now: SimTime, job: JobId, demand: f64) {
        self.insert_lane(now, job, demand, 0);
    }

    /// Admits a job needing `demand` work-units on FIFO lane `lane`
    /// (created on demand). The lane is purely a performance hint — any
    /// job may use any lane; grouping jobs whose demands are similar (the
    /// n-tier system groups by request class) maximizes the monotone-append
    /// hit rate.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not positive and finite; debug builds also
    /// panic if `job` is already present.
    pub fn insert_lane(&mut self, now: SimTime, job: JobId, demand: f64, lane: usize) {
        assert!(
            demand > 0.0 && demand.is_finite(),
            "demand must be positive"
        );
        debug_assert!(!self.contains(job), "job inserted twice: {job:?}");
        self.advance(now);
        let key = Key::new(self.attained + demand, self.seq);
        self.seq += 1;
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let q = &mut self.lanes[lane];
        let place = if q.back().is_none_or(|&(tail, _)| tail < key) {
            q.push_back((key, job));
            self.occupied |= lane_bit(lane);
            self.lane_ops += 1;
            Place::Lane(lane as u32)
        } else {
            // Monotonicity miss: attained progress since the lane's tail was
            // inserted did not cover the demand gap (a freeze, or demand
            // variance). Order is preserved by the spill heap instead.
            self.spill.push(Reverse((key, job)));
            self.heap_ops += 1;
            Place::Spill
        };
        self.live += 1;
        // Keep the cached top coherent: a smaller key takes the crown; an
        // equal-or-larger one cannot displace it (keys are unique).
        if self.top_valid {
            match self.top {
                Some((tk, _, _)) if tk < key => {}
                _ => self.top = Some((key, job, place)),
            }
        }
    }

    /// `true` if `job` is currently in service. O(n) — membership is not
    /// indexed; the simulator tracks its own visits and never asks.
    pub fn contains(&self, job: JobId) -> bool {
        self.lanes.iter().any(|l| l.iter().any(|&(_, j)| j == job))
            || self.spill.iter().any(|&Reverse((_, j))| j == job)
    }

    /// Removes a job before completion, returning its remaining work-units,
    /// or `None` if the job is not present. Cold path: O(n) search, eager
    /// removal (nothing stale is ever left behind).
    pub fn remove(&mut self, now: SimTime, job: JobId) -> Option<f64> {
        self.advance(now);
        let mut key = None;
        'search: for (l, lane) in self.lanes.iter_mut().enumerate() {
            for i in 0..lane.len() {
                if lane[i].1 == job {
                    key = lane.remove(i).map(|(k, _)| k);
                    if lane.is_empty() {
                        self.occupied &= !lane_bit(l);
                    }
                    break 'search;
                }
            }
        }
        if key.is_none() && self.spill.iter().any(|&Reverse((_, j))| j == job) {
            let old = std::mem::take(&mut self.spill);
            self.spill = old
                .into_iter()
                .filter(|&Reverse((k, j))| {
                    if j == job && key.is_none() {
                        key = Some(k);
                        false
                    } else {
                        true
                    }
                })
                .collect();
        }
        let key = key?;
        self.live -= 1;
        self.top_valid = false;
        Some((key.threshold() - self.attained).max(0.0))
    }

    /// The absolute time at which the next job will complete if nothing else
    /// changes, rounded *up* to the next microsecond. `None` if the
    /// integrator is empty or frozen.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let rate = self.per_job_rate();
        if rate <= 0.0 {
            return None;
        }
        let min_thr = self.peek_top()?.0.threshold();
        let remaining = (min_thr - self.attained).max(0.0);
        let dt_us = (remaining / rate * 1e6).ceil() as u64;
        now.checked_add(SimDuration::from_micros(dt_us))
    }

    /// Pops every job whose service demand has been met by `now`, in
    /// completion order, appending them to `out` (which is cleared first).
    /// The caller owns the buffer, so the steady-state event loop can reuse
    /// one allocation for every completion batch.
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<JobId>) {
        out.clear();
        self.advance(now);
        // Completion events are scheduled at the microsecond *after* the true
        // completion instant (ceil), so attained has met the threshold up to
        // f64 rounding noise; the epsilon absorbs that noise.
        let eps = 1e-9 + self.attained.abs() * 1e-12;
        while let Some((key, job, place)) = self.peek_top() {
            if key.threshold() <= self.attained + eps {
                self.pop_top(key, place);
                out.push(job);
            } else {
                break;
            }
        }
    }

    /// Pops every job whose service demand has been met by `now`, in
    /// completion order. Allocates a fresh buffer; hot loops should prefer
    /// [`Self::pop_due_into`].
    pub fn pop_due(&mut self, now: SimTime) -> Vec<JobId> {
        let mut done = Vec::new();
        self.pop_due_into(now, &mut done);
        done
    }

    /// Number of jobs currently in service.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no jobs are in service.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Remaining work across all jobs, in work-units, as of `now`.
    pub fn backlog(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let att = self.attained;
        let lanes: f64 = self
            .lanes
            .iter()
            .flat_map(|l| l.iter())
            .map(|&(k, _)| (k.threshold() - att).max(0.0))
            .sum();
        let spill: f64 = self
            .spill
            .iter()
            .map(|&Reverse((k, _))| (k.threshold() - att).max(0.0))
            .sum();
        lanes + spill
    }

    /// Integral of cores occupied by job progress, in core-seconds, as of
    /// `now`. Stop-the-world freezes contribute nothing here; the server
    /// model accounts GC CPU burn separately.
    pub fn busy_core_seconds(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.busy_core_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn single_job_completes_at_demand_over_speed() {
        let mut ps = PsIntegrator::new(200.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 100.0);
        assert_eq!(ps.next_completion(SimTime::ZERO), Some(t(500)));
        assert_eq!(ps.pop_due(t(500)), vec![JobId(1)]);
        assert!(ps.is_empty());
    }

    #[test]
    fn equal_jobs_share_one_core_and_finish_together() {
        let mut ps = PsIntegrator::new(100.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 50.0);
        ps.insert(SimTime::ZERO, JobId(2), 50.0);
        assert_eq!(ps.next_completion(SimTime::ZERO), Some(t(1000)));
        let done = ps.pop_due(t(1000));
        assert_eq!(done, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn jobs_below_core_count_run_at_full_speed() {
        let mut ps = PsIntegrator::new(100.0, 4);
        for i in 0..4 {
            ps.insert(SimTime::ZERO, JobId(i), 100.0);
        }
        // Four cores, four jobs: no sharing, all done at 1 s.
        assert_eq!(ps.next_completion(SimTime::ZERO), Some(t(1000)));
        assert_eq!(ps.pop_due(t(1000)).len(), 4);
    }

    #[test]
    fn late_arrival_slows_everyone() {
        let mut ps = PsIntegrator::new(100.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 100.0);
        // After 0.5 s job 1 has attained 50 units.
        ps.insert(t(500), JobId(2), 100.0);
        // Both now progress at 50 u/s; job 1 needs 50 more -> 1 s.
        assert_eq!(ps.next_completion(t(500)), Some(t(1500)));
        assert_eq!(ps.pop_due(t(1500)), vec![JobId(1)]);
        // Job 2 alone again, 50 units left at 100 u/s.
        assert_eq!(ps.next_completion(t(1500)), Some(t(2000)));
        assert_eq!(ps.pop_due(t(2000)), vec![JobId(2)]);
    }

    #[test]
    fn freeze_halts_progress() {
        let mut ps = PsIntegrator::new(100.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 100.0);
        ps.set_frozen(t(200), true);
        assert_eq!(ps.next_completion(t(300)), None);
        ps.set_frozen(t(700), false);
        // 20 units attained before freeze, 80 to go at 100 u/s -> 0.8 s more.
        assert_eq!(ps.next_completion(t(700)), Some(t(1500)));
    }

    #[test]
    fn speed_change_rescales_remaining_time() {
        let mut ps = PsIntegrator::new(100.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 100.0);
        ps.set_speed(t(500), 50.0); // half clock after 50 units attained
        assert_eq!(ps.next_completion(t(500)), Some(t(1500)));
    }

    #[test]
    fn remove_returns_remaining_work() {
        let mut ps = PsIntegrator::new(100.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 100.0);
        let rem = ps.remove(t(300), JobId(1)).unwrap();
        assert!((rem - 70.0).abs() < 1e-9, "remaining was {rem}");
        assert_eq!(ps.remove(t(300), JobId(1)), None);
        assert!(ps.is_empty());
    }

    #[test]
    fn backlog_tracks_total_outstanding_work() {
        let mut ps = PsIntegrator::new(100.0, 2);
        ps.insert(SimTime::ZERO, JobId(1), 30.0);
        ps.insert(SimTime::ZERO, JobId(2), 70.0);
        assert!((ps.backlog(SimTime::ZERO) - 100.0).abs() < 1e-9);
        // Both on own cores at 100 u/s; after 0.1 s: 10 units each attained.
        assert!((ps.backlog(t(100)) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn busy_core_seconds_integrates_occupancy() {
        let mut ps = PsIntegrator::new(100.0, 2);
        ps.insert(SimTime::ZERO, JobId(1), 100.0); // 1 core busy
        ps.insert(t(500), JobId(2), 100.0); // 2 cores busy
                                            // At t=1.0: job1 done (attained 100 at t=1.0).
        let busy = ps.busy_core_seconds(t(1000));
        assert!((busy - 1.5).abs() < 1e-9, "busy was {busy}");
    }

    #[test]
    fn completion_order_is_fifo_for_equal_thresholds() {
        let mut ps = PsIntegrator::new(100.0, 1);
        for i in 0..10 {
            ps.insert(SimTime::ZERO, JobId(i), 10.0);
        }
        let when = ps.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(ps.pop_due(when), (0..10).map(JobId).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_interleave_in_global_threshold_order() {
        // Two lanes with staggered demands: completions must interleave by
        // threshold, not drain lane-by-lane.
        let mut ps = PsIntegrator::new(100.0, 4);
        ps.insert_lane(SimTime::ZERO, JobId(1), 10.0, 1);
        ps.insert_lane(SimTime::ZERO, JobId(2), 20.0, 2);
        ps.insert_lane(SimTime::ZERO, JobId(3), 30.0, 1);
        ps.insert_lane(SimTime::ZERO, JobId(4), 40.0, 2);
        assert_eq!(ps.len(), 4);
        assert_eq!(
            ps.pop_due(t(400)),
            vec![JobId(1), JobId(2), JobId(3), JobId(4)]
        );
    }

    #[test]
    fn non_monotone_insert_spills_but_completes_in_order() {
        // Frozen progress: the second, smaller demand on the same lane
        // violates monotonicity and must spill — and still complete first.
        let mut ps = PsIntegrator::new(100.0, 2);
        ps.set_frozen(SimTime::ZERO, true);
        ps.insert_lane(SimTime::ZERO, JobId(1), 50.0, 1);
        ps.insert_lane(t(100), JobId(2), 10.0, 1);
        ps.set_frozen(t(200), false);
        assert_eq!(ps.next_completion(t(200)), Some(t(300)));
        assert_eq!(ps.pop_due(t(300)), vec![JobId(2)]);
        assert_eq!(ps.pop_due(t(700)), vec![JobId(1)]);
    }

    #[test]
    fn conservation_of_work_under_many_events() {
        // Work in == work out, regardless of interleaving.
        let mut ps = PsIntegrator::new(123.0, 3);
        let mut inserted = 0.0;
        let mut now = SimTime::ZERO;
        for i in 0..100u64 {
            now += SimDuration::from_micros(i * 137 % 5000);
            let demand = 1.0 + (i as f64 * 7.3) % 20.0;
            inserted += demand;
            ps.insert_lane(now, JobId(i), demand, (i % 5) as usize);
            if i % 3 == 0 {
                if let Some(due) = ps.next_completion(now) {
                    now = due;
                    ps.pop_due(now);
                }
            }
        }
        // Drain.
        while let Some(due) = ps.next_completion(now) {
            now = due;
            ps.pop_due(now);
        }
        assert!(ps.is_empty());
        let attained_total = ps.busy_core_seconds(now) * 123.0;
        // Attained core-work must equal inserted demand (within scheduling
        // roundup of 1 us per completion event).
        assert!(
            (attained_total - inserted).abs() < inserted * 1e-3 + 1.0,
            "in={inserted} out={attained_total}"
        );
    }

    #[test]
    fn removed_job_never_drives_completion() {
        let mut ps = PsIntegrator::new(100.0, 2);
        ps.insert(SimTime::ZERO, JobId(1), 10.0); // would complete first
        ps.insert(SimTime::ZERO, JobId(2), 50.0);
        ps.remove(SimTime::ZERO, JobId(1));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.next_completion(SimTime::ZERO), Some(t(500)));
        assert_eq!(ps.pop_due(t(500)), vec![JobId(2)]);
        assert!(ps.is_empty());
    }

    #[test]
    fn removed_spilled_job_never_drives_completion() {
        let mut ps = PsIntegrator::new(100.0, 2);
        ps.set_frozen(SimTime::ZERO, true);
        ps.insert_lane(SimTime::ZERO, JobId(1), 50.0, 1);
        ps.insert_lane(t(10), JobId(2), 10.0, 1); // spills
        ps.set_frozen(t(20), false);
        let rem = ps.remove(t(20), JobId(2)).unwrap();
        assert!((rem - 10.0).abs() < 1e-9, "remaining was {rem}");
        assert_eq!(ps.pop_due(t(520)), vec![JobId(1)]);
    }

    #[test]
    fn reinserted_job_uses_its_new_threshold() {
        let mut ps = PsIntegrator::new(100.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 10.0);
        ps.remove(SimTime::ZERO, JobId(1));
        // Same id, new demand: removal was eager, so the reinsert stands
        // alone.
        ps.insert(SimTime::ZERO, JobId(1), 80.0);
        assert_eq!(ps.next_completion(SimTime::ZERO), Some(t(800)));
        assert_eq!(ps.pop_due(t(800)), vec![JobId(1)]);
    }

    #[test]
    fn pop_due_into_clears_and_reuses_the_buffer() {
        let mut ps = PsIntegrator::new(100.0, 1);
        let mut buf = vec![JobId(99)]; // stale content must be cleared
        ps.insert(SimTime::ZERO, JobId(1), 50.0);
        ps.pop_due_into(t(500), &mut buf);
        assert_eq!(buf, vec![JobId(1)]);
        ps.insert(t(500), JobId(2), 50.0);
        ps.pop_due_into(t(1000), &mut buf);
        assert_eq!(buf, vec![JobId(2)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_insert_panics() {
        let mut ps = PsIntegrator::new(1.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 1.0);
        ps.insert(SimTime::ZERO, JobId(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_demand_panics() {
        let mut ps = PsIntegrator::new(1.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 0.0);
    }
}
