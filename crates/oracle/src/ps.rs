//! The original `BinaryHeap` + lazy-deletion-index PS integrator: the
//! executable specification of `fgbd_des::ps`'s contract.
//! `crates/des/tests/properties.rs` holds the lane-based
//! [`fgbd_des::PsIntegrator`] to identical completion sequences; the
//! `ps_integrator` bench measures the gap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fgbd_des::hash::FxHashMap;
use fgbd_des::{JobId, SimDuration, SimTime};

/// Completion-threshold key: ordered first by threshold value then by
/// insertion sequence so equal thresholds complete FIFO. Thresholds are
/// non-negative finite `f64`s, whose IEEE-754 bit patterns order as the
/// values do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
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

/// Exact processor-sharing integrator over a lazy-deletion min-heap:
/// O(log n) insert/complete, with a `JobId → Key` index as the source
/// of truth for membership.
#[derive(Debug)]
pub struct PsIntegrator {
    speed: f64,
    cores: u32,
    frozen: bool,
    attained: f64,
    last_update: SimTime,
    /// Min-heap of completion thresholds, with **lazy deletion**:
    /// `remove` only drops the `index` entry, and stale heap entries
    /// are skipped when they surface at the top.
    jobs: BinaryHeap<Reverse<(Key, JobId)>>,
    index: FxHashMap<JobId, Key>,
    seq: u64,
    busy_core_seconds: f64,
}

impl PsIntegrator {
    /// Creates an idle integrator.
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0` or `cores == 0`.
    pub fn new(speed: f64, cores: u32) -> Self {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        assert!(cores > 0, "need at least one core");
        PsIntegrator {
            speed,
            cores,
            frozen: false,
            attained: 0.0,
            last_update: SimTime::ZERO,
            jobs: BinaryHeap::new(),
            index: FxHashMap::default(),
            seq: 0,
            busy_core_seconds: 0.0,
        }
    }

    fn per_job_rate(&self) -> f64 {
        if self.frozen || self.index.is_empty() {
            return 0.0;
        }
        let n = self.index.len() as f64;
        self.speed * (self.cores as f64 / n).min(1.0)
    }

    fn cores_in_use(&self) -> f64 {
        if self.frozen {
            return 0.0;
        }
        (self.index.len() as f64).min(self.cores as f64)
    }

    /// Discards lazily-deleted heap entries until the top is live, and
    /// returns it. A heap entry is live iff it matches the job's
    /// current key in `index`.
    fn live_top(&mut self) -> Option<(Key, JobId)> {
        while let Some(&Reverse((key, job))) = self.jobs.peek() {
            if self.index.get(&job) == Some(&key) {
                return Some((key, job));
            }
            self.jobs.pop();
        }
        None
    }

    /// Integrates progress up to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "PS integrator moved backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            self.attained += self.per_job_rate() * dt;
            self.busy_core_seconds += self.cores_in_use() * dt;
        }
        self.last_update = now;
    }

    /// Changes the CPU clock (DVFS transition).
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0`.
    pub fn set_speed(&mut self, now: SimTime, speed: f64) {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        self.advance(now);
        self.speed = speed;
    }

    /// Freezes or thaws all job progress (stop-the-world GC).
    pub fn set_frozen(&mut self, now: SimTime, frozen: bool) {
        self.advance(now);
        self.frozen = frozen;
    }

    /// Admits a job needing `demand` work-units.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not positive and finite, or if `job` is
    /// already present.
    pub fn insert(&mut self, now: SimTime, job: JobId, demand: f64) {
        assert!(
            demand > 0.0 && demand.is_finite(),
            "demand must be positive"
        );
        self.advance(now);
        let key = Key::new(self.attained + demand, self.seq);
        self.seq += 1;
        let prev = self.index.insert(job, key);
        assert!(prev.is_none(), "job inserted twice: {job:?}");
        self.jobs.push(Reverse((key, job)));
    }

    /// Removes a job before completion, returning its remaining
    /// work-units, or `None` if the job is not present.
    pub fn remove(&mut self, now: SimTime, job: JobId) -> Option<f64> {
        self.advance(now);
        let key = self.index.remove(&job)?;
        Some((key.threshold() - self.attained).max(0.0))
    }

    /// The absolute time at which the next job will complete if nothing
    /// else changes, rounded *up* to the next microsecond.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let rate = self.per_job_rate();
        if rate <= 0.0 {
            return None;
        }
        let min_thr = self.live_top()?.0.threshold();
        let remaining = (min_thr - self.attained).max(0.0);
        let dt_us = (remaining / rate * 1e6).ceil() as u64;
        now.checked_add(SimDuration::from_micros(dt_us))
    }

    /// Pops every job whose service demand has been met by `now`, in
    /// completion order, appending them to `out` (cleared first).
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<JobId>) {
        out.clear();
        self.advance(now);
        let eps = 1e-9 + self.attained.abs() * 1e-12;
        while let Some((key, job)) = self.live_top() {
            if key.threshold() <= self.attained + eps {
                self.jobs.pop();
                self.index.remove(&job);
                out.push(job);
            } else {
                break;
            }
        }
    }

    /// Pops every job whose service demand has been met by `now`, in
    /// completion order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<JobId> {
        let mut done = Vec::new();
        self.pop_due_into(now, &mut done);
        done
    }

    /// Number of jobs currently in service.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if no jobs are in service.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Integral of cores occupied by job progress, in core-seconds.
    pub fn busy_core_seconds(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.busy_core_seconds
    }
}

/// The specification's panic contract matches `fgbd_des::PsIntegrator`'s.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "twice")]
    fn reference_duplicate_insert_panics() {
        let mut ps = PsIntegrator::new(1.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 1.0);
        ps.insert(SimTime::ZERO, JobId(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn reference_zero_demand_panics() {
        let mut ps = PsIntegrator::new(1.0, 1);
        ps.insert(SimTime::ZERO, JobId(1), 0.0);
    }
}
