//! The simulation driver: an [`Actor`] state machine fed by an event queue
//! through a [`Scheduler`] handle.
//!
//! The whole simulated system is one `Actor` with a typed event enum. This
//! monolithic-state design avoids shared-ownership gymnastics, keeps event
//! dispatch a plain `match`, and makes determinism trivial to audit.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// The behaviour of a simulated system: how it reacts to each event.
pub trait Actor {
    /// The event alphabet of the system.
    type Event;

    /// Reacts to `event` occurring at `now`, scheduling follow-up events on
    /// `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Handle through which an [`Actor`] schedules future events.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`, returning its FIFO
    /// ticket (see [`Self::restamp`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — causality violations are always bugs.
    pub fn at(&mut self, at: SimTime, event: E) -> u64 {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event)
    }

    /// Re-stamps the pending event `(at, seq)` with a fresh FIFO ticket —
    /// the same-instant ordering a cancel-and-reschedule would produce —
    /// and returns it. `None` if no such event is pending; the caller
    /// should fall back to scheduling afresh.
    pub fn restamp(&mut self, at: SimTime, seq: u64) -> Option<u64> {
        self.queue.restamp(at, seq)
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.schedule(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time on the
    /// queue's fixed-delay lane ([`EventQueue::schedule_lane`]). Meant for
    /// a delay that is the same on every call (a network hop), whose
    /// events are then born in time order and skip the wheel; delivery
    /// order is exactly that of [`Self::after`] whatever the delay.
    pub fn after_fixed(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.schedule_lane(at, event);
    }

    /// Schedules `event` to fire at the current instant, after all events
    /// already queued for this instant.
    pub fn immediately(&mut self, event: E) {
        self.queue.schedule(self.now, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Drives an [`Actor`] until a time horizon or event exhaustion.
///
/// # Examples
///
/// ```
/// use fgbd_des::{Actor, Scheduler, SimDuration, SimTime, Simulation};
///
/// struct Counter {
///     ticks: u32,
/// }
///
/// impl Actor for Counter {
///     type Event = ();
///     fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
///         self.ticks += 1;
///         if self.ticks < 10 {
///             sched.after(SimDuration::from_millis(100), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { ticks: 0 });
/// sim.prime(SimTime::ZERO, ());
/// let end = sim.run_until(SimTime::from_secs(5));
/// assert_eq!(sim.actor().ticks, 10);
/// assert_eq!(end, SimTime::from_millis(900));
/// ```
#[derive(Debug)]
pub struct Simulation<A: Actor> {
    actor: A,
    sched: Scheduler<A::Event>,
    events_processed: u64,
}

impl<A: Actor> Simulation<A> {
    /// Wraps `actor` with an empty event queue at time zero.
    pub fn new(actor: A) -> Self {
        Simulation {
            actor,
            sched: Scheduler::new(),
            events_processed: 0,
        }
    }

    /// Seeds the queue with an initial event before running.
    pub fn prime(&mut self, at: SimTime, event: A::Event) {
        self.sched.at(at, event);
    }

    /// Runs until the queue drains or the next event is past `horizon`.
    ///
    /// Returns the time of the last event processed (or the prior clock value
    /// if nothing ran). Events at exactly `horizon` are processed; later ones
    /// stay queued.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        let before = self.events_processed;
        // The horizon check rides inside the pop (`pop_at_or_before`), not a
        // separate peek: a peek walks the same head bucket the pop is about
        // to scan or cascade, doubling the queue's share of the per-event
        // budget for a bounds check the wheel can answer in one comparison.
        while let Some((t, ev)) = self.sched.queue.pop_at_or_before(horizon) {
            debug_assert!(t >= self.sched.now, "event queue went back in time");
            self.sched.now = t;
            self.actor.handle(t, ev, &mut self.sched);
            self.events_processed += 1;
        }
        // Telemetry stays out of the dispatch loop: one flush per run,
        // not one atomic per event.
        let delta = self.events_processed - before;
        if delta > 0 {
            fgbd_obsv::counter!("des.events", delta);
        }
        self.sched.now
    }

    /// Runs until the event queue is completely drained.
    pub fn run_to_completion(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// The simulated system.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Consumes the simulation, returning the final actor state.
    pub fn into_actor(self) -> A {
        self.actor
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Actor for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
            if ev == 1 {
                // Fan out: one immediate, one delayed.
                sched.immediately(2);
                sched.after(SimDuration::from_millis(10), 3);
            }
        }
    }

    #[test]
    fn cascade_executes_in_causal_order() {
        let mut sim = Simulation::new(Recorder::default());
        sim.prime(SimTime::from_millis(5), 1);
        sim.run_to_completion();
        let seen = &sim.actor().seen;
        assert_eq!(
            seen,
            &vec![
                (SimTime::from_millis(5), 1),
                (SimTime::from_millis(5), 2),
                (SimTime::from_millis(15), 3),
            ]
        );
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn horizon_stops_but_keeps_future_events() {
        let mut sim = Simulation::new(Recorder::default());
        sim.prime(SimTime::from_millis(5), 1);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor().seen.len(), 2); // events at exactly the horizon run
                                               // The delayed event is still queued; running further delivers it.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.actor().seen.len(), 3);
    }

    #[test]
    fn run_on_empty_queue_is_a_no_op() {
        let mut sim = Simulation::new(Recorder::default());
        let t = sim.run_until(SimTime::from_secs(10));
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn event_exactly_at_horizon_runs_and_later_schedules_stay_ordered() {
        // After stopping at a horizon with a far-future event pending (the
        // peek that declined it must not advance the wheel), scheduling an
        // earlier event still delivers in time order.
        let mut sim = Simulation::new(Recorder::default());
        sim.prime(SimTime::from_millis(5), 0);
        sim.prime(SimTime::from_secs(3600), 9);
        let end = sim.run_until(SimTime::from_millis(5));
        assert_eq!(end, SimTime::from_millis(5));
        assert_eq!(sim.actor().seen, vec![(SimTime::from_millis(5), 0)]);
        sim.prime(SimTime::from_millis(7), 5);
        sim.run_to_completion();
        assert_eq!(
            sim.actor().seen,
            vec![
                (SimTime::from_millis(5), 0),
                (SimTime::from_millis(7), 5),
                (SimTime::from_secs(3600), 9),
            ]
        );
    }

    #[test]
    fn schedule_at_now_reentrancy_is_fifo_with_queued_peers() {
        // An actor that reschedules at the current instant from inside
        // `handle` runs after the events already queued for that instant.
        struct Chain {
            order: Vec<u32>,
        }
        impl Actor for Chain {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.order.push(ev);
                if ev < 3 {
                    sched.immediately(ev + 10);
                }
            }
        }
        let mut sim = Simulation::new(Chain { order: vec![] });
        let t = SimTime::from_millis(1);
        for ev in [1, 2, 3] {
            sim.prime(t, ev);
        }
        sim.run_until(t);
        // 1, 2, 3 were queued first; their at-now children follow in the
        // order the parents fired.
        assert_eq!(sim.actor().order, vec![1, 2, 3, 11, 12]);
        assert_eq!(sim.now(), t);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Actor for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.at(now - SimDuration::from_micros(1), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.prime(SimTime::from_millis(1), ());
        sim.run_to_completion();
    }
}
