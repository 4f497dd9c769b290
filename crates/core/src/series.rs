//! Fine-grained load and throughput series (paper §III-A and §III-B).
//!
//! * **Load** (Fig 6): the time-weighted average number of concurrent
//!   requests in a server over each interval, computed exactly from span
//!   arrival/departure timestamps.
//! * **Throughput** (Fig 7): per interval, both the *straightforward* count
//!   of completed requests and the *normalized* throughput in work units —
//!   each completed request contributes `service_time / work_unit` units, so
//!   intervals with different request-class mixes become comparable.
//!
//! # Sweep-line construction
//!
//! Series are built in `O(S + I)` for `S` spans over `I` intervals by the
//! one interval engine, `IntervalRing`: each span touches only its first
//! and last overlapped interval directly; the interior intervals it fully
//! covers are recorded as a `+1/-1` pair in a difference array and resolved
//! by a running prefix sum as intervals are popped. The naive per-span
//! interval walk is `O(S × I)` in the worst case — a single 3-second GC
//! freeze holds hundreds of 10 ms intervals open, and every blocked span
//! pays for all of them. The batch constructors here pop the whole grid at
//! once; [`crate::online`] pops each interval as its watermark passes.
//!
//! All accumulation is in integer microseconds; a value only becomes `f64`
//! through one final division per interval. That makes results independent
//! of span order and of when a completion's service time is added (any time
//! before its interval is popped), bit-for-bit reproducible, and — because
//! integer sums are associative — lets a coarse grid be derived *exactly*
//! from a fine one (see [`SeriesSet::coarsen`]). The straightforward
//! `O(S × I)` versions are the executable specification,
//! `fgbd_oracle::series` (a dev-only crate); property tests assert bit-for-bit agreement.

use std::collections::VecDeque;

use fgbd_des::{SimDuration, SimTime};
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{ClassId, NodeId, Span};

/// A uniform grid of analysis intervals `[start + i·len, start + (i+1)·len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Start of the first interval.
    pub start: SimTime,
    /// End of the grid (exclusive); partial trailing intervals are dropped.
    pub end: SimTime,
    /// Interval length (the paper's monitoring granularity, e.g. 50 ms).
    pub interval: SimDuration,
}

impl Window {
    /// A grid covering `[start, end)` with `interval`-long cells.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` or `interval` is zero.
    pub fn new(start: SimTime, end: SimTime, interval: SimDuration) -> Window {
        assert!(end > start, "empty window");
        assert!(!interval.is_zero(), "interval must be positive");
        Window {
            start,
            end,
            interval,
        }
    }

    /// Number of whole intervals in the grid.
    pub fn len(&self) -> usize {
        ((self.end - self.start).as_micros() / self.interval.as_micros()) as usize
    }

    /// `true` if the grid holds no whole interval.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// End of the last whole interval: `start + interval · len()`. At most
    /// `end`; anything between `grid_end` and `end` is the dropped partial
    /// trailing interval.
    pub fn grid_end(&self) -> SimTime {
        self.start + self.interval * self.len() as u64
    }

    /// The bounds of interval `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bounds(&self, i: usize) -> (SimTime, SimTime) {
        assert!(i < self.len(), "interval index out of range");
        let from = self.start + self.interval * i as u64;
        (from, from + self.interval)
    }

    /// The midpoint of interval `i` in seconds since the window start
    /// (convenient x-axis for timeline plots).
    pub fn mid_secs(&self, i: usize) -> f64 {
        let (from, to) = self.bounds(i);
        ((from - self.start) + (to - from) / 2).as_secs_f64()
    }
}

/// Integer accumulators of one interval.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// Overlap microseconds added directly (a span's first and last
    /// interval).
    overlap_us: u64,
    /// Difference array for the fully covered interior: the prefix sum of
    /// `full_diff` up to and including interval `i` is the number of spans
    /// covering all of interval `i`.
    full_diff: i64,
    /// Completions (spans departing in this interval).
    count: u32,
    /// Service microseconds of those completions.
    service_us: u64,
}

/// The one interval engine: per-interval overlap, completion count and
/// service microseconds over the not-yet-popped suffix of a grid.
///
/// A span touches its first and last overlapped interval directly and
/// records the interior it fully covers as a `+1/-1` pair in the
/// difference array; [`IntervalRing::pop`] resolves the front interval by
/// carrying the running prefix sum (`covering`). The batch constructors
/// add every span and then pop the whole grid; the online detector pops
/// each interval as its watermark passes and keeps only the in-flight
/// horizon. A caller that cannot weigh a completion yet (the uncalibrated
/// online detector) folds the span with [`IntervalRing::add_span`] and its
/// service time later with [`IntervalRing::add_service`].
///
/// `end_us` is the grid end when it is known — spans are clamped to it and
/// every cell is allocated up front — and `u64::MAX` while it is not: then
/// nothing is clamped, cells appear on demand, and the caller stops
/// popping at the grid length once the end is known. For every interval
/// inside the grid both give the same integers (the boundary interval of a
/// span leaving the grid gets its full coverage through the difference
/// array instead of a direct add).
///
/// A popped interval is final. A span that reaches back into one (only the
/// online detector pops before every span is in, and only a record stamped
/// before stream time can reach back) loses the part before the first
/// unpopped interval — its overlap there, and its completion if it departs
/// there — and is counted in `late`.
#[derive(Debug)]
pub(crate) struct IntervalRing {
    start_us: u64,
    ilen_us: u64,
    end_us: u64,
    /// Grid index of `cells[0]`: the number of intervals popped so far.
    base: usize,
    cells: VecDeque<Cell>,
    /// Spans fully covering interval `base - 1` (prefix sum of the popped
    /// `full_diff`s).
    covering: i64,
    /// Spans that reached back into a popped interval (see the type docs).
    late: u64,
}

impl IntervalRing {
    /// A ring over all of `window`: the grid end is known.
    fn bounded(window: Window) -> IntervalRing {
        IntervalRing {
            end_us: window.grid_end().as_micros(),
            cells: vec![Cell::default(); window.len()].into(),
            ..IntervalRing::open_ended(window.start, window.interval)
        }
    }

    /// A ring over a grid starting at `start` whose end is not known yet.
    pub(crate) fn open_ended(start: SimTime, interval: SimDuration) -> IntervalRing {
        assert!(!interval.is_zero(), "interval must be positive");
        IntervalRing {
            start_us: start.as_micros(),
            ilen_us: interval.as_micros(),
            end_us: u64::MAX,
            base: 0,
            late: 0,
            cells: VecDeque::new(),
            covering: 0,
        }
    }

    /// Intervals popped so far (the grid index of the front cell).
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// The interval containing `t_us` (0 for anything before the grid).
    pub(crate) fn index_of(&self, t_us: u64) -> usize {
        (t_us.saturating_sub(self.start_us) / self.ilen_us) as usize
    }

    /// End timestamp of interval `index`, in microseconds.
    pub(crate) fn end_of(&self, index: usize) -> u64 {
        self.start_us + (index as u64 + 1) * self.ilen_us
    }

    /// Cells currently held.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Spans that reached back into a popped interval.
    pub(crate) fn late(&self) -> u64 {
        self.late
    }

    /// Bytes of cell storage currently held.
    pub(crate) fn state_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Cell>()
    }

    #[inline]
    fn cell(&mut self, index: usize) -> &mut Cell {
        debug_assert!(index >= self.base, "span touches a popped interval");
        let slot = index - self.base;
        if slot >= self.cells.len() {
            self.cells.resize(slot + 1, Cell::default());
        }
        &mut self.cells[slot]
    }

    /// Folds in one span resident over `[arrival_us, departure_us)`: its
    /// overlap with every interval it touches (the load numerator), and —
    /// if it departs inside the grid — one completion carrying
    /// `service_us()` in its departure interval (the normalized-throughput
    /// numerator). This is the one place a span becomes integer
    /// microseconds. Popped intervals are not touched (see the type docs).
    #[inline]
    pub(crate) fn add(
        &mut self,
        arrival_us: u64,
        departure_us: u64,
        service_us: impl FnOnce() -> u64,
    ) {
        if let Some(index) = self.add_span(arrival_us, departure_us) {
            self.add_service(index, service_us());
        }
    }

    /// The calibration-free part of [`Self::add`]: the span's overlap and
    /// its completion count, without its service time. Returns the
    /// departure interval the completion was counted in, if it was — the
    /// interval [`Self::add_service`] must be given, before it is popped.
    #[inline]
    pub(crate) fn add_span(&mut self, arrival_us: u64, departure_us: u64) -> Option<usize> {
        let (start_us, ilen_us) = (self.start_us, self.ilen_us);
        // Start of the first unpopped interval: `start_us` until a pop.
        let open_us = start_us + self.base as u64 * ilen_us;
        if departure_us.min(open_us) > arrival_us.max(start_us)
            || (start_us..open_us).contains(&departure_us)
        {
            self.late += 1;
        }
        let a = arrival_us.max(open_us);
        let d = departure_us.min(self.end_us);
        if d > a {
            let rel_a = a - start_us;
            let rel_d = d - start_us;
            let first = (rel_a / ilen_us) as usize;
            let last = ((rel_d - 1) / ilen_us) as usize;
            if first == last {
                self.cell(first).overlap_us += rel_d - rel_a;
            } else {
                // `last` first, so the ring grows at most once per span.
                let tail = self.cell(last);
                tail.overlap_us += rel_d - last as u64 * ilen_us;
                tail.full_diff -= 1;
                self.cell(first).overlap_us += (first as u64 + 1) * ilen_us - rel_a;
                self.cell(first + 1).full_diff += 1;
            }
        }
        if departure_us >= open_us && departure_us < self.end_us {
            let index = ((departure_us - start_us) / ilen_us) as usize;
            self.cell(index).count += 1;
            Some(index)
        } else {
            None
        }
    }

    /// Adds `service_us` to the service sum of interval `index`, an
    /// unpopped interval [`Self::add_span`] counted a completion in.
    #[inline]
    pub(crate) fn add_service(&mut self, index: usize, service_us: u64) {
        self.cell(index).service_us += service_us;
    }

    /// Resolves and removes the front interval:
    /// `(overlap_us, count, service_us)`. Popping past the last touched
    /// cell yields what the spans still covering that interval contribute.
    #[inline]
    pub(crate) fn pop(&mut self) -> (u64, u32, u64) {
        let cell = self.cells.pop_front().unwrap_or_default();
        self.base += 1;
        self.covering += cell.full_diff;
        debug_assert!(self.covering >= 0, "negative covering prefix");
        (
            cell.overlap_us + self.covering as u64 * self.ilen_us,
            cell.count,
            cell.service_us,
        )
    }
}

/// What a completed request adds to its departure interval — its class's
/// calibrated service time, or, for a class calibration never saw, its own
/// residence capped at one work unit (see
/// [`ThroughputSeries::from_spans`]) — with the [`ServiceTimeTable`] probed
/// once per `(server, class)`, not once per span: `[NodeId.0][ClassId.0]`.
#[derive(Debug, Default)]
pub(crate) struct ServiceCache(Vec<Vec<u64>>);

/// A [`ServiceCache`] cell not looked up yet.
const UNSEEN: u64 = u64::MAX;
/// A [`ServiceCache`] cell whose class the table does not hold.
const UNCALIBRATED: u64 = u64::MAX - 1;

impl ServiceCache {
    #[inline]
    pub(crate) fn service_us(
        &mut self,
        services: &ServiceTimeTable,
        server: NodeId,
        class: ClassId,
        residence_us: u64,
        wu_us: u64,
    ) -> u64 {
        let row = self.0.get(server.0 as usize);
        let us = match row.and_then(|r| r.get(class.0 as usize)) {
            Some(&us) if us != UNSEEN => us,
            _ => self.resolve(services, server, class),
        };
        if us == UNCALIBRATED {
            residence_us.min(wu_us)
        } else {
            us
        }
    }

    #[cold]
    fn resolve(&mut self, services: &ServiceTimeTable, server: NodeId, class: ClassId) -> u64 {
        let (s, c) = (server.0 as usize, class.0 as usize);
        if s >= self.0.len() {
            self.0.resize_with(s + 1, Vec::new);
        }
        if c >= self.0[s].len() {
            self.0[s].resize(c + 1, UNSEEN);
        }
        let us = services.get(server, class);
        let us = us.map_or(UNCALIBRATED, |d| d.as_micros());
        self.0[s][c] = us;
        us
    }
}

/// One interval's integer sums as the paper's quantities
/// `(load, units, rate)`: time-weighted concurrency (§III-A), work units
/// completed, and work units per second (§III-B). The only place an
/// integer becomes an `f64`, with one division each — so batch and online
/// results agree bit for bit.
#[inline]
pub(crate) fn materialize(
    overlap_us: u64,
    service_us: u64,
    interval: SimDuration,
    wu_us: u64,
) -> (f64, f64, f64) {
    let load = overlap_us as f64 / interval.as_micros() as f64;
    let units = service_us as f64 / wu_us as f64;
    (load, units, units / interval.as_secs_f64())
}

/// Time-weighted concurrent-request counts per interval.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSeries {
    window: Window,
    values: Vec<f64>,
}

impl LoadSeries {
    /// Computes the load of a server over `window` from its spans
    /// (paper Fig 6: the average of the concurrency step function over each
    /// interval) in `O(spans + intervals)`.
    pub fn from_spans(spans: &[Span], window: Window) -> LoadSeries {
        // The load needs no service times; the work unit is a placeholder
        // that `load()` never reads.
        SeriesSet::sweep(spans, window, None, SimDuration::from_micros(1)).load()
    }

    /// The grid this series lives on.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Per-interval loads (average concurrent requests).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Load of interval `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if there are no intervals.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Per-interval completion counts and normalized work units.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSeries {
    window: Window,
    counts: Vec<u32>,
    units: Vec<f64>,
    work_unit_s: f64,
}

impl ThroughputSeries {
    /// Computes both throughput variants over `window` in
    /// `O(spans + intervals)`.
    ///
    /// `services` supplies per-class service times, looked up per span by
    /// its own `(server, class)` — so `spans` may mix servers (tier-level
    /// aggregation). `work_unit` is the common divisor the units are
    /// expressed in (see [`ServiceTimeTable::work_unit`]). A span whose
    /// class has no service estimate contributes its own residence *capped
    /// at one work unit* — the residence of an unknown class is the only
    /// available stand-in for its service time, and the cap keeps a queued
    /// (residence ≫ service) outlier from inflating the interval; in
    /// practice every class seen in the analysis window was also seen
    /// during calibration.
    ///
    /// # Panics
    ///
    /// Panics if `work_unit` is zero.
    pub fn from_spans(
        spans: &[Span],
        window: Window,
        services: &ServiceTimeTable,
        work_unit: SimDuration,
    ) -> ThroughputSeries {
        SeriesSet::sweep(spans, window, Some(services), work_unit).tput()
    }

    /// The grid this series lives on.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Completed requests in interval `i` (the "straightforward"
    /// throughput of Fig 7).
    pub fn count(&self, i: usize) -> u32 {
        self.counts[i]
    }

    /// Normalized throughput of interval `i` in work units (Fig 7's
    /// normalized row).
    pub fn units(&self, i: usize) -> f64 {
        self.units[i]
    }

    /// Normalized throughput as work units per second.
    pub fn unit_rate(&self, i: usize) -> f64 {
        self.units[i] / self.window.interval.as_secs_f64()
    }

    /// Normalized throughput expressed as *equivalent requests per second*:
    /// work-unit rate scaled by `mean_service / work_unit`, so numbers are
    /// comparable to plain request rates when the mix is near-uniform (the
    /// scale the paper's MySQL figures use).
    pub fn equivalent_rate(&self, i: usize, mean_service: SimDuration) -> f64 {
        let ms = mean_service.as_secs_f64();
        if ms <= 0.0 {
            return self.unit_rate(i);
        }
        self.unit_rate(i) * self.work_unit_s / ms
    }

    /// All normalized per-second rates.
    pub fn unit_rates(&self) -> Vec<f64> {
        (0..self.units.len()).map(|i| self.unit_rate(i)).collect()
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if there are no intervals.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Load, counts, and work units over one grid, built in a single pass over
/// the spans and kept as raw integer-microsecond accumulators.
///
/// Holding the integers (instead of materialized `f64` series) is what
/// makes [`SeriesSet::coarsen`] exact: a coarse interval's accumulator is
/// the *sum* of its nested fine accumulators, and the one `f64` division
/// happens only at materialization — so a coarsened series is bit-for-bit
/// the series that [`SeriesSet::from_spans`] would compute directly on the
/// coarse grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSet {
    window: Window,
    overlap_us: Vec<u64>,
    counts: Vec<u32>,
    service_us: Vec<u64>,
    work_unit: SimDuration,
}

impl SeriesSet {
    /// Builds load and throughput accumulators in one pass over `spans`
    /// (`O(spans + intervals)`), sharing the span decode and branch
    /// predictor between the two updates.
    ///
    /// # Panics
    ///
    /// Panics if `work_unit` is zero.
    pub fn from_spans(
        spans: &[Span],
        window: Window,
        services: &ServiceTimeTable,
        work_unit: SimDuration,
    ) -> SeriesSet {
        fgbd_obsv::span!("series");
        fgbd_obsv::counter!("series.spans", spans.len() as u64);
        fgbd_obsv::counter!("series.intervals", window.len() as u64);
        SeriesSet::sweep(spans, window, Some(services), work_unit)
    }

    /// Adds every span to a ring over all of `window`, then pops the whole
    /// grid. Without `services` (load only) completions carry no service
    /// time.
    fn sweep(
        spans: &[Span],
        window: Window,
        services: Option<&ServiceTimeTable>,
        work_unit: SimDuration,
    ) -> SeriesSet {
        assert!(!work_unit.is_zero(), "work unit must be positive");
        let wu_us = work_unit.as_micros();
        let mut ring = IntervalRing::bounded(window);
        let mut cache = ServiceCache::default();
        for s in spans {
            ring.add(s.arrival.as_micros(), s.departure.as_micros(), || {
                services.map_or(0, |t| {
                    cache.service_us(t, s.server, s.class, s.residence().as_micros(), wu_us)
                })
            });
        }
        SeriesSet::from_pops(window, work_unit, (0..window.len()).map(|_| ring.pop()))
    }

    /// The set over `window` from its intervals' `IntervalRing::pop`
    /// triples, in grid order: the batch sweep's and the online detector's
    /// retained intervals alike.
    pub(crate) fn from_pops(
        window: Window,
        work_unit: SimDuration,
        pops: impl IntoIterator<Item = (u64, u32, u64)>,
    ) -> SeriesSet {
        let n = window.len();
        let mut set = SeriesSet {
            window,
            overlap_us: Vec::with_capacity(n),
            counts: Vec::with_capacity(n),
            service_us: Vec::with_capacity(n),
            work_unit,
        };
        for (overlap_us, count, service_us) in pops.into_iter().take(n) {
            set.overlap_us.push(overlap_us);
            set.counts.push(count);
            set.service_us.push(service_us);
        }
        set
    }

    /// The grid this set lives on.
    pub fn window(&self) -> Window {
        self.window
    }

    /// `(load, units, rate)` of every interval.
    fn samples(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let (interval, wu_us) = (self.window.interval, self.work_unit.as_micros());
        self.overlap_us
            .iter()
            .zip(&self.service_us)
            .map(move |(&o, &s)| materialize(o, s, interval, wu_us))
    }

    /// Materializes the load series.
    pub fn load(&self) -> LoadSeries {
        LoadSeries {
            window: self.window,
            values: self.samples().map(|(load, _, _)| load).collect(),
        }
    }

    /// Materializes the throughput series.
    pub fn tput(&self) -> ThroughputSeries {
        ThroughputSeries {
            window: self.window,
            counts: self.counts.clone(),
            units: self.samples().map(|(_, units, _)| units).collect(),
            work_unit_s: self.work_unit.as_secs_f64(),
        }
    }

    /// Derives the set for the grid with `factor`-times-longer intervals by
    /// exact integer aggregation: coarse interval `j` sums fine intervals
    /// `[j·factor, (j+1)·factor)`. Bit-for-bit equal to building the coarse
    /// grid from the spans directly, at `O(intervals)` instead of
    /// `O(spans + intervals)`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn coarsen(&self, factor: usize) -> SeriesSet {
        assert!(factor > 0, "coarsening factor must be positive");
        let coarse_window = Window {
            start: self.window.start,
            end: self.window.end,
            interval: self.window.interval * factor as u64,
        };
        // Floor division nests: len(k·i) == len(i) / k, so every coarse
        // interval is exactly `factor` fine intervals.
        let n = coarse_window.len();
        debug_assert_eq!(n, self.overlap_us.len() / factor);
        let sum_chunk = |v: &[u64]| -> Vec<u64> {
            v.chunks_exact(factor)
                .take(n)
                .map(|c| c.iter().sum())
                .collect()
        };
        SeriesSet {
            window: coarse_window,
            overlap_us: sum_chunk(&self.overlap_us),
            counts: self
                .counts
                .chunks_exact(factor)
                .take(n)
                .map(|c| c.iter().sum())
                .collect(),
            service_us: sum_chunk(&self.service_us),
            work_unit: self.work_unit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbd_trace::{ClassId, ConnId};

    fn span(a_us: u64, d_us: u64, class: u16) -> Span {
        Span {
            server: NodeId(1),
            class: ClassId(class),
            arrival: SimTime::from_micros(a_us),
            departure: SimTime::from_micros(d_us),
            conn: ConnId(0),
            truth: None,
        }
    }

    fn win(end_ms: u64, interval_ms: u64) -> Window {
        Window::new(
            SimTime::ZERO,
            SimTime::from_millis(end_ms),
            SimDuration::from_millis(interval_ms),
        )
    }

    #[test]
    fn window_geometry() {
        let w = win(200, 50);
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        assert_eq!(w.bounds(2).0, SimTime::from_millis(100));
        assert_eq!(w.bounds(2).1, SimTime::from_millis(150));
        assert!((w.mid_secs(0) - 0.025).abs() < 1e-12);
        assert_eq!(w.grid_end(), SimTime::from_millis(200));
        // Partial trailing interval: grid_end stops at the last whole one.
        let w2 = Window::new(
            SimTime::ZERO,
            SimTime::from_millis(230),
            SimDuration::from_millis(50),
        );
        assert_eq!(w2.len(), 4);
        assert_eq!(w2.grid_end(), SimTime::from_millis(200));
    }

    /// The paper's Fig 6 scenario: requests overlapping two 100 ms
    /// intervals; load is the time-weighted average concurrency.
    #[test]
    fn load_matches_hand_computation() {
        let w = win(200, 100);
        // One request covering all of interval 0 -> load 1.0 there.
        // One covering half of interval 0 -> +0.5.
        // One covering the whole window -> +1 in both.
        let spans = vec![
            span(0, 100_000, 0),
            span(50_000, 100_000, 0),
            span(0, 200_000, 0),
        ];
        let load = LoadSeries::from_spans(&spans, w);
        assert!((load.get(0) - 2.5).abs() < 1e-9);
        assert!((load.get(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn load_integral_equals_total_residence() {
        // Sum(load_i * interval) == total residence inside the window.
        let w = win(500, 50);
        let spans = vec![
            span(10_000, 230_000, 0),
            span(100_000, 130_000, 1),
            span(400_000, 499_999, 0),
            span(0, 500_000, 2),
        ];
        let load = LoadSeries::from_spans(&spans, w);
        let integral: f64 = load.values().iter().map(|v| v * 0.05).sum();
        let residence: f64 = spans
            .iter()
            .map(|s| (s.departure.min(w.end) - s.arrival.max(w.start)).as_secs_f64())
            .sum();
        assert!((integral - residence).abs() < 1e-9);
    }

    #[test]
    fn load_ignores_spans_outside_window() {
        let w = win(100, 50);
        let spans = vec![span(200_000, 300_000, 0)];
        let load = LoadSeries::from_spans(&spans, w);
        assert!(load.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_length_spans_contribute_nothing() {
        let w = win(100, 50);
        let spans = vec![
            span(30_000, 30_000, 0),
            span(0, 0, 0),
            span(50_000, 50_000, 0),
        ];
        let load = LoadSeries::from_spans(&spans, w);
        assert!(load.values().iter().all(|&v| v == 0.0));
    }

    /// Pops `n` intervals.
    fn pop_n(ring: &mut IntervalRing, n: usize) -> Vec<(u64, u32, u64)> {
        (0..n).map(|_| ring.pop()).collect()
    }

    #[test]
    fn ring_clamp_at_a_known_end_matches_the_reference_and_the_open_ended_prefix() {
        // 230 ms window, 50 ms cells: grid end at 200 ms. Spans leaving the
        // grid, one ending exactly on it, one entirely past it.
        let w = win(230, 50);
        let spans = vec![
            span(120_000, 420_000, 0),
            span(30_000, 200_000, 0),
            span(10_000, 199_999, 0),
            span(199_999, 200_001, 0),
            span(205_000, 900_000, 0),
        ];
        let mut bounded = IntervalRing::bounded(w);
        let mut open = IntervalRing::open_ended(w.start, w.interval);
        for s in &spans {
            bounded.add(s.arrival.as_micros(), s.departure.as_micros(), || 7);
            open.add(s.arrival.as_micros(), s.departure.as_micros(), || 7);
        }
        assert_eq!(bounded.len(), w.len(), "a bounded ring never grows");
        let cells = pop_n(&mut bounded, w.len());
        assert_eq!(cells, pop_n(&mut open, w.len()));
        // Each cell's overlap against a naive span-by-cell walk.
        for (i, &(overlap_us, _, _)) in cells.iter().enumerate() {
            let (from, to) = w.bounds(i);
            let naive: u64 = spans
                .iter()
                .map(|s| {
                    let (a, d) = (s.arrival.max(from), s.departure.min(to));
                    if d > a {
                        (d - a).as_micros()
                    } else {
                        0
                    }
                })
                .sum();
            assert_eq!(overlap_us, naive, "interval {i}");
        }
        // Only the span departing before the grid end completes in it.
        assert_eq!(cells.iter().map(|c| c.1).sum::<u32>(), 1);
        assert_eq!(cells[3], (50_000 + 50_000 + 49_999 + 1, 1, 7));
    }

    #[test]
    fn ring_pops_past_its_cells_and_adds_relative_to_the_new_base() {
        let mut ring = IntervalRing::open_ended(SimTime::ZERO, SimDuration::from_millis(50));
        // Nothing added yet: an empty interval, and the grid still advances.
        assert_eq!(ring.pop(), (0, 0, 0));
        assert_eq!((ring.base(), ring.len()), (1, 0));
        // Covers all of intervals 2 and 3 through the difference array.
        ring.add(60_000, 210_000, || 9);
        assert_eq!(ring.len(), 4, "cells for intervals 1..=4");
        assert_eq!(
            pop_n(&mut ring, 4),
            [
                (40_000, 0, 0),
                (50_000, 0, 0),
                (50_000, 0, 0),
                (10_000, 1, 9)
            ]
        );
        // The covering prefix is back to zero once the span's last cell is
        // popped, so popping the now-empty ring yields an empty interval.
        assert_eq!(ring.pop(), (0, 0, 0));
        assert_eq!((ring.base(), ring.len()), (6, 0));
        ring.add(300_000, 310_000, || 3);
        assert_eq!(ring.pop(), (10_000, 1, 3));
    }

    #[test]
    fn ring_clamps_an_arrival_before_the_grid_start() {
        let start = SimTime::from_millis(100);
        let mut ring = IntervalRing::open_ended(start, SimDuration::from_millis(50));
        ring.add(0, 130_000, || 5); // resident 30 ms inside the grid
        ring.add(0, 99_999, || 5); // gone before the grid starts
        ring.add(40_000, 100_000, || 5); // departs on the start: completes in cell 0
        assert_eq!(ring.pop(), (30_000, 2, 10));
        assert_eq!(ring.len(), 0);
    }

    /// The paper's Fig 7 example: Req1 (30 ms service) = 3 work units,
    /// Req2 (10 ms) = 1 unit, with a 10 ms work unit and 100 ms intervals.
    #[test]
    fn fig7_normalization_example() {
        let mut services = ServiceTimeTable::new();
        services.insert(NodeId(1), ClassId(1), SimDuration::from_millis(30));
        services.insert(NodeId(1), ClassId(2), SimDuration::from_millis(10));
        let w = win(300, 100);
        // TW0: one Req1 and three Req2 complete -> 3 + 3*1 = 6 units, 4 reqs.
        // TW1: one Req1 and one Req2 -> 4 units, 2 reqs.
        // TW2: four Req2 -> 4 units, 4 reqs.
        let spans = vec![
            span(0, 30_000, 1),
            span(30_000, 40_000, 2),
            span(40_000, 50_000, 2),
            span(50_000, 60_000, 2),
            span(60_000, 130_000, 1),
            span(130_000, 140_000, 2),
            span(200_000, 210_000, 2),
            span(210_000, 220_000, 2),
            span(220_000, 230_000, 2),
            span(230_000, 240_000, 2),
        ];
        let tput = ThroughputSeries::from_spans(&spans, w, &services, SimDuration::from_millis(10));
        assert_eq!(
            (tput.units(0), tput.units(1), tput.units(2)),
            (6.0, 4.0, 4.0)
        );
        assert_eq!((tput.count(0), tput.count(1), tput.count(2)), (4, 2, 4));
        // The paper's point: straightforward throughput varies (4,2,4) while
        // normalized units track the actual work (6,4,4).
        assert!((tput.unit_rate(0) - 60.0).abs() < 1e-9);
        // Equivalent-rate scaling: with mean service 20ms, 6 units/100ms ->
        // 6 * 10/20 / 0.1 = 30 eq-req/s.
        assert!((tput.equivalent_rate(0, SimDuration::from_millis(20)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn completions_fall_in_departure_interval() {
        let services = ServiceTimeTable::new();
        let w = win(100, 50);
        // Arrives in interval 0, departs in interval 1: counted in 1.
        let spans = vec![span(10_000, 60_000, 0)];
        let tput = ThroughputSeries::from_spans(&spans, w, &services, SimDuration::from_millis(10));
        assert_eq!(tput.count(0), 0);
        assert_eq!(tput.count(1), 1);
        // Unknown class falls back to capped residence: 50ms residence
        // capped at the 10ms work unit -> 1 unit.
        assert!((tput.units(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fallback_keeps_sub_work_unit_residence() {
        // A span of an uncalibrated class whose residence is *shorter* than
        // one work unit contributes that residence, not a whole unit: 4ms
        // residence with a 10ms work unit -> 0.4 units.
        let services = ServiceTimeTable::new();
        let w = win(100, 50);
        let spans = vec![span(10_000, 14_000, 0)];
        let tput = ThroughputSeries::from_spans(&spans, w, &services, SimDuration::from_millis(10));
        assert_eq!(tput.count(0), 1);
        assert!(
            (tput.units(0) - 0.4).abs() < 1e-12,
            "units {}",
            tput.units(0)
        );
    }

    #[test]
    fn work_conservation_across_grids() {
        // Total units are identical no matter the interval length.
        let mut services = ServiceTimeTable::new();
        services.insert(NodeId(1), ClassId(1), SimDuration::from_millis(12));
        let spans: Vec<Span> = (0..50)
            .map(|i| span(i * 7_000, i * 7_000 + 12_000, 1))
            .collect();
        let total = |interval_ms: u64| -> f64 {
            let w = win(1_000, interval_ms);
            let t = ThroughputSeries::from_spans(&spans, w, &services, SimDuration::from_millis(4));
            (0..t.len()).map(|i| t.units(i)).sum()
        };
        let t20 = total(20);
        let t50 = total(50);
        let t1000 = total(1000);
        assert!((t20 - t50).abs() < 1e-9);
        assert!((t50 - t1000).abs() < 1e-9);
    }

    #[test]
    fn fused_set_matches_individual_constructors() {
        let mut services = ServiceTimeTable::new();
        services.insert(NodeId(1), ClassId(1), SimDuration::from_millis(12));
        let spans: Vec<Span> = (0..200)
            .map(|i| {
                span(
                    i * 3_100,
                    i * 3_100 + 9_000 + (i % 7) * 2_000,
                    (i % 3) as u16,
                )
            })
            .collect();
        let w = win(700, 50);
        let wu = SimDuration::from_millis(4);
        let set = SeriesSet::from_spans(&spans, w, &services, wu);
        let load = LoadSeries::from_spans(&spans, w);
        let tput = ThroughputSeries::from_spans(&spans, w, &services, wu);
        assert_eq!(set.load(), load);
        assert_eq!(set.tput(), tput);
        assert_eq!(set.window(), w);
    }

    #[test]
    fn coarsen_is_bit_identical_to_direct() {
        let mut services = ServiceTimeTable::new();
        services.insert(NodeId(1), ClassId(0), SimDuration::from_millis(6));
        services.insert(NodeId(1), ClassId(1), SimDuration::from_millis(18));
        let spans: Vec<Span> = (0..300)
            .map(|i| {
                span(
                    i * 2_700,
                    i * 2_700 + 4_000 + (i % 11) * 3_000,
                    (i % 2) as u16,
                )
            })
            .collect();
        // 830ms window: 83 fine 10ms intervals, 16 coarse 50ms intervals —
        // deliberately not a multiple so the tail-drop paths are exercised.
        let fine_w = win(830, 10);
        let wu = SimDuration::from_millis(6);
        let fine = SeriesSet::from_spans(&spans, fine_w, &services, wu);
        let coarse = fine.coarsen(5);
        let direct = SeriesSet::from_spans(&spans, coarse.window(), &services, wu);
        assert_eq!(coarse, direct);
        let (cl, dl) = (coarse.load(), direct.load());
        for i in 0..cl.len() {
            assert_eq!(cl.get(i).to_bits(), dl.get(i).to_bits());
        }
        let (ct, dt) = (coarse.tput(), direct.tput());
        for i in 0..ct.len() {
            assert_eq!(ct.units(i).to_bits(), dt.units(i).to_bits());
            assert_eq!(ct.count(i), dt.count(i));
        }
    }
}
