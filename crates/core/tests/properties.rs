//! Property-based tests of the analysis invariants.

use fgbd_core::detect::{classify_values, DetectorConfig};
use fgbd_core::nstar::{self, NStarConfig};
use fgbd_core::plateau::{find_plateaus, PlateauConfig};
use fgbd_core::series::{LoadSeries, SeriesSet, ThroughputSeries, Window};
use fgbd_des::{SimDuration, SimTime};
use fgbd_oracle::series as reference;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{ClassId, ConnId, NodeId, Span};
use proptest::prelude::*;

fn spans_strategy() -> impl Strategy<Value = Vec<Span>> {
    prop::collection::vec((0u64..2_000_000, 1u64..400_000, 0u16..4), 1..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(a, dur, class)| Span {
                server: NodeId(1),
                class: ClassId(class),
                arrival: SimTime::from_micros(a),
                departure: SimTime::from_micros(a + dur),
                conn: ConnId(0),
                truth: None,
            })
            .collect()
    })
}

/// Spans that may be zero-length, straddle the window edges, or carry a
/// class the service table has never seen (exercising the residence
/// fallback of `ThroughputSeries`).
fn awkward_spans_strategy() -> impl Strategy<Value = Vec<Span>> {
    prop::collection::vec((0u64..2_000_000, 0u64..400_000, 0u16..6), 0..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(a, dur, class)| Span {
                server: NodeId(1),
                class: ClassId(class),
                arrival: SimTime::from_micros(a),
                departure: SimTime::from_micros(a + dur),
                conn: ConnId(0),
                truth: None,
            })
            .collect()
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn window() -> Window {
    Window::new(
        SimTime::ZERO,
        SimTime::from_millis(2_500),
        SimDuration::from_millis(50),
    )
}

fn services() -> ServiceTimeTable {
    let mut t = ServiceTimeTable::new();
    for c in 0..4 {
        t.insert(
            NodeId(1),
            ClassId(c),
            SimDuration::from_millis(10 * (u64::from(c) + 1)),
        );
    }
    t
}

/// Nearest-rank percentile by its definition: the element at rank
/// `round((n − 1)·q)` of a stably sorted copy.
fn sorted_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v.get(((v.len().max(1) - 1) as f64 * q).round() as usize)
        .copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Selection finds the bits the sorted copy holds at the rank, ties
    /// (signed zeros among them) included.
    #[test]
    fn percentile_selects_what_the_sorted_copy_holds(
        picks in prop::collection::vec(0usize..9, 0..300),
        q in 0.0f64..1.0,
        edge in 0u8..3,
    ) {
        const VALUES: [f64; 9] = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.0e-300, 7.0, 1.0e300];
        let xs: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
        let q = match edge {
            0 => 0.0,
            1 => 1.0,
            _ => q,
        };
        let got = fgbd_core::stats::percentile(&xs, q).map(f64::to_bits);
        prop_assert_eq!(got, sorted_percentile(&xs, q).map(f64::to_bits));
    }
}

proptest! {
    /// The load integral over the window equals total clipped residence.
    #[test]
    fn load_integral_is_residence(spans in spans_strategy()) {
        let w = window();
        let load = LoadSeries::from_spans(&spans, w);
        let integral: f64 = load
            .values()
            .iter()
            .map(|v| v * w.interval.as_secs_f64())
            .sum();
        let residence: f64 = spans
            .iter()
            .filter(|s| s.overlaps(w.start, w.end))
            .map(|s| {
                (s.departure.min(w.end) - s.arrival.max(w.start)).as_secs_f64()
            })
            .sum();
        prop_assert!((integral - residence).abs() < 1e-6,
            "integral {} vs residence {}", integral, residence);
    }

    /// Load is never negative and never exceeds the span count.
    #[test]
    fn load_bounds(spans in spans_strategy()) {
        let load = LoadSeries::from_spans(&spans, window());
        for &v in load.values() {
            prop_assert!(v >= 0.0);
            prop_assert!(v <= spans.len() as f64 + 1e-9);
        }
    }

    /// Total normalized work units are invariant to the grid resolution,
    /// and total counts equal the spans departing inside the window.
    #[test]
    fn throughput_conservation(spans in spans_strategy(), interval_ms in 10u64..500) {
        let coarse = Window::new(
            SimTime::ZERO,
            SimTime::from_millis(2_500),
            SimDuration::from_millis(interval_ms),
        );
        // Clip to whole-interval coverage so both grids see the same spans;
        // a 1 ms fine grid divides any whole-ms coverage exactly.
        let covered = SimTime::ZERO
            + coarse.interval * coarse.len() as u64;
        let fine = Window::new(SimTime::ZERO, covered, SimDuration::from_millis(1));
        let svc = services();
        let wu = SimDuration::from_millis(10);
        let a = ThroughputSeries::from_spans(&spans, coarse, &svc, wu);
        let b = ThroughputSeries::from_spans(&spans, fine, &svc, wu);
        let ua: f64 = (0..a.len()).map(|i| a.units(i)).sum();
        let ub: f64 = (0..b.len()).map(|i| b.units(i)).sum();
        prop_assert!((ua - ub).abs() < 1e-6, "{} vs {}", ua, ub);
        let ca: u32 = (0..a.len()).map(|i| a.count(i)).sum();
        let expected = spans
            .iter()
            .filter(|s| s.departure >= SimTime::ZERO && s.departure < covered)
            .count() as u32;
        prop_assert_eq!(ca, expected);
    }

    /// N* always lies inside the observed positive-load range, and TP_max
    /// never exceeds the maximum observed throughput.
    #[test]
    fn nstar_in_range(
        seedish in 1u64..500,
        knee in 2.0f64..30.0,
        ceil in 100.0f64..10_000.0,
    ) {
        let n = 2_000;
        let mut loads = Vec::with_capacity(n);
        let mut tputs = Vec::with_capacity(n);
        for i in 0..n {
            let ld = 60.0 * ((i as u64 * seedish * 2_654_435_761) % 1_000) as f64 / 1_000.0 + 0.01;
            let tp = if ld < knee { ceil * ld / knee } else { ceil };
            loads.push(ld);
            tputs.push(tp);
        }
        if let Some(est) = nstar::estimate(&loads, &tputs, &NStarConfig::default()) {
            let lmax = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est.nstar > 0.0 && est.nstar <= lmax);
            let tmax = tputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est.tp_max <= tmax * 1.001);
            prop_assert!(est.knee_index < est.curve.len());
        }
    }

    /// Classification is total and consistent with the congestion point.
    #[test]
    fn classification_consistency(spans in spans_strategy()) {
        let w = window();
        let cfg = DetectorConfig::default();
        let load = LoadSeries::from_spans(&spans, w);
        let tput = ThroughputSeries::from_spans(
            &spans, w, &services(), SimDuration::from_millis(10));
        let rates = tput.unit_rates();
        let est = nstar::estimate(load.values(), &rates, &cfg.nstar);
        let states = classify_values(load.values(), &rates, est.as_ref(), &cfg);
        prop_assert_eq!(states.len(), load.len());
        if let Some(est) = est {
            for (i, s) in states.iter().enumerate() {
                use fgbd_core::detect::IntervalState::*;
                match s {
                    Congested | Frozen => prop_assert!(load.get(i) > est.nstar),
                    Normal => prop_assert!(load.get(i) <= est.nstar
                        || load.get(i) < cfg.idle_load),
                    Idle => prop_assert!(load.get(i) < cfg.idle_load),
                }
            }
        }
    }

    /// The O(S+I) sweep-line builders agree **bit-for-bit** with the naive
    /// per-interval reference on arbitrary grids — including zero-length
    /// spans, spans straddling the window edges, partial trailing coverage
    /// (non-round intervals), and classes missing from the service table.
    #[test]
    fn sweep_matches_reference_bitwise(
        spans in awkward_spans_strategy(),
        start_ms in 0u64..100,
        interval_us in 500u64..120_000,
    ) {
        let w = Window::new(
            SimTime::from_millis(start_ms),
            SimTime::from_millis(2_500),
            SimDuration::from_micros(interval_us),
        );
        let svc = services();
        let wu = SimDuration::from_millis(10);
        let load = LoadSeries::from_spans(&spans, w);
        let load_ref = reference::load_series(&spans, w);
        prop_assert_eq!(bits(load.values()), bits(&load_ref));
        let tput = ThroughputSeries::from_spans(&spans, w, &svc, wu);
        let (counts_ref, units_ref) = reference::throughput_series(&spans, w, &svc, wu);
        prop_assert_eq!(tput.len(), counts_ref.len());
        for i in 0..tput.len() {
            prop_assert_eq!(tput.count(i), counts_ref[i]);
            prop_assert_eq!(tput.units(i).to_bits(), units_ref[i].to_bits());
        }
    }

    /// Aggregating the finest grid by an integer factor is bit-identical
    /// to building the coarse grid from the spans directly — the invariant
    /// `auto_interval` relies on to score every candidate on the finest
    /// grid's series.
    #[test]
    fn coarsening_equals_direct_build(
        spans in awkward_spans_strategy(),
        factor in 1usize..8,
    ) {
        let svc = services();
        let wu = SimDuration::from_millis(10);
        let end = SimTime::from_millis(2_500);
        let fine = SeriesSet::from_spans(
            &spans,
            Window::new(SimTime::ZERO, end, SimDuration::from_millis(10)),
            &svc,
            wu,
        );
        let coarse = fine.coarsen(factor);
        let direct = SeriesSet::from_spans(
            &spans,
            Window::new(SimTime::ZERO, end, SimDuration::from_millis(10 * factor as u64)),
            &svc,
            wu,
        );
        prop_assert_eq!(coarse.window(), direct.window());
        prop_assert_eq!(bits(coarse.load().values()), bits(direct.load().values()));
        let (ct, dt) = (coarse.tput(), direct.tput());
        prop_assert_eq!(ct.len(), dt.len());
        for i in 0..ct.len() {
            prop_assert_eq!(ct.count(i), dt.count(i));
            prop_assert_eq!(ct.units(i).to_bits(), dt.units(i).to_bits());
        }
    }

    /// With no calibrated service times at all, every completion falls
    /// back to its residence capped at one work unit, so total units equal
    /// the capped residence of the spans departing inside the grid.
    #[test]
    fn residence_fallback_is_capped(spans in awkward_spans_strategy()) {
        let w = window();
        let wu = SimDuration::from_millis(10);
        let empty = ServiceTimeTable::new();
        let tput = ThroughputSeries::from_spans(&spans, w, &empty, wu);
        let total: f64 = (0..tput.len()).map(|i| tput.units(i)).sum();
        let expected: f64 = spans
            .iter()
            .filter(|s| s.departure >= w.start && s.departure < w.grid_end())
            .map(|s| {
                let capped = s.residence().as_micros().min(wu.as_micros());
                capped as f64 / wu.as_micros() as f64
            })
            .sum();
        prop_assert!((total - expected).abs() < 1e-9,
            "total {} vs expected {}", total, expected);
    }

    /// Plateau shares always sum to ~1 and levels stay inside the data
    /// range.
    #[test]
    fn plateau_invariants(values in prop::collection::vec(10.0f64..10_000.0, 8..400)) {
        let ps = find_plateaus(&values, &PlateauConfig::default());
        if ps.is_empty() {
            return Ok(());
        }
        let share: f64 = ps.iter().map(|p| p.share).sum();
        prop_assert!(share <= 1.0 + 1e-9);
        // Every surviving plateau respects the share floor.
        for p in &ps {
            prop_assert!(p.share >= PlateauConfig::default().min_share - 1e-9);
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in &ps {
            prop_assert!(p.level >= lo - 1e-9 && p.level <= hi + 1e-9);
        }
        // Ascending levels.
        for w in ps.windows(2) {
            prop_assert!(w[0].level < w[1].level);
        }
    }
}
