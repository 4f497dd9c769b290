//! Straightforward `O(spans × intervals)` constructions of the load and
//! throughput series: the executable specification `fgbd_core::series`'s
//! sweep-line engine is tested against. Accumulation is in integer
//! microseconds with one final division per interval, written out here
//! rather than shared with the engine, so agreement is bit-for-bit and
//! independent.

use fgbd_core::series::Window;
use fgbd_des::SimDuration;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::Span;

/// Per-interval load (time-weighted concurrent requests) by a naive
/// per-span interval walk.
pub fn load_series(spans: &[Span], window: Window) -> Vec<f64> {
    let mut overlap_us = vec![0u64; window.len()];
    let start_us = window.start.as_micros();
    let grid_end_us = window.grid_end().as_micros();
    let ilen_us = window.interval.as_micros();
    for s in spans {
        let a = s.arrival.as_micros().max(start_us);
        let d = s.departure.as_micros().min(grid_end_us);
        if d <= a {
            continue;
        }
        let first = ((a - start_us) / ilen_us) as usize;
        let last = ((d - start_us - 1) / ilen_us) as usize;
        for (i, v) in overlap_us.iter_mut().enumerate().take(last + 1).skip(first) {
            let from = start_us + ilen_us * i as u64;
            let to = from + ilen_us;
            let ov_from = a.max(from);
            let ov_to = d.min(to);
            if ov_to > ov_from {
                *v += ov_to - ov_from;
            }
        }
    }
    overlap_us
        .iter()
        .map(|&o| o as f64 / ilen_us as f64)
        .collect()
}

/// Per-interval completion counts and normalized work units, one span at
/// a time. A class with no service estimate contributes its residence
/// capped at one work unit, as `ThroughputSeries::from_spans` documents.
///
/// # Panics
///
/// Panics if `work_unit` is zero.
pub fn throughput_series(
    spans: &[Span],
    window: Window,
    services: &ServiceTimeTable,
    work_unit: SimDuration,
) -> (Vec<u32>, Vec<f64>) {
    assert!(!work_unit.is_zero(), "work unit must be positive");
    let n = window.len();
    let mut counts = vec![0u32; n];
    let mut service_us = vec![0u64; n];
    let start_us = window.start.as_micros();
    let grid_end_us = window.grid_end().as_micros();
    let ilen_us = window.interval.as_micros();
    let wu_us = work_unit.as_micros();
    for s in spans {
        let dep = s.departure.as_micros();
        if dep < start_us || dep >= grid_end_us {
            continue;
        }
        let i = ((dep - start_us) / ilen_us) as usize;
        counts[i] += 1;
        service_us[i] += services
            .get(s.server, s.class)
            .map(|d| d.as_micros())
            .unwrap_or_else(|| s.residence().as_micros().min(wu_us));
    }
    let units = service_us
        .iter()
        .map(|&s| s as f64 / wu_us as f64)
        .collect();
    (counts, units)
}

#[cfg(test)]
mod tests {
    use fgbd_core::series::LoadSeries;
    use fgbd_des::SimTime;
    use fgbd_trace::{ClassId, ConnId, NodeId};

    use super::*;

    /// The sweep against the reference on hand-picked edge cases: spans
    /// straddling the window start, the grid end, covering everything, inside
    /// one interval, zero-length, and 2 µs across an interval edge.
    #[test]
    fn sweep_matches_reference_on_straddlers() {
        let w = Window::new(
            SimTime::from_millis(100),
            SimTime::from_millis(430),
            SimDuration::from_millis(50),
        );
        let spans: Vec<Span> = [
            (0, 150_000, 0),       // straddles window start
            (390_000, 500_000, 1), // straddles grid_end (400ms) and end
            (0, 1_000_000, 2),     // covers everything
            (210_000, 215_000, 0), // inside one interval
            (250_000, 250_000, 1), // zero length
            (199_999, 200_001, 0), // 2us straddling an interval edge
        ]
        .into_iter()
        .map(|(a_us, d_us, class)| Span {
            server: NodeId(1),
            class: ClassId(class),
            arrival: SimTime::from_micros(a_us),
            departure: SimTime::from_micros(d_us),
            conn: ConnId(0),
            truth: None,
        })
        .collect();
        let fast = LoadSeries::from_spans(&spans, w);
        let slow = load_series(&spans, w);
        for (i, slow) in slow.iter().enumerate() {
            assert_eq!(fast.get(i).to_bits(), slow.to_bits(), "interval {i}");
        }
        assert_eq!(fast.len(), slow.len());
    }
}
