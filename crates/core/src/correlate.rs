//! Interval-aligned correlation utilities — the evidence plots of Fig 10:
//! Tomcat's GC running ratio correlates with its load (10a), and its load
//! correlates with system response time (10b).

use fgbd_des::SimTime;

use crate::series::Window;
pub use crate::stats::{lagged_pearson, pearson};

/// Averages a point process of `(time, value)` events per interval of
/// `window`; intervals with no events get `f64::NAN`.
///
/// Used to put end-to-end response-time samples (one per finished
/// transaction) on the same grid as a load series.
pub fn mean_per_interval(events: &[(SimTime, f64)], window: &Window) -> Vec<f64> {
    let n = window.len();
    let mut sum = vec![0.0f64; n];
    let mut cnt = vec![0u32; n];
    let ilen = window.interval.as_micros();
    for &(at, v) in events {
        if at < window.start || at >= window.end {
            continue;
        }
        let i = ((at - window.start).as_micros() / ilen) as usize;
        if i < n {
            sum[i] += v;
            cnt[i] += 1;
        }
    }
    (0..n)
        .map(|i| {
            if cnt[i] == 0 {
                f64::NAN
            } else {
                sum[i] / f64::from(cnt[i])
            }
        })
        .collect()
}

/// Pearson correlation over interval pairs where **both** series are
/// finite — response-time series contain NaN for empty intervals, which
/// plain [`pearson`] would poison.
pub fn finite_pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "series length mismatch");
    let pairs: (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    pearson(&pairs.0, &pairs.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbd_des::SimDuration;

    fn window() -> Window {
        Window::new(
            SimTime::ZERO,
            SimTime::from_millis(200),
            SimDuration::from_millis(50),
        )
    }

    #[test]
    fn mean_per_interval_averages_and_marks_gaps() {
        let events = vec![
            (SimTime::from_millis(10), 1.0),
            (SimTime::from_millis(20), 3.0),
            (SimTime::from_millis(60), 5.0),
            (SimTime::from_millis(210), 9.0), // outside window
        ];
        let m = mean_per_interval(&events, &window());
        assert_eq!(m.len(), 4);
        assert!((m[0] - 2.0).abs() < 1e-12);
        assert!((m[1] - 5.0).abs() < 1e-12);
        assert!(m[2].is_nan());
        assert!(m[3].is_nan());
    }

    #[test]
    fn finite_pearson_skips_nan_intervals() {
        let xs = vec![1.0, 2.0, f64::NAN, 4.0, 5.0];
        let ys = vec![2.0, 4.0, 100.0, 8.0, 10.0];
        let r = finite_pearson(&xs, &ys).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        // Symmetric: NaN on the other side too.
        let r2 = finite_pearson(&ys, &xs).unwrap();
        assert!((r2 - 1.0).abs() < 1e-12);
        // Too few finite pairs.
        assert_eq!(finite_pearson(&[f64::NAN, 1.0], &[1.0, f64::NAN]), None);
    }
}
