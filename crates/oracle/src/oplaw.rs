//! Operational-law validation (Denning & Buzen, the paper's reference \[9\]).
//!
//! The detection method rests on operational analysis: a server's
//! throughput grows with load until the bottleneck resource saturates
//! (Utilization Law), and load, throughput, and residence time are tied by
//! Little's Law (`L = X · R`). This module checks those identities directly
//! on measured spans, giving the end-to-end tests a consistency harness: if
//! Little's Law does not hold on a capture, the capture (or the clock that
//! produced it) is broken, not the server.

use fgbd_core::series::Window;
use fgbd_des::SimTime;
use fgbd_trace::Span;

/// The three operational quantities over one measurement window, computed
/// independently of each other from raw spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationalQuantities {
    /// Time-average number of requests in the server (`L`).
    pub mean_load: f64,
    /// Completion rate in requests per second (`X`).
    pub throughput: f64,
    /// Mean residence time in seconds of requests *completing* in the
    /// window (`R`).
    pub mean_residence: f64,
    /// Completions observed.
    pub completions: usize,
}

impl OperationalQuantities {
    /// Computes `L`, `X`, and `R` over `[from, to)` from spans.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`.
    pub fn measure(spans: &[Span], from: SimTime, to: SimTime) -> OperationalQuantities {
        assert!(to > from, "empty measurement window");
        let secs = (to - from).as_secs_f64();
        let mut residence_integral = 0.0;
        let mut completions = 0usize;
        let mut completed_residence = 0.0;
        for s in spans {
            if s.overlaps(from, to) {
                let a = s.arrival.max(from);
                let d = s.departure.min(to);
                residence_integral += (d - a).as_secs_f64();
            }
            if s.departure >= from && s.departure < to {
                completions += 1;
                completed_residence += s.residence().as_secs_f64();
            }
        }
        OperationalQuantities {
            mean_load: residence_integral / secs,
            throughput: completions as f64 / secs,
            mean_residence: if completions == 0 {
                0.0
            } else {
                completed_residence / completions as f64
            },
            completions,
        }
    }

    /// Little's Law residual `|L − X·R| / max(L, ε)` — near zero on a
    /// steady-state window, growing with boundary effects on short windows.
    pub fn littles_law_residual(&self) -> f64 {
        let lhs = self.mean_load;
        let rhs = self.throughput * self.mean_residence;
        (lhs - rhs).abs() / lhs.max(1e-9)
    }
}

/// A windowed Little's-Law audit over a whole capture: the fraction of
/// intervals whose residual exceeds `tolerance`.
///
/// Boundary effects make single 50 ms intervals noisy; audits are usually
/// run at 1 s+ granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct LittlesLawAudit {
    /// Per-interval residuals (NaN where the interval had no completions).
    pub residuals: Vec<f64>,
    /// Fraction of defined residuals above the tolerance.
    pub violation_fraction: f64,
    /// The tolerance used.
    pub tolerance: f64,
}

impl LittlesLawAudit {
    /// Audits `spans` over every interval of `window`.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive.
    pub fn run(spans: &[Span], window: &Window, tolerance: f64) -> LittlesLawAudit {
        assert!(tolerance > 0.0, "tolerance must be positive");
        let mut residuals = Vec::with_capacity(window.len());
        let mut defined = 0usize;
        let mut violations = 0usize;
        for i in 0..window.len() {
            let (from, to) = window.bounds(i);
            let q = OperationalQuantities::measure(spans, from, to);
            if q.completions == 0 || q.mean_load < 1e-9 {
                residuals.push(f64::NAN);
                continue;
            }
            let r = q.littles_law_residual();
            defined += 1;
            if r > tolerance {
                violations += 1;
            }
            residuals.push(r);
        }
        LittlesLawAudit {
            residuals,
            violation_fraction: if defined == 0 {
                0.0
            } else {
                violations as f64 / defined as f64
            },
            tolerance,
        }
    }
}

/// Utilization-Law cross-check: given a server's measured busy time and its
/// completions over a window, the implied mean service demand
/// `D = busy / completions`; the Utilization Law then predicts
/// `TP_max ≈ capacity / D`. Returns `(demand_seconds, predicted_tp_max)`.
///
/// Comparing `predicted_tp_max` against the N\* analysis's empirical
/// `TP_max` validates that the detected ceiling is the CPU and not an
/// artifact.
///
/// # Panics
///
/// Panics if `completions == 0` or any argument is non-positive.
pub fn utilization_law_ceiling(
    busy_core_seconds: f64,
    completions: u64,
    cores: u32,
    window_seconds: f64,
) -> (f64, f64) {
    assert!(completions > 0, "need completions to infer demand");
    assert!(
        busy_core_seconds >= 0.0 && window_seconds > 0.0 && cores > 0,
        "invalid utilization-law inputs"
    );
    let demand = busy_core_seconds / completions as f64;
    let tp_max = if demand > 0.0 {
        f64::from(cores) / demand
    } else {
        f64::INFINITY
    };
    (demand, tp_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbd_des::SimDuration;
    use fgbd_trace::{ClassId, ConnId, NodeId};

    fn span(a_us: u64, d_us: u64) -> Span {
        Span {
            server: NodeId(1),
            class: ClassId(0),
            arrival: SimTime::from_micros(a_us),
            departure: SimTime::from_micros(d_us),
            conn: ConnId(0),
            truth: None,
        }
    }

    /// A deterministic periodic workload entirely inside the window
    /// satisfies Little's Law exactly.
    #[test]
    fn littles_law_holds_exactly_for_contained_spans() {
        // 100 requests, each 10 ms, arriving every 20 ms: L = 0.5, X = 50/s,
        // R = 10 ms -> X*R = 0.5.
        let spans: Vec<Span> = (0..100)
            .map(|i| span(i * 20_000, i * 20_000 + 10_000))
            .collect();
        let q = OperationalQuantities::measure(&spans, SimTime::ZERO, SimTime::from_millis(2_000));
        assert!((q.mean_load - 0.5).abs() < 1e-9);
        assert!((q.throughput - 50.0).abs() < 1e-9);
        assert!((q.mean_residence - 0.010).abs() < 1e-12);
        assert!(q.littles_law_residual() < 1e-9);
    }

    #[test]
    fn boundary_spans_create_bounded_residuals() {
        // A single span half inside the window inflates L relative to X*R
        // (its completion falls outside) — the residual is defined and
        // positive but the quantities stay sane.
        let spans = vec![span(900_000, 1_100_000)];
        let q = OperationalQuantities::measure(&spans, SimTime::ZERO, SimTime::from_secs(1));
        assert!(q.mean_load > 0.0);
        assert_eq!(q.completions, 0);
        assert_eq!(q.mean_residence, 0.0);
    }

    #[test]
    fn audit_passes_on_steady_traffic() {
        let spans: Vec<Span> = (0..2_000)
            .map(|i| span(i * 5_000, i * 5_000 + 3_000))
            .collect();
        let window = Window::new(
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_secs(1),
        );
        let audit = LittlesLawAudit::run(&spans, &window, 0.05);
        assert_eq!(audit.residuals.len(), 10);
        assert!(
            audit.violation_fraction < 0.11,
            "violations {}",
            audit.violation_fraction
        );
    }

    #[test]
    fn audit_flags_corrupted_capture() {
        // Corrupt: departures before arrivals would panic earlier, so model
        // corruption as absurdly inflated residences (clock skew): spans
        // claim 10x residence vs their true overlap pattern.
        let mut spans: Vec<Span> = (0..200)
            .map(|i| span(i * 5_000, i * 5_000 + 3_000))
            .collect();
        // "Skewed" records: departure stamped 400 ms late.
        for s in spans.iter_mut().skip(100) {
            s.departure += SimDuration::from_millis(400);
        }
        let window = Window::new(
            SimTime::ZERO,
            SimTime::from_millis(1_500),
            SimDuration::from_millis(500),
        );
        let audit = LittlesLawAudit::run(&spans, &window, 0.05);
        // The skewed region violates the law.
        assert!(
            audit.violation_fraction > 0.3,
            "violations {}",
            audit.violation_fraction
        );
    }

    #[test]
    fn utilization_law_recovers_demand_and_ceiling() {
        // 1 core busy 0.8 of 10 s, 4,000 completions: D = 2 ms, TP_max 500/s.
        let (d, tp) = utilization_law_ceiling(8.0, 4_000, 1, 10.0);
        assert!((d - 0.002).abs() < 1e-12);
        assert!((tp - 500.0).abs() < 1e-9);
        // Two cores double the ceiling.
        let (_, tp2) = utilization_law_ceiling(8.0, 4_000, 2, 10.0);
        assert!((tp2 - 1_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "completions")]
    fn utilization_law_rejects_zero_completions() {
        utilization_law_ceiling(1.0, 0, 1, 1.0);
    }
}
