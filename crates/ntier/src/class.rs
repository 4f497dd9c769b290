//! Request classes and the RUBBoS-like workload mix.
//!
//! RUBBoS (the paper's benchmark, a Slashdot-style bulletin board) has 24
//! interaction types; the paper uses the *browse-only* mix. Each interaction
//! class differs in CPU demand per tier and in how many database round trips
//! it issues — exactly the mix-class heterogeneity that motivates the
//! paper's throughput normalization (§III-B).
//!
//! Demands are expressed in **megacycles** (MC): CPU work at a reference
//! clock, so a 2,261 MHz core retires 2,261 MC/s. The mix is *calibrated* so
//! its weighted means hit targets chosen to reproduce the paper's measured
//! operating point (Table I: Apache 34.6%, Tomcat 79.9%, C-JDBC 26.7%,
//! MySQL 78.1% CPU at workload 8,000).

use serde::{Deserialize, Serialize};

/// One interaction class of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestClass {
    /// Interaction name (RUBBoS nomenclature).
    pub name: String,
    /// Relative frequency in the active mix (zero = not used by this mix).
    pub weight: f64,
    /// Mean CPU demand at the web tier, megacycles.
    pub web_demand_mc: f64,
    /// Mean CPU demand at the application tier, megacycles.
    pub app_demand_mc: f64,
    /// Mean CPU demand at the clustering middleware per query, megacycles.
    pub mw_demand_mc: f64,
    /// Mean CPU demand at the database per query, megacycles.
    pub db_demand_mc: f64,
    /// Number of database round trips per interaction.
    pub queries: u32,
    /// Mean non-CPU wait (I/O, row fetch) per query at the database, seconds.
    pub db_wait_s: f64,
    /// Coefficient of variation of sampled demands (log-normal).
    pub demand_cv: f64,
}

/// A calibrated set of request classes with an active mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    classes: Vec<RequestClass>,
}

/// Calibration targets for the weighted means of a mix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixTargets {
    /// Weighted mean web-tier demand, MC.
    pub web_mc: f64,
    /// Weighted mean app-tier demand, MC.
    pub app_mc: f64,
    /// Weighted mean middleware demand per query, MC.
    pub mw_mc: f64,
    /// Weighted mean database demand per query, MC.
    pub db_mc: f64,
    /// Weighted mean queries per interaction.
    pub queries: f64,
    /// Weighted mean database wait per query, seconds.
    pub db_wait_s: f64,
}

impl MixTargets {
    /// The calibration used throughout the reproduction. At the reference
    /// clock of 2,261 MHz (Xeon P0 state) this yields, for the paper's
    /// 1L/2S/1L/2S topology:
    ///
    /// * Apache capacity ≈ 3,280 pages/s (2 cores / 1.379 MC)
    /// * Tomcat tier capacity ≈ 1,483 pages/s (2×1 core / 3.05 MC) — the
    ///   system-level bottleneck, saturating near workload 11,000 (Fig 2a)
    /// * C-JDBC capacity ≈ 21,280 queries/s
    /// * MySQL capacity ≈ 7,132 queries/s per node at P0, ≈ 5,035 at P5 and
    ///   ≈ 3,776 at P8 — near the paper's Fig 12 plateau levels of ~7,000 /
    ///   ~5,000 / ~3,700 req/s. At workload 8,000 the P8 state carries
    ///   ≈78% utilization (Table I) and survives all but the larger bursts;
    ///   by workload 10,000 its margin is gone, so bursts congest MySQL
    ///   deeply at P8 and the recovering queue drains visibly at the faster
    ///   clocks (§IV-C).
    pub fn paper_calibration() -> MixTargets {
        MixTargets {
            web_mc: 1.379,
            app_mc: 3.05,
            mw_mc: 0.2125,
            db_mc: 0.317,
            queries: 5.0,
            db_wait_s: 0.0013,
        }
    }
}

/// The 24 RUBBoS interactions: (name, browse-only weight, web/app/mw/db
/// demand shape multipliers, queries, db-wait multiplier).
///
/// Browse-only interactions carry positive weights; read/write-only
/// interactions carry zero weight in the browse mix but remain available via
/// [`WorkloadMix::read_write`].
#[allow(clippy::type_complexity)]
const RUBBOS_SHAPES: [(&str, f64, f64, [f64; 4], u32, f64); 24] = [
    // name, browse_w, rw_extra_w, [web, app, mw, db] shape, queries, wait
    ("StoriesOfTheDay", 20.0, 0.0, [1.0, 1.2, 1.0, 1.4], 3, 1.2),
    ("ViewStory", 16.0, 0.0, [1.0, 1.1, 1.0, 0.9], 6, 1.0),
    ("ViewComment", 12.0, 0.0, [0.8, 1.3, 1.0, 1.1], 7, 1.0),
    ("BrowseCategories", 8.0, 0.0, [0.9, 0.6, 1.0, 0.7], 2, 0.8),
    (
        "BrowseStoriesByCategory",
        10.0,
        0.0,
        [1.0, 0.9, 1.0, 1.2],
        5,
        1.1,
    ),
    ("OlderStories", 7.0, 0.0, [1.0, 0.8, 1.0, 1.3], 4, 1.2),
    ("SearchInStories", 6.0, 0.0, [1.1, 1.5, 1.0, 2.2], 5, 1.5),
    ("SearchInComments", 4.0, 0.0, [1.1, 1.6, 1.0, 2.5], 5, 1.6),
    ("SearchInUsers", 2.0, 0.0, [1.0, 0.7, 1.0, 1.1], 3, 0.9),
    ("ViewUserInfo", 5.0, 0.0, [0.9, 0.7, 1.0, 0.8], 4, 0.9),
    ("Home", 9.0, 0.0, [1.2, 0.9, 1.0, 0.8], 4, 0.9),
    ("MonthToDate", 1.0, 0.0, [1.0, 1.4, 1.0, 1.9], 8, 1.3),
    // Read/write-mix-only interactions (weight 0 in browse-only).
    ("SubmitStoryForm", 0.0, 2.0, [0.8, 0.4, 1.0, 0.0], 0, 0.0),
    ("SubmitStory", 0.0, 3.0, [1.0, 1.3, 1.0, 1.5], 5, 1.4),
    ("SubmitCommentForm", 0.0, 2.0, [0.8, 0.5, 1.0, 0.6], 2, 0.8),
    ("SubmitComment", 0.0, 4.0, [1.0, 1.2, 1.0, 1.4], 4, 1.3),
    ("ModerateStoryForm", 0.0, 1.0, [0.8, 0.5, 1.0, 0.7], 2, 0.8),
    ("ModerateStory", 0.0, 1.5, [1.0, 1.0, 1.0, 1.2], 3, 1.1),
    ("ReviewStories", 0.0, 2.0, [1.0, 1.1, 1.0, 1.3], 5, 1.1),
    ("AcceptStory", 0.0, 1.0, [1.0, 1.0, 1.0, 1.4], 4, 1.2),
    ("RejectStory", 0.0, 1.0, [0.9, 0.9, 1.0, 1.0], 3, 1.0),
    ("RegisterForm", 0.0, 0.5, [0.7, 0.3, 1.0, 0.0], 0, 0.0),
    ("Register", 0.0, 1.0, [0.9, 0.8, 1.0, 1.0], 3, 1.0),
    ("Author", 0.0, 1.5, [0.9, 0.8, 1.0, 0.9], 4, 1.0),
];

impl WorkloadMix {
    /// The browse-only RUBBoS mix used by all the paper's experiments,
    /// calibrated to `targets`.
    pub fn browse_only(targets: MixTargets) -> WorkloadMix {
        Self::build(targets, false)
    }

    /// The read/write RUBBoS mix (available as an extension; the paper uses
    /// browse-only).
    pub fn read_write(targets: MixTargets) -> WorkloadMix {
        Self::build(targets, true)
    }

    fn build(targets: MixTargets, read_write: bool) -> WorkloadMix {
        let mut classes: Vec<RequestClass> = RUBBOS_SHAPES
            .iter()
            .map(|&(name, bw, rw, [web, app, mw, db], queries, wait)| {
                let weight = if read_write { bw + rw } else { bw };
                RequestClass {
                    name: name.to_string(),
                    weight,
                    web_demand_mc: web,
                    app_demand_mc: app,
                    mw_demand_mc: mw,
                    db_demand_mc: db,
                    queries,
                    db_wait_s: wait,
                    demand_cv: 0.25,
                }
            })
            .collect();
        calibrate(&mut classes, targets);
        WorkloadMix { classes }
    }

    /// A single-class mix — handy for tests and the Fig 6/7 didactic
    /// harnesses.
    pub fn single(class: RequestClass) -> WorkloadMix {
        let mut class = class;
        class.weight = 1.0;
        WorkloadMix {
            classes: vec![class],
        }
    }

    /// All classes (including zero-weight ones).
    pub fn classes(&self) -> &[RequestClass] {
        &self.classes
    }

    /// The class with index `id`.
    pub fn class(&self, id: u16) -> &RequestClass {
        &self.classes[id as usize]
    }

    /// Mix weights, aligned with [`WorkloadMix::classes`].
    pub fn weights(&self) -> Vec<f64> {
        self.classes.iter().map(|c| c.weight).collect()
    }
}

/// Scales demand columns so the weighted means of active classes hit
/// `targets` exactly.
fn calibrate(classes: &mut [RequestClass], targets: MixTargets) {
    let wsum: f64 = classes.iter().map(|c| c.weight).sum();
    assert!(wsum > 0.0, "mix must have positive total weight");
    fn mean_of(classes: &[RequestClass], wsum: f64, f: impl Fn(&RequestClass) -> f64) -> f64 {
        classes.iter().map(|c| c.weight * f(c)).sum::<f64>() / wsum
    }
    let mean = |cs: &[RequestClass], f: &dyn Fn(&RequestClass) -> f64| mean_of(cs, wsum, f);
    // Queries must stay integral: scale toward the target and round, then
    // compute per-query means over the rounded counts.
    let q_mean = mean(classes, &|c| f64::from(c.queries));
    if q_mean > 0.0 {
        let q_scale = targets.queries / q_mean;
        for c in classes.iter_mut() {
            if c.queries > 0 {
                c.queries = ((f64::from(c.queries) * q_scale).round() as u32).max(1);
            }
        }
    }
    let scale_to = |current: f64, target: f64| if current > 0.0 { target / current } else { 0.0 };
    let s_web = scale_to(mean(classes, &|c| c.web_demand_mc), targets.web_mc);
    let s_app = scale_to(mean(classes, &|c| c.app_demand_mc), targets.app_mc);
    // Per-query quantities are weighted by query count so tier-level totals
    // calibrate correctly.
    let q_mean = mean(classes, &|c| f64::from(c.queries));
    let s_mw = scale_to(
        mean(classes, &|c| c.mw_demand_mc * f64::from(c.queries)) / q_mean,
        targets.mw_mc,
    );
    let s_db = scale_to(
        mean(classes, &|c| c.db_demand_mc * f64::from(c.queries)) / q_mean,
        targets.db_mc,
    );
    let s_wait = scale_to(
        mean(classes, &|c| c.db_wait_s * f64::from(c.queries)) / q_mean,
        targets.db_wait_s,
    );
    for c in classes.iter_mut() {
        c.web_demand_mc *= s_web;
        c.app_demand_mc *= s_app;
        c.mw_demand_mc *= s_mw;
        c.db_demand_mc *= s_db;
        c.db_wait_s *= s_wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browse_mix_hits_calibration_targets() {
        let t = MixTargets::paper_calibration();
        let mix = WorkloadMix::browse_only(t);
        assert_eq!(mix.classes().len(), 24);
        let wsum: f64 = mix.weights().iter().sum();
        let mean = |f: fn(&RequestClass) -> f64| {
            mix.classes().iter().map(|c| c.weight * f(c)).sum::<f64>() / wsum
        };
        let web = mean(|c| c.web_demand_mc);
        let app = mean(|c| c.app_demand_mc);
        let q = mean(|c| f64::from(c.queries));
        let db = mean(|c| c.db_demand_mc * f64::from(c.queries)) / q;
        assert!((web - t.web_mc).abs() < 1e-9, "web {web}");
        assert!((app - t.app_mc).abs() < 1e-9, "app {app}");
        // Queries round to integers; allow a small calibration error.
        assert!((q - t.queries).abs() < 0.6, "queries {q}");
        assert!((db - t.db_mc).abs() < 1e-9, "db {db}");
    }

    #[test]
    fn browse_mix_uses_only_browse_interactions() {
        let mix = WorkloadMix::browse_only(MixTargets::paper_calibration());
        for c in mix.classes() {
            if c.weight > 0.0 {
                assert!(
                    !c.name.starts_with("Submit")
                        && !c.name.starts_with("Moderate")
                        && !c.name.starts_with("Register"),
                    "write interaction {} active in browse mix",
                    c.name
                );
            }
        }
        // But the rw mix activates them.
        let rw = WorkloadMix::read_write(MixTargets::paper_calibration());
        assert!(rw
            .classes()
            .iter()
            .any(|c| c.name == "SubmitComment" && c.weight > 0.0));
    }

    #[test]
    fn class_heterogeneity_survives_calibration() {
        let mix = WorkloadMix::browse_only(MixTargets::paper_calibration());
        let active: Vec<_> = mix.classes().iter().filter(|c| c.weight > 0.0).collect();
        let max_app = active.iter().map(|c| c.app_demand_mc).fold(0.0, f64::max);
        let min_app = active
            .iter()
            .map(|c| c.app_demand_mc)
            .fold(f64::INFINITY, f64::min);
        // The mix-class spread that motivates normalization: >2x range.
        assert!(max_app / min_app > 2.0, "spread {}", max_app / min_app);
        let qs: Vec<u32> = active.iter().map(|c| c.queries).collect();
        assert!(qs.iter().max() != qs.iter().min(), "query counts all equal");
    }

    #[test]
    fn single_mix_has_weight_one() {
        let c = RequestClass {
            name: "only".into(),
            weight: 0.0,
            web_demand_mc: 1.0,
            app_demand_mc: 1.0,
            mw_demand_mc: 1.0,
            db_demand_mc: 1.0,
            queries: 2,
            db_wait_s: 0.001,
            demand_cv: 0.1,
        };
        let mix = WorkloadMix::single(c);
        assert_eq!(mix.classes().len(), 1);
        assert_eq!(mix.class(0).weight, 1.0);
    }
}
