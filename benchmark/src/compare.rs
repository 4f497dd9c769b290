//! `--compare A.json B.json`: for every end-to-end metric on every workload,
//! is B within the metric's bound of A? The bounds and directions are read
//! from `BENCHMARK.json`, the one place they are fixed.

use fgbd_obsv::json::Json;

use crate::stats::{median, summarize};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base's by more than the bound.
    Ok,
    /// It is worse by more than the bound, and the runs resolve that.
    Regressed,
    /// The two sides' min–max ranges overlap by more than the bound (as a
    /// share of the base median): run-to-run spread is wider than what the
    /// comparison is asked to resolve.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Parses the `end_to_end` list of `BENCHMARK.json`.
pub fn rules(benchmark_json: &Json) -> Option<Vec<Rule>> {
    benchmark_json
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some(Rule {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Ratio of the medians (new ÷ base) and the verdict under `rule`.
pub fn classify(base: &[f64], new: &[f64], rule: &Rule) -> (f64, Verdict) {
    let (b, n) = (summarize(base), summarize(new));
    let ratio = n.median / b.median;
    let overlap = (b.max.min(n.max) - b.min.max(n.min)).max(0.0);
    let worse_by = if rule.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let verdict = if overlap / b.median > rule.bound {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

fn samples(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("e2e")?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints one row per (metric, workload) present in both result files and
/// returns how many regressed.
pub fn compare(base: &Json, new: &Json, rules: &[Rule]) -> usize {
    let mut regressed = 0;
    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let workloads = base.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    for (workload, _) in workloads {
        for rule in rules {
            let (Some(b), Some(n)) = (
                samples(base, workload, &rule.name),
                samples(new, workload, &rule.name),
            ) else {
                continue;
            };
            let (ratio, verdict) = classify(&b, &n, rule);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<15} {:<20} {:>12.4} {:>12.4} {:>7.3} {:>6.0}%  {}",
                workload,
                format!("{} [{}]", rule.name, rule.unit),
                median(&b),
                median(&n),
                ratio,
                rule.bound * 100.0,
                verdict.label()
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn tight_overlapping_runs_of_the_same_code_are_ok() {
        let (ratio, v) = classify(&[1.00, 1.01, 1.02], &[1.01, 1.02, 1.03], &rule(true, 0.10));
        assert_eq!(v, Verdict::Ok);
        assert!((ratio - 1.02 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn clear_separation_beyond_the_bound_is_a_regression_in_the_bad_direction_only() {
        let slow = [1.20, 1.21, 1.22];
        let fast = [1.00, 1.01, 1.02];
        assert_eq!(
            classify(&fast, &slow, &rule(true, 0.10)).1,
            Verdict::Regressed
        );
        assert_eq!(
            classify(&slow, &fast, &rule(true, 0.10)).1,
            Verdict::Ok,
            "an improvement"
        );
        assert_eq!(
            classify(&slow, &fast, &rule(false, 0.10)).1,
            Verdict::Regressed,
            "higher is better"
        );
        assert_eq!(classify(&fast, &slow, &rule(false, 0.10)).1, Verdict::Ok);
    }

    #[test]
    fn ranges_overlapping_by_more_than_the_bound_are_unresolved() {
        // Both sides spread over 0.9..1.3: medians 20% apart, but the runs
        // cannot tell a 10% change from noise.
        let base = [0.90, 1.00, 1.30];
        let new = [0.95, 1.20, 1.25];
        assert_eq!(
            classify(&base, &new, &rule(true, 0.10)).1,
            Verdict::Unresolved
        );
        // The same samples resolve under a bound wider than their overlap.
        assert_eq!(classify(&base, &new, &rule(true, 0.35)).1, Verdict::Ok);
    }

    #[test]
    fn a_worse_median_within_the_bound_is_ok() {
        assert_eq!(
            classify(&[1.00, 1.00], &[1.04, 1.04], &rule(true, 0.05)).1,
            Verdict::Ok
        );
        assert_eq!(
            classify(&[1.00, 1.00], &[1.06, 1.06], &rule(true, 0.05)).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn rules_parse_from_the_benchmark_document() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1},
                              {"name":"rate","unit":"1/s","better":"higher","bound":0.05}]}"#,
        )
        .unwrap();
        let rules = rules(&doc).unwrap();
        assert_eq!(rules.len(), 2);
        assert!(rules[0].lower_is_better && !rules[1].lower_is_better);
        assert_eq!(rules[1].bound, 0.05);
    }
}
