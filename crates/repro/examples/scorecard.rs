//! The detector scored against the simulator's own truth, row by row, and
//! written to `SCORECARD.json`:
//!
//! ```sh
//! cargo run --release -p fgbd-repro --example scorecard -- [--seeds N] [--short]
//! ```
//!
//! Each row simulates one scenario at one workload on the record tap, runs
//! the detector the figures run (the final report, or a live 50 ms
//! detector on the tap), and scores one server's verdicts against what the
//! run logged of itself (`fgbd_oracle::truth`): its stop-the-world pauses,
//! or its busy windows below P0. A run is a 5 s warm-up and 20 s measured
//! on a 50 ms grid, calibrated by `Calibration::for_scenario` as the
//! figures are, so a score moves only when a detector or simulator byte
//! does. The rows:
//!
//! - `gc_final`: JDK 1.5 at WL 14,000, tomcat-1. Recall over the pauses of
//!   at least one interval (a congested or frozen interval overlaps the
//!   pause); precision over the intervals called *frozen* (they overlap a
//!   pause), since at this workload nearly every interval is congested.
//! - `gc_live`: the same run, scored on the live onsets: which pauses draw
//!   an onset whose streak starts in them, with the latency from the pause
//!   start to the onset's emission, and which are covered by live
//!   congestion.
//! - `dvfs_final`: SpeedStep on at WL 10,000, mysql-1. Recall over the
//!   slow-clock windows, precision over the congested or frozen intervals.
//! - `gc_control_jdk16` and `dvfs_control_off`: the negative controls, the
//!   same rows with the fix applied (JDK 1.6, SpeedStep off). They have no
//!   truth to find; what they score is how many intervals are still called
//!   frozen, or flagged, which should be near zero.
//! - `gc_one_jvm` and `gc_one_jvm_control`: JDK 1.5 with tomcat-2 on JDK
//!   1.6, so one JVM pauses alone: tomcat-1 scored as in `gc_final`, and
//!   tomcat-2 as a control.
//! - `speedstep_one`: SpeedStep on mysql-1 only, scored as `dvfs_final`
//!   (calibrated as SpeedStep on).
//!
//! `--short` runs one seed, 20130708, which `tests/detector_truth.rs` runs
//! in tier-1 and holds to its floors. Otherwise each row runs `N` seeds
//! (default 10): 20130708 and the `N − 1` after it, on every core. Each
//! row reports its counts summed over the seeds, the pooled rates, and a
//! 95% bootstrap interval over seeds (2,000 resamples of the seed list).

use fgbd_core::detect::{DetectorConfig, IntervalState};
use fgbd_core::online::{OnlineConfig, OnlineDetector, VerdictKind};
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::dvfs::DvfsConfig;
use fgbd_ntier::system::NTierSystem;
use fgbd_ntier::GcConfig;
use fgbd_ntier::SystemConfig;
use fgbd_obsv::json::Json;
use fgbd_oracle::truth::{gc_pauses, slow_clock};
use fgbd_repro::par::par_map;
use fgbd_repro::pipeline::WORK_UNIT_RESOLUTION;
use fgbd_repro::scenario::{Scenario, GC_JDK15, GC_JDK16, MASTER_SEED};
use fgbd_repro::scenario::{SPEEDSTEP_OFF, SPEEDSTEP_ON};
use fgbd_repro::{Analysis, Calibration};

/// The grid every row is scored on.
const INTERVAL: SimDuration = SimDuration::from_millis(50);

/// What a row's truth is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Stop-the-world pauses (`truth::gc_pauses`).
    Pauses,
    /// Busy windows below P0 (`truth::slow_clock`).
    SlowClock,
}

/// Which intervals a row's precision is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scored {
    /// Frozen intervals.
    Frozen,
    /// Congested or frozen intervals.
    Flagged,
}

/// The one-server change a row makes to its scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    None,
    /// This server's JVM is JDK 1.6.
    Jdk16On(&'static str),
    /// Only this MySQL has SpeedStep.
    SpeedStepOnlyOn(&'static str),
}

/// One scorecard row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub scenario: Scenario,
    pub users: u32,
    pub change: Change,
    pub server: &'static str,
    pub truth: Truth,
    pub scored: Scored,
    /// Scored on the live onsets instead of the final report.
    pub live: bool,
}

const fn row(
    name: &'static str,
    scenario: Scenario,
    users: u32,
    change: Change,
    server: &'static str,
    truth: Truth,
    scored: Scored,
) -> Row {
    Row {
        name,
        scenario,
        users,
        change,
        server,
        truth,
        scored,
        live: false,
    }
}

/// The rows, in `SCORECARD.json` order.
pub const ROWS: [Row; 8] = {
    use Change::{Jdk16On, SpeedStepOnlyOn};
    use Scored::{Flagged, Frozen};
    use Truth::{Pauses, SlowClock};
    let gc = row(
        "gc_final",
        GC_JDK15,
        14_000,
        Change::None,
        "tomcat-1",
        Pauses,
        Frozen,
    );
    let dvfs = row(
        "dvfs_final",
        SPEEDSTEP_ON,
        10_000,
        Change::None,
        "mysql-1",
        SlowClock,
        Flagged,
    );
    [
        gc,
        Row {
            name: "gc_live",
            live: true,
            ..gc
        },
        dvfs,
        Row {
            name: "gc_control_jdk16",
            scenario: GC_JDK16,
            ..gc
        },
        Row {
            name: "dvfs_control_off",
            scenario: SPEEDSTEP_OFF,
            ..dvfs
        },
        Row {
            name: "gc_one_jvm",
            change: Jdk16On("tomcat-2"),
            ..gc
        },
        Row {
            name: "gc_one_jvm_control",
            change: Jdk16On("tomcat-2"),
            server: "tomcat-2",
            ..gc
        },
        Row {
            name: "speedstep_one",
            scenario: SPEEDSTEP_OFF,
            change: SpeedStepOnlyOn("mysql-1"),
            ..dvfs
        },
    ]
};

/// The row named `name`.
///
/// # Panics
///
/// Panics if there is none.
pub fn named(name: &str) -> Row {
    *ROWS
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no scorecard row {name}"))
}

impl Row {
    /// The row's run at `seed`.
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = self.scenario.config(self.users);
        cfg.seed = seed;
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(20);
        for spec in cfg.topology.iter_mut().flatten() {
            match self.change {
                Change::Jdk16On(name) if spec.name == name => {
                    spec.gc = Some(GcConfig::jdk16_concurrent());
                }
                Change::SpeedStepOnlyOn(name) if spec.name == name => {
                    spec.dvfs = Some(DvfsConfig::dell_bios());
                }
                _ => {}
            }
        }
        cfg
    }

    /// The scenario's calibration; a SpeedStep-on-one row calibrates as
    /// SpeedStep on.
    pub fn calibration(&self) -> Calibration {
        match self.change {
            Change::SpeedStepOnlyOn(_) => Calibration::for_scenario(&SPEEDSTEP_ON),
            _ => Calibration::for_scenario(&self.scenario),
        }
    }

    /// Scores the row's run at `seed`.
    pub fn score(&self, seed: u64, cal: Calibration) -> Score {
        if self.live {
            self.score_live(seed, cal)
        } else {
            self.score_final(seed, cal)
        }
    }

    fn truth_of(&self, run: &fgbd_ntier::RunResult) -> Vec<(SimTime, SimTime)> {
        match self.truth {
            Truth::Pauses => gc_pauses(run, self.server),
            Truth::SlowClock => slow_clock(run, self.server),
        }
    }

    fn score_final(&self, seed: u64, cal: Calibration) -> Score {
        let analysis = Analysis::simulate(self.config(seed), &[self.server], cal, None);
        let window = analysis.window(INTERVAL);
        let report = analysis.report(self.server, window, &DetectorConfig::default());
        let intervals: Vec<(SimTime, SimTime)> =
            (0..window.len()).map(|i| window.bounds(i)).collect();

        // Recall counts the episodes inside the window that last at least
        // one interval: a shorter one need not move any interval past N*.
        let all = self.truth_of(&analysis.run);
        let episodes = lasting(&all, window.start, window.end);
        let flagged: Vec<usize> = (0..intervals.len())
            .filter(|&i| {
                matches!(
                    report.states[i],
                    IntervalState::Congested | IntervalState::Frozen
                )
            })
            .collect();
        let found = episodes
            .iter()
            .filter(|&&e| flagged.iter().any(|&i| overlaps(e, intervals[i])))
            .count();
        let scored: Vec<usize> = match self.scored {
            Scored::Frozen => (0..intervals.len())
                .filter(|&i| report.states[i] == IntervalState::Frozen)
                .collect(),
            Scored::Flagged => flagged,
        };
        let true_scored = scored
            .iter()
            .filter(|&&i| all.iter().any(|&e| overlaps(e, intervals[i])))
            .count();
        Score {
            episodes: episodes.len(),
            all_episodes: all.len(),
            found,
            scored: scored.len(),
            true_scored,
            ..Score::default()
        }
    }

    /// The live verdicts: the server's records, as the tap delivers them,
    /// feed a 50 ms detector calibrated as the live monitor calibrates it.
    /// An episode that lasts an interval is *found* by the first onset
    /// whose streak starts in an interval it overlaps, with a latency from
    /// its start to the onset's emission, in intervals (an interval is
    /// final only once no request open at the server can reach it, so an
    /// onset waits for its pause to end). It is *covered* if the live
    /// state, dated by the verdicts' streaks, is congested in one of its
    /// intervals, whether or not it drew an onset of its own.
    fn score_live(&self, seed: u64, cal: Calibration) -> Score {
        let cfg = self.config(seed);
        let start = SimTime::ZERO + cfg.warmup;
        let ocfg = OnlineConfig::new(start, INTERVAL, WORK_UNIT_RESOLUTION);
        let mut detector = OnlineDetector::new(ocfg, cal.services.clone());
        for (&node, &wu) in &cal.work_units {
            detector.set_work_unit(node, wu);
        }
        let node = fgbd_ntier::system::node_metas(&cfg)
            .into_iter()
            .find(|n| n.name == self.server)
            .expect("the row's server exists")
            .id;
        let run = NTierSystem::run_with_record_tap(cfg, |rec| {
            if rec.span_node() == node {
                detector.push(&rec);
            }
        });
        let finish = detector.finish(run.horizon);
        let window = finish.reports[0].window;

        // The live state by interval: congested from each onset's streak
        // to the next clear's.
        let mut congested: Vec<(usize, usize)> = Vec::new();
        let mut onsets: Vec<(usize, SimTime)> = Vec::new();
        for e in &finish.events {
            match e.kind {
                VerdictKind::Onset => onsets.push((e.interval, e.interval_end + e.detect_latency)),
                VerdictKind::Clear => {
                    congested.push((onsets.last().expect("onset first").0, e.interval))
                }
            }
        }
        if finish
            .events
            .last()
            .is_some_and(|e| e.kind == VerdictKind::Onset)
        {
            congested.push((onsets.last().expect("an onset").0, window.len()));
        }
        let index_of =
            |t: SimTime| ((t - window.start).as_micros() / INTERVAL.as_micros()) as usize;
        let all = self.truth_of(&run);
        let episodes = lasting(&all, window.start, window.end);
        let mut latencies = Vec::new();
        let mut covered = 0;
        for &(from, to) in &episodes {
            // The intervals the episode overlaps.
            let (first, last) = (index_of(from), index_of(to - SimDuration::from_micros(1)));
            if let Some(&(_, emitted)) = onsets.iter().find(|(i, _)| (first..=last).contains(i)) {
                latencies.push((emitted - from).as_secs_f64() / INTERVAL.as_secs_f64());
            }
            covered += usize::from(congested.iter().any(|&(a, b)| a <= last && first < b));
        }
        latencies.sort_by(f64::total_cmp);
        Score {
            episodes: episodes.len(),
            all_episodes: all.len(),
            found: latencies.len(),
            onsets: onsets.len(),
            covered,
            latencies,
            ..Score::default()
        }
    }
}

/// What one seed of a row counted.
#[derive(Debug, Clone, Default)]
pub struct Score {
    /// Truth episodes inside the window lasting at least one interval.
    pub episodes: usize,
    /// Truth episodes in the whole run.
    pub all_episodes: usize,
    /// Episodes found (final: overlapped by a flagged interval; live: drew
    /// an onset).
    pub found: usize,
    /// Intervals the precision is taken over, and those overlapping an
    /// episode (final rows).
    pub scored: usize,
    pub true_scored: usize,
    /// Live rows: onsets emitted, episodes covered, and the found
    /// episodes' latencies in intervals, ascending.
    pub onsets: usize,
    pub covered: usize,
    pub latencies: Vec<f64>,
}

fn overlaps((a, b): (SimTime, SimTime), (c, d): (SimTime, SimTime)) -> bool {
    a < d && c < b
}

/// The episodes inside `[start, end)` that last at least one interval.
fn lasting(all: &[(SimTime, SimTime)], start: SimTime, end: SimTime) -> Vec<(SimTime, SimTime)> {
    (all.iter().copied())
        .filter(|&(from, to)| from >= start && to <= end)
        .filter(|&(from, to)| to - from >= INTERVAL)
        .collect()
}

/// `num / den` pooled over the seeds, with a 95% bootstrap interval from
/// resampling the seeds; `null`s when the denominator is zero.
fn pooled(
    scores: &[Score],
    num: fn(&Score) -> usize,
    den: fn(&Score) -> usize,
) -> Vec<(String, Json)> {
    let ratio = |pick: &mut dyn Iterator<Item = &Score>| {
        let (n, d) = pick.fold((0, 0), |(n, d), s| (n + num(s), d + den(s)));
        (d > 0).then(|| n as f64 / d as f64)
    };
    let rate = ratio(&mut scores.iter());
    // SplitMix64 from a fixed seed: the interval repeats run to run.
    let mut state = 0x5c0e_ec4d_u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    };
    let resamples: Vec<f64> = (0..2_000)
        .filter_map(|_| {
            let picks: Vec<usize> = (0..scores.len()).map(|_| next() % scores.len()).collect();
            ratio(&mut picks.iter().map(|&i| &scores[i]))
        })
        .collect();
    let bound = |q| fgbd_core::stats::percentile(&resamples, q).map_or(Json::Null, Json::Num);
    vec![
        ("rate".into(), rate.map_or(Json::Null, Json::Num)),
        ("ci95".into(), Json::Arr(vec![bound(0.025), bound(0.975)])),
    ]
}

fn sum(scores: &[Score], field: fn(&Score) -> usize) -> Json {
    Json::Num(scores.iter().map(field).sum::<usize>() as f64)
}

/// The row's JSON: its setup, seeds, summed counts and pooled rates.
fn row_json(row: &Row, seeds: &[u64], scores: &[Score]) -> Json {
    let s = |v: &str| Json::Str(v.into());
    let change = match row.change {
        Change::None => Json::Null,
        Change::Jdk16On(name) => s(&format!("{name} on JDK 1.6")),
        Change::SpeedStepOnlyOn(name) => s(&format!("SpeedStep on {name} only")),
    };
    let mut out = vec![
        ("row".into(), s(row.name)),
        ("scenario".into(), s(row.scenario.name)),
        ("users".into(), Json::Num(f64::from(row.users))),
        ("change".into(), change),
        ("server".into(), s(row.server)),
        (
            "truth".into(),
            s(match row.truth {
                Truth::Pauses => "gc_pauses",
                Truth::SlowClock => "slow_clock",
            }),
        ),
        (
            "verdicts".into(),
            s(if row.live {
                "live onsets"
            } else {
                "final report"
            }),
        ),
        (
            "seeds".into(),
            Json::Arr(seeds.iter().map(|&x| Json::Num(x as f64)).collect()),
        ),
        ("episodes".into(), sum(scores, |x| x.episodes)),
        ("episodes_in_run".into(), sum(scores, |x| x.all_episodes)),
        ("found".into(), sum(scores, |x| x.found)),
        (
            "recall".into(),
            Json::Obj(pooled(scores, |x| x.found, |x| x.episodes)),
        ),
    ];
    if row.live {
        let mut lat: Vec<f64> = scores.iter().flat_map(|x| x.latencies.clone()).collect();
        lat.sort_by(f64::total_cmp);
        let at = |q| fgbd_core::stats::percentile(&lat, q).map_or(Json::Null, Json::Num);
        out.extend([
            ("onsets".into(), sum(scores, |x| x.onsets)),
            ("covered".into(), sum(scores, |x| x.covered)),
            (
                "coverage".into(),
                Json::Obj(pooled(scores, |x| x.covered, |x| x.episodes)),
            ),
            ("latency_intervals_median".into(), at(0.5)),
            ("latency_intervals_max".into(), at(1.0)),
        ]);
    } else {
        let scored = match row.scored {
            Scored::Frozen => "frozen",
            Scored::Flagged => "congested or frozen",
        };
        out.extend([
            ("scored_intervals".into(), s(scored)),
            ("scored".into(), sum(scores, |x| x.scored)),
            ("true_scored".into(), sum(scores, |x| x.true_scored)),
            (
                "precision".into(),
                Json::Obj(pooled(scores, |x| x.true_scored, |x| x.scored)),
            ),
        ]);
    }
    Json::Obj(out)
}

/// The commit the scorecard ran on, `-dirty` if the tree had changes.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(head), Some(status)) if status.is_empty() => head,
        (Some(head), _) => format!("{head}-dirty"),
        _ => "unknown".into(),
    }
}

fn main() {
    const USAGE: &str = "scorecard [--seeds N] [--short]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 10u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--short" => seeds = 1,
            "--seeds" => {
                seeds = (it.next())
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail(USAGE));
            }
            _ => fail(USAGE),
        }
    }
    let seeds: Vec<u64> = (0..seeds).map(|k| MASTER_SEED + k).collect();
    let cals: Vec<Calibration> = par_map(&ROWS, Row::calibration);
    let jobs: Vec<(usize, u64)> = (0..ROWS.len())
        .flat_map(|r| seeds.iter().map(move |&seed| (r, seed)))
        .collect();
    let scores = par_map(&jobs, |&(r, seed)| ROWS[r].score(seed, cals[r].clone()));
    let rows: Vec<Json> = (ROWS.iter().enumerate())
        .map(|(r, row)| {
            let mine: Vec<Score> = (jobs.iter().zip(&scores))
                .filter(|((of, _), _)| *of == r)
                .map(|(_, score)| score.clone())
                .collect();
            row_json(row, &seeds, &mine)
        })
        .collect();
    let card = Json::Obj(vec![
        (
            "command".into(),
            Json::Str(
                std::iter::once("cargo run --release -p fgbd-repro --example scorecard --")
                    .chain(args.iter().map(String::as_str))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ),
        ("commit".into(), Json::Str(commit())),
        (
            "run".into(),
            Json::Str("5 s warm-up, 20 s measured, 50 ms intervals".into()),
        ),
        ("rows".into(), Json::Arr(rows)),
    ]);
    let out = "SCORECARD.json";
    std::fs::write(out, card.render_pretty()).unwrap_or_else(|e| {
        eprintln!("scorecard: {out}: {e}");
        std::process::exit(1)
    });
    println!(
        "scorecard: {} rows × {} seeds → {out}",
        ROWS.len(),
        seeds.len()
    );
}

fn fail(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    std::process::exit(2)
}
