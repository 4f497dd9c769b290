//! End-to-end integration tests across all crates: simulate → capture →
//! calibrate → detect → diagnose, exercising both of the paper's case
//! studies at reduced scale.

use fgbd_core::detect::{rank_bottlenecks, DetectorConfig, ServerReport};
use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_repro::scenario::GC_JDK15;
use fgbd_repro::{Analysis, Calibration};

const SERVERS: [&str; 6] = [
    "apache", "tomcat-1", "tomcat-2", "cjdbc", "mysql-1", "mysql-2",
];

fn run(users: u32, jdk: Jdk, speedstep: bool, secs: u64) -> fgbd_ntier::RunResult {
    let mut cfg = SystemConfig::paper_1l2s1l2s(users, jdk, speedstep, 23);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(secs);
    NTierSystem::run(cfg)
}

fn calibration(jdk: Jdk, speedstep: bool) -> Calibration {
    let mut cfg = SystemConfig::paper_1l2s1l2s(300, jdk, speedstep, 23);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.duration = SimDuration::from_secs(15);
    Calibration::from_run(&NTierSystem::run(cfg))
}

#[test]
fn gc_case_study_end_to_end() {
    // High enough load that serial-GC pauses span whole 50 ms intervals.
    let cal = calibration(Jdk::Jdk15, false);
    let analysis = Analysis::new(run(8_000, Jdk::Jdk15, false, 40), Calibration::clone(&cal));
    let window = analysis.window(SimDuration::from_millis(50));
    let cfg = DetectorConfig::default();
    let reports: Vec<_> = SERVERS
        .iter()
        .map(|n| analysis.report(n, window, &cfg))
        .collect();

    // The app tier shows frozen (POI) intervals. Upstream (apache) may show
    // propagated stalls — its threads block on the frozen Tomcat — but the
    // downstream tiers merely starve (idle, not frozen).
    let tomcat_frozen: usize = reports[1].frozen_intervals() + reports[2].frozen_intervals();
    assert!(tomcat_frozen > 0, "no POIs detected on the GC'd tier");
    let db_frozen = reports[4].frozen_intervals() + reports[5].frozen_intervals();
    assert!(
        db_frozen * 5 <= tomcat_frozen,
        "downstream tiers should starve, not freeze: db {} vs tomcat {}",
        db_frozen,
        tomcat_frozen
    );

    // A Tomcat ranks among the most-congested servers. (The web tier may
    // rank alongside it: its threads block on the frozen JVM, so congestion
    // pushes back upstream — root cause is then pinned by the POI
    // signature, which only the GC'd tier plus its blocked upstream show.)
    let ranked = rank_bottlenecks(&reports);
    let top3: Vec<_> = ranked.iter().take(3).map(|(n, _)| *n).collect();
    assert!(
        top3.contains(&analysis.node("tomcat-1")) || top3.contains(&analysis.node("tomcat-2")),
        "GC'd tier missing from top-3 transient bottlenecks: {ranked:?}"
    );
    // The db tier is not implicated.
    assert!(
        !top3.contains(&analysis.node("mysql-1")) || ranked[0].1 > 2.0 * ranked[2].1,
        "db tier wrongly implicated: {ranked:?}"
    );

    // The fix: JDK 1.6 removes the freezes.
    let cal16 = calibration(Jdk::Jdk16, false);
    let fixed = Analysis::new(run(8_000, Jdk::Jdk16, false, 40), cal16);
    let fixed_report = fixed.report("tomcat-1", fixed.window(SimDuration::from_millis(50)), &cfg);
    assert_eq!(
        fixed_report.frozen_intervals(),
        0,
        "JDK 1.6 must not produce POIs"
    );
}

#[test]
fn speedstep_case_study_end_to_end() {
    let cal = calibration(Jdk::Jdk16, true);
    let on = Analysis::new(run(9_000, Jdk::Jdk16, true, 30), Calibration::clone(&cal));
    let window = on.window(SimDuration::from_millis(50));
    let cfg = DetectorConfig::default();
    let mysql_on = on.report("mysql-1", window, &cfg);

    let cal_off = calibration(Jdk::Jdk16, false);
    let off = Analysis::new(run(9_000, Jdk::Jdk16, false, 30), cal_off);
    let mysql_off = off.report("mysql-1", off.window(SimDuration::from_millis(50)), &cfg);

    // SpeedStep causes dramatically more congestion at the same workload.
    assert!(
        mysql_on.congested_intervals() > 5 * mysql_off.congested_intervals().max(1),
        "on {} vs off {}",
        mysql_on.congested_intervals(),
        mysql_off.congested_intervals()
    );
    // And the governor's P-state log confirms clock switching happened.
    assert!(!on.run.pstate_log.is_empty());
    assert!(off.run.pstate_log.is_empty());
}

#[test]
fn coarse_monitoring_misses_what_the_detector_sees() {
    // The paper's core argument: at WL 8,000-scale utilization (~80%), 1 s
    // monitoring shows no saturation while the 50 ms detector finds
    // frequent congestion.
    let cal = calibration(Jdk::Jdk16, true);
    let analysis = Analysis::new(run(8_000, Jdk::Jdk16, true, 30), cal);
    let cfg = DetectorConfig::default();
    let report = analysis.report(
        "mysql-1",
        analysis.window(SimDuration::from_millis(50)),
        &cfg,
    );
    assert!(
        report.congested_intervals() > 20,
        "detector found too little congestion: {}",
        report.congested_intervals()
    );

    // Coarse view: mean CPU utilization stays below 90%.
    let idx = analysis.run.server_index("mysql-1").expect("exists");
    let util = analysis.run.mean_cpu_util(idx);
    assert!(util < 0.9, "mysql mean util {util} unexpectedly saturated");
    assert!(util > 0.5, "mysql mean util {util} unexpectedly idle");
}

#[test]
fn episodes_have_transient_lifespans() {
    // Transient bottlenecks live for tens to hundreds of milliseconds — the
    // episode structure should reflect that (not one run-long episode).
    let cal = calibration(Jdk::Jdk16, true);
    let analysis = Analysis::new(run(8_000, Jdk::Jdk16, true, 30), cal);
    let cfg = DetectorConfig::default();
    let window = analysis.window(SimDuration::from_millis(50));
    let report = analysis.report("mysql-1", window, &cfg);
    let episodes = report.episodes();
    assert!(!episodes.is_empty(), "no congestion episodes found");
    let median_len = {
        let mut lens: Vec<usize> = episodes.iter().map(|e| e.intervals).collect();
        lens.sort_unstable();
        lens[lens.len() / 2]
    };
    // Median episode between 50 ms and 2 s.
    assert!(
        (1..=40).contains(&median_len),
        "median episode length {median_len} intervals is not transient"
    );
    // Episodes never overlap and are within bounds.
    let mut last_end = 0usize;
    for e in &episodes {
        assert!(e.start_index >= last_end);
        assert!(e.start_index + e.intervals <= report.states.len());
        last_end = e.start_index + e.intervals;
    }
}

#[test]
fn tier_level_aggregation_detects_the_same_bottleneck() {
    // Merge both Tomcats into one logical tier and analyze it as a unit —
    // the per-span service lookup keeps normalization correct across the
    // mixed-server span list.
    use fgbd_core::detect::analyze_server;
    use fgbd_trace::SpanSet;

    let cal = calibration(Jdk::Jdk15, false);
    let run = run(8_000, Jdk::Jdk15, false, 30);
    let spans = SpanSet::extract(&run.log);
    let t1 = run.node_of("tomcat-1").expect("tomcat-1");
    let t2 = run.node_of("tomcat-2").expect("tomcat-2");
    let tier_spans = spans.merged(&[t1, t2]);
    assert_eq!(
        tier_spans.len(),
        spans.server(t1).len() + spans.server(t2).len()
    );

    let window =
        fgbd_core::series::Window::new(run.warmup_end, run.horizon, SimDuration::from_millis(50));
    let tier_report = analyze_server(
        &tier_spans,
        t1, // label only
        window,
        &cal.services,
        cal.work_unit(t1),
        &fgbd_core::detect::DetectorConfig::default(),
    );
    let single_report = analyze_server(
        spans.server(t1),
        t1,
        window,
        &cal.services,
        cal.work_unit(t1),
        &fgbd_core::detect::DetectorConfig::default(),
    );
    // The tier view sees roughly double the load and still detects the
    // GC-driven congestion (both JVMs freeze independently).
    let tier_mean: f64 =
        tier_report.load.values().iter().sum::<f64>() / tier_report.load.len() as f64;
    let single_mean: f64 =
        single_report.load.values().iter().sum::<f64>() / single_report.load.len() as f64;
    assert!(
        (tier_mean / single_mean - 2.0).abs() < 0.4,
        "tier load {tier_mean} vs single {single_mean}"
    );
    assert!(tier_report.congested_intervals() > 0);
    assert!(
        tier_report.frozen_intervals() > 0,
        "tier view lost the POIs"
    );
}

#[test]
fn read_write_mix_works_end_to_end() {
    // The paper uses browse-only; the read/write mix is exercised here to
    // keep the extension honest (write interactions include zero-query
    // form pages).
    use fgbd_ntier::class::{MixTargets, WorkloadMix};

    let mut cfg = SystemConfig::paper_1l2s1l2s(1_500, Jdk::Jdk16, false, 29);
    cfg.mix = WorkloadMix::read_write(MixTargets::paper_calibration());
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(15);
    let run = NTierSystem::run(cfg);
    assert!(run.throughput() > 150.0, "rw mix tput {}", run.throughput());
    // Zero-query classes produce app spans with no downstream children:
    // C-JDBC sees fewer visits per page than the browse mix's ~5.
    let spans = fgbd_trace::SpanSet::extract(&run.log);
    let app = run.node_of("tomcat-1").expect("tomcat");
    let mw = run.node_of("cjdbc").expect("cjdbc");
    let per_page = spans.server(mw).len() as f64 / (2.0 * spans.server(app).len() as f64);
    assert!(
        per_page > 1.0 && per_page < 6.0,
        "queries per page {per_page}"
    );
}

#[test]
fn operational_laws_hold_on_simulated_captures() {
    // Little's Law audited at 1 s granularity on a real capture, and the
    // Utilization-Law ceiling cross-checked against the detector's TP_max.
    use fgbd_oracle::oplaw::{utilization_law_ceiling, LittlesLawAudit};
    use fgbd_trace::SpanSet;

    let run = run(3_000, Jdk::Jdk16, false, 30);
    let spans = SpanSet::extract(&run.log);
    let node = run.node_of("mysql-1").expect("mysql");
    let window =
        fgbd_core::series::Window::new(run.warmup_end, run.horizon, SimDuration::from_secs(1));
    let audit = LittlesLawAudit::run(spans.server(node), &window, 0.10);
    assert!(
        audit.violation_fraction < 0.15,
        "Little's Law violated in {:.0}% of windows",
        audit.violation_fraction * 100.0
    );

    // Utilization Law: demand inferred from the CPU counters predicts a
    // ceiling consistent with the calibrated MySQL capacity (~7,100 q/s at
    // P0 with SpeedStep off).
    let idx = run.server_index("mysql-1").expect("mysql");
    let busy_first = run.cpu_busy[idx]
        .iter()
        .find(|c| c.at >= run.warmup_end)
        .expect("samples")
        .busy_core_seconds;
    let busy_last = run.cpu_busy[idx].last().expect("samples").busy_core_seconds;
    let completions = spans
        .server(node)
        .iter()
        .filter(|s| s.departure >= run.warmup_end)
        .count() as u64;
    let secs = (run.horizon - run.warmup_end).as_secs_f64();
    let (demand, tp_max) = utilization_law_ceiling(busy_last - busy_first, completions, 1, secs);
    assert!(
        (5_500.0..9_000.0).contains(&tp_max),
        "utilization-law ceiling {tp_max:.0} q/s (demand {:.2} ms) off the calibrated ~7,100",
        demand * 1e3
    );
}

/// The message of a caught panic.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("must panic");
    match payload.downcast_ref::<&str>() {
        Some(msg) => msg.to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    }
}

/// The figures detect on the simulator's record tap and hold neither a log
/// nor a span; that must be the very analysis of pairing the whole log
/// afterwards, and the tap must not perturb the run: the same transactions
/// reach the consumer, in the same order, on both routes. Every named server
/// reports, at 20 ms, 50 ms and 1 s, bit for bit what `analyze_server`
/// builds from the log's spans — named with every other server, and named
/// alone as a figure names it, so the records of the rest are passed over.
/// A server that was not named, or a window the route cannot report, fails
/// by name instead of reporting idle.
#[test]
fn tap_paired_analysis_equals_log_paired() {
    let mut cfg = GC_JDK15.config(3_000);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.duration = SimDuration::from_secs(12);
    let cal = calibration(Jdk::Jdk15, false);
    let (mut tapped_txns, mut logged_txns) = (Vec::new(), Vec::new());
    let tapped = Analysis::simulate(
        cfg.clone(),
        &SERVERS,
        Calibration::clone(&cal),
        Some(&mut |t| tapped_txns.push(t)),
    );
    let logged_run =
        NTierSystem::run_with_taps(cfg.clone(), None, Some(&mut |t| logged_txns.push(t)));
    let logged = Analysis::new(logged_run, Calibration::clone(&cal));

    assert!(tapped.run.log.records.is_empty(), "no log on the tap route");
    assert!(tapped.spans.is_empty(), "no spans on the report route");
    assert!(!logged.run.log.records.is_empty());
    assert!(!logged_txns.is_empty());
    assert_eq!(tapped_txns, logged_txns);
    assert_eq!(tapped.run.txns, logged.run.txns);
    assert_eq!(tapped.run.gc_events, logged.run.gc_events);
    assert_eq!(tapped.run.pstate_log, logged.run.pstate_log);
    assert!(
        !logged.spans.unmatched.is_empty(),
        "requests are in flight at the horizon"
    );

    let dcfg = DetectorConfig::default();
    let grids = [20, 50, 1_000].map(SimDuration::from_millis);
    let same_reports = |route: &Analysis, name: &str, how: &str| {
        let node = logged.node(name);
        assert!(!logged.spans.server(node).is_empty(), "{name}");
        let ms = cal.mean_service(node);
        let bits = |r: &ServerReport, i| {
            let (load, t) = (r.load.get(i), &r.tput);
            let values = [load, t.units(i), t.unit_rate(i), t.equivalent_rate(i, ms)];
            (values.map(f64::to_bits), t.count(i))
        };
        for interval in grids {
            let window = logged.window(interval);
            let (t, l) = (
                route.report(name, window, &dcfg),
                logged.report(name, window, &dcfg),
            );
            let at = format!("{name} @ {interval} ({how})");
            assert_eq!((t.server, t.window), (l.server, l.window), "{at}");
            assert_eq!(t.states, l.states, "{at}");
            assert_eq!(t.nstar, l.nstar, "{at}");
            assert_eq!(t.load.len(), l.load.len(), "{at}");
            for i in 0..l.load.len() {
                assert_eq!(bits(&t, i), bits(&l, i), "{at}, interval {i}");
            }
        }
    };
    let ms50 = SimDuration::from_millis(50);
    for name in SERVERS {
        same_reports(&tapped, name, "every server named");
        let alone = Analysis::simulate(cfg.clone(), &[name], Calibration::clone(&cal), None);
        assert!(alone.spans.is_empty(), "{name}");
        same_reports(&alone, name, "named alone");
        if name != "mysql-1" {
            continue;
        }
        let msg = panic_message(|| {
            alone.report("tomcat-1", alone.window(ms50), &dcfg);
        });
        assert!(msg.contains("tomcat-1") && msg.contains("mysql-1"), "{msg}");
        let secs = SimDuration::from_secs;
        let zoom = alone.sub_window(secs(2), secs(4), ms50);
        for window in [alone.window(SimDuration::from_millis(15)), zoom] {
            let msg = panic_message(|| {
                alone.report(name, window, &dcfg);
            });
            assert!(msg.contains("not a full window"), "{msg}");
        }
    }
    let msg = panic_message(|| {
        Analysis::simulate(cfg.clone(), &[], Calibration::clone(&cal), None);
    });
    assert!(msg.contains("name the servers"), "{msg}");

    // An unknown name fails before the run and lists the run's servers.
    let msg = panic_message(|| {
        Analysis::simulate(cfg, &["mysql-9"], cal, None);
    });
    assert!(msg.contains("mysql-9"), "{msg}");
    assert!(SERVERS.iter().all(|name| msg.contains(name)), "{msg}");
}
