//! The traced layer pass of one workload: per-layer probes that time calls
//! into each crate's public functions on the workload's own inputs, then
//! the workload's route replayed in-process with and without spans, and the
//! accounting that ties the two to the CLI's wall time.
//!
//! Layers are the crates. Nothing here is an end-to-end number; those come
//! from the untraced CLI runs in `e2e`.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fgbd_core::detect::{analyze_server, DetectorConfig};
use fgbd_core::nstar::{self, NStarConfig};
use fgbd_core::online::{OnlineConfig, OnlineDetector};
use fgbd_core::series::{SeriesSet, Window};
use fgbd_des::{Dice, EventQueue, JobId, PsIntegrator, SimDuration, SimTime};
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_obsv::json::Json;
use fgbd_repro::pipeline::{Calibration, SERVICE_QUANTILE, WORK_UNIT_RESOLUTION};
use fgbd_repro::zerocopy::analyze_capture2_zero_copy;
use fgbd_trace::capture2::{threads_from_env, ChunkCursor};
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{
    read_capture_file, write_capture2, CaptureChunks, CaptureError, NodeKind, NodeMeta, Projection,
    SpanSet, TraceLog,
};

use crate::child;
use crate::e2e::{Ctx, Tally};
use crate::engines::{self, INTERVAL};
use crate::spans::{self_time_by_name, Recorder};
use crate::stats::median;
use crate::workloads::{stream_record_args, tiny_spec, CaptureSpec, Inputs, Scale, Workload};

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the pass produced.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Where the spans were written.
    pub trace_path: PathBuf,
}

/// Median seconds of `reps` calls of `f`, and the last call's result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = black_box(f());
        secs.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&secs), last.expect("at least one repetition"))
}

fn ns_per(secs: f64, n: u64) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

/// A `Write` that only counts, so encode is timed without the disk.
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// --- des ---------------------------------------------------------------------

/// Hold model at 10k pending: each op pops the earliest event and schedules
/// a successor, with the n-tier mix of short delays and rare long timers.
fn des_queue_ns_per_op(ops: u64) -> f64 {
    const PENDING: u64 = 10_000;
    let mut dice = Dice::seed(42);
    let mut offset = move || {
        let us = if dice.chance(0.05) {
            1 + dice.index(5_000_000)
        } else {
            1 + dice.index(20_000)
        };
        SimDuration::from_micros(us as u64)
    };
    let mut q = EventQueue::with_capacity(PENDING as usize);
    let mut now = SimTime::ZERO;
    for i in 0..PENDING {
        q.schedule(now + offset(), i);
    }
    let mut hold = |n: u64| {
        for _ in 0..n {
            let (t, e) = q.pop().expect("hold queue never drains");
            now = t;
            q.schedule(now + offset(), e);
        }
    };
    hold(2 * PENDING);
    let start = Instant::now();
    hold(ops);
    ns_per(start.elapsed().as_secs_f64(), ops)
}

/// Hold model at 64 jobs in service: probe the next completion, drain what
/// is due, admit as many again.
fn des_ps_ns_per_op(ops: u64) -> f64 {
    const JOBS: u64 = 64;
    const LANES: usize = 4;
    let mut dice = Dice::seed(42);
    let mut ps = PsIntegrator::with_lanes(1_000.0, 2, LANES);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut admit = |ps: &mut PsIntegrator, now: SimTime| {
        ps.insert_lane(
            now,
            JobId(next_id),
            dice.uniform_in(0.5, 20.0),
            (next_id % LANES as u64) as usize,
        );
        next_id += 1;
    };
    for _ in 0..JOBS {
        admit(&mut ps, now);
    }
    let mut buf = Vec::with_capacity(JOBS as usize);
    let start = Instant::now();
    for _ in 0..ops {
        now = ps
            .next_completion(now)
            .expect("hold population never drains");
        ps.pop_due_into(now, &mut buf);
        for _ in 0..buf.len() {
            admit(&mut ps, now);
        }
    }
    black_box(ps.len());
    ns_per(start.elapsed().as_secs_f64(), ops)
}

// --- ntier -------------------------------------------------------------------

struct SimProbe {
    host_s: f64,
    sim_s: f64,
    events: u64,
    records: u64,
}

/// One `NTierSystem::run` of the paper deployment, with the `des.events`
/// counter read around it.
fn simulate(
    users: u32,
    secs: u64,
    jdk: Jdk,
    speedstep: bool,
    seed: u64,
    capture: bool,
) -> SimProbe {
    let mut cfg = SystemConfig::paper_1l2s1l2s(users, jdk, speedstep, seed);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.capture = capture;
    let events = |snap: &fgbd_obsv::metrics::MetricsSnapshot| {
        snap.counters.get("des.events").copied().unwrap_or(0)
    };
    let before = events(&fgbd_obsv::metrics::snapshot());
    let start = Instant::now();
    let run = NTierSystem::run(cfg);
    let host_s = start.elapsed().as_secs_f64();
    SimProbe {
        host_s,
        sim_s: (secs + 5) as f64,
        events: events(&fgbd_obsv::metrics::snapshot()) - before,
        records: run.log.records.len() as u64,
    }
}

// --- the pass ----------------------------------------------------------------

struct Sizes {
    reps: usize,
    hold_ops: u64,
    sim_users: u32,
    sim_secs: u64,
    /// Runs of the workload's CLI, and of each of its two replays
    /// (untraced and traced, alternating), that the accounting takes
    /// medians over.
    route_runs: usize,
}

fn sizes(workload: Workload, scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            reps: 3,
            hold_ops: 2_000_000,
            sim_users: 7_000,
            sim_secs: 20,
            // The two simulate-bound workloads run for seconds; one run is
            // what the time cap affords.
            route_runs: if workload.takes_seed() { 3 } else { 1 },
        },
        Scale::Smoke => Sizes {
            reps: 1,
            hold_ops: 50_000,
            sim_users: 500,
            sim_secs: 5,
            route_runs: 1,
        },
    }
}

/// The captures the trace/core/repro probes read. The capture workloads
/// probe their own inputs; the two config workloads probe a capture of
/// their own scenario, cut short.
fn probe_inputs(workload: Workload, ctx: &Ctx, dir: &Path) -> io::Result<Inputs> {
    let spec = match workload {
        Workload::PaperFigures => CaptureSpec {
            file: "probe.cap2".into(),
            jdk: Jdk::Jdk16,
            speedstep: true,
            users: 7_000,
            warmup_s: 5,
            secs: 30,
            seed: ctx.seed,
        },
        Workload::StreamRecord => CaptureSpec {
            file: "probe.cap2".into(),
            jdk: Jdk::Jdk16,
            speedstep: false,
            users: 10_000,
            warmup_s: 1,
            secs: 20,
            seed: ctx.seed,
        },
        _ => return workload.prepare(ctx.seed, ctx.scale, dir),
    };
    let spec = match ctx.scale {
        Scale::Full => spec,
        Scale::Smoke => CaptureSpec {
            users: 500,
            secs: 5,
            ..spec
        },
    };
    let records = spec.generate(dir)?;
    Ok(Inputs {
        captures: vec![dir.join(&spec.file)],
        records,
    })
}

pub fn run(ctx: &Ctx, workload: Workload) -> io::Result<Layers> {
    let err = io::Error::other;
    let sz = sizes(workload, ctx.scale);
    let mut tally = Tally::default();
    let mut m: Vec<Metric> = Vec::new();

    // The routes write `out/` and `target/experiments/` relative to the
    // cwd, like the binaries; keep all of it inside the scratch tree.
    let dir = ctx.fresh_work_dir(workload, "layers")?;
    std::env::set_current_dir(&dir)?;
    fgbd_obsv::set_quiet(true);

    // des, ntier: independent of the workload's inputs.
    m.push((
        "des.queue_ns_per_op",
        des_queue_ns_per_op(sz.hold_ops),
        "ns",
    ));
    m.push(("des.ps_ns_per_op", des_ps_ns_per_op(sz.hold_ops), "ns"));
    let gc = simulate(sz.sim_users, sz.sim_secs, Jdk::Jdk15, false, ctx.seed, true);
    let gc_untapped = simulate(
        sz.sim_users,
        sz.sim_secs,
        Jdk::Jdk15,
        false,
        ctx.seed,
        false,
    );
    let dvfs = simulate(sz.sim_users, sz.sim_secs, Jdk::Jdk16, true, ctx.seed, true);
    m.push(("des.events_per_s", gc.events as f64 / gc.host_s, "1/s"));
    m.push(("ntier.sim_ratio_gc", gc.sim_s / gc.host_s, "x"));
    m.push(("ntier.sim_ratio_dvfs", dvfs.sim_s / dvfs.host_s, "x"));
    m.push(("ntier.records_per_s", gc.records as f64 / gc.host_s, "1/s"));
    m.push((
        "ntier.capture_tap_share",
        1.0 - gc_untapped.host_s / gc.host_s,
        "share",
    ));

    // trace, core, repro: on the workload's captures, summed over files.
    let inputs = probe_inputs(workload, ctx, &dir)?;
    let caps = &inputs.captures;
    let records = inputs.records;
    let (read_s, logs) = timed(sz.reps, || {
        caps.iter()
            .map(|p| read_capture_file(p).expect("read capture"))
            .collect::<Vec<TraceLog>>()
    });
    m.push((
        "trace.read_log_ns_per_record",
        ns_per(read_s, records),
        "ns",
    ));

    let (encode_s, bytes) = timed(sz.reps, || {
        let mut sink = CountingSink(0);
        for log in &logs {
            write_capture2(&mut sink, log).expect("encode capture");
        }
        sink.0
    });
    m.push((
        "trace.encode_ns_per_record",
        ns_per(encode_s, records),
        "ns",
    ));
    m.push((
        "trace.bytes_per_record",
        bytes as f64 / records.max(1) as f64,
        "B",
    ));

    let (open_s, maps) = timed(sz.reps, || {
        caps.iter()
            .map(|p| Mapping::open(p).expect("map capture"))
            .collect::<Vec<Mapping>>()
    });
    m.push(("trace.mmap_open_us", open_s * 1e6 / caps.len() as f64, "us"));
    let drain = |proj: Projection| {
        let mut buf = Vec::new();
        let mut n = 0u64;
        for map in &maps {
            let mut cursor = ChunkCursor::new(map)
                .expect("open cursor")
                .with_projection(proj);
            while cursor.next_chunk(&mut buf).expect("decode chunk") {
                n += buf.len() as u64;
            }
        }
        n
    };
    let (full_s, n) = timed(sz.reps, || drain(Projection::ALL));
    tally.check(n == records, || {
        format!("cursor decoded {n} of {records} records")
    });
    let (proj_s, _) = timed(sz.reps, || drain(Projection::DETECT));
    m.push((
        "trace.cursor_full_ns_per_record",
        ns_per(full_s, records),
        "ns",
    ));
    m.push((
        "trace.cursor_projected_ns_per_record",
        ns_per(proj_s, records),
        "ns",
    ));
    drop(maps);
    let (stream_s, _) = timed(sz.reps, || {
        let mut n = 0usize;
        for p in caps {
            let chunks = CaptureChunks::open(BufReader::new(File::open(p).expect("open capture")))
                .expect("open stream");
            for chunk in chunks {
                n += chunk.expect("decode chunk").len();
            }
        }
        n
    });
    m.push((
        "trace.chunks_stream_ns_per_record",
        ns_per(stream_s, records),
        "ns",
    ));

    let (pair_s, span_sets) = timed(sz.reps, || {
        logs.iter().map(SpanSet::extract).collect::<Vec<SpanSet>>()
    });
    let spans: u64 = span_sets.iter().map(|s| s.len() as u64).sum();
    m.push(("trace.pair_ns_per_record", ns_per(pair_s, records), "ns"));
    m.push((
        "trace.pair_matched_ratio",
        2.0 * spans as f64 / records.max(1) as f64,
        "ratio",
    ));

    // Reconstruction and calibration see the prefix only, as in the product.
    let prefixes: Vec<TraceLog> = logs
        .iter()
        .map(|log| {
            let mut p = TraceLog::new(log.nodes.clone());
            p.records = log.records[..engines::prefix_len(log.records.len())].to_vec();
            p
        })
        .collect();
    let prefix_records: u64 = prefixes.iter().map(|p| p.records.len() as u64).sum();
    let (recon_s, recons) = timed(sz.reps, || {
        prefixes
            .iter()
            .map(|p| Reconstruction::run(p, Heuristic::ProfileGuided))
            .collect::<Vec<_>>()
    });
    let (txns, complete) = recons.iter().fold((0, 0), |(t, c), r| {
        (t + r.txns.len(), c + r.complete_txns())
    });
    m.push((
        "trace.reconstruct_ns_per_record",
        ns_per(recon_s, prefix_records),
        "ns",
    ));
    m.push((
        "trace.reconstruct_complete_ratio",
        complete as f64 / txns.max(1) as f64,
        "ratio",
    ));
    let (svc_s, _) = timed(sz.reps, || {
        recons
            .iter()
            .map(|r| ServiceTimeTable::approximate(r, SERVICE_QUANTILE).len())
            .sum::<usize>()
    });
    m.push(("trace.servicetime_ms", svc_s * 1e3, "ms"));
    drop(recons);

    let (cal_s, cals) = timed(sz.reps, || {
        prefixes
            .iter()
            .map(|p| Calibration::from_capture_prefix(&p.nodes, &p.records))
            .collect::<Vec<_>>()
    });
    m.push(("repro.calibrate_ms", cal_s * 1e3, "ms"));
    m.push((
        "repro.calibrate_prefix_records",
        prefix_records as f64,
        "count",
    ));
    drop(prefixes);

    // core: the batch detector per server, and its two inner stages.
    let cfg = DetectorConfig::default();
    let windows: Vec<Window> = logs
        .iter()
        .map(|log| {
            Window::new(
                log.records[0].at,
                log.records[log.records.len() - 1].at,
                INTERVAL,
            )
        })
        .collect();
    // (capture index, server) for every server the batch engine reports on.
    let servers: Vec<(usize, &NodeMeta)> = logs
        .iter()
        .enumerate()
        .flat_map(|(i, log)| log.nodes.iter().map(move |n| (i, n)))
        .filter(|(i, n)| n.kind == NodeKind::Server && !span_sets[*i].server(n.id).is_empty())
        .collect();
    let (batch_s, reports) = timed(sz.reps, || {
        servers
            .iter()
            .map(|&(i, n)| {
                let cal = &cals[i];
                analyze_server(
                    span_sets[i].server(n.id),
                    n.id,
                    windows[i],
                    &cal.services,
                    cal.work_unit(n.id),
                    &cfg,
                )
            })
            .collect::<Vec<_>>()
    });
    let intervals: u64 = reports.iter().map(|r| r.states.len() as u64).sum();
    m.push(("core.batch_ns_per_span", ns_per(batch_s, spans), "ns"));
    m.push(("core.intervals_per_s", intervals as f64 / batch_s, "1/s"));
    let (series_s, _) = timed(sz.reps, || {
        servers
            .iter()
            .map(|&(i, n)| {
                let cal = &cals[i];
                SeriesSet::from_spans(
                    span_sets[i].server(n.id),
                    windows[i],
                    &cal.services,
                    cal.work_unit(n.id),
                )
            })
            .collect::<Vec<_>>()
    });
    m.push(("core.series_ns_per_span", ns_per(series_s, spans), "ns"));
    let (fit_s, _) = timed(sz.reps, || {
        reports
            .iter()
            .filter_map(|r| {
                nstar::estimate(
                    r.load.values(),
                    &r.tput.unit_rates(),
                    &NStarConfig::default(),
                )
            })
            .count()
    });
    m.push((
        "core.nstar_us_per_fit",
        fit_s * 1e6 / reports.len().max(1) as f64,
        "us",
    ));
    let (render_s, _) = timed(sz.reps, || {
        servers
            .iter()
            .zip(&reports)
            .map(|(&(i, n), r)| engines::render_batch(windows[i], &[(n.name.as_str(), r)]).len())
            .sum::<usize>()
    });
    m.push(("repro.render_ms", render_s * 1e3, "ms"));
    drop(reports);
    drop(span_sets);

    // core: the online detector, calibrated like the zero-copy engine.
    let (mut push_s, mut finish_s, mut state_bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..sz.reps {
        let (mut push, mut finish) = (0.0, 0.0);
        state_bytes = 0;
        for (i, log) in logs.iter().enumerate() {
            let ocfg = OnlineConfig::new(windows[i].start, INTERVAL, WORK_UNIT_RESOLUTION);
            let mut det = OnlineDetector::new(ocfg, cals[i].services.clone());
            for (&node, &wu) in &cals[i].work_units {
                det.set_work_unit(node, wu);
            }
            let start = Instant::now();
            for chunk in log.records.chunks(CHUNK) {
                det.push_chunk(chunk);
            }
            push += start.elapsed().as_secs_f64();
            state_bytes += det.state_bytes();
            let start = Instant::now();
            black_box(det.finish(windows[i].end));
            finish += start.elapsed().as_secs_f64();
        }
        push_s.push(push);
        finish_s.push(finish);
    }
    m.push((
        "core.online_ns_per_record",
        ns_per(median(&push_s), records),
        "ns",
    ));
    m.push(("core.online_finish_ms", median(&finish_s) * 1e3, "ms"));
    m.push(("core.online_state_kib", state_bytes as f64 / 1024.0, "KiB"));

    // repro: the product's zero-copy analysis, and the live monitor with its
    // file writes (uncalibrated, as `--follow` runs it).
    let (zc_s, _) = timed(sz.reps, || {
        caps.iter()
            .map(|p| {
                analyze_capture2_zero_copy(p, INTERVAL, threads_from_env())
                    .expect("zero-copy analysis")
                    .records
            })
            .sum::<u64>()
    });
    m.push((
        "repro.zero_copy_records_per_s",
        records as f64 / zc_s,
        "1/s",
    ));
    m.push(("repro.calibrate_share", cal_s / zc_s, "share"));
    drop(cals);
    let (mon_s, (heartbeats, verdicts)) = timed(sz.reps, || {
        let (mut heartbeats, mut verdicts) = (0, 0);
        for log in &logs {
            let mut mon =
                engines::follow_monitor("benchmark_probe").expect("create monitor outputs");
            for chunk in log.records.chunks(CHUNK) {
                mon.push_chunk(chunk).expect("write monitor telemetry");
            }
            heartbeats += mon.heartbeats();
            verdicts += mon.verdicts();
            mon.finish(log.records[log.records.len() - 1].at)
                .expect("finish monitor");
        }
        (heartbeats, verdicts)
    });
    m.push(("repro.monitor_ns_per_record", ns_per(mon_s, records), "ns"));
    m.push(("repro.monitor_heartbeats", heartbeats as f64, "count"));
    m.push(("repro.monitor_verdicts", verdicts as f64, "count"));
    drop(logs);

    // cli: process start plus manifest writing, on a one-chunk capture.
    let tiny = tiny_spec(ctx.seed);
    tiny.generate(&dir)?;
    let tiny_path = dir.join(&tiny.file).display().to_string();
    let mut fixed = Vec::new();
    for i in 0..2 * sz.reps {
        let out = child::run(
            &ctx.bin_dir.join("analyze_capture"),
            &[&tiny_path, "50", "--quiet"],
            &dir,
            Duration::from_secs(60),
        )?;
        tally.check(out.ok, || {
            format!("analyze_capture on the one-chunk capture failed (run {i})")
        });
        fixed.push(out.wall_s * 1e3);
    }
    m.push(("cli.fixed_ms", median(&fixed), "ms"));

    // The route, replayed: untraced for the wall time, traced for where it
    // goes. The CLI's own wall time says how faithful the replay is.
    let mut cli = Vec::new();
    for i in 0..sz.route_runs {
        let run_dir = dir.join(format!("cli{i}"));
        let r = workload.run_once(&ctx.bin_dir, &inputs, ctx.scale, &run_dir)?;
        tally.check(r.ok, || format!("{}: CLI run {i} failed", workload.name()));
        cli.push(r.wall_s);
        std::fs::remove_dir_all(&run_dir)?;
    }
    let cli_s = median(&cli);
    let replay = |rec: &mut Recorder| -> Result<(f64, Vec<u8>), CaptureError> {
        let start = Instant::now();
        let bytes = route(workload, ctx.scale, rec, &inputs, &dir)?;
        Ok((start.elapsed().as_secs_f64(), bytes))
    };
    let mut rec = Recorder::new(true);
    let (mut untraced, mut traced, mut verdicts) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..sz.route_runs {
        if i > 0 {
            rec.next_run();
        }
        let (plain_s, plain_bytes) = replay(&mut Recorder::new(false)).map_err(err)?;
        let (traced_s, traced_bytes) = replay(&mut rec).map_err(err)?;
        tally.check(plain_bytes == traced_bytes, || {
            "traced and untraced replay rendered different verdicts".into()
        });
        untraced.push(plain_s);
        traced.push(traced_s);
        verdicts = traced_bytes;
    }
    let (untraced_s, traced_s) = (median(&untraced), median(&traced));
    let last_run = sz.route_runs as u32 - 1;

    let own = self_time_by_name(rec.spans(), last_run);
    let composite_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == ROOT && s.run == last_run)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let share = |names: &[&str]| {
        names.iter().filter_map(|n| own.get(n)).sum::<u64>() as f64 / composite_ns.max(1) as f64
    };
    m.push((
        "ntier.sim_share",
        share(&["ntier.simulate", "ntier.simulate_tap"]),
        "share",
    ));
    m.push(("unaccounted_share", share(&[ROOT]), "share"));
    m.push((
        "composite_gap_share",
        (cli_s - untraced_s).abs() / cli_s,
        "share",
    ));
    m.push((
        "trace_overhead_share",
        (traced_s - untraced_s) / untraced_s,
        "share",
    ));

    // Where the route renders verdicts, the other engine must render the
    // same bytes from the same captures — replayed and as shipped.
    if workload.takes_seed() {
        rec.next_run();
        let (mut replayed, mut product) = (Vec::new(), Vec::new());
        for cap in caps {
            replayed.extend(
                rec.span("composite.zero_copy", |rec| {
                    engines::zero_copy_engine(rec, cap)
                })
                .map_err(err)?,
            );
            product.extend(engines::zero_copy_verdicts(cap).map_err(err)?);
        }
        tally.check(replayed == verdicts, || {
            "replayed zero-copy engine and batch route disagree".into()
        });
        tally.check(product == verdicts, || {
            "fgbd_repro zero-copy engine and batch route disagree".into()
        });
    }

    let trace_path = ctx.out_dir.join(format!("trace-{}.json", workload.name()));
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("cli_wall_s".into(), Json::Num(cli_s)),
        ("untraced_wall_s".into(), Json::Num(untraced_s)),
        ("traced_wall_s".into(), Json::Num(traced_s)),
        ("spans".into(), rec.to_json()),
    ]);
    std::fs::write(&trace_path, doc.render())?;

    std::env::set_current_dir(&ctx.out_dir)?;
    std::fs::remove_dir_all(&dir)?;
    Ok(Layers {
        metrics: m,
        tally,
        trace_path,
    })
}

/// The root span of a replayed route.
const ROOT: &str = "composite";

/// Records per `push_chunk` in the probes: the FGBDCAP2 chunk size, which is
/// what the cursor and the tail reader hand the detectors.
const CHUNK: usize = fgbd_trace::capture2::DEFAULT_CHUNK_RECORDS;

/// Replays `workload`'s route once under [`ROOT`] spans (one per capture),
/// returning the verdict bytes it rendered (none for the config workloads).
fn route(
    workload: Workload,
    scale: Scale,
    rec: &mut Recorder,
    inputs: &Inputs,
    dir: &Path,
) -> Result<Vec<u8>, CaptureError> {
    let mut bytes = Vec::new();
    match workload {
        Workload::OfflineLarge | Workload::OfflineSmall => {
            for cap in &inputs.captures {
                bytes.extend(rec.span(ROOT, |rec| -> Result<_, CaptureError> {
                    let log = rec.span("trace.read_log", |_| read_capture_file(cap))?;
                    Ok(engines::batch_engine(rec, &log))
                })?);
            }
        }
        Workload::FollowLarge => {
            bytes = rec.span(ROOT, |rec| engines::follow_route(rec, &inputs.captures[0]))?;
        }
        Workload::StreamRecord => {
            let (users, secs) = stream_record_args(scale);
            rec.span(ROOT, |rec| {
                engines::stream_record_route(rec, users, secs, &dir.join("replay.cap2"))
            })?;
        }
        Workload::PaperFigures => {
            let users = if scale == Scale::Full { 7_000 } else { 500 };
            rec.span(ROOT, |rec| engines::fig05_route(rec, users));
        }
    }
    Ok(bytes)
}
