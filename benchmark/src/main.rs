//! `fgbd-benchmark` — the benchmark of record for the fgbd workspace.
//!
//! ```text
//! fgbd-benchmark --workload W --seed N --seconds S --trace 0|1   one pass, one JSON line
//! fgbd-benchmark all [--seed N] [--seconds S] [--smoke]          every workload, both passes
//! fgbd-benchmark layers --workload W [--seed N]                   the traced pass alone
//! fgbd-benchmark compare A.json B.json                            A/B under the bounds
//! fgbd-benchmark bless                                            regenerate expected.json
//! ```
//!
//! `benchmark/run.sh` builds everything first and is the supported entry
//! point; see `benchmark/README.md`.

mod child;
mod compare;
mod e2e;
mod engines;
mod hygiene;
mod layers;
mod sha256;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use fgbd_obsv::json::Json;

use e2e::{Ctx, DEFAULT_SEED};
use workloads::{Scale, Workload};

/// `run_seconds` of `BENCHMARK.json`, and the default measuring window.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    files: Vec<String>,
}

fn usage() -> String {
    "usage: fgbd-benchmark [all|layers|compare A B|bless] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
     workloads: paper_figures offline_large offline_small follow_large stream_record"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--smoke" => args.scale = Scale::Smoke,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}\n{}", usage()))
            }
            _ if args.command.is_none() => args.command = Some(a),
            _ => args.files.push(a),
        }
    }
    Ok(args)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn run_file(ctx: &Ctx, workload: Workload, trace: bool) -> std::path::PathBuf {
    ctx.out_dir.join(format!(
        "run-{}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ))
}

/// One pass of one workload: the detailed document goes to
/// `<target>/benchmark/run-<W>-trace<T>.json`, the contract's summary to the
/// last line of stdout.
fn single(ctx: &Ctx, workload: Workload, trace: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    let mut doc = vec![
        ("workload".to_string(), Json::Str(workload.name().into())),
        ("trace".into(), Json::Num(f64::from(u8::from(trace)))),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        (
            "seed_varies_inputs".into(),
            Json::Bool(workload.takes_seed()),
        ),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("smoke".into(), Json::Bool(ctx.scale == Scale::Smoke)),
        ("host".into(), hygiene::facts(&hygiene::repo_root())),
    ];
    let (tally, summary) = if trace {
        let l = layers::run(ctx, workload)?;
        let metrics: Vec<(String, Json)> = l
            .metrics
            .iter()
            .map(|&(n, v, u)| (n.to_string(), metric_json(v, u)))
            .collect();
        doc.push((
            "trace_file".into(),
            Json::Str(l.trace_path.display().to_string()),
        ));
        doc.push(("metrics".into(), Json::Obj(metrics.clone())));
        (l.tally, metrics)
    } else {
        let e = e2e::run(ctx, workload)?;
        doc.push(("input_records".into(), Json::Num(e.input_records as f64)));
        doc.push(("metrics".into(), e.samples_json()));
        let summary = e
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), metric_json(v, u)))
            .collect();
        (e.tally, summary)
    };
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    let counts = [
        ("attempted".to_string(), Json::Num(tally.attempted as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
    ];
    doc.extend(counts.clone());
    doc.push((
        "failures".into(),
        Json::Arr(tally.notes.iter().cloned().map(Json::Str).collect()),
    ));
    std::fs::write(
        run_file(ctx, workload, trace),
        Json::Obj(doc).render_pretty(),
    )?;
    let [attempted, failed] = counts;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        attempted,
        failed,
        ("metrics".into(), Json::Obj(summary)),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// Every workload, untraced then traced, each pass in a process of its own
/// (so no pass inherits another's heap or page-cache luck), merged into
/// `<target>/benchmark/results.json` and printed metric by metric.
fn all(ctx: &Ctx) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut merged = Vec::new();
    let mut clean = true;
    for workload in workloads::ALL {
        let pass = |trace: bool| -> std::io::Result<Json> {
            let trace_arg = if trace { "1" } else { "0" };
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace_arg])
                .args(["--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string()])
                .stdout(Stdio::null());
            if ctx.scale == Scale::Smoke {
                cmd.arg("--smoke");
            }
            if !cmd.status()?.success() {
                let name = workload.name();
                return Err(std::io::Error::other(format!(
                    "{name} --trace {trace_arg} did not finish"
                )));
            }
            let text = std::fs::read_to_string(run_file(ctx, workload, trace))?;
            Json::parse(&text).map_err(|e| std::io::Error::other(format!("{e:?}")))
        };
        let (e2e, layers) = (pass(false)?, pass(true)?);
        clean &= [&e2e, &layers]
            .iter()
            .all(|doc| doc.get("failed").and_then(Json::as_f64) == Some(0.0));
        print_workload(ctx, workload, &e2e, &layers);
        merged.push((
            workload.name().to_string(),
            Json::Obj(vec![("e2e".into(), e2e), ("layers".into(), layers)]),
        ));
    }
    let build_s = std::env::var("BENCH_BUILD_S")
        .ok()
        .and_then(|s| s.parse::<f64>().ok());
    let results = Json::Obj(vec![
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("smoke".into(), Json::Bool(ctx.scale == Scale::Smoke)),
        // Informational: it measures the cargo cache, not the program.
        ("build_s".into(), build_s.map_or(Json::Null, Json::Num)),
        ("host".into(), hygiene::facts(&hygiene::repo_root())),
        ("workloads".into(), Json::Obj(merged)),
    ]);
    let path = ctx.out_dir.join("results.json");
    std::fs::write(&path, results.render_pretty())?;
    if let Some(b) = build_s {
        println!("build_s {b:.1} s (informational, not part of setup_s)");
    }
    println!("wrote {}", path.display());
    Ok(clean)
}

fn print_workload(ctx: &Ctx, workload: Workload, e2e: &Json, layers: &Json) {
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!("== {} ==", workload.name());
    if !workload.takes_seed() {
        println!("  (the binaries pin MASTER_SEED: --seed does not vary this workload)");
    }
    let mut wall = f64::NAN;
    for (name, m) in e2e.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!(
            "  {name:<38} {:>14.4} {unit:<6} (min {:.4}, max {:.4}, N {})",
            num(m, "median"),
            num(m, "min"),
            num(m, "max"),
            num(m, "n")
        );
        if name == "wall_s" {
            wall = num(m, "median");
        }
    }
    let records = num(e2e, "input_records");
    if records > 0.0 {
        println!(
            "  {:<38} {:>14.0} 1/s    (derived: {records} input records / wall_s)",
            "records_per_s",
            records / wall
        );
    }
    if workload == Workload::FollowLarge {
        // How many times real time the live path sustains.
        let spec = &workload.specs(ctx.seed, ctx.scale)[0];
        let trace_s = (spec.warmup_s + spec.secs) as f64;
        println!(
            "  {:<38} {:>14.1} x      (derived: {trace_s} trace seconds / wall_s)",
            "trace_s_per_wall_s",
            trace_s / wall
        );
    }
    println!(
        "  {:<38} {:>14} of {} ops",
        "failed_ops",
        num(e2e, "failed") + num(layers, "failed"),
        num(e2e, "attempted") + num(layers, "attempted")
    );
    for (name, m) in layers.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<38} {:>14.4} {unit}", num(m, "value"));
    }
}

/// Regenerates `benchmark/expected.json` from one run of every workload at
/// the default seed. For a benchmark PR only: it redefines "correct".
fn bless(ctx: &Ctx) -> std::io::Result<()> {
    let mut outputs = Vec::new();
    for workload in workloads::ALL {
        let dir = ctx.fresh_work_dir(workload, "bless")?;
        let inputs = workload.prepare(DEFAULT_SEED, Scale::Full, &dir)?;
        let run = workload.run_once(&ctx.bin_dir, &inputs, Scale::Full, &dir.join("run"))?;
        if !run.ok {
            return Err(std::io::Error::other(format!(
                "{}: run failed, nothing blessed",
                workload.name()
            )));
        }
        outputs.push((workload, run.outputs));
        std::fs::remove_dir_all(&dir)?;
    }
    let path = hygiene::repo_root().join("benchmark").join("expected.json");
    std::fs::write(&path, e2e::expected_json(&outputs).render_pretty() + "\n")?;
    println!("wrote {}; rebuild to take it into account", path.display());
    Ok(())
}

fn compare_files(files: &[String]) -> Result<usize, String> {
    let [base, new] = files else {
        return Err(format!("compare takes two result files\n{}", usage()));
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    let bench = hygiene::repo_root().join("BENCHMARK.json");
    let rules = compare::rules(&load(&bench.display().to_string())?)
        .ok_or("BENCHMARK.json: malformed end_to_end list")?;
    Ok(compare::compare(&load(base)?, &load(new)?, &rules))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() == Some("compare") {
        return match compare_files(&args.files) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("{n} regressed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }

    // Refuse to measure anything but the defaults, or stale binaries.
    let leaked = hygiene::fgbd_env();
    if !leaked.is_empty() {
        eprintln!(
            "refusing to start: {} set in the environment would change the route the binaries take; unset and rerun",
            leaked.join(", ")
        );
        return ExitCode::from(2);
    }
    let bin_dir = hygiene::bin_dir();
    if let Err(e) = hygiene::check_binaries(&bin_dir, &hygiene::repo_root()) {
        eprintln!("refusing to start: {e}");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        out_dir: bin_dir
            .parent()
            .expect("release/ has a parent")
            .join("benchmark"),
        bin_dir,
        scale: args.scale,
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = match (args.command.as_deref(), args.workload) {
        (None, Some(w)) => single(&ctx, w, args.trace).map(|()| true),
        (Some("layers"), Some(w)) => single(&ctx, w, true).map(|()| true),
        (Some("all"), None) => all(&ctx),
        (Some("bless"), None) => bless(&ctx).map(|()| true),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("failed_ops is not 0");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fgbd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
