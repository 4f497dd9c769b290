//! The five workloads: what each generates as input, which shipped binaries
//! one run of it executes, and which files that run leaves to be verified.
//!
//! Every workload is a closed batch job: its input is complete before the
//! clock starts, one child runs at a time, and the driver adds no threads
//! of its own (the host has 2 cores; whatever threads a binary starts by
//! default are the program's).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_trace::capture2::ChunkCursor;
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::write_capture2;

use crate::child;
use crate::sha256;

/// A child still running after this long counts as a failed operation.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Full size is what the benchmark of record measures; smoke is the
/// seconds-long pass the crate's own test drives through every code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFigures,
    OfflineLarge,
    OfflineSmall,
    FollowLarge,
    StreamRecord,
}

pub const ALL: [Workload; 5] = [
    Workload::PaperFigures,
    Workload::OfflineLarge,
    Workload::OfflineSmall,
    Workload::FollowLarge,
    Workload::StreamRecord,
];

/// One simulated capture to generate: the paper's 1L/2S/1L/2S deployment at
/// the given knobs.
#[derive(Debug, Clone)]
pub struct CaptureSpec {
    pub file: String,
    pub jdk: Jdk,
    pub speedstep: bool,
    pub users: u32,
    pub warmup_s: u64,
    pub secs: u64,
    pub seed: u64,
}

impl CaptureSpec {
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_1l2s1l2s(self.users, self.jdk, self.speedstep, self.seed);
        cfg.warmup = SimDuration::from_secs(self.warmup_s);
        cfg.duration = SimDuration::from_secs(self.secs);
        cfg
    }

    /// Simulates the spec and writes its capture as FGBDCAP2; returns the
    /// record count.
    pub fn generate(&self, dir: &Path) -> io::Result<u64> {
        let run = NTierSystem::run(self.config());
        let mut w = BufWriter::new(File::create(dir.join(&self.file))?);
        write_capture2(&mut w, &run.log).map_err(io::Error::other)?;
        w.flush()?;
        Ok(run.log.records.len() as u64)
    }
}

/// The long tap: JDK 1.5 serial GC (so there are frozen intervals to find),
/// SpeedStep off, 10,000 users. Long enough that the 1 Mi-record
/// calibration prefix is a minority of the file.
fn large_spec(seed: u64, scale: Scale) -> CaptureSpec {
    let (users, secs) = match scale {
        Scale::Full => (10_000, 45),
        Scale::Smoke => (2_000, 8),
    };
    CaptureSpec {
        file: "large.cap2".into(),
        jdk: Jdk::Jdk15,
        speedstep: false,
        users,
        warmup_s: 5,
        secs,
        seed,
    }
}

/// Twelve short taps: the four case-study scenarios at three light
/// workloads each. The whole of each file is calibration prefix, and
/// process start is a visible share of each analysis.
fn small_specs(seed: u64, scale: Scale) -> Vec<CaptureSpec> {
    let scenarios = [
        ("gc_jdk15", Jdk::Jdk15, false),
        ("gc_jdk16", Jdk::Jdk16, false),
        ("speedstep_on", Jdk::Jdk16, true),
        ("speedstep_off", Jdk::Jdk16, false),
    ];
    let (levels, secs): (&[u32], u64) = match scale {
        Scale::Full => (&[1_000, 2_000, 3_000], 20),
        Scale::Smoke => (&[300], 5),
    };
    let mut specs = Vec::new();
    for (name, jdk, speedstep) in scenarios {
        for &users in levels {
            specs.push(CaptureSpec {
                file: format!("{name}_{users}.cap2"),
                jdk,
                speedstep,
                users,
                warmup_s: 5,
                secs,
                seed: seed.wrapping_add(specs.len() as u64),
            });
        }
    }
    specs
}

/// A one-chunk capture: what `cli.fixed_ms` runs `analyze_capture` on to
/// time process start plus manifest writing with next to no analysis.
pub fn tiny_spec(seed: u64) -> CaptureSpec {
    CaptureSpec {
        file: "tiny.cap2".into(),
        jdk: Jdk::Jdk16,
        speedstep: false,
        users: 200,
        warmup_s: 2,
        secs: 4,
        seed,
    }
}

/// `million_users` arguments: users and measured seconds (it adds a 1 s
/// warm-up itself).
pub fn stream_record_args(scale: Scale) -> (u32, u64) {
    match scale {
        Scale::Full => (10_000, 45),
        Scale::Smoke => (1_000, 4),
    }
}

/// Inputs generated for one workload.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    pub captures: Vec<PathBuf>,
    pub records: u64,
}

/// What one run of a workload cost, and what it left behind.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    /// Every child exited 0 before its deadline.
    pub ok: bool,
    /// Output label → digest (or, for `stream_record`, the record count).
    pub outputs: BTreeMap<String, String>,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper_figures",
            Workload::OfflineLarge => "offline_large",
            Workload::OfflineSmall => "offline_small",
            Workload::FollowLarge => "follow_large",
            Workload::StreamRecord => "stream_record",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The figure and record binaries pin `MASTER_SEED`, so `--seed` does
    /// not vary these workloads and their outputs are checked against
    /// `expected.json` at every seed.
    pub fn takes_seed(self) -> bool {
        !matches!(self, Workload::PaperFigures | Workload::StreamRecord)
    }

    pub fn specs(self, seed: u64, scale: Scale) -> Vec<CaptureSpec> {
        match self {
            Workload::OfflineLarge | Workload::FollowLarge => vec![large_spec(seed, scale)],
            Workload::OfflineSmall => small_specs(seed, scale),
            Workload::PaperFigures | Workload::StreamRecord => Vec::new(),
        }
    }

    /// Generates this workload's inputs into `dir`.
    pub fn prepare(self, seed: u64, scale: Scale, dir: &Path) -> io::Result<Inputs> {
        let mut inputs = Inputs::default();
        for spec in self.specs(seed, scale) {
            inputs.records += spec.generate(dir)?;
            inputs.captures.push(dir.join(&spec.file));
        }
        Ok(inputs)
    }

    /// The children of one run, in order: binary name and arguments.
    /// `--quiet` everywhere: the terminal is not part of the workload.
    fn commands(self, inputs: &Inputs, scale: Scale) -> Vec<(&'static str, Vec<String>)> {
        let analyze = |follow: bool| -> Vec<(&'static str, Vec<String>)> {
            inputs
                .captures
                .iter()
                .enumerate()
                .map(|(i, cap)| {
                    let mut args = vec![cap.display().to_string(), "50".into()];
                    if follow {
                        args.push("--follow".into());
                    }
                    args.extend([
                        "--verdicts".into(),
                        format!("verdicts_{i:02}.jsonl"),
                        "--quiet".into(),
                    ]);
                    ("analyze_capture", args)
                })
                .collect()
        };
        match self {
            Workload::PaperFigures => {
                let mut bins = vec![
                    "fig06_load_calc",
                    "fig07_mixclass_example",
                    "table02_pstates",
                ];
                if scale == Scale::Full {
                    bins.insert(0, "fig05_mysql_finegrained");
                }
                bins.into_iter()
                    .map(|b| (b, vec!["--quiet".to_string()]))
                    .collect()
            }
            Workload::OfflineLarge | Workload::OfflineSmall => analyze(false),
            Workload::FollowLarge => analyze(true),
            Workload::StreamRecord => {
                let (users, secs) = stream_record_args(scale);
                vec![(
                    "million_users",
                    vec![
                        users.to_string(),
                        secs.to_string(),
                        "out.cap2".into(),
                        "--quiet".into(),
                    ],
                )]
            }
        }
    }

    /// Runs the workload once in the fresh directory `run_dir` (the
    /// binaries write `out/` and `target/experiments/` relative to their
    /// cwd), one child after another.
    pub fn run_once(
        self,
        bin_dir: &Path,
        inputs: &Inputs,
        scale: Scale,
        run_dir: &Path,
    ) -> io::Result<RunResult> {
        std::fs::create_dir_all(run_dir)?;
        let mut res = RunResult {
            wall_s: 0.0,
            peak_rss_mib: 0.0,
            ok: true,
            outputs: BTreeMap::new(),
        };
        for (bin, args) in self.commands(inputs, scale) {
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let out = child::run(&bin_dir.join(bin), &args, run_dir, CHILD_TIMEOUT)?;
            res.wall_s += out.wall_s;
            res.peak_rss_mib = res.peak_rss_mib.max(out.peak_rss_mib);
            res.ok &= out.ok;
        }
        if res.ok {
            res.outputs = self.outputs(run_dir)?;
        }
        Ok(res)
    }

    /// The verified outputs of a finished run: the final verdict streams,
    /// the paper artifacts, or the count of records `million_users` wrote.
    /// Run manifests are left out — they hold timings.
    fn outputs(self, run_dir: &Path) -> io::Result<BTreeMap<String, String>> {
        let mut out = BTreeMap::new();
        match self {
            Workload::StreamRecord => {
                let map = Mapping::open(&run_dir.join("out.cap2"))?;
                let records = ChunkCursor::new(&map)
                    .map_err(io::Error::other)?
                    .total_records();
                out.insert("records".into(), records.to_string());
            }
            Workload::PaperFigures => {
                digest_dir(&run_dir.join("target").join("experiments"), &mut out)?
            }
            _ => {
                digest_dir(run_dir, &mut out)?;
                out.retain(|name, _| name.starts_with("verdicts_"));
            }
        }
        Ok(out)
    }
}

/// Digests every regular file directly inside `dir`, keyed by file name.
fn digest_dir(dir: &Path, out: &mut BTreeMap<String, String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.insert(name, sha256::hex(&std::fs::read(entry.path())?));
        }
    }
    Ok(())
}
