//! The one way to regenerate paper artifacts: `run_all [<id>...]` runs the
//! named experiments in paper order (all 19 when no id is given), saving
//! summaries and CSV series under `target/experiments/` and one run
//! manifest per experiment under `out/manifests/`. An unknown id lists the
//! ids on stderr and exits 2 with nothing written.
//!
//! Standard flags: `--quiet` mutes the `[fgbd:…]` log output.

fn main() {
    let ids = fgbd_repro::harness::parse_std_flags();
    let experiments = fgbd_repro::experiments::select(&ids).unwrap_or_else(|unknown| {
        let known: Vec<_> = fgbd_repro::experiments::all().iter().map(|e| e.0).collect();
        eprintln!("run_all: unknown experiment {unknown:?}");
        eprintln!(
            "usage: run_all [<id>...] [--quiet]\nids: {}",
            known.join(" ")
        );
        std::process::exit(2);
    });
    // One manifest per experiment, each summary printed as it lands.
    for &(name, f) in &experiments {
        fgbd_obsv::log!("run_all", ">> running {name}");
        fgbd_repro::harness::run_experiment(name, f);
    }
    fgbd_obsv::log!(
        "run_all",
        "== all experiments complete: {} artifacts ==",
        experiments.len()
    );
}
