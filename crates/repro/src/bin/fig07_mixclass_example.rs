//! `run_all fig07` under the name the benchmark (`benchmark/`) executes: that
//! is the only reason this one-line bin exists (see `experiments::fig07`).
//!
//! Standard flags: `--quiet` mutes the `[fgbd:…]` log output. Every run
//! writes a `fgbd.run-manifest/v1` document under `out/manifests/fig07.*`.

fn main() {
    fgbd_repro::harness::experiment_main("fig07", fgbd_repro::experiments::fig07::run);
}
