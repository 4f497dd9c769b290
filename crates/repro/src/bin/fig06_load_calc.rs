//! `run_all fig06` under the name the benchmark (`benchmark/`) executes: that
//! is the only reason this one-line bin exists (see `experiments::fig06`).
//!
//! Standard flags: `--quiet` mutes the `[fgbd:…]` log output. Every run
//! writes a `fgbd.run-manifest/v1` document under `out/manifests/fig06.*`.

fn main() {
    fgbd_repro::harness::experiment_main("fig06", fgbd_repro::experiments::fig06::run);
}
