//! `run_all fig05` under the name the benchmark (`benchmark/`) executes: that
//! is the only reason this one-line bin exists (see `experiments::fig05`).
//!
//! Standard flags: `--quiet` mutes the `[fgbd:…]` log output. Every run
//! writes a `fgbd.run-manifest/v1` document under `out/manifests/fig05.*`.

fn main() {
    fgbd_repro::harness::experiment_main("fig05", fgbd_repro::experiments::fig05::run);
}
