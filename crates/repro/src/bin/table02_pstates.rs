//! `run_all table02` under the name the benchmark (`benchmark/`) executes: that
//! is the only reason this one-line bin exists (see `experiments::table02`).
//!
//! Standard flags: `--quiet` mutes the `[fgbd:…]` log output. Every run
//! writes a `fgbd.run-manifest/v1` document under `out/manifests/table02.*`.

fn main() {
    fgbd_repro::harness::experiment_main("table02", fgbd_repro::experiments::table02::run);
}
