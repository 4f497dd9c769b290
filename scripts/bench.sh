#!/bin/sh
# Runs the analysis benchmarks and condenses Criterion's estimates into a
# single BENCH_analysis.json at the repo root: { "<bench id>": median_ns }.
# Covers every group in benches/analysis.rs, including the `reconstruction`
# and `extract_spans` (dense fast paths vs references) and `pipeline`
# (end-to-end simulate → reconstruct → calibrate → detect) groups, plus
# the `event_queue` bench (timing wheel vs reference heap: the steady-state
# hold model, and the boot shape — drain, schedule 10,000 first thinks from
# one `now`, drain), the
# `capture_format/chunked_*` benches (FGBDCAP2 columnar write + 1/4-thread
# parallel read vs the flat FGBDCAP1 baseline on the 200k-record
# fixture), and the `online_detect` bench
# (streaming per-record push at several live-window widths vs the batch
# detector over the same materialized capture), the `ps_integrator` bench
# (lane/cached-tournament PS hold + probe vs the heap reference, with a
# freeze-churn spill variant), the `simulate_hot_loop` bench
# (events/s of the end-to-end single-core simulate stage across baseline,
# DVFS, and serial-GC schedules), and the `capture_cursor` bench (lazy
# chunk cursor vs the batch FGBDCAP2 reader: full vs projected column
# decode, time-range chunk pruning, and the mmap-backed pass).
#
# If any run manifests exist under out/manifests/ (written by the
# fgbd-repro binaries, see crates/obsv), the newest one's per-stage wall
# times are folded in as "manifest:<run>/<span path>": total_ns keys
# (replacing that run's previous keys, leaving other runs' alone), along
# with its peak RSS and, where the run stamps one, its simulate rate
# (`sim_events_per_s`), so one file tracks both microbenchmark medians and
# real-run stage costs.
#
#   scripts/bench.sh            # bench + summarize
#   scripts/bench.sh --no-run   # summarize an existing target/criterion
set -e
cd "$(dirname "$0")/.."

if [ "$1" != "--no-run" ]; then
    cargo bench -p fgbd-bench --bench analysis
    cargo bench -p fgbd-bench --bench event_queue
    cargo bench -p fgbd-bench --bench online_detect
    cargo bench -p fgbd-bench --bench ps_integrator
    cargo bench -p fgbd-bench --bench simulate_hot_loop
    cargo bench -p fgbd-bench --bench capture_cursor
fi

python3 - <<'EOF'
import json
import os

# Criterion normally writes to the workspace target dir, but depending on
# CARGO_TARGET_DIR / cwd the tree can land under the bench package instead.
roots = [r for r in ("target/criterion", "crates/bench/target/criterion")
         if os.path.isdir(r)]
# Start from the committed summary so a partial run (--no-run with no
# criterion tree, or a filtered bench) refreshes rather than wipes it.
out = {}
if os.path.exists("BENCH_analysis.json"):
    with open("BENCH_analysis.json") as f:
        out = json.load(f)
for root in roots:
    for dirpath, _dirnames, filenames in os.walk(root):
        if "estimates.json" not in filenames:
            continue
        # Criterion writes <id>/new/estimates.json (and keeps a <id>/base
        # copy); only the fresh measurement is wanted.
        if os.path.basename(dirpath) != "new":
            continue
        bench_id = os.path.relpath(os.path.dirname(dirpath), root)
        with open(os.path.join(dirpath, "estimates.json")) as f:
            est = json.load(f)
        out[bench_id] = est["median"]["point_estimate"]

# Fold in the newest run manifest's per-stage wall times, if any exist.
# Stages come from the span tree (crates/obsv), so the keys mirror the
# collapsed-stack paths: "manifest:fig06/pipeline;detect". The keys this
# run left in previous summaries are dropped first (a renamed or removed
# stage must not linger); other runs' keys stay, since
# scripts/check_stage_regression reads the baseline of *its* run from here.
manifest_dir = "out/manifests"
if os.path.isdir(manifest_dir):
    manifests = [os.path.join(manifest_dir, n)
                 for n in os.listdir(manifest_dir) if n.endswith(".json")]
    if manifests:
        newest = max(manifests, key=os.path.getmtime)
        with open(newest) as f:
            doc = json.load(f)
        prefix = f"manifest:{doc.get('name', '?')}/"
        out = {k: v for k, v in out.items() if not k.startswith(prefix)}
        for stage in doc.get("stages", []):
            out[prefix + stage["path"]] = stage["total_ns"]
        # Peak RSS rides along with the stage times (crates/repro/harness
        # stamps vm_hwm_kib into every manifest on Linux) so memory
        # regressions in the zero-copy path show up next to time ones.
        # ... and so does the simulate stage's rate, where the run stamps
        # one (million_users: des.events delta / simulate seconds).
        for field in ("vm_hwm_kib", "sim_events_per_s"):
            if field in doc:
                out[prefix + field] = doc[field]
        print(f"folded {len(doc.get('stages', []))} stages from {newest}")

with open("BENCH_analysis.json", "w") as f:
    json.dump(dict(sorted(out.items())), f, indent=2)
    f.write("\n")
print(f"wrote BENCH_analysis.json ({len(out)} benches)")
EOF
