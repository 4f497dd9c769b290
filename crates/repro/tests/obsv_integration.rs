//! Telemetry under the harness's fork/join parallelism: worker spans must
//! aggregate into one coherent tree across [`fgbd_repro::par::par_map`]
//! (including the nested-inline case), and instrument totals must stay
//! exact under arbitrary thread interleavings.

use fgbd_repro::par::par_map;
use proptest::prelude::*;

/// Spans opened inside `par_map` jobs — and inside a *nested* `par_map`
/// that re-enters inline on the worker thread — merge under the span
/// that forked the work, with exact call counts. Nothing floats at top
/// level and no calls are lost to the scope join.
#[test]
fn par_map_worker_spans_merge_into_one_tree() {
    const ITEMS: u64 = 24;
    const INNER: u64 = 4;
    let before = fgbd_obsv::span::snapshot();
    let items: Vec<u64> = (0..ITEMS).collect();
    let sums = {
        fgbd_obsv::span!("t_int_fork_root");
        par_map(&items, |&x| {
            let _job = fgbd_obsv::span::enter("t_int_job");
            let inner: Vec<u64> = (0..INNER).collect();
            par_map(&inner, |&y| {
                fgbd_obsv::span!("t_int_inner");
                x + y
            })
            .into_iter()
            .sum::<u64>()
        })
    };
    assert_eq!(sums.len(), items.len());

    let after = fgbd_obsv::span::snapshot().delta(&before);
    assert_eq!(after.spans["t_int_fork_root"].calls, 1);
    assert_eq!(
        after.spans["t_int_fork_root;t_int_job"].calls, ITEMS,
        "every job span must land under the forking root"
    );
    assert_eq!(
        after.spans["t_int_fork_root;t_int_job;t_int_inner"].calls,
        ITEMS * INNER,
        "nested inline par_map spans must nest under the job span"
    );
    assert!(
        !after.spans.contains_key("t_int_job") && !after.spans.contains_key("t_int_inner"),
        "no worker span may float at top level: {:?}",
        after.spans.keys().collect::<Vec<_>>()
    );
}

/// The same merge discipline holds when the fan-out happens inside an
/// already-open span stack more than one deep.
#[test]
fn par_map_adopts_multi_level_span_paths() {
    let before = fgbd_obsv::span::snapshot();
    let items: Vec<u32> = (0..9).collect();
    {
        fgbd_obsv::span!("t_int_deep_a");
        fgbd_obsv::span!("t_int_deep_b");
        par_map(&items, |&x| {
            fgbd_obsv::span!("t_int_deep_leaf");
            x * 2
        });
    }
    let after = fgbd_obsv::span::snapshot().delta(&before);
    assert_eq!(
        after.spans["t_int_deep_a;t_int_deep_b;t_int_deep_leaf"].calls,
        9
    );
}

proptest! {
    /// Counter totals are exact under arbitrary interleavings: however
    /// the increments are split across threads, the snapshot delta equals
    /// the arithmetic truth. The counter's name belongs to this property
    /// alone: the registry is process-wide, so a second writer would show
    /// up in the delta.
    #[test]
    fn counter_totals_are_exact_under_interleavings(
        increments in prop::collection::vec(0u64..1_000, 1..96),
        threads in 1usize..8,
    ) {
        let before = fgbd_obsv::metrics::snapshot();
        std::thread::scope(|s| {
            for t in 0..threads {
                let chunk: Vec<u64> = increments
                    .iter()
                    .copied()
                    .skip(t)
                    .step_by(threads)
                    .collect();
                s.spawn(move || {
                    for v in chunk {
                        fgbd_obsv::counter!("t_int_interleavings_total", v);
                    }
                });
            }
        });
        let d = fgbd_obsv::metrics::snapshot().delta(&before);
        let expected: u64 = increments.iter().sum();
        let got = d.counters.get("t_int_interleavings_total").copied().unwrap_or(0);
        prop_assert_eq!(got, expected, "counter total must equal the sum of increments");
    }
}

/// The harness registers every test of this binary — the property above
/// included — exactly once. (The `proptest!` shim once re-emitted
/// `#[test]`, which ran each property twice, in parallel, against the
/// shared metrics registry.)
#[test]
fn harness_lists_each_test_once() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).expect("utf-8 listing");
    let mut names: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.strip_suffix(": test"))
        .collect();
    assert!(
        names.contains(&"counter_totals_are_exact_under_interleavings"),
        "property missing from {names:?}"
    );
    let listed = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        listed,
        "a test is registered twice:\n{listing}"
    );
}
