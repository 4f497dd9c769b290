//! Hierarchical span timers with thread-local collection.
//!
//! Every thread accumulates `(path → calls, nanoseconds)` into a private
//! map (no synchronization on the enter/exit path beyond one relaxed
//! atomic load for the enabled check). The map drains into a process
//! global when the thread exits, or explicitly via [`flush_thread`] —
//! worker pools call it before joining so [`snapshot`] sees a complete,
//! coherent tree.
//!
//! Fork/join integration: a worker pool captures the caller's
//! [`current_path`] once and each worker [`adopt_path`]s it, so spans
//! opened on worker threads root *under* the span that spawned the work
//! instead of floating at top level. Nested pools that re-enter inline on
//! the same worker thread need nothing special — their spans nest
//! naturally on that thread's stack.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Aggregate statistics of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span closed.
    pub calls: u64,
    /// Total wall time across those calls, in nanoseconds.
    pub ns: u64,
}

type PathMap = HashMap<Vec<&'static str>, SpanStat>;

#[derive(Default)]
struct Collector {
    stack: Vec<&'static str>,
    stats: PathMap,
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Thread exit: hand the thread's accumulated tree to the global.
        merge_into_global(&mut self.stats);
    }
}

thread_local! {
    static TLS: RefCell<Collector> = RefCell::new(Collector::default());
}

fn global() -> &'static Mutex<PathMap> {
    static GLOBAL: OnceLock<Mutex<PathMap>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(HashMap::new()))
}

fn merge_into_global(stats: &mut PathMap) {
    if stats.is_empty() {
        return;
    }
    let mut g = global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (path, stat) in stats.drain() {
        let e = g.entry(path).or_default();
        e.calls += stat.calls;
        e.ns += stat.ns;
    }
}

/// Closes its span when dropped. Inert (records nothing, pops nothing)
/// when telemetry was disabled at [`enter`] time.
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens the span `name` under the current thread's span path and
/// returns a guard that closes it on drop. Prefer the [`crate::span!`]
/// macro for whole-scope spans.
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None };
    }
    TLS.with(|c| c.borrow_mut().stack.push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        TLS.with(|c| {
            let mut c = c.borrow_mut();
            let path = c.stack.clone();
            let stat = c.stats.entry(path).or_default();
            stat.calls += 1;
            stat.ns += ns;
            c.stack.pop();
        });
    }
}

/// The current thread's open span path, outermost first. Cheap: a clone
/// of a small `Vec<&'static str>`.
pub fn current_path() -> Vec<&'static str> {
    TLS.with(|c| c.borrow().stack.clone())
}

/// Roots this thread's future spans under `base` — called once by worker
/// threads with the spawning caller's [`current_path`], so worker span
/// trees merge under the span that forked the work. A no-op if the
/// thread already has open spans (adoption is only meaningful on a fresh
/// worker).
pub fn adopt_path(base: &[&'static str]) {
    TLS.with(|c| {
        let mut c = c.borrow_mut();
        if c.stack.is_empty() {
            c.stack.extend_from_slice(base);
        }
    });
}

/// Drains the current thread's span statistics into the process-global
/// aggregate. Worker threads call this after their last span closes and
/// before terminating — the thread-exit backstop (the TLS collector's
/// `Drop`) is not guaranteed to run before a joiner observes the thread
/// as finished, so an explicit flush is what makes the worker's spans
/// visible to the joiner's [`snapshot`]. The thread whose view you
/// snapshot is flushed automatically by [`snapshot`] itself.
pub fn flush_thread() {
    TLS.with(|c| merge_into_global(&mut c.borrow_mut().stats));
}

/// A point-in-time copy of the process-global span aggregate, keyed by
/// the `;`-joined span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `path → stat`, ordered by path.
    pub spans: BTreeMap<String, SpanStat>,
}

/// Takes a snapshot of every span closed so far (flushing the calling
/// thread first). Spans still held open on other threads are not
/// included until they close and those threads flush.
pub fn snapshot() -> SpanSnapshot {
    flush_thread();
    let g = global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    SpanSnapshot {
        spans: g.iter().map(|(k, v)| (k.join(";"), *v)).collect(),
    }
}

impl SpanSnapshot {
    /// The spans accumulated since `earlier` — per-run views over a
    /// process-cumulative aggregate. Paths with no new calls are dropped.
    pub fn delta(&self, earlier: &SpanSnapshot) -> SpanSnapshot {
        let spans = self
            .spans
            .iter()
            .filter_map(|(path, stat)| {
                let base = earlier.spans.get(path).copied().unwrap_or_default();
                let calls = stat.calls.saturating_sub(base.calls);
                if calls == 0 {
                    return None;
                }
                Some((
                    path.clone(),
                    SpanStat {
                        calls,
                        ns: stat.ns.saturating_sub(base.ns),
                    },
                ))
            })
            .collect();
        SpanSnapshot { spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_aggregate_by_path() {
        let _g = crate::test_sync::hold();
        let before = snapshot();
        {
            let _a = enter("t_outer");
            for _ in 0..3 {
                let _b = enter("t_inner");
            }
        }
        let after = snapshot().delta(&before);
        assert_eq!(after.spans["t_outer"].calls, 1);
        assert_eq!(after.spans["t_outer;t_inner"].calls, 3);
        assert!(after.spans["t_outer"].ns >= after.spans["t_outer;t_inner"].ns);
    }

    #[test]
    fn disabled_spans_record_nothing_and_balance_the_stack() {
        let _g = crate::test_sync::hold();
        let before = snapshot();
        crate::set_enabled(false);
        {
            let _a = enter("t_disabled_outer");
            let _b = enter("t_disabled_inner");
        }
        crate::set_enabled(true);
        assert!(
            current_path().is_empty(),
            "disabled guards must not leak stack entries"
        );
        let after = snapshot().delta(&before);
        assert!(!after.spans.contains_key("t_disabled_outer"));
    }

    #[test]
    fn worker_thread_spans_merge_under_adopted_path() {
        let _g = crate::test_sync::hold();
        let before = snapshot();
        {
            let _root = enter("t_fork_root");
            let base = current_path();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let base = base.clone();
                    s.spawn(move || {
                        adopt_path(&base);
                        {
                            let _w = enter("t_fork_worker");
                        }
                        // After all spans close: the thread-exit backstop is
                        // not ordered before the scope join, so workers flush
                        // explicitly.
                        flush_thread();
                    });
                }
            });
        }
        let after = snapshot().delta(&before);
        assert_eq!(after.spans["t_fork_root;t_fork_worker"].calls, 2);
        assert!(!after.spans.contains_key("t_fork_worker"));
    }
}
