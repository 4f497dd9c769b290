//! Monotonic counters.
//!
//! Counters are registered lazily by `&'static str` name (plus an
//! optional `&'static str` label) and live for the process lifetime, so
//! call sites can cache the returned reference in a `OnceLock` — the
//! [`crate::counter!`] macro does exactly that. All updates are single
//! relaxed atomic RMWs; totals are exact under arbitrary thread
//! interleavings because addition commutes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (usable in `static` position).
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

type Key = (&'static str, &'static str);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn counters() -> &'static Mutex<BTreeMap<Key, &'static Counter>> {
    static R: OnceLock<Mutex<BTreeMap<Key, &'static Counter>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The counter named `name`, registering it on first use. Repeated calls
/// return the same instance.
pub fn counter(name: &'static str) -> &'static Counter {
    counter_labeled(name, "")
}

/// The `(name, label)` counter — for per-variant counts whose label is
/// only known at runtime from a static set (e.g. scenario names).
pub fn counter_labeled(name: &'static str, label: &'static str) -> &'static Counter {
    lock(counters())
        .entry((name, label))
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

fn retained() -> &'static Mutex<BTreeSet<&'static str>> {
    static R: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Like [`counter`], but the counter is *retained* in snapshot deltas:
/// [`MetricsSnapshot::delta`] normally drops untouched counters, which
/// makes "this never happened" indistinguishable from "this was never
/// measured". Retained counters always appear in deltas once registered,
/// explicitly reporting zero — the right contract for health metrics like
/// backpressure stall counts, where 0 is the finding.
pub fn counter_retained(name: &'static str) -> &'static Counter {
    lock(retained()).insert(name);
    counter(name)
}

/// A point-in-time copy of every registered counter, keyed by `name` or
/// `name{label}`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
}

fn key_string((name, label): Key) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// Peak resident set size of this process in KiB, from the kernel's
/// `VmHWM` accounting in `/proc/self/status`. `None` off Linux or when
/// `/proc` is unavailable. This is the memory evidence every run manifest
/// records (see the repro harness), so flat-memory claims — streaming
/// capture writers, the zero-copy analysis path — are tracked per run
/// just like stage wall times.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Snapshots every registered counter.
pub fn snapshot() -> MetricsSnapshot {
    let counters = lock(counters())
        .iter()
        .map(|(&k, c)| (key_string(k), c.get()))
        .collect();
    MetricsSnapshot { counters }
}

impl MetricsSnapshot {
    /// The activity since `earlier` — per-run views over the
    /// process-cumulative registry. Untouched counters are dropped unless
    /// [retained](counter_retained).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let keep_zero = lock(retained());
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
                (d > 0 || keep_zero.contains(k.as_str())).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot { counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_identity_registered() {
        let a = counter("t_metrics_identity");
        let b = counter("t_metrics_identity");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn labeled_counters_are_distinct() {
        counter_labeled("t_metrics_labeled", "x").add(1);
        counter_labeled("t_metrics_labeled", "y").add(2);
        let snap = snapshot();
        assert_eq!(snap.counters["t_metrics_labeled{x}"], 1);
        assert_eq!(snap.counters["t_metrics_labeled{y}"], 2);
    }

    #[test]
    fn retained_counter_reports_zero_delta() {
        let c = counter_retained("t_metrics_retained");
        c.add(4);
        let before = snapshot();
        // No activity since `before` — a normal counter would be dropped
        // from the delta, but a retained one must report an explicit zero.
        let d = snapshot().delta(&before);
        assert_eq!(d.counters.get("t_metrics_retained"), Some(&0));
        c.add(2);
        let d2 = snapshot().delta(&before);
        assert_eq!(d2.counters.get("t_metrics_retained"), Some(&2));
        // Identity with the plain registration path.
        assert!(std::ptr::eq(c, counter("t_metrics_retained")));
    }

    #[test]
    fn delta_reports_only_new_activity() {
        let c = counter("t_metrics_delta");
        c.add(10);
        let before = snapshot();
        c.add(7);
        let d = snapshot().delta(&before);
        assert_eq!(d.counters["t_metrics_delta"], 7);
        let d2 = snapshot().delta(&snapshot());
        assert!(!d2.counters.contains_key("t_metrics_delta"));
    }
}
