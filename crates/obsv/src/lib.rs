#![warn(missing_docs)]

//! # fgbd-obsv — zero-dependency observability for the fgbd workspace
//!
//! The paper's thesis is that coarse monitoring hides what matters; this
//! crate applies the same medicine to the reproduction pipeline itself.
//! It provides always-on, low-overhead self-telemetry with **no external
//! dependencies** (std only), so the workspace stays offline-verifiable:
//!
//! * [`span!`] — hierarchical wall-time span timers with thread-local
//!   collection. Spans opened on [`par_map`]-style worker threads merge
//!   into the caller's tree via [`span::adopt_path`] /
//!   [`span::flush_thread`].
//! * [`counter!`] — monotonic counters, registered lazily and cached per
//!   call site.
//! * [`jsonl::JsonlWriter`] — flushed-per-line JSON event files (the
//!   live monitor's heartbeat and verdict streams).
//! * [`manifest::RunManifest`] — one structured JSON document per run
//!   (config, per-stage wall time, counter deltas, artifact paths), the
//!   file `check_manifest` and CI read.
//! * [`log!`] — a uniformly prefixed, machine-parseable stdout sink with
//!   a quiet mode.
//!
//! ## Overhead contract
//!
//! Every probe is guarded by [`enabled`], a single relaxed atomic load.
//! Hot loops (the DES event loop, the PS integrator) never touch an atomic
//! per event: they accumulate plain integers locally and flush one delta
//! per run.
//!
//! [`par_map`]: span::adopt_path

pub mod json;
pub mod jsonl;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);
static QUIET: AtomicBool = AtomicBool::new(false);

/// `true` while telemetry collection is on. The runtime default is *on*;
/// flip it with [`set_enabled`] or the `FGBD_OBSV=0` environment variable
/// (via [`init_from_env`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` while the [`log!`] sink is muted (`--quiet`).
#[inline]
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Mutes or unmutes the [`log!`] sink. Telemetry collection and manifest
/// emission are unaffected; only terminal output is suppressed.
pub fn set_quiet(on: bool) {
    QUIET.store(on, Ordering::Relaxed);
}

/// Applies the `FGBD_OBSV` environment variable (`0`/`false`/`off` →
/// [`set_enabled`]`(false)`). Call once at process start.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("FGBD_OBSV") {
        if matches!(v.as_str(), "0" | "false" | "off") {
            set_enabled(false);
        }
    }
}

/// Opens a hierarchical span timer that closes at the end of the
/// enclosing scope:
///
/// ```
/// fn reconstruct() {
///     fgbd_obsv::span!("reconstruct");
///     // ... timed work ...
/// }
/// ```
///
/// Spans nest by scope; the same path aggregates `calls` and total
/// nanoseconds. For explicit control over the span's extent use
/// [`span::enter`] and hold the guard. When telemetry is disabled this
/// costs one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obsv_span_guard = $crate::span::enter($name);
    };
}

/// Adds to a named monotonic counter: `counter!("des.events", n)`, or
/// labeled `counter!("scenario.runs", "speedstep_off", 1)`. The unlabeled
/// form caches the registry lookup per call site in a `OnceLock`; both
/// are no-ops (one relaxed load) when telemetry is disabled.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static OBSV_COUNTER: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
                ::std::sync::OnceLock::new();
            OBSV_COUNTER
                .get_or_init(|| $crate::metrics::counter($name))
                .add(($n) as u64);
        }
    };
    ($name:expr, $label:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::metrics::counter_labeled($name, $label).add(($n) as u64);
        }
    };
}

/// Writes a uniformly prefixed, machine-parseable line (or block — every
/// line of a multi-line payload is prefixed) to stdout:
///
/// ```
/// fgbd_obsv::log!("fig06", "interval 0 load = {:.2}", 1.5);
/// // prints: [fgbd:fig06] interval 0 load = 1.50
/// ```
///
/// Muted by [`set_quiet`] / `--quiet`.
#[macro_export]
macro_rules! log {
    ($target:expr, $($arg:tt)*) => {
        if !$crate::quiet() {
            $crate::sink::emit($target, &::std::format!($($arg)*));
        }
    };
}

/// Serializes unit tests that flip the process-global enabled/quiet
/// switches (the test harness runs tests concurrently).
#[cfg(test)]
pub(crate) mod test_sync {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_toggles_at_runtime() {
        let _g = crate::test_sync::hold();
        assert!(crate::enabled());
        crate::set_enabled(false);
        assert!(!crate::enabled());
        crate::set_enabled(true);
        assert!(crate::enabled());
    }

    #[test]
    fn quiet_toggles_independently() {
        let _g = crate::test_sync::hold();
        assert!(!crate::quiet());
        crate::set_quiet(true);
        assert!(crate::quiet());
        crate::set_quiet(false);
    }
}
