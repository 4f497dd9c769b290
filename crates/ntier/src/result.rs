//! Run outputs: everything the analysis and experiment harness consume.
//! A run keeps nothing per transaction: each [`TxnSample`] goes to the
//! caller's consumer, if any, and [`RunResult::txns`] is a fixed-size
//! [`TxnSummary`] of the measured window.

use fgbd_des::{SimDuration, SimTime};
use fgbd_trace::{NodeId, TraceLog};
use serde::{Deserialize, Serialize};

use crate::dvfs::PStateSample;
use crate::gc::GcEvent;

/// One completed client transaction, as the workload generator saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnSample {
    /// Emulated user index.
    pub user: u32,
    /// Request class.
    pub class: u16,
    /// When the user first attempted the request (including refused
    /// connection attempts).
    pub started: SimTime,
    /// When the response reached the user.
    pub finished: SimTime,
    /// TCP connection attempts that were refused and retransmitted.
    pub retries: u32,
}

impl TxnSample {
    /// End-to-end response time.
    pub fn response_time(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// The paper's slow-request threshold: Fig 2(b) counts the requests slower
/// than 2 s, the long tail that transient bottlenecks cause well before the
/// system saturates.
pub const SLOW_RESPONSE: SimDuration = SimDuration::from_secs(2);

/// The client side of a run's measured window (`warmup_end <= finished <
/// horizon`), folded as each transaction completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnSummary {
    /// Measured transactions.
    pub count: u64,
    /// Their response times in seconds, summed in completion order.
    pub rt_sum_s: f64,
    /// Measured transactions slower than [`SLOW_RESPONSE`].
    pub slow: u64,
}

impl TxnSummary {
    /// Folds one measured transaction.
    pub(crate) fn add(&mut self, t: &TxnSample) {
        let rt = t.response_time();
        self.count += 1;
        self.rt_sum_s += rt.as_secs_f64();
        self.slow += u64::from(rt > SLOW_RESPONSE);
    }

    /// `total` per measured transaction; 0 when none was measured.
    fn per_txn(&self, total: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            total / self.count as f64
        }
    }
}

/// Static description of one simulated server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Display name.
    pub name: String,
    /// Tier index.
    pub tier: usize,
    /// Trace node id.
    pub node: NodeId,
    /// Pinned cores.
    pub cores: u32,
    /// Worker-thread limit.
    pub max_threads: usize,
}

/// Cumulative CPU-busy reading for one server at one sample instant —
/// the raw material for both the coarse "sysstat" view (Fig 3, Table I) and
/// the governor's utilization windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSample {
    /// Sample time.
    pub at: SimTime,
    /// Cumulative busy core-seconds (monotone non-decreasing).
    pub busy_core_seconds: f64,
}

/// Everything produced by one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Per-server static info, in node order.
    pub servers: Vec<ServerInfo>,
    /// The passive network capture.
    pub log: TraceLog,
    /// The measured window's client-side summary.
    pub txns: TxnSummary,
    /// JVM GC log across servers.
    pub gc_events: Vec<GcEvent>,
    /// DVFS governor decisions across servers.
    pub pstate_log: Vec<PStateSample>,
    /// Cumulative CPU-busy samples per server (aligned with `servers`).
    pub cpu_busy: Vec<Vec<CpuSample>>,
    /// (received, sent) payload bytes per server.
    pub net_bytes: Vec<(u64, u64)>,
    /// Completed request visits per server.
    pub completed_visits: Vec<u64>,
    /// Total refused-connection retransmissions.
    pub retransmissions: u64,
    /// End of the warm-up period.
    pub warmup_end: SimTime,
    /// End of the measured period (the run horizon).
    pub horizon: SimTime,
}

impl RunResult {
    /// The index (into [`RunResult::servers`]) of the server named `name`.
    pub fn server_index(&self, name: &str) -> Option<usize> {
        self.servers.iter().position(|s| s.name == name)
    }

    /// The trace node id of the server named `name`.
    pub fn node_of(&self, name: &str) -> Option<NodeId> {
        self.server_index(name).map(|i| self.servers[i].node)
    }

    /// Overall measured throughput in transactions per second.
    pub fn throughput(&self) -> f64 {
        let secs = (self.horizon - self.warmup_end).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.txns.count as f64 / secs
    }

    /// Mean end-to-end response time over the measured window, seconds.
    pub fn mean_response_time(&self) -> f64 {
        self.txns.per_txn(self.txns.rt_sum_s)
    }

    /// Fraction of measured transactions slower than [`SLOW_RESPONSE`].
    pub fn frac_slow(&self) -> f64 {
        self.txns.per_txn(self.txns.slow as f64)
    }

    /// Mean CPU utilization of server `idx` over the measured window, in
    /// `[0, 1]`, derived from the cumulative busy samples.
    pub fn mean_cpu_util(&self, idx: usize) -> f64 {
        let samples = &self.cpu_busy[idx];
        let cores = f64::from(self.servers[idx].cores);
        let in_window: Vec<&CpuSample> = samples
            .iter()
            .filter(|s| s.at >= self.warmup_end && s.at <= self.horizon)
            .collect();
        let (Some(first), Some(last)) = (in_window.first(), in_window.last()) else {
            return 0.0;
        };
        let dt = (last.at - first.at).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        ((last.busy_core_seconds - first.busy_core_seconds) / (cores * dt)).clamp(0.0, 1.0)
    }
}
