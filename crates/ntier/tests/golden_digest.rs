//! Golden digests of three short simulator runs: every capture record,
//! client transaction (as the transaction consumer receives them), GC
//! event, P-state decision and CPU-busy sample is folded into one FNV-1a
//! hash per run and compared with a pinned value. The run's own summary
//! must equal a fold over those same transactions.
//!
//! The simulator is deterministic by contract (same seed, same bytes), and
//! every paper figure is computed from its output, so a change that lets
//! one same-microsecond tie resolve differently, or one demand draw round
//! differently, shows up here as a digest mismatch instead of only in a
//! full-length figure diff. The three runs cover the paths that bite:
//!
//! * SpeedStep on MySQL at WL 7,000 — congested, long processor-sharing
//!   queues, DVFS speed changes that move armed completions;
//! * JDK 1.5 Tomcats — stop-the-world freezes, which send inserts to the
//!   integrator's spill heap and release same-microsecond bursts;
//! * demand drift — the demand draw that cannot reuse cached lognormal
//!   parameters.
//!
//! A digest only changes when the simulated system does. If a change is
//! *meant* to move the output, re-derive the constants from the new code and
//! say why in the commit.

use fgbd_des::SimDuration;
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::result::{RunResult, TxnSample};
use fgbd_ntier::system::NTierSystem;
use fgbd_trace::MsgKind;

/// 64-bit FNV-1a over little-endian words: stable across platforms and
/// toolchains, unlike `std`'s `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// What a run is pinned by: the digest plus a few counts that make a
/// mismatch readable (which output moved, and by how much).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    records: usize,
    txns: usize,
    gc_events: usize,
    pstates: usize,
    cpu_samples: usize,
    digest: u64,
}

/// Runs `cfg`, collecting every completed transaction through the
/// consumer, and checks that the run's summary is the fold of the measured
/// ones in completion order: the same count, the same response-time sum
/// bit for bit, and the same count slower than 2 s.
fn run(cfg: SystemConfig) -> (RunResult, Vec<TxnSample>) {
    let mut txns = Vec::new();
    let res = NTierSystem::run_with_taps(cfg, None, Some(&mut |t| txns.push(t)));
    let (mut count, mut rt_sum_s, mut slow) = (0u64, 0.0f64, 0u64);
    let measured = txns
        .iter()
        .filter(|t| res.warmup_end <= t.finished && t.finished < res.horizon);
    for t in measured {
        let rt = t.response_time();
        count += 1;
        rt_sum_s += rt.as_secs_f64();
        slow += u64::from(rt > SimDuration::from_secs(2));
    }
    let summary = (res.txns.count, res.txns.rt_sum_s.to_bits(), res.txns.slow);
    assert_eq!(summary, (count, rt_sum_s.to_bits(), slow));
    assert!(count > 0 && slow < count);
    (res, txns)
}

fn golden((res, txns): &(RunResult, Vec<TxnSample>)) -> Golden {
    let mut h = Fnv::new();
    for r in &res.log.records {
        h.word(r.at.as_micros());
        h.word(u64::from(r.src.0));
        h.word(u64::from(r.dst.0));
        h.word(match r.kind {
            MsgKind::Request => 0,
            MsgKind::Response => 1,
        });
        h.word(u64::from(r.conn.0));
        h.word(u64::from(r.class.0));
        h.word(u64::from(r.bytes));
        h.word(r.truth.map_or(u64::MAX, |t| t.0));
    }
    for t in txns {
        h.word(u64::from(t.user));
        h.word(u64::from(t.class));
        h.word(t.started.as_micros());
        h.word(t.finished.as_micros());
        h.word(u64::from(t.retries));
    }
    for g in &res.gc_events {
        h.word(g.server as u64);
        h.word(g.start.as_micros());
        h.word(g.stw_end.as_micros());
        h.word(g.end.as_micros());
        h.float(g.collected_mb);
    }
    for p in &res.pstate_log {
        h.word(p.server as u64);
        h.word(p.at.as_micros());
        h.float(p.util);
        h.word(p.pstate as u64);
        h.float(p.mhz);
    }
    for server in &res.cpu_busy {
        h.word(server.len() as u64);
        for s in server {
            h.word(s.at.as_micros());
            h.float(s.busy_core_seconds);
        }
    }
    Golden {
        records: res.log.records.len(),
        txns: txns.len(),
        gc_events: res.gc_events.len(),
        pstates: res.pstate_log.len(),
        cpu_samples: res.cpu_busy.iter().map(Vec::len).sum(),
        digest: h.0,
    }
}

fn short(mut cfg: SystemConfig, secs: u64) -> SystemConfig {
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(secs);
    cfg
}

#[test]
fn speedstep_at_wl_7000_matches_its_golden_digest() {
    let cfg = short(
        SystemConfig::paper_1l2s1l2s(7_000, Jdk::Jdk16, true, 20130708),
        14,
    );
    let out = run(cfg);
    let res = &out.0;
    // The governor leaves the lowest P-state once the ramp congests MySQL.
    assert!(res
        .pstate_log
        .iter()
        .any(|p| p.pstate != res.pstate_log[0].pstate));
    assert_eq!(
        golden(&out),
        Golden {
            records: 378_562,
            txns: 15_674,
            gc_events: 12,
            pstates: 160,
            cpu_samples: 1_920,
            digest: 0x8f4aaacc7a927977,
        }
    );
}

#[test]
fn gc_jdk15_matches_its_golden_digest() {
    let cfg = short(
        SystemConfig::paper_1l2s1l2s(4_000, Jdk::Jdk15, false, 20130708),
        10,
    );
    let out = run(cfg);
    assert!(!out.0.gc_events.is_empty());
    assert_eq!(
        golden(&out),
        Golden {
            records: 154_952,
            txns: 6_390,
            gc_events: 4,
            pstates: 0,
            cpu_samples: 1_440,
            digest: 0xec292794677f96ce,
        }
    );
}

#[test]
fn drifting_demands_match_their_golden_digest() {
    let mut cfg = short(
        SystemConfig::paper_1l2s1l2s(3_000, Jdk::Jdk16, false, 20130708),
        6,
    );
    cfg.demand_drift_per_hour = 0.5;
    let out = run(cfg);
    assert_eq!(
        golden(&out),
        Golden {
            records: 76_237,
            txns: 3_170,
            gc_events: 2,
            pstates: 0,
            cpu_samples: 960,
            digest: 0x7f8e632bfbae2495,
        }
    );
}
