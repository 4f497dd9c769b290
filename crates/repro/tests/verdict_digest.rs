//! Golden digests of the online detector's live verdict stream: every
//! field of every [`MonitorEvent`] — kind, server, interval and its end,
//! the live N\* and `TP_max`, the load and rate of the completing interval
//! (all by bits), the queue depth and the detection latency — is folded
//! into one FNV-1a hash per input and compared with a pinned value.
//!
//! The final report is pinned against the batch detector elsewhere; the
//! live verdicts depend on what the batch path does not have — the
//! bounded live window, the refit period and the hysteresis — and nothing
//! else holds them still. Two inputs:
//!
//! * the record tap of a JDK 1.5 run on a 10 ms grid for 30 s, so each
//!   server finalizes 3,000 intervals and the last 28 refits fit on an
//!   evicting window (a window one interval shorter moves both digests);
//! * one fixed pseudo-random stream over two servers with alternating
//!   quiet and congested phases.
//!
//! A digest only changes when the live verdicts do. If a change is *meant*
//! to move them, re-derive the constants from the new code and say why in
//! the commit.

use fgbd_core::online::{MonitorEvent, OnlineConfig, OnlineDetector, VerdictKind};
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::system::NTierSystem;
use fgbd_repro::pipeline::{Calibration, WORK_UNIT_RESOLUTION};
use fgbd_repro::scenario::GC_JDK15;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{ClassId, ConnId, MsgKind, MsgRecord, NodeId};

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

/// What a verdict stream is pinned by: the digest plus counts that make a
/// mismatch readable.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    onsets: usize,
    clears: usize,
    digest: u64,
}

fn golden(events: &[MonitorEvent]) -> Golden {
    let mut h = Fnv::new();
    for e in events {
        h.word(match e.kind {
            VerdictKind::Onset => 0,
            VerdictKind::Clear => 1,
        });
        h.word(u64::from(e.server.0));
        h.word(e.interval as u64);
        h.word(e.interval_end.as_micros());
        h.word(e.nstar.map_or(u64::MAX, f64::to_bits));
        h.float(e.tp_max);
        h.float(e.load);
        h.float(e.rate);
        h.word(e.queue_depth as u64);
        h.word(e.detect_latency.as_micros());
    }
    let count = |kind| events.iter().filter(|e| e.kind == kind).count();
    Golden {
        onsets: count(VerdictKind::Onset),
        clears: count(VerdictKind::Clear),
        digest: h.0,
    }
}

#[test]
fn tap_fed_live_verdicts_match_their_golden_digest() {
    let mut cfg = GC_JDK15.config(3_000);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(30);
    let cal = Calibration::for_scenario(&GC_JDK15);
    let interval = SimDuration::from_millis(10);
    let ocfg = OnlineConfig::new(SimTime::ZERO + cfg.warmup, interval, WORK_UNIT_RESOLUTION);
    let mut det = OnlineDetector::new(ocfg, cal.services.clone());
    for (&node, &wu) in &cal.work_units {
        det.set_work_unit(node, wu);
    }
    let mut events = Vec::new();
    let run = NTierSystem::run_with_record_tap(cfg, |rec| {
        det.push(&rec);
        events.extend(det.drain_events());
    });
    let fin = det.finish(run.horizon);
    events.extend(fin.events);
    // Well past the 1,200-interval live window.
    assert!(fin.reports.iter().all(|r| r.loads.len() == 3_000));
    assert_eq!(
        golden(&events),
        Golden {
            onsets: 270,
            clears: 270,
            digest: 0x8e40_53d3_a8a5_af65,
        }
    );
}

const WEB: NodeId = NodeId(1);
const DB: NodeId = NodeId(2);

/// SplitMix64: a fixed, dependency-free pseudo-random source.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 20 s of request/response pairs on two servers: arrivals every 0–3 ms,
/// residences short in the quiet phases and stretched (so requests pile
/// up) during the congested second of every four.
fn random_stream() -> Vec<MsgRecord> {
    let mut rng = SplitMix(0x2013_0708_5eed_f00d);
    let mut recs = Vec::new();
    let mut t = 0;
    let mut conn = 0u32;
    while t < 20_000_000 {
        t += rng.below(3_000);
        let congested = (t / 1_000_000) % 4 == 3;
        let server = if rng.below(3) == 0 { DB } else { WEB };
        let residence = match congested {
            true => 5_000 + rng.below(60_000),
            false => 200 + rng.below(4_000),
        };
        conn = conn.wrapping_add(1) % 512;
        let req = MsgRecord {
            at: SimTime::from_micros(t),
            src: NodeId(0),
            dst: server,
            kind: MsgKind::Request,
            conn: ConnId(conn),
            class: ClassId(rng.below(3) as u16),
            bytes: 64,
            truth: None,
        };
        recs.push(req);
        recs.push(MsgRecord {
            at: SimTime::from_micros(t + residence),
            src: server,
            dst: NodeId(0),
            kind: MsgKind::Response,
            ..req
        });
    }
    recs.sort_by_key(|r| r.at);
    recs
}

#[test]
fn random_stream_live_verdicts_match_their_golden_digest() {
    let mut services = ServiceTimeTable::new();
    services.insert(WEB, ClassId(0), SimDuration::from_micros(1_500));
    services.insert(WEB, ClassId(1), SimDuration::from_micros(600));
    services.insert(DB, ClassId(0), SimDuration::from_micros(900));
    let ocfg = OnlineConfig::new(
        SimTime::ZERO,
        SimDuration::from_millis(10),
        SimDuration::from_micros(500),
    );
    let mut det = OnlineDetector::new(ocfg, services);
    let recs = random_stream();
    let mut events = Vec::new();
    for chunk in recs.chunks(97) {
        det.push_chunk(chunk);
        events.extend(det.drain_events());
    }
    let fin = det.finish(SimTime::from_secs(21));
    events.extend(fin.events);
    assert_eq!(
        golden(&events),
        Golden {
            onsets: 75,
            clears: 75,
            digest: 0x0e8c_a101_7f04_2bf7,
        }
    );
}
