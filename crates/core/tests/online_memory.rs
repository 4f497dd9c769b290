//! Bounded-memory audit of the streaming detector: with retention off,
//! the allocation high-water mark of a long run must stay flat — the
//! detector may not accumulate per-interval history proportional to run
//! length. A counting global allocator approximates `VmHWM` portably
//! (see [`fgbd_oracle::alloc`]); this file holds exactly one test because
//! the gauge counts for the whole process.

use fgbd_core::online::{OnlineConfig, OnlineDetector};
use fgbd_des::{SimDuration, SimTime};
use fgbd_oracle::alloc::AllocGauge;
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{ClassId, ConnId, MsgKind, MsgRecord, NodeId};

#[global_allocator]
static GLOBAL: AllocGauge = AllocGauge::new();

const SERVER: NodeId = NodeId(1);
const CONNS: u64 = 8;

/// Deterministic record source: no materialized Vec, so the stream itself
/// contributes nothing to the high-water mark. Each op is a paired
/// request/response on a rotating connection; arrivals advance
/// monotonically and responses land before the next request, so the
/// detector's open-request set stays O(1) and the watermark keeps moving.
struct Ops {
    t: u64,
    rng: u64,
    pending: Option<MsgRecord>,
    op: u64,
}

impl Ops {
    fn new() -> Ops {
        Ops {
            t: 0,
            rng: 0x2013_0708_dead_beef,
            pending: None,
            op: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 step — cheap, stateless apart from the seed word.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next(&mut self) -> MsgRecord {
        if let Some(resp) = self.pending.take() {
            self.t = resp.at.as_micros();
            return resp;
        }
        let dur = 50 + self.next_u64() % 4_000;
        let gap = self.next_u64() % 1_500;
        let req = MsgRecord {
            at: SimTime::from_micros(self.t + gap),
            src: NodeId(0),
            dst: SERVER,
            kind: MsgKind::Request,
            conn: ConnId((self.op % CONNS) as u32),
            class: ClassId((self.op % 3) as u16),
            bytes: 64,
            truth: None,
        };
        self.op += 1;
        self.pending = Some(MsgRecord {
            at: SimTime::from_micros(self.t + gap + dur),
            src: SERVER,
            dst: NodeId(0),
            kind: MsgKind::Response,
            ..req
        });
        req
    }
}

fn detector() -> OnlineDetector {
    let mut cfg = OnlineConfig::new(
        SimTime::ZERO,
        SimDuration::from_micros(10_000),
        SimDuration::from_micros(700),
    );
    cfg.retain = false;
    cfg.live_window = 64;
    OnlineDetector::new(cfg, ServiceTimeTable::new())
}

/// Drives `ops` request/response pairs through a fresh detector and
/// returns the allocation high-water mark (in bytes, relative to the
/// point just before the detector was built) of the whole run.
fn peak_of_run(ops: u64) -> u64 {
    GLOBAL.reset_peak();
    let base = GLOBAL.live_bytes();
    let mut det = detector();
    let mut src = Ops::new();
    for i in 0..ops * 2 {
        det.push(&src.next());
        if i % 1024 == 0 {
            det.drain_events();
            det.snapshot();
        }
    }
    det.drain_events();
    let end = det.now() + SimDuration::from_micros(10_000);
    let fin = det.finish(end);
    assert_eq!(fin.reports.len(), 1, "one server analyzed");
    assert!(fin.reports[0].matched > 0, "spans were paired");
    // Without retention the per-interval history must not be kept.
    assert!(fin.reports[0].loads.is_empty());
    GLOBAL.peak_bytes().saturating_sub(base)
}

#[test]
fn peak_memory_is_flat_in_run_length() {
    // Warm-up run: lets lazily-initialized process state (malloc arenas,
    // hash seeds) allocate outside the measured sections.
    peak_of_run(2_000);
    let short = peak_of_run(5_000);
    let long = peak_of_run(50_000);
    // 10× the stream length must not show up in the high-water mark.
    // Generous headroom (2× + 256 KiB) keeps the test robust to
    // container/allocator jitter while still failing hard if history
    // accumulates per interval or per span.
    assert!(
        long < short * 2 + (256 << 10),
        "peak grew with run length: short run {short} B, 10x run {long} B"
    );
}
