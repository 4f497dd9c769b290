//! Memory audit of the streaming detector: its state is the requests in
//! flight plus one `IntervalRing::pop` triple (24 B) per finalized interval
//! per server, the cells the final report is computed from — nothing may
//! accumulate per span. A 10× longer stream may raise the allocation
//! high-water mark of streaming by those cells and no more (within a fixed
//! slack). A counting global allocator approximates `VmHWM` portably (see
//! [`fgbd_oracle::alloc`]); this file holds exactly one test because the
//! gauge counts for the whole process.

use std::mem::size_of;

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
    let cfg = OnlineConfig::new(
        SimTime::ZERO,
        SimDuration::from_micros(10_000),
        SimDuration::from_micros(700),
    );
    OnlineDetector::new(cfg, ServiceTimeTable::new())
}

/// Drives `ops` request/response pairs through a fresh detector and
/// returns the allocation high-water mark of the stream (in bytes,
/// relative to the point just before the detector was built) and the
/// intervals it finalized. The final report, per-interval by design, is
/// built after the measured section.
fn peak_of_run(ops: u64) -> (u64, usize) {
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
    let peak = GLOBAL.peak_bytes().saturating_sub(base);
    let finalized = det.snapshot().servers[0].finalized;
    let end = det.now() + SimDuration::from_micros(10_000);
    let fin = det.finish(end);
    assert_eq!(fin.reports.len(), 1, "one server analyzed");
    assert_eq!(fin.reports[0].matched, ops, "every span was paired");
    (peak, finalized)
}

#[test]
fn peak_memory_grows_only_by_the_finalized_cells() {
    // Warm-up run: lets lazily-initialized process state (malloc arenas,
    // hash seeds) allocate outside the measured sections.
    peak_of_run(2_000);
    let (short, short_intervals) = peak_of_run(10_000);
    let (long, long_intervals) = peak_of_run(100_000);
    let cells = (long_intervals - short_intervals) * size_of::<(u64, u32, u64)>();
    // 10× the stream may add its finalized cells to the high-water mark;
    // the headroom past them (2× + 256 KiB, which also covers the cells'
    // `Vec` growing by doubling) keeps the test robust to allocator jitter
    // while still failing hard if state accumulates per span.
    assert!(
        long < short * 2 + (256 << 10) + cells as u64,
        "peak grew past the finalized cells: short run {short} B over \
         {short_intervals} intervals, 10x run {long} B over {long_intervals}"
    );
}
