//! Property tests of the online/batch equivalence contract
//! (`fgbd_core::online` module docs): for any time-ordered record stream,
//! any chunking and any interval length, the final report is
//! **bit-for-bit** what `analyze_server` computes from the materialized
//! capture, the live verdict stream does not depend on how the stream was
//! chunked, and a detector calibrated after any number of records reports
//! what one calibrated at construction does.
//!
//! Every grid runs to [`END_US`], so each case refits the live N\* at least
//! twice, and the finest grid finalizes more than [`LIVE_WINDOW`] intervals,
//! so its later fits run on an evicting window.

use fgbd_core::detect::{analyze_server, DetectorConfig};
use fgbd_core::online::{
    OnlineConfig, OnlineDetector, OnlineFinish, OnlineReport, LIVE_WINDOW, REFIT_EVERY,
};
use fgbd_core::series::Window;
use fgbd_des::{SimDuration, SimTime};
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, SpanSet, TraceLog,
};
use proptest::prelude::*;

const WEB: NodeId = NodeId(1);
const DB: NodeId = NodeId(2);
const WU_WEB_US: u64 = 10_000;
const WU_DB_US: u64 = 700;

/// Past the last record any stream can hold (arrivals below 3 s, residences
/// below 0.4 s).
const END_US: u64 = 3_400_000;

/// The grids the properties run on: 2 ms finalizes 1,700 intervals, past
/// [`LIVE_WINDOW`]; 25 ms still finalizes 136, two [`REFIT_EVERY`] periods.
const INTERVALS_US: [u64; 3] = [2_000, 10_000, 25_000];

fn nodes() -> Vec<NodeMeta> {
    vec![
        NodeMeta {
            id: NodeId(0),
            name: "client".into(),
            kind: NodeKind::Client,
            tier: None,
        },
        NodeMeta {
            id: WEB,
            name: "web".into(),
            kind: NodeKind::Server,
            tier: Some(0),
        },
        NodeMeta {
            id: DB,
            name: "db".into(),
            kind: NodeKind::Server,
            tier: Some(1),
        },
    ]
}

fn services() -> ServiceTimeTable {
    let mut t = ServiceTimeTable::new();
    // Classes 0 and 1 are calibrated; class 2 exercises the residence
    // fallback on both servers.
    t.insert(WEB, ClassId(0), SimDuration::from_millis(8));
    t.insert(WEB, ClassId(1), SimDuration::from_millis(3));
    t.insert(DB, ClassId(0), SimDuration::from_micros(900));
    t.insert(DB, ClassId(1), SimDuration::from_micros(450));
    t
}

/// A time-ordered record stream of request/response pairs over two
/// servers and a handful of reused connections, plus a few
/// front-truncated responses (records whose request predates the
/// stream). Overlapping requests on one connection are fine: both
/// extractors pair on `OpenTable`, which closes the older as lost.
fn record_stream() -> impl Strategy<Value = Vec<MsgRecord>> {
    let pair = (
        0u64..3_000_000,
        1u64..400_000,
        0u32..4,
        0u16..3,
        prop::bool::ANY,
    );
    let orphan = (0u64..100_000, 0u32..4, prop::bool::ANY);
    (
        prop::collection::vec(pair, 1..140),
        prop::collection::vec(orphan, 0..4),
    )
        .prop_map(|(pairs, orphans)| {
            let mut recs = Vec::new();
            for (a, dur, conn, class, second) in pairs {
                let server = if second { DB } else { WEB };
                let base = MsgRecord {
                    at: SimTime::from_micros(a),
                    src: NodeId(0),
                    dst: server,
                    kind: MsgKind::Request,
                    conn: ConnId(conn),
                    class: ClassId(class),
                    bytes: 64,
                    truth: None,
                };
                recs.push(base);
                recs.push(MsgRecord {
                    at: SimTime::from_micros(a + dur),
                    src: server,
                    dst: NodeId(0),
                    kind: MsgKind::Response,
                    ..base
                });
            }
            for (a, conn, second) in orphans {
                let server = if second { DB } else { WEB };
                recs.push(MsgRecord {
                    at: SimTime::from_micros(a),
                    src: server,
                    dst: NodeId(0),
                    kind: MsgKind::Response,
                    conn: ConnId(100 + conn),
                    class: ClassId(0),
                    bytes: 64,
                    truth: None,
                });
            }
            // Stable by arrival time: ties keep generation order, and both
            // consumers read the identical sequence.
            recs.sort_by_key(|r| r.at);
            recs
        })
}

fn online_config(interval_us: u64) -> OnlineConfig {
    OnlineConfig::new(
        SimTime::ZERO,
        SimDuration::from_micros(interval_us),
        SimDuration::from_micros(WU_WEB_US),
    )
}

fn run_online(recs: &[MsgRecord], end: SimTime, interval_us: u64, chunk: usize) -> OnlineFinish {
    let mut online = OnlineDetector::new(online_config(interval_us), services());
    online.set_work_unit(DB, SimDuration::from_micros(WU_DB_US));
    for c in recs.chunks(chunk.max(1)) {
        online.push_chunk(c);
    }
    online.finish(end)
}

/// [`run_online`] on a detector built uncalibrated and calibrated right
/// after record `k`, inside whichever chunk holds it.
fn run_deferred(
    recs: &[MsgRecord],
    end: SimTime,
    interval_us: u64,
    chunk: usize,
    k: usize,
) -> OnlineFinish {
    let mut online = OnlineDetector::uncalibrated(online_config(interval_us));
    let (before, after) = recs.split_at(k);
    for c in before.chunks(chunk) {
        online.push_chunk(c);
    }
    online.calibrate(services(), [(DB, SimDuration::from_micros(WU_DB_US))]);
    // The chunk holding record `k` resumes where it was cut.
    let cut = chunk - k % chunk;
    online.push_chunk(&after[..cut.min(after.len())]);
    for c in after.get(cut..).unwrap_or_default().chunks(chunk) {
        online.push_chunk(c);
    }
    online.finish(end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence property: online reports equal the batch
    /// analysis bit-for-bit — loads, rates, states, N\*, and the unmatched
    /// accounting — for every server, across interval lengths and chunk
    /// sizes (which must be irrelevant to the final report).
    #[test]
    fn online_final_report_is_bitwise_batch(
        recs in record_stream(),
        iv_pick in 0usize..3,
        chunk_pick in 0usize..3,
    ) {
        let interval_us = INTERVALS_US[iv_pick];
        let chunk = [1usize, 17, 4096][chunk_pick];
        let end = SimTime::from_micros(END_US);
        let mut log = TraceLog::new(nodes());
        for r in &recs {
            log.push(*r);
        }
        let spans = SpanSet::extract(&log);
        let window = Window::new(SimTime::ZERO, end, SimDuration::from_micros(interval_us));
        prop_assert!(window.len() >= 2 * REFIT_EVERY);
        prop_assert!(iv_pick > 0 || window.len() > LIVE_WINDOW);
        let fin = run_online(&recs, end, interval_us, chunk);
        let dcfg = DetectorConfig::default();
        for rep in &fin.reports {
            let wu = if rep.server == DB { WU_DB_US } else { WU_WEB_US };
            let batch = analyze_server(
                spans.server(rep.server),
                rep.server,
                window,
                &services(),
                SimDuration::from_micros(wu),
                &dcfg,
            );
            prop_assert_eq!(rep.loads.len(), window.len());
            for i in 0..window.len() {
                prop_assert_eq!(
                    rep.loads[i].to_bits(),
                    batch.load.get(i).to_bits(),
                    "load bits diverge: server {:?} interval {}",
                    rep.server,
                    i
                );
                prop_assert_eq!(
                    rep.rates[i].to_bits(),
                    batch.tput.unit_rate(i).to_bits(),
                    "rate bits diverge: server {:?} interval {}",
                    rep.server,
                    i
                );
            }
            prop_assert_eq!(&rep.states, &batch.states);
            match (&rep.nstar, &batch.nstar) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.nstar.to_bits(), b.nstar.to_bits());
                    prop_assert_eq!(a.tp_max.to_bits(), b.tp_max.to_bits());
                }
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
            prop_assert_eq!(rep.matched as usize, spans.server(rep.server).len());
            prop_assert_eq!(
                rep.unmatched,
                spans.unmatched.get(&rep.server).copied().unwrap_or(0)
            );
        }
    }

    /// Chunk-size invariance of the *live* surface: the verdict event
    /// stream (kind, server, interval) is identical whether records
    /// arrive one at a time or in bulk.
    #[test]
    fn verdict_stream_is_chunk_invariant(
        recs in record_stream(),
        iv_pick in 0usize..3,
    ) {
        let interval_us = INTERVALS_US[iv_pick];
        let end = SimTime::from_micros(END_US);
        let one = run_online(&recs, end, interval_us, 1);
        let bulk = run_online(&recs, end, interval_us, 4096);
        prop_assert_eq!(one.events.len(), bulk.events.len());
        for (a, b) in one.events.iter().zip(&bulk.events) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.server, b.server);
            prop_assert_eq!(a.interval, b.interval);
            prop_assert_eq!(a.load.to_bits(), b.load.to_bits());
            prop_assert_eq!(a.rate.to_bits(), b.rate.to_bits());
        }
    }

    /// Deferred calibration: a detector that pairs uncalibrated and is
    /// calibrated after `k` records — none, a `k` that ends mid-chunk, or
    /// the whole stream — reports bit-for-bit what one calibrated at
    /// construction does: loads, rates, states, N\*, matched/unmatched and
    /// the live counts, and per server the same verdict sequence.
    #[test]
    fn deferred_calibration_is_bitwise_eager(
        recs in record_stream(),
        iv_pick in 0usize..3,
        k_pick in 0usize..3,
        k_at in 0usize..1 << 20,
        chunk in 2usize..40,
    ) {
        let interval_us = INTERVALS_US[iv_pick];
        let n = recs.len();
        let k = match k_pick {
            0 => 0,
            1 => match k_at % n {
                k if k % chunk == 0 => k + 1,
                k => k,
            },
            _ => n,
        };
        let end = SimTime::from_micros(END_US);
        let eager = run_online(&recs, end, interval_us, chunk);
        let late = run_deferred(&recs, end, interval_us, chunk, k);
        prop_assert_eq!(eager.reports.len(), late.reports.len());
        for (a, b) in eager.reports.iter().zip(&late.reports) {
            prop_assert_eq!(a.server, b.server);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a.loads), bits(&b.loads), "loads, k = {}", k);
            prop_assert_eq!(bits(&a.rates), bits(&b.rates), "rates, k = {}", k);
            prop_assert_eq!(&a.states, &b.states);
            let nstar = |r: &OnlineReport| {
                r.nstar.as_ref().map(|e| (e.nstar.to_bits(), e.tp_max.to_bits()))
            };
            prop_assert_eq!(nstar(a), nstar(b));
            prop_assert_eq!((a.matched, a.unmatched), (b.matched, b.unmatched));
            prop_assert_eq!(
                (a.live_congested, a.live_frozen),
                (b.live_congested, b.live_frozen)
            );
            let verdicts = |fin: &OnlineFinish| {
                fin.events
                    .iter()
                    .filter(|e| e.server == a.server)
                    .map(|e| (e.kind, e.interval, e.load.to_bits(), e.rate.to_bits()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(verdicts(&eager), verdicts(&late));
        }
    }
}
