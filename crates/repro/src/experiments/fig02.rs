//! **Fig 2** — the motivating experiment: throughput and average response
//! time across workloads 1,000–16,000 (a), the fraction of requests slower
//! than 2 s (b), and the long-tail bi-modal response-time distribution at
//! workload 8,000 (c). Scenario: SpeedStep enabled on MySQL, JDK 1.6 Tomcat.
//!
//! Paper shape: throughput grows linearly to ~11,000 users then flattens;
//! the >2 s fraction starts climbing around workload 6,000 — *before*
//! saturation; the WL 8,000 distribution is long-tailed and bi-modal (a
//! second hump past 3 s from TCP retransmissions).

use fgbd_metrics::Histogram;
use fgbd_ntier::result::TxnSample;

use crate::plot;
use crate::report::{write_csv, ExperimentSummary};
use crate::scenario::SPEEDSTEP_ON;

/// The sweep of Fig 2(a)/(b).
pub const WORKLOADS: [u32; 16] = [
    1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 8_000, 9_000, 10_000, 11_000, 12_000, 13_000,
    14_000, 15_000, 16_000,
];

/// Runs the sweep and the WL 8,000 distribution.
pub fn run() -> ExperimentSummary {
    // One uncaptured run per workload (the figure reads client-side
    // summaries only), in input order whatever the worker count. Only
    // the WL 8,000 run collects its measured response times, for (c).
    let runs = crate::par::par_map(&WORKLOADS, |&users| {
        let measured = SPEEDSTEP_ON.config(users).measured();
        let mut rts = Vec::new();
        let mut keep = |t: TxnSample| {
            if measured.contains(&t.finished) {
                rts.push(t.response_time().as_secs_f64());
            }
        };
        let tap = (users == 8_000).then_some(&mut keep as &mut dyn FnMut(TxnSample));
        (SPEEDSTEP_ON.run_uncaptured(users, tap), rts)
    });
    let (results, mut kept): (Vec<_>, Vec<_>) = runs.into_iter().unzip();

    let mut rows = Vec::new();
    for (wl, res) in WORKLOADS.iter().zip(&results) {
        rows.push(vec![
            wl.to_string(),
            format!("{:.1}", res.throughput()),
            format!("{:.4}", res.mean_response_time()),
            format!("{:.5}", res.frac_slow()),
        ]);
    }
    write_csv(
        "fig02_sweep",
        &["workload", "throughput_tps", "mean_rt_s", "frac_rt_over_2s"],
        &rows,
    );

    let tputs: Vec<f64> = results.iter().map(|r| r.throughput()).collect();
    let rts: Vec<f64> = results.iter().map(|r| r.mean_response_time()).collect();
    let slow: Vec<f64> = results.iter().map(|r| r.frac_slow()).collect();
    fgbd_obsv::log!(
        "fig02",
        "{}",
        plot::timeline("Fig 2(a) throughput [tx/s] vs WL (1k..16k)", &tputs, 10)
    );
    fgbd_obsv::log!(
        "fig02",
        "{}",
        plot::timeline("Fig 2(a) mean response time [s] vs WL", &rts, 10)
    );
    fgbd_obsv::log!(
        "fig02",
        "{}",
        plot::timeline("Fig 2(b) fraction of requests > 2 s vs WL", &slow, 10)
    );

    // Fig 2(c): RT distribution at WL 8,000.
    let wl8k = &results[7];
    let mut rtvals = std::mem::take(&mut kept[7]);
    let mut hist = Histogram::fig2c_edges();
    hist.record_all(rtvals.iter().copied());
    let hist_rows: Vec<Vec<String>> = hist
        .buckets()
        .iter()
        .map(|&(lo, hi, c)| vec![format!("{lo:.1}"), format!("{hi:.1}"), c.to_string()])
        .collect();
    write_csv("fig02c_hist", &["rt_lo_s", "rt_hi_s", "count"], &hist_rows);
    let bar: Vec<f64> = hist
        .buckets()
        .iter()
        .map(|&(_, _, c)| (c as f64 + 1.0).log10())
        .collect();
    fgbd_obsv::log!(
        "fig02",
        "{}",
        plot::timeline("Fig 2(c) log10(count) per RT bucket at WL 8,000", &bar, 8)
    );

    // Headline comparisons. The knee is the first workload reaching 99% of
    // the saturated throughput (beyond it the curve is flat to <1%).
    let max_tput = tputs.iter().cloned().fold(0.0, f64::max);
    let peak_wl = WORKLOADS
        .iter()
        .zip(&tputs)
        .find(|(_, &t)| t >= 0.99 * max_tput)
        .map_or(0, |(&wl, _)| wl);
    // First workload where the >2s fraction exceeds 0.2%.
    let rise_wl = WORKLOADS
        .iter()
        .zip(&slow)
        .find(|(_, &f)| f > 0.002)
        .map_or(0, |(&wl, _)| wl);
    let mut s = ExperimentSummary::new("fig02");
    s.row("saturation workload (throughput knee)", "~11,000", peak_wl);
    let spread_past_knee = tputs[10..]
        .iter()
        .cloned()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    s.row(
        "throughput at saturation",
        "flat beyond the knee",
        format!(
            "{:.0} tx/s (WL 11k-16k spread {:.1}%)",
            max_tput,
            100.0 * (spread_past_knee.1 - spread_past_knee.0) / max_tput
        ),
    );
    s.row(">2s fraction starts rising at", "~6,000", rise_wl);
    let total = hist.total().max(1) as f64;
    let fast_mass: u64 = hist
        .buckets()
        .iter()
        .filter(|&&(_, hi, _)| hi <= 0.5)
        .map(|&(_, _, c)| c)
        .sum();
    let hump_mass: u64 = hist
        .buckets()
        .iter()
        .filter(|&&(lo, _, _)| lo >= 3.0)
        .map(|&(_, _, c)| c)
        .sum();
    s.row(
        "WL8000 distribution shape",
        "bi-modal: fast mode + >3s retransmission hump",
        format!(
            "{:.1}% below 0.5s, {:.1}% above 3s, empty between 1-3s",
            100.0 * fast_mass as f64 / total,
            100.0 * hump_mass as f64 / total
        ),
    );
    rtvals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p01 = rtvals[rtvals.len() / 100];
    let p999 = rtvals[rtvals.len() - 1 - rtvals.len() / 1000];
    s.row(
        "WL8000 RT spectrum",
        "2-3 orders of magnitude",
        format!(
            "{:.1} orders (p1 {:.1} ms .. p99.9 {:.2} s)",
            (p999 / p01).log10(),
            p01 * 1e3,
            p999
        ),
    );
    // Linearity before the knee: tput(WL)/WL roughly constant up to 10k.
    let lin_dev = (0..9)
        .map(|i| tputs[i] / f64::from(WORKLOADS[i]))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    s.note(format!(
        "pre-knee throughput/WL ratio spread: {:.4}..{:.4} (linear growth)",
        lin_dev.0, lin_dev.1
    ));
    s.note(format!(
        "retransmissions at WL8000: {} ({}x 3s timeouts feed the >3s hump)",
        wl8k.retransmissions, wl8k.retransmissions
    ));
    s
}
