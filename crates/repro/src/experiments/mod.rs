//! One module per paper artifact (table or figure), plus three extension
//! experiments (`ext_*`) that go beyond the evaluation section: the §IV-B
//! scale-out fix, the §I monitoring-overhead cost, and 3-tier generality.
//! Each exposes a `run()` returning an
//! [`crate::report::ExperimentSummary`] rows and printing
//! plots plus paper-vs-measured rows; CSV series land in
//! `target/experiments/`.

pub mod ext_autointerval;
pub mod ext_drift;
pub mod ext_lifespans;
pub mod ext_overhead;
pub mod ext_scaleout;
pub mod ext_threetier;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod table01;
pub mod table02;

use fgbd_core::detect::ServerReport;
use fgbd_des::SimDuration;

use crate::pipeline::Analysis;
use crate::plot;
use crate::report::{write_csv, ExperimentSummary};

/// An experiment entry point, as registered in [`all`].
pub type ExperimentFn = fn() -> ExperimentSummary;

/// Every experiment in paper order, as `(id, run)` pairs.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig02", fig02::run),
        ("fig03", fig03::run),
        ("table01", table01::run),
        ("fig05", fig05::run),
        ("fig06", fig06::run),
        ("fig07", fig07::run),
        ("fig08", fig08::run),
        ("fig09", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("table02", table02::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        // Extensions beyond the paper's evaluation section.
        ("ext_scaleout", ext_scaleout::run),
        ("ext_overhead", ext_overhead::run),
        ("ext_threetier", ext_threetier::run),
        ("ext_lifespans", ext_lifespans::run),
        ("ext_drift", ext_drift::run),
        ("ext_autointerval", ext_autointerval::run),
    ]
}

/// The experiments named by `ids`, in paper order whatever order `ids`
/// gives; every experiment when `ids` is empty. `Err` carries the first id
/// that names no experiment.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, ExperimentFn)>, &str> {
    let experiments = all();
    if let Some(unknown) = ids
        .iter()
        .find(|id| !experiments.iter().any(|(name, _)| name == id))
    {
        return Err(unknown);
    }
    Ok(experiments
        .into_iter()
        .filter(|(name, _)| ids.is_empty() || ids.iter().any(|id| id == name))
        .collect())
}

/// A load-vs-throughput scatter of the paper (Fig 5(c), 9(a)/(b), 12, 13)
/// over `pts` ([`Analysis::scatter_points_eq`]), plotted under `target`
/// with exemplar `marks` and written as a `load, tput_eq_rps` series.
pub(crate) fn scatter_panel(
    target: &str,
    title: &str,
    pts: &[(f64, f64)],
    marks: &[(f64, f64, char)],
    height: usize,
    csv: &str,
) {
    fgbd_obsv::log!(target, "{}", plot::scatter(title, pts, marks, 64, height));
    let row = |&(load, tput): &(f64, f64)| vec![format!("{load:.3}"), format!("{tput:.1}")];
    let rows: Vec<_> = pts.iter().map(row).collect();
    write_csv(csv, &["load", "tput_eq_rps"], &rows);
}

/// One zoom panel of the paper (Fig 5(a)/(b), 9(c), 12(c)): the `len`
/// from one minute after warm-up, sliced out of the full-window `report`
/// ([`Analysis::zoom_intervals`]) and plotted under `target` as a load and
/// an equivalent-throughput timeline, titled `titles`; with a `csv` name
/// it is also written as a `t_s, load, tput_eq_rps` series. Returns the
/// zoom's loads.
pub(crate) fn zoom_panel(
    target: &str,
    (analysis, report): (&Analysis, &ServerReport),
    len: SimDuration,
    titles: [&str; 2],
    height: usize,
    csv: Option<&str>,
) -> Vec<f64> {
    let zoom = analysis.sub_window(SimDuration::from_secs(60), len, report.window.interval);
    let pts = &analysis.scatter_points_eq(report)[Analysis::zoom_intervals(report, zoom)];
    let (loads, tputs): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
    for (title, values) in titles.into_iter().zip([&loads, &tputs]) {
        fgbd_obsv::log!(target, "{}", plot::timeline(title, values, height));
    }
    if let Some(name) = csv {
        let row = |(i, &(load, tput)): (usize, &(f64, f64))| {
            let t = zoom.mid_secs(i);
            vec![
                format!("{t:.3}"),
                format!("{load:.3}"),
                format!("{tput:.1}"),
            ]
        };
        let rows: Vec<_> = pts.iter().enumerate().map(row).collect();
        write_csv(name, &["t_s", "load", "tput_eq_rps"], &rows);
    }
    loads
}
