//! The benchmark's own span recorder: one span around every call into a
//! layer, kept in a `Vec` and written out when the run ends. The program
//! under test is not instrumented; these spans live in the benchmark's
//! files only.

use std::collections::BTreeMap;
use std::time::Instant;

use fgbd_obsv::json::Json;

/// One recorded span. `parent` indexes the recorder's span list; spans of
/// one composite replay share `run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Single-threaded span recorder. Switched off it still runs the closures,
/// so the traced and the untraced replay are the same code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("run".into(), Json::Num(f64::from(s.run))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (clipped to the span, so a child can never make a parent
/// negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

/// Self time summed by span name over the spans of `run`.
pub fn self_time_by_name(spans: &[Span], run: u32) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.run == run {
            *by_name.entry(s.name).or_insert(0) += own;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { a1 15..25 }, b 50..90 }
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name.values().sum::<u64>(), 100, "self times add up");
        assert!(self_time_by_name(&spans, 1).is_empty());
    }

    #[test]
    fn same_name_spans_sum_and_leaf_keeps_its_duration() {
        let spans = [
            span("root", 0, 50, None),
            span("leaf", 0, 20, Some(0)),
            span("leaf", 20, 50, Some(0)),
        ];
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name["leaf"], 50);
        assert_eq!(by_name["root"], 0);
    }

    #[test]
    fn recorder_links_parents_and_off_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let v = rec.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(v, 7);
        rec.next_run();
        rec.span("second", |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].run, s[2].run), (0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
