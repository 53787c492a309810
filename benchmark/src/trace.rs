//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use pangulu_metrics::json::Json;

/// One timed interval. `parent` indexes [`Tracer::spans`]; spans of one
/// operation share `op_id` (set-up spans carry [`SETUP_OP`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// `op_id` of spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// Records spans on the driver thread; nesting follows begin/end order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op_id: SETUP_OP }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Spans begun from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn duration_ns(s: &Span) -> u64 {
    s.end_ns.saturating_sub(s.start_ns)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            duration_ns(s) - covered
        })
        .collect()
}

/// Per operation, seconds by span name: `(total, self, calls)`. Keyed by
/// `op_id`, then name; ordered, so output repeats exactly.
pub fn per_op_seconds(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, (f64, f64, u64)>> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<u64, BTreeMap<&'static str, (f64, f64, u64)>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.op_id).or_default().entry(s.name).or_insert((0.0, 0.0, 0));
        e.0 += duration_ns(s) as f64 * 1e-9;
        e.1 += self_ns as f64 * 1e-9;
        e.2 += 1;
    }
    out
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    (
                        "op_id",
                        if s.op_id == SETUP_OP { Json::Null } else { Json::Num(s.op_id as f64) },
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("op", 0, 100, None),
            span("solve", 10, 60, Some(0)),    // nested two deep
            span("forward", 10, 30, Some(1)),  // adjacent pair inside solve
            span("backward", 30, 55, Some(1)), //
            span("numeric", 60, 90, Some(0)),  // adjacent to solve
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 5, 20, 25, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("op", 10, 50, None),
            span("a", 0, 30, Some(0)), // starts before the parent: clipped to 10..30
            span("b", 20, 40, Some(0)), // overlaps a: only 30..40 is new
            span("c", 45, 80, Some(0)), // overhangs the end: clipped to 45..50
        ];
        assert_eq!(self_times_ns(&spans)[0], 40 - 20 - 10 - 5);
    }

    #[test]
    fn tracer_nests_by_begin_end_order_and_groups_by_op() {
        let mut t = Tracer::default();
        let setup = t.begin("setup");
        t.end(setup);
        t.set_op(7);
        let op = t.begin("op");
        t.span("inner", || ());
        t.span("inner", || ());
        t.end(op);
        let s = t.spans();
        assert_eq!(s[0].op_id, SETUP_OP);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (None, Some(op), Some(op)));
        assert!(s[1].start_ns <= s[2].start_ns && s[3].end_ns <= s[1].end_ns);
        let per_op = per_op_seconds(s);
        assert_eq!(per_op[&7]["inner"].2, 2);
        let op_row = per_op[&7]["op"];
        let inner_row = per_op[&7]["inner"];
        assert!((op_row.1 - (op_row.0 - inner_row.0)).abs() < 1e-12);
    }

    #[test]
    fn spans_emit_json_that_parses_back() {
        let spans = [
            span("op", 0, 9, None),
            Span { name: "setup", start_ns: 1, end_ns: 2, parent: Some(0), op_id: SETUP_OP },
        ];
        let text = spans_to_json(&spans).pretty();
        let back = Json::parse(&text).unwrap();
        let arr = back.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("op"));
        assert_eq!(arr[0].get("parent"), Some(&Json::Null));
        assert_eq!(arr[0].req_u64("end_ns").unwrap(), 9);
        assert_eq!(arr[1].req_u64("parent").unwrap(), 0);
        assert_eq!(arr[1].get("op_id"), Some(&Json::Null));
    }
}
