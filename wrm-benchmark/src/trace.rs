//! Spans around the benchmark's calls into each layer's public
//! functions: name, start, end, parent and operation id, kept in memory
//! and written as JSON lines when the run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover; children may overlap each other (spans
//! recorded from several threads), so the covered part is the length of
//! the union of the children's intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closures, so the untraced run executes the same code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a new top-level operation named `name`.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, nested in the current span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. on a client thread) as a
    /// top-level operation of its own.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.op += 1;
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                op: self.op,
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `i` in nanoseconds.
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (hi - lo).saturating_sub(covered)
}

/// Per span name, the durations of all its spans in milliseconds.
pub fn durations_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.ms());
    }
    out
}

/// How much of the timed work the layer spans fail to attribute: for
/// each kind of operation span (a top-level span with children), the
/// median share of its duration that no child covers; the largest of
/// these medians. The median keeps one preempted operation from
/// deciding the value.
pub fn uncovered_frac(spans: &[Span]) -> f64 {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut has_children = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_children[p] = true;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && has_children[i] {
            let total = s.end_ns.saturating_sub(s.start_ns).max(1);
            by_name
                .entry(s.name)
                .or_default()
                .push(self_time_ns(spans, i) as f64 / total as f64);
        }
    }
    by_name
        .into_values()
        .map(|v| crate::stats::median(&crate::stats::sorted(v)))
        .fold(0.0, f64::max)
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = serde_json::json!({
            "name": s.name,
            "start_us": s.start_ns as f64 / 1e3,
            "end_us": s.end_ns as f64 / 1e3,
            "parent": s.parent,
            "op": s.op,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
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
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            // A grandchild does not count against the root.
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 30);
        assert_eq!(self_time_ns(&spans, 2), 40);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 60, 80, Some(0)),
            // Runs past the parent's end: only [90, 100) is covered.
            span("d", 90, 130, Some(0)),
        ];
        // Union [10, 80) + [90, 100) = 80 ns covered.
        assert_eq!(self_time_ns(&spans, 0), 20);
        assert!((uncovered_frac(&spans) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.op("op", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let line = to_jsonl(spans);
        assert_eq!(line.lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.op("op", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
