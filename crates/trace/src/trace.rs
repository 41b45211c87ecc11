//! A workflow trace: the ordered collection of spans from one execution,
//! with the aggregations the Workflow Roofline Model consumes.

use crate::span::{SpanKind, TraceSpan};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A complete execution trace of one workflow run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Workflow name.
    pub workflow: String,
    /// Machine name the run executed on.
    pub machine: String,
    /// All spans (unordered; aggregations sort as needed).
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(workflow: impl Into<String>, machine: impl Into<String>) -> Self {
        Self {
            workflow: workflow.into(),
            machine: machine.into(),
            spans: Vec::new(),
        }
    }

    /// Appends a span.
    pub fn push(&mut self, span: TraceSpan) {
        self.spans.push(span);
    }

    /// End-to-end wall time: latest end minus earliest start (0 when
    /// empty). Queue wait before the first span is, by construction, not
    /// included — matching the paper's makespan definition.
    pub fn makespan(&self) -> f64 {
        let start = self
            .spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let end = self.spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
        if start.is_finite() {
            end - start
        } else {
            0.0
        }
    }

    /// Distinct task names in first-appearance order.
    pub fn task_names(&self) -> Vec<Arc<str>> {
        let mut seen = std::collections::BTreeSet::new();
        let mut names = Vec::new();
        for s in &self.spans {
            if seen.insert(&*s.task) {
                names.push(s.task.clone());
            }
        }
        names
    }

    /// Wall time of one task: latest end minus earliest start of its
    /// spans.
    pub fn task_time(&self, task: &str) -> Option<f64> {
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        for s in self.spans.iter().filter(|s| &*s.task == task) {
            start = start.min(s.start);
            end = end.max(s.end);
        }
        if start.is_finite() {
            Some(end - start)
        } else {
            None
        }
    }

    /// Time per breakdown category (the stacked bars of Fig. 5b and
    /// Fig. 10b). Durations of the same category add up across tasks,
    /// in span order. Each span's category is formatted into one reused
    /// buffer; only a category's first span allocates its key.
    pub fn breakdown(&self) -> TimeBreakdown {
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        let mut key = String::new();
        for s in &self.spans {
            key.clear();
            s.kind.write_category(&mut key);
            let sum = match map.get_mut(key.as_str()) {
                Some(sum) => sum,
                None => map.entry(key.clone()).or_insert(0.0),
            };
            *sum += s.duration();
        }
        TimeBreakdown {
            label: self.workflow.clone(),
            categories: map.into_iter().collect(),
        }
    }

    /// Total bytes through each system resource.
    pub fn system_bytes(&self) -> BTreeMap<String, f64> {
        let mut map = BTreeMap::new();
        for s in &self.spans {
            if let SpanKind::SystemData { resource, bytes } = &s.kind {
                *map.entry(resource.to_string()).or_insert(0.0) += bytes;
            }
        }
        map
    }

    /// Total bytes through each node resource (summed over tasks).
    pub fn node_bytes(&self) -> BTreeMap<String, f64> {
        let mut map = BTreeMap::new();
        for s in &self.spans {
            if let SpanKind::NodeData { resource, bytes } = &s.kind {
                *map.entry(resource.to_string()).or_insert(0.0) += bytes;
            }
        }
        map
    }

    /// Total FLOPs across all tasks.
    pub fn total_flops(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| match s.kind {
                SpanKind::Compute { flops } => flops,
                _ => 0.0,
            })
            .sum()
    }

    /// Writes the trace as JSON lines: one header line, then one line per
    /// span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = serde_json::json!({
            "workflow": self.workflow,
            "machine": self.machine,
            "spans": self.spans.len(),
        });
        out.push_str(&header.to_string());
        out.push('\n');
        for s in &self.spans {
            out.push_str(&serde_json::to_string(s).expect("span serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL format produced by [`Trace::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Self, serde_json::Error> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header: serde_json::Value = match lines.next() {
            Some(l) => serde_json::from_str(l)?,
            None => return Ok(Trace::default()),
        };
        let mut trace = Trace::new(
            header["workflow"].as_str().unwrap_or_default(),
            header["machine"].as_str().unwrap_or_default(),
        );
        for line in lines {
            trace.push(serde_json::from_str(line)?);
        }
        Ok(trace)
    }
}

/// Stacked time breakdown (Fig. 5b, Fig. 10b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Bar label (workflow or mode name).
    pub label: String,
    /// `(category, seconds)` pairs, sorted by category name.
    pub categories: Vec<(String, f64)>,
}

impl TimeBreakdown {
    /// Total time across categories.
    pub fn total(&self) -> f64 {
        self.categories.iter().map(|(_, t)| t).sum()
    }

    /// Seconds in one category (0 when absent).
    pub fn get(&self, category: &str) -> f64 {
        self.categories
            .iter()
            .find(|(c, _)| c == category)
            .map_or(0.0, |(_, t)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("lcls", "cori");
        for i in 0..5 {
            t.push(TraceSpan::new(
                format!("analyze[{i}]"),
                SpanKind::SystemData {
                    resource: "ext".into(),
                    bytes: 1e12,
                },
                0.0,
                1000.0,
                32,
            ));
            t.push(TraceSpan::new(
                format!("analyze[{i}]"),
                SpanKind::Compute { flops: 3e15 },
                1000.0,
                1015.0,
                32,
            ));
        }
        t.push(TraceSpan::new(
            "merge",
            SpanKind::SystemData {
                resource: "fs".into(),
                bytes: 5e9,
            },
            1015.0,
            1020.0,
            1,
        ));
        t
    }

    #[test]
    fn makespan_and_task_times() {
        let t = sample();
        assert!((t.makespan() - 1020.0).abs() < 1e-9);
        assert!((t.task_time("analyze[0]").unwrap() - 1015.0).abs() < 1e-9);
        assert!((t.task_time("merge").unwrap() - 5.0).abs() < 1e-9);
        assert!(t.task_time("nope").is_none());
        assert_eq!(t.task_names().len(), 6);
    }

    #[test]
    fn breakdown_sums_by_category() {
        let b = sample().breakdown();
        assert!((b.get("io:ext") - 5000.0).abs() < 1e-9);
        assert!((b.get("compute") - 75.0).abs() < 1e-9);
        assert!((b.get("io:fs") - 5.0).abs() < 1e-9);
        assert_eq!(b.get("absent"), 0.0);
        assert!((b.total() - 5080.0).abs() < 1e-9);
    }

    #[test]
    fn volume_aggregation() {
        let t = sample();
        let sys = t.system_bytes();
        assert!((sys["ext"] - 5e12).abs() < 1e-3);
        assert!((sys["fs"] - 5e9).abs() < 1e-3);
        assert!((t.total_flops() - 1.5e16).abs() < 1.0);
        assert!(t.node_bytes().is_empty());
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample();
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
        // Empty input parses to the default trace.
        assert_eq!(Trace::from_jsonl("").unwrap(), Trace::default());
        // Garbage fails.
        assert!(Trace::from_jsonl("{not json").is_err());
    }

    #[test]
    fn empty_trace_metrics() {
        let t = Trace::new("w", "m");
        assert_eq!(t.makespan(), 0.0);
        assert!(t.task_names().is_empty());
        assert_eq!(t.breakdown().total(), 0.0);
    }
}
