//! Trace records: phase-level spans emitted by a workflow execution
//! (simulated in `wrm-sim`, or imported from real timing reports).
//!
//! The paper stresses *lightweight* metrics: per task we only record what
//! the model consumes — wall-clock spans, data volumes per resource, and
//! FLOP counts — never per-rank hardware counters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What a span spent its time on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SpanKind {
    /// Node-local floating-point computation.
    Compute {
        /// Total FLOPs retired by the task across all its nodes.
        flops: f64,
    },
    /// Node-local data movement (DRAM, HBM, PCIe).
    NodeData {
        /// Node resource id (matches `wrm_core::ids`).
        resource: String,
        /// Total bytes moved by the task across all its nodes.
        bytes: f64,
    },
    /// Shared-system data movement (file system, NICs, external links).
    SystemData {
        /// System resource id.
        resource: String,
        /// Total bytes moved by the task.
        bytes: f64,
    },
    /// Fixed control-flow overhead (bash, python, srun, metadata).
    Overhead {
        /// Overhead label for breakdown charts.
        label: String,
    },
}

impl SpanKind {
    /// The breakdown-category name for this kind.
    pub fn category(&self) -> String {
        match self {
            SpanKind::Compute { .. } => "compute".to_owned(),
            SpanKind::NodeData { resource, .. } => format!("node:{resource}"),
            SpanKind::SystemData { resource, .. } => format!("io:{resource}"),
            SpanKind::Overhead { label } => label.clone(),
        }
    }
}

/// One timed phase of one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Task name the span belongs to.
    pub task: String,
    /// What the time was spent on.
    pub kind: SpanKind,
    /// Start time, seconds from workflow start.
    pub start: f64,
    /// End time, seconds from workflow start.
    pub end: f64,
    /// Nodes the task held during the span.
    pub nodes: u64,
}

impl TraceSpan {
    /// Creates a span; panics in debug builds when `end < start`.
    pub fn new(task: impl Into<String>, kind: SpanKind, start: f64, end: f64, nodes: u64) -> Self {
        debug_assert!(end >= start, "span ends before it starts");
        Self {
            task: task.into(),
            kind,
            start,
            end,
            nodes,
        }
    }

    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

impl fmt::Display for TraceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10.3}s..{:>10.3}s] {} {} ({} nodes)",
            self.start,
            self.end,
            self.task,
            self.kind.category(),
            self.nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(SpanKind::Compute { flops: 1.0 }.category(), "compute");
        assert_eq!(
            SpanKind::NodeData {
                resource: "hbm".into(),
                bytes: 1.0
            }
            .category(),
            "node:hbm"
        );
        assert_eq!(
            SpanKind::SystemData {
                resource: "fs".into(),
                bytes: 1.0
            }
            .category(),
            "io:fs"
        );
        assert_eq!(
            SpanKind::Overhead {
                label: "python".into()
            }
            .category(),
            "python"
        );
    }

    #[test]
    fn duration_and_display() {
        let s = TraceSpan::new(
            "t",
            SpanKind::SystemData {
                resource: "ext".into(),
                bytes: 1e12,
            },
            10.0,
            1010.0,
            32,
        );
        assert!((s.duration() - 1000.0).abs() < 1e-12);
        let z = TraceSpan::new("t", SpanKind::Overhead { label: "b".into() }, 1.0, 1.0, 1);
        assert!(z.to_string().contains("t"));
    }

    #[test]
    fn serde_round_trip_all_kinds() {
        let spans = vec![
            TraceSpan::new("a", SpanKind::Compute { flops: 2e15 }, 0.0, 5.0, 64),
            TraceSpan::new(
                "a",
                SpanKind::NodeData {
                    resource: "pcie".into(),
                    bytes: 8e10,
                },
                5.0,
                6.0,
                64,
            ),
            TraceSpan::new(
                "a",
                SpanKind::SystemData {
                    resource: "fs".into(),
                    bytes: 7e10,
                },
                6.0,
                7.0,
                64,
            ),
            TraceSpan::new(
                "a",
                SpanKind::Overhead {
                    label: "srun".into(),
                },
                7.0,
                9.0,
                64,
            ),
        ];
        for s in spans {
            let json = serde_json::to_string(&s).unwrap();
            let back: TraceSpan = serde_json::from_str(&json).unwrap();
            assert_eq!(s, back);
        }
    }
}
