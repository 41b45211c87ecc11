//! Converting an execution trace into a [`WorkflowCharacterization`]:
//! the bridge from measurement to the Workflow Roofline Model.
//!
//! Volume semantics follow `wrm_core::charz`: node volumes are *per node,
//! per parallel slot* over the whole workflow, so each span contributes
//! `volume / span.nodes`, and the per-task sum is divided by the number
//! of parallel slots.

use crate::span::SpanKind;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use wrm_core::{Bytes, CoreError, Flops, Seconds, TargetSpec, Work, WorkflowCharacterization};

/// Structural facts the trace alone cannot know: they come from the
/// workflow description (sbatch/WDL metadata), exactly as in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Structure {
    /// Total tasks in the workflow.
    pub total_tasks: f64,
    /// Concurrently-runnable tasks.
    pub parallel_tasks: f64,
    /// Nodes per task.
    pub nodes_per_task: u64,
    /// Optional targets carried into the characterization.
    pub targets: TargetSpec,
}

impl Structure {
    /// A single serial task on `nodes` nodes.
    pub fn serial(nodes: u64) -> Self {
        Self {
            total_tasks: 1.0,
            parallel_tasks: 1.0,
            nodes_per_task: nodes,
            targets: TargetSpec::NONE,
        }
    }

    /// `parallel` of `total` tasks runnable concurrently, `nodes` each.
    pub fn new(total: f64, parallel: f64, nodes: u64) -> Self {
        Self {
            total_tasks: total,
            parallel_tasks: parallel,
            nodes_per_task: nodes,
            targets: TargetSpec::NONE,
        }
    }
}

/// Builds a characterization from a trace and the workflow structure.
///
/// The measured makespan is the trace's wall time; volumes are aggregated
/// from the spans. Overhead spans contribute time but no volume — which is
/// exactly how control-flow-bound workflows (GPTune) end up far below
/// every ceiling.
pub fn characterize(
    trace: &Trace,
    structure: &Structure,
) -> Result<WorkflowCharacterization, CoreError> {
    let mut builder = WorkflowCharacterization::builder(trace.workflow.clone())
        .total_tasks(structure.total_tasks)
        .parallel_tasks(structure.parallel_tasks)
        .nodes_per_task(structure.nodes_per_task)
        .targets(structure.targets);

    let makespan = trace.makespan();
    if makespan > 0.0 {
        builder = builder.makespan(Seconds(makespan));
    }

    let slot = structure.parallel_tasks;
    let mut compute_per_node = 0.0f64;
    for span in &trace.spans {
        match &span.kind {
            SpanKind::Compute { flops } => {
                compute_per_node += flops / span.nodes.max(1) as f64;
            }
            SpanKind::NodeData { resource, bytes } => {
                builder = builder.node_volume(
                    resource.as_str(),
                    Work::Bytes(Bytes(bytes / span.nodes.max(1) as f64 / slot)),
                );
            }
            SpanKind::SystemData { resource, bytes } => {
                builder = builder.system_volume(resource.as_str(), Bytes(*bytes));
            }
            SpanKind::Overhead { .. } => {}
        }
    }
    if compute_per_node > 0.0 {
        builder = builder.node_volume(
            wrm_core::ids::COMPUTE,
            Work::Flops(Flops(compute_per_node / slot)),
        );
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceSpan;
    use wrm_core::ids;

    /// A synthetic LCLS-shaped trace: five 32-node analyses each moving
    /// 1 TB external and 32 GB/node DRAM, then a merge.
    fn lcls_trace() -> Trace {
        let mut t = Trace::new("LCLS", "Cori Haswell");
        for i in 0..5 {
            let task = format!("analyze[{i}]");
            t.push(TraceSpan::new(
                task.clone(),
                SpanKind::SystemData {
                    resource: ids::EXTERNAL.into(),
                    bytes: 1e12,
                },
                0.0,
                1000.0,
                32,
            ));
            t.push(TraceSpan::new(
                task,
                SpanKind::NodeData {
                    resource: ids::DRAM.into(),
                    bytes: 32e9 * 32.0,
                },
                1000.0,
                1012.0,
                32,
            ));
        }
        t.push(TraceSpan::new(
            "merge",
            SpanKind::SystemData {
                resource: ids::FILE_SYSTEM.into(),
                bytes: 5e9,
            },
            1012.0,
            1020.0,
            1,
        ));
        t
    }

    #[test]
    fn lcls_characterization_matches_appendix_inputs() {
        let c = characterize(&lcls_trace(), &Structure::new(6.0, 5.0, 32)).unwrap();
        assert_eq!(c.name, "LCLS");
        assert!((c.makespan.unwrap().get() - 1020.0).abs() < 1e-9);
        // System external: 5 tasks x 1 TB.
        assert!((c.system_volumes[ids::EXTERNAL].get() - 5e12).abs() < 1.0);
        // Per-node DRAM volume: 32 GB (one task per slot).
        let w = &c.node_volumes[ids::DRAM];
        assert!((w.magnitude() - 32e9).abs() < 1.0);
    }

    #[test]
    fn compute_flops_are_aggregated_per_slot() {
        // BGW-shaped: two serial tasks on the same 64 nodes.
        let mut t = Trace::new("BGW", "PM-GPU");
        t.push(TraceSpan::new(
            "Epsilon",
            SpanKind::Compute { flops: 1164e15 },
            0.0,
            1200.0,
            64,
        ));
        t.push(TraceSpan::new(
            "Sigma",
            SpanKind::Compute { flops: 3226e15 },
            1200.0,
            4185.0,
            64,
        ));
        let c = characterize(&t, &Structure::new(2.0, 1.0, 64)).unwrap();
        let w = &c.node_volumes[ids::COMPUTE];
        assert!((w.magnitude() - 4390e15 / 64.0).abs() < 1e6);
        assert!((c.makespan.unwrap().get() - 4185.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_contributes_time_but_no_volume() {
        let mut t = Trace::new("GPTune", "PM-CPU");
        t.push(TraceSpan::new(
            "iter[0]",
            SpanKind::Overhead {
                label: "python".into(),
            },
            0.0,
            400.0,
            1,
        ));
        t.push(TraceSpan::new(
            "iter[0]",
            SpanKind::SystemData {
                resource: ids::FILE_SYSTEM.into(),
                bytes: 45e6,
            },
            400.0,
            430.0,
            1,
        ));
        let c = characterize(&t, &Structure::serial(1)).unwrap();
        assert!(c.node_volumes.is_empty());
        assert!((c.system_volumes[ids::FILE_SYSTEM].get() - 45e6).abs() < 1.0);
        assert!((c.makespan.unwrap().get() - 430.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_has_no_makespan() {
        let t = Trace::new("w", "m");
        let c = characterize(&t, &Structure::serial(1)).unwrap();
        assert!(c.makespan.is_none());
        assert!(c.node_volumes.is_empty());
        assert!(c.system_volumes.is_empty());
    }

    #[test]
    fn structure_builders() {
        let s = Structure::serial(4);
        assert_eq!(s.nodes_per_task, 4);
        assert_eq!(s.targets, TargetSpec::NONE);
    }
}
