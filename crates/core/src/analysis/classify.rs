//! Bound classification (Fig. 3): is the workflow node-bound,
//! system-bound, or parallelism-bound, and which resource binds?

use crate::roofline::{CeilingKind, RooflineModel};
use serde::{Deserialize, Serialize};

/// The category of the binding constraint at the workflow's operating
/// point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoundKind {
    /// A node-local ceiling binds (blue region of Fig. 3a): improve node
    /// efficiency or widen parallelism.
    Node {
        /// The binding node resource id.
        resource: String,
    },
    /// A shared system ceiling binds (orange region of Fig. 3b): more
    /// parallel tasks will not help; bandwidth or contention is the issue.
    System {
        /// The binding system resource id.
        resource: String,
    },
    /// The workflow already runs at the parallelism wall and the envelope
    /// there exceeds its throughput only marginally.
    Parallelism,
    /// No ceilings were derived (no volumes recorded).
    Unbounded,
}

/// The result of classifying a workflow's operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundReport {
    /// What binds at the workflow's own x.
    pub bound: BoundKind,
    /// Achieved fraction of the attainable envelope (1.0 = on the
    /// envelope), when a measured dot exists.
    pub efficiency: Option<f64>,
    /// Gap factor between the binding node and binding system ceilings at
    /// the workflow's x (`node / system`); > 1 means the system ceiling is
    /// the lower of the two.
    pub node_over_system: Option<f64>,
}

/// Classifies the binding constraint of `model` at the workflow's own
/// parallelism.
///
/// The workflow is *parallelism-bound* when it sits at the wall and the
/// binding ceiling at the wall is a node ceiling (so widening would have
/// helped if the machine allowed it).
pub fn classify(model: &RooflineModel) -> BoundReport {
    let x = model.workflow.parallel_tasks;
    let efficiency = model.efficiency();

    let node_min = model.node_ceilings().first().map(|c| c.tps_at(x).get());
    let system_min = model.system_ceilings().first().map(|c| c.tps_at(x).get());
    let node_over_system = match (node_min, system_min) {
        (Some(n), Some(s)) if s > 0.0 => Some(n / s),
        _ => None,
    };

    let Some(binding) = model.binding_ceiling() else {
        return BoundReport {
            bound: BoundKind::Unbounded,
            efficiency,
            node_over_system,
        };
    };

    let at_wall = x >= model.parallelism_wall as f64 - 1e-9;
    let bound = match binding.kind {
        CeilingKind::Node if at_wall => BoundKind::Parallelism,
        CeilingKind::Node => BoundKind::Node {
            resource: binding.resource.to_string(),
        },
        CeilingKind::System => BoundKind::System {
            resource: binding.resource.to_string(),
        },
    };
    BoundReport {
        bound,
        efficiency,
        node_over_system,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charz::WorkflowCharacterization;
    use crate::machines;
    use crate::resource::ids;
    use crate::roofline::RooflineModel;
    use crate::units::{Bytes, Flops, Seconds, Work};

    fn model_with(nodes: u64, parallel: f64, flops_per_node: Flops, ext: Bytes) -> RooflineModel {
        let wf = WorkflowCharacterization::builder("t")
            .total_tasks(parallel)
            .parallel_tasks(parallel)
            .nodes_per_task(nodes)
            .makespan(Seconds::secs(10_000.0))
            .node_volume(ids::COMPUTE, Work::Flops(flops_per_node))
            .system_volume(ids::EXTERNAL, ext)
            .build()
            .unwrap();
        RooflineModel::build(&machines::perlmutter_gpu(), &wf).unwrap()
    }

    #[test]
    fn heavy_compute_is_node_bound() {
        // Huge per-node FLOPs, tiny external volume.
        let m = model_with(64, 4.0, Flops::pflops(100.0), Bytes::gb(1.0));
        let r = classify(&m);
        assert_eq!(
            r.bound,
            BoundKind::Node {
                resource: ids::COMPUTE.to_owned()
            }
        );
        assert!(r.node_over_system.unwrap() < 1.0);
    }

    #[test]
    fn heavy_external_is_system_bound() {
        let m = model_with(64, 4.0, Flops::gflops(1.0), Bytes::tb(10_000.0));
        let r = classify(&m);
        assert_eq!(
            r.bound,
            BoundKind::System {
                resource: ids::EXTERNAL.to_owned()
            }
        );
        assert!(r.node_over_system.unwrap() > 1.0);
    }

    #[test]
    fn at_wall_with_node_binding_is_parallelism_bound() {
        // 28 parallel 64-node tasks = the PM-GPU wall.
        let m = model_with(64, 28.0, Flops::pflops(100.0), Bytes::gb(1.0));
        let r = classify(&m);
        assert_eq!(r.bound, BoundKind::Parallelism);
    }

    #[test]
    fn no_volumes_is_unbounded() {
        let wf = WorkflowCharacterization::builder("t").build().unwrap();
        let model = RooflineModel::build(&machines::perlmutter_gpu(), &wf).unwrap();
        let r = classify(&model);
        assert_eq!(r.bound, BoundKind::Unbounded);
        assert!(r.efficiency.is_none());
        assert!(r.node_over_system.is_none());
    }

    #[test]
    fn efficiency_reported_with_dot() {
        let m = model_with(64, 4.0, Flops::pflops(100.0), Bytes::gb(1.0));
        let r = classify(&m);
        let e = r.efficiency.unwrap();
        assert!(e > 0.0 && e <= 1.0 + 1e-9);
    }
}
