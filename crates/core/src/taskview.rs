//! The task view of the Workflow Roofline (Fig. 7c): each task plotted
//! individually against its own per-node ceilings, guiding finer-grained
//! optimization. The lower a task sits, the longer its makespan; the
//! farther it sits below its own binding ceiling, the more node headroom
//! it has.

use crate::error::CoreError;
use crate::machine::Machine;
use crate::resource::ResourceId;
use crate::units::{Seconds, TasksPerSec, Work};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One task's node-level characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskCharacterization {
    /// Task name ("Epsilon", "Sigma", ...).
    pub name: String,
    /// Nodes this task occupies.
    pub nodes: u64,
    /// Measured wall-clock time of the task, when available.
    pub measured: Option<Seconds>,
    /// Per-node work for this task alone, keyed by node resource.
    pub node_volumes: BTreeMap<ResourceId, Work>,
}

impl TaskCharacterization {
    /// Builds a task characterization.
    pub fn new(name: impl Into<String>, nodes: u64) -> Self {
        Self {
            name: name.into(),
            nodes,
            measured: None,
            node_volumes: BTreeMap::new(),
        }
    }

    /// Sets the measured time.
    pub fn with_measured(mut self, t: Seconds) -> Self {
        self.measured = Some(t);
        self
    }

    /// Adds per-node work.
    pub fn with_node_volume(mut self, id: impl Into<ResourceId>, work: Work) -> Self {
        self.node_volumes.insert(id.into(), work);
        self
    }
}

/// One plotted point in the task view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskPoint {
    /// Task name.
    pub name: String,
    /// Nodes used.
    pub nodes: u64,
    /// Ideal time on each node resource (`volume / peak`) -- each is a
    /// per-task diagonal ceiling `y(x) = x / t`.
    pub ceiling_times: BTreeMap<ResourceId, Seconds>,
    /// Measured time, when available.
    pub measured: Option<Seconds>,
    /// Achieved task throughput `1 / measured` at `x = 1`.
    pub tps: Option<TasksPerSec>,
    /// `min(ceiling_times) / measured`: fraction of the binding node
    /// ceiling achieved (Fig. 7c: Epsilon sits farther from its ceiling
    /// than Sigma).
    pub node_efficiency: Option<f64>,
}

/// The assembled task view for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskView {
    /// Machine name.
    pub machine_name: String,
    /// One point per task.
    pub points: Vec<TaskPoint>,
}

impl TaskView {
    /// Builds the task view, checking resources and units against the
    /// machine.
    pub fn build(machine: &Machine, tasks: &[TaskCharacterization]) -> Result<Self, CoreError> {
        machine.validate()?;
        let mut points = Vec::with_capacity(tasks.len());
        for task in tasks {
            if task.nodes == 0 {
                return Err(CoreError::InvalidInput(format!(
                    "task {} uses zero nodes",
                    task.name
                )));
            }
            let mut ceiling_times = BTreeMap::new();
            for (id, work) in &task.node_volumes {
                let res = machine
                    .node_resource(id.as_str())
                    .ok_or_else(|| CoreError::UnknownResource(id.to_string()))?;
                if work.magnitude() == 0.0 {
                    continue;
                }
                let t = work
                    .time_at(res.peak_per_node)
                    .ok_or_else(|| CoreError::UnitMismatch {
                        resource: id.to_string(),
                        volume_unit: work.unit().to_string(),
                        peak_unit: res.peak_per_node.unit().to_string(),
                    })?;
                ceiling_times.insert(id.clone(), t);
            }
            let tps = task.measured.map(|m| TasksPerSec(1.0 / m.get()));
            let node_efficiency = match (task.measured, ceiling_times.values().next()) {
                (Some(m), Some(_)) => {
                    let binding = ceiling_times
                        .values()
                        .map(|t| t.get())
                        .fold(f64::NEG_INFINITY, f64::max);
                    Some(binding / m.get())
                }
                _ => None,
            };
            points.push(TaskPoint {
                name: task.name.clone(),
                nodes: task.nodes,
                ceiling_times,
                measured: task.measured,
                tps,
                node_efficiency,
            });
        }
        Ok(TaskView {
            machine_name: machine.name.clone(),
            points,
        })
    }

    /// The task dominating the workflow makespan: the one with the
    /// longest measured time (lowest dot in Fig. 7c).
    pub fn dominant_task(&self) -> Option<&TaskPoint> {
        self.points
            .iter()
            .filter(|p| p.measured.is_some())
            .max_by(|a, b| {
                a.measured
                    .unwrap()
                    .get()
                    .partial_cmp(&b.measured.unwrap().get())
                    .expect("finite")
            })
    }

    /// The measured task with the most headroom to its own node ceiling:
    /// the best candidate for node-level optimization.
    pub fn best_optimization_candidate(&self) -> Option<&TaskPoint> {
        self.points
            .iter()
            .filter(|p| p.node_efficiency.is_some())
            .min_by(|a, b| {
                a.node_efficiency
                    .unwrap()
                    .partial_cmp(&b.node_efficiency.unwrap())
                    .expect("finite")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use crate::resource::ids;
    use crate::units::Flops;

    /// The BGW tasks of Fig. 7c: Epsilon 1164 PFLOPs, Sigma 3226 PFLOPs.
    fn bgw_tasks(nodes: u64, te: f64, ts: f64) -> Vec<TaskCharacterization> {
        vec![
            TaskCharacterization::new("Epsilon", nodes)
                .with_measured(Seconds::secs(te))
                .with_node_volume(
                    ids::COMPUTE,
                    Work::Flops(Flops::pflops(1164.0) / nodes as f64),
                ),
            TaskCharacterization::new("Sigma", nodes)
                .with_measured(Seconds::secs(ts))
                .with_node_volume(
                    ids::COMPUTE,
                    Work::Flops(Flops::pflops(3226.0) / nodes as f64),
                ),
        ]
    }

    #[test]
    fn bgw_ceiling_times_match_fig7c() {
        let m = machines::perlmutter_gpu();
        let view = TaskView::build(&m, &bgw_tasks(64, 1200.0, 2985.0)).unwrap();
        let eps = &view.points[0];
        let sig = &view.points[1];
        // Paper labels: ~490 s per Epsilon and ~1289 s per Sigma at 64
        // nodes (our exact arithmetic: 469 s and 1300 s).
        let te = eps.ceiling_times.get(ids::COMPUTE).unwrap().get();
        let ts = sig.ceiling_times.get(ids::COMPUTE).unwrap().get();
        assert!((te - 468.8).abs() < 1.0, "epsilon {te}");
        assert!((ts - 1299.4).abs() < 1.0, "sigma {ts}");

        // At 1024 nodes: ~28 s and ~79 s.
        let view = TaskView::build(&m, &bgw_tasks(1024, 180.0, 225.0)).unwrap();
        let te = view.points[0]
            .ceiling_times
            .get(ids::COMPUTE)
            .unwrap()
            .get();
        let ts = view.points[1]
            .ceiling_times
            .get(ids::COMPUTE)
            .unwrap()
            .get();
        assert!((te - 29.3).abs() < 0.5, "epsilon {te}");
        assert!((ts - 81.2).abs() < 0.5, "sigma {ts}");
    }

    #[test]
    fn sigma_dominates_the_makespan() {
        let m = machines::perlmutter_gpu();
        let view = TaskView::build(&m, &bgw_tasks(64, 1200.0, 2985.0)).unwrap();
        assert_eq!(view.dominant_task().unwrap().name, "Sigma");
    }

    #[test]
    fn epsilon_is_the_optimization_candidate_at_1024() {
        // At 1024 nodes Epsilon reaches ~16% of its ceiling, Sigma ~36%:
        // Epsilon is farther from the node ceiling (paper's observation).
        let m = machines::perlmutter_gpu();
        let view = TaskView::build(&m, &bgw_tasks(1024, 180.0, 225.0)).unwrap();
        let cand = view.best_optimization_candidate().unwrap();
        assert_eq!(cand.name, "Epsilon");
        let e = cand.node_efficiency.unwrap();
        assert!((e - 0.163).abs() < 0.01, "eff {e}");
    }

    #[test]
    fn binding_resource_is_reported() {
        let m = machines::perlmutter_gpu();
        let task = TaskCharacterization::new("t", 1)
            .with_node_volume(ids::COMPUTE, Work::Flops(Flops::tflops(38.8)))
            .with_node_volume(
                ids::HBM,
                Work::Bytes(crate::units::Bytes::gb(6220.0 * 10.0)),
            );
        let view = TaskView::build(&m, &[task]).unwrap();
        // HBM: 10 s vs compute: 1 s -- HBM binds.
        let (id, t) = view.points[0]
            .ceiling_times
            .iter()
            .max_by(|a, b| a.1.get().total_cmp(&b.1.get()))
            .unwrap();
        assert_eq!(id.as_str(), ids::HBM);
        assert!((t.get() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn errors_on_bad_tasks() {
        let m = machines::perlmutter_gpu();
        let zero_nodes = TaskCharacterization::new("t", 0);
        assert!(TaskView::build(&m, &[zero_nodes]).is_err());
        let unknown = TaskCharacterization::new("t", 1)
            .with_node_volume("nope", Work::Flops(Flops::tflops(1.0)));
        assert!(matches!(
            TaskView::build(&m, &[unknown]),
            Err(CoreError::UnknownResource(_))
        ));
        let mismatch = TaskCharacterization::new("t", 1)
            .with_node_volume(ids::COMPUTE, Work::Bytes(crate::units::Bytes::gb(1.0)));
        assert!(matches!(
            TaskView::build(&m, &[mismatch]),
            Err(CoreError::UnitMismatch { .. })
        ));
    }

    #[test]
    fn unmeasured_tasks_have_no_tps() {
        let m = machines::perlmutter_gpu();
        let t = TaskCharacterization::new("plan", 4)
            .with_node_volume(ids::COMPUTE, Work::Flops(Flops::tflops(1.0)));
        let view = TaskView::build(&m, &[t]).unwrap();
        assert!(view.points[0].tps.is_none());
        assert!(view.points[0].node_efficiency.is_none());
        assert!(view.dominant_task().is_none());
        assert!(view.best_optimization_candidate().is_none());
    }
}
