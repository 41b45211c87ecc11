//! Workflow characterization: the lightweight metrics Section III-B of
//! the paper feeds into the Workflow Roofline Model.
//!
//! A [`WorkflowCharacterization`] records, for one workflow execution
//! (or plan):
//!
//! * **task structure** — total tasks, concurrently-runnable tasks, and
//!   nodes per task (from the workflow description, e.g. sbatch/WDL);
//! * **node volumes** — per-node FLOPs and bytes *one node processes over
//!   the whole workflow* (a parallel "slot" executes
//!   `total_tasks / parallel_tasks` tasks serially, and their per-node
//!   volumes add up);
//! * **system volumes** — total bytes the *whole workflow* moves through
//!   each shared resource (file system, NICs, external links);
//! * the measured **makespan** (queue wait excluded) and optional
//!   makespan/throughput **targets**.
//!
//! The throughput unit ("task") is whatever the workflow counts:
//! applications for LCLS/BGW, epochs for the CosmoFlow throughput
//! benchmark, tuning campaigns for GPTune. Counts are `f64` so that
//! fractional units (average epochs per instance) are expressible.

use crate::error::CoreError;
use crate::resource::ResourceId;
use crate::units::{Bytes, Seconds, TasksPerSec, Work};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Optional performance targets (Fig. 2a): a deadline for one workflow
/// instance and/or a task-rate target.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TargetSpec {
    /// Target makespan for the workflow (e.g. LCLS's 10 minutes in 2020).
    pub makespan: Option<Seconds>,
    /// Target throughput (e.g. 6 tasks / 600 s).
    pub throughput: Option<TasksPerSec>,
}

impl TargetSpec {
    /// No targets.
    pub const NONE: TargetSpec = TargetSpec {
        makespan: None,
        throughput: None,
    };

    /// Both a makespan and a throughput target.
    pub fn new(makespan: Seconds, throughput: TasksPerSec) -> Self {
        Self {
            makespan: Some(makespan),
            throughput: Some(throughput),
        }
    }
}

/// The measured/estimated characterization of one workflow execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowCharacterization {
    /// Workflow name (used in plot titles and reports).
    pub name: String,
    /// Total number of tasks the workflow retires.
    pub total_tasks: f64,
    /// Number of tasks that can execute concurrently (the x coordinate).
    pub parallel_tasks: f64,
    /// Nodes each task occupies (defines the parallelism wall).
    pub nodes_per_task: u64,
    /// Measured end-to-end wall-clock time, when available.
    pub makespan: Option<Seconds>,
    /// Per-node work over the whole workflow, keyed by node resource.
    pub node_volumes: BTreeMap<ResourceId, Work>,
    /// Total workflow data volume through each shared system resource.
    pub system_volumes: BTreeMap<ResourceId, Bytes>,
    /// Optional makespan/throughput targets.
    pub targets: TargetSpec,
}

impl WorkflowCharacterization {
    /// Starts building a characterization.
    pub fn builder(name: impl Into<String>) -> CharacterizationBuilder {
        CharacterizationBuilder {
            inner: WorkflowCharacterization {
                name: name.into(),
                total_tasks: 1.0,
                parallel_tasks: 1.0,
                nodes_per_task: 1,
                makespan: None,
                node_volumes: BTreeMap::new(),
                system_volumes: BTreeMap::new(),
                targets: TargetSpec::NONE,
            },
        }
    }

    /// `total_tasks / parallel_tasks`: how many tasks one parallel slot
    /// retires serially. Always >= 1 for a valid characterization.
    pub fn kappa(&self) -> f64 {
        self.total_tasks / self.parallel_tasks
    }

    /// Achieved throughput `total_tasks / makespan` (the dot's y value).
    pub fn throughput(&self) -> Result<TasksPerSec, CoreError> {
        let m = self
            .makespan
            .ok_or_else(|| CoreError::MissingMakespan(self.name.clone()))?;
        Ok(TasksPerSec(self.total_tasks / m.get()))
    }

    /// Total nodes the workflow occupies when running at full width.
    pub fn nodes_in_use(&self) -> f64 {
        self.nodes_per_task as f64 * self.parallel_tasks
    }

    /// Checks structural validity: positive counts, valid volumes, and a
    /// parallelism that does not exceed the task count.
    pub fn validate(&self) -> Result<(), CoreError> {
        let check_pos = |v: f64, what: &str| -> Result<(), CoreError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(CoreError::InvalidInput(format!(
                    "{}: {what} must be positive, got {v}",
                    self.name
                )))
            }
        };
        check_pos(self.total_tasks, "total_tasks")?;
        check_pos(self.parallel_tasks, "parallel_tasks")?;
        if self.nodes_per_task == 0 {
            return Err(CoreError::InvalidInput(format!(
                "{}: nodes_per_task must be at least 1",
                self.name
            )));
        }
        if self.parallel_tasks > self.total_tasks {
            return Err(CoreError::InvalidInput(format!(
                "{}: parallel_tasks ({}) exceeds total_tasks ({})",
                self.name, self.parallel_tasks, self.total_tasks
            )));
        }
        if let Some(m) = self.makespan {
            check_pos(m.get(), "makespan")?;
        }
        for (id, w) in &self.node_volumes {
            if !(w.magnitude().is_finite() && w.magnitude() >= 0.0) {
                return Err(CoreError::InvalidInput(format!(
                    "{}: node volume {id} is invalid",
                    self.name
                )));
            }
        }
        for (id, b) in &self.system_volumes {
            if !b.is_valid() {
                return Err(CoreError::InvalidInput(format!(
                    "{}: system volume {id} is invalid",
                    self.name
                )));
            }
        }
        if let Some(t) = self.targets.makespan {
            check_pos(t.get(), "target makespan")?;
        }
        if let Some(t) = self.targets.throughput {
            check_pos(t.get(), "target throughput")?;
        }
        Ok(())
    }

    /// Returns a copy with a different name (for plot legends).
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        let mut c = self.clone();
        c.name = name.into();
        c
    }
}

/// Fluent construction of [`WorkflowCharacterization`].
#[derive(Debug, Clone)]
pub struct CharacterizationBuilder {
    inner: WorkflowCharacterization,
}

impl CharacterizationBuilder {
    /// Sets the total task count.
    pub fn total_tasks(mut self, n: f64) -> Self {
        self.inner.total_tasks = n;
        self
    }

    /// Sets the parallel task count (x coordinate).
    pub fn parallel_tasks(mut self, n: f64) -> Self {
        self.inner.parallel_tasks = n;
        self
    }

    /// Sets the nodes required per task.
    pub fn nodes_per_task(mut self, n: u64) -> Self {
        self.inner.nodes_per_task = n;
        self
    }

    /// Sets the measured makespan.
    pub fn makespan(mut self, m: Seconds) -> Self {
        self.inner.makespan = Some(m);
        self
    }

    /// Records per-node work for a node resource (adds to any existing
    /// volume of the same unit; replaces on unit mismatch).
    pub fn node_volume(mut self, id: impl Into<ResourceId>, work: Work) -> Self {
        let id = id.into();
        let merged = match self.inner.node_volumes.get(&id) {
            Some(old) => old.checked_add(work).unwrap_or(work),
            None => work,
        };
        self.inner.node_volumes.insert(id, merged);
        self
    }

    /// Records total workflow bytes through a shared system resource
    /// (accumulates).
    pub fn system_volume(mut self, id: impl Into<ResourceId>, bytes: Bytes) -> Self {
        let id = id.into();
        *self.inner.system_volumes.entry(id).or_insert(Bytes::ZERO) += bytes;
        self
    }

    /// Sets targets.
    pub fn targets(mut self, targets: TargetSpec) -> Self {
        self.inner.targets = targets;
        self
    }

    /// Sets only the makespan target.
    pub fn target_makespan(mut self, m: Seconds) -> Self {
        self.inner.targets.makespan = Some(m);
        self
    }

    /// Sets only the throughput target.
    pub fn target_throughput(mut self, t: TasksPerSec) -> Self {
        self.inner.targets.throughput = Some(t);
        self
    }

    /// Validates and returns the characterization.
    pub fn build(self) -> Result<WorkflowCharacterization, CoreError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ids;
    use crate::units::Flops;

    fn lcls_like() -> WorkflowCharacterization {
        WorkflowCharacterization::builder("lcls")
            .total_tasks(6.0)
            .parallel_tasks(5.0)
            .nodes_per_task(32)
            .makespan(Seconds::minutes(17.0))
            .node_volume(ids::DRAM, Work::Bytes(Bytes::gb(32.0)))
            .system_volume(ids::EXTERNAL, Bytes::tb(5.0))
            .targets(TargetSpec::new(
                Seconds::secs(600.0),
                TasksPerSec(6.0 / 600.0),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn throughput_and_kappa() {
        let c = lcls_like();
        assert!((c.kappa() - 1.2).abs() < 1e-12);
        let tps = c.throughput().unwrap();
        assert!((tps.get() - 6.0 / 1020.0).abs() < 1e-9);
        assert!((c.nodes_in_use() - 160.0).abs() < 1e-12);
    }

    #[test]
    fn missing_makespan_is_an_error() {
        let c = WorkflowCharacterization::builder("x").build().unwrap();
        assert!(matches!(c.throughput(), Err(CoreError::MissingMakespan(_))));
        let c2 = WorkflowCharacterization {
            makespan: Some(Seconds::secs(10.0)),
            ..c
        };
        assert!((c2.throughput().unwrap().get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn volumes_accumulate() {
        let c = WorkflowCharacterization::builder("acc")
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(1164.0 / 64.0)))
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(3226.0 / 64.0)))
            .system_volume(ids::FILE_SYSTEM, Bytes::gb(35.0))
            .system_volume(ids::FILE_SYSTEM, Bytes::gb(35.0))
            .build()
            .unwrap();
        let w = c.node_volumes.get(ids::COMPUTE).unwrap();
        assert!((w.magnitude() - (1164.0 + 3226.0) / 64.0 * 1e15).abs() < 1e3);
        assert_eq!(
            c.system_volumes.get(ids::FILE_SYSTEM),
            Some(&Bytes::gb(70.0))
        );
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(WorkflowCharacterization::builder("z")
            .total_tasks(0.0)
            .build()
            .is_err());
        assert!(WorkflowCharacterization::builder("z")
            .total_tasks(2.0)
            .parallel_tasks(3.0)
            .build()
            .is_err());
        assert!(WorkflowCharacterization::builder("z")
            .nodes_per_task(0)
            .build()
            .is_err());
        assert!(WorkflowCharacterization::builder("z")
            .makespan(Seconds(-1.0))
            .build()
            .is_err());
        assert!(WorkflowCharacterization::builder("z")
            .target_makespan(Seconds(0.0))
            .build()
            .is_err());
    }

    #[test]
    fn fractional_task_units_are_allowed() {
        // CosmoFlow counts epochs: 12 instances x 25 epochs each.
        let c = WorkflowCharacterization::builder("cosmoflow")
            .total_tasks(12.0 * 25.0)
            .parallel_tasks(12.0)
            .nodes_per_task(128)
            .build()
            .unwrap();
        assert!((c.kappa() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let c = lcls_like();
        let json = serde_json::to_string(&c).unwrap();
        let back: WorkflowCharacterization = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
