//! The Workflow Roofline Model: ceilings, walls, the attainable region,
//! and the empirical workflow dot (Eq. 1 and Fig. 1 of the paper).
//!
//! A workflow's throughput in tasks/second (TPS) is bounded by
//!
//! ```text
//! TPS <= min { x,                                  (parallelism)
//!              x * kappa / t_r   for node resources r,   (diagonals)
//!              n_total / T_s     for system resources s } (horizontals)
//! ```
//!
//! where `x` is the number of parallel tasks, `kappa = n_total /
//! n_parallel`, `t_r` is the time one node needs for its share of the
//! whole workflow's volume on resource `r` at peak rate, and `T_s` is the
//! time the shared resource `s` needs for the whole workflow's volume at
//! aggregate peak. The vertical *system parallelism wall* caps `x` at
//! `floor(total_nodes / nodes_per_task)`.
//!
//! Unlike the classic Roofline, the ceilings are *workflow-specific*: they
//! move when the workflow's volumes change, which is exactly what makes
//! the single figure interpretable (Section III-D).

use crate::charz::WorkflowCharacterization;
use crate::error::CoreError;
use crate::machine::Machine;
use crate::resource::ResourceId;
use crate::units::{Seconds, TasksPerSec};
use serde::{Deserialize, Serialize};

/// Whether a ceiling is node-local (diagonal) or system-wide (horizontal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CeilingKind {
    /// Node-local resource: capacity grows with parallel tasks.
    Node,
    /// Shared system resource: capacity is fixed (or fixed by the
    /// workflow's allocation).
    System,
}

/// One performance ceiling in the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ceiling {
    /// The machine resource this ceiling comes from.
    pub resource: ResourceId,
    /// Plot label, e.g. `"GPU FLOPS = perform 69 PFLOPS @ 38.8 TFLOP/s"`.
    pub label: String,
    /// Diagonal (node) or horizontal (system).
    pub kind: CeilingKind,
    /// Characteristic time: `t_r` for node ceilings (per-slot node time),
    /// `T_s` for system ceilings (shared-resource drain time).
    pub time: Seconds,
    /// Throughput bound at `x = 1` parallel task. Node ceilings scale
    /// linearly with `x`; system ceilings are constant at
    /// `n_total / T_s` regardless of `x`.
    pub tps_at_one: TasksPerSec,
}

impl Ceiling {
    /// The throughput bound this ceiling imposes at `x` parallel tasks.
    pub fn tps_at(&self, x: f64) -> TasksPerSec {
        match self.kind {
            CeilingKind::Node => TasksPerSec(self.tps_at_one.get() * x),
            CeilingKind::System => self.tps_at_one,
        }
    }
}

/// An empirical point on the roofline plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Legend label ("Good days", "RCI", ...).
    pub label: String,
    /// Parallel tasks (x coordinate).
    pub x: f64,
    /// Achieved throughput (y coordinate).
    pub tps: TasksPerSec,
}

/// The assembled Workflow Roofline Model for one workflow on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflineModel {
    /// The machine the ceilings were derived from.
    pub machine_name: String,
    /// The workflow characterization the model was built from.
    pub workflow: WorkflowCharacterization,
    /// All ceilings, node and system.
    pub ceilings: Vec<Ceiling>,
    /// The system parallelism wall: max parallel tasks.
    pub parallelism_wall: u64,
    /// The empirical dot, when the workflow has a measured makespan.
    pub dot: Option<RooflinePoint>,
}

impl RooflineModel {
    /// Builds the model, failing when the workflow references a resource
    /// the machine does not define or a volume's unit mismatches the
    /// machine peak.
    pub fn build(
        machine: &Machine,
        workflow: &WorkflowCharacterization,
    ) -> Result<Self, CoreError> {
        Self::build_inner(machine, workflow, true)
    }

    /// Like [`RooflineModel::build`] but silently skips volumes whose
    /// resource the machine does not define (useful for projecting one
    /// characterization onto several machines).
    pub fn build_lenient(
        machine: &Machine,
        workflow: &WorkflowCharacterization,
    ) -> Result<Self, CoreError> {
        Self::build_inner(machine, workflow, false)
    }

    fn build_inner(
        machine: &Machine,
        workflow: &WorkflowCharacterization,
        strict: bool,
    ) -> Result<Self, CoreError> {
        machine.validate()?;
        workflow.validate()?;

        let kappa = workflow.kappa();
        let n_total = workflow.total_tasks;
        let mut ceilings = Vec::new();

        for (id, work) in &workflow.node_volumes {
            let Some(res) = machine.node_resource(id.as_str()) else {
                if strict {
                    return Err(CoreError::UnknownResource(id.to_string()));
                }
                continue;
            };
            if work.magnitude() == 0.0 {
                continue; // no volume => no ceiling
            }
            let time = work
                .time_at(res.peak_per_node)
                .ok_or_else(|| CoreError::UnitMismatch {
                    resource: id.to_string(),
                    volume_unit: work.unit().to_string(),
                    peak_unit: res.peak_per_node.unit().to_string(),
                })?;
            ceilings.push(Ceiling {
                resource: id.clone(),
                label: format!("{} = {} @ {}", res.label, work, res.peak_per_node),
                kind: CeilingKind::Node,
                time,
                tps_at_one: TasksPerSec(kappa / time.get()),
            });
        }

        for (id, bytes) in &workflow.system_volumes {
            let Some(res) = machine.system_resource(id.as_str()) else {
                if strict {
                    return Err(CoreError::UnknownResource(id.to_string()));
                }
                continue;
            };
            if bytes.get() == 0.0 {
                continue;
            }
            let aggregate = res.aggregate_for(workflow.nodes_in_use());
            let time = *bytes / aggregate;
            ceilings.push(Ceiling {
                resource: id.clone(),
                label: format!("{} = {} @ {}", res.label, bytes, aggregate),
                kind: CeilingKind::System,
                time,
                tps_at_one: TasksPerSec(n_total / time.get()),
            });
        }

        let parallelism_wall = machine.parallelism_wall(workflow.nodes_per_task)?;

        let dot = match workflow.makespan {
            Some(_) => Some(RooflinePoint {
                label: workflow.name.clone(),
                x: workflow.parallel_tasks,
                tps: workflow.throughput()?,
            }),
            None => None,
        };

        Ok(RooflineModel {
            machine_name: machine.name.clone(),
            workflow: workflow.clone(),
            ceilings,
            parallelism_wall,
            dot,
        })
    }

    /// The attainable throughput envelope at `x` parallel tasks: the
    /// minimum over every ceiling, or `None` beyond the parallelism wall
    /// (the grey unattainable region of Fig. 1).
    pub fn envelope_at(&self, x: f64) -> Option<TasksPerSec> {
        if !(x.is_finite() && x >= 0.0) || x > self.parallelism_wall as f64 {
            return None;
        }
        let min = self
            .ceilings
            .iter()
            .map(|c| c.tps_at(x).get())
            .fold(f64::INFINITY, f64::min);
        Some(TasksPerSec(min))
    }

    /// The ceiling that binds (is lowest) at `x` parallel tasks.
    pub fn binding_ceiling_at(&self, x: f64) -> Option<&Ceiling> {
        self.ceilings.iter().min_by(|a, b| {
            a.tps_at(x)
                .get()
                .partial_cmp(&b.tps_at(x).get())
                .expect("ceiling TPS is finite")
        })
    }

    /// The ceiling binding at the workflow's own parallelism.
    pub fn binding_ceiling(&self) -> Option<&Ceiling> {
        self.binding_ceiling_at(self.workflow.parallel_tasks)
    }

    /// `achieved / attainable` at the dot: 1.0 means the workflow runs at
    /// the envelope. BGW at 64 nodes reaches ~42% of its node ceiling.
    pub fn efficiency(&self) -> Option<f64> {
        let dot = self.dot.as_ref()?;
        let env = self.envelope_at(dot.x)?;
        if env.get() > 0.0 && env.get().is_finite() {
            Some(dot.tps.get() / env.get())
        } else {
            None
        }
    }

    /// The theoretical minimum makespan at the workflow's parallelism:
    /// `n_total / envelope(n_parallel)`.
    pub fn makespan_lower_bound(&self) -> Option<Seconds> {
        let env = self.envelope_at(self.workflow.parallel_tasks)?;
        if env.get() > 0.0 && env.get().is_finite() {
            Some(Seconds(self.workflow.total_tasks / env.get()))
        } else {
            None
        }
    }

    /// Throughput of the target-makespan isoline at `x` parallel tasks:
    /// the diagonal `y = x * kappa / M_target` of Fig. 2a. A dot above the
    /// isoline (at its own x) meets the deadline.
    pub fn makespan_isoline_at(&self, target: Seconds, x: f64) -> TasksPerSec {
        TasksPerSec(x * self.workflow.kappa() / target.get())
    }

    /// Node ceilings only, sorted from most to least binding at the
    /// workflow's x.
    pub fn node_ceilings(&self) -> Vec<&Ceiling> {
        self.sorted(CeilingKind::Node)
    }

    /// System ceilings only, sorted from most to least binding.
    pub fn system_ceilings(&self) -> Vec<&Ceiling> {
        self.sorted(CeilingKind::System)
    }

    fn sorted(&self, kind: CeilingKind) -> Vec<&Ceiling> {
        let x = self.workflow.parallel_tasks;
        let mut v: Vec<&Ceiling> = self.ceilings.iter().filter(|c| c.kind == kind).collect();
        v.sort_by(|a, b| {
            a.tps_at(x)
                .get()
                .partial_cmp(&b.tps_at(x).get())
                .expect("finite")
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charz::TargetSpec;
    use crate::machines;
    use crate::resource::ids;
    use crate::units::{Bytes, Flops, Work};

    /// LCLS on Cori: 6 tasks, 5 parallel, 1 TB external input per analysis
    /// task, 32 GB of CPU bytes per node.
    fn lcls_on_cori(makespan_min: f64) -> WorkflowCharacterization {
        WorkflowCharacterization::builder("LCLS")
            .total_tasks(6.0)
            .parallel_tasks(5.0)
            .nodes_per_task(32)
            .makespan(Seconds::minutes(makespan_min))
            .node_volume(ids::DRAM, Work::Bytes(Bytes::gb(32.0)))
            .system_volume(ids::EXTERNAL, Bytes::tb(5.0))
            .system_volume(ids::BURST_BUFFER, Bytes::tb(5.0))
            .targets(TargetSpec::new(
                Seconds::secs(600.0),
                TasksPerSec(6.0 / 600.0),
            ))
            .build()
            .unwrap()
    }

    /// BGW on PM-GPU at `nodes` nodes/task with measured makespan.
    fn bgw(nodes: u64, makespan: f64) -> WorkflowCharacterization {
        let total_flops = Flops::pflops(1164.0 + 3226.0);
        let nic_total = Bytes::gb(2676.0 * 64.0); // constant in strong scaling
        WorkflowCharacterization::builder("BerkeleyGW")
            .total_tasks(2.0)
            .parallel_tasks(1.0)
            .nodes_per_task(nodes)
            .makespan(Seconds::secs(makespan))
            .node_volume(ids::COMPUTE, Work::Flops(total_flops / nodes as f64))
            .system_volume(ids::FILE_SYSTEM, Bytes::gb(70.0))
            .system_volume(ids::NETWORK, nic_total)
            .build()
            .unwrap()
    }

    #[test]
    fn lcls_good_day_sits_on_external_ceiling() {
        let m = machines::cori_haswell();
        let model = RooflineModel::build(&m, &lcls_on_cori(17.0)).unwrap();
        let ext = model
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::EXTERNAL)
            .unwrap();
        // T_ext = 5 TB / 5 GB/s = 1000 s; ceiling = 6 / 1000 s.
        assert!((ext.time.get() - 1000.0).abs() < 1e-9);
        assert!((ext.tps_at_one.get() - 0.006).abs() < 1e-12);
        // Dot: 6 tasks / 1020 s -- within 2% of the ceiling.
        let dot = model.dot.as_ref().unwrap();
        assert!((dot.tps.get() - 6.0 / 1020.0).abs() < 1e-12);
        let binding = model.binding_ceiling().unwrap();
        assert_eq!(binding.resource.as_str(), ids::EXTERNAL);
        assert!(model.efficiency().unwrap() > 0.97);
    }

    #[test]
    fn lcls_bad_day_is_5x_lower() {
        let m = machines::cori_haswell()
            .with_scaled_resource(ids::EXTERNAL, 0.2)
            .unwrap();
        let model = RooflineModel::build(&m, &lcls_on_cori(85.0)).unwrap();
        let ext = model.binding_ceiling().unwrap();
        assert_eq!(ext.resource.as_str(), ids::EXTERNAL);
        assert!((ext.tps_at_one.get() - 0.0012).abs() < 1e-12);
        // Even the good-day ceiling misses the 2020 target of 6/600 s.
        let good = machines::cori_haswell();
        let good_model = RooflineModel::build(&good, &lcls_on_cori(17.0)).unwrap();
        let target = good_model.workflow.targets.throughput.unwrap();
        let env = good_model.envelope_at(5.0).unwrap();
        assert!(env.get() < target.get());
    }

    #[test]
    fn bgw_64_matches_paper_numbers() {
        let m = machines::perlmutter_gpu();
        let model = RooflineModel::build(&m, &bgw(64, 4184.86)).unwrap();
        assert_eq!(model.parallelism_wall, 28);

        let compute = model
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::COMPUTE)
            .unwrap();
        // (1164+3226) PF / 64 / 38.8 TF = ~1768 s (paper rounds to 1800 s).
        assert!((compute.time.get() - 1768.0).abs() < 1.0);
        assert_eq!(compute.kind, CeilingKind::Node);

        // 42% of node peak.
        let eff = model.efficiency().unwrap();
        assert!((eff - 0.42).abs() < 0.01, "efficiency {eff}");

        // Binding ceiling at x=1 is compute, not network or FS.
        assert_eq!(
            model.binding_ceiling().unwrap().resource.as_str(),
            ids::COMPUTE
        );

        // Network ceiling: 171264 GB / (64 x 100 GB/s) = ~26.8 s.
        let net = model
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::NETWORK)
            .unwrap();
        assert!((net.time.get() - 26.76).abs() < 0.01);
        assert_eq!(net.kind, CeilingKind::System);
    }

    #[test]
    fn bgw_1024_wall_moves_and_network_ceiling_rises() {
        let m = machines::perlmutter_gpu();
        let m64 = RooflineModel::build(&m, &bgw(64, 4184.86)).unwrap();
        let m1024 = RooflineModel::build(&m, &bgw(1024, 404.74)).unwrap();
        assert_eq!(m1024.parallelism_wall, 1);
        // Network aggregate grows 16x, so the ceiling rises 16x.
        let n64 = m64.system_ceilings()[0];
        let net64 = m64
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::NETWORK)
            .unwrap();
        let net1024 = m1024
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::NETWORK)
            .unwrap();
        assert!((net1024.tps_at_one.get() / net64.tps_at_one.get() - 16.0).abs() < 1e-9);
        assert_eq!(n64.resource.as_str(), ids::NETWORK); // NIC below FS
                                                         // ~30% of node peak at 1024 nodes (27.3% exactly).
        let eff = m1024.efficiency().unwrap();
        assert!((eff - 0.273).abs() < 0.01, "efficiency {eff}");
    }

    #[test]
    fn envelope_and_attainability() {
        let m = machines::perlmutter_gpu();
        let model = RooflineModel::build(&m, &bgw(64, 4184.86)).unwrap();
        // Beyond the wall: no envelope, so nothing is attainable.
        assert!(model.envelope_at(29.0).is_none());
        // At the wall the envelope exists.
        let env = model.envelope_at(28.0).unwrap();
        assert!(env.get() > 0.0);
        // The dot lies on or under the envelope at its own x; twice
        // the wall's envelope lies above it.
        let dot = model.dot.clone().unwrap();
        let at_dot = model.envelope_at(dot.x).unwrap().get() * (1.0 + 1e-12);
        assert!(dot.tps.get() <= at_dot);
        assert!(env.get() * 2.0 > at_dot);
        // Negative or non-finite x is not attainable.
        assert!(model.envelope_at(-1.0).is_none());
        assert!(model.envelope_at(f64::NAN).is_none());
    }

    #[test]
    fn node_ceilings_scale_with_x_system_do_not() {
        let m = machines::perlmutter_gpu();
        let model = RooflineModel::build(&m, &bgw(64, 4184.86)).unwrap();
        for c in &model.ceilings {
            let y1 = c.tps_at(1.0).get();
            let y4 = c.tps_at(4.0).get();
            match c.kind {
                CeilingKind::Node => assert!((y4 / y1 - 4.0).abs() < 1e-12),
                CeilingKind::System => assert!((y4 - y1).abs() < 1e-18),
            }
        }
    }

    #[test]
    fn strict_build_rejects_unknown_resources_lenient_skips() {
        let m = machines::perlmutter_gpu();
        let wf = WorkflowCharacterization::builder("w")
            .node_volume("unobtainium", Work::Bytes(Bytes::gb(1.0)))
            .build()
            .unwrap();
        assert!(matches!(
            RooflineModel::build(&m, &wf),
            Err(CoreError::UnknownResource(_))
        ));
        let lenient = RooflineModel::build_lenient(&m, &wf).unwrap();
        assert!(lenient.ceilings.is_empty());
    }

    #[test]
    fn unit_mismatch_is_detected() {
        let m = machines::perlmutter_gpu();
        let wf = WorkflowCharacterization::builder("w")
            .node_volume(ids::COMPUTE, Work::Bytes(Bytes::gb(1.0)))
            .build()
            .unwrap();
        assert!(matches!(
            RooflineModel::build(&m, &wf),
            Err(CoreError::UnitMismatch { .. })
        ));
    }

    #[test]
    fn zero_volumes_produce_no_ceiling() {
        let m = machines::perlmutter_gpu();
        let wf = WorkflowCharacterization::builder("w")
            .node_volume(ids::COMPUTE, Work::Flops(Flops::ZERO))
            .system_volume(ids::FILE_SYSTEM, Bytes::ZERO)
            .build()
            .unwrap();
        let model = RooflineModel::build(&m, &wf).unwrap();
        assert!(model.ceilings.is_empty());
        // Envelope is unbounded but still defined inside the wall.
        assert_eq!(model.envelope_at(1.0).unwrap().get(), f64::INFINITY);
        assert!(model.binding_ceiling().is_none());
        assert!(model.makespan_lower_bound().is_none());
    }

    #[test]
    fn makespan_isoline_passes_through_own_dot() {
        // A dot always lies on the isoline of its own measured makespan.
        let m = machines::cori_haswell();
        let wf = lcls_on_cori(17.0);
        let model = RooflineModel::build(&m, &wf).unwrap();
        let dot = model.dot.as_ref().unwrap();
        let iso = model.makespan_isoline_at(Seconds::minutes(17.0), dot.x);
        assert!((iso.get() - dot.tps.get()).abs() < 1e-12);
    }

    #[test]
    fn makespan_lower_bound_is_consistent() {
        let m = machines::perlmutter_gpu();
        let model = RooflineModel::build(&m, &bgw(64, 4184.86)).unwrap();
        let lb = model.makespan_lower_bound().unwrap();
        // Bound ~1768 s, achieved 4184.86 s.
        assert!(lb.get() < 4184.86);
        assert!((lb.get() - 1768.0).abs() < 1.0);
    }
}
