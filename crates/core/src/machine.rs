//! Machine (architecture) characterization: the peak node- and
//! system-level capabilities that define Workflow Roofline ceilings.
//!
//! A [`Machine`] mirrors Section III-A of the paper: per-node peaks
//! (compute FLOPS, memory bandwidth, PCIe bandwidth) become *node
//! ceilings*; shared capacities (file system, interconnect, external
//! links) become *system ceilings*; the total node count produces the
//! *system parallelism wall*.

use crate::error::CoreError;
use crate::resource::{ResourceId, SystemScaling};
use crate::units::{BytesPerSec, Rate};
use serde::{Deserialize, Serialize};

/// A node-local capability: each node owns `peak_per_node` of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeResource {
    /// Resource identity matched against workflow node volumes.
    pub id: ResourceId,
    /// Human-readable label for plots ("GPU FLOPS", "HBM", ...).
    pub label: String,
    /// Peak rate of one node.
    pub peak_per_node: Rate,
}

/// A system-wide shared capability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemResource {
    /// Resource identity matched against workflow system volumes.
    pub id: ResourceId,
    /// Human-readable label for plots ("File System", "System Network").
    pub label: String,
    /// Peak bandwidth: aggregate, or per node in use (see `scaling`).
    pub peak: BytesPerSec,
    /// How aggregate capacity scales with the workflow's allocation.
    pub scaling: SystemScaling,
}

impl SystemResource {
    /// Aggregate capacity available to a workflow occupying
    /// `nodes_in_use` nodes.
    pub fn aggregate_for(&self, nodes_in_use: f64) -> BytesPerSec {
        match self.scaling {
            SystemScaling::Aggregate => self.peak,
            SystemScaling::PerNodeInUse => self.peak * nodes_in_use,
        }
    }
}

/// An HPC system (or one partition of it) characterized for the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Machine name ("Perlmutter GPU", ...).
    pub name: String,
    /// Nodes available to the workflow (queue or partition size).
    pub total_nodes: u64,
    /// Node-local capabilities (diagonal ceilings).
    pub node_resources: Vec<NodeResource>,
    /// Shared capabilities (horizontal ceilings).
    pub system_resources: Vec<SystemResource>,
}

impl Machine {
    /// Starts a machine description; add resources with the builder
    /// methods and finish with [`MachineBuilder::build`].
    pub fn builder(name: impl Into<String>, total_nodes: u64) -> MachineBuilder {
        MachineBuilder {
            machine: Machine {
                name: name.into(),
                total_nodes,
                node_resources: Vec::new(),
                system_resources: Vec::new(),
            },
        }
    }

    /// Looks up a node resource by id.
    pub fn node_resource(&self, id: &str) -> Option<&NodeResource> {
        self.node_resources.iter().find(|r| r.id.as_str() == id)
    }

    /// Looks up a system resource by id.
    pub fn system_resource(&self, id: &str) -> Option<&SystemResource> {
        self.system_resources.iter().find(|r| r.id.as_str() == id)
    }

    /// The system parallelism wall for tasks that each need
    /// `nodes_per_task` nodes: `floor(total_nodes / nodes_per_task)`.
    ///
    /// Returns an error when a single task does not fit on the machine.
    pub fn parallelism_wall(&self, nodes_per_task: u64) -> Result<u64, CoreError> {
        if nodes_per_task == 0 {
            return Err(CoreError::InvalidInput(
                "nodes_per_task must be at least 1".into(),
            ));
        }
        let wall = self.total_nodes / nodes_per_task;
        if wall == 0 {
            return Err(CoreError::TaskTooLarge {
                nodes_per_task,
                total_nodes: self.total_nodes,
            });
        }
        Ok(wall)
    }

    /// Returns a copy with one resource's peak scaled by `factor`
    /// (used for contention scenarios, e.g. LCLS "bad days" where the
    /// external bandwidth drops 5x).
    pub fn with_scaled_resource(&self, id: &str, factor: f64) -> Result<Machine, CoreError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(CoreError::InvalidInput(format!(
                "scale factor must be positive and finite, got {factor}"
            )));
        }
        let mut m = self.clone();
        let mut found = false;
        for r in &mut m.node_resources {
            if r.id.as_str() == id {
                r.peak_per_node = r.peak_per_node.scale(factor);
                found = true;
            }
        }
        for r in &mut m.system_resources {
            if r.id.as_str() == id {
                r.peak = r.peak * factor;
                found = true;
            }
        }
        if found {
            Ok(m)
        } else {
            Err(CoreError::UnknownResource(id.to_owned()))
        }
    }

    /// Validates internal consistency: positive peaks, unique ids,
    /// non-zero node count.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.total_nodes == 0 {
            return Err(CoreError::InvalidInput(format!(
                "machine {} has zero nodes",
                self.name
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for r in &self.node_resources {
            if !seen.insert(r.id.clone()) {
                return Err(CoreError::DuplicateResource(r.id.to_string()));
            }
            if !(r.peak_per_node.magnitude().is_finite() && r.peak_per_node.magnitude() > 0.0) {
                return Err(CoreError::InvalidInput(format!(
                    "node resource {} has non-positive peak",
                    r.id
                )));
            }
        }
        for r in &self.system_resources {
            if !seen.insert(r.id.clone()) {
                return Err(CoreError::DuplicateResource(r.id.to_string()));
            }
            if !(r.peak.get().is_finite() && r.peak.get() > 0.0) {
                return Err(CoreError::InvalidInput(format!(
                    "system resource {} has non-positive peak",
                    r.id
                )));
            }
        }
        Ok(())
    }
}

/// Fluent construction of [`Machine`] values.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    machine: Machine,
}

impl MachineBuilder {
    /// Adds a node-local capability.
    pub fn node(
        mut self,
        id: impl Into<ResourceId>,
        label: impl Into<String>,
        peak_per_node: Rate,
    ) -> Self {
        self.machine.node_resources.push(NodeResource {
            id: id.into(),
            label: label.into(),
            peak_per_node,
        });
        self
    }

    /// Adds a shared system capability with a fixed aggregate peak.
    pub fn system(
        mut self,
        id: impl Into<ResourceId>,
        label: impl Into<String>,
        peak: BytesPerSec,
    ) -> Self {
        self.machine.system_resources.push(SystemResource {
            id: id.into(),
            label: label.into(),
            peak,
            scaling: SystemScaling::Aggregate,
        });
        self
    }

    /// Adds a shared system capability whose aggregate scales with the
    /// nodes in use (per-node NIC bandwidth).
    pub fn system_per_node(
        mut self,
        id: impl Into<ResourceId>,
        label: impl Into<String>,
        peak_per_node: BytesPerSec,
    ) -> Self {
        self.machine.system_resources.push(SystemResource {
            id: id.into(),
            label: label.into(),
            peak: peak_per_node,
            scaling: SystemScaling::PerNodeInUse,
        });
        self
    }

    /// Validates and returns the machine.
    pub fn build(self) -> Result<Machine, CoreError> {
        self.machine.validate()?;
        Ok(self.machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ids;
    use crate::units::FlopsPerSec;

    fn toy() -> Machine {
        Machine::builder("toy", 100)
            .node(
                ids::COMPUTE,
                "FLOPS",
                Rate::FlopsPerSec(FlopsPerSec::tflops(10.0)),
            )
            .node(
                ids::DRAM,
                "DRAM",
                Rate::BytesPerSec(BytesPerSec::gbps(200.0)),
            )
            .system(ids::FILE_SYSTEM, "FS", BytesPerSec::tbps(1.0))
            .system_per_node(ids::NETWORK, "NIC", BytesPerSec::gbps(25.0))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_lookup() {
        let m = toy();
        assert_eq!(m.node_resource(ids::COMPUTE).unwrap().label, "FLOPS");
        assert_eq!(m.system_resource(ids::FILE_SYSTEM).unwrap().label, "FS");
        assert!(m.node_resource("nope").is_none());
    }

    #[test]
    fn parallelism_wall_matches_paper_examples() {
        // 64-node tasks on the 1792-node PM-GPU partition: 28 parallel tasks.
        let pm = Machine::builder("pm", 1792).build().unwrap();
        assert_eq!(pm.parallelism_wall(64).unwrap(), 28);
        // 1024-node tasks: floor(1792/1024) = 1.
        assert_eq!(pm.parallelism_wall(1024).unwrap(), 1);
    }

    #[test]
    fn parallelism_wall_errors() {
        let m = toy();
        assert!(m.parallelism_wall(0).is_err());
        assert!(matches!(
            m.parallelism_wall(101),
            Err(CoreError::TaskTooLarge { .. })
        ));
    }

    #[test]
    fn per_node_scaling_aggregates() {
        let m = toy();
        let nic = m.system_resource(ids::NETWORK).unwrap();
        assert_eq!(nic.aggregate_for(64.0), BytesPerSec::gbps(1600.0));
        let fs = m.system_resource(ids::FILE_SYSTEM).unwrap();
        assert_eq!(fs.aggregate_for(64.0), BytesPerSec::tbps(1.0));
    }

    #[test]
    fn contention_scaling() {
        let m = toy();
        let bad = m.with_scaled_resource(ids::FILE_SYSTEM, 0.2).unwrap();
        assert_eq!(
            bad.system_resource(ids::FILE_SYSTEM).unwrap().peak,
            BytesPerSec::gbps(200.0)
        );
        assert!(m.with_scaled_resource("nope", 0.5).is_err());
        assert!(m.with_scaled_resource(ids::FILE_SYSTEM, 0.0).is_err());
        assert!(m.with_scaled_resource(ids::FILE_SYSTEM, f64::NAN).is_err());
    }

    #[test]
    fn validate_rejects_duplicates_and_bad_peaks() {
        let dup = Machine::builder("d", 10)
            .node(
                ids::COMPUTE,
                "a",
                Rate::FlopsPerSec(FlopsPerSec::tflops(1.0)),
            )
            .node(
                ids::COMPUTE,
                "b",
                Rate::FlopsPerSec(FlopsPerSec::tflops(2.0)),
            )
            .build();
        assert!(matches!(dup, Err(CoreError::DuplicateResource(_))));

        let zero = Machine::builder("z", 10)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec(0.0))
            .build();
        assert!(zero.is_err());

        let none = Machine::builder("n", 0).build();
        assert!(none.is_err());
    }
}
