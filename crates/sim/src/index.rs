//! Dense-integer indexing of a scenario for the simulator hot path.
//!
//! Since the incremental-sweep work the index is split in two:
//!
//! * [`BaseIndex`] (this module) holds everything that depends only on
//!   the `(machine, workflow)` pair — CSR phase tables, CSR dependency
//!   lists, unscaled channel capacities and flow-cap bases — so a sweep
//!   over thousands of option points builds it exactly once;
//! * [`crate::overlay::IndexOverlay`] holds the per-point deltas
//!   (contention-scaled capacities, the usable node pool, background
//!   demands) and is cheap to rebuild per grid point.
//!
//! Validation is split the same way without changing what error a caller
//! sees: the reference engine interleaves `TaskTooLarge` (which needs
//! the per-point pool) with `UnknownResource` (which does not) in one
//! forward scan over tasks. The base records the first resource error
//! *without failing*, plus a running prefix-maximum of task node counts;
//! the overlay then reproduces the reference's first-error choice with a
//! binary search over that prefix maximum.
//!
//! Every floating-point expression here is kept verbatim from the
//! reference engine — the precomputed values must be bit-identical to
//! what the reference computes per event, because the behavior contract
//! between the two engines is exact equality of makespans and traces.

use crate::engine::SimError;
use crate::spec::{Phase, WorkflowSpec};
use std::collections::BTreeMap;
use wrm_core::{Machine, SystemScaling};

/// One phase, lowered to the quantities the event loop needs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PhaseIx {
    /// A fixed-duration phase (compute, node-local data, overhead); the
    /// duration is pre-divided by the allocation's peak rate.
    Fixed {
        /// Unjittered duration in seconds.
        duration: f64,
    },
    /// A flow on a shared channel.
    Flow {
        /// Channel id (index into [`BaseIndex::capacity_base`]).
        channel: u32,
        /// Bytes to move.
        bytes: f64,
        /// The allocation's aggregate injection limit *before* the
        /// per-point contention factor (`f64::INFINITY` if none).
        alloc_base: f64,
        /// The stream cap before the contention factor
        /// (`f64::INFINITY` if none).
        stream_base: f64,
    },
}

/// The option-independent part of a lowered scenario: topology, CSR
/// dependents, durations and cap bases. Built once per `(machine,
/// workflow)` pair and shared by every per-options `IndexOverlay`.
///
/// Public as an *opaque* handle so long-lived callers (the `wrm serve`
/// index cache) can compile once, wrap in an `Arc`, and answer many
/// requests concurrently via [`crate::simulate_with_base`] /
/// [`crate::sweep_grid_with_base`]; the lowered tables themselves stay
/// crate-private.
#[derive(Clone)]
pub struct BaseIndex {
    /// The machine's total node count (pool ceiling).
    pub(crate) total_nodes: u64,
    /// Nodes required per task.
    pub(crate) nodes: Vec<u64>,
    /// Running maximum of [`Self::nodes`] by task index; used by the
    /// overlay to find the first too-large task in `O(log n)`.
    pub(crate) nodes_prefix_max: Vec<u64>,
    /// CSR offsets into [`Self::phases`], one entry per task plus one.
    pub(crate) phase_off: Vec<u32>,
    /// All phases of all tasks, in task order.
    pub(crate) phases: Vec<PhaseIx>,
    /// Unresolved-dependency count per task.
    pub(crate) dep_count: Vec<u32>,
    /// CSR offsets into [`Self::dependents`], one entry per task plus one.
    pub(crate) dependents_off: Vec<u32>,
    /// Task ids unblocked by each task's completion.
    pub(crate) dependents: Vec<u32>,
    /// Channel ids in machine declaration order.
    pub(crate) channel_ids: Vec<String>,
    /// Capacity per channel *before* the contention factor.
    pub(crate) capacity_base: Vec<f64>,
    /// Resource id -> channel index.
    pub(crate) channel_idx: BTreeMap<String, u32>,
    /// The first `UnknownResource` error in task order (scan position =
    /// task index), recorded but not raised: whether it wins over a
    /// `TaskTooLarge` depends on the per-point pool, so the overlay
    /// decides.
    pub(crate) first_resource_error: Option<(usize, SimError)>,
}

impl BaseIndex {
    /// Validates the option-independent parts of a scenario and lowers
    /// them. Resource errors are recorded, not raised (see the module
    /// docs); tasks carrying one get placeholder phases, which is sound
    /// because every overlay built on such a base refuses to run.
    ///
    /// This is the expensive, cacheable step: the same `BaseIndex`
    /// serves every option point of the `(machine, workflow)` pair.
    pub fn build(machine: &Machine, workflow: &WorkflowSpec) -> Result<Self, SimError> {
        workflow.validate()?;
        let tasks = &workflow.tasks;

        let mut first_resource_error: Option<(usize, SimError)> = None;
        for (i, t) in tasks.iter().enumerate() {
            if first_resource_error.is_some() {
                break;
            }
            for p in &t.phases {
                let bad: Option<String> = match p {
                    Phase::Compute { .. } => {
                        if machine.node_resource(wrm_core::ids::COMPUTE).is_none() {
                            Some(wrm_core::ids::COMPUTE.into())
                        } else {
                            None
                        }
                    }
                    Phase::NodeData { resource, .. } => {
                        if machine.node_resource(resource).is_none() {
                            Some(resource.clone())
                        } else {
                            None
                        }
                    }
                    Phase::SystemData { resource, .. } => {
                        if machine.system_resource(resource).is_none() {
                            Some(resource.clone())
                        } else {
                            None
                        }
                    }
                    Phase::Overhead { .. } => None,
                };
                if let Some(resource) = bad {
                    first_resource_error = Some((
                        i,
                        SimError::UnknownResource {
                            task: t.name.clone(),
                            resource,
                        },
                    ));
                    break;
                }
            }
        }

        // Channels: one per system resource the machine defines. The
        // capacity expression keeps the reference's association order:
        // the per-point factor multiplies *this* product on the right.
        let mut channel_ids = Vec::with_capacity(machine.system_resources.len());
        let mut capacity_base = Vec::with_capacity(machine.system_resources.len());
        let mut channel_idx: BTreeMap<String, u32> = BTreeMap::new();
        for sr in &machine.system_resources {
            let capacity = match sr.scaling {
                SystemScaling::Aggregate => sr.peak.get(),
                // The interconnect's backbone: every node can inject at
                // once.
                SystemScaling::PerNodeInUse => sr.peak.get() * machine.total_nodes as f64,
            };
            channel_idx.insert(sr.id.to_string(), capacity_base.len() as u32);
            channel_ids.push(sr.id.to_string());
            capacity_base.push(capacity);
        }

        // Phases, lowered. The duration and cap-base expressions
        // replicate the reference's `fixed_duration` / `make_activity`
        // bit for bit (the factor multiplies the base on the right, as
        // the reference's left-associative products do).
        let mut phase_off = Vec::with_capacity(tasks.len() + 1);
        let mut phases = Vec::new();
        phase_off.push(0u32);
        for t in tasks {
            for p in &t.phases {
                let lowered = match p {
                    Phase::Compute { flops, efficiency } => {
                        match machine.node_resource(wrm_core::ids::COMPUTE) {
                            Some(nr) => PhaseIx::Fixed {
                                duration: flops
                                    / (nr.peak_per_node.magnitude() * t.nodes as f64 * efficiency),
                            },
                            None => PhaseIx::Fixed { duration: 0.0 },
                        }
                    }
                    Phase::NodeData {
                        resource,
                        bytes,
                        efficiency,
                    } => match machine.node_resource(resource) {
                        Some(nr) => PhaseIx::Fixed {
                            duration: bytes
                                / (nr.peak_per_node.magnitude() * t.nodes as f64 * efficiency),
                        },
                        None => PhaseIx::Fixed { duration: 0.0 },
                    },
                    Phase::Overhead { seconds, .. } => PhaseIx::Fixed { duration: *seconds },
                    Phase::SystemData {
                        resource,
                        bytes,
                        stream_cap,
                    } => match machine.system_resource(resource) {
                        Some(sr) => {
                            // The task's own injection limit: for
                            // per-node-scaled resources it is its
                            // allocation's aggregate NIC rate.
                            let alloc_base = match sr.scaling {
                                SystemScaling::Aggregate => f64::INFINITY,
                                SystemScaling::PerNodeInUse => sr.peak.get() * t.nodes as f64,
                            };
                            PhaseIx::Flow {
                                channel: channel_idx[resource.as_str()],
                                bytes: *bytes,
                                alloc_base,
                                stream_base: stream_cap.unwrap_or(f64::INFINITY),
                            }
                        }
                        // Unreachable at run time: the recorded resource
                        // error fails every overlay built on this base.
                        None => PhaseIx::Fixed { duration: 0.0 },
                    },
                };
                phases.push(lowered);
            }
            phase_off.push(phases.len() as u32);
        }

        // Dependency CSR. The name map is only probed (never iterated),
        // so a hash map's O(1) lookups are safe and make this build
        // O(tasks + deps) instead of O(deps log tasks).
        let name_to_idx: std::collections::HashMap<&str, u32> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i as u32))
            .collect();
        let dep_count: Vec<u32> = tasks.iter().map(|t| t.after.len() as u32).collect();
        let mut out_degree = vec![0u32; tasks.len()];
        for t in tasks {
            for dep in &t.after {
                out_degree[name_to_idx[dep.as_str()] as usize] += 1;
            }
        }
        let mut dependents_off = Vec::with_capacity(tasks.len() + 1);
        dependents_off.push(0u32);
        for &d in &out_degree {
            dependents_off.push(dependents_off.last().unwrap() + d);
        }
        let mut cursor: Vec<u32> = dependents_off[..tasks.len()].to_vec();
        let mut dependents = vec![0u32; dependents_off[tasks.len()] as usize];
        for (i, t) in tasks.iter().enumerate() {
            for dep in &t.after {
                let d = name_to_idx[dep.as_str()] as usize;
                dependents[cursor[d] as usize] = i as u32;
                cursor[d] += 1;
            }
        }

        let nodes: Vec<u64> = tasks.iter().map(|t| t.nodes).collect();
        let mut nodes_prefix_max = Vec::with_capacity(nodes.len());
        let mut running_max = 0u64;
        for &n in &nodes {
            running_max = running_max.max(n);
            nodes_prefix_max.push(running_max);
        }

        Ok(BaseIndex {
            total_nodes: machine.total_nodes,
            nodes,
            nodes_prefix_max,
            phase_off,
            phases,
            dep_count,
            dependents_off,
            dependents,
            channel_ids,
            capacity_base,
            channel_idx,
            first_resource_error,
        })
    }

    /// Number of tasks.
    pub(crate) fn n_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of phases of task `t`.
    pub(crate) fn n_phases(&self, t: usize) -> u32 {
        self.phase_off[t + 1] - self.phase_off[t]
    }
}
