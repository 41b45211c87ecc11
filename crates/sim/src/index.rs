//! Dense-integer indexing of a scenario for the simulator hot path.
//!
//! Since the incremental-sweep work the index is split in two:
//!
//! * [`BaseIndex`] (this module) holds everything that depends only on
//!   the `(machine, workflow)` pair — CSR phase tables, CSR dependency
//!   lists, unscaled channel capacities and flow-cap bases — so a sweep
//!   over thousands of option points builds it exactly once;
//! * [`crate::overlay::IndexOverlay`] holds the per-point deltas
//!   (contention-scaled capacities and the usable node pool) and is
//!   cheap to rebuild per grid point.
//!
//! Validation is split the same way without changing what error a caller
//! sees. Spec errors come first: the base build starts with
//! [`WorkflowSpec::validate`]'s checks, whose pass also resolves every
//! dependency name to a task index, so the dependency CSR here reuses
//! it and no task name is hashed twice. Then the reference engine
//! interleaves `TaskTooLarge` (which needs the per-point pool) with
//! `UnknownResource` (which does not) in one forward scan over tasks.
//! The base records the first resource error *without failing*, found
//! while lowering the phases, plus a running prefix-maximum of task
//! node counts; the overlay then reproduces the reference's first-error
//! choice with a binary search over that prefix maximum.
//!
//! Every floating-point expression here is kept verbatim from the
//! reference engine — the precomputed values must be bit-identical to
//! what the reference computes per event, because the behavior contract
//! between the two engines is exact equality of makespans and traces.

use crate::engine::SimError;
use crate::spec::{DepCsr, Phase, WorkflowSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use wrm_core::{Machine, SystemScaling};
use wrm_trace::SpanKind;

/// One phase, lowered to the quantities the event loop needs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PhaseIx {
    /// A fixed-duration phase (compute, node-local data, overhead); the
    /// duration is pre-divided by the allocation's peak rate.
    Fixed {
        /// Duration in seconds.
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
    /// The strings full results share, built by the first full run
    /// (see [`BaseIndex::names`]).
    names: OnceLock<NameTable>,
}

/// The names a full result is built from, each allocated once per base
/// so every span and task-table row name is an `Arc` clone of them.
#[derive(Clone)]
pub(crate) struct NameTable {
    /// Task names, in task order.
    pub(crate) tasks: Vec<Arc<str>>,
    /// Task indices in name order: the order of a full result's task
    /// table.
    pub(crate) by_name: Vec<u32>,
    /// Each phase slot's span kind (indexed like [`BaseIndex::phases`]),
    /// its labels and resource ids interned once.
    pub(crate) kinds: Vec<SpanKind>,
}

impl NameTable {
    fn build(workflow: &WorkflowSpec) -> Self {
        let tasks: Vec<Arc<str>> = workflow
            .tasks
            .iter()
            .map(|t| Arc::from(t.name.as_str()))
            .collect();
        let mut by_name: Vec<u32> = (0..tasks.len() as u32).collect();
        by_name.sort_unstable_by(|&a, &b| tasks[a as usize].cmp(&tasks[b as usize]));
        let mut interned: BTreeMap<&str, Arc<str>> = BTreeMap::new();
        let mut intern = |s| interned.entry(s).or_insert_with(|| s.into()).clone();
        let kinds = workflow
            .tasks
            .iter()
            .flat_map(|t| &t.phases)
            .map(|p| span_kind(p, &mut intern))
            .collect();
        NameTable {
            tasks,
            by_name,
            kinds,
        }
    }
}

/// The span kind a phase records, its strings made by `intern`.
pub(crate) fn span_kind<'w>(
    phase: &'w Phase,
    intern: &mut impl FnMut(&'w str) -> Arc<str>,
) -> SpanKind {
    match phase {
        Phase::Compute { flops, .. } => SpanKind::Compute { flops: *flops },
        Phase::NodeData {
            resource, bytes, ..
        } => SpanKind::NodeData {
            resource: intern(resource),
            bytes: *bytes,
        },
        Phase::SystemData {
            resource, bytes, ..
        } => SpanKind::SystemData {
            resource: intern(resource),
            bytes: *bytes,
        },
        Phase::Overhead { label, .. } => SpanKind::Overhead {
            label: intern(label),
        },
    }
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
        let DepCsr {
            dep_count,
            dependents_off,
            dependents,
        } = workflow.resolve()?;
        let tasks = &workflow.tasks;

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

        // Phases, lowered, in one pass that also finds the first
        // unknown resource in (task, phase) order. The duration and
        // cap-base expressions replicate the reference's
        // `fixed_duration` / `make_activity` bit for bit (the factor
        // multiplies the base on the right, as the reference's
        // left-associative products do).
        let compute = machine.node_resource(wrm_core::ids::COMPUTE);
        let mut first_resource_error: Option<(usize, SimError)> = None;
        let mut phase_off = Vec::with_capacity(tasks.len() + 1);
        let mut phases = Vec::with_capacity(tasks.iter().map(|t| t.phases.len()).sum());
        phase_off.push(0u32);
        for (i, t) in tasks.iter().enumerate() {
            for p in &t.phases {
                let lowered = match p {
                    Phase::Compute { flops, efficiency } => match compute {
                        Some(nr) => Ok(PhaseIx::Fixed {
                            duration: flops
                                / (nr.peak_per_node.magnitude() * t.nodes as f64 * efficiency),
                        }),
                        None => Err(wrm_core::ids::COMPUTE),
                    },
                    Phase::NodeData {
                        resource,
                        bytes,
                        efficiency,
                    } => match machine.node_resource(resource) {
                        Some(nr) => Ok(PhaseIx::Fixed {
                            duration: bytes
                                / (nr.peak_per_node.magnitude() * t.nodes as f64 * efficiency),
                        }),
                        None => Err(resource.as_str()),
                    },
                    Phase::Overhead { seconds, .. } => Ok(PhaseIx::Fixed { duration: *seconds }),
                    Phase::SystemData {
                        resource,
                        bytes,
                        stream_cap,
                    } => match channel_idx.get(resource.as_str()) {
                        // `Machine::validate` rejects duplicate resource
                        // ids, so the channel's resource is the one
                        // `Machine::system_resource` finds.
                        Some(&channel) => {
                            let sr = &machine.system_resources[channel as usize];
                            // The task's own injection limit: for
                            // per-node-scaled resources it is its
                            // allocation's aggregate NIC rate.
                            let alloc_base = match sr.scaling {
                                SystemScaling::Aggregate => f64::INFINITY,
                                SystemScaling::PerNodeInUse => sr.peak.get() * t.nodes as f64,
                            };
                            Ok(PhaseIx::Flow {
                                channel,
                                bytes: *bytes,
                                alloc_base,
                                stream_base: stream_cap.unwrap_or(f64::INFINITY),
                            })
                        }
                        None => Err(resource.as_str()),
                    },
                };
                // A placeholder stands in for an unresolvable phase: the
                // recorded error fails every overlay built on this base.
                phases.push(lowered.unwrap_or_else(|resource| {
                    if first_resource_error.is_none() {
                        first_resource_error = Some((
                            i,
                            SimError::UnknownResource {
                                task: t.name.clone(),
                                resource: resource.into(),
                            },
                        ));
                    }
                    PhaseIx::Fixed { duration: 0.0 }
                }));
            }
            phase_off.push(phases.len() as u32);
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
            names: OnceLock::new(),
        })
    }

    /// The shared names of full results, built on first use: summary
    /// and Monte-Carlo runs never need them. `workflow` must be the one
    /// this base was built from.
    pub(crate) fn names(&self, workflow: &WorkflowSpec) -> &NameTable {
        self.names.get_or_init(|| NameTable::build(workflow))
    }

    /// Number of tasks.
    pub(crate) fn n_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes summed over every task (saturating): a pool at least this
    /// large never leaves a ready task waiting for nodes.
    pub(crate) fn task_nodes_total(&self) -> u64 {
        self.nodes.iter().fold(0, |sum, &n| sum.saturating_add(n))
    }

    /// Number of phases of task `t`.
    pub(crate) fn n_phases(&self, t: usize) -> u32 {
        self.phase_off[t + 1] - self.phase_off[t]
    }
}
