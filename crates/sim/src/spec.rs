//! Simulation input: workflow specifications as DAGs of phase-structured
//! tasks, plus the scenario knobs (contention, node limit, scheduling).

use serde::{Deserialize, Serialize};
use std::fmt;
use wrm_core::{Dist, Machine};
use wrm_dag::{Dag, DagError, TaskId};

/// One execution phase of a task. Phases run in order within the task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "phase", rename_all = "snake_case")]
pub enum Phase {
    /// Floating-point computation: `flops` total across the task's nodes,
    /// retired at `efficiency x` the node peak.
    Compute {
        /// Total FLOPs for the task.
        flops: f64,
        /// Fraction of peak achieved, in `(0, 1]`.
        efficiency: f64,
    },
    /// Node-local data movement (HBM, DRAM, PCIe): `bytes` total across
    /// the task's nodes at `efficiency x` peak.
    NodeData {
        /// Node resource id.
        resource: String,
        /// Total bytes for the task.
        bytes: f64,
        /// Fraction of peak achieved, in `(0, 1]`.
        efficiency: f64,
    },
    /// Shared-system data movement: a flow of `bytes` on the shared
    /// channel `resource`, rate-limited by max-min fair sharing and an
    /// optional per-flow cap (e.g. a WAN stream limit).
    SystemData {
        /// System resource id.
        resource: String,
        /// Total bytes for the task.
        bytes: f64,
        /// Per-flow rate cap in bytes/s (None = only the channel limits).
        stream_cap: Option<f64>,
    },
    /// Fixed control-flow overhead (bash, python, srun, metadata).
    Overhead {
        /// Label for breakdown charts.
        label: String,
        /// Duration in seconds.
        seconds: f64,
    },
}

impl Phase {
    /// Convenience: compute at full efficiency.
    pub fn compute(flops: f64) -> Self {
        Phase::Compute {
            flops,
            efficiency: 1.0,
        }
    }

    /// Convenience: node data at full efficiency.
    pub fn node_data(resource: impl Into<String>, bytes: f64) -> Self {
        Phase::NodeData {
            resource: resource.into(),
            bytes,
            efficiency: 1.0,
        }
    }

    /// Convenience: uncapped system data flow.
    pub fn system_data(resource: impl Into<String>, bytes: f64) -> Self {
        Phase::SystemData {
            resource: resource.into(),
            bytes,
            stream_cap: None,
        }
    }

    /// Convenience: fixed overhead.
    pub fn overhead(label: impl Into<String>, seconds: f64) -> Self {
        Phase::Overhead {
            label: label.into(),
            seconds,
        }
    }

    /// Validates numeric fields.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        match self {
            Phase::Compute { flops, efficiency } => {
                if !ok(*flops) {
                    return Err(SpecError::Invalid(format!("bad flops {flops}")));
                }
                if !(efficiency.is_finite() && *efficiency > 0.0 && *efficiency <= 1.0) {
                    return Err(SpecError::Invalid(format!(
                        "compute efficiency must be in (0,1], got {efficiency}"
                    )));
                }
            }
            Phase::NodeData {
                bytes, efficiency, ..
            } => {
                if !ok(*bytes) {
                    return Err(SpecError::Invalid(format!("bad bytes {bytes}")));
                }
                if !(efficiency.is_finite() && *efficiency > 0.0 && *efficiency <= 1.0) {
                    return Err(SpecError::Invalid(format!(
                        "node-data efficiency must be in (0,1], got {efficiency}"
                    )));
                }
            }
            Phase::SystemData {
                bytes, stream_cap, ..
            } => {
                if !ok(*bytes) {
                    return Err(SpecError::Invalid(format!("bad bytes {bytes}")));
                }
                if let Some(cap) = stream_cap {
                    if !(cap.is_finite() && *cap > 0.0) {
                        return Err(SpecError::Invalid(format!("bad stream cap {cap}")));
                    }
                }
            }
            Phase::Overhead { seconds, .. } => {
                if !ok(*seconds) {
                    return Err(SpecError::Invalid(format!("bad overhead {seconds}")));
                }
            }
        }
        Ok(())
    }
}

/// A distribution attached to one phase of a task: across Monte-Carlo
/// replications, the phase's headline quantity (FLOPs, bytes, or
/// seconds) is drawn from `dist` instead of using the spec's point
/// value. The plain [`Phase`] keeps the distribution *mean* as its
/// quantity, so deterministic `simulate`/`certify` runs are unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDist {
    /// Index into the task's `phases` vector.
    pub phase: u32,
    /// The quantity distribution, in the phase's natural unit.
    pub dist: Dist,
}

/// One task: a named phase sequence on a node allocation, gated on the
/// completion of other tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique task name.
    pub name: String,
    /// Nodes the task occupies from ready to completion.
    pub nodes: u64,
    /// Ordered phases.
    pub phases: Vec<Phase>,
    /// Names of tasks that must finish first.
    pub after: Vec<String>,
    /// Monte-Carlo phase distributions (empty for deterministic tasks;
    /// skipped in serialization so legacy JSON and fingerprints are
    /// byte-stable).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub dists: Vec<PhaseDist>,
}

impl TaskSpec {
    /// Creates a task with no dependencies.
    pub fn new(name: impl Into<String>, nodes: u64) -> Self {
        Self {
            name: name.into(),
            nodes,
            phases: Vec::new(),
            after: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// Appends a phase.
    pub fn phase(mut self, p: Phase) -> Self {
        self.phases.push(p);
        self
    }

    /// Attaches a quantity distribution to phase `phase` (an index into
    /// the phases appended so far).
    pub fn dist(mut self, phase: u32, dist: Dist) -> Self {
        self.dists.push(PhaseDist { phase, dist });
        self
    }

    /// Adds a dependency by task name.
    pub fn after(mut self, name: impl Into<String>) -> Self {
        self.after.push(name.into());
        self
    }
}

/// A workflow to simulate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// Workflow name.
    pub name: String,
    /// All tasks.
    pub tasks: Vec<TaskSpec>,
}

/// Errors from spec validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A numeric or structural field was invalid.
    Invalid(String),
    /// A dependency referenced an unknown task name.
    UnknownDependency {
        /// The depending task.
        task: String,
        /// The missing dependency name.
        dependency: String,
    },
    /// DAG-level error (duplicate names, cycles).
    Dag(DagError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
            SpecError::UnknownDependency { task, dependency } => {
                write!(f, "task {task} depends on unknown task {dependency}")
            }
            SpecError::Dag(e) => write!(f, "workflow graph error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<DagError> for SpecError {
    fn from(e: DagError) -> Self {
        SpecError::Dag(e)
    }
}

/// A spec's dependency lists resolved to task indices, inverted into
/// CSR successor lists: what [`WorkflowSpec::resolve`] hands the index
/// build. A task listed twice in one `after` counts twice on both sides,
/// as the engines' dependency bookkeeping does.
pub(crate) struct DepCsr {
    /// `after.len()` per task.
    pub(crate) dep_count: Vec<u32>,
    /// CSR offsets into [`Self::dependents`], one entry per task plus one.
    pub(crate) dependents_off: Vec<u32>,
    /// For each task, the tasks whose `after` names it, in task order.
    pub(crate) dependents: Vec<u32>,
}

impl DepCsr {
    /// Inverts `preds` (every task's resolved `after` list, back to back;
    /// task `i` owns the next `dep_count[i]` entries).
    fn invert(dep_count: Vec<u32>, preds: &[u32]) -> Self {
        let n = dep_count.len();
        let mut dependents_off = vec![0u32; n + 1];
        for &p in preds {
            dependents_off[p as usize + 1] += 1;
        }
        for i in 0..n {
            dependents_off[i + 1] += dependents_off[i];
        }
        let mut cursor = dependents_off[..n].to_vec();
        let mut dependents = vec![0u32; preds.len()];
        let mut own = preds;
        for (i, &c) in dep_count.iter().enumerate() {
            let (mine, rest) = own.split_at(c as usize);
            for &p in mine {
                dependents[cursor[p as usize] as usize] = i as u32;
                cursor[p as usize] += 1;
            }
            own = rest;
        }
        DepCsr {
            dep_count,
            dependents_off,
            dependents,
        }
    }

    /// Kahn's scan, calling `edge(v, s)` for each dependent `s` of a task
    /// `v` as `v` leaves the queue, so every task leaves after all its
    /// dependencies. `false` on a cycle, a self-dependency included (its
    /// task never reaches indegree zero).
    fn kahn(&self, mut edge: impl FnMut(usize, usize)) -> bool {
        let mut indegree = self.dep_count.clone();
        let mut queue: Vec<u32> = (0..indegree.len() as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            let succs = &self.dependents
                [self.dependents_off[v] as usize..self.dependents_off[v + 1] as usize];
            for &s in succs {
                edge(v, s as usize);
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        queue.len() == indegree.len()
    }

    fn is_acyclic(&self) -> bool {
        self.kahn(|_, _| {})
    }

    /// The most tasks on one dependency level of an acyclic graph: roots
    /// are level 0, any other task one past its deepest dependency.
    fn max_width(&self) -> usize {
        let mut level = vec![0u32; self.dep_count.len()];
        let acyclic = self.kahn(|v, s| level[s] = level[s].max(level[v] + 1));
        debug_assert!(acyclic, "resolve rejects cycles");
        let depth = level.iter().max().map_or(0, |&d| d as usize + 1);
        let mut width = vec![0usize; depth];
        for &l in &level {
            width[l as usize] += 1;
        }
        width.into_iter().max().unwrap_or(0)
    }
}

impl WorkflowSpec {
    /// Creates an empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Adds a task.
    pub fn task(mut self, t: TaskSpec) -> Self {
        self.tasks.push(t);
        self
    }

    /// Validates phases, dependency names, and acyclicity.
    ///
    /// The first error wins, in this order: a duplicate task name; then,
    /// task by task, zero nodes, an invalid phase, an invalid
    /// distribution, an unknown dependency; then a self-dependency or
    /// cycle. Each task name is hashed once and each dependency looked
    /// up once, so validation is `O(tasks + deps)` and allocates no
    /// task names. The [`Dag`] is only built when a structural problem
    /// is detected, purely to reproduce the exact error value callers
    /// have always seen.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.resolve().map(drop)
    }

    /// [`Self::validate`], then the structural parallelism: the most
    /// tasks on one dependency level, where roots are level 0 and any
    /// other task sits one past its deepest dependency (0 for an empty
    /// workflow). Equals [`Dag::max_width`] of [`Self::to_dag_with`]
    /// without building the [`Dag`].
    pub fn max_width(&self) -> Result<usize, SpecError> {
        Ok(self.resolve()?.max_width())
    }

    /// [`Self::validate`], keeping the dependency lists it resolves to
    /// task indices on the way.
    pub(crate) fn resolve(&self) -> Result<DepCsr, SpecError> {
        let mut names: std::collections::HashMap<&str, u32> =
            std::collections::HashMap::with_capacity(self.tasks.len());
        let mut duplicate = false;
        for (i, t) in self.tasks.iter().enumerate() {
            duplicate |= names.insert(t.name.as_str(), i as u32).is_some();
        }
        if duplicate {
            // Let the DAG construction name the duplicate.
            self.to_dag_with(|_| 0.0)?;
        }
        // Every `after` entry, resolved in task and `after` order;
        // duplicates are kept, as the engines count each one.
        let mut dep_count = Vec::with_capacity(self.tasks.len());
        let mut preds: Vec<u32> =
            Vec::with_capacity(self.tasks.iter().map(|t| t.after.len()).sum());
        for t in &self.tasks {
            if t.nodes == 0 {
                return Err(SpecError::Invalid(format!(
                    "task {} has zero nodes",
                    t.name
                )));
            }
            for p in &t.phases {
                p.validate()?;
            }
            for pd in &t.dists {
                if pd.phase as usize >= t.phases.len() {
                    return Err(SpecError::Invalid(format!(
                        "task {} attaches a distribution to phase {} but has only {} phases",
                        t.name,
                        pd.phase,
                        t.phases.len()
                    )));
                }
                if let Err(reason) = pd.dist.validate() {
                    return Err(SpecError::Invalid(format!(
                        "task {} phase {}: invalid distribution: {reason}",
                        t.name, pd.phase
                    )));
                }
            }
            for dep in &t.after {
                let Some(&p) = names.get(dep.as_str()) else {
                    return Err(SpecError::UnknownDependency {
                        task: t.name.clone(),
                        dependency: dep.clone(),
                    });
                };
                preds.push(p);
            }
            dep_count.push(t.after.len() as u32);
        }
        // Freed before the CSR is allocated, so the two never coexist.
        drop(names);
        let deps = DepCsr::invert(dep_count, &preds);
        if !deps.is_acyclic() {
            // Let the DAG construction name the self-dependency or the
            // first cycle member, exactly as it always has.
            self.to_dag_with(|_| 0.0)?;
        }
        Ok(deps)
    }

    /// Builds the dependency [`Dag`], estimating each task's duration via
    /// `duration_of`. Task `i` becomes `TaskId(i)`.
    pub fn to_dag_with<F: Fn(&TaskSpec) -> f64>(&self, duration_of: F) -> Result<Dag, SpecError> {
        let mut dag = Dag::new(self.name.clone());
        for t in &self.tasks {
            dag.add_task(t.name.clone(), t.nodes.max(1), duration_of(t))?;
        }
        for (i, t) in self.tasks.iter().enumerate() {
            for dep in &t.after {
                let Some(from) = dag.task_by_name(dep) else {
                    return Err(SpecError::UnknownDependency {
                        task: t.name.clone(),
                        dependency: dep.clone(),
                    });
                };
                dag.add_dep(from, TaskId(i))?;
            }
        }
        dag.validate()?;
        Ok(dag)
    }

    /// Ideal (contention-free, full-peak-channel) duration of a task on
    /// `machine`: the sum of its phase lower bounds. Used for duration
    /// estimates in planning DAGs.
    pub fn ideal_task_duration(task: &TaskSpec, machine: &Machine) -> f64 {
        task.phases
            .iter()
            .map(|p| match p {
                Phase::Compute { flops, efficiency } => {
                    match machine.node_resource(wrm_core::ids::COMPUTE) {
                        Some(r) => {
                            flops / (r.peak_per_node.magnitude() * task.nodes as f64 * efficiency)
                        }
                        None => 0.0,
                    }
                }
                Phase::NodeData {
                    resource,
                    bytes,
                    efficiency,
                } => match machine.node_resource(resource) {
                    Some(r) => {
                        bytes / (r.peak_per_node.magnitude() * task.nodes as f64 * efficiency)
                    }
                    None => 0.0,
                },
                Phase::SystemData {
                    resource,
                    bytes,
                    stream_cap,
                } => match machine.system_resource(resource) {
                    Some(r) => {
                        let agg = r.aggregate_for(task.nodes as f64).get();
                        let rate = stream_cap.unwrap_or(f64::INFINITY).min(agg);
                        if rate > 0.0 {
                            bytes / rate
                        } else {
                            f64::INFINITY
                        }
                    }
                    None => 0.0,
                },
                Phase::Overhead { seconds, .. } => *seconds,
            })
            .sum()
    }

    /// The dependency DAG with ideal durations on `machine`.
    pub fn to_dag(&self, machine: &Machine) -> Result<Dag, SpecError> {
        self.to_dag_with(|t| Self::ideal_task_duration(t, machine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_core::{ids, machines};

    fn lcls_spec() -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("LCLS");
        for i in 0..5 {
            wf = wf.task(
                TaskSpec::new(format!("analyze[{i}]"), 32)
                    .phase(Phase::SystemData {
                        resource: ids::EXTERNAL.into(),
                        bytes: 1e12,
                        stream_cap: Some(1e9),
                    })
                    .phase(Phase::node_data(ids::DRAM, 32e9 * 32.0)),
            );
        }
        let mut merge = TaskSpec::new("merge", 1).phase(Phase::system_data(ids::BURST_BUFFER, 5e9));
        for i in 0..5 {
            merge = merge.after(format!("analyze[{i}]"));
        }
        wf.task(merge)
    }

    #[test]
    fn spec_validates_and_builds_dag() {
        let wf = lcls_spec();
        wf.validate().unwrap();
        let dag = wf.to_dag(&machines::cori_haswell()).unwrap();
        assert_eq!(dag.len(), 6);
        assert_eq!(dag.max_width().unwrap(), 5);
        assert_eq!(dag.critical_path_length().unwrap(), 2);
    }

    #[test]
    fn ideal_duration_accounts_for_stream_caps() {
        let wf = lcls_spec();
        let m = machines::cori_haswell();
        // 1 TB at a 1 GB/s stream cap -> 1000 s, plus 32 GB/node DRAM at
        // 129 GB/s -> ~0.25 s.
        let d = WorkflowSpec::ideal_task_duration(&wf.tasks[0], &m);
        assert!((d - 1000.25).abs() < 0.01, "duration {d}");
    }

    #[test]
    fn unknown_dependency_is_reported() {
        let wf = WorkflowSpec::new("w").task(TaskSpec::new("a", 1).after("ghost"));
        assert!(matches!(
            wf.validate(),
            Err(SpecError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn cycles_and_duplicates_are_reported() {
        let wf = WorkflowSpec::new("w")
            .task(TaskSpec::new("a", 1).after("b"))
            .task(TaskSpec::new("b", 1).after("a"));
        assert!(matches!(wf.validate(), Err(SpecError::Dag(_))));

        let wf = WorkflowSpec::new("w")
            .task(TaskSpec::new("a", 1))
            .task(TaskSpec::new("a", 1));
        assert!(wf.validate().is_err());
    }

    #[test]
    fn phase_validation() {
        assert!(Phase::compute(1e15).validate().is_ok());
        assert!(Phase::Compute {
            flops: 1.0,
            efficiency: 0.0
        }
        .validate()
        .is_err());
        assert!(Phase::Compute {
            flops: f64::NAN,
            efficiency: 1.0
        }
        .validate()
        .is_err());
        assert!(Phase::NodeData {
            resource: "hbm".into(),
            bytes: -1.0,
            efficiency: 1.0
        }
        .validate()
        .is_err());
        assert!(Phase::SystemData {
            resource: "fs".into(),
            bytes: 1.0,
            stream_cap: Some(0.0)
        }
        .validate()
        .is_err());
        assert!(Phase::overhead("x", -2.0).validate().is_err());
        let wf = WorkflowSpec::new("w").task(TaskSpec::new("a", 0));
        assert!(wf.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let wf = lcls_spec();
        let json = serde_json::to_string(&wf).unwrap();
        assert!(
            !json.contains("dists"),
            "empty dist tables must not change the serialized form"
        );
        let back: WorkflowSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(wf, back);
    }

    #[test]
    fn dist_validation() {
        let ok = WorkflowSpec::new("w").task(
            TaskSpec::new("a", 1)
                .phase(Phase::overhead("x", 5.0))
                .dist(0, Dist::Uniform { lo: 4.0, hi: 6.0 }),
        );
        ok.validate().unwrap();

        // Distribution index past the phase list.
        let bad_ix = WorkflowSpec::new("w").task(
            TaskSpec::new("a", 1)
                .phase(Phase::overhead("x", 5.0))
                .dist(1, Dist::Uniform { lo: 4.0, hi: 6.0 }),
        );
        assert!(matches!(bad_ix.validate(), Err(SpecError::Invalid(_))));

        // Invalid parameters (negative sigma).
        let bad_params = WorkflowSpec::new("w").task(
            TaskSpec::new("a", 1).phase(Phase::overhead("x", 5.0)).dist(
                0,
                Dist::LogNormal {
                    median: 5.0,
                    sigma: -1.0,
                },
            ),
        );
        assert!(matches!(bad_params.validate(), Err(SpecError::Invalid(_))));

        // Dist tables round-trip through serde.
        let json = serde_json::to_string(&ok).unwrap();
        assert!(json.contains("\"dist\":\"uniform\""), "{json}");
        let back: WorkflowSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(ok, back);
    }
}
