//! Workflow task graphs.
//!
//! A [`Dag`] is the workflow skeleton of the paper's Fig. 4/Fig. 9: tasks
//! with node requirements and (estimated or measured) durations, connected
//! by happens-before edges. Levels, widths and critical-path lengths
//! defined here feed the characterization metrics of the Workflow Roofline Model
//! (number of parallel tasks, critical path length).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Index of a task inside its [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One task: a job in the workflow, from a large MPI application to a
/// small script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task name (unique within the DAG).
    pub name: String,
    /// Nodes the task occupies while running.
    pub nodes: u64,
    /// Duration in seconds (estimate at plan time, measurement afterwards).
    pub duration: f64,
}

/// Errors from DAG construction and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// An edge referenced a task id not in the graph.
    UnknownTask(TaskId),
    /// Two tasks share a name.
    DuplicateName(String),
    /// The graph contains a dependency cycle (names one involved task).
    Cycle(String),
    /// A numeric field was invalid.
    InvalidTask(String),
    /// An edge would connect a task to itself.
    SelfDependency(String),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownTask(id) => write!(f, "unknown task id {id}"),
            DagError::DuplicateName(n) => write!(f, "duplicate task name: {n}"),
            DagError::Cycle(n) => write!(f, "dependency cycle involving task {n}"),
            DagError::InvalidTask(msg) => write!(f, "invalid task: {msg}"),
            DagError::SelfDependency(n) => write!(f, "task {n} depends on itself"),
        }
    }
}

impl std::error::Error for DagError {}

/// A directed acyclic graph of workflow tasks.
///
/// Serializes but does not deserialize: every `Dag` is built through
/// [`Dag::add_task`], which keeps the name index in step with the tasks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dag {
    /// Workflow name.
    pub name: String,
    tasks: Vec<Task>,
    /// `succs[i]` = tasks that must start after task `i` completes.
    succs: Vec<Vec<TaskId>>,
    /// `preds[i]` = tasks that must complete before task `i` starts.
    preds: Vec<Vec<TaskId>>,
    /// Task name -> id. Names are immutable once added, so the index
    /// never goes stale.
    #[serde(skip)]
    ids: HashMap<String, TaskId>,
}

/// Target columns per reachability sweep in [`Dag::redundant_edges`],
/// in 64-bit words: 1024 columns, so a sweep holds 128 bytes per task.
const REACH_BLOCK_WORDS: usize = 16;

impl Dag {
    /// Creates an empty DAG.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// Adds a task and returns its id.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        nodes: u64,
        duration: f64,
    ) -> Result<TaskId, DagError> {
        let name = name.into();
        if self.ids.contains_key(&name) {
            return Err(DagError::DuplicateName(name));
        }
        if nodes == 0 {
            return Err(DagError::InvalidTask(format!("{name}: zero nodes")));
        }
        if !(duration.is_finite() && duration >= 0.0) {
            return Err(DagError::InvalidTask(format!(
                "{name}: duration must be finite and non-negative, got {duration}"
            )));
        }
        let id = TaskId(self.tasks.len());
        self.ids.insert(name.clone(), id);
        self.tasks.push(Task {
            name,
            nodes,
            duration,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        Ok(id)
    }

    /// Declares that `before` must complete before `after` starts.
    /// Duplicate edges are ignored.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) -> Result<(), DagError> {
        if before.0 >= self.tasks.len() {
            return Err(DagError::UnknownTask(before));
        }
        if after.0 >= self.tasks.len() {
            return Err(DagError::UnknownTask(after));
        }
        if before == after {
            return Err(DagError::SelfDependency(self.tasks[before.0].name.clone()));
        }
        if !self.succs[before.0].contains(&after) {
            self.succs[before.0].push(after);
            self.preds[after.0].push(before);
        }
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Looks a task up by name in O(1).
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.ids.get(name).copied()
    }

    /// All task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// All tasks in insertion order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Direct successors of a task.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id.0]
    }

    /// Direct predecessors of a task.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.preds[id.0]
    }

    /// Tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|id| self.preds[id.0].is_empty())
            .collect()
    }

    /// Tasks with no successors.
    pub fn leaves(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|id| self.succs[id.0].is_empty())
            .collect()
    }

    /// Kahn topological order; fails with [`DagError::Cycle`] if the graph
    /// has one.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, DagError> {
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<TaskId> = self.task_ids().filter(|id| indegree[id.0] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for &s in &self.succs[id.0] {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == self.len() {
            Ok(order)
        } else {
            let stuck = self
                .task_ids()
                .find(|id| indegree[id.0] > 0)
                .expect("a cycle leaves some task with positive indegree");
            Err(DagError::Cycle(self.tasks[stuck.0].name.clone()))
        }
    }

    /// Validates acyclicity.
    pub fn validate(&self) -> Result<(), DagError> {
        self.topo_order().map(|_| ())
    }

    /// The level of each task: roots are level 0, otherwise
    /// `1 + max(level of predecessors)`. Matches the paper's skeleton
    /// figures ("five parallel tasks at level 0").
    pub fn levels(&self) -> Result<Vec<usize>, DagError> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.len()];
        for id in order {
            for &p in &self.preds[id.0] {
                level[id.0] = level[id.0].max(level[p.0] + 1);
            }
        }
        Ok(level)
    }

    /// Tasks grouped by level, in level order.
    pub fn level_groups(&self) -> Result<Vec<Vec<TaskId>>, DagError> {
        let levels = self.levels()?;
        let depth = levels.iter().copied().max().map_or(0, |m| m + 1);
        let mut groups = vec![Vec::new(); depth];
        for id in self.task_ids() {
            groups[levels[id.0]].push(id);
        }
        Ok(groups)
    }

    /// Critical path *length*: number of levels (LCLS: 2).
    pub fn critical_path_length(&self) -> Result<usize, DagError> {
        Ok(self.level_groups()?.len())
    }

    /// Maximum number of tasks at any level: the structural "number of
    /// parallel tasks" the model uses as its x coordinate.
    pub fn max_width(&self) -> Result<usize, DagError> {
        Ok(self.level_groups()?.iter().map(Vec::len).max().unwrap_or(0))
    }

    /// Edges implied by transitivity: `(u, v)` such that removing the
    /// direct edge `u -> v` leaves `v` still reachable from `u`. These
    /// are exactly the edges a transitive reduction would drop; a spec
    /// declaring them is over-constrained but not wrong.
    ///
    /// Runs in O(V·E/64) via reverse-topological bitset reachability,
    /// swept over fixed blocks of target columns so memory stays
    /// O(V·B/64) words for a block of B columns, whatever the size of
    /// the graph.
    pub fn redundant_edges(&self) -> Result<Vec<(TaskId, TaskId)>, DagError> {
        self.redundant_edges_blocked(REACH_BLOCK_WORDS)
    }

    /// [`Dag::redundant_edges`] with `block_words` x 64 target columns
    /// per sweep.
    fn redundant_edges_blocked(
        &self,
        block_words: usize,
    ) -> Result<Vec<(TaskId, TaskId)>, DagError> {
        let order = self.topo_order()?;
        let n = self.len();
        let words = block_words.min(n.div_ceil(64)).max(1);
        let cols = words * 64;
        // reach[v] = the block's columns among v itself plus everything
        // reachable from v.
        let mut reach = vec![0u64; n * words];
        let mut out = Vec::new();
        for lo in (0..n).step_by(cols) {
            let hi = (lo + cols).min(n);
            reach.fill(0);
            for &v in order.iter().rev() {
                if (lo..hi).contains(&v.0) {
                    reach[v.0 * words + (v.0 - lo) / 64] |= 1 << ((v.0 - lo) % 64);
                }
                for &s in &self.succs[v.0] {
                    let (head, tail) = if v.0 < s.0 {
                        let (a, b) = reach.split_at_mut(s.0 * words);
                        (&mut a[v.0 * words..][..words], &b[..words])
                    } else {
                        let (a, b) = reach.split_at_mut(v.0 * words);
                        (&mut b[..words], &a[s.0 * words..][..words])
                    };
                    for (h, t) in head.iter_mut().zip(tail) {
                        *h |= t;
                    }
                }
            }
            let reaches = |w: TaskId, v: TaskId| {
                reach[w.0 * words + (v.0 - lo) / 64] & (1 << ((v.0 - lo) % 64)) != 0
            };
            for u in self.task_ids() {
                let succs = &self.succs[u.0];
                for &v in succs.iter().filter(|v| (lo..hi).contains(&v.0)) {
                    // u -> v is redundant iff some *other* successor of u
                    // already reaches v (no path revisits v in a DAG).
                    if succs.iter().any(|&w| w != v && reaches(w, v)) {
                        out.push((u, v));
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Sum of all task durations (serial work).
    pub fn total_duration(&self) -> f64 {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Sum of `nodes x duration` over all tasks (node-seconds of
    /// allocation).
    pub fn total_node_seconds(&self) -> f64 {
        self.tasks.iter().map(|t| t.nodes as f64 * t.duration).sum()
    }

    /// The largest node requirement of any single task.
    pub fn max_task_nodes(&self) -> u64 {
        self.tasks.iter().map(|t| t.nodes).max().unwrap_or(0)
    }

    /// Counts of tasks per name prefix, a convenience for reports.
    pub fn name_histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for t in &self.tasks {
            let key = t
                .name
                .split(['[', '.', '#'])
                .next()
                .unwrap_or(&t.name)
                .to_owned();
            *h.entry(key).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The LCLS skeleton of Fig. 4: A..E in parallel, F merges.
    fn lcls() -> Dag {
        let mut d = Dag::new("LCLS");
        let analyses: Vec<TaskId> = (0..5)
            .map(|i| d.add_task(format!("analyze[{i}]"), 32, 1000.0).unwrap())
            .collect();
        let merge = d.add_task("merge", 1, 20.0).unwrap();
        for a in analyses {
            d.add_dep(a, merge).unwrap();
        }
        d
    }

    #[test]
    fn lcls_structure_matches_fig4() {
        let d = lcls();
        assert_eq!(d.len(), 6);
        assert_eq!(d.critical_path_length().unwrap(), 2);
        assert_eq!(d.max_width().unwrap(), 5);
        assert_eq!(d.roots().len(), 5);
        assert_eq!(d.leaves(), vec![TaskId(5)]);
        let groups = d.level_groups().unwrap();
        assert_eq!(groups[0].len(), 5);
        assert_eq!(groups[1], vec![TaskId(5)]);
    }

    #[test]
    fn bgw_chain_structure() {
        // BGW: Epsilon -> Sigma.
        let mut d = Dag::new("BGW");
        let e = d.add_task("Epsilon", 64, 1200.0).unwrap();
        let s = d.add_task("Sigma", 64, 2985.0).unwrap();
        d.add_dep(e, s).unwrap();
        assert_eq!(d.critical_path_length().unwrap(), 2);
        assert_eq!(d.max_width().unwrap(), 1);
        assert_eq!(d.topo_order().unwrap(), vec![e, s]);
        assert!((d.total_duration() - 4185.0).abs() < 1e-9);
        assert!((d.total_node_seconds() - 64.0 * 4185.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_is_detected() {
        let mut d = Dag::new("c");
        let a = d.add_task("a", 1, 1.0).unwrap();
        let b = d.add_task("b", 1, 1.0).unwrap();
        d.add_dep(a, b).unwrap();
        d.add_dep(b, a).unwrap();
        assert!(matches!(d.topo_order(), Err(DagError::Cycle(_))));
        assert!(d.validate().is_err());
        assert!(d.levels().is_err());
    }

    #[test]
    fn construction_errors() {
        let mut d = Dag::new("e");
        let a = d.add_task("a", 1, 1.0).unwrap();
        assert!(matches!(
            d.add_task("a", 1, 1.0),
            Err(DagError::DuplicateName(_))
        ));
        assert!(d.add_task("z", 0, 1.0).is_err());
        assert!(d.add_task("n", 1, f64::NAN).is_err());
        assert!(d.add_task("neg", 1, -1.0).is_err());
        assert!(matches!(d.add_dep(a, a), Err(DagError::SelfDependency(_))));
        assert!(matches!(
            d.add_dep(a, TaskId(99)),
            Err(DagError::UnknownTask(_))
        ));
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut d = Dag::new("d");
        let a = d.add_task("a", 1, 1.0).unwrap();
        let b = d.add_task("b", 1, 1.0).unwrap();
        d.add_dep(a, b).unwrap();
        d.add_dep(a, b).unwrap();
        assert_eq!(d.successors(a), &[b]);
        assert_eq!(d.predecessors(b), &[a]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = lcls();
        let order = d.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; d.len()];
            for (i, id) in order.iter().enumerate() {
                p[id.0] = i;
            }
            p
        };
        for id in d.task_ids() {
            for &s in d.successors(id) {
                assert!(pos[id.0] < pos[s.0]);
            }
        }
    }

    #[test]
    fn empty_dag() {
        let d = Dag::new("empty");
        assert!(d.is_empty());
        assert_eq!(d.total_duration(), 0.0);
        assert_eq!(d.max_width().unwrap(), 0);
        assert_eq!(d.critical_path_length().unwrap(), 0);
        assert_eq!(d.max_task_nodes(), 0);
    }

    #[test]
    fn name_lookup_and_histogram() {
        let d = lcls();
        assert_eq!(d.task_by_name("merge"), Some(TaskId(5)));
        assert_eq!(d.task_by_name("nope"), None);
        let h = d.name_histogram();
        assert_eq!(h.get("analyze"), Some(&5));
        assert_eq!(h.get("merge"), Some(&1));
    }

    #[test]
    fn redundant_edges_match_the_transitive_reduction() {
        // a -> b -> c with a direct a -> c shortcut: only the shortcut
        // is redundant.
        let mut d = Dag::new("r");
        let a = d.add_task("a", 1, 1.0).unwrap();
        let b = d.add_task("b", 1, 1.0).unwrap();
        let c = d.add_task("c", 1, 1.0).unwrap();
        d.add_dep(a, b).unwrap();
        d.add_dep(b, c).unwrap();
        d.add_dep(a, c).unwrap();
        assert_eq!(d.redundant_edges().unwrap(), vec![(a, c)]);
        // A diamond has no redundant edges: both arms are needed.
        let mut d = Dag::new("diamond");
        let a = d.add_task("a", 1, 1.0).unwrap();
        let b = d.add_task("b", 1, 1.0).unwrap();
        let c = d.add_task("c", 1, 1.0).unwrap();
        let e = d.add_task("e", 1, 1.0).unwrap();
        d.add_dep(a, b).unwrap();
        d.add_dep(a, c).unwrap();
        d.add_dep(b, e).unwrap();
        d.add_dep(c, e).unwrap();
        assert!(d.redundant_edges().unwrap().is_empty());
        // Longer shortcut: a -> b -> c -> d plus a -> d.
        let mut g = Dag::new("long");
        let a = g.add_task("a", 1, 1.0).unwrap();
        let b = g.add_task("b", 1, 1.0).unwrap();
        let c = g.add_task("c", 1, 1.0).unwrap();
        let e = g.add_task("d", 1, 1.0).unwrap();
        g.add_dep(a, b).unwrap();
        g.add_dep(b, c).unwrap();
        g.add_dep(c, e).unwrap();
        g.add_dep(a, e).unwrap();
        assert_eq!(g.redundant_edges().unwrap(), vec![(a, e)]);
        // Cycles propagate the topo error.
        let mut g = Dag::new("cyc");
        let a = g.add_task("a", 1, 1.0).unwrap();
        let b = g.add_task("b", 1, 1.0).unwrap();
        g.add_dep(a, b).unwrap();
        g.add_dep(b, a).unwrap();
        assert!(g.redundant_edges().is_err());
    }

    #[test]
    fn blocked_reachability_matches_one_block() {
        // 300 tasks with edges to up to four of the next 40: five
        // 64-column blocks, and edges that cross block boundaries.
        let mut d = Dag::new("blocks");
        let ids: Vec<TaskId> = (0..300)
            .map(|i| d.add_task(format!("t{i}"), 1, 1.0).unwrap())
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..300 {
            for _ in 0..4 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let j = i + 1 + (state >> 33) as usize % 40;
                if j < 300 {
                    d.add_dep(ids[i], ids[j]).unwrap();
                }
            }
        }
        let one_block = d.redundant_edges_blocked(usize::MAX).unwrap();
        assert!(one_block.len() > 50, "{}", one_block.len());
        assert_eq!(d.redundant_edges_blocked(1).unwrap(), one_block);
        assert_eq!(d.redundant_edges_blocked(2).unwrap(), one_block);
        assert_eq!(d.redundant_edges().unwrap(), one_block);
    }
}
