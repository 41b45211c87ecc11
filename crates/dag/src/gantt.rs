//! Gantt-chart model (Fig. 7d): each task's execution interval in one
//! run, with the run's critical chain marked. The intervals come from
//! the run being drawn (`wrm_sim::SimResult::task_intervals` for a
//! simulated run); rendering lives in `wrm-plot`.

use crate::graph::{Dag, DagError, TaskId};
use serde::{Deserialize, Serialize};

/// One Gantt row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttRow {
    /// Task id in the source DAG.
    pub task: TaskId,
    /// Task name.
    pub name: String,
    /// Nodes held.
    pub nodes: u64,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
    /// True when the task lies on the run's critical chain.
    pub on_critical_path: bool,
}

/// The Gantt chart: rows ordered by start time (ties by task id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttChart {
    /// Workflow name.
    pub name: String,
    /// Ordered rows.
    pub rows: Vec<GanttRow>,
    /// The latest end time of any task.
    pub makespan: f64,
    /// The run's critical chain as task ids, in execution order (see
    /// [`GanttChart::build`]).
    pub critical_path: Vec<TaskId>,
}

impl GanttChart {
    /// Builds a chart from a DAG and one `(start, end)` interval per
    /// task, indexed by [`TaskId`]; node counts come from the DAG.
    ///
    /// The marked chain is the run's own: it starts at the
    /// last-finishing task (the lowest id among those with the latest
    /// end) and repeatedly steps to the predecessor that finished last
    /// (the lowest id on ties), i.e. the one whose completion released
    /// the task. Fails only when the DAG has a cycle.
    ///
    /// # Panics
    ///
    /// When `intervals` does not hold exactly one interval per task.
    pub fn build(dag: &Dag, intervals: &[(f64, f64)]) -> Result<Self, DagError> {
        assert_eq!(intervals.len(), dag.len(), "one interval per task");
        dag.validate()?;
        let mut critical_path = Vec::new();
        let mut cur = last_finished(dag.task_ids(), intervals);
        while let Some(id) = cur {
            critical_path.push(id);
            cur = last_finished(dag.predecessors(id).iter().copied(), intervals);
        }
        critical_path.reverse();
        let mut on_cp = vec![false; dag.len()];
        for &id in &critical_path {
            on_cp[id.0] = true;
        }
        let mut rows: Vec<GanttRow> = dag
            .task_ids()
            .map(|id| GanttRow {
                task: id,
                name: dag.task(id).name.clone(),
                nodes: dag.task(id).nodes,
                start: intervals[id.0].0,
                end: intervals[id.0].1,
                on_critical_path: on_cp[id.0],
            })
            .collect();
        rows.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        Ok(GanttChart {
            name: dag.name.clone(),
            rows,
            makespan: intervals.iter().map(|iv| iv.1).fold(0.0, f64::max),
            critical_path,
        })
    }

    /// Total time covered by critical-chain rows (the solid black line
    /// of Fig. 7d).
    pub fn critical_path_time(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.on_critical_path)
            .map(|r| r.end - r.start)
            .sum()
    }

    /// Fraction of the makespan the critical chain's tasks spend
    /// running; below 1.0 when the chain waited (for nodes, say)
    /// between its links.
    pub fn critical_path_coverage(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.critical_path_time() / self.makespan
    }
}

/// The task among `ids` with the latest end, the lowest id on ties.
fn last_finished(ids: impl Iterator<Item = TaskId>, intervals: &[(f64, f64)]) -> Option<TaskId> {
    ids.max_by(|&a, &b| {
        intervals[a.0]
            .1
            .total_cmp(&intervals[b.0].1)
            .then(b.cmp(&a))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bgw(nodes: u64) -> Dag {
        let mut d = Dag::new("BGW");
        let e = d.add_task("Epsilon", nodes, 0.0).unwrap();
        let s = d.add_task("Sigma", nodes, 0.0).unwrap();
        d.add_dep(e, s).unwrap();
        d
    }

    #[test]
    fn bgw_critical_path_is_the_whole_chain_at_both_scales() {
        // Fig. 7d: the critical path remains the same as BGW scales.
        for (nodes, te, ts) in [(64, 1200.0, 2985.0), (1024, 180.0, 225.0)] {
            let g = GanttChart::build(&bgw(nodes), &[(0.0, te), (te, te + ts)]).unwrap();
            assert_eq!(g.critical_path.len(), 2);
            assert!((g.critical_path_time() - (te + ts)).abs() < 1e-9);
            assert!((g.critical_path_coverage() - 1.0).abs() < 1e-12);
            assert!(g
                .rows
                .iter()
                .all(|r| r.on_critical_path && r.nodes == nodes));
        }
    }

    #[test]
    fn rows_are_ordered_by_start_then_id() {
        let mut d = Dag::new("w");
        for i in 0..4 {
            d.add_task(format!("t{i}"), 2, 0.0).unwrap();
        }
        let g =
            GanttChart::build(&d, &[(10.0, 20.0), (0.0, 11.0), (10.0, 12.0), (0.0, 10.0)]).unwrap();
        let order: Vec<usize> = g.rows.iter().map(|r| r.task.0).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
        assert_eq!(g.makespan, 20.0);
    }

    #[test]
    fn chain_follows_the_releasing_predecessor() {
        // `late` finishes last among `join`'s predecessors, so it
        // released `join`; the plan-longest `long` is off the chain.
        let mut d = Dag::new("w");
        let long = d.add_task("long", 1, 0.0).unwrap();
        let wait = d.add_task("wait", 1, 0.0).unwrap();
        let late = d.add_task("late", 1, 0.0).unwrap();
        let join = d.add_task("join", 1, 0.0).unwrap();
        d.add_dep(wait, late).unwrap();
        for p in [long, late] {
            d.add_dep(p, join).unwrap();
        }
        let g =
            GanttChart::build(&d, &[(0.0, 9.0), (0.0, 1.0), (5.0, 10.0), (10.0, 12.0)]).unwrap();
        assert_eq!(g.critical_path, vec![wait, late, join]);
        // 1 + 5 + 2 s of running over a 12 s makespan: the chain idled
        // from 1 s to 5 s.
        assert!((g.critical_path_time() - 8.0).abs() < 1e-12);
        assert!(
            !g.rows
                .iter()
                .find(|r| r.task == long)
                .unwrap()
                .on_critical_path
        );
    }

    #[test]
    fn ties_go_to_the_lowest_id() {
        let mut d = Dag::new("w");
        let a = d.add_task("a", 1, 0.0).unwrap();
        let b = d.add_task("b", 1, 0.0).unwrap();
        let c = d.add_task("c", 1, 0.0).unwrap();
        let e = d.add_task("e", 1, 0.0).unwrap();
        // `b` and `a` both end at 4 and both precede `e`; `c` ends with
        // `e` at 6.
        d.add_dep(b, e).unwrap();
        d.add_dep(a, e).unwrap();
        let g = GanttChart::build(&d, &[(0.0, 4.0), (1.0, 4.0), (0.0, 6.0), (4.0, 6.0)]).unwrap();
        assert_eq!(g.critical_path, vec![c]);
        let mut d2 = d.clone();
        let z = d2.add_task("z", 1, 0.0).unwrap();
        d2.add_dep(e, z).unwrap();
        let g = GanttChart::build(
            &d2,
            &[(0.0, 4.0), (1.0, 4.0), (0.0, 6.0), (4.0, 6.0), (6.0, 7.0)],
        )
        .unwrap();
        assert_eq!(g.critical_path, vec![a, e, z]);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut d = Dag::new("c");
        let a = d.add_task("a", 1, 1.0).unwrap();
        let b = d.add_task("b", 1, 1.0).unwrap();
        d.add_dep(a, b).unwrap();
        d.add_dep(b, a).unwrap();
        assert!(GanttChart::build(&d, &[(0.0, 1.0), (1.0, 2.0)]).is_err());
    }

    #[test]
    fn empty_chart() {
        let g = GanttChart::build(&Dag::new("empty"), &[]).unwrap();
        assert!(g.rows.is_empty() && g.critical_path.is_empty());
        assert_eq!(g.critical_path_coverage(), 0.0);
    }
}
