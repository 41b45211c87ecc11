//! Gantt-chart model (Fig. 7d): per-task execution spans with the
//! critical path marked. Rendering lives in `wrm-plot`; this module owns
//! the data.

use crate::graph::{Dag, DagError, TaskId};
use crate::schedule::Schedule;
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
    /// True when the task lies on the duration-critical path.
    pub on_critical_path: bool,
}

/// The Gantt chart: rows ordered by start time (ties by task id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttChart {
    /// Workflow name.
    pub name: String,
    /// Ordered rows.
    pub rows: Vec<GanttRow>,
    /// The schedule's makespan.
    pub makespan: f64,
    /// The critical path as task ids, in execution order.
    pub critical_path: Vec<TaskId>,
}

impl GanttChart {
    /// Builds a chart from a DAG and its schedule.
    pub fn build(dag: &Dag, schedule: &Schedule) -> Result<Self, DagError> {
        let (critical_path, _) = dag.critical_path()?;
        let on_cp: Vec<bool> = {
            let mut v = vec![false; dag.len()];
            for &id in &critical_path {
                v[id.0] = true;
            }
            v
        };
        let mut rows: Vec<GanttRow> = schedule
            .spans
            .iter()
            .map(|s| GanttRow {
                task: s.task,
                name: dag.task(s.task).name.clone(),
                nodes: s.nodes,
                start: s.start,
                end: s.end,
                on_critical_path: on_cp[s.task.0],
            })
            .collect();
        rows.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .expect("finite")
                .then(a.task.0.cmp(&b.task.0))
        });
        Ok(GanttChart {
            name: dag.name.clone(),
            rows,
            makespan: schedule.makespan,
            critical_path,
        })
    }

    /// Total time covered by critical-path rows (the solid black line of
    /// Fig. 7d).
    pub fn critical_path_time(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.on_critical_path)
            .map(|r| r.end - r.start)
            .sum()
    }

    /// Fraction of the makespan explained by the critical path; 1.0 means
    /// no scheduling-induced idle gaps along it.
    pub fn critical_path_coverage(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.critical_path_time() / self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::list_schedule;

    fn bgw(nodes: u64, te: f64, ts: f64) -> (Dag, Schedule) {
        let mut d = Dag::new("BGW");
        let e = d.add_task("Epsilon", nodes, te).unwrap();
        let s = d.add_task("Sigma", nodes, ts).unwrap();
        d.add_dep(e, s).unwrap();
        let sched = list_schedule(&d, 1792).unwrap();
        (d, sched)
    }

    #[test]
    fn bgw_critical_path_is_the_whole_chain_at_both_scales() {
        // Fig. 7d: the critical path remains the same as BGW scales.
        for (nodes, te, ts) in [(64, 1200.0, 2985.0), (1024, 180.0, 225.0)] {
            let (d, sched) = bgw(nodes, te, ts);
            let g = GanttChart::build(&d, &sched).unwrap();
            assert_eq!(g.critical_path.len(), 2);
            assert!((g.critical_path_time() - (te + ts)).abs() < 1e-9);
            assert!((g.critical_path_coverage() - 1.0).abs() < 1e-12);
            assert!(g.rows.iter().all(|r| r.on_critical_path));
        }
    }

    #[test]
    fn rows_are_ordered_by_start() {
        let mut d = Dag::new("w");
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(d.add_task(format!("t{i}"), 2, 10.0 + i as f64).unwrap());
        }
        let sched = list_schedule(&d, 4).unwrap();
        let g = GanttChart::build(&d, &sched).unwrap();
        for w in g.rows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert_eq!(g.rows.len(), 4);
    }

    #[test]
    fn off_critical_path_rows_are_marked() {
        let mut d = Dag::new("w");
        let long = d.add_task("long", 1, 100.0).unwrap();
        let short = d.add_task("short", 1, 1.0).unwrap();
        let sched = list_schedule(&d, 2).unwrap();
        let g = GanttChart::build(&d, &sched).unwrap();
        let row_long = g.rows.iter().find(|r| r.task == long).unwrap();
        let row_short = g.rows.iter().find(|r| r.task == short).unwrap();
        assert!(row_long.on_critical_path);
        assert!(!row_short.on_critical_path);
        // Both start immediately; coverage equals 1.0 (100/100).
        assert!((g.critical_path_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_chart() {
        let d = Dag::new("empty");
        let sched = list_schedule(&d, 4).unwrap();
        let g = GanttChart::build(&d, &sched).unwrap();
        assert!(g.rows.is_empty());
        assert_eq!(g.critical_path_coverage(), 0.0);
    }
}
