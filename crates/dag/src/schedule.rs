//! Resource-constrained list scheduling: places a [`Dag`]'s tasks onto a
//! fixed pool of nodes, respecting dependencies and per-task node
//! requirements. Ready tasks start in FIFO order (task id, i.e.
//! submission order), the Slurm-like default the simulator also uses.
//!
//! This is the planning-side counterpart of the simulator in `wrm-sim`:
//! the simulator *executes* phases against shared bandwidths, while the
//! scheduler answers "when could each task start at best" for Gantt charts
//! (Fig. 7d) and for the parallelism wall's practical effect.

use crate::graph::{Dag, DagError, TaskId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The DAG was invalid (cycle, etc.).
    Dag(DagError),
    /// A task needs more nodes than the pool holds.
    TaskTooLarge {
        /// The offending task's name.
        task: String,
        /// Its node requirement.
        needs: u64,
        /// Pool size.
        pool: u64,
    },
    /// The node pool is empty.
    EmptyPool,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Dag(e) => write!(f, "invalid dag: {e}"),
            ScheduleError::TaskTooLarge { task, needs, pool } => {
                write!(f, "task {task} needs {needs} nodes but the pool has {pool}")
            }
            ScheduleError::EmptyPool => f.write_str("node pool is empty"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<DagError> for ScheduleError {
    fn from(e: DagError) -> Self {
        ScheduleError::Dag(e)
    }
}

/// One scheduled task occurrence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// The task.
    pub task: TaskId,
    /// Start time in seconds from workflow start.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
    /// Nodes held for the span.
    pub nodes: u64,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete schedule of a DAG on a node pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Spans indexed by task id.
    pub spans: Vec<Span>,
    /// Time the last task completes.
    pub makespan: f64,
    /// Pool size the schedule was computed for.
    pub total_nodes: u64,
}

impl Schedule {
    /// Node utilization: busy node-seconds over `total_nodes x makespan`.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.total_nodes == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .spans
            .iter()
            .map(|s| s.nodes as f64 * s.duration())
            .sum();
        busy / (self.total_nodes as f64 * self.makespan)
    }

    /// Maximum number of concurrently running tasks.
    pub fn peak_concurrency(&self) -> usize {
        let mut events: Vec<(f64, i64)> = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            if s.duration() > 0.0 {
                events.push((s.start, 1));
                events.push((s.end, -1));
            }
        }
        // Process ends before starts at the same instant.
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
        });
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak as usize
    }

    /// Time-weighted average concurrency (`sum of durations / makespan`).
    pub fn avg_concurrency(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.spans.iter().map(Span::duration).sum::<f64>() / self.makespan
    }
}

/// Computes a greedy list schedule of `dag` on `total_nodes` nodes.
///
/// The scheduler is event driven: at each completion time it starts every
/// ready task that fits, in task-id order (no backfilling past the head
/// beyond what node availability admits).
pub fn list_schedule(dag: &Dag, total_nodes: u64) -> Result<Schedule, ScheduleError> {
    if total_nodes == 0 {
        return Err(ScheduleError::EmptyPool);
    }
    dag.validate()?;
    for id in dag.task_ids() {
        let t = dag.task(id);
        if t.nodes > total_nodes {
            return Err(ScheduleError::TaskTooLarge {
                task: t.name.clone(),
                needs: t.nodes,
                pool: total_nodes,
            });
        }
    }

    let n = dag.len();
    let mut remaining_preds: Vec<usize> = dag
        .task_ids()
        .map(|id| dag.predecessors(id).len())
        .collect();
    let mut ready: Vec<TaskId> = dag
        .task_ids()
        .filter(|id| remaining_preds[id.0] == 0)
        .collect();
    let mut running: Vec<(f64, TaskId)> = Vec::new(); // (end, task)
    let mut spans: Vec<Option<Span>> = vec![None; n];
    let mut free = total_nodes;
    let mut now = 0.0f64;
    let mut done = 0usize;

    while done < n {
        // Start everything that fits, in task-id order.
        ready.sort_by_key(|id| id.0);
        let mut i = 0;
        while i < ready.len() {
            let id = ready[i];
            let need = dag.task(id).nodes;
            if need <= free {
                free -= need;
                let dur = dag.task(id).duration;
                spans[id.0] = Some(Span {
                    task: id,
                    start: now,
                    end: now + dur,
                    nodes: need,
                });
                running.push((now + dur, id));
                ready.remove(i);
            } else {
                i += 1;
            }
        }

        if running.is_empty() {
            // Nothing runs and nothing fits: impossible, since every task
            // fits in the pool and ready tasks always start when the pool
            // is idle.
            debug_assert!(ready.is_empty());
            break;
        }

        // Advance to the earliest completion.
        running.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let (end, _) = *running.last().expect("non-empty");
        now = end;
        while let Some(&(e, id)) = running.last() {
            if e > now {
                break;
            }
            running.pop();
            free += dag.task(id).nodes;
            done += 1;
            for &s in dag.successors(id) {
                remaining_preds[s.0] -= 1;
                if remaining_preds[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
    }

    let spans: Vec<Span> = spans
        .into_iter()
        .map(|s| s.expect("every task scheduled"))
        .collect();
    let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    Ok(Schedule {
        spans,
        makespan,
        total_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn wide_pool_runs_level0_in_parallel() {
        let d = lcls();
        let s = list_schedule(&d, 160).unwrap();
        assert!((s.makespan - 1020.0).abs() < 1e-9);
        assert_eq!(s.peak_concurrency(), 5);
        // The merge starts exactly when the analyses end.
        let merge = d.task_by_name("merge").unwrap();
        assert!((s.spans[merge.0].start - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn narrow_pool_serializes() {
        let d = lcls();
        // Only one 32-node analysis fits at a time.
        let s = list_schedule(&d, 32).unwrap();
        assert!((s.makespan - 5020.0).abs() < 1e-9);
        assert_eq!(s.peak_concurrency(), 1);
        // Utilization is nearly 1 (the 1-node merge wastes 31 nodes briefly).
        assert!(s.utilization() > 0.95);
    }

    #[test]
    fn half_pool_runs_two_waves() {
        let d = lcls();
        // 64 nodes: two analyses at a time -> waves of 2,2,1 then merge.
        let s = list_schedule(&d, 64).unwrap();
        assert!((s.makespan - 3020.0).abs() < 1e-9);
        assert_eq!(s.peak_concurrency(), 2);
    }

    #[test]
    fn dependencies_are_respected() {
        let mut d = Dag::new("chain");
        let a = d.add_task("a", 2, 5.0).unwrap();
        let b = d.add_task("b", 2, 3.0).unwrap();
        d.add_dep(a, b).unwrap();
        let s = list_schedule(&d, 100).unwrap();
        assert!(s.spans[b.0].start >= s.spans[a.0].end - 1e-12);
        assert!((s.makespan - 8.0).abs() < 1e-9);
    }

    #[test]
    fn node_capacity_is_never_exceeded() {
        let mut d = Dag::new("pack");
        for i in 0..10 {
            d.add_task(format!("t{i}"), 3, 7.0).unwrap();
        }
        let s = list_schedule(&d, 10).unwrap();
        // 3 tasks fit at once (9 nodes): 10 tasks -> 4 waves.
        assert!((s.makespan - 28.0).abs() < 1e-9);
        assert_eq!(s.peak_concurrency(), 3);
    }

    #[test]
    fn errors() {
        let d = lcls();
        assert!(matches!(
            list_schedule(&d, 0),
            Err(ScheduleError::EmptyPool)
        ));
        assert!(matches!(
            list_schedule(&d, 16),
            Err(ScheduleError::TaskTooLarge { .. })
        ));
        let mut cyc = Dag::new("c");
        let a = cyc.add_task("a", 1, 1.0).unwrap();
        let b = cyc.add_task("b", 1, 1.0).unwrap();
        cyc.add_dep(a, b).unwrap();
        cyc.add_dep(b, a).unwrap();
        assert!(matches!(list_schedule(&cyc, 4), Err(ScheduleError::Dag(_))));
    }

    #[test]
    fn zero_duration_tasks_complete() {
        let mut d = Dag::new("z");
        let a = d.add_task("a", 1, 0.0).unwrap();
        let b = d.add_task("b", 1, 1.0).unwrap();
        d.add_dep(a, b).unwrap();
        let s = list_schedule(&d, 1).unwrap();
        assert!((s.makespan - 1.0).abs() < 1e-12);
        assert_eq!(s.peak_concurrency(), 1); // zero-length spans ignored
    }

    #[test]
    fn concurrency_metrics_on_empty_schedule() {
        let d = Dag::new("empty");
        let s = list_schedule(&d, 4).unwrap();
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.peak_concurrency(), 0);
        assert_eq!(s.avg_concurrency(), 0.0);
        assert_eq!(s.utilization(), 0.0);
    }
}
