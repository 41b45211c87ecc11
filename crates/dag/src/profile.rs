//! Time-resolved parallelism profiles.
//!
//! The paper notes (Section V) that the roofline's y-axis hides the
//! total task count and critical-path length, making poor pipelining
//! hard to see. A [`ParallelismProfile`] makes it visible: the step
//! function of concurrently-running tasks (and busy nodes) over one
//! run, built from each task's `(start, end)` interval in that run
//! (`wrm_sim::SimResult::task_intervals` for a simulated run).

use crate::graph::Dag;
use serde::{Deserialize, Serialize};

/// One step of the profile: constant concurrency on `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileStep {
    /// Step start time (s).
    pub start: f64,
    /// Step end time (s).
    pub end: f64,
    /// Tasks running during the step.
    pub tasks: usize,
    /// Nodes busy during the step.
    pub nodes: u64,
}

impl ProfileStep {
    /// Step duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The step function of task/node concurrency over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelismProfile {
    /// Ordered, contiguous steps covering `[0, makespan]`.
    pub steps: Vec<ProfileStep>,
}

impl ParallelismProfile {
    /// Builds the profile from one `(start, end)` interval per task of
    /// `dag`, indexed by task id; node counts come from the DAG.
    /// Zero-duration intervals are ignored.
    ///
    /// # Panics
    ///
    /// When `intervals` does not hold exactly one interval per task.
    pub fn build(dag: &Dag, intervals: &[(f64, f64)]) -> Self {
        assert_eq!(intervals.len(), dag.len(), "one interval per task");
        let mut events: Vec<(f64, i64, i64)> = Vec::with_capacity(intervals.len() * 2);
        for (task, &(start, end)) in dag.tasks().iter().zip(intervals) {
            if end > start {
                events.push((start, 1, task.nodes as i64));
                events.push((end, -1, -(task.nodes as i64)));
            }
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
        });
        let mut steps = Vec::new();
        let mut tasks = 0i64;
        let mut nodes = 0i64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            // Apply every event at this instant.
            while i < events.len() && events[i].0 == t {
                tasks += events[i].1;
                nodes += events[i].2;
                i += 1;
            }
            let end = if i < events.len() { events[i].0 } else { t };
            if end > t {
                steps.push(ProfileStep {
                    start: t,
                    end,
                    tasks: tasks as usize,
                    nodes: nodes as u64,
                });
            }
        }
        ParallelismProfile { steps }
    }

    /// Peak concurrent tasks.
    pub fn peak_tasks(&self) -> usize {
        self.steps.iter().map(|s| s.tasks).max().unwrap_or(0)
    }

    /// Peak busy nodes.
    pub fn peak_nodes(&self) -> u64 {
        self.steps.iter().map(|s| s.nodes).max().unwrap_or(0)
    }

    /// Time-weighted mean task concurrency.
    pub fn mean_tasks(&self) -> f64 {
        let total: f64 = self.steps.iter().map(ProfileStep::duration).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.steps
            .iter()
            .map(|s| s.tasks as f64 * s.duration())
            .sum::<f64>()
            / total
    }

    /// Fraction of covered time spent at a single task or less: a large
    /// value flags poor pipelining (the paper's hidden-critical-path
    /// caveat).
    pub fn serial_fraction(&self) -> f64 {
        let total: f64 = self.steps.iter().map(ProfileStep::duration).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.steps
            .iter()
            .filter(|s| s.tasks <= 1)
            .map(ProfileStep::duration)
            .sum::<f64>()
            / total
    }

    /// Concurrency at time `t` (0 outside every step).
    pub fn tasks_at(&self, t: f64) -> usize {
        self.steps
            .iter()
            .find(|s| s.start <= t && t < s.end)
            .map_or(0, |s| s.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LCLS on a pool that fits `wave` analyses at a time: waves of
    /// 1000 s analyses, then the 20 s merge.
    fn lcls_profile(wave: usize) -> ParallelismProfile {
        let mut d = Dag::new("LCLS");
        let merge = d.add_task("merge", 1, 0.0).unwrap();
        let mut intervals = vec![(0.0, 0.0)];
        for i in 0..5 {
            let a = d.add_task(format!("a{i}"), 32, 0.0).unwrap();
            d.add_dep(a, merge).unwrap();
            let start = (i / wave) as f64 * 1000.0;
            intervals.push((start, start + 1000.0));
        }
        let end = 5usize.div_ceil(wave) as f64 * 1000.0;
        intervals[0] = (end, end + 20.0);
        ParallelismProfile::build(&d, &intervals)
    }

    #[test]
    fn wide_pool_profile() {
        let p = lcls_profile(5);
        assert_eq!(p.peak_tasks(), 5);
        assert_eq!(p.peak_nodes(), 160);
        // 5 tasks for 1000 s then 1 task for 20 s.
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.tasks_at(500.0), 5);
        assert_eq!(p.tasks_at(1010.0), 1);
        assert_eq!(p.tasks_at(5000.0), 0);
        let mean = p.mean_tasks();
        assert!((mean - (5.0 * 1000.0 + 20.0) / 1020.0).abs() < 1e-9);
        // Serial fraction is the merge tail.
        assert!((p.serial_fraction() - 20.0 / 1020.0).abs() < 1e-9);
    }

    #[test]
    fn narrow_pool_is_fully_serial() {
        let p = lcls_profile(1);
        assert_eq!(p.peak_tasks(), 1);
        assert!((p.serial_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile() {
        let p = ParallelismProfile::build(&Dag::new("empty"), &[]);
        assert!(p.steps.is_empty());
        assert_eq!(p.peak_tasks(), 0);
        assert_eq!(p.mean_tasks(), 0.0);
        assert_eq!(p.serial_fraction(), 0.0);
    }

    #[test]
    fn steps_are_contiguous_and_consistent() {
        let p = lcls_profile(2);
        for w in p.steps.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12);
        }
        // Node counts match task widths: 2 x 32-node tasks at the start.
        assert_eq!(p.steps[0].tasks, 2);
        assert_eq!(p.steps[0].nodes, 64);
    }
}
