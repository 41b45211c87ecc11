//! Synthetic DAG generators: the workflow archetypes of the paper's
//! introduction (bags of tasks, chains, map-reduce/ensemble-merge,
//! iterative chains) plus a seeded random layered DAG for property tests
//! and benchmarks.

use crate::graph::{Dag, DagError, TaskId};

/// `n` independent tasks (a bag of tasks / ensemble).
pub fn bag_of_tasks(n: usize, nodes: u64, duration: f64) -> Result<Dag, DagError> {
    let mut d = Dag::new(format!("bag[{n}]"));
    for i in 0..n {
        d.add_task(format!("task[{i}]"), nodes, duration)?;
    }
    Ok(d)
}

/// A linear chain of `n` tasks (BGW-like multi-stage pipelines).
pub fn chain(n: usize, nodes: u64, duration: f64) -> Result<Dag, DagError> {
    let mut d = Dag::new(format!("chain[{n}]"));
    let mut prev: Option<TaskId> = None;
    for i in 0..n {
        let id = d.add_task(format!("stage[{i}]"), nodes, duration)?;
        if let Some(p) = prev {
            d.add_dep(p, id)?;
        }
        prev = Some(id);
    }
    Ok(d)
}

/// `width` parallel workers followed by one merge task (the LCLS
/// skeleton of Fig. 4).
pub fn fork_join(
    width: usize,
    worker_nodes: u64,
    worker_duration: f64,
    merge_duration: f64,
) -> Result<Dag, DagError> {
    let mut d = Dag::new(format!("fork-join[{width}]"));
    let workers: Vec<TaskId> = (0..width)
        .map(|i| d.add_task(format!("worker[{i}]"), worker_nodes, worker_duration))
        .collect::<Result<_, _>>()?;
    let merge = d.add_task("merge", 1, merge_duration)?;
    for w in workers {
        d.add_dep(w, merge)?;
    }
    Ok(d)
}

/// An iterative map-reduce: `iters` rounds of `width` mappers feeding one
/// reducer, each round gated on the previous reducer (Pregel-like
/// iterative chains of MapReduce jobs).
pub fn iterative_map_reduce(
    iters: usize,
    width: usize,
    map_nodes: u64,
    map_duration: f64,
    reduce_duration: f64,
) -> Result<Dag, DagError> {
    let mut d = Dag::new(format!("mapreduce[{iters}x{width}]"));
    let mut prev_reduce: Option<TaskId> = None;
    for it in 0..iters {
        let mappers: Vec<TaskId> = (0..width)
            .map(|i| d.add_task(format!("map[{it}.{i}]"), map_nodes, map_duration))
            .collect::<Result<_, _>>()?;
        let reduce = d.add_task(format!("reduce[{it}]"), 1, reduce_duration)?;
        for &m in &mappers {
            if let Some(r) = prev_reduce {
                d.add_dep(r, m)?;
            }
            d.add_dep(m, reduce)?;
        }
        prev_reduce = Some(reduce);
    }
    Ok(d)
}

/// A deterministic pseudo-random layered DAG: `layers` levels of up to
/// `max_width` tasks; each non-root task depends on 1..=3 tasks of the
/// previous layer. Uses a splitmix64 stream from `seed`, so identical
/// seeds give identical graphs without pulling a RNG dependency into the
/// library.
pub fn random_layered(
    seed: u64,
    layers: usize,
    max_width: usize,
    max_nodes: u64,
    max_duration: f64,
) -> Result<Dag, DagError> {
    assert!(max_width >= 1, "max_width must be at least 1");
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut state = seed;
    let mut next = move || -> u64 {
        // splitmix64
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut d = Dag::new(format!("random[{seed}]"));
    let mut prev_layer: Vec<TaskId> = Vec::new();
    for layer in 0..layers {
        let width = 1 + (next() as usize) % max_width;
        let mut cur = Vec::with_capacity(width);
        for i in 0..width {
            let nodes = 1 + next() % max_nodes;
            let duration = (next() % 1_000_000) as f64 / 1_000_000.0 * max_duration;
            let id = d.add_task(format!("t[{layer}.{i}]"), nodes, duration)?;
            if !prev_layer.is_empty() {
                let deps = 1 + (next() as usize) % 3.min(prev_layer.len());
                for k in 0..deps {
                    let p = prev_layer[(next() as usize + k) % prev_layer.len()];
                    d.add_dep(p, id)?;
                }
            }
            cur.push(id);
        }
        prev_layer = cur;
    }
    Ok(d)
}

/// One task of a generated workload, as plain data: consumers (e.g. the
/// benchmark crate) attach their own phase structure.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedTask {
    /// Unique task name (`t[layer.slot]`).
    pub name: String,
    /// Node allocation.
    pub nodes: u64,
    /// Nominal duration in seconds (uniform in `(0, max_duration)`).
    pub duration: f64,
    /// Indices (into the returned vector) of tasks this one depends on;
    /// always earlier indices, so the list is topologically ordered.
    pub deps: Vec<usize>,
}

/// A deterministic pseudo-random layered workload with exactly
/// `n_tasks` tasks, as plain task records rather than a [`Dag`] — the
/// form large-scale benchmark workloads are built from. Layer widths are
/// drawn in `1..=max_width` until the task budget is exhausted; each
/// non-root task depends on 1..=3 tasks of the previous layer. Uses its
/// own splitmix64 stream from `seed` (independent of
/// [`random_layered`]), so identical seeds give identical workloads.
pub fn random_layered_tasks(
    seed: u64,
    n_tasks: usize,
    max_width: usize,
    max_nodes: u64,
    max_duration: f64,
) -> Vec<GeneratedTask> {
    assert!(max_width >= 1, "max_width must be at least 1");
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut next = move || -> u64 {
        // splitmix64
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut tasks = Vec::with_capacity(n_tasks);
    let mut prev_layer: Vec<usize> = Vec::new();
    let mut layer = 0usize;
    while tasks.len() < n_tasks {
        let width = (1 + (next() as usize) % max_width).min(n_tasks - tasks.len());
        let mut cur = Vec::with_capacity(width);
        for i in 0..width {
            let nodes = 1 + next() % max_nodes;
            let duration = (next() % 1_000_000) as f64 / 1_000_000.0 * max_duration;
            let mut deps = Vec::new();
            if !prev_layer.is_empty() {
                let n_deps = 1 + (next() as usize) % 3.min(prev_layer.len());
                for k in 0..n_deps {
                    let p = prev_layer[(next() as usize + k) % prev_layer.len()];
                    if !deps.contains(&p) {
                        deps.push(p);
                    }
                }
            }
            let id = tasks.len();
            tasks.push(GeneratedTask {
                name: format!("t[{layer}.{i}]"),
                nodes,
                duration,
                deps,
            });
            cur.push(id);
        }
        prev_layer = cur;
        layer += 1;
    }
    tasks
}

/// A deterministic pseudo-random repeated fork–join workload with
/// exactly `n_tasks` tasks, as plain task records: rounds of `fork ->
/// width workers -> join`, each round's fork gated on the previous join
/// (the LCLS shape of Fig. 4, tiled until the budget is exhausted —
/// wide barriers are the worst case for a completion calendar, since
/// every worker of a round finishes into the same join). Widths are
/// drawn in `1..=max_width` per round; worker node counts in
/// `1..=max_nodes`; fork/join tasks take one node. Uses its own
/// splitmix64 stream from `seed`, so identical seeds give identical
/// workloads.
pub fn fork_join_tasks(
    seed: u64,
    n_tasks: usize,
    max_width: usize,
    max_nodes: u64,
    max_duration: f64,
) -> Vec<GeneratedTask> {
    assert!(max_width >= 1, "max_width must be at least 1");
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut state = seed ^ 0x5851_F42D_4C95_7F2D;
    let mut next = move || -> u64 {
        // splitmix64
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut tasks: Vec<GeneratedTask> = Vec::with_capacity(n_tasks);
    let mut prev_join: Option<usize> = None;
    let mut round = 0usize;
    while tasks.len() < n_tasks {
        let budget = n_tasks - tasks.len();
        let fork = tasks.len();
        tasks.push(GeneratedTask {
            name: format!("fork[{round}]"),
            nodes: 1,
            duration: (next() % 1_000_000) as f64 / 1_000_000.0 * max_duration,
            deps: prev_join.into_iter().collect(),
        });
        // Reserve one slot for the join; degenerate tails become a chain.
        let width = (1 + (next() as usize) % max_width).min(budget.saturating_sub(2));
        let mut workers = Vec::with_capacity(width);
        for i in 0..width {
            let id = tasks.len();
            tasks.push(GeneratedTask {
                name: format!("work[{round}.{i}]"),
                nodes: 1 + next() % max_nodes,
                duration: (next() % 1_000_000) as f64 / 1_000_000.0 * max_duration,
                deps: vec![fork],
            });
            workers.push(id);
        }
        if tasks.len() < n_tasks {
            let join = tasks.len();
            tasks.push(GeneratedTask {
                name: format!("join[{round}]"),
                nodes: 1,
                duration: (next() % 1_000_000) as f64 / 1_000_000.0 * max_duration,
                deps: if workers.is_empty() {
                    vec![fork]
                } else {
                    workers
                },
            });
            prev_join = Some(join);
        } else {
            prev_join = Some(fork);
        }
        round += 1;
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_has_width_n_depth_1() {
        let d = bag_of_tasks(7, 2, 5.0).unwrap();
        assert_eq!(d.len(), 7);
        assert_eq!(d.max_width().unwrap(), 7);
        assert_eq!(d.critical_path_length().unwrap(), 1);
    }

    #[test]
    fn chain_has_width_1_depth_n() {
        let d = chain(9, 4, 2.0).unwrap();
        assert_eq!(d.max_width().unwrap(), 1);
        assert_eq!(d.critical_path_length().unwrap(), 9);
        assert!((d.total_duration() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn fork_join_matches_lcls_shape() {
        let d = fork_join(5, 32, 1000.0, 20.0).unwrap();
        assert_eq!(d.len(), 6);
        assert_eq!(d.max_width().unwrap(), 5);
        assert_eq!(d.critical_path_length().unwrap(), 2);
    }

    #[test]
    fn map_reduce_rounds_are_gated() {
        let d = iterative_map_reduce(3, 4, 1, 10.0, 1.0).unwrap();
        assert_eq!(d.len(), 3 * 5);
        assert_eq!(d.critical_path_length().unwrap(), 6);
        // Every mapper of round 1 waits on round 0's reducer.
        let reduce0 = d.task_by_name("reduce[0]").unwrap();
        for i in 0..4 {
            let m = d.task_by_name(&format!("map[1.{i}]")).unwrap();
            assert_eq!(d.predecessors(m), &[reduce0]);
        }
    }

    #[test]
    fn random_layered_is_deterministic_and_acyclic() {
        let a = random_layered(42, 8, 6, 16, 100.0).unwrap();
        let b = random_layered(42, 8, 6, 16, 100.0).unwrap();
        assert_eq!(a, b);
        a.validate().unwrap();
        assert_eq!(a.critical_path_length().unwrap(), 8);
        let c = random_layered(43, 8, 6, 16, 100.0).unwrap();
        assert!(a != c);
    }

    #[test]
    fn layered_tasks_hit_the_budget_exactly() {
        for n in [1, 2, 17, 1000] {
            let tasks = random_layered_tasks(9, n, 8, 4, 50.0);
            assert_eq!(tasks.len(), n);
            // Deterministic per seed, topologically ordered deps.
            assert_eq!(tasks, random_layered_tasks(9, n, 8, 4, 50.0));
            for (i, t) in tasks.iter().enumerate() {
                assert!(t.deps.iter().all(|&d| d < i));
                assert!(t.nodes >= 1 && t.nodes <= 4);
                assert!(t.duration >= 0.0 && t.duration < 50.0);
            }
        }
        // Names are unique.
        let tasks = random_layered_tasks(3, 500, 8, 4, 50.0);
        let names: std::collections::BTreeSet<&str> =
            tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), tasks.len());
        // Different seeds differ.
        assert!(
            random_layered_tasks(3, 100, 8, 4, 50.0) != random_layered_tasks(4, 100, 8, 4, 50.0)
        );
    }

    #[test]
    fn fork_join_tasks_hit_the_budget_exactly() {
        for n in [1, 2, 3, 4, 17, 1000] {
            let tasks = fork_join_tasks(11, n, 16, 8, 30.0);
            assert_eq!(tasks.len(), n);
            assert_eq!(tasks, fork_join_tasks(11, n, 16, 8, 30.0));
            for (i, t) in tasks.iter().enumerate() {
                assert!(t.deps.iter().all(|&d| d < i), "topological order");
                assert!(t.nodes >= 1 && t.nodes <= 8);
                assert!(t.duration >= 0.0 && t.duration < 30.0);
            }
        }
        // Names are unique, and the barrier shape is present: some join
        // depends on more than one worker.
        let tasks = fork_join_tasks(11, 500, 16, 8, 30.0);
        let names: std::collections::BTreeSet<&str> =
            tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), tasks.len());
        assert!(tasks.iter().any(|t| t.deps.len() > 1));
        // Every round is gated on the previous one: exactly one root.
        assert_eq!(tasks.iter().filter(|t| t.deps.is_empty()).count(), 1);
        assert!(fork_join_tasks(1, 100, 8, 4, 50.0) != fork_join_tasks(2, 100, 8, 4, 50.0));
    }

    #[test]
    fn degenerate_sizes() {
        assert!(bag_of_tasks(0, 1, 1.0).unwrap().is_empty());
        assert!(chain(0, 1, 1.0).unwrap().is_empty());
        let one = random_layered(7, 1, 1, 1, 1.0).unwrap();
        assert_eq!(one.len(), 1);
    }
}
