//! Seeded synthetic workloads for benchmarks and property tests: a
//! layered DAG and a repeated fork–join, as plain task records that
//! consumers turn into specs. Each generator draws from its own
//! splitmix64 stream, so identical seeds give identical workloads
//! without pulling an RNG dependency into the library.

/// A splitmix64 stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A duration in `[0, max)` on a grid of 10^-6 `max`.
    fn duration(&mut self, max: f64) -> f64 {
        (self.next_u64() % 1_000_000) as f64 / 1_000_000.0 * max
    }
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
/// `n_tasks` tasks, as plain task records rather than a
/// [`Dag`](crate::Dag) — the form large-scale benchmark workloads are
/// built from. Layer widths are drawn in `1..=max_width` until the task
/// budget is exhausted; each non-root task depends on 1..=3 tasks of the
/// previous layer.
pub fn random_layered_tasks(
    seed: u64,
    n_tasks: usize,
    max_width: usize,
    max_nodes: u64,
    max_duration: f64,
) -> Vec<GeneratedTask> {
    assert!(max_width >= 1, "max_width must be at least 1");
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut rng = SplitMix64(seed ^ 0xA076_1D64_78BD_642F);
    let mut tasks = Vec::with_capacity(n_tasks);
    let mut prev_layer: Vec<usize> = Vec::new();
    let mut layer = 0usize;
    while tasks.len() < n_tasks {
        let width = (1 + (rng.next_u64() as usize) % max_width).min(n_tasks - tasks.len());
        let mut cur = Vec::with_capacity(width);
        for i in 0..width {
            let nodes = 1 + rng.next_u64() % max_nodes;
            let duration = rng.duration(max_duration);
            let mut deps = Vec::new();
            if !prev_layer.is_empty() {
                let n_deps = 1 + (rng.next_u64() as usize) % 3.min(prev_layer.len());
                for k in 0..n_deps {
                    let p = prev_layer[(rng.next_u64() as usize + k) % prev_layer.len()];
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
/// `1..=max_nodes`; fork/join tasks take one node.
pub fn fork_join_tasks(
    seed: u64,
    n_tasks: usize,
    max_width: usize,
    max_nodes: u64,
    max_duration: f64,
) -> Vec<GeneratedTask> {
    assert!(max_width >= 1, "max_width must be at least 1");
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut rng = SplitMix64(seed ^ 0x5851_F42D_4C95_7F2D);
    let mut tasks: Vec<GeneratedTask> = Vec::with_capacity(n_tasks);
    let mut prev_join: Option<usize> = None;
    let mut round = 0usize;
    while tasks.len() < n_tasks {
        let budget = n_tasks - tasks.len();
        let fork = tasks.len();
        tasks.push(GeneratedTask {
            name: format!("fork[{round}]"),
            nodes: 1,
            duration: rng.duration(max_duration),
            deps: prev_join.into_iter().collect(),
        });
        // Reserve one slot for the join; degenerate tails become a chain.
        let width = (1 + (rng.next_u64() as usize) % max_width).min(budget.saturating_sub(2));
        let mut workers = Vec::with_capacity(width);
        for i in 0..width {
            let id = tasks.len();
            tasks.push(GeneratedTask {
                name: format!("work[{round}.{i}]"),
                nodes: 1 + rng.next_u64() % max_nodes,
                duration: rng.duration(max_duration),
                deps: vec![fork],
            });
            workers.push(id);
        }
        if tasks.len() < n_tasks {
            let join = tasks.len();
            tasks.push(GeneratedTask {
                name: format!("join[{round}]"),
                nodes: 1,
                duration: rng.duration(max_duration),
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

    /// The first records of both streams for one seed, bit for bit:
    /// the benchmark scenarios are built from these streams, so a change
    /// to either generator's draws shows here first.
    #[test]
    fn streams_are_pinned() {
        let record = |name: &str, nodes, duration, deps: &[usize]| GeneratedTask {
            name: name.to_owned(),
            nodes,
            duration,
            deps: deps.to_vec(),
        };
        assert_eq!(
            random_layered_tasks(42, 6, 4, 8, 100.0),
            [
                record("t[0.0]", 7, 21.776899999999998, &[]),
                record("t[1.0]", 6, 12.5193, &[0]),
                record("t[1.1]", 1, 70.6474, &[0]),
                record("t[1.2]", 8, 78.1405, &[0]),
                record("t[1.3]", 5, 73.6285, &[0]),
                record("t[2.0]", 8, 77.1111, &[4, 3]),
            ]
        );
        assert_eq!(
            fork_join_tasks(42, 6, 4, 8, 100.0),
            [
                record("fork[0]", 1, 19.922, &[]),
                record("work[0.0]", 3, 81.4362, &[0]),
                record("work[0.1]", 4, 46.9618, &[0]),
                record("work[0.2]", 6, 19.6578, &[0]),
                record("join[0]", 1, 99.63119999999999, &[1, 2, 3]),
                record("fork[1]", 1, 96.1884, &[4]),
            ]
        );
    }
}
