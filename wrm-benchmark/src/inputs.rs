//! Seeded workflow inputs with fixed-width shapes.
//!
//! `wrm_bench`'s generators draw every layer's width from 1..=4096, so
//! the cost of one DAG swings several-fold with the seed: the engine's
//! fair-share work grows with the square of a layer's width, and the
//! linter's with its reachability. A benchmark fed one such DAG per run
//! would measure the seed rather than the code. These shapes fix the
//! widths and draw everything else from the seed — durations, node
//! counts, dependencies — and attach phases with `wrm_bench`'s policies,
//! so the work per run is steady while the inputs still change with the
//! seed.

use crate::stats::SplitMix;
use wrm_core::{BytesPerSec, Dist, Machine};
use wrm_dag::generate::GeneratedTask;
use wrm_sim::{Phase, Scenario, TaskSpec, WorkflowSpec};

/// Largest node count of a task.
const MAX_NODES: u64 = 2;
/// Durations are uniform in `[0, MAX_DURATION)` seconds.
const MAX_DURATION: f64 = 20.0;

struct Gen {
    rng: SplitMix,
    tasks: Vec<GeneratedTask>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix(seed),
            tasks: Vec::new(),
        }
    }

    fn push(&mut self, name: String, nodes: u64, deps: Vec<usize>) -> usize {
        let duration = (self.rng.next_u64() % 1_000_000) as f64 / 1_000_000.0 * MAX_DURATION;
        self.tasks.push(GeneratedTask {
            name,
            nodes,
            duration,
            deps,
        });
        self.tasks.len() - 1
    }

    fn nodes(&mut self) -> u64 {
        1 + self.rng.next_u64() % MAX_NODES
    }

    /// `layers` layers of `width` tasks; every task after the first
    /// layer depends on 1..=3 tasks of the layer before, and the first
    /// layer on every task in `after`.
    fn layered(&mut self, layers: usize, width: usize, after: &[usize]) -> Vec<usize> {
        let mut prev: Vec<usize> = after.to_vec();
        for l in 0..layers {
            let mut cur = Vec::with_capacity(width);
            for i in 0..width {
                let deps = if l == 0 {
                    prev.clone()
                } else {
                    let n = 1 + self.rng.next_u64() % 3;
                    let mut deps: Vec<usize> = Vec::new();
                    for _ in 0..n {
                        let p = prev[(self.rng.next_u64() % prev.len() as u64) as usize];
                        if !deps.contains(&p) {
                            deps.push(p);
                        }
                    }
                    deps
                };
                let nodes = self.nodes();
                cur.push(self.push(format!("t[{l}.{i}]"), nodes, deps));
            }
            prev = cur;
        }
        prev
    }

    /// `rounds` rounds of fork -> `width` workers -> join, each fork
    /// gated on the previous join (the first on every task in `after`).
    fn fork_join(&mut self, rounds: usize, width: usize, after: &[usize]) {
        let mut prev: Vec<usize> = after.to_vec();
        for r in 0..rounds {
            let fork = self.push(format!("fork[{r}]"), 1, prev);
            let workers: Vec<usize> = (0..width)
                .map(|i| {
                    let nodes = self.nodes();
                    self.push(format!("work[{r}.{i}]"), nodes, vec![fork])
                })
                .collect();
            prev = vec![self.push(format!("join[{r}]"), 1, workers)];
        }
    }
}

/// A layered DAG of `layers` x `width` tasks.
pub fn layered(seed: u64, layers: usize, width: usize) -> Vec<GeneratedTask> {
    let mut g = Gen::new(seed);
    g.layered(layers, width, &[]);
    g.tasks
}

/// `rounds` fork-join rounds of `width` workers each (`width + 2` tasks
/// a round).
pub fn fork_join(seed: u64, rounds: usize, width: usize) -> Vec<GeneratedTask> {
    let mut g = Gen::new(seed);
    g.fork_join(rounds, width, &[]);
    g.tasks
}

/// A pipeline: `layers` x `width` layered tasks, then `rounds` fork-join
/// rounds of `width - 2` workers gated on the last layer — both shapes
/// in one spec, `(layers + rounds) x width` tasks.
pub fn pipeline(seed: u64, layers: usize, rounds: usize, width: usize) -> Vec<GeneratedTask> {
    let mut g = Gen::new(seed);
    let last = g.layered(layers, width, &[]);
    g.fork_join(rounds, width - 2, &last);
    g.tasks
}

/// A machine of 8192 nodes with `channels` shared 50 GB/s channels
/// `ch0..`.
fn machine(name: &str, channels: usize) -> Machine {
    let mut b = Machine::builder(name, 8192);
    for c in 0..channels {
        b = b.system(
            format!("ch{c}"),
            format!("Channel {c}"),
            BytesPerSec::gbps(50.0),
        );
    }
    b.build().expect("valid machine")
}

/// The deterministic phase policy of `wrm_bench::generated_scenario`:
/// every task has an overhead phase; every fourth also moves data over
/// one of `channels` channels (round-robin), every eighth under a
/// 5 GB/s stream cap.
pub fn scenario(name: &str, tasks: &[GeneratedTask], channels: usize) -> Scenario {
    let mut wf = WorkflowSpec::new(name);
    for (i, gt) in tasks.iter().enumerate() {
        let mut t = TaskSpec::new(&gt.name, gt.nodes).phase(Phase::overhead("work", gt.duration));
        if i % 4 == 0 {
            t = t.phase(Phase::SystemData {
                resource: format!("ch{}", i % channels),
                bytes: (1.0 + gt.duration) * 2e9,
                stream_cap: if i % 8 == 0 { Some(5e9) } else { None },
            });
        }
        for &d in &gt.deps {
            t = t.after(&tasks[d].name);
        }
        wf = wf.task(t);
    }
    Scenario::new(machine("bench-gen", channels), wf)
}

/// The distributional phase policy of `wrm_bench::mc_scenario`: every
/// duration drawn from a uniform / lognormal / triangular / empirical
/// distribution (round-robin), and every 64th task streaming a uniformly
/// distributed volume over the one channel `ch0` under a 5 GB/s cap.
pub fn mc_scenario(name: &str, tasks: &[GeneratedTask]) -> Scenario {
    let mut wf = WorkflowSpec::new(name);
    for (i, gt) in tasks.iter().enumerate() {
        let d = gt.duration;
        let dist = match i % 4 {
            0 => Dist::Uniform {
                lo: 0.8 * d,
                hi: 1.2 * d,
            },
            1 => Dist::LogNormal {
                median: d,
                sigma: 0.25,
            },
            2 => Dist::Triangular {
                lo: 0.7 * d,
                mode: d,
                hi: 1.6 * d,
            },
            _ => Dist::Empirical {
                samples: vec![(0.9 * d, 1.0), (d, 2.0), (1.3 * d, 1.0)],
            },
        };
        let mut t = TaskSpec::new(&gt.name, gt.nodes)
            .phase(Phase::overhead("work", d))
            .dist(0, dist);
        if i % 64 == 0 {
            let bytes = (1.0 + d) * 2e9;
            t = t
                .phase(Phase::SystemData {
                    resource: "ch0".into(),
                    bytes,
                    stream_cap: Some(5e9),
                })
                .dist(
                    1,
                    Dist::Uniform {
                        lo: 0.8 * bytes,
                        hi: 1.2 * bytes,
                    },
                );
        }
        for &dep in &gt.deps {
            t = t.after(&tasks[dep].name);
        }
        wf = wf.task(t);
    }
    Scenario::new(machine("bench-mc", 1), wf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_fixed_sizes_and_seeded_contents() {
        assert_eq!(layered(1, 3, 5).len(), 15);
        assert_eq!(fork_join(1, 3, 5).len(), 21);
        let p = pipeline(1, 2, 2, 6);
        assert_eq!(p.len(), 24);
        // The first fork waits for the whole last layer.
        assert_eq!(p[12].name, "fork[0]");
        assert_eq!(p[12].deps, (6..12).collect::<Vec<_>>());
        assert_eq!(pipeline(7, 2, 2, 6), pipeline(7, 2, 2, 6));
        assert_ne!(pipeline(7, 2, 2, 6), pipeline(8, 2, 2, 6));
        for (i, t) in p.iter().enumerate() {
            assert!(t.deps.iter().all(|&d| d < i), "topological order");
            assert!((1..=MAX_NODES).contains(&t.nodes));
        }
    }

    #[test]
    fn scenarios_simulate_and_emit() {
        let tasks = pipeline(3, 3, 3, 40);
        let s = scenario("p", &tasks, 4);
        let full = wrm_sim::simulate(&s).unwrap();
        assert_eq!(full.task_times.len(), tasks.len());
        let m = mc_scenario("m", &tasks);
        assert!(m.workflow.tasks.iter().all(|t| !t.dists.is_empty()));
        let src = crate::emit::to_wrm(&s).unwrap();
        assert_eq!(wrm_lint::lint_source(&src), Vec::new());
    }
}
