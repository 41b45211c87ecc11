//! `WorkflowSpec::validate` reports the first error in its documented
//! precedence, checked against an oracle written from that precedence
//! alone, on random layered specs with one or two planted faults:
//!
//! 1. a duplicate task name;
//! 2. then, task by task: zero nodes, an invalid phase, an invalid
//!    distribution, an unknown dependency;
//! 3. then a self-dependency or cycle, as `to_dag_with` names it.
//!
//! `WorkflowSpec::max_width` fails exactly as `validate` does and
//! otherwise equals the width of the spec's `Dag`.

use proptest::prelude::*;
use std::collections::HashSet;
use wrm_core::Dist;
use wrm_dag::DagError;
use wrm_sim::{Phase, PhaseDist, SpecError, TaskSpec, WorkflowSpec};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(s: &mut u64, n: usize) -> usize {
    (splitmix(s) % n as u64) as usize
}

/// A valid layered spec: every task in layer `l > 0` depends on one to
/// three tasks of layer `l - 1` (a repeat is possible), and some phases
/// carry a valid distribution.
fn layered_spec(s: &mut u64) -> WorkflowSpec {
    let layers = 1 + pick(s, 4);
    let mut wf = WorkflowSpec::new("layered");
    let mut prev: Vec<String> = Vec::new();
    for l in 0..layers {
        let width = 1 + pick(s, 4);
        let mut this = Vec::with_capacity(width);
        for j in 0..width {
            let name = format!("L{l}_{j}");
            let mut t = TaskSpec::new(name.clone(), 1 + pick(s, 8) as u64);
            for _ in 0..pick(s, 4) {
                t = t.phase(match pick(s, 4) {
                    0 => Phase::compute(1e12),
                    1 => Phase::node_data(wrm_core::ids::DRAM, 1e9),
                    2 => Phase::system_data(wrm_core::ids::EXTERNAL, 1e9),
                    _ => Phase::overhead("o", 2.0),
                });
            }
            if !t.phases.is_empty() && pick(s, 3) == 0 {
                let phase = pick(s, t.phases.len()) as u32;
                t = t.dist(phase, Dist::Uniform { lo: 1.0, hi: 3.0 });
            }
            if !prev.is_empty() {
                for _ in 0..1 + pick(s, 3) {
                    t = t.after(prev[pick(s, prev.len())].clone());
                }
            }
            this.push(name);
            wf = wf.task(t);
        }
        prev = this;
    }
    wf
}

/// Plants one fault of kind `kind` (0..7) in task `j`.
fn plant(wf: &mut WorkflowSpec, kind: u8, j: usize, s: &mut u64) {
    let n = wf.tasks.len();
    match kind {
        // Duplicate name.
        0 => {
            let k = pick(s, n);
            wf.tasks[j].name = wf.tasks[k].name.clone();
        }
        // Unknown dependency.
        1 => wf.tasks[j].after.push(format!("ghost{}", pick(s, 3))),
        // Self-dependency.
        2 => {
            let own = wf.tasks[j].name.clone();
            wf.tasks[j].after.push(own);
        }
        // Back edge: walk up from task j along first dependencies and
        // make the ancestor reached depend on j (a self-dependency when
        // j has none).
        3 => {
            let mut a = j;
            for _ in 0..pick(s, 4) {
                let Some(dep) = wf.tasks[a].after.first() else {
                    break;
                };
                match wf.tasks.iter().position(|t| &t.name == dep) {
                    Some(p) => a = p,
                    None => break,
                }
            }
            let name = wf.tasks[j].name.clone();
            wf.tasks[a].after.push(name);
        }
        // Zero nodes.
        4 => wf.tasks[j].nodes = 0,
        // A bad phase quantity, at a random position.
        5 => {
            let bad = match pick(s, 5) {
                0 => Phase::compute(f64::NAN),
                1 => Phase::Compute {
                    flops: 1e9,
                    efficiency: 1.5,
                },
                2 => Phase::node_data(wrm_core::ids::DRAM, -1.0),
                3 => Phase::SystemData {
                    resource: wrm_core::ids::EXTERNAL.into(),
                    bytes: 1e9,
                    stream_cap: Some(0.0),
                },
                _ => Phase::overhead("o", f64::INFINITY),
            };
            let at = pick(s, wf.tasks[j].phases.len() + 1);
            wf.tasks[j].phases.insert(at, bad);
        }
        // An out-of-range or invalid distribution.
        _ => {
            let t = &mut wf.tasks[j];
            let pd = if t.phases.is_empty() || pick(s, 2) == 0 {
                PhaseDist {
                    phase: (t.phases.len() + pick(s, 2)) as u32,
                    dist: Dist::Point { value: 1.0 },
                }
            } else {
                PhaseDist {
                    phase: pick(s, t.phases.len()) as u32,
                    dist: Dist::LogNormal {
                        median: 1.0,
                        sigma: -1.0,
                    },
                }
            };
            t.dists.push(pd);
        }
    }
}

/// The documented precedence, written out independently of
/// `validate`'s implementation.
fn oracle(wf: &WorkflowSpec) -> Result<(), SpecError> {
    let mut names = HashSet::new();
    for t in &wf.tasks {
        if !names.insert(t.name.as_str()) {
            return Err(SpecError::Dag(DagError::DuplicateName(t.name.clone())));
        }
    }
    for t in &wf.tasks {
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
            if !names.contains(dep.as_str()) {
                return Err(SpecError::UnknownDependency {
                    task: t.name.clone(),
                    dependency: dep.clone(),
                });
            }
        }
    }
    wf.to_dag_with(|_| 0.0).map(drop)
}

proptest! {
    /// Every single fault and every ordered pair of faults, planted in
    /// one task or in two random ones.
    #[test]
    fn validation_keeps_its_first_error(seed in any::<u64>(), same_task in any::<bool>()) {
        let mut s = seed;
        let valid = layered_spec(&mut s);
        prop_assert_eq!(valid.validate(), Ok(()));
        let n = valid.tasks.len();
        let pairs = (0..7u8).flat_map(|a| (0..8u8).map(move |b| (a, b)));
        for (first, second) in pairs {
            let mut wf = valid.clone();
            let j = pick(&mut s, n);
            plant(&mut wf, first, j, &mut s);
            // Kind 7 stands for "no second fault".
            if second < 7 {
                let k = if same_task { j } else { pick(&mut s, n) };
                plant(&mut wf, second, k, &mut s);
            }
            let (got, want) = (wf.validate(), oracle(&wf));
            prop_assert!(got == want, "validate {:?} != oracle {:?} on {:?}", got, want, wf);
        }
    }

    /// On a valid spec or one with a planted fault (kind 7: none), the
    /// width pass returns `validate`'s error or the `Dag`'s width.
    #[test]
    fn max_width_is_the_dag_width_of_a_valid_spec(seed in any::<u64>(), kind in 0..8u8) {
        let mut s = seed;
        let mut wf = layered_spec(&mut s);
        if kind < 7 {
            let j = pick(&mut s, wf.tasks.len());
            plant(&mut wf, kind, j, &mut s);
        }
        let want = wf
            .validate()
            .and_then(|()| Ok(wf.to_dag_with(|_| 0.0)?.max_width()?));
        prop_assert_eq!(wf.max_width(), want);
    }
}

/// Each fault kind alone produces the error kind it plants, and back
/// edges produce cycles longer than one task.
#[test]
fn each_fault_is_caught() {
    let mut cycles = 0;
    for kind in 0..7u8 {
        for seed in 0..64 {
            let mut s = seed;
            let mut wf = layered_spec(&mut s);
            let j = pick(&mut s, wf.tasks.len());
            plant(&mut wf, kind, j, &mut s);
            let got = wf.validate();
            assert_eq!(got, oracle(&wf), "kind {kind} seed {seed}");
            let caught = match &got {
                Err(SpecError::Dag(DagError::DuplicateName(_))) => 0,
                Err(SpecError::UnknownDependency { .. }) => 1,
                Err(SpecError::Dag(DagError::SelfDependency(_))) => 2,
                Err(SpecError::Dag(DagError::Cycle(_))) => 3,
                Err(SpecError::Invalid(m)) if m.contains("zero nodes") => 4,
                Err(SpecError::Invalid(m)) if m.contains("distribution") => 6,
                Err(SpecError::Invalid(_)) => 5,
                // A duplicate of the task's own name is no fault.
                Ok(()) if kind == 0 => 0,
                other => panic!("kind {kind} seed {seed}: {other:?}"),
            };
            // A back edge from a task without dependencies is a
            // self-dependency.
            assert!(
                caught == kind || (kind == 3 && caught == 2),
                "kind {kind} seed {seed}: {got:?}"
            );
            cycles += usize::from(caught == 3);
        }
    }
    assert!(cycles > 0, "no planted back edge formed a cycle");
}
