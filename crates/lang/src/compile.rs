//! Compiler: [`WorkflowAst`] -> simulator spec + roofline
//! characterization. The planning DAG is the spec's own
//! (`WorkflowSpec::to_dag`).
//!
//! Replicated tasks (`task analyze[5]`) expand to `analyze[0]` ..
//! `analyze[4]`; `after analyze` gates on *every* replica, `after
//! analyze[2]` on one.

use crate::ast::{MachineAst, PhaseAst, TaskAst, WorkflowAst};
use crate::names::TaskNames;
use crate::parser::parse;
use crate::token::LangError;
use wrm_core::{
    machines, Bytes, BytesPerSec, Flops, FlopsPerSec, Machine, Rate, Seconds, TargetSpec,
    TasksPerSec, Work, WorkflowCharacterization,
};
use wrm_sim::{Phase, TaskSpec, WorkflowSpec};

/// A fully-compiled workflow.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The simulator input.
    pub spec: WorkflowSpec,
    /// The machine named by `on ...`, when present and known.
    pub machine: Option<Machine>,
    /// Targets.
    pub targets: TargetSpec,
    /// Total task count after replication.
    pub total_tasks: f64,
    /// Structural parallelism: the widest dependency level.
    pub parallel_tasks: f64,
    /// The largest per-task node requirement.
    pub nodes_per_task: u64,
}

impl Compiled {
    /// The plan-time characterization of this workflow on its roofline:
    /// per-slot node volumes and total system volumes, with targets
    /// attached and no measured makespan (simulate to get the dot).
    pub fn characterization(&self) -> Result<WorkflowCharacterization, LangError> {
        let mut b = WorkflowCharacterization::builder(self.spec.name.clone())
            .total_tasks(self.total_tasks)
            .parallel_tasks(self.parallel_tasks)
            .nodes_per_task(self.nodes_per_task)
            .targets(self.targets);
        let slot = self.parallel_tasks;
        let mut compute = 0.0f64;
        for t in &self.spec.tasks {
            let nodes = t.nodes.max(1) as f64;
            for p in &t.phases {
                match p {
                    Phase::Compute { flops, .. } => compute += flops / nodes,
                    Phase::NodeData {
                        resource, bytes, ..
                    } => {
                        b = b.node_volume(
                            resource.as_str(),
                            Work::Bytes(Bytes(bytes / nodes / slot)),
                        );
                    }
                    Phase::SystemData {
                        resource, bytes, ..
                    } => {
                        b = b.system_volume(resource.as_str(), Bytes(*bytes));
                    }
                    Phase::Overhead { .. } => {}
                }
            }
        }
        if compute > 0.0 {
            b = b.node_volume(wrm_core::ids::COMPUTE, Work::Flops(Flops(compute / slot)));
        }
        b.build()
            .map_err(|e| LangError::new(format!("characterization: {e}"), 0, 0))
    }
}

fn replica_name(base: &str, index: usize, count: usize) -> String {
    if count == 1 {
        base.to_owned()
    } else {
        format!("{base}[{index}]")
    }
}

/// The Monte-Carlo distribution side-table for a task: one entry per
/// phase that carries a *non-degenerate* distribution call. Point-mass
/// and absent distributions are omitted — the plain phase quantity (the
/// distribution mean) already describes them, which keeps the
/// deterministic spec (and its fingerprints) byte-identical to a file
/// written without distributions.
fn dists_of(ast: &TaskAst) -> Vec<wrm_sim::PhaseDist> {
    ast.phases
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let dist = p.dist()?.to_dist();
            if dist.as_point().is_some() {
                return None;
            }
            Some(wrm_sim::PhaseDist {
                phase: i as u32,
                dist,
            })
        })
        .collect()
}

fn phases_of(ast: &TaskAst) -> Vec<Phase> {
    ast.phases
        .iter()
        .map(|p| match p {
            PhaseAst::Compute { flops, eff, .. } => Phase::Compute {
                flops: *flops,
                efficiency: *eff,
            },
            PhaseAst::NodeBytes {
                resource,
                bytes,
                eff,
                ..
            } => Phase::NodeData {
                resource: resource.clone(),
                bytes: *bytes,
                efficiency: *eff,
            },
            PhaseAst::SystemBytes {
                resource,
                bytes,
                cap,
                ..
            } => Phase::SystemData {
                resource: resource.clone(),
                bytes: *bytes,
                stream_cap: *cap,
            },
            PhaseAst::Overhead { label, seconds, .. } => Phase::Overhead {
                label: label.clone(),
                seconds: *seconds,
            },
        })
        .collect()
}

/// The parser accepts out-of-range efficiencies and zero replica counts
/// so the linter can report them with proper codes; reject them here so
/// `compile()` never builds a nonsensical model.
fn check_values(ast: &WorkflowAst) -> Result<(), LangError> {
    for t in &ast.tasks {
        if t.count == 0 {
            return Err(LangError::new(
                "replica count must be at least 1",
                t.count_span.line,
                t.count_span.col,
            ));
        }
        for p in &t.phases {
            if let PhaseAst::Compute { eff, eff_span, .. }
            | PhaseAst::NodeBytes { eff, eff_span, .. } = p
            {
                if !(*eff > 0.0 && *eff <= 1.0) {
                    return Err(LangError::new(
                        format!("eff must be in (0, 1], got {eff}"),
                        eff_span.line,
                        eff_span.col,
                    ));
                }
            }
            if let Some(d) = p.dist() {
                if let Err(reason) = d.to_dist().validate() {
                    let span = d.span();
                    return Err(LangError::new(
                        format!("invalid distribution: {reason}"),
                        span.line,
                        span.col,
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The machine a `machine` declaration describes.
pub fn build_machine(ast: &MachineAst) -> Result<Machine, LangError> {
    let mut b = Machine::builder(ast.name.clone(), ast.nodes);
    for (id, peak, is_flops) in &ast.node_resources {
        let rate = if *is_flops {
            Rate::FlopsPerSec(FlopsPerSec(*peak))
        } else {
            Rate::BytesPerSec(BytesPerSec(*peak))
        };
        b = b.node(id.as_str(), id.clone(), rate);
    }
    for (id, peak, per_node) in &ast.system_resources {
        if *per_node {
            b = b.system_per_node(id.as_str(), id.clone(), BytesPerSec(*peak));
        } else {
            b = b.system(id.as_str(), id.clone(), BytesPerSec(*peak));
        }
    }
    b.build()
        .map_err(|e| LangError::new(format!("machine `{}`: {e}", ast.name), 0, 0))
}

/// Compiles a parsed AST.
pub fn compile(ast: &WorkflowAst) -> Result<Compiled, LangError> {
    compile_with(ast, &TaskNames::new(ast))
}

/// [`compile`] with `ast`'s task names already resolved, for a caller
/// that built the table for its own checks.
pub fn compile_with(ast: &WorkflowAst, names: &TaskNames) -> Result<Compiled, LangError> {
    check_values(ast)?;
    if let Some(&dup) = names.duplicates().first() {
        let t = &ast.tasks[dup];
        return Err(LangError::new(
            format!("task `{}` is declared twice", t.name),
            t.span.line,
            t.span.col,
        ));
    }

    let mut spec = WorkflowSpec::new(ast.name.clone());
    for (ti, t) in ast.tasks.iter().enumerate() {
        for i in 0..t.count {
            let mut task = TaskSpec::new(replica_name(&t.name, i, t.count), t.nodes.max(1));
            task.phases = phases_of(t);
            task.dists = dists_of(t);
            if t.chain && i > 0 {
                task = task.after(replica_name(&t.name, i - 1, t.count));
            }
            for (dep, to) in t.after.iter().zip(names.after(ti)) {
                let Some(dep_count) = to.map(|to| ast.tasks[to].count) else {
                    return Err(LangError::new(
                        format!("task `{}` depends on unknown task `{}`", t.name, dep.name),
                        dep.span.line,
                        dep.span.col,
                    ));
                };
                match dep.index {
                    Some(idx) => {
                        if idx >= dep_count {
                            return Err(LangError::new(
                                format!(
                                    "task `{}` references `{}[{idx}]` but only {dep_count} \
                                     replicas exist",
                                    t.name, dep.name
                                ),
                                dep.span.line,
                                dep.span.col,
                            ));
                        }
                        task = task.after(replica_name(&dep.name, idx, dep_count));
                    }
                    None => {
                        for j in 0..dep_count {
                            task = task.after(replica_name(&dep.name, j, dep_count));
                        }
                    }
                }
            }
            spec = spec.task(task);
        }
    }

    // Structure: width of the widest level, from a validated spec.
    let parallel =
        spec.max_width()
            .map_err(|e| LangError::new(format!("invalid workflow: {e}"), 0, 0))? as f64;

    // Custom machines declared in the file shadow the presets.
    let machine = match &ast.machine {
        Some(name) => {
            let custom = ast.machines.iter().find(|m| &m.name == name);
            Some(match custom {
                Some(m) => build_machine(m)?,
                None => machines::by_name(name).ok_or_else(|| {
                    LangError::new(
                        format!(
                            "unknown machine `{name}` (known presets: pm-gpu, pm-cpu, \
                             cori-hsw; or declare `machine {name} {{ ... }}`)"
                        ),
                        ast.machine_span.line,
                        ast.machine_span.col,
                    )
                })?,
            })
        }
        None => None,
    };

    let targets = TargetSpec {
        makespan: ast.targets.makespan.map(Seconds),
        throughput: ast.targets.throughput.map(TasksPerSec),
    };

    let nodes_per_task = spec.tasks.iter().map(|t| t.nodes).max().unwrap_or(1);
    let total_tasks = spec.tasks.len().max(1) as f64;

    Ok(Compiled {
        spec,
        machine,
        targets,
        total_tasks,
        parallel_tasks: parallel.max(1.0),
        nodes_per_task,
    })
}

/// Parses and compiles in one step.
pub fn compile_source(source: &str) -> Result<Compiled, LangError> {
    compile(&parse(source)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_core::ids;
    use wrm_sim::{simulate, Scenario};

    const LCLS: &str = r#"
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
  }
  task merge { nodes 1 system_bytes bb 5GB after analyze }
}
"#;

    #[test]
    fn compiles_and_simulates_lcls() {
        let c = compile_source(LCLS).unwrap();
        assert_eq!(c.total_tasks, 6.0);
        assert_eq!(c.parallel_tasks, 5.0);
        assert_eq!(c.nodes_per_task, 32);
        assert_eq!(c.spec.tasks.len(), 6);
        let machine = c.machine.clone().unwrap();
        assert_eq!(machine.name, "Cori Haswell");
        let r = simulate(&Scenario::new(machine, c.spec.clone())).unwrap();
        assert!(
            (r.makespan - 1000.0).abs() < 20.0,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn replica_dependencies_expand() {
        let c = compile_source(LCLS).unwrap();
        let merge = c.spec.tasks.iter().find(|t| t.name == "merge").unwrap();
        assert_eq!(merge.after.len(), 5);
        assert!(merge.after.contains(&"analyze[4]".to_owned()));
    }

    #[test]
    fn characterization_matches_manual() {
        let c = compile_source(LCLS).unwrap();
        let wf = c.characterization().unwrap();
        assert_eq!(wf.total_tasks, 6.0);
        // External volume: 5 x 1 TB.
        assert!((wf.system_volumes[ids::EXTERNAL].get() - 5e12).abs() < 1.0);
        // DRAM per node per slot: 1024 GB / 32 nodes = 32 GB.
        assert!((wf.node_volumes[ids::DRAM].magnitude() - 32e9).abs() < 1.0);
        assert_eq!(wf.targets.makespan, Some(Seconds(600.0)));
        // Model builds against the named machine.
        let model = wrm_core::RooflineModel::build(&c.machine.unwrap(), &wf).unwrap();
        assert_eq!(model.parallelism_wall, 74);
    }

    #[test]
    fn single_replica_keeps_bare_name() {
        let c = compile_source("workflow w { task solo { nodes 2 } }").unwrap();
        assert_eq!(c.spec.tasks[0].name, "solo");
    }

    #[test]
    fn indexed_dependency() {
        let c = compile_source("workflow w { task a[3] { } task b { after a[2] } }").unwrap();
        let b = c.spec.tasks.iter().find(|t| t.name == "b").unwrap();
        assert_eq!(b.after, vec!["a[2]".to_owned()]);
    }

    #[test]
    fn compile_errors() {
        let e = compile_source("workflow w { task b { after ghost } }").unwrap_err();
        assert!(e.message.contains("unknown task `ghost`"), "{e}");
        let e = compile_source("workflow w { task a[2] { } task b { after a[5] } }").unwrap_err();
        assert!(e.message.contains("only 2 replicas"), "{e}");
        let e = compile_source("workflow w { task a { } task a { } }").unwrap_err();
        assert!(e.message.contains("declared twice"), "{e}");
        let e = compile_source("workflow w on summit { task a { } }").unwrap_err();
        assert!(e.message.contains("unknown machine"), "{e}");
        let e = compile_source("workflow w { task a { after b } task b { after a } }").unwrap_err();
        assert!(e.message.contains("invalid workflow"), "{e}");
        // Backstop guards for values the parser lets through for the
        // linter's benefit.
        let e = compile_source("workflow w { task a[0] { } }").unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
        let e = compile_source("workflow w { task a { compute 1GFLOP eff 2 } }").unwrap_err();
        assert!(e.message.contains("eff must be"), "{e}");
    }

    #[test]
    fn compile_errors_carry_spans() {
        let e = compile_source("workflow w {\n  task b {\n    after ghost\n  }\n}").unwrap_err();
        assert_eq!((e.line, e.col), (3, 11));
        let e = compile_source("workflow w on summit {\n  task a { }\n}").unwrap_err();
        assert_eq!((e.line, e.col), (1, 15));
    }

    #[test]
    fn distributions_lower_into_the_spec_side_table() {
        let c = compile_source(
            "workflow w on pm-cpu { task a[2] { nodes 1 \
             overhead setup uniform(4s, 6s) \
             compute 1GFLOPS \
             overhead run lognormal(100s, 0.3) } }",
        )
        .unwrap();
        // Every replica carries the same side-table; only the two
        // distribution-bearing phases appear, keyed by phase index.
        for t in &c.spec.tasks {
            assert_eq!(t.dists.len(), 2);
            assert_eq!(t.dists[0].phase, 0);
            assert_eq!(
                t.dists[0].dist,
                wrm_core::Dist::Uniform { lo: 4.0, hi: 6.0 }
            );
            assert_eq!(t.dists[1].phase, 2);
        }
        // The nominal spec is deterministic: phase 0 carries the mean.
        match &c.spec.tasks[0].phases[0] {
            Phase::Overhead { seconds, .. } => assert_eq!(*seconds, 5.0),
            other => panic!("expected overhead, got {other:?}"),
        }
        // A point-mass distribution is dropped from the side-table.
        let c = compile_source("workflow w { task a { overhead s uniform(5s, 5s) } }").unwrap();
        assert!(c.spec.tasks[0].dists.is_empty());
    }

    #[test]
    fn invalid_distributions_are_rejected_with_spans() {
        let e = compile_source("workflow w { task a {\n  compute lognormal(1PFLOPS, -0.5)\n} }")
            .unwrap_err();
        assert!(e.message.contains("invalid distribution"), "{e}");
        assert!(e.message.contains("sigma"), "{e}");
        assert_eq!(e.line, 2);
        let e = compile_source("workflow w { task a { node_bytes hbm empirical() } }").unwrap_err();
        assert!(e.message.contains("invalid distribution"), "{e}");
    }

    #[test]
    fn compute_phases_aggregate_into_characterization() {
        let c = compile_source(
            "workflow bgw on pm-gpu { \
             task e { nodes 64 compute 1164PFLOPS } \
             task s { nodes 64 compute 3226PFLOPS after e } }",
        )
        .unwrap();
        let wf = c.characterization().unwrap();
        let w = &wf.node_volumes[ids::COMPUTE];
        assert!((w.magnitude() - 4390e15 / 64.0).abs() < 1e6);
        let model = wrm_core::RooflineModel::build(&c.machine.unwrap(), &wf).unwrap();
        assert_eq!(model.parallelism_wall, 28);
    }
}

#[cfg(test)]
mod machine_tests {
    use super::*;
    use wrm_sim::{simulate, Scenario};

    const CUSTOM: &str = r#"
machine frontier-lite {
  nodes 96
  node compute 20TFLOPS
  node dram 400GB/s
  system fs 500GB/s
  system_per_node net 25GB/s
  system ext 10GB/s
}
workflow w on frontier-lite {
  task a[4] { nodes 8 compute 1PFLOPS eff 0.5 system_bytes fs 1TB }
}
"#;

    #[test]
    fn custom_machine_compiles_and_simulates() {
        let c = compile_source(CUSTOM).unwrap();
        let m = c.machine.clone().unwrap();
        assert_eq!(m.name, "frontier-lite");
        assert_eq!(m.total_nodes, 96);
        assert!(
            (m.node_resource("compute")
                .unwrap()
                .peak_per_node
                .magnitude()
                - 2e13)
                .abs()
                < 1.0
        );
        assert!((m.system_resource("fs").unwrap().peak.get() - 5e11).abs() < 1.0);
        assert_eq!(
            m.system_resource("net").unwrap().scaling,
            wrm_core::SystemScaling::PerNodeInUse
        );
        // End to end: simulate and model on the custom machine.
        let r = simulate(&Scenario::new(m.clone(), c.spec.clone())).unwrap();
        // compute: 1 PF / (8 x 20 TF x 0.5) = 12.5 s; fs: 4 TB shared at
        // 500 GB/s = 8 s overlapped across the four tasks.
        assert!((r.makespan - 20.5).abs() < 0.1, "makespan {}", r.makespan);
        let model = wrm_core::RooflineModel::build(&m, &c.characterization().unwrap()).unwrap();
        assert_eq!(model.parallelism_wall, 12);
    }

    #[test]
    fn custom_machine_shadows_presets_and_errors_are_caught() {
        // A machine that redefines a preset name is used instead.
        let src = r#"
machine pm-gpu { nodes 10 node compute 1TFLOPS }
workflow w on pm-gpu { task a { nodes 1 compute 1GFLOP } }
"#;
        let c = compile_source(src).unwrap();
        assert_eq!(c.machine.unwrap().total_nodes, 10);

        // Invalid machine bodies are rejected with context.
        let bad = "machine m { nodes 0 } workflow w on m { task a { } }";
        let e = compile_source(bad).unwrap_err();
        assert!(e.message.contains("machine `m`"), "{e}");

        let bad = "machine m { node compute 5GB } workflow w on m { task a { } }";
        let e = compile_source(bad).unwrap_err();
        assert!(e.message.contains("expected a rate"), "{e}");

        let bad = "machine m { system fs 5TFLOPS } workflow w on m { task a { } }";
        let e = compile_source(bad).unwrap_err();
        assert!(e.message.contains("bandwidths"), "{e}");

        let bad = "machine m { warp 9 } workflow w on m { task a { } }";
        let e = compile_source(bad).unwrap_err();
        assert!(e.message.contains("unknown machine statement"), "{e}");
    }

    #[test]
    fn machine_errors_read_as_one_sentence() {
        let e = compile_source("machine m {\n  bogus x 1GB/s\n}\nworkflow w on m { task a { } }")
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "2:9: unknown machine statement `bogus` (expected nodes, node, system, or \
             system_per_node)"
        );
        let e = compile_source("workflow w on summit { task a { } }").unwrap_err();
        assert_eq!(
            e.to_string(),
            "1:15: unknown machine `summit` (known presets: pm-gpu, pm-cpu, cori-hsw; or \
             declare `machine summit { ... }`)"
        );
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use wrm_sim::{simulate, Scenario};

    #[test]
    fn chained_replicas_serialize() {
        let c = compile_source(
            "workflow w on pm-cpu { task iter[5] chain { nodes 1 overhead step 10s } }",
        )
        .unwrap();
        // Structural width is 1: the chain is serial.
        assert_eq!(c.parallel_tasks, 1.0);
        assert_eq!(c.total_tasks, 5.0);
        let r = simulate(&Scenario::new(c.machine.clone().unwrap(), c.spec.clone())).unwrap();
        assert!((r.makespan - 50.0).abs() < 1e-9, "makespan {}", r.makespan);
        // Without `chain`, the bag runs in parallel.
        let c =
            compile_source("workflow w on pm-cpu { task iter[5] { nodes 1 overhead step 10s } }")
                .unwrap();
        assert_eq!(c.parallel_tasks, 5.0);
        let r = simulate(&Scenario::new(c.machine.clone().unwrap(), c.spec.clone())).unwrap();
        assert!((r.makespan - 10.0).abs() < 1e-9);
    }
}
