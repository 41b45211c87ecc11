//! Designing a new workflow with the model: describe it in the workflow
//! language, simulate, classify, and explore the design space before
//! ever touching a real machine.
//!
//! ```text
//! cargo run --example design_space
//! ```
//!
//! The scenario: a genomics-style ensemble — 16 assembly tasks feeding a
//! cross-comparison step — being sized for Perlmutter GPU. How many
//! nodes per task? Is the file system going to bind? Does it meet a
//! 30-minute deadline?

use workflow_roofline::core::analysis::{classify_bound, BoundKind};
use workflow_roofline::prelude::*;

fn source(nodes_per_task: u64) -> String {
    format!(
        r#"
workflow assembly_ensemble on pm-gpu {{
  targets {{ makespan 30min  throughput 17 per 1800s }}
  task assemble[16] {{
    nodes {nodes_per_task}
    system_bytes fs 3TB
    compute 250PFLOPS eff 0.35
    node_bytes hbm 40TB
    system_bytes fs 500GB
  }}
  task compare {{
    nodes 4
    system_bytes fs 8TB
    compute 5PFLOPS eff 0.5
    after assemble
  }}
}}
"#
    )
}

fn main() {
    println!("== Sizing an assembly ensemble on PM-GPU ==\n");
    println!(
        "{:>6} {:>6} {:>14} {:>12} {:>10} {:>18}",
        "nodes", "wall", "makespan (s)", "tasks/s", "deadline", "binding"
    );

    let mut best: Option<(u64, f64)> = None;
    for nodes in [16u64, 32, 64, 128, 256] {
        let compiled = compile_source(&source(nodes)).expect("valid program");
        let machine = compiled.machine.clone().expect("names a machine");
        let run =
            simulate(&Scenario::new(machine.clone(), compiled.spec.clone())).expect("simulates");

        let mut wf = compiled.characterization().expect("valid");
        wf.makespan = Some(Seconds(run.makespan));
        let model = RooflineModel::build(&machine, &wf).expect("valid");
        let bound = classify_bound(&model);
        let binding = match &bound.bound {
            BoundKind::Node { resource } => format!("node:{resource}"),
            BoundKind::System { resource } => format!("system:{resource}"),
            BoundKind::Parallelism => "parallelism".to_owned(),
            BoundKind::Unbounded => "-".to_owned(),
        };
        let meets = run.makespan <= 1800.0;
        println!(
            "{nodes:>6} {:>6} {:>14.0} {:>12.5} {:>10} {:>18}",
            model.parallelism_wall,
            run.makespan,
            wf.throughput().expect("measured").get(),
            if meets { "yes" } else { "NO" },
            binding
        );
        if meets && best.is_none_or(|(_, m)| run.makespan < m) {
            best = Some((nodes, run.makespan));
        }
    }

    match best {
        Some((nodes, makespan)) => {
            println!(
                "\npick {nodes} nodes/task: meets the 30-minute deadline at {makespan:.0} s \
                 with the most throughput headroom"
            );
        }
        None => println!("\nno configuration meets the deadline -- revisit the pipeline"),
    }

    // Zoom into the chosen configuration: full report + figure.
    let nodes = best.map_or(64, |(n, _)| n);
    let compiled = compile_source(&source(nodes)).expect("valid program");
    let machine = compiled.machine.clone().expect("names a machine");
    let run = simulate(&Scenario::new(machine.clone(), compiled.spec.clone())).expect("simulates");
    let mut wf = compiled.characterization().expect("valid");
    wf.makespan = Some(Seconds(run.makespan));
    let model = RooflineModel::build(&machine, &wf).expect("valid");

    println!("\ntime breakdown at {nodes} nodes/task:");
    for (cat, secs) in &run.to_trace().breakdown().categories {
        println!("  {cat:<16} {secs:>10.1} s");
    }
    println!(
        "\n{}",
        workflow_roofline::plot::ascii::roofline(&model, 84, 22)
    );

    let svg = RooflinePlot::new(format!("assembly ensemble @ {nodes} nodes/task"))
        .model(&model)
        .render_svg()
        .expect("has model");
    std::fs::write("design_space.svg", svg).expect("writable cwd");
    println!("wrote design_space.svg");
}
