//! Quickstart: put one workflow on its roofline in ~30 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the paper's BerkeleyGW case study (64 nodes/task), simulates
//! it on the built-in Perlmutter GPU model, constructs the Workflow
//! Roofline, and prints the classification, the advice, and an ASCII
//! rendering of the figure.

use workflow_roofline::prelude::*;
use workflow_roofline::workflows::Bgw;

fn main() {
    // The paper's Si998 problem: Epsilon (1164 PFLOPs) then Sigma
    // (3226 PFLOPs) on the same 64-node allocation.
    let bgw = Bgw::si998_64();
    let machine = machines::perlmutter_gpu();

    // Execute on the simulator (the substitute for a real Perlmutter).
    let run = simulate(&bgw.scenario()).expect("simulation succeeds");
    println!(
        "simulated makespan: {:.1} s (paper measured 4184.86 s)",
        run.makespan
    );
    for t in &run.task_times {
        println!("  {:<8} {:>8.1} s", t.name, t.time);
    }

    // Build the Workflow Roofline from the analytical characterization.
    let model = RooflineModel::build(&machine, &bgw.characterization(true))
        .expect("characterization matches the machine");
    println!(
        "\nparallelism wall: {} tasks; binding ceiling: {}",
        model.parallelism_wall,
        model.binding_ceiling().expect("has ceilings").label
    );
    println!(
        "achieved {:.0}% of the attainable envelope (paper: 42% of node peak)",
        model.efficiency().expect("has dot") * 100.0
    );

    // Ask the advisor what to do about it.
    let advice = advise(&model);
    println!("\n{}", advice.headline);
    for rec in &advice.recommendations {
        println!("  - [{:?}] {}", rec.audience, rec.rationale);
    }

    // Draw the roofline in the terminal.
    println!(
        "\n{}",
        workflow_roofline::plot::ascii::roofline(&model, 84, 22)
    );
}
