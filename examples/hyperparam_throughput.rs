//! Throughput-sensitive analysis: the CosmoFlow hyperparameter-tuning
//! proxy (paper §IV-C3) swept over instance counts, in parallel.
//!
//! ```text
//! cargo run --example hyperparam_throughput
//! ```
//!
//! Reproduces the Fig. 8 series — aggregate epochs/s grows linearly with
//! concurrent training instances until the 12-instance parallelism wall
//! — and shows the intra-task-parallelism trade-off of Fig. 2c.

use workflow_roofline::core::analysis::scale_intra_task_parallelism;
use workflow_roofline::prelude::*;
use workflow_roofline::sim::run_all;
use workflow_roofline::workflows::CosmoFlow;

fn main() {
    // Sweep 1..=12 concurrent instances across worker threads.
    let instance_counts: Vec<usize> = (1..=12).collect();
    let scenarios: Vec<_> = instance_counts
        .iter()
        .map(|&n| {
            let mut cf = CosmoFlow::throughput_benchmark(n);
            cf.epochs_per_instance = 5; // shorter runs, identical rates
            cf.scenario()
        })
        .collect();
    let results = run_all(&scenarios, 4);

    println!("== CosmoFlow throughput sweep (128 PM-GPU nodes per instance) ==");
    println!("{:>10} {:>14} {:>12}", "instances", "epochs/s", "linearity");
    let mut single = 0.0;
    for (n, result) in instance_counts.iter().zip(&results) {
        let result = result.as_ref().expect("simulates");
        let cf = CosmoFlow::throughput_benchmark(*n);
        let epochs = (*n * 5) as f64;
        let tps = epochs / result.makespan;
        if *n == 1 {
            single = tps;
        }
        println!(
            "{n:>10} {tps:>14.4} {:>11.0}%",
            tps / (single * *n as f64) * 100.0
        );
        let _ = cf;
    }

    // The model view at full width: which ceiling binds?
    let cf = CosmoFlow::throughput_benchmark(12);
    let model =
        RooflineModel::build(&machines::perlmutter_gpu(), &cf.characterization()).expect("valid");
    println!(
        "\nper-epoch ceilings: PCIe {:.2} s, HBM {:.2} s (paper: 0.8 s / 4.2 s)",
        cf.pcie_time().get(),
        cf.hbm_time().get()
    );
    println!(
        "binding node ceiling: {} (paper: HBM is ultimately the limitation)",
        model.node_ceilings()[0].resource
    );
    println!("regular GPU pool 1536 nodes / 128 per instance = 12-instance wall");

    // Fig. 2c: what if each instance used 256 nodes instead?
    let wider =
        scale_intra_task_parallelism(&cf.characterization(), 2.0, 0.85).expect("valid transform");
    let wide_model = RooflineModel::build(&machines::perlmutter_gpu(), &wider).expect("valid");
    println!(
        "\n2x intra-task parallelism at 85% scalability: wall {} -> {}, HBM ceiling at x=6: \
         {:.3} -> {:.3} epochs/s",
        model.parallelism_wall,
        wide_model.parallelism_wall,
        model.node_ceilings()[0].tps_at(6.0).get(),
        wide_model.node_ceilings()[0].tps_at(6.0).get(),
    );
    println!("(easier makespan targets, harder throughput targets -- Fig. 2c)");
}
