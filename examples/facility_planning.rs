//! Facility planning with the model: project one workflow across
//! machines and ask what bandwidth upgrades its targets require.
//!
//! ```text
//! cargo run --example facility_planning
//! ```
//!
//! This is the system-architect view the paper's conclusion addresses:
//! for an external-bandwidth-bound workflow, the answer to "would a 10x
//! faster machine help?" is a provable *no* — the required compute peak
//! is infinite, while a modest WAN upgrade is finite and cheap.

use workflow_roofline::core::projection::render_table;
use workflow_roofline::prelude::*;
use workflow_roofline::workflows::Lcls;

fn main() {
    // The 2020 LCLS characterization with its 10-minute target.
    let lcls = Lcls::year_2020_on_cori();
    let wf = lcls.characterization(ids::BURST_BUFFER, Some(Seconds::minutes(17.0)));

    println!("== Projection across facilities ==\n");
    let machines_all = machines::all();
    let projections = across_machines(&wf, &machines_all).expect("projects");
    print!("{}", render_table(&projections));

    println!("\n== What would each upgrade cost? ==\n");
    for machine in &machines_all {
        for resource in [ids::EXTERNAL, ids::COMPUTE] {
            match required_peak(machine, &wf, resource) {
                Ok(None) => println!("{:<18} {resource:<8} already sufficient", machine.name),
                Ok(Some(peak)) if peak.is_finite() => {
                    let current = machine
                        .system_resource(resource)
                        .map(|r| r.peak.get())
                        .or_else(|| {
                            machine
                                .node_resource(resource)
                                .map(|r| r.peak_per_node.magnitude())
                        })
                        .expect("resource exists");
                    println!(
                        "{:<18} {resource:<8} needs {:.2e} ({}x today's {:.2e})",
                        machine.name,
                        peak,
                        (peak / current).ceil(),
                        current
                    );
                }
                Ok(Some(_)) => println!(
                    "{:<18} {resource:<8} NO finite peak suffices (not the binding path)",
                    machine.name
                ),
                Err(_) => println!("{:<18} {resource:<8} not on this machine", machine.name),
            }
        }
    }

    // The paper's conclusion #1, verified: compute upgrades are useless
    // for LCLS, external bandwidth is the whole story.
    let cori = machines::cori_haswell();
    let mut with_compute = wf.clone();
    with_compute
        .node_volumes
        .insert(ids::COMPUTE.into(), Work::Flops(Flops::pflops(1.0)));
    let compute_peak = required_peak(&cori, &with_compute, ids::COMPUTE)
        .expect("resource exists")
        .expect("target declared");
    assert!(compute_peak.is_infinite());
    println!(
        "\nverified: no finite compute peak meets the LCLS target on Cori -- \
         invest in the network, not the nodes"
    );
}
