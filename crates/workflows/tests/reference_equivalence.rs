//! Exact-match tests: the optimized engine reproduces the reference
//! engine bit for bit on the four paper workflows (LCLS, BerkeleyGW,
//! CosmoFlow, GPTune), including runs with perturbed durations and the
//! backfill scheduler.

use wrm_core::machines;
use wrm_sim::reference::simulate_reference;
use wrm_sim::{simulate, Phase, Scenario, SchedulerPolicy, WorkflowSpec};
use wrm_workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// Both engines must agree on the entire result: trace spans in order,
/// makespan, task times/starts/nodes, pool size.
fn assert_bit_identical(scenario: &Scenario, label: &str) {
    let optimized = simulate(scenario);
    let reference = simulate_reference(scenario);
    assert_eq!(optimized, reference, "engines diverge on {label}");
    let r = optimized.expect("paper workflows simulate cleanly");
    assert!(r.makespan > 0.0, "{label} has a non-trivial makespan");
}

#[test]
fn lcls_good_and_bad_day_match() {
    let lcls = Lcls::year_2020_on_cori();
    for day in [Day::Good, Day::Bad] {
        let scenario = lcls.scenario(machines::cori_haswell(), day);
        assert_bit_identical(&scenario, "LCLS on Cori");
    }
    let scenario = Lcls::year_2024_on_pm().scenario(machines::perlmutter_cpu(), Day::Good);
    assert_bit_identical(&scenario, "LCLS on PM-CPU");
}

#[test]
fn bgw_matches() {
    assert_bit_identical(&Bgw::si998_64().scenario(), "BerkeleyGW");
}

#[test]
fn cosmoflow_matches() {
    assert_bit_identical(&CosmoFlow::default().scenario(), "CosmoFlow");
}

#[test]
fn gptune_both_modes_match() {
    for mode in [Mode::Rci, Mode::Spawn] {
        assert_bit_identical(&GpTune::default().scenario(mode), "GPTune");
    }
}

/// One step of a splitmix64 stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workflow with every fixed phase's quantity (overhead seconds,
/// compute flops, node-local bytes) scaled by its own seeded factor in
/// `[0.7, 1.3]`, so replicas of one task no longer finish in lockstep.
fn perturb_durations(workflow: &WorkflowSpec, seed: u64) -> WorkflowSpec {
    let mut s = seed;
    let mut wf = workflow.clone();
    for task in &mut wf.tasks {
        for phase in &mut task.phases {
            let f = 0.7 + 0.6 * (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
            match phase {
                Phase::Overhead { seconds, .. } => *seconds *= f,
                Phase::Compute { flops, .. } => *flops *= f,
                Phase::NodeData { bytes, .. } => *bytes *= f,
                Phase::SystemData { .. } => {}
            }
        }
    }
    wf
}

#[test]
fn paper_workflows_match_under_perturbed_durations_and_backfill() {
    // The equivalence must also hold when replicas finish at uneven
    // times and under the backfill scheduler, where start order is
    // policy-dependent.
    let base = Lcls::year_2020_on_cori().scenario(machines::cori_haswell(), Day::Good);
    for seed in 0..8u64 {
        let mut scenario = base.clone();
        scenario.workflow = perturb_durations(&base.workflow, seed);
        scenario.options.scheduler = if seed % 2 == 0 {
            SchedulerPolicy::Fifo
        } else {
            SchedulerPolicy::Backfill
        };
        assert_bit_identical(&scenario, "LCLS with perturbed durations");
    }

    let mut bgw = Bgw::si998_64().scenario();
    bgw.workflow = perturb_durations(&bgw.workflow, 7);
    bgw.options.scheduler = SchedulerPolicy::Backfill;
    assert_bit_identical(&bgw, "BGW with perturbed durations + backfill");
}
