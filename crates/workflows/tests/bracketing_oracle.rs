//! Bracketing oracle over the paper's workflows.
//!
//! For each workflow the paper characterizes — LCLS (good and bad
//! beamtime days, both facility generations), BerkeleyGW SI-998 at 64
//! and 1024 nodes, CosmoFlow, and GPTune in all orchestration modes —
//! the certificate must bracket the discrete-event makespan:
//! `lo * (1 - 1e-6) <= makespan <= hi`, with `hi` finite. This is the
//! end-to-end check that the certified intervals printed next to the
//! paper's Table 1 numbers are actually proofs about the simulator.

use wrm_core::machines;
use wrm_sim::{certify, simulate_summary, Scenario};
use wrm_workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

fn assert_bracketed(scenario: &Scenario, what: &str) {
    let cert = certify(&scenario.machine, &scenario.workflow, &scenario.options)
        .unwrap_or_else(|e| panic!("{what}: certify: {e}"));
    let makespan = simulate_summary(scenario)
        .unwrap_or_else(|e| panic!("{what}: sim: {e}"))
        .makespan;
    assert!(cert.hi.is_finite(), "{what}: hi is not finite");
    assert!(
        cert.lo * (1.0 - 1e-6) <= makespan && makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
        "{what}: bracket {} <= {} <= {} violated",
        cert.lo,
        makespan,
        cert.hi
    );
}

#[test]
fn lcls_brackets_both_generations_and_both_days() {
    for day in [Day::Good, Day::Bad] {
        assert_bracketed(
            &Lcls::year_2020_on_cori().scenario(machines::cori_haswell(), day),
            &format!("LCLS 2020 {day:?}"),
        );
        assert_bracketed(
            &Lcls::year_2024_on_pm().scenario(machines::perlmutter_cpu(), day),
            &format!("LCLS 2024 {day:?}"),
        );
    }
}

#[test]
fn berkeleygw_brackets_both_scales() {
    assert_bracketed(&Bgw::si998_64().scenario(), "BerkeleyGW 64");
    assert_bracketed(&Bgw::si998_1024().scenario(), "BerkeleyGW 1024");
}

#[test]
fn cosmoflow_brackets() {
    assert_bracketed(&CosmoFlow::default().scenario(), "CosmoFlow");
}

#[test]
fn gptune_brackets_all_modes() {
    for mode in [Mode::Rci, Mode::Spawn, Mode::Projected] {
        assert_bracketed(
            &GpTune::default().scenario(mode),
            &format!("GPTune {mode:?}"),
        );
    }
}
