//! Grid-level oracle tests: the incremental sweep engine
//! (`wrm_sim::sweep_grid` — shared base index + overlays,
//! checkpoint/replay) reproduces per-point simulation *and* the
//! reference engine bit for bit, span order included, on all four paper
//! workflows.

use wrm_core::{ids, machines};
use wrm_sim::reference::simulate_reference;
use wrm_sim::{simulate, sweep_grid, Scenario, SchedulerPolicy, SweepGrid};
use wrm_workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// Runs the grid incrementally and checks every point against cold
/// `simulate` and `simulate_reference`.
fn assert_grid_oracle(scenario: &Scenario, grid: &SweepGrid, label: &str) {
    let outcome = sweep_grid(scenario, grid, 2);
    assert_eq!(outcome.results.len(), grid.len(), "{label}");
    for fi in 0..grid.factors.len() {
        for ni in 0..grid.node_limits.len() {
            for pi in 0..grid.policies.len() {
                let ix = grid.index_of(fi, ni, pi);
                let point = scenario.clone().with_options(grid.point_options(
                    &scenario.options,
                    fi,
                    ni,
                    pi,
                ));
                let got = &outcome.results[ix];
                assert_eq!(
                    got,
                    &simulate(&point),
                    "{label} point {ix} vs cold simulate"
                );
                assert_eq!(
                    got,
                    &simulate_reference(&point),
                    "{label} point {ix} vs reference"
                );
            }
        }
    }
}

#[test]
fn lcls_grid_matches_cold_and_reference() {
    // LCLS's swept knob is the external link — the paper's bad days.
    let scenario = Lcls::year_2020_on_cori().scenario(machines::cori_haswell(), Day::Good);
    let grid = SweepGrid {
        resource: Some(ids::EXTERNAL.into()),
        factors: vec![0.2, 0.5, 1.0],
        node_limits: vec![None, Some(96)],
        policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
    };
    assert_grid_oracle(&scenario, &grid, "LCLS");
}

#[test]
fn bgw_grid_matches_cold_and_reference() {
    let scenario = Bgw::si998_64().scenario();
    let grid = SweepGrid {
        resource: Some(ids::FILE_SYSTEM.into()),
        factors: vec![0.25, 1.0, 1.5],
        node_limits: vec![None, Some(128)],
        policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
    };
    assert_grid_oracle(&scenario, &grid, "BerkeleyGW");
}

#[test]
fn cosmoflow_grid_matches_cold_and_reference() {
    let scenario = CosmoFlow::default().scenario();
    let grid = SweepGrid {
        resource: Some(ids::FILE_SYSTEM.into()),
        factors: vec![0.5, 1.0],
        node_limits: vec![None, Some(64)],
        policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
    };
    assert_grid_oracle(&scenario, &grid, "CosmoFlow");
}

#[test]
fn gptune_grids_match_cold_and_reference() {
    for (mode, label) in [(Mode::Rci, "GPTune/RCI"), (Mode::Spawn, "GPTune/Spawn")] {
        let scenario = GpTune::default().scenario(mode);
        let grid = SweepGrid {
            resource: Some(ids::FILE_SYSTEM.into()),
            factors: vec![0.5, 1.0],
            node_limits: vec![None, Some(32)],
            policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
        };
        assert_grid_oracle(&scenario, &grid, label);
    }
}
