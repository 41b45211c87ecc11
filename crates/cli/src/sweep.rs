//! `wrm sweep` — parameter sweeps over a workflow scenario.
//!
//! Builds the cartesian grid of contention factor x node limit x
//! scheduler policy and simulates every cell on the incremental sweep
//! engine (`wrm_sim::sweep_grid`) — one shared base index and
//! checkpoint/replay along the factor axis — printing one row per cell as JSON, JSON lines, or
//! CSV. Every row is bit-identical to per-point simulation, which the
//! `sweep_matches_per_point_simulation` CLI test checks end to end.
//! Scenario errors land in the row's `error` column instead of aborting
//! the whole sweep.
//!
//! Grid construction and row formatting live in `wrm_serve::render` —
//! the same functions the server streams `POST /v1/sweep` responses
//! with — so output rows are always in canonical coordinate order and
//! the bytes are identical regardless of `--threads`, input axis order,
//! or which front end produced them.

use wrm_serve::render;
use wrm_sim::Scenario;

use crate::Flags;

/// Resolves the positional argument to a base scenario: a `.wrm` file
/// (compiled like `wrm simulate`) or one of the builtin paper
/// workflows.
fn base_scenario(flags: &Flags) -> Result<Scenario, String> {
    let target = flags
        .file
        .as_ref()
        .ok_or_else(|| "missing workflow argument (a .wrm file or a builtin name)".to_owned())?;
    if let Some(scenario) = wrm_serve::resolve::builtin_scenario(target) {
        return Ok(scenario);
    }
    if target.ends_with(".wrm") {
        let source =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        let resolved = wrm_serve::resolve::from_source(target, &source, flags.machine.as_deref())?;
        Ok(resolved.scenario)
    } else {
        Err(format!(
            "unknown workflow `{target}` (expected a .wrm file or one of: \
             lcls, bgw, cosmoflow, gptune-rci, gptune-spawn)"
        ))
    }
}

pub fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = crate::parse_flags(args)?;
    let base = base_scenario(&flags)?;
    let grid = render::build_grid(
        &base,
        flags.resource.clone(),
        &flags.factors,
        &flags.nodes,
        &flags.policies,
    )?;
    let cells = render::grid_cells(&grid);

    let wrm_sim::SweepOutcome { results, stats } = wrm_sim::sweep_grid(&base, &grid, flags.threads);

    let workflow = base.workflow.name.as_str();
    let machine = base.machine.name.as_str();
    let resource = grid.resource.clone().unwrap_or_default();
    let output = match flags.format.as_str() {
        "json" => {
            let rows: Vec<serde_json::Value> = cells
                .iter()
                .zip(&results)
                .map(|(cell, result)| {
                    render::sweep_row_value(workflow, machine, &resource, cell, result)
                })
                .collect();
            render::sweep_json(rows)?
        }
        "jsonl" => {
            let mut text = String::new();
            for (cell, result) in cells.iter().zip(&results) {
                let row = render::sweep_row_value(workflow, machine, &resource, cell, result);
                text.push_str(&render::sweep_row_jsonl(&row)?);
            }
            text
        }
        // "text" is parse_flags' untouched default: sweep output is
        // tabular, so plain invocations get CSV.
        "csv" | "text" => {
            let mut text = String::from(render::SWEEP_CSV_HEADER);
            for (cell, result) in cells.iter().zip(&results) {
                text.push_str(&render::sweep_row_csv(
                    workflow, machine, &resource, cell, result,
                ));
            }
            text
        }
        other => {
            return Err(format!(
                "unknown --format `{other}` (expected json, jsonl, or csv)"
            ))
        }
    };

    match &flags.out {
        Some(path) => {
            std::fs::write(path, &output).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        None => print!("{output}"),
    }

    // Path stats go to stderr so scripted callers can pipe stdout; the
    // worker count reported is the resolved one (0 = auto, explicit
    // values capped at the host core count and the job count).
    if !flags.quiet {
        // The engine parallelizes over (node, policy) columns,
        // replaying the factor axis within each.
        let columns = grid.node_limits.len() * grid.policies.len();
        let workers = wrm_sim::effective_workers(flags.threads, columns);
        let engine = format!(
            "incremental: {} replayed, {} cold, {} reused, {} error(s)",
            stats.replayed, stats.cold, stats.reused, stats.errors
        );
        match &flags.out {
            Some(path) => eprintln!(
                "wrote {} sweep row(s) to {path} ({workers} thread(s); {engine})",
                cells.len()
            ),
            None => eprintln!(
                "swept {} row(s) ({workers} thread(s); {engine})",
                cells.len()
            ),
        }
    }
    Ok(())
}
