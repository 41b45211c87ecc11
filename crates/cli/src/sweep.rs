//! `wrm sweep` — parameter sweeps over a workflow scenario.
//!
//! Builds the cartesian grid of contention factor x node limit x
//! scheduler policy over the workflow under `--contention` and
//! simulates every cell on the incremental sweep engine
//! (`wrm_sim::sweep_grid_points`) — one shared base index,
//! checkpoint/replay along the factor axis and one run per distinct
//! column, each cell keeping only its row — printing one row per cell
//! as JSON, JSON lines, or CSV. Every
//! row is bit-identical to per-point simulation, which the
//! `sweep_matches_per_point_simulation` CLI test checks end to end.
//! Scenario errors land in the row's `error` column instead of aborting
//! the whole sweep.
//!
//! The query, its grid and its rows come from `wrm_serve::query` — the
//! layer the server answers `POST /v1/sweep` with — so output rows are
//! always in canonical coordinate order and the bytes are identical
//! regardless of `--threads`, input axis order, or which front end
//! produced them.

use wrm_serve::query::Query;
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
    let query = Query::from_flags("sweep", &flags.query)?;
    let workflow = base_scenario(&flags)?;
    let base = query.scenario(&workflow)?;
    let (grid, mut rows) = query.sweep(&base)?;
    let threads = flags.query.mc.threads;
    let wrm_sim::SweepOutcome {
        results,
        stats,
        runs,
    } = wrm_sim::sweep_grid_points(&base, &grid, threads);
    let mut output = rows.feed(results.into_iter().enumerate())?;
    output.push_str(&rows.finish()?);

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
        // The engine parallelizes over runs, one per distinct
        // (node, policy) column, replaying the factor axis within each.
        let workers = wrm_sim::effective_workers(threads, runs);
        let rows = match &flags.out {
            Some(path) => format!("wrote {} sweep row(s) to {path}", grid.len()),
            None => format!("swept {} row(s)", grid.len()),
        };
        eprintln!(
            "{rows} ({workers} thread(s); incremental: {} replayed, {} cold, {} reused, \
             {} shared, {} error(s))",
            stats.replayed, stats.cold, stats.reused, stats.shared, stats.errors
        );
    }
    Ok(())
}
