//! The incremental sweep engine: shared-index overlays and delta
//! re-simulation over a parameter grid.
//!
//! `wrm sweep` evaluates a full cross product of contention factors,
//! node limits and scheduler policies over one workflow. Running each
//! grid point through [`crate::simulate`] repeats almost all of the
//! work: the topology/duration index is identical everywhere, and
//! adjacent points differ in a single knob. [`sweep_grid`] exploits that
//! structure two ways:
//!
//! 1. **One base index per sweep.** [`BaseIndex`] (topology, the
//!    dependents CSR, durations) is built once; each point only builds
//!    a tiny `IndexOverlay` (channel capacities/factors, pool size) on
//!    top of it — bit-identical to a cold build, which `overlay::tests`
//!    proves.
//! 2. **Delta re-simulation.** Points are evaluated in *column* order —
//!    one column per `(node_limit, policy)` pair, contention factor
//!    varying innermost — so consecutive points differ only in the
//!    swept resource's factor. The column's first point watches the
//!    swept channel and pauses, in the same pass, just before the first
//!    fair-share solve after a flow joins it: until then no solve has
//!    read the channel's capacity, and its factor has only set its
//!    members' caps. Every later point of the column clones that one
//!    checkpoint, re-derives those caps for its own factor and replays
//!    only the suffix (`Engine::resume_with`). When the watched channel
//!    never joins, the run completes, the factor provably never
//!    matters, and its result is reused outright.
//!
//! Changing the *node limit* re-runs the DES cold (at most once per
//! column): a pool change can matter from the very first allocation, so
//! there is no comparable prefix to share.
//!
//! Every path runs the one DES engine, so [`SweepOutcome::results`] is
//! equal, span order included, to running [`crate::simulate`] per point
//! (and, transitively, to `wrm_sim::reference`), which the oracle
//! proptest below enforces.

use crate::engine::{
    Engine, Outcome, RunMode, Scenario, SchedulerPolicy, SimArena, SimError, SimResult,
};
use crate::index::BaseIndex;
use crate::overlay::IndexOverlay;
use crate::sweep::fan_out;

/// The cross product a sweep evaluates: `factors x node_limits x
/// policies`, applied to a base scenario.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// The shared resource the contention factors apply to (`None`
    /// leaves the base options' contention untouched, making the factor
    /// axis degenerate).
    pub resource: Option<String>,
    /// Contention factors for `resource`.
    pub factors: Vec<f64>,
    /// Node-limit values (`None` = the machine's full pool).
    pub node_limits: Vec<Option<u64>>,
    /// Scheduler policies.
    pub policies: Vec<SchedulerPolicy>,
}

impl SweepGrid {
    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.factors.len() * self.node_limits.len() * self.policies.len()
    }

    /// True when any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical result index of grid point `(fi, ni, pi)`: factor
    /// major, policy minor — the order a nested
    /// `factors / node_limits / policies` loop visits cells.
    #[must_use]
    pub fn index_of(&self, fi: usize, ni: usize, pi: usize) -> usize {
        (fi * self.node_limits.len() + ni) * self.policies.len() + pi
    }

    /// The per-point options: the base options with this point's factor,
    /// node limit and policy applied.
    #[must_use]
    pub fn point_options(
        &self,
        base: &crate::engine::SimOptions,
        fi: usize,
        ni: usize,
        pi: usize,
    ) -> crate::engine::SimOptions {
        let mut opts = base.clone();
        if let Some(res) = &self.resource {
            opts = opts.with_contention(res.clone(), self.factors[fi]);
        }
        opts.node_limit = self.node_limits[ni];
        opts.scheduler = self.policies[pi];
        opts
    }
}

/// How the points of a sweep were evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Always 0: every point runs the DES. Kept while the repo
    /// benchmark still reads it; ROADMAP item 2 removes it with its
    /// readers.
    pub fastpath: usize,
    /// Points answered by replaying a checkpointed engine's suffix.
    pub replayed: usize,
    /// Points that paid their column's factor-independent DES prefix
    /// (the first valid point of each column).
    pub cold: usize,
    /// Points that reused a cold result verbatim (the swept channel
    /// never acquired a member, so the factor provably had no effect).
    pub reused: usize,
    /// Points that failed validation (per-point error in `results`).
    pub errors: usize,
}

impl SweepStats {
    fn absorb(&mut self, other: SweepStats) {
        self.replayed += other.replayed;
        self.cold += other.cold;
        self.reused += other.reused;
        self.errors += other.errors;
    }
}

/// A completed sweep: per-point results in [`SweepGrid::index_of`]
/// order, plus evaluation-path statistics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One result per grid point, bit-identical to
    /// [`crate::simulate`] on that point's scenario.
    pub results: Vec<Result<SimResult, SimError>>,
    /// How the points were evaluated.
    pub stats: SweepStats,
}

/// How a column answers its valid points, set by the first.
enum ColumnState<'e> {
    /// The watched channel never joined: the factor cannot matter, reuse
    /// the first result.
    Reuse(Box<Result<SimResult, SimError>>),
    /// Engine checkpointed just before the first solve that reads the
    /// swept channel; replay the suffix per overlay.
    Paused(Box<Engine<'e>>),
}

/// Evaluates the full grid over `scenario`, using up to `threads` worker
/// threads (one column — a `(node_limit, policy)` pair — per work unit).
///
/// `threads == 0` means auto: one worker per available CPU, capped at
/// the column count; explicit values are also capped at the host's
/// available parallelism (see [`crate::sweep::effective_workers`]).
///
/// Results are returned in [`SweepGrid::index_of`] order regardless of
/// `threads`, and every result is bit-identical to calling
/// [`crate::simulate`] with that point's options.
#[must_use]
pub fn sweep_grid(scenario: &Scenario, grid: &SweepGrid, threads: usize) -> SweepOutcome {
    let n = grid.len();
    if n == 0 {
        return SweepOutcome {
            results: Vec::new(),
            stats: SweepStats::default(),
        };
    }

    let base = match BaseIndex::build(&scenario.machine, &scenario.workflow) {
        Ok(b) => b,
        Err(e) => {
            // The spec itself is invalid: every point fails identically,
            // exactly as per-point simulate() calls would.
            return SweepOutcome {
                results: (0..n).map(|_| Err(e.clone())).collect(),
                stats: SweepStats {
                    errors: n,
                    ..SweepStats::default()
                },
            };
        }
    };
    sweep_grid_with_base(scenario, grid, threads, &base)
}

/// [`sweep_grid`] against a prebuilt [`BaseIndex`] — the resident
/// server's sweep path, where the base comes out of the index cache
/// instead of being compiled per request. `base` must have been built
/// from this scenario's `(machine, workflow)` pair.
#[must_use]
pub fn sweep_grid_with_base(
    scenario: &Scenario,
    grid: &SweepGrid,
    threads: usize,
    base: &BaseIndex,
) -> SweepOutcome {
    let n = grid.len();
    if n == 0 {
        return SweepOutcome {
            results: Vec::new(),
            stats: SweepStats::default(),
        };
    }

    // One `(node_limit, policy)` column per job, node-limit major; the
    // cold DES runs across one worker's columns share a warm arena.
    let n_policies = grid.policies.len();
    let columns = grid.node_limits.len() * n_policies;
    let column_outputs = fan_out(columns, threads, 1, SimArena::new, |arena, c| {
        sweep_column(scenario, grid, base, c / n_policies, c % n_policies, arena)
    });
    let mut results: Vec<Option<Result<SimResult, SimError>>> = (0..n).map(|_| None).collect();
    let mut stats = SweepStats::default();
    for (out, col_stats) in column_outputs {
        stats.absorb(col_stats);
        for (i, r) in out {
            results[i] = Some(r);
        }
    }

    SweepOutcome {
        results: results
            .into_iter()
            .map(|r| r.expect("every grid point was evaluated"))
            .collect(),
        stats,
    }
}

/// One evaluated grid point: its `SweepGrid::index_of` slot and result.
pub type IndexedResult = (usize, Result<SimResult, SimError>);

/// Evaluates one `(node_limit, policy)` column across all factors: the
/// first valid point runs cold, the rest replay from its checkpoint or
/// reuse its result, the checkpoint in `arena`'s buffers. Returns
/// `(SweepGrid::index_of slot, result)` pairs plus path statistics.
///
/// Public so external schedulers (the `wrm serve` worker pool) can
/// dispatch one column per job against a shared cached [`BaseIndex`]
/// and stream results as columns complete; `base` must have been built
/// from this scenario's `(machine, workflow)` pair.
pub fn sweep_column(
    scenario: &Scenario,
    grid: &SweepGrid,
    base: &BaseIndex,
    ni: usize,
    pi: usize,
    arena: &mut SimArena,
) -> (Vec<IndexedResult>, SweepStats) {
    // Prebuilt per-point options and overlays, so the engines (and the
    // checkpoint) can borrow them for the whole column.
    let points: Vec<(crate::engine::SimOptions, Result<IndexOverlay, SimError>)> =
        (0..grid.factors.len())
            .map(|fi| {
                let opts = grid.point_options(&scenario.options, fi, ni, pi);
                let overlay = IndexOverlay::build(base, &scenario.workflow, &opts);
                (opts, overlay)
            })
            .collect();

    let watch = grid
        .resource
        .as_ref()
        .and_then(|r| base.channel_idx.get(r.as_str()).copied());

    let mut out = Vec::with_capacity(points.len());
    let mut stats = SweepStats::default();
    let mut state: Option<ColumnState> = None;

    for (fi, (opts, overlay)) in points.iter().enumerate() {
        let ix = grid.index_of(fi, ni, pi);
        let r = match overlay {
            Err(e) => {
                stats.errors += 1;
                Err(e.clone())
            }
            Ok(ov) => {
                let first = state.is_none();
                stats.cold += usize::from(first);
                match state
                    .get_or_insert_with(|| first_point(scenario, opts, base, ov, watch, arena))
                {
                    ColumnState::Paused(p) => {
                        stats.replayed += usize::from(!first);
                        p.resume_with(ov).run()
                    }
                    ColumnState::Reuse(saved) => {
                        stats.reused += usize::from(!first);
                        saved.as_ref().clone()
                    }
                }
            }
        };
        out.push((ix, r));
    }
    if let Some(ColumnState::Paused(p)) = state {
        arena.state = p.recycle();
    }
    (out, stats)
}

/// Runs a column's first valid point in `arena`'s buffers, watching the
/// swept channel: it pauses at the channel's first join (the column's
/// checkpoint, which keeps the buffers) or completes without one.
fn first_point<'e>(
    scenario: &'e Scenario,
    opts: &'e crate::engine::SimOptions,
    base: &'e BaseIndex,
    overlay: &'e IndexOverlay,
    watch: Option<u32>,
    arena: &mut SimArena,
) -> ColumnState<'e> {
    let mut eng = Engine::new_in(
        &scenario.workflow,
        &scenario.machine.name,
        opts,
        base,
        overlay,
        std::mem::take(&mut arena.state),
        RunMode::Full,
    );
    if let Some(ch) = watch {
        eng = eng.with_watch(ch);
    }
    match eng.advance() {
        Ok(Outcome::Paused) => ColumnState::Paused(Box::new(eng)),
        done => {
            let res = done.map(|_| eng.take_result());
            arena.state = eng.recycle();
            ColumnState::Reuse(Box::new(res))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{sweep_grid, SweepGrid};
    use crate::engine::{simulate, Scenario, SchedulerPolicy, SimOptions};
    use crate::reference::simulate_reference;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use proptest::prelude::*;
    use wrm_core::ids::{EXTERNAL, FILE_SYSTEM};
    use wrm_core::machines;

    /// Asserts the incremental sweep equals per-point `simulate` and the
    /// reference engine on every grid point, spans in the same order.
    fn assert_oracle(scenario: &Scenario, grid: &SweepGrid, threads: usize) {
        let outcome = sweep_grid(scenario, grid, threads);
        assert_eq!(outcome.results.len(), grid.len());
        let n_paths = outcome.stats.replayed
            + outcome.stats.cold
            + outcome.stats.reused
            + outcome.stats.errors;
        assert_eq!(n_paths, grid.len(), "stats cover every point");
        for fi in 0..grid.factors.len() {
            for ni in 0..grid.node_limits.len() {
                for pi in 0..grid.policies.len() {
                    let ix = grid.index_of(fi, ni, pi);
                    let opts = grid.point_options(&scenario.options, fi, ni, pi);
                    let point = Scenario {
                        machine: scenario.machine.clone(),
                        workflow: scenario.workflow.clone(),
                        options: opts,
                    };
                    let got = &outcome.results[ix];
                    assert_eq!(
                        got,
                        &simulate(&point),
                        "point {ix} (fi={fi} ni={ni} pi={pi}) vs simulate"
                    );
                    assert_eq!(got, &simulate_reference(&point), "point {ix} vs reference");
                }
            }
        }
    }

    /// A workflow with both contended and uncontended regions, so a
    /// factor sweep exercises the replay path and the reuse path.
    fn mixed_workflow() -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("mixed");
        for i in 0..6 {
            wf = wf.task(
                TaskSpec::new(format!("sim{i}"), 16)
                    .phase(Phase::overhead("setup", 5.0 + f64::from(i)))
                    .phase(Phase::Compute {
                        flops: 2e13,
                        efficiency: 0.4,
                    }),
            );
        }
        // A contended egress stage at the end: five unbounded flows on
        // the external link, fed by the compute stage.
        for i in 0..5 {
            wf = wf.task(
                TaskSpec::new(format!("push{i}"), 4)
                    .after(format!("sim{i}"))
                    .phase(Phase::SystemData {
                        resource: wrm_core::ids::EXTERNAL.into(),
                        bytes: 2e11,
                        stream_cap: None,
                    }),
            );
        }
        wf
    }

    #[test]
    fn grid_matches_per_point_simulate_and_reference() {
        let scenario = Scenario::new(machines::cori_haswell(), mixed_workflow());
        let grid = SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.2, 0.5, 1.0, 2.0],
            node_limits: vec![None, Some(64), Some(24)],
            policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
        };
        assert_oracle(&scenario, &grid, 1);
    }

    #[test]
    fn replay_path_engages_on_contended_columns() {
        let scenario = Scenario::new(machines::cori_haswell(), mixed_workflow());
        let grid = SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.25, 0.5, 0.75, 1.0, 1.5],
            node_limits: vec![None],
            policies: vec![SchedulerPolicy::Fifo],
        };
        let outcome = sweep_grid(&scenario, &grid, 1);
        assert!(
            outcome.stats.replayed > 0,
            "expected checkpoint replays, got {:?}",
            outcome.stats
        );
        assert_eq!(outcome.stats.cold, 1, "one cold run per column");
        assert_oracle(&scenario, &grid, 1);
    }

    #[test]
    fn reuse_path_engages_when_factor_cannot_matter() {
        // No task touches the external link, so the watched channel
        // never joins and one cold run serves the whole factor axis.
        let mut wf = WorkflowSpec::new("no-ext");
        for i in 0..4 {
            wf = wf.task(TaskSpec::new(format!("t{i}"), 512).phase(Phase::overhead("work", 10.0)));
        }
        let scenario = Scenario::new(machines::cori_haswell(), wf);
        let grid = SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.1, 0.5, 1.0, 5.0],
            // A tight pool forces queueing; no flow ever joins the
            // watched link, so the reuse path carries the column.
            node_limits: vec![Some(1024)],
            policies: vec![SchedulerPolicy::Fifo],
        };
        let outcome = sweep_grid(&scenario, &grid, 1);
        assert_eq!(outcome.stats.cold, 1);
        assert_eq!(outcome.stats.reused, 3);
        assert_oracle(&scenario, &grid, 1);
    }

    #[test]
    fn threads_do_not_change_results_or_stats() {
        let scenario = Scenario::new(machines::perlmutter_cpu(), mixed_workflow());
        let grid = SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.3, 1.0, 1.3],
            node_limits: vec![None, Some(40)],
            policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
        };
        let serial = sweep_grid(&scenario, &grid, 1);
        let parallel = sweep_grid(&scenario, &grid, 4);
        assert_eq!(serial.stats, parallel.stats);
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn invalid_spec_errors_every_point() {
        let wf = WorkflowSpec::new("dangling").task(
            TaskSpec::new("t", 1)
                .after("missing")
                .phase(Phase::overhead("o", 1.0)),
        );
        let scenario = Scenario::new(machines::cori_haswell(), wf);
        let grid = SweepGrid {
            resource: None,
            factors: vec![1.0, 2.0],
            node_limits: vec![None],
            policies: vec![SchedulerPolicy::Fifo],
        };
        let outcome = sweep_grid(&scenario, &grid, 1);
        assert_eq!(outcome.results.len(), 2);
        assert_eq!(outcome.stats.errors, 2);
        for (r, want) in outcome.results.iter().zip([
            simulate(&Scenario {
                machine: scenario.machine.clone(),
                workflow: scenario.workflow.clone(),
                options: grid.point_options(&scenario.options, 0, 0, 0),
            }),
            simulate(&Scenario {
                machine: scenario.machine.clone(),
                workflow: scenario.workflow.clone(),
                options: grid.point_options(&scenario.options, 1, 0, 0),
            }),
        ]) {
            assert_eq!(r.as_ref().err(), want.err().as_ref());
        }
    }

    /// Random-workflow generator mixing overheads, compute, capped,
    /// uncapped and zero-byte flows on the given channels, and
    /// dependencies — enough variety to hit replay, reuse, errors and both schedulers, and to pause the checkpoint
    /// run at every kind of first join:
    ///
    /// * flows as a task's 1st, 2nd or 3rd phase, so they join from the
    ///   start scan or from the completion scan;
    /// * zero-byte flows, born finished outside the scan (1st phase)
    ///   and inside it (later phases);
    /// * tasks after a zero-phase task open with a flow, so the join
    ///   happens inside the start scan's zero-phase cascade;
    /// * overheads on a coarse grid, so several tasks finish — and
    ///   several flows join — at one instant.
    pub(crate) fn random_workflow(seed: u64, n_tasks: usize, channels: &[&str]) -> WorkflowSpec {
        let mut s = seed;
        let mut split = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut wf = WorkflowSpec::new(format!("rand[{seed}]"));
        let mut n_phases = Vec::with_capacity(n_tasks);
        for i in 0..n_tasks {
            let nodes = 1 + split() % 48;
            let mut t = TaskSpec::new(format!("t{i}"), nodes);
            let mut after_empty = false;
            if i > 0 {
                for _ in 0..(split() % 3).min(i as u64) {
                    let d = (split() as usize) % i;
                    after_empty |= n_phases[d] == 0;
                    t = t.after(format!("t{d}"));
                }
            }
            let count = split() % 4;
            for k in 0..count {
                let kind = if k == 0 && after_empty {
                    2 + split() % 3
                } else {
                    split() % 6
                };
                let resource = channels[(split() as usize) % channels.len()].to_owned();
                t = match kind {
                    0 => t.phase(Phase::overhead("o", (1 + split() % 300) as f64 / 10.0)),
                    1 => t.phase(Phase::Compute {
                        flops: (1 + split() % 500) as f64 * 1e12,
                        efficiency: 0.2 + (split() % 100) as f64 / 150.0,
                    }),
                    2 => t.phase(Phase::SystemData {
                        resource,
                        bytes: (1 + split() % 300) as f64 * 1e9,
                        stream_cap: Some((1 + split() % 20) as f64 * 1e8),
                    }),
                    3 => t.phase(Phase::SystemData {
                        resource,
                        bytes: (1 + split() % 300) as f64 * 1e9,
                        stream_cap: None,
                    }),
                    4 => t.phase(Phase::SystemData {
                        resource,
                        bytes: 0.0,
                        stream_cap: None,
                    }),
                    _ => t.phase(Phase::overhead("o", (1 + split() % 4) as f64 * 5.0)),
                };
            }
            n_phases.push(count);
            wf = wf.task(t);
        }
        wf
    }

    proptest! {
        /// The tentpole oracle: on random workflows and random small
        /// grids, the incremental sweep (serial and threaded) matches
        /// per-point `simulate` and `simulate_reference` bit for bit.
        #[test]
        fn incremental_sweep_matches_oracles(
            seed in any::<u64>(),
            n_tasks in 1usize..25,
            machine_ix in 0usize..2,
            sweep_fs in any::<bool>(),
            threads in 1usize..4,
            tight_pool in any::<bool>(),
        ) {
            // Cori has no file system channel; its flows and sweep stay
            // on the external link.
            let (machine, channels) = if machine_ix == 0 {
                (machines::cori_haswell(), vec![EXTERNAL])
            } else {
                (machines::perlmutter_cpu(), vec![EXTERNAL, FILE_SYSTEM])
            };
            let resource = if sweep_fs { *channels.last().unwrap() } else { EXTERNAL };
            let wf = random_workflow(seed, n_tasks, &channels);
            let scenario = Scenario::new(machine, wf).with_options(SimOptions::default());
            let node_limit = if tight_pool { Some(64) } else { None };
            let grid = SweepGrid {
                resource: Some(resource.into()),
                factors: vec![0.5, 1.0, 1.7],
                node_limits: vec![None, node_limit],
                policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
            };
            assert_oracle(&scenario, &grid, threads);
        }
    }
}
