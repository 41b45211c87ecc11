//! The incremental sweep engine: shared-index overlays and delta
//! re-simulation over a parameter grid.
//!
//! `wrm sweep` evaluates a full cross product of contention factors,
//! node limits and scheduler policies over one workflow. Running each
//! grid point through [`crate::simulate`] repeats almost all of the
//! work: the topology/duration index is identical everywhere, and
//! adjacent points differ in a single knob. [`sweep_grid`] exploits that
//! structure three ways:
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
//!    members' caps. Every point of the column copies that one
//!    checkpoint into the arena's recycled replay buffers, re-derives
//!    those caps for its own factor and replays only the suffix
//!    (`Engine::resume_with`). When the watched channel
//!    never joins, the run completes, the factor provably never
//!    matters, and its result is reused outright.
//!
//! Changing the *node limit* re-runs the DES cold (at most once per
//! column): a pool change can matter from the very first allocation, so
//! there is no comparable prefix to share.
//!
//! 3. **One run per distinct column.** [`plan_columns`] keys each
//!    column by its usable pool (the node limit clamped to the machine,
//!    as `IndexOverlay::build` clamps it) and, only when the tasks'
//!    nodes summed exceed that pool, by its policy. Columns with equal
//!    keys run identically: equal pools build equal overlays, and when
//!    every task fits at once no start scan ever leaves a ready task
//!    waiting, so it never reaches the FIFO/backfill branches. One
//!    member of each key runs; the others copy its cells, errors
//!    included. The plan depends only on the grid and the base, so the
//!    path statistics do not depend on the thread count.
//!
//! Every path runs the one DES engine, so [`SweepOutcome::results`] is
//! equal, span order included, to running [`crate::simulate`] per point
//! (and, transitively, to `wrm_sim::reference`), which the oracle
//! proptest below enforces.
//!
//! What a cell keeps is the drivers' one type parameter. The full
//! result ([`sweep_grid`], [`sweep_column`]) carries a trace and
//! per-task maps; a row ([`sweep_grid_points`], [`sweep_column_points`])
//! keeps only what `wrm sweep` prints, a [`SweepPoint`] the engine's
//! point sink folds from the same run, bit-identical to the full
//! result's row (a second proptest below).

use crate::engine::{
    Engine, FullSink, PointSink, Scenario, SchedulerPolicy, SimArena, SimError, SimResult, Sink,
    Step, SweepPoint,
};
use crate::index::BaseIndex;
use crate::overlay::{usable_pool, IndexOverlay};
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
    /// Points that failed validation (per-point error in `results`),
    /// copied ones included.
    pub errors: usize,
    /// Valid points copied from another column with the same run (see
    /// [`plan_columns`]).
    pub shared: usize,
}

impl SweepStats {
    fn absorb(&mut self, other: SweepStats) {
        self.replayed += other.replayed;
        self.cold += other.cold;
        self.reused += other.reused;
        self.errors += other.errors;
        self.shared += other.shared;
    }
}

/// A completed sweep: per-point results in [`SweepGrid::index_of`]
/// order, plus evaluation-path statistics. `R` is what each cell keeps:
/// the full [`SimResult`] ([`sweep_grid`]) or only its row
/// ([`SweepPoint`], [`sweep_grid_points`]).
#[derive(Debug)]
pub struct SweepOutcome<R = SimResult> {
    /// One result per grid point, bit-identical to (the row of)
    /// [`crate::simulate`] on that point's scenario.
    pub results: Vec<Result<R, SimError>>,
    /// How the points were evaluated.
    pub stats: SweepStats,
    /// Column runs the grid took, one per distinct key of
    /// [`plan_columns`]: the jobs its workers shared.
    pub runs: usize,
}

/// The outcome of an empty grid.
impl<R> Default for SweepOutcome<R> {
    fn default() -> Self {
        SweepOutcome {
            results: Vec::new(),
            stats: SweepStats::default(),
            runs: 0,
        }
    }
}

/// What a sweep cell keeps, and the sink that produces it: the one
/// type parameter of the column and grid drivers.
pub(crate) trait Cell: Clone + Send {
    /// The sink whose output this is.
    type Sink<'a>: Sink<'a, Output = Self>;
}

impl Cell for SimResult {
    type Sink<'a> = FullSink<'a>;
}

impl Cell for SweepPoint {
    type Sink<'a> = PointSink<'a>;
}

/// Evaluates the full grid over `scenario`, using up to `threads` worker
/// threads (one run of [`plan_columns`] — a `(node_limit, policy)`
/// column and the columns that copy it — per work unit).
///
/// `threads == 0` means auto: one worker per available CPU, capped at
/// the run count; explicit values are also capped at the host's
/// available parallelism (see [`crate::sweep::effective_workers`]).
///
/// Results are returned in [`SweepGrid::index_of`] order regardless of
/// `threads`, and every result is bit-identical to calling
/// [`crate::simulate`] with that point's options.
#[must_use]
pub fn sweep_grid(scenario: &Scenario, grid: &SweepGrid, threads: usize) -> SweepOutcome {
    grid_cold(scenario, grid, threads)
}

/// [`sweep_grid`] keeping only each cell's row: the same paths, stats
/// and errors, every [`SweepPoint`] bit-identical to
/// `SweepPoint::from(&simulate(point))`. What `wrm sweep` runs.
#[must_use]
pub fn sweep_grid_points(
    scenario: &Scenario,
    grid: &SweepGrid,
    threads: usize,
) -> SweepOutcome<SweepPoint> {
    grid_cold(scenario, grid, threads)
}

/// The driver behind [`sweep_grid`] and [`sweep_grid_points`]: builds
/// the base index, then runs [`grid_with_base`].
fn grid_cold<R: Cell>(scenario: &Scenario, grid: &SweepGrid, threads: usize) -> SweepOutcome<R> {
    let n = grid.len();
    if n == 0 {
        return SweepOutcome::default();
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
                runs: 0,
            };
        }
    };
    grid_with_base(scenario, grid, threads, &base)
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
    grid_with_base(scenario, grid, threads, base)
}

/// The grid driver: fans the runs of [`plan_columns`] out over
/// [`group`] and merges their cells into [`SweepGrid::index_of`] order.
fn grid_with_base<R: Cell>(
    scenario: &Scenario,
    grid: &SweepGrid,
    threads: usize,
    base: &BaseIndex,
) -> SweepOutcome<R> {
    let n = grid.len();
    if n == 0 {
        return SweepOutcome::default();
    }

    // One run per job, in column order; the cold DES runs across one
    // worker's jobs share a warm arena.
    let plan = plan_columns(grid, base);
    let outputs = fan_out(plan.len(), threads, 1, SimArena::new, |arena, k| {
        group::<R>(scenario, grid, base, &plan[k], arena)
    });
    let mut results: Vec<Option<Result<R, SimError>>> = (0..n).map(|_| None).collect();
    let mut stats = SweepStats::default();
    for (out, group_stats) in outputs {
        stats.absorb(group_stats);
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
        runs: plan.len(),
    }
}

/// A grid's columns grouped into runs: each group lists `(ni, pi)`
/// columns, in column order (node-limit major), that answer alike. The
/// first member runs; the others copy its cells.
///
/// Two columns share a run when their usable pools (node limit clamped
/// to the machine) are equal and either their policies are equal or
/// the tasks' nodes summed fit that pool: then every ready task starts
/// at its first scan, so the policy never decides anything. Pools that
/// differ always run apart. `base` must have been built from the
/// sweep's `(machine, workflow)` pair.
#[must_use]
pub fn plan_columns(grid: &SweepGrid, base: &BaseIndex) -> Vec<Vec<(usize, usize)>> {
    let total = base.task_nodes_total();
    let mut keys: Vec<(u64, Option<SchedulerPolicy>)> = Vec::new();
    let mut groups: Vec<Vec<(usize, usize)>> = Vec::new();
    for (ni, &limit) in grid.node_limits.iter().enumerate() {
        let pool = usable_pool(base, limit);
        for (pi, &policy) in grid.policies.iter().enumerate() {
            let key = (pool, (total > pool).then_some(policy));
            match keys.iter().position(|&k| k == key) {
                Some(g) => groups[g].push((ni, pi)),
                None => {
                    keys.push(key);
                    groups.push(vec![(ni, pi)]);
                }
            }
        }
    }
    groups
}

/// One evaluated grid point: its `SweepGrid::index_of` slot and result
/// (the full [`SimResult`], or a [`SweepPoint`] row).
pub type IndexedResult<R = SimResult> = (usize, Result<R, SimError>);

/// Evaluates one `(node_limit, policy)` column across all factors: the
/// first valid point runs cold, the rest replay from its checkpoint or
/// reuse its result, the checkpoint in `arena`'s buffers. Returns
/// `(SweepGrid::index_of slot, result)` pairs plus path statistics.
///
/// Public so external callers can time or schedule single columns
/// against a shared cached [`BaseIndex`]; `base` must have been built
/// from this scenario's `(machine, workflow)` pair.
pub fn sweep_column(
    scenario: &Scenario,
    grid: &SweepGrid,
    base: &BaseIndex,
    ni: usize,
    pi: usize,
    arena: &mut SimArena,
) -> (Vec<IndexedResult>, SweepStats) {
    column(scenario, grid, base, ni, pi, arena)
}

/// [`sweep_column`] keeping only each cell's row: the same paths,
/// stats and errors, every [`SweepPoint`] bit-identical to
/// `SweepPoint::from(&simulate(point))`, without a trace or per-task
/// maps per cell.
pub fn sweep_column_points(
    scenario: &Scenario,
    grid: &SweepGrid,
    base: &BaseIndex,
    ni: usize,
    pi: usize,
    arena: &mut SimArena,
) -> (Vec<IndexedResult<SweepPoint>>, SweepStats) {
    column(scenario, grid, base, ni, pi, arena)
}

/// One run of [`plan_columns`] keeping only each cell's row: its first
/// column runs through [`sweep_column_points`], and every other member
/// copies those cells, errors included. Returns the cells of every
/// member column, plus path statistics (a copied valid cell counts as
/// `shared`). What the `wrm serve` worker pool runs per
/// `POST /v1/sweep` job.
pub fn sweep_group_points(
    scenario: &Scenario,
    grid: &SweepGrid,
    base: &BaseIndex,
    group: &[(usize, usize)],
    arena: &mut SimArena,
) -> (Vec<IndexedResult<SweepPoint>>, SweepStats) {
    self::group(scenario, grid, base, group, arena)
}

/// The run driver behind [`grid_with_base`] and [`sweep_group_points`]:
/// the first member column runs, the rest copy its cells.
fn group<R: Cell>(
    scenario: &Scenario,
    grid: &SweepGrid,
    base: &BaseIndex,
    members: &[(usize, usize)],
    arena: &mut SimArena,
) -> (Vec<IndexedResult<R>>, SweepStats) {
    let (&(ni, pi), copies) = members.split_first().expect("a run has a column");
    let (mut out, mut stats) = column::<R>(scenario, grid, base, ni, pi, arena);
    // `column` returns its cells in factor order.
    let ran = out.len();
    for &(nj, pj) in copies {
        for fi in 0..ran {
            let r = out[fi].1.clone();
            if r.is_ok() {
                stats.shared += 1;
            } else {
                stats.errors += 1;
            }
            out.push((grid.index_of(fi, nj, pj), r));
        }
    }
    (out, stats)
}

/// The column driver behind [`sweep_column`] and
/// [`sweep_column_points`]: one path for the cold first point, the
/// checkpoint replays and the reuse, whatever the cells keep.
fn column<R: Cell>(
    scenario: &Scenario,
    grid: &SweepGrid,
    base: &BaseIndex,
    ni: usize,
    pi: usize,
    arena: &mut SimArena,
) -> (Vec<IndexedResult<R>>, SweepStats) {
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
    // How the column answers its valid points, set by the first.
    let mut state: Option<Step<R::Sink<'_>>> = None;

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
                    // Checkpointed just before the first solve that reads
                    // the swept channel: replay the suffix per overlay,
                    // each copy of the checkpoint made into the buffers
                    // the previous replay ran in.
                    Step::Paused(p) => {
                        stats.replayed += usize::from(!first);
                        p.resume_with(ov, arena).run(arena)
                    }
                    // The watched channel never joined: the factor cannot
                    // matter, reuse the first result.
                    Step::Done(saved) => {
                        stats.reused += usize::from(!first);
                        saved.clone()
                    }
                }
            }
        };
        out.push((ix, r));
    }
    if let Some(Step::Paused(p)) = state {
        // Both buffer sets stay warm for the next column: the
        // checkpoint's for its first point, the replays' for its replays.
        arena.spare = std::mem::replace(&mut arena.state, p.recycle());
    }
    (out, stats)
}

/// Runs a column's first valid point in `arena`'s buffers, watching the
/// swept channel: it pauses at the channel's first join (the column's
/// checkpoint, which keeps the buffers) or completes without one.
fn first_point<'e, S: Sink<'e>>(
    scenario: &'e Scenario,
    opts: &'e crate::engine::SimOptions,
    base: &'e BaseIndex,
    overlay: &'e IndexOverlay,
    watch: Option<u32>,
    arena: &mut SimArena,
) -> Step<'e, S> {
    let eng = Engine::new_in(
        &scenario.workflow,
        &scenario.machine.name,
        opts,
        base,
        overlay,
        arena,
    );
    let step = match watch {
        Some(ch) => eng.with_watch(ch),
        None => eng,
    }
    .drive(arena);
    if let Step::Paused(_) = step {
        // The checkpoint holds the arena's buffers; the replays run in
        // the spare set.
        std::mem::swap(&mut arena.state, &mut arena.spare);
    }
    step
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{plan_columns, sweep_grid, sweep_grid_points, SweepGrid, SweepStats};
    use crate::engine::{simulate, Scenario, SchedulerPolicy, SimOptions, SweepPoint};
    use crate::index::BaseIndex;
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
            + outcome.stats.errors
            + outcome.stats.shared;
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

    /// Asserts the point sweep keeps, per grid point, the row of
    /// per-point `simulate` bit for bit (`to_bits` on the floats) or its
    /// error, with the same path statistics as the full-result sweep.
    /// Returns those statistics.
    fn assert_points(scenario: &Scenario, grid: &SweepGrid, threads: usize) -> SweepStats {
        let outcome = sweep_grid_points(scenario, grid, threads);
        assert_eq!(outcome.stats, sweep_grid(scenario, grid, threads).stats);
        assert_eq!(outcome.results.len(), grid.len());
        for fi in 0..grid.factors.len() {
            for ni in 0..grid.node_limits.len() {
                for pi in 0..grid.policies.len() {
                    let ix = grid.index_of(fi, ni, pi);
                    let point = Scenario {
                        machine: scenario.machine.clone(),
                        workflow: scenario.workflow.clone(),
                        options: grid.point_options(&scenario.options, fi, ni, pi),
                    };
                    let bits = |p: &SweepPoint| {
                        (p.makespan.to_bits(), p.node_seconds.to_bits(), p.pool_nodes)
                    };
                    let got = outcome.results[ix].as_ref().map(bits);
                    let want = simulate(&point).map(|r| bits(&SweepPoint::from(&r)));
                    assert_eq!(
                        got,
                        want.as_ref().copied(),
                        "point {ix} (fi={fi} ni={ni} pi={pi})"
                    );
                }
            }
        }
        outcome.stats
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
        assert_eq!(assert_points(&scenario, &grid, 1), outcome.stats);
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
        assert_eq!(assert_points(&scenario, &grid, 1), outcome.stats);
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

    /// The planner's boundary: at a pool one node short of the tasks'
    /// total the policy keeps its own run, at the total and above it
    /// does not, and limits that clamp to the same pool (here the whole
    /// machine, given as `None` and as a limit past it) share one run.
    /// Every cell, copies included, equals per-point `simulate` and the
    /// reference engine, and the stats do not depend on the threads.
    #[test]
    fn shared_columns_match_simulate_at_the_pool_boundary() {
        let scenario = Scenario::new(machines::cori_haswell(), mixed_workflow());
        let base = BaseIndex::build(&scenario.machine, &scenario.workflow).expect("valid");
        let total = base.task_nodes_total();
        assert_eq!(total, 6 * 16 + 5 * 4);
        let (fifo, backfill) = (SchedulerPolicy::Fifo, SchedulerPolicy::Backfill);
        let grid = SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.5, 1.0, 2.0],
            node_limits: vec![Some(total - 1), Some(total), None, Some(1 << 40)],
            policies: vec![fifo, backfill],
        };
        assert_eq!(
            plan_columns(&grid, &base),
            [
                vec![(0, 0)],
                vec![(0, 1)],
                vec![(1, 0), (1, 1)],
                vec![(2, 0), (2, 1), (3, 0), (3, 1)],
            ]
        );
        assert_oracle(&scenario, &grid, 1);
        let want = SweepStats {
            replayed: 8,
            cold: 4,
            shared: 12,
            ..SweepStats::default()
        };
        for threads in [1, 4] {
            let outcome = sweep_grid(&scenario, &grid, threads);
            assert_eq!(outcome.stats, want, "threads {threads}");
            assert_eq!(outcome.runs, 4);
            assert_eq!(assert_points(&scenario, &grid, threads), want);
        }
    }

    /// A copied column copies its errors too, and they count as errors:
    /// factor 0 is invalid at every point, and one run answers the four
    /// columns (two limits clamping to the whole machine, both policies).
    #[test]
    fn copied_errors_count_as_errors() {
        let scenario = Scenario::new(machines::cori_haswell(), mixed_workflow());
        let grid = SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.0, 1.0],
            node_limits: vec![None, Some(1 << 40)],
            policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
        };
        let outcome = sweep_grid(&scenario, &grid, 1);
        assert_eq!(outcome.runs, 1);
        assert_eq!(
            outcome.stats,
            SweepStats {
                cold: 1,
                errors: 4,
                shared: 3,
                ..SweepStats::default()
            }
        );
        assert_oracle(&scenario, &grid, 1);
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
            under in 0u64..3,
            over in 0u64..2,
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
            // Limits around the tasks' total nodes, where the planner
            // switches between one run per policy and one shared run.
            let total: u64 = scenario.workflow.tasks.iter().map(|t| t.nodes).sum();
            let mut node_limits = vec![
                None,
                node_limit,
                Some(total.saturating_sub(under)),
                Some(total + over),
            ];
            node_limits.sort_unstable();
            node_limits.dedup();
            let grid = SweepGrid {
                resource: Some(resource.into()),
                factors: vec![0.5, 1.0, 1.7],
                node_limits,
                policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
            };
            assert_oracle(&scenario, &grid, threads);
        }

        /// The point sweep's oracle: on random workflows and random
        /// grids (factor, node-limit and policy axes of random length,
        /// pools too small for some tasks), every cell's row, whether
        /// cold, replayed or reused, equals the row of per-point
        /// `simulate` bit for bit, errors and path statistics included.
        #[test]
        fn point_sweep_matches_simulate_rows(
            seed in any::<u64>(),
            n_tasks in 0usize..25,
            machine_ix in 0usize..2,
            sweep_fs in any::<bool>(),
            threads in 1usize..4,
            factors in prop::collection::vec(
                prop_oneof![Just(0.1), Just(0.5), Just(1.0), Just(1.7), Just(4.0)],
                1..5,
            ),
            node_mask in 1u8..32,
            shortfall in 0u64..2,
            policy_mask in 1u8..4,
        ) {
            let (machine, channels) = if machine_ix == 0 {
                (machines::cori_haswell(), vec![EXTERNAL])
            } else {
                (machines::perlmutter_cpu(), vec![EXTERNAL, FILE_SYSTEM])
            };
            let resource = if sweep_fs { *channels.last().unwrap() } else { EXTERNAL };
            let wf = random_workflow(seed, n_tasks, &channels);
            let nodes: u64 = wf.tasks.iter().map(|t| t.nodes).sum();
            let total = Some(nodes.saturating_sub(shortfall));
            let scenario = Scenario::new(machine, wf);
            // Non-empty subsets of each axis, picked by bit mask.
            fn pick<T: Copy>(mask: u8, all: &[T]) -> Vec<T> {
                all.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect()
            }
            let grid = SweepGrid {
                resource: Some(resource.into()),
                factors,
                node_limits: pick(node_mask, &[None, Some(24), Some(64), Some(4096), total]),
                policies: pick(policy_mask, &[SchedulerPolicy::Fifo, SchedulerPolicy::Backfill]),
            };
            assert_points(&scenario, &grid, threads);
        }
    }
}
