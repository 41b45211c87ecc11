//! The discrete-event workflow simulator.
//!
//! Executes a [`WorkflowSpec`] on a [`Machine`] as a fluid-flow
//! simulation: node-local phases run at (efficiency-scaled) peak rates of
//! the task's allocation; shared-system phases become flows on shared
//! channels whose rates are re-solved by max–min fair sharing whenever
//! the flow set changes; a Slurm-like scheduler allocates nodes. The
//! output is a `wrm_trace::Trace` — the same format real measurements
//! would use — so the Workflow Roofline dot of a simulated run is derived
//! exactly like the paper derives its empirical dots.
//!
//! Flow progress is *materialized on rate change*: a flow's remaining
//! byte count is only touched when a fair-share solve assigns it a new
//! rate, at which point its completion time is recomputed once and
//! cached. Between rate changes the completion time is a constant, so it
//! lives in the same calendar heap as fixed-phase ends and the event
//! loop never walks the flow set per event: the per-event cost drops
//! from `O(flows)` to `O(log events)`.

use crate::calendar::{CalEv, CalendarQueue};
use crate::channel::{max_min_rates_into, settles_at_caps, FlowDemand, FlowRate, RateScratch};
use crate::index::{BaseIndex, NameTable, PhaseIx};
use crate::overlay::IndexOverlay;
use crate::spec::{SpecError, WorkflowSpec};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;
use wrm_core::Machine;
use wrm_trace::{Trace, TraceSpan};

/// Node-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Strict FIFO: the queue head blocks everything behind it until it
    /// fits.
    #[default]
    Fifo,
    /// FIFO with backfill: ready tasks behind a blocked head may start
    /// when they fit (EASY-style, without reservations).
    Backfill,
}

/// Simulation options.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimOptions {
    /// Usable node count (None = the machine's total; a Some caps it,
    /// modelling queue limits).
    pub node_limit: Option<u64>,
    /// Per-resource capacity factors (e.g. `{"ext": 0.2}` for the LCLS
    /// bad days). Factors apply to the channel capacity *and* to phase
    /// stream caps on that channel, matching "the achievable rate drops
    /// 5x" as observed end to end.
    pub contention: BTreeMap<String, f64>,
    /// Scheduler policy.
    pub scheduler: SchedulerPolicy,
}

impl SimOptions {
    /// Adds a contention factor for one resource.
    pub fn with_contention(mut self, resource: impl Into<String>, factor: f64) -> Self {
        self.contention.insert(resource.into(), factor);
        self
    }
}

/// A complete simulation input.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The machine model.
    pub machine: Machine,
    /// The workflow to execute.
    pub workflow: WorkflowSpec,
    /// Options.
    pub options: SimOptions,
}

impl Scenario {
    /// Scenario with default options.
    pub fn new(machine: Machine, workflow: WorkflowSpec) -> Self {
        Self {
            machine,
            workflow,
            options: SimOptions::default(),
        }
    }

    /// Sets options.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid spec.
    Spec(SpecError),
    /// A task needs more nodes than the usable pool.
    TaskTooLarge {
        /// Task name.
        task: String,
        /// Required nodes.
        needs: u64,
        /// Usable pool size.
        pool: u64,
    },
    /// A phase referenced a resource the machine does not define.
    UnknownResource {
        /// Task name.
        task: String,
        /// Resource id.
        resource: String,
    },
    /// Progress stalled (a flow has zero rate forever, e.g. a channel
    /// with zero effective capacity).
    Stalled {
        /// Simulated time at the stall.
        at: f64,
    },
    /// Invalid option value.
    InvalidOption(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Spec(e) => write!(f, "spec error: {e}"),
            SimError::TaskTooLarge { task, needs, pool } => {
                write!(f, "task {task} needs {needs} nodes, pool has {pool}")
            }
            SimError::UnknownResource { task, resource } => {
                write!(f, "task {task} uses unknown resource {resource}")
            }
            SimError::Stalled { at } => write!(f, "simulation stalled at t={at}"),
            SimError::InvalidOption(m) => write!(f, "invalid option: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

/// One task's row of a full result ([`SimResult::task_times`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTime {
    /// The task's name: the `Arc<str>` its trace spans share.
    pub name: Arc<str>,
    /// Start time (after dependencies and node allocation).
    pub start: f64,
    /// Wall time (end minus start).
    pub time: f64,
    /// Nodes held (echoed from the spec, for accounting).
    pub nodes: u64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The execution trace (spans for every phase).
    pub trace: Trace,
    /// End-to-end makespan in seconds.
    pub makespan: f64,
    /// One row per task, sorted by name (names are unique, as spec
    /// validation refuses duplicates); [`SimResult::task`] finds one.
    pub task_times: Vec<TaskTime>,
    /// The usable pool size the run was scheduled against.
    pub pool_nodes: u64,
}

impl SimResult {
    /// The row of the task named `name`, found by binary search.
    pub fn task(&self, name: &str) -> Option<&TaskTime> {
        let i = self.task_times.binary_search_by(|t| (*t.name).cmp(name));
        i.ok().map(|i| &self.task_times[i])
    }

    /// Total node-seconds of allocation (`sum of nodes x wall time`):
    /// what an accounting system would charge. Folds in name order.
    pub fn node_seconds(&self) -> f64 {
        self.task_times
            .iter()
            .map(|t| t.nodes as f64 * t.time)
            .sum()
    }

    /// Allocation-weighted pool utilization over the makespan, in
    /// `[0, 1]` for serialized workloads (can be seen as the fraction of
    /// the pool's node-seconds the workflow held).
    pub fn utilization(&self) -> f64 {
        utilization(self.node_seconds(), self.pool_nodes, self.makespan)
    }

    /// Each `dag` task's `(start, end)` in this run, indexed by
    /// [`wrm_dag::TaskId`] and matched by name: what
    /// [`wrm_dag::GanttChart::build`] and
    /// [`wrm_dag::ParallelismProfile::build`] draw. The start is the
    /// task's [`TaskTime::start`]. The end is its last span's end, the
    /// completion instant itself: `start + time` can round a last ulp
    /// away from it and so split a tie the critical-chain walk must see.
    /// A task without phases ends where it starts. `None` when the DAG
    /// names a task this run did not execute.
    pub fn task_intervals(&self, dag: &wrm_dag::Dag) -> Option<Vec<(f64, f64)>> {
        let mut ends: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.trace.spans {
            let end = ends.entry(&s.task).or_insert(s.end);
            *end = end.max(s.end);
        }
        dag.tasks()
            .iter()
            .map(|t| {
                let start = self.task(&t.name)?.start;
                Some((start, ends.get(t.name.as_str()).copied().unwrap_or(start)))
            })
            .collect()
    }
}

/// Node-seconds as a fraction of the pool's over the makespan: the one
/// expression behind every result type's `utilization`.
fn utilization(node_seconds: f64, pool_nodes: u64, makespan: f64) -> f64 {
    if makespan <= 0.0 || pool_nodes == 0 {
        return 0.0;
    }
    node_seconds / (pool_nodes as f64 * makespan)
}

/// One sweep cell's row: the statistics `wrm sweep` and `POST
/// /v1/sweep` print per cell. Produced by the point sink without a
/// trace or per-task rows, every field bit-identical to the same
/// statistic of the full [`SimResult`] (see `From<&SimResult>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// End-to-end makespan in seconds ([`SimResult::makespan`]).
    pub makespan: f64,
    /// Total node-seconds of allocation ([`SimResult::node_seconds`]).
    pub node_seconds: f64,
    /// The usable pool size the run was scheduled against.
    pub pool_nodes: u64,
}

impl SweepPoint {
    /// Allocation-weighted pool utilization over the makespan
    /// ([`SimResult::utilization`]).
    pub fn utilization(&self) -> f64 {
        utilization(self.node_seconds, self.pool_nodes, self.makespan)
    }
}

impl From<&SimResult> for SweepPoint {
    fn from(r: &SimResult) -> Self {
        SweepPoint {
            makespan: r.makespan,
            node_seconds: r.node_seconds(),
            pool_nodes: r.pool_nodes,
        }
    }
}

impl From<&SweepPoint> for SweepPoint {
    fn from(p: &SweepPoint) -> Self {
        *p
    }
}

pub(crate) const EPS: f64 = 1e-9;

/// Relative time tolerance: activities within a (relative) nanosecond of
/// completion are treated as complete. This guards against float
/// absorption: when `now` is large, a flow's final sliver can need a
/// `dt` below `ulp(now)`, so `now + dt == now` and time cannot advance.
/// Any flow whose true remaining time is under `time_eps(now)` finishes
/// "now" instead; the timing error is at most a relative nanosecond per
/// event.
pub(crate) fn time_eps(now: f64) -> f64 {
    1e-9 * now.max(1.0)
}

/// True when a flow with `remaining` bytes at `rate` bytes/s is done for
/// simulation purposes at time `now`.
pub(crate) fn flow_finished(remaining: f64, rate: f64, now: f64) -> bool {
    remaining <= EPS || remaining <= rate * time_eps(now)
}

/// Position/slot sentinel: not present.
const DEAD: u32 = u32::MAX;

/// Names the summary tail keeps (nearest the end task).
const TAIL_CAP: usize = 32;

/// The running set as a struct of arrays: column `i` of every vector
/// describes the entry at running-vector position `i`, so the hot loops
/// (demand collection, rate updates, stale-event checks) each touch only
/// the one or two arrays they need instead of dragging whole
/// 96-byte entries through the cache. Positions reproduce the reference
/// engine's `Vec<RunningTask>` layout (they shift only via
/// `swap_remove`, mirrored exactly); tokens are stable handles used by
/// the calendar and channel member lists.
///
/// `channel[i] == DEAD` marks a fixed-duration phase (its float columns
/// are unused placeholders); `member_slot[i] == DEAD` marks a flow that
/// never joined its channel (born finished inside a completion scan).
#[derive(Debug, Default)]
struct RunSoa {
    token: Vec<u32>,
    task: Vec<u32>,
    phase: Vec<u32>,
    phase_start: Vec<f64>,
    channel: Vec<u32>,
    remaining: Vec<f64>,
    cap: Vec<f64>,
    /// Current fair-share rate; `remaining` is exact as of `last_set`
    /// and untouched until the next rate change.
    rate: Vec<f64>,
    last_set: Vec<f64>,
    /// Cached completion time under the current rate (`f64::INFINITY`
    /// while starved). Recomputed only on rate change; the calendar
    /// holds a copy, and an event whose time differs from this field is
    /// stale and skipped.
    end: Vec<f64>,
    member_slot: Vec<u32>,
}

/// `clone_from` copies column by column into the target's own vectors.
impl Clone for RunSoa {
    fn clone(&self) -> Self {
        let mut run = RunSoa::default();
        run.clone_from(self);
        run
    }

    fn clone_from(&mut self, src: &Self) {
        self.token.clone_from(&src.token);
        self.task.clone_from(&src.task);
        self.phase.clone_from(&src.phase);
        self.phase_start.clone_from(&src.phase_start);
        self.channel.clone_from(&src.channel);
        self.remaining.clone_from(&src.remaining);
        self.cap.clone_from(&src.cap);
        self.rate.clone_from(&src.rate);
        self.last_set.clone_from(&src.last_set);
        self.end.clone_from(&src.end);
        self.member_slot.clone_from(&src.member_slot);
    }
}

impl RunSoa {
    fn len(&self) -> usize {
        self.token.len()
    }

    fn is_empty(&self) -> bool {
        self.token.is_empty()
    }

    fn clear(&mut self) {
        self.token.clear();
        self.task.clear();
        self.phase.clear();
        self.phase_start.clear();
        self.channel.clear();
        self.remaining.clear();
        self.cap.clear();
        self.rate.clear();
        self.last_set.clear();
        self.end.clear();
        self.member_slot.clear();
    }

    fn push_fixed(&mut self, token: u32, task: u32, phase: u32, start: f64) {
        self.token.push(token);
        self.task.push(task);
        self.phase.push(phase);
        self.phase_start.push(start);
        self.channel.push(DEAD);
        self.remaining.push(0.0);
        self.cap.push(0.0);
        self.rate.push(0.0);
        self.last_set.push(start);
        self.end.push(0.0);
        self.member_slot.push(DEAD);
    }

    #[allow(clippy::too_many_arguments)]
    fn push_flow(
        &mut self,
        token: u32,
        task: u32,
        phase: u32,
        start: f64,
        channel: u32,
        bytes: f64,
        cap: f64,
        end: f64,
        member_slot: u32,
    ) {
        self.token.push(token);
        self.task.push(task);
        self.phase.push(phase);
        self.phase_start.push(start);
        self.channel.push(channel);
        self.remaining.push(bytes);
        self.cap.push(cap);
        self.rate.push(0.0);
        self.last_set.push(start);
        self.end.push(end);
        self.member_slot.push(member_slot);
    }

    fn swap_remove(&mut self, i: usize) {
        self.token.swap_remove(i);
        self.task.swap_remove(i);
        self.phase.swap_remove(i);
        self.phase_start.swap_remove(i);
        self.channel.swap_remove(i);
        self.remaining.swap_remove(i);
        self.cap.swap_remove(i);
        self.rate.swap_remove(i);
        self.last_set.swap_remove(i);
        self.end.swap_remove(i);
        self.member_slot.swap_remove(i);
    }
}

/// One channel's running sum of its members' finite caps: the input of
/// the under-capacity test ([`settles_at_caps`]) that lets a solve be
/// skipped, kept in O(1) per join and leave.
///
/// Drift bound: each add or subtract rounds once, off by at most
/// `2^-52 * |result|`, and a re-sum of `n` non-negative caps is off by at
/// most `n * 2^-52 * sum`; `err` accumulates exactly those terms, so the
/// exact sum never exceeds `sum + err`. A re-sum runs once the updates
/// since the last one outnumber the members (amortised O(1)), which
/// keeps `err` below `(2n + 1) * 2^-52` times the largest running sum
/// since then: far inside the predicate's `1e-9` relative margin.
#[derive(Debug, Clone, Copy, Default)]
struct CapSum {
    sum: f64,
    /// Upper bound on `|sum - exact sum of the finite member caps|`.
    err: f64,
    /// Members whose cap is not finite.
    unbounded: u32,
    /// Updates since the last re-sum.
    ops: u32,
}

impl CapSum {
    /// Relative rounding bound of one float operation, with room to
    /// spare (round-to-nearest is off by at most `2^-53`).
    const ULP: f64 = f64::EPSILON;

    /// Counts one member's cap in (`sign` 1, a join) or out (`sign` -1,
    /// a leave).
    fn add(&mut self, cap: f64, sign: f64) {
        if cap.is_finite() {
            self.sum += sign * cap;
            self.err += self.sum.abs() * Self::ULP;
        } else if sign > 0.0 {
            self.unbounded += 1;
        } else {
            self.unbounded -= 1;
        }
        self.ops += 1;
    }
}

/// Every growable buffer an engine run needs, grouped so a
/// [`SimArena`] can keep them warm between runs. After a first run of
/// a similar size, the per-event buffers (the run set, queues, member
/// lists, fair-share scratch via the `rates_into` variants, and the
/// calendar's buckets, kept across its resizes) stop growing (see
/// docs/PERF.md for the measured counts).
#[derive(Debug, Default)]
pub(crate) struct EngineState {
    run: RunSoa,
    /// Token -> current position in `run` ([`DEAD`] once removed).
    pos_of: Vec<u32>,
    /// Completion calendar.
    calendar: CalendarQueue,
    /// Tokens of the flows on each channel (unordered).
    members: Vec<Vec<u32>>,
    /// Channels whose demand set or demand order changed since the last
    /// fair-share solve.
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Per channel: the running sum of its members' finite caps.
    cap_sums: Vec<CapSum>,
    /// Per channel: every member that was there at the last solve runs
    /// at exactly its cap (true for an empty channel).
    at_caps: Vec<bool>,
    /// Per channel: tokens of the flows that joined since the last
    /// solve, in join order.
    joiners: Vec<Vec<u32>>,
    /// Ready tasks, popped in task-index order (= the reference's sorted
    /// queue).
    ready: BinaryHeap<Reverse<u32>>,
    /// Tasks unblocked by zero-phase completions mid-scan; examined
    /// after the heap in append order, like the reference's queue tail.
    deferred: VecDeque<u32>,
    /// Backfill scratch: ready tasks that did not fit this scan.
    skipped: Vec<u32>,
    /// Positions of finished-but-unprocessed entries during an event's
    /// completion scan, ascending. Every update lands at an end: the
    /// scan pops the smallest, a relocation can only move the largest
    /// possible position (the old tail) down to the one just vacated,
    /// below every other, and a phase born finished takes the new tail
    /// position, above every other.
    pending: VecDeque<u32>,
    /// Events `collect_due` drains from the calendar, and their live
    /// positions.
    due: Vec<CalEv>,
    due_pos: Vec<u32>,
    dep_count: Vec<u32>,
    starts: Vec<f64>,
    ends: Vec<f64>,
    /// The dependency that released each task (its last-completing
    /// predecessor), [`DEAD`] for roots; walking it back from the
    /// last-finishing task yields the critical-path tail of the summary.
    released_by: Vec<u32>,
    demand_scratch: Vec<FlowDemand>,
    rates_out: Vec<FlowRate>,
    rate_scratch: RateScratch,
    /// Max–min solves run (not skipped) since the last reset.
    #[cfg(test)]
    full_solves: u64,
}

/// A clone copies the run's state field by field into the target's own
/// buffers (the calendar's buckets included), so a replay resumed into
/// a recycled state allocates only where the checkpoint outgrew it.
/// The per-call scratch buffers hold nothing between loop bodies; they
/// are cleared, not copied.
impl Clone for EngineState {
    fn clone(&self) -> Self {
        let mut st = EngineState::default();
        st.clone_from(self);
        st
    }

    fn clone_from(&mut self, src: &Self) {
        let EngineState {
            run,
            pos_of,
            calendar,
            members,
            dirty,
            dirty_list,
            cap_sums,
            at_caps,
            joiners,
            ready,
            deferred,
            skipped,
            pending,
            due,
            due_pos,
            dep_count,
            starts,
            ends,
            released_by,
            demand_scratch,
            rates_out,
            rate_scratch: _,
            #[cfg(test)]
            full_solves,
        } = self;
        run.clone_from(&src.run);
        pos_of.clone_from(&src.pos_of);
        calendar.clone_from(&src.calendar);
        members.clone_from(&src.members);
        dirty.clone_from(&src.dirty);
        dirty_list.clone_from(&src.dirty_list);
        cap_sums.clone_from(&src.cap_sums);
        at_caps.clone_from(&src.at_caps);
        joiners.clone_from(&src.joiners);
        ready.clone_from(&src.ready);
        deferred.clone_from(&src.deferred);
        pending.clone_from(&src.pending);
        dep_count.clone_from(&src.dep_count);
        starts.clone_from(&src.starts);
        ends.clone_from(&src.ends);
        released_by.clone_from(&src.released_by);
        skipped.clear();
        due.clear();
        due_pos.clear();
        demand_scratch.clear();
        rates_out.clear();
        #[cfg(test)]
        {
            *full_solves = src.full_solves;
        }
    }
}

impl EngineState {
    /// Re-initializes every buffer for a fresh run, keeping capacity.
    fn reset(&mut self, base: &BaseIndex, overlay: &IndexOverlay) {
        let n = base.n_tasks();
        let n_channels = overlay.channel_capacity.len();
        self.run.clear();
        self.pos_of.clear();
        self.calendar.clear();
        for m in &mut self.members {
            m.clear();
        }
        self.members.resize_with(n_channels, Vec::new);
        self.dirty.clear();
        self.dirty.resize(n_channels, false);
        self.dirty_list.clear();
        self.cap_sums.clear();
        self.cap_sums.resize(n_channels, CapSum::default());
        self.at_caps.clear();
        self.at_caps.resize(n_channels, true);
        for j in &mut self.joiners {
            j.clear();
        }
        self.joiners.resize_with(n_channels, Vec::new);
        self.ready.clear();
        for (t, &d) in base.dep_count.iter().enumerate() {
            if d == 0 {
                self.ready.push(Reverse(t as u32));
            }
        }
        self.deferred.clear();
        self.skipped.clear();
        self.pending.clear();
        self.due.clear();
        self.due_pos.clear();
        self.dep_count.clear();
        self.dep_count.extend_from_slice(&base.dep_count);
        self.starts.clear();
        self.starts.resize(n, f64::NAN);
        self.ends.clear();
        self.ends.resize(n, f64::NAN);
        self.released_by.clear();
        self.released_by.resize(n, DEAD);
        self.demand_scratch.clear();
        self.rates_out.clear();
        #[cfg(test)]
        {
            self.full_solves = 0;
        }
    }
}

/// A reusable simulation arena: owns every growable buffer the engine
/// needs, so repeated [`simulate_with_base`] /
/// [`simulate_summary_with_base`] calls (sweeps, Monte-Carlo batches,
/// server workers) reuse them instead of regrowing them per run. A warm
/// run allocates only its output: on a 2k-task layered DAG, 44 times
/// for a summary (its channel names and critical tail, the same at 20k
/// tasks) and 7 for a full result (its trace and its task table).
/// Results never depend on what the arena ran before; [`simulate`] and
/// [`simulate_summary`] simply pass a fresh one.
#[derive(Debug, Default)]
pub struct SimArena {
    pub(crate) state: EngineState,
    /// A sweep column's replay buffers, kept warm while `state` holds
    /// the column's checkpoint (see `incremental::column`).
    pub(crate) spare: EngineState,
}

impl SimArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Aggregate statistics of a summary run ([`simulate_summary`]): O(channels)
/// result memory and no per-span or per-task materialization, which
/// lets 1M-task DAGs run in bounded memory. Every field is
/// bit-identical to the same statistic derived from the corresponding
/// full [`SimResult`] (enforced by `tests/calendar_props.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// End-to-end makespan in seconds (identical to `Trace::makespan`
    /// of the full run).
    pub makespan: f64,
    /// Number of tasks executed.
    pub n_tasks: usize,
    /// Number of trace spans the full run would have emitted.
    pub n_spans: u64,
    /// The usable pool size the run was scheduled against.
    pub pool_nodes: u64,
    /// Total node-seconds of allocation, folded in task order.
    pub node_seconds: f64,
    /// Per-channel aggregates, in machine declaration order.
    pub channels: Vec<ChannelSummary>,
    /// Length of the dependency chain ending at the last-finishing
    /// task (1 = that task has no released dependency).
    pub critical_tail_len: usize,
    /// The last tasks of that chain (at most 32 names, execution
    /// order, ending at the last-finishing task).
    pub critical_tail: Vec<String>,
}

impl SimSummary {
    /// Allocation-weighted pool utilization over the makespan (the
    /// summary-mode counterpart of `SimResult::utilization`).
    pub fn utilization(&self) -> f64 {
        utilization(self.node_seconds, self.pool_nodes, self.makespan)
    }
}

/// Aggregate flow statistics for one shared channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSummary {
    /// Resource id.
    pub resource: String,
    /// Seconds during which at least one workflow flow was live on the
    /// channel (union of flow-presence intervals).
    pub busy: f64,
    /// Total bytes moved by completed workflow flows.
    pub bytes: f64,
    /// Number of completed workflow flows.
    pub flows: u64,
}

/// Runs the simulation.
pub fn simulate(scenario: &Scenario) -> Result<SimResult, SimError> {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow)?;
    simulate_with_base(scenario, &base, &mut SimArena::new())
}

/// Runs the simulation keeping streaming aggregates only
/// ([`SimSummary`]): O(channels) result memory.
pub fn simulate_summary(scenario: &Scenario) -> Result<SimSummary, SimError> {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow)?;
    simulate_summary_with_base(scenario, &base, &mut SimArena::new())
}

/// [`simulate`] against a prebuilt [`BaseIndex`] and a reusable
/// [`SimArena`] — the hot path of sweeps and of the resident server: an
/// index-cache hit skips spec validation and index compilation entirely
/// and goes straight to overlay construction, and a warm arena spares
/// the run most of its buffer growth.
///
/// `base` must have been built from this scenario's `(machine,
/// workflow)` pair (e.g. by [`BaseIndex::build`]); results are undefined
/// (though memory-safe) otherwise. Bit-identical to [`simulate`].
pub fn simulate_with_base(
    scenario: &Scenario,
    base: &BaseIndex,
    arena: &mut SimArena,
) -> Result<SimResult, SimError> {
    let overlay = IndexOverlay::build(base, &scenario.workflow, &scenario.options)?;
    run_point_in::<FullSink>(scenario, base, &overlay, arena)
}

/// [`simulate_summary`] against a prebuilt [`BaseIndex`] and a reusable
/// [`SimArena`]; same contract as [`simulate_with_base`]. Bit-identical
/// to [`simulate_summary`].
pub fn simulate_summary_with_base(
    scenario: &Scenario,
    base: &BaseIndex,
    arena: &mut SimArena,
) -> Result<SimSummary, SimError> {
    let overlay = IndexOverlay::build(base, &scenario.workflow, &scenario.options)?;
    run_point_in::<SummarySink>(scenario, base, &overlay, arena)
}

/// What a run materializes, picked at compile time: the event loop
/// calls these hooks where it reaches them, and each sink keeps only
/// what its output needs.
pub(crate) trait Sink<'a>: Clone {
    /// What [`Sink::finish`] materializes.
    type Output;

    /// A sink for a fresh run of `workflow` over `base`.
    fn new(workflow: &'a WorkflowSpec, machine_name: &str, base: &'a BaseIndex) -> Self;

    /// Channel `ch` went idle -> busy (its first member joined) at `now`.
    fn channel_busy(&mut self, _ch: usize, _now: f64) {}

    /// Channel `ch` went busy -> idle (its last member left) at `now`.
    fn channel_idle(&mut self, _ch: usize, _now: f64) {}

    /// Phase slot `slot` of task `t` ran from `start` to `now`. Called
    /// in trace order.
    fn phase_end(&mut self, t: usize, slot: usize, start: f64, now: f64);

    /// Materializes the output of a finished run from its schedule.
    fn finish(self, st: &EngineState, pool_nodes: u64) -> Self::Output;
}

/// The full sink: a trace span per phase plus the task table
/// ([`SimResult`]), every name an `Arc` clone of the base's name table.
pub(crate) struct FullSink<'a> {
    base: &'a BaseIndex,
    names: &'a NameTable,
    trace: Trace,
}

/// A clone keeps the span capacity, so an engine resumed from a paused
/// one (see [`Engine::resume_with`]) pushes its suffix without regrowing.
impl Clone for FullSink<'_> {
    fn clone(&self) -> Self {
        let mut trace = Trace::new(self.trace.workflow.clone(), self.trace.machine.clone());
        trace.spans.reserve_exact(self.trace.spans.capacity());
        trace.spans.extend_from_slice(&self.trace.spans);
        FullSink { trace, ..*self }
    }
}

impl<'a> Sink<'a> for FullSink<'a> {
    type Output = SimResult;

    fn new(workflow: &'a WorkflowSpec, machine_name: &str, base: &'a BaseIndex) -> Self {
        let mut trace = Trace::new(workflow.name.clone(), machine_name);
        trace.spans.reserve_exact(base.phases.len());
        let names = base.names(workflow);
        FullSink { base, names, trace }
    }

    fn phase_end(&mut self, t: usize, slot: usize, start: f64, now: f64) {
        self.trace.push(TraceSpan::new(
            self.names.tasks[t].clone(),
            self.names.kinds[slot].clone(),
            start,
            now,
            self.base.nodes[t],
        ));
    }

    /// One pass in the name table's name order fills the task table.
    fn finish(self, st: &EngineState, pool_nodes: u64) -> SimResult {
        let task_times = self
            .names
            .by_name
            .iter()
            .map(|&i| {
                let i = i as usize;
                TaskTime {
                    name: self.names.tasks[i].clone(),
                    start: st.starts[i],
                    time: st.ends[i] - st.starts[i],
                    nodes: self.base.nodes[i],
                }
            })
            .collect();
        SimResult {
            makespan: self.trace.makespan(),
            trace: self.trace,
            task_times,
            pool_nodes,
        }
    }
}

/// The folds `Trace::makespan` performs over the spans, in span order,
/// kept without the spans: the makespan of the sinks that keep no
/// trace, bit-equal to the full result's.
#[derive(Clone, Copy)]
struct SpanExtent {
    min_start: f64,
    max_end: f64,
}

impl SpanExtent {
    /// The folds' initial values: no span seen.
    const EMPTY: SpanExtent = SpanExtent {
        min_start: f64::INFINITY,
        max_end: 0.0,
    };

    fn push(&mut self, start: f64, end: f64) {
        self.min_start = self.min_start.min(start);
        self.max_end = self.max_end.max(end);
    }

    fn makespan(self) -> f64 {
        if self.min_start.is_finite() {
            self.max_end - self.min_start
        } else {
            0.0
        }
    }
}

/// The summary sink: streaming aggregates ([`SimSummary`]) that
/// replicate exactly what would be derived from the full result: the
/// makespan folds ([`SpanExtent`]), per-channel busy time (maximal
/// member-presence intervals, closed in chronological order), and
/// per-channel byte and flow counts (accumulated at each flow
/// completion, i.e. in trace order).
#[derive(Clone)]
pub(crate) struct SummarySink<'a> {
    workflow: &'a WorkflowSpec,
    base: &'a BaseIndex,
    extent: SpanExtent,
    n_spans: u64,
    /// Time each channel's member count last became non-zero.
    active_since: Vec<f64>,
    channels: Vec<ChannelSummary>,
}

impl<'a> Sink<'a> for SummarySink<'a> {
    type Output = SimSummary;

    fn new(workflow: &'a WorkflowSpec, _machine_name: &str, base: &'a BaseIndex) -> Self {
        let channel = |id: &String| ChannelSummary {
            resource: id.clone(),
            busy: 0.0,
            bytes: 0.0,
            flows: 0,
        };
        SummarySink {
            workflow,
            base,
            extent: SpanExtent::EMPTY,
            n_spans: 0,
            active_since: vec![0.0; base.channel_ids.len()],
            channels: base.channel_ids.iter().map(channel).collect(),
        }
    }

    fn channel_busy(&mut self, ch: usize, now: f64) {
        self.active_since[ch] = now;
    }

    fn channel_idle(&mut self, ch: usize, now: f64) {
        self.channels[ch].busy += now - self.active_since[ch];
    }

    /// The folds `Trace::makespan` would perform over the span this sink
    /// does not keep, plus per-channel byte and flow counts.
    fn phase_end(&mut self, _t: usize, slot: usize, start: f64, now: f64) {
        self.n_spans += 1;
        self.extent.push(start, now);
        if let PhaseIx::Flow { channel, bytes, .. } = self.base.phases[slot] {
            let c = &mut self.channels[channel as usize];
            c.bytes += bytes;
            c.flows += 1;
        }
    }

    fn finish(self, st: &EngineState, pool_nodes: u64) -> SimSummary {
        let n = self.base.n_tasks();
        let mut node_seconds = 0.0;
        for t in 0..n {
            node_seconds += self.base.nodes[t] as f64 * (st.ends[t] - st.starts[t]);
        }
        // Critical-path tail: walk released-by links back from the
        // first task attaining the maximum end time.
        let mut critical_tail = Vec::new();
        let mut critical_tail_len = 0;
        if n > 0 {
            let mut best = 0usize;
            for t in 1..n {
                if st.ends[t] > st.ends[best] {
                    best = t;
                }
            }
            let mut cur = best as u32;
            loop {
                if critical_tail.len() < TAIL_CAP {
                    critical_tail.push(self.workflow.tasks[cur as usize].name.clone());
                }
                critical_tail_len += 1;
                match st.released_by[cur as usize] {
                    DEAD => break,
                    prev => cur = prev,
                }
            }
            // The walk goes end -> root; report in execution order.
            critical_tail.reverse();
        }
        SimSummary {
            makespan: self.extent.makespan(),
            n_tasks: n,
            n_spans: self.n_spans,
            pool_nodes,
            node_seconds,
            channels: self.channels,
            critical_tail_len,
            critical_tail,
        }
    }
}

/// The point sink: a sweep cell's row ([`SweepPoint`]) and nothing
/// else. The makespan folds like the summary's ([`SpanExtent`]); the
/// node-seconds fold in name order, the order of
/// [`SimResult::node_seconds`]'s task table, with the same
/// `Iterator::sum`, so both fields are bit-identical to the full
/// result's.
#[derive(Clone)]
pub(crate) struct PointSink<'a> {
    base: &'a BaseIndex,
    names: &'a NameTable,
    extent: SpanExtent,
}

impl<'a> Sink<'a> for PointSink<'a> {
    type Output = SweepPoint;

    fn new(workflow: &'a WorkflowSpec, _machine_name: &str, base: &'a BaseIndex) -> Self {
        PointSink {
            base,
            names: base.names(workflow),
            extent: SpanExtent::EMPTY,
        }
    }

    fn phase_end(&mut self, _t: usize, _slot: usize, start: f64, now: f64) {
        self.extent.push(start, now);
    }

    fn finish(self, st: &EngineState, pool_nodes: u64) -> SweepPoint {
        let node_seconds = self
            .names
            .by_name
            .iter()
            .map(|&i| {
                let i = i as usize;
                self.base.nodes[i] as f64 * (st.ends[i] - st.starts[i])
            })
            .sum();
        SweepPoint {
            makespan: self.extent.makespan(),
            node_seconds,
            pool_nodes,
        }
    }
}

/// Runs a prebuilt `(base, overlay)` point of `scenario` to completion
/// over the arena's recycled buffers, materializing sink `S`'s output.
pub(crate) fn run_point_in<'a, S: Sink<'a>>(
    scenario: &'a Scenario,
    base: &'a BaseIndex,
    overlay: &'a IndexOverlay,
    arena: &mut SimArena,
) -> Result<S::Output, SimError> {
    let (workflow, opts) = (&scenario.workflow, &scenario.options);
    Engine::<S>::new_in(workflow, &scenario.machine.name, opts, base, overlay, arena).run(arena)
}

/// Where [`Engine::drive`] left a run.
pub(crate) enum Step<'a, S: Sink<'a>> {
    /// The run ended: its sink's output, or the error that stopped it.
    Done(Result<S::Output, SimError>),
    /// Paused at the watch, buffers and all: the checkpoint
    /// [`Engine::resume_with`] copies.
    Paused(Box<Engine<'a, S>>),
}

/// Outcome of [`Engine::advance`].
pub(crate) enum Outcome {
    /// All tasks completed.
    Done,
    /// A flow has joined the watched channel (see [`Engine::with_watch`]);
    /// stopped just before the fair-share solve that would first read
    /// that channel's capacity.
    Paused,
}

/// The optimized event loop.
///
/// The behavior contract is *bit-identical* output to
/// [`crate::reference::simulate_reference`]: same makespan, same trace
/// spans in the same order, same task times, down to the last ulp. That
/// pins several design points:
///
/// * fair-share rates depend on demand *order* (progressive filling
///   accumulates `remaining -= cap` in order), and the reference orders
///   demands by running-vector position — so channel member lists are
///   re-sorted by position before solving, and a channel is marked dirty
///   not only when its membership changes but also when a `swap_remove`
///   relocates one of its members (relocation can reorder demands);
/// * flow ends are cached at rate-change time with the reference's exact
///   expression (`now + remaining / rate`), and the reference caches the
///   same value at the same instants — both engines materialize flow
///   progress only when a solve changes a rate;
/// * the reference's completion scan processes finished entries in
///   position order under `swap_remove` reshuffling — emulated with an
///   ordered pending set and a position-relocation rule;
/// * the reference's start scan examines the sorted ready queue first
///   and zero-phase dependents in append order afterwards — emulated
///   with an index-ordered heap (phase A) plus an append-order deque
///   (phase B). Completing a zero-phase task leaves `free` unchanged, so
///   entries skipped by backfill cannot newly fit and the reference's
///   quadratic `qi = 0` rescan is equivalent to continuing the scan —
///   which is what this engine does.
///
/// The engine borrows its immutable inputs (`base`, `overlay`), which
/// is what the incremental sweep's delta re-simulation uses: run until
/// a flow first joins a watched channel ([`Engine::with_watch`]), pause
/// before the solve that would read it, then copy the paused state per
/// grid point, with a different overlay, into recycled buffers
/// ([`Engine::resume_with`]) and replay only the suffix.
pub(crate) struct Engine<'a, S> {
    opts: &'a SimOptions,
    base: &'a BaseIndex,
    overlay: &'a IndexOverlay,
    /// What the run materializes.
    sink: S,
    /// Every growable buffer, arena-recyclable (see [`SimArena`]).
    st: EngineState,
    free: u64,
    now: f64,
    done: usize,
    /// Channel whose first member join pauses the run (incremental
    /// sweep: until then a contention factor on this channel has only
    /// set the caps of its flows).
    watch: Option<u32>,
    /// Paused after a start scan: the next [`Engine::advance`] resumes
    /// at the fair-share solve.
    at_checkpoint: bool,
}

impl<'a, S: Sink<'a>> Engine<'a, S> {
    /// An engine at time zero over the arena's recycled buffers.
    pub(crate) fn new_in(
        workflow: &'a WorkflowSpec,
        machine_name: &str,
        opts: &'a SimOptions,
        base: &'a BaseIndex,
        overlay: &'a IndexOverlay,
        arena: &mut SimArena,
    ) -> Self {
        let mut st = std::mem::take(&mut arena.state);
        st.reset(base, overlay);
        Engine {
            opts,
            base,
            overlay,
            sink: S::new(workflow, machine_name, base),
            st,
            free: overlay.pool_total,
            now: 0.0,
            done: 0,
            watch: None,
            at_checkpoint: false,
        }
    }

    /// Releases the engine's buffers for arena reuse.
    pub(crate) fn recycle(self) -> EngineState {
        self.st
    }

    /// Arms the watch: [`Engine::advance`] pauses once a flow has joined
    /// `channel`, before the first solve that reads its capacity.
    pub(crate) fn with_watch(mut self, channel: u32) -> Self {
        self.watch = Some(channel);
        self
    }

    fn mark_dirty(&mut self, channel: u32) {
        let ch = channel as usize;
        if !self.st.dirty[ch] {
            self.st.dirty[ch] = true;
            self.st.dirty_list.push(channel);
        }
    }

    /// Spawns phase `pi` of task `ti` at the current time. Inside the
    /// completion scan (`in_scan`), a phase that is already finished at
    /// birth (zero duration within tolerance, or a zero-byte flow) goes
    /// straight onto the pending set so it is processed by the same scan,
    /// exactly where the reference's forward sweep would reach it.
    fn spawn(&mut self, ti: u32, pi: u32, in_scan: bool) {
        let slot = (self.base.phase_off[ti as usize] + pi) as usize;
        let token = self.st.pos_of.len() as u32;
        let pos = self.st.run.len() as u32;
        self.st.pos_of.push(pos);
        match self.base.phases[slot] {
            PhaseIx::Fixed { duration } => {
                let end = self.now + duration;
                if in_scan && end <= self.now + time_eps(self.now) {
                    self.st.pending.push_back(pos);
                } else {
                    self.st.calendar.push(CalEv { end, token });
                }
                self.st.run.push_fixed(token, ti, pi, self.now);
            }
            PhaseIx::Flow {
                channel,
                bytes,
                alloc_base,
                stream_base,
            } => {
                let cap = self.overlay.flow_cap(channel, alloc_base, stream_base);
                let born_done = flow_finished(bytes, 0.0, self.now);
                let member_slot = if in_scan && born_done {
                    self.st.pending.push_back(pos);
                    DEAD
                } else {
                    let ch = channel as usize;
                    let ms = self.st.members[ch].len() as u32;
                    if ms == 0 {
                        self.sink.channel_busy(ch, self.now);
                    }
                    self.st.members[ch].push(token);
                    self.st.joiners[ch].push(token);
                    self.st.cap_sums[ch].add(cap, 1.0);
                    self.mark_dirty(channel);
                    ms
                };
                let end = if born_done {
                    // Born finished but (outside the scan) still a
                    // channel member for one solve round; its completion
                    // is a calendar event at the current time.
                    if !in_scan {
                        self.st.calendar.push(CalEv {
                            end: self.now,
                            token,
                        });
                    }
                    self.now
                } else {
                    f64::INFINITY
                };
                self.st.run.push_flow(
                    token,
                    ti,
                    pi,
                    self.now,
                    channel,
                    bytes,
                    cap,
                    end,
                    member_slot,
                );
            }
        }
    }

    /// Allocates nodes to `ti` and starts it (or completes it instantly
    /// when it has no phases, unblocking dependents into `deferred`).
    fn start_task(&mut self, ti: u32) {
        let t = ti as usize;
        let need = self.base.nodes[t];
        self.free -= need;
        self.st.starts[t] = self.now;
        if self.base.n_phases(t) == 0 {
            // Zero-phase task completes instantly.
            self.st.ends[t] = self.now;
            self.free += need;
            self.done += 1;
            let lo = self.base.dependents_off[t] as usize;
            let hi = self.base.dependents_off[t + 1] as usize;
            for k in lo..hi {
                let d = self.base.dependents[k];
                self.st.dep_count[d as usize] -= 1;
                if self.st.dep_count[d as usize] == 0 {
                    self.st.released_by[d as usize] = ti;
                    self.st.deferred.push_back(d);
                }
            }
        } else {
            self.spawn(ti, 0, false);
        }
    }

    /// Starts ready tasks per policy. Examination order matches the
    /// reference: the sorted ready set first, then tasks unblocked by
    /// zero-phase completions in append order.
    fn start_scan(&mut self) {
        let fifo = self.opts.scheduler == SchedulerPolicy::Fifo;
        let mut blocked = false;
        while let Some(Reverse(ti)) = self.st.ready.pop() {
            if self.base.nodes[ti as usize] <= self.free {
                self.start_task(ti);
            } else if fifo {
                self.st.ready.push(Reverse(ti));
                blocked = true;
                break; // head blocks
            } else {
                self.st.skipped.push(ti); // backfill: try the next
            }
        }
        if !blocked {
            while let Some(ti) = self.st.deferred.pop_front() {
                if self.base.nodes[ti as usize] <= self.free {
                    self.start_task(ti);
                } else if fifo {
                    self.st.deferred.push_front(ti);
                    break;
                } else {
                    self.st.skipped.push(ti);
                }
            }
        }
        // Leftovers wait for the next scan (re-sorted by the heap, as
        // the reference re-sorts its queue).
        while let Some(ti) = self.st.skipped.pop() {
            self.st.ready.push(Reverse(ti));
        }
        while let Some(ti) = self.st.deferred.pop_front() {
            self.st.ready.push(Reverse(ti));
        }
    }

    /// Re-solves fair sharing on channels whose demands changed. Demands
    /// are ordered by running-vector position — the reference's order. A
    /// flow whose rate actually changes has its progress materialized
    /// (`remaining` brought up to date) and its completion time
    /// recomputed and pushed onto the calendar; unchanged rates touch
    /// nothing, so their calendar entries stay valid.
    ///
    /// A channel whose earlier members all run at their caps, and whose
    /// caps, joiners' included, pass [`settles_at_caps`], skips the
    /// solve: it would give every flow exactly its cap in any demand
    /// order, so only the joiners change rate, and leaves and
    /// relocations change nothing. Pushing just the joiners' calendar
    /// events, in join order, leaves results unchanged: the calendar
    /// orders by `(end, token)` and `collect_due` drains into a
    /// position-ordered set.
    fn recompute(&mut self) {
        for di in 0..self.st.dirty_list.len() {
            let ch = self.st.dirty_list[di] as usize;
            self.st.dirty[ch] = false;
            if self.st.members[ch].is_empty() {
                continue;
            }
            if self.st.at_caps[ch] && self.under_capacity(ch) {
                for k in 0..self.st.joiners[ch].len() {
                    let p = self.st.pos_of[self.st.joiners[ch][k] as usize] as usize;
                    let cap = self.st.run.cap[p];
                    if cap != self.st.run.rate[p] {
                        self.set_rate(p, cap);
                    }
                }
                self.st.joiners[ch].clear();
                continue;
            }
            #[cfg(test)]
            {
                self.st.full_solves += 1;
            }
            self.st.demand_scratch.clear();
            for &tok in &self.st.members[ch] {
                let p = self.st.pos_of[tok as usize] as usize;
                self.st.demand_scratch.push(FlowDemand {
                    id: p,
                    cap: self.st.run.cap[p],
                });
            }
            self.st.demand_scratch.sort_unstable_by_key(|d| d.id);
            max_min_rates_into(
                self.overlay.channel_capacity[ch],
                &self.st.demand_scratch,
                &mut self.st.rate_scratch,
                &mut self.st.rates_out,
            );
            let mut at_caps = true;
            for k in 0..self.st.rates_out.len() {
                let fr = self.st.rates_out[k];
                if fr.rate != self.st.run.rate[fr.id] {
                    self.set_rate(fr.id, fr.rate);
                }
                at_caps &= fr.rate == self.st.run.cap[fr.id];
            }
            self.st.at_caps[ch] = at_caps;
            self.st.joiners[ch].clear();
        }
        self.st.dirty_list.clear();
    }

    /// Whether channel `ch`'s member caps pass [`settles_at_caps`],
    /// judged on the running sum plus its drift bound; re-sums first
    /// once the updates since the last re-sum outnumber the members.
    fn under_capacity(&mut self, ch: usize) -> bool {
        if self.st.cap_sums[ch].ops as usize > self.st.members[ch].len() {
            self.resum(ch);
        }
        let c = self.st.cap_sums[ch];
        c.unbounded == 0 && settles_at_caps(c.sum + c.err, self.overlay.channel_capacity[ch])
    }

    /// Recomputes channel `ch`'s cap sum from its members.
    fn resum(&mut self, ch: usize) {
        let members = &self.st.members[ch];
        let mut sum = 0.0;
        let mut unbounded = 0;
        for &tok in members {
            let cap = self.st.run.cap[self.st.pos_of[tok as usize] as usize];
            if cap.is_finite() {
                sum += cap;
            } else {
                unbounded += 1;
            }
        }
        self.st.cap_sums[ch] = CapSum {
            sum,
            err: members.len() as f64 * sum * CapSum::ULP,
            unbounded,
            ops: 0,
        };
    }

    /// Gives the flow at position `i` a new fair-share rate at the
    /// current time: materialises its progress under the old rate,
    /// caches its completion time under the new one and, when finite,
    /// pushes it onto the calendar.
    fn set_rate(&mut self, i: usize, rate: f64) {
        let now = self.now;
        let rem = (self.st.run.remaining[i]
            - self.st.run.rate[i] * (now - self.st.run.last_set[i]))
            .max(0.0);
        self.st.run.remaining[i] = rem;
        self.st.run.last_set[i] = now;
        self.st.run.rate[i] = rate;
        let end = if flow_finished(rem, rate, now) {
            now
        } else if rate > 0.0 {
            now + rem / rate
        } else {
            f64::INFINITY
        };
        self.st.run.end[i] = end;
        if end.is_finite() {
            self.st.calendar.push(CalEv {
                end,
                token: self.st.run.token[i],
            });
        }
    }

    /// Earliest pending completion: the calendar top, after lazily
    /// discarding events for removed entries and superseded flow ends.
    /// Returns infinity when nothing is scheduled (every live flow is
    /// starved).
    fn next_event(&mut self) -> f64 {
        while let Some(top) = self.st.calendar.peek() {
            let pos = self.st.pos_of[top.token as usize];
            if pos == DEAD {
                self.st.calendar.pop();
                continue;
            }
            let p = pos as usize;
            if self.st.run.channel[p] != DEAD && self.st.run.end[p].total_cmp(&top.end).is_ne() {
                self.st.calendar.pop();
                continue;
            }
            return top.end;
        }
        f64::INFINITY
    }

    /// Drains every activity due at the current time into `pending`,
    /// skipping stale calendar entries.
    fn collect_due(&mut self) {
        let threshold = self.now + time_eps(self.now);
        self.st.calendar.drain_due(threshold, &mut self.st.due);
        for ev in self.st.due.drain(..) {
            let pos = self.st.pos_of[ev.token as usize];
            if pos == DEAD {
                continue;
            }
            let p = pos as usize;
            if self.st.run.channel[p] != DEAD && self.st.run.end[p].total_cmp(&ev.end).is_ne() {
                continue; // superseded by a later rate change
            }
            self.st.due_pos.push(pos);
        }
        // A flow can hold two live events at one end (a zero-byte join's
        // own and its first solve's).
        self.st.due_pos.sort_unstable();
        self.st.due_pos.dedup();
        debug_assert!(self.st.pending.is_empty());
        self.st.pending.extend(self.st.due_pos.drain(..));
    }

    /// Processes the pending set in ascending position order, which is
    /// provably the order the reference's forward scan visits finished
    /// entries (`swap_remove` only moves entries from the tail down, so
    /// the scan always reaches the smallest finished position next).
    fn complete_pending(&mut self) {
        while let Some(p) = self.st.pending.pop_front() {
            let i = p as usize;
            // Copy the finished column out before swap_remove overwrites
            // it with the tail entry.
            let token = self.st.run.token[i];
            let task_ix = self.st.run.task[i];
            let phase_ix = self.st.run.phase[i];
            let phase_start = self.st.run.phase_start[i];
            let channel = self.st.run.channel[i];
            let member_slot = self.st.run.member_slot[i];
            let cap = self.st.run.cap[i];
            self.st.run.swap_remove(i);
            self.st.pos_of[token as usize] = DEAD;
            if i < self.st.run.len() {
                // The old tail entry moved into position i.
                let old_last = self.st.run.len() as u32;
                let moved_token = self.st.run.token[i];
                self.st.pos_of[moved_token as usize] = p;
                if self.st.run.channel[i] != DEAD {
                    // Relocation reorders this channel's demand list.
                    self.mark_dirty(self.st.run.channel[i]);
                }
                if self.st.pending.back() == Some(&old_last) {
                    self.st.pending.pop_back();
                    self.st.pending.push_front(p);
                }
            }
            if channel != DEAD && member_slot != DEAD {
                let ch = channel as usize;
                let ms = member_slot as usize;
                self.st.members[ch].swap_remove(ms);
                if ms < self.st.members[ch].len() {
                    let tok = self.st.members[ch][ms] as usize;
                    let q = self.st.pos_of[tok] as usize;
                    self.st.run.member_slot[q] = ms as u32;
                }
                self.mark_dirty(channel);
                if self.st.members[ch].is_empty() {
                    self.st.cap_sums[ch] = CapSum::default();
                    self.st.at_caps[ch] = true;
                    self.st.joiners[ch].clear();
                    self.sink.channel_idle(ch, self.now);
                } else {
                    self.st.cap_sums[ch].add(cap, -1.0);
                }
            }

            let t = task_ix as usize;
            let slot = (self.base.phase_off[t] + phase_ix) as usize;
            self.sink.phase_end(t, slot, phase_start, self.now);
            let next_phase = phase_ix + 1;
            if next_phase < self.base.n_phases(t) {
                self.spawn(task_ix, next_phase, true);
            } else {
                self.st.ends[t] = self.now;
                self.free += self.base.nodes[t];
                self.done += 1;
                let lo = self.base.dependents_off[t] as usize;
                let hi = self.base.dependents_off[t + 1] as usize;
                for k in lo..hi {
                    let d = self.base.dependents[k];
                    self.st.dep_count[d as usize] -= 1;
                    if self.st.dep_count[d as usize] == 0 {
                        self.st.released_by[d as usize] = task_ix;
                        self.st.ready.push(Reverse(d));
                    }
                }
            }
        }
    }

    /// Runs loop bodies until completion, a stall, or — with a watch
    /// armed — the first solve after a flow joins the watched channel.
    pub(crate) fn advance(&mut self) -> Result<Outcome, SimError> {
        let n_tasks = self.base.n_tasks();
        loop {
            if self.at_checkpoint {
                // Resuming: this body's start scan ran before the pause.
                self.at_checkpoint = false;
            } else {
                self.start_scan();
                if self.done == n_tasks {
                    return Ok(Outcome::Done);
                }
                if self.st.run.is_empty() {
                    // Tasks remain but nothing runs and nothing can start.
                    debug_assert!(!self.st.ready.is_empty() || self.done < n_tasks);
                    return Err(SimError::Stalled { at: self.now });
                }
                // A member stays on its channel at least until the next
                // solve, so this sees the first join wherever it happened.
                if self
                    .watch
                    .is_some_and(|ch| !self.st.members[ch as usize].is_empty())
                {
                    self.at_checkpoint = true;
                    return Ok(Outcome::Paused);
                }
            }

            self.recompute();

            let next = self.next_event();
            if !next.is_finite() {
                return Err(SimError::Stalled { at: self.now });
            }
            self.now = next;

            self.collect_due();
            self.complete_pending();
        }
    }

    /// The one driver behind every run: advances until the run ends or
    /// pauses at its watch. An ended run materializes its output (or
    /// stops at its error) and hands its buffers back to `arena`; a
    /// paused engine comes back whole, as a checkpoint.
    pub(crate) fn drive(mut self, arena: &mut SimArena) -> Step<'a, S> {
        let done = match self.advance() {
            Ok(Outcome::Paused) => return Step::Paused(Box::new(self)),
            done => done,
        };
        let output = done.map(|_| self.sink.finish(&self.st, self.overlay.pool_total));
        arena.state = self.st;
        Step::Done(output)
    }

    /// Runs to completion through [`Engine::drive`].
    pub(crate) fn run(self, arena: &mut SimArena) -> Result<S::Output, SimError> {
        match self.drive(arena) {
            Step::Done(output) => output,
            Step::Paused(_) => unreachable!("run() is never called with a watch armed"),
        }
    }

    /// Copies an engine paused by its watch into `arena`'s buffers with
    /// a different overlay, disarmed, ready to replay the suffix
    /// ([`Engine::run`] hands the buffers back to `arena`). Sound only
    /// when the overlays differ in the watched channel's capacity and
    /// factor alone (one sweep column): before the pause no solve has
    /// read that capacity, and the factor has only set the caps of the
    /// channel's members, which are re-derived here with the spawn
    /// expression.
    pub(crate) fn resume_with(&self, overlay: &'a IndexOverlay, arena: &mut SimArena) -> Self {
        let ch = self.watch.expect("resume_with needs a watch-paused engine");
        let mut st = std::mem::take(&mut arena.state);
        st.clone_from(&self.st);
        let mut e = Engine {
            overlay,
            sink: self.sink.clone(),
            st,
            watch: None,
            ..*self
        };
        for &tok in &e.st.members[ch as usize] {
            let p = e.st.pos_of[tok as usize] as usize;
            let slot = (e.base.phase_off[e.st.run.task[p] as usize] + e.st.run.phase[p]) as usize;
            if let PhaseIx::Flow {
                alloc_base,
                stream_base,
                ..
            } = e.base.phases[slot]
            {
                e.st.run.cap[p] = overlay.flow_cap(ch, alloc_base, stream_base);
            }
        }
        // Every member is a joiner still waiting for its first solve.
        debug_assert_eq!(
            e.st.joiners[ch as usize].len(),
            e.st.members[ch as usize].len()
        );
        e.resum(ch as usize);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::{Engine, FullSink, Scenario, SimArena, SimOptions, SimResult, Step};
    use crate::incremental::tests::random_workflow;
    use crate::index::BaseIndex;
    use crate::overlay::IndexOverlay;
    use crate::reference::simulate_reference;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use wrm_core::ids::{EXTERNAL, FILE_SYSTEM};
    use wrm_core::{machines, BytesPerSec, Machine};

    /// Work one full run did: full max–min solves and calendar events
    /// examined.
    struct Work {
        full_solves: u64,
        examined: u64,
    }

    /// Runs `wf` on a `pool`-node machine with a 1 TB/s file system,
    /// asserts the result equals the reference engine's, and reports the
    /// run's work counters.
    fn run_counted(wf: WorkflowSpec, pool: u64) -> (SimResult, Work) {
        let machine = Machine::builder("counted", pool)
            .system(FILE_SYSTEM, "fs", BytesPerSec::gbps(1000.0))
            .build()
            .expect("valid machine");
        let opts = SimOptions::default();
        let base = BaseIndex::build(&machine, &wf).expect("valid workflow");
        let overlay = IndexOverlay::build(&base, &wf, &opts).expect("valid options");
        let mut arena = SimArena::new();
        let eng =
            Engine::<FullSink>::new_in(&wf, &machine.name, &opts, &base, &overlay, &mut arena);
        let result = eng.run(&mut arena).expect("runs");
        let work = Work {
            full_solves: arena.state.full_solves,
            examined: arena.state.calendar.examined,
        };
        let reference = simulate_reference(&Scenario::new(machine, wf).with_options(opts));
        assert_eq!(Ok(&result), reference.as_ref(), "engine vs reference");
        (result, work)
    }

    /// 400 tasks in staggered waves, each streaming 2 GB through the
    /// file system under a 0.5 GB/s cap between two overheads: up to 400
    /// concurrent flows whose caps (200 GB/s) never reach the 1 TB/s
    /// capacity.
    fn capped_waves() -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("capped-waves");
        for i in 0..400 {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 1)
                    .phase(Phase::overhead("stage", f64::from(i % 13)))
                    .phase(Phase::SystemData {
                        resource: FILE_SYSTEM.into(),
                        bytes: 2e9 + f64::from(i % 7) * 1e8,
                        stream_cap: Some(0.5e9),
                    })
                    .phase(Phase::overhead("post", 1.0)),
            );
        }
        wf
    }

    #[test]
    fn channels_under_capacity_never_run_a_full_solve() {
        let (_, work) = run_counted(capped_waves(), 512);
        assert_eq!(work.full_solves, 0);
    }

    #[test]
    fn one_uncapped_flow_brings_full_solves_back() {
        let wf = capped_waves().task(
            TaskSpec::new("uncapped", 1)
                .phase(Phase::overhead("stage", 3.0))
                .phase(Phase::system_data(FILE_SYSTEM, 5e13)),
        );
        let (_, work) = run_counted(wf, 512);
        assert!(
            work.full_solves > 50,
            "{} full solves while an uncapped flow shares the channel",
            work.full_solves
        );
    }

    /// k tasks whose two equal overheads all end at the same two
    /// instants: draining each k-way tie must examine O(k) calendar
    /// events, not the ~k²/2 of popping one event per bucket scan.
    #[test]
    fn identical_ends_drain_in_linear_work() {
        let k = 10_000;
        let mut wf = WorkflowSpec::new("ties");
        for i in 0..k {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 1)
                    .phase(Phase::overhead("a", 2.5))
                    .phase(Phase::overhead("b", 2.5)),
            );
        }
        let (result, work) = run_counted(wf, k);
        assert_eq!(result.makespan, 5.0);
        assert!(
            work.examined <= 8 * k,
            "{} events examined for two {k}-way ties",
            work.examined
        );
    }

    /// The checkpoint contract the incremental sweep relies on: a
    /// watched run pauses with the watched channel joined but not yet
    /// solved (every member still at rate 0), and resuming it on its
    /// own overlay reproduces the cold run bit for bit.
    #[test]
    fn watch_pauses_before_the_first_solve_and_resumes_exactly() {
        let machine = machines::perlmutter_cpu();
        let mut paused = 0;
        for seed in 0..300u64 {
            let resource = if seed % 2 == 0 { EXTERNAL } else { FILE_SYSTEM };
            let wf = random_workflow(seed, 1 + (seed % 24) as usize, &[EXTERNAL, FILE_SYSTEM]);
            let base = BaseIndex::build(&machine, &wf).expect("valid workflow");
            let opts = SimOptions {
                node_limit: Some(64),
                ..SimOptions::default()
            }
            .with_contention(resource, 0.5);
            let Ok(overlay) = IndexOverlay::build(&base, &wf, &opts) else {
                continue;
            };
            let new = || {
                Engine::<FullSink>::new_in(
                    &wf,
                    &machine.name,
                    &opts,
                    &base,
                    &overlay,
                    &mut SimArena::new(),
                )
            };
            let cold = new().run(&mut SimArena::new());
            let ch = base.channel_idx[resource];
            match new().with_watch(ch).drive(&mut SimArena::new()) {
                Step::Paused(eng) => {
                    paused += 1;
                    let members = &eng.st.members[ch as usize];
                    assert!(!members.is_empty(), "seed {seed}: paused without a join");
                    for &tok in members {
                        let p = eng.st.pos_of[tok as usize] as usize;
                        assert_eq!(eng.st.run.rate[p], 0.0, "seed {seed}: solved before pause");
                    }
                    let mut arena = SimArena::new();
                    let resumed = eng.resume_with(&overlay, &mut arena).run(&mut arena);
                    assert_eq!(resumed, cold, "seed {seed}");
                }
                Step::Done(result) => assert_eq!(result, cold, "seed {seed}"),
            }
        }
        assert!(paused > 100, "only {paused} runs paused");
    }
}
