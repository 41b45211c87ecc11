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
//! loop never walks the flow set per event. The payoff is twofold: the
//! per-event cost drops from `O(flows)` to `O(log events)`, and an
//! uncontended flow's end becomes a closed-form spawn-time expression —
//! which is what lets the sweep's analytic fast path replace the whole
//! DES with a longest-path computation *bit-exactly* when a sweep point
//! has no contention.

use crate::calendar::{CalEv, CalendarQueue};
use crate::channel::{FlowDemand, FlowRate, RateScratch, Sharing};
use crate::index::{BaseIndex, PhaseIx};
use crate::overlay::IndexOverlay;
use crate::spec::{Phase, SpecError, WorkflowSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use wrm_core::Machine;
use wrm_trace::{SpanKind, Trace, TraceSpan};

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

/// Multiplicative duration noise, for robustness experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Jitter {
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Relative amplitude in `[0, 1)`: each fixed phase duration is
    /// scaled by a factor drawn uniformly from `[1-a, 1+a]`.
    pub amplitude: f64,
}

/// A persistent competing flow on a shared channel, modelling traffic
/// from *other* workflows sharing the system (the source of the paper's
/// LCLS "bad days"). A background flow never completes: it competes for
/// max-min fair bandwidth up to its rate for the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackgroundFlow {
    /// The shared resource it loads.
    pub resource: String,
    /// Its demand ceiling in bytes/s (`f64::INFINITY` = greedy).
    pub rate: f64,
}

/// Simulation options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Usable node count (None = the machine's total; a Some caps it,
    /// modelling queue limits).
    pub node_limit: Option<u64>,
    /// Shared-channel discipline.
    #[serde(skip)]
    pub sharing: Sharing,
    /// Per-resource capacity factors (e.g. `{"ext": 0.2}` for the LCLS
    /// bad days). Factors apply to the channel capacity *and* to phase
    /// stream caps on that channel, matching "the achievable rate drops
    /// 5x" as observed end to end.
    pub contention: BTreeMap<String, f64>,
    /// Optional duration noise.
    pub jitter: Option<Jitter>,
    /// Scheduler policy.
    pub scheduler: SchedulerPolicy,
    /// Persistent competing flows from other workloads.
    pub background: Vec<BackgroundFlow>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            node_limit: None,
            sharing: Sharing::MaxMin,
            contention: BTreeMap::new(),
            jitter: None,
            scheduler: SchedulerPolicy::Fifo,
            background: Vec::new(),
        }
    }
}

impl SimOptions {
    /// Adds a contention factor for one resource.
    pub fn with_contention(mut self, resource: impl Into<String>, factor: f64) -> Self {
        self.contention.insert(resource.into(), factor);
        self
    }

    /// Adds a persistent background flow competing on `resource`.
    pub fn with_background(mut self, resource: impl Into<String>, rate: f64) -> Self {
        self.background.push(BackgroundFlow {
            resource: resource.into(),
            rate,
        });
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

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The execution trace (spans for every phase).
    pub trace: Trace,
    /// End-to-end makespan in seconds.
    pub makespan: f64,
    /// Wall time per task.
    pub task_times: BTreeMap<String, f64>,
    /// Start time per task (after dependencies and node allocation).
    pub task_starts: BTreeMap<String, f64>,
    /// Nodes held per task (echoed from the spec, for accounting).
    pub task_nodes: BTreeMap<String, u64>,
    /// The usable pool size the run was scheduled against.
    pub pool_nodes: u64,
}

impl SimResult {
    /// Total node-seconds of allocation (`sum of nodes x wall time`):
    /// what an accounting system would charge.
    pub fn node_seconds(&self) -> f64 {
        self.task_times
            .iter()
            .map(|(name, t)| *self.task_nodes.get(name).unwrap_or(&1) as f64 * t)
            .sum()
    }

    /// Allocation-weighted pool utilization over the makespan, in
    /// `[0, 1]` for serialized workloads (can be seen as the fraction of
    /// the pool's node-seconds the workflow held).
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.pool_nodes == 0 {
            return 0.0;
        }
        self.node_seconds() / (self.pool_nodes as f64 * self.makespan)
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
#[derive(Debug, Clone, Default)]
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

/// A sorted-vec ordered set of positions. The pending-completion set
/// only ever holds the entries finishing at one instant (usually one or
/// two), so binary-search insertion into a flat vec beats a `BTreeSet`
/// — and, unlike one, it keeps its allocation across arena reuses.
#[derive(Debug, Clone, Default)]
struct OrdSet(Vec<u32>);

impl OrdSet {
    fn insert(&mut self, v: u32) {
        if let Err(i) = self.0.binary_search(&v) {
            self.0.insert(i, v);
        }
    }

    fn remove(&mut self, v: u32) -> bool {
        match self.0.binary_search(&v) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    fn pop_first(&mut self) -> Option<u32> {
        if self.0.is_empty() {
            None
        } else {
            Some(self.0.remove(0))
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Streaming aggregates accumulated during a [`RunMode::Summary`] run,
/// replicating exactly what would be derived from the full result:
/// the makespan folds (`Trace::makespan`'s min-start/max-end over spans,
/// in span order), per-channel busy time (maximal member-presence
/// intervals, closed in chronological order), and per-channel byte and
/// flow counts (accumulated at each flow completion, i.e. in trace
/// order).
#[derive(Debug, Clone, Default)]
struct SummaryAcc {
    span_min_start: f64,
    span_max_end: f64,
    n_spans: u64,
    /// Time each channel's member count last became non-zero.
    active_since: Vec<f64>,
    busy: Vec<f64>,
    bytes: Vec<f64>,
    flows: Vec<u64>,
}

impl SummaryAcc {
    fn reset(&mut self, n_channels: usize) {
        self.span_min_start = f64::INFINITY;
        self.span_max_end = 0.0;
        self.n_spans = 0;
        self.active_since.clear();
        self.active_since.resize(n_channels, 0.0);
        self.busy.clear();
        self.busy.resize(n_channels, 0.0);
        self.bytes.clear();
        self.bytes.resize(n_channels, 0.0);
        self.flows.clear();
        self.flows.resize(n_channels, 0);
    }
}

/// Every growable buffer an engine run needs, grouped so a
/// [`SimArena`] can keep them warm between runs: after the first run of
/// a similar size, the event loop performs no heap allocation at all
/// (the fair-share solver included, via the `rates_into` variants).
#[derive(Debug, Clone, Default)]
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
    /// Ready tasks, popped in task-index order (= the reference's sorted
    /// queue).
    ready: BinaryHeap<Reverse<u32>>,
    /// Tasks unblocked by zero-phase completions mid-scan; examined
    /// after the heap in append order, like the reference's queue tail.
    deferred: VecDeque<u32>,
    /// Backfill scratch: ready tasks that did not fit this scan.
    skipped: Vec<u32>,
    /// Positions of finished-but-unprocessed entries during an event's
    /// completion scan.
    pending: OrdSet,
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
    sum: SummaryAcc,
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
        self.ready.clear();
        for (t, &d) in base.dep_count.iter().enumerate() {
            if d == 0 {
                self.ready.push(Reverse(t as u32));
            }
        }
        self.deferred.clear();
        self.skipped.clear();
        self.pending.clear();
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
        self.sum.reset(n_channels);
    }
}

/// A reusable simulation arena: owns every growable buffer the engine
/// needs, so repeated [`simulate_with_base`] /
/// [`simulate_summary_with_base`] calls (sweeps, Monte-Carlo batches,
/// server workers) stop allocating once the buffers have grown to the
/// workload's high-water mark. Results never depend on what the arena
/// ran before; [`simulate`] and [`simulate_summary`] simply pass a fresh
/// one.
#[derive(Debug, Default)]
pub struct SimArena {
    state: EngineState,
}

impl SimArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What a run materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Full results: a trace span per phase plus per-task maps
    /// ([`SimResult`]).
    #[default]
    Full,
    /// Streaming aggregates only ([`SimSummary`]): O(channels) result
    /// memory and no per-span or per-task materialization — the mode
    /// that lets 1M-task DAGs run in bounded memory.
    Summary,
}

/// Aggregate statistics of a [`RunMode::Summary`] run. Every field is
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
        if self.makespan <= 0.0 || self.pool_nodes == 0 {
            return 0.0;
        }
        self.node_seconds / (self.pool_nodes as f64 * self.makespan)
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

/// Runs the simulation in [`RunMode::Summary`]: streaming aggregates
/// only, O(channels) result memory.
pub fn simulate_summary(scenario: &Scenario) -> Result<SimSummary, SimError> {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow)?;
    simulate_summary_with_base(scenario, &base, &mut SimArena::new())
}

/// [`simulate`] against a prebuilt [`BaseIndex`] and a reusable
/// [`SimArena`] — the hot path of sweeps and of the resident server: an
/// index-cache hit skips spec validation and index compilation entirely
/// and goes straight to overlay construction, and a warm arena makes the
/// run allocation-free.
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
    run_point_in(
        &scenario.workflow,
        &scenario.machine.name,
        &scenario.options,
        base,
        &overlay,
        arena,
    )
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
    run_point_in(
        &scenario.workflow,
        &scenario.machine.name,
        &scenario.options,
        base,
        &overlay,
        arena,
    )
}

/// What a run materializes once it reaches [`Outcome::Done`]; the type
/// picks the [`RunMode`], so a mode and its result cannot mismatch.
pub(crate) trait RunOutput: Sized {
    const MODE: RunMode;
    fn take(engine: &mut Engine<'_>) -> Self;
}

impl RunOutput for SimResult {
    const MODE: RunMode = RunMode::Full;
    fn take(engine: &mut Engine<'_>) -> Self {
        engine.take_result()
    }
}

impl RunOutput for SimSummary {
    const MODE: RunMode = RunMode::Summary;
    fn take(engine: &mut Engine<'_>) -> Self {
        engine.take_summary()
    }
}

/// The one driver every entry point and the incremental sweep's cold
/// path share: builds an [`Engine`] for a prebuilt `(base, overlay)`
/// point over the arena's recycled buffers, runs it to completion, and
/// hands the buffers back to the arena.
pub(crate) fn run_point_in<T: RunOutput>(
    workflow: &WorkflowSpec,
    machine_name: &str,
    opts: &SimOptions,
    base: &BaseIndex,
    overlay: &IndexOverlay,
    arena: &mut SimArena,
) -> Result<T, SimError> {
    let mut engine = Engine::new_in(
        workflow,
        machine_name,
        opts,
        base,
        overlay,
        std::mem::take(&mut arena.state),
        T::MODE,
    );
    let result = match engine.advance() {
        Ok(Outcome::Done) => Ok(T::take(&mut engine)),
        Ok(Outcome::Paused) => unreachable!("no stop_iter set"),
        Err(e) => Err(e),
    };
    arena.state = engine.recycle();
    result
}

/// Outcome of [`Engine::advance`].
pub(crate) enum Outcome {
    /// All tasks completed.
    Done,
    /// Stopped at `stop_iter` with the loop body not yet executed.
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
/// The engine borrows its immutable inputs (`base`, `overlay`) and is
/// `Clone`, which is what the incremental sweep's delta re-simulation
/// uses: run to a chosen loop iteration ([`Engine::pause_at`]), then
/// clone the paused state per grid point with a different overlay
/// ([`Engine::resume_with`]) and replay only the suffix.
#[derive(Clone)]
pub(crate) struct Engine<'a> {
    workflow: &'a WorkflowSpec,
    opts: &'a SimOptions,
    base: &'a BaseIndex,
    overlay: &'a IndexOverlay,
    rng: Option<StdRng>,
    amplitude: f64,
    mode: RunMode,
    /// Every growable buffer, arena-recyclable (see [`SimArena`]).
    st: EngineState,
    free: u64,
    now: f64,
    done: usize,
    trace: Trace,
    /// Channel whose first member join should be recorded (incremental
    /// sweep: the first loop iteration where a contention factor on this
    /// channel can influence the run).
    watch: Option<u32>,
    /// Loop iteration of the first watched-channel join, if any.
    watch_hit: Option<u64>,
    /// Completed loop-body count (the current body's index).
    iter: u64,
    /// Pause before executing this loop body (checkpointing).
    stop_iter: Option<u64>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        workflow: &'a WorkflowSpec,
        machine_name: &'a str,
        opts: &'a SimOptions,
        base: &'a BaseIndex,
        overlay: &'a IndexOverlay,
    ) -> Self {
        Self::new_in(
            workflow,
            machine_name,
            opts,
            base,
            overlay,
            EngineState::default(),
            RunMode::Full,
        )
    }

    /// [`Engine::new`] over recycled buffers (see [`SimArena`]), in an
    /// explicit run mode.
    pub(crate) fn new_in(
        workflow: &'a WorkflowSpec,
        machine_name: &'a str,
        opts: &'a SimOptions,
        base: &'a BaseIndex,
        overlay: &'a IndexOverlay,
        mut state: EngineState,
        mode: RunMode,
    ) -> Self {
        state.reset(base, overlay);
        Engine {
            workflow,
            opts,
            base,
            overlay,
            rng: opts.jitter.map(|j| StdRng::seed_from_u64(j.seed)),
            amplitude: opts.jitter.map_or(0.0, |j| j.amplitude),
            mode,
            st: state,
            free: overlay.pool_total,
            now: 0.0,
            done: 0,
            trace: Trace::new(workflow.name.clone(), machine_name.to_string()),
            watch: None,
            watch_hit: None,
            iter: 0,
            stop_iter: None,
        }
    }

    /// Releases the engine's buffers for arena reuse.
    pub(crate) fn recycle(self) -> EngineState {
        self.st
    }

    /// Arms the watch: records the first loop iteration at which a flow
    /// joins `channel` (i.e. the first time that channel's capacity or
    /// cap factor can influence the run).
    pub(crate) fn with_watch(mut self, channel: u32) -> Self {
        self.watch = Some(channel);
        self
    }

    /// One multiplicative jitter factor; the draw sequence matches the
    /// reference (one draw per non-zero-phase phase spawn).
    fn jitter(&mut self) -> f64 {
        match self.rng.as_mut() {
            Some(r) => 1.0 + self.amplitude * r.random_range(-1.0..=1.0),
            None => 1.0,
        }
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
    fn spawn(&mut self, ti: u32, pi: u32, jf: f64, in_scan: bool) {
        let slot = (self.base.phase_off[ti as usize] + pi) as usize;
        let token = self.st.pos_of.len() as u32;
        let pos = self.st.run.len() as u32;
        self.st.pos_of.push(pos);
        match self.base.phases[slot] {
            PhaseIx::Fixed { duration } => {
                let end = self.now + duration * jf;
                if in_scan && end <= self.now + time_eps(self.now) {
                    self.st.pending.insert(pos);
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
                let f = self.overlay.channel_factor[channel as usize];
                let cap = (alloc_base * f).min(stream_base * f);
                let born_done = flow_finished(bytes, 0.0, self.now);
                let member_slot = if in_scan && born_done {
                    self.st.pending.insert(pos);
                    DEAD
                } else {
                    if self.watch == Some(channel) && self.watch_hit.is_none() {
                        self.watch_hit = Some(self.iter);
                    }
                    let ms = self.st.members[channel as usize].len() as u32;
                    if self.mode == RunMode::Summary && ms == 0 {
                        // Channel going idle -> busy: open an interval.
                        self.st.sum.active_since[channel as usize] = self.now;
                    }
                    self.st.members[channel as usize].push(token);
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
            let jf = self.jitter();
            self.spawn(ti, 0, jf, false);
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
    fn recompute(&mut self) {
        let sharing = self.opts.sharing;
        let now = self.now;
        for di in 0..self.st.dirty_list.len() {
            let ch = self.st.dirty_list[di] as usize;
            self.st.dirty[ch] = false;
            if self.st.members[ch].is_empty() {
                continue;
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
            let first_bg = self.st.demand_scratch.len();
            for (k, &rate) in self.overlay.background[ch].iter().enumerate() {
                self.st.demand_scratch.push(FlowDemand {
                    id: usize::MAX - k,
                    cap: rate,
                });
            }
            sharing.rates_into(
                self.overlay.channel_capacity[ch],
                &self.st.demand_scratch,
                &mut self.st.rate_scratch,
                &mut self.st.rates_out,
            );
            for k in 0..first_bg {
                let fr = self.st.rates_out[k];
                let i = fr.id;
                if fr.rate != self.st.run.rate[i] {
                    let rem = (self.st.run.remaining[i]
                        - self.st.run.rate[i] * (now - self.st.run.last_set[i]))
                        .max(0.0);
                    self.st.run.remaining[i] = rem;
                    self.st.run.last_set[i] = now;
                    self.st.run.rate[i] = fr.rate;
                    let end = if flow_finished(rem, fr.rate, now) {
                        now
                    } else if fr.rate > 0.0 {
                        now + rem / fr.rate
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
            }
        }
        self.st.dirty_list.clear();
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

    /// Pops every activity due at the current time into `pending`,
    /// skipping stale calendar entries.
    fn collect_due(&mut self) {
        let threshold = self.now + time_eps(self.now);
        while let Some(top) = self.st.calendar.peek() {
            // `!(<=)` rather than `>` so a NaN end stops the scan instead
            // of being popped as complete, matching the reference loop.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let not_due = !(top.end <= threshold);
            if not_due {
                break;
            }
            let ev = self.st.calendar.pop().expect("peeked");
            let pos = self.st.pos_of[ev.token as usize];
            if pos == DEAD {
                continue;
            }
            let p = pos as usize;
            if self.st.run.channel[p] != DEAD && self.st.run.end[p].total_cmp(&ev.end).is_ne() {
                continue; // superseded by a later rate change
            }
            self.st.pending.insert(pos);
        }
    }

    /// Processes the pending set in ascending position order, which is
    /// provably the order the reference's forward scan visits finished
    /// entries (`swap_remove` only moves entries from the tail down, so
    /// the scan always reaches the smallest finished position next).
    fn complete_pending(&mut self) {
        while let Some(p) = self.st.pending.pop_first() {
            let i = p as usize;
            // Copy the finished column out before swap_remove overwrites
            // it with the tail entry.
            let token = self.st.run.token[i];
            let task_ix = self.st.run.task[i];
            let phase_ix = self.st.run.phase[i];
            let phase_start = self.st.run.phase_start[i];
            let channel = self.st.run.channel[i];
            let member_slot = self.st.run.member_slot[i];
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
                if self.st.pending.remove(old_last) {
                    self.st.pending.insert(p);
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
                if self.mode == RunMode::Summary && self.st.members[ch].is_empty() {
                    // Channel going busy -> idle: close the interval.
                    self.st.sum.busy[ch] += self.now - self.st.sum.active_since[ch];
                }
            }

            let t = task_ix as usize;
            match self.mode {
                RunMode::Full => {
                    let task = &self.workflow.tasks[t];
                    let phase = &task.phases[phase_ix as usize];
                    self.trace.push(TraceSpan::new(
                        task.name.clone(),
                        span_kind(phase),
                        phase_start,
                        self.now,
                        task.nodes,
                    ));
                }
                RunMode::Summary => {
                    // The folds `Trace::makespan` would perform over the
                    // span this branch does not emit, plus per-channel
                    // byte/flow accounting.
                    self.st.sum.n_spans += 1;
                    self.st.sum.span_min_start = self.st.sum.span_min_start.min(phase_start);
                    self.st.sum.span_max_end = self.st.sum.span_max_end.max(self.now);
                    if channel != DEAD {
                        let slot = (self.base.phase_off[t] + phase_ix) as usize;
                        if let PhaseIx::Flow { bytes, .. } = self.base.phases[slot] {
                            self.st.sum.bytes[channel as usize] += bytes;
                            self.st.sum.flows[channel as usize] += 1;
                        }
                    }
                }
            }
            let next_phase = phase_ix + 1;
            if next_phase < self.base.n_phases(t) {
                let jf = self.jitter();
                self.spawn(task_ix, next_phase, jf, true);
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

    /// Runs loop bodies until completion, a stall, or `stop_iter`.
    pub(crate) fn advance(&mut self) -> Result<Outcome, SimError> {
        let n_tasks = self.base.n_tasks();
        loop {
            if self.stop_iter == Some(self.iter) {
                return Ok(Outcome::Paused);
            }
            self.start_scan();
            if self.done == n_tasks {
                return Ok(Outcome::Done);
            }
            if self.st.run.is_empty() {
                // Tasks remain but nothing runs and nothing can start.
                debug_assert!(!self.st.ready.is_empty() || self.done < n_tasks);
                return Err(SimError::Stalled { at: self.now });
            }

            self.recompute();

            let next = self.next_event();
            if !next.is_finite() {
                return Err(SimError::Stalled { at: self.now });
            }
            self.now = next;

            self.collect_due();
            self.complete_pending();
            self.iter += 1;
        }
    }

    /// Materializes the final [`SimResult`] after [`Outcome::Done`],
    /// leaving the engine's buffers recyclable. One name-sorted pass
    /// fills all three key/value streams, then `BTreeMap::from_iter`
    /// bulk-builds each tree from its pre-sorted stream in O(n) —
    /// repeated B-tree inserts in random name order are measurably
    /// slower on sweep-sized results.
    pub(crate) fn take_result(&mut self) -> SimResult {
        let makespan = self.trace.makespan();
        let tasks = &self.workflow.tasks;
        let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| tasks[a as usize].name.cmp(&tasks[b as usize].name));
        let mut starts_kv = Vec::with_capacity(order.len());
        let mut times_kv = Vec::with_capacity(order.len());
        let mut nodes_kv = Vec::with_capacity(order.len());
        for &i in &order {
            let i = i as usize;
            let name = &tasks[i].name;
            starts_kv.push((name.clone(), self.st.starts[i]));
            times_kv.push((name.clone(), self.st.ends[i] - self.st.starts[i]));
            nodes_kv.push((name.clone(), tasks[i].nodes));
        }
        SimResult {
            trace: std::mem::replace(&mut self.trace, Trace::new(String::new(), String::new())),
            makespan,
            task_times: BTreeMap::from_iter(times_kv),
            task_starts: BTreeMap::from_iter(starts_kv),
            task_nodes: BTreeMap::from_iter(nodes_kv),
            pool_nodes: self.overlay.pool_total,
        }
    }

    /// Materializes the [`SimSummary`] of a [`RunMode::Summary`] run
    /// after [`Outcome::Done`].
    pub(crate) fn take_summary(&mut self) -> SimSummary {
        let sum = &self.st.sum;
        let makespan = if sum.span_min_start.is_finite() {
            sum.span_max_end - sum.span_min_start
        } else {
            0.0
        };
        let n = self.base.n_tasks();
        let mut node_seconds = 0.0;
        for t in 0..n {
            node_seconds += self.base.nodes[t] as f64 * (self.st.ends[t] - self.st.starts[t]);
        }
        let channels = self
            .base
            .channel_ids
            .iter()
            .enumerate()
            .map(|(ci, id)| ChannelSummary {
                resource: id.clone(),
                busy: sum.busy[ci],
                bytes: sum.bytes[ci],
                flows: sum.flows[ci],
            })
            .collect();
        // Critical-path tail: walk released-by links back from the
        // first task attaining the maximum end time.
        let mut critical_tail = Vec::new();
        let mut critical_tail_len = 0;
        if n > 0 {
            let mut best = 0usize;
            for t in 1..n {
                if self.st.ends[t] > self.st.ends[best] {
                    best = t;
                }
            }
            let mut cur = best as u32;
            loop {
                if critical_tail.len() < TAIL_CAP {
                    critical_tail.push(self.workflow.tasks[cur as usize].name.clone());
                }
                critical_tail_len += 1;
                match self.st.released_by[cur as usize] {
                    DEAD => break,
                    prev => cur = prev,
                }
            }
            // The walk goes end -> root; report in execution order.
            critical_tail.reverse();
        }
        SimSummary {
            makespan,
            n_tasks: n,
            n_spans: sum.n_spans,
            pool_nodes: self.overlay.pool_total,
            node_seconds,
            channels,
            critical_tail_len,
            critical_tail,
        }
    }

    /// Runs to completion.
    pub(crate) fn run(mut self) -> Result<SimResult, SimError> {
        match self.advance()? {
            Outcome::Done => Ok(self.take_result()),
            Outcome::Paused => unreachable!("run() is never called with stop_iter set"),
        }
    }

    /// Runs to completion, also reporting the loop iteration of the
    /// first watched-channel join (see [`Engine::with_watch`]).
    pub(crate) fn run_watched(mut self) -> (Result<SimResult, SimError>, Option<u64>) {
        match self.advance() {
            Err(e) => {
                let hit = self.watch_hit;
                (Err(e), hit)
            }
            Ok(_) => {
                let hit = self.watch_hit;
                (Ok(self.take_result()), hit)
            }
        }
    }

    /// Runs loop bodies `0..iter` and pauses, returning the checkpointed
    /// engine. The checkpoint is taken *before* body `iter` executes.
    pub(crate) fn pause_at(mut self, iter: u64) -> Result<Engine<'a>, SimError> {
        self.stop_iter = Some(iter);
        self.advance()?;
        Ok(self)
    }

    /// Clones a paused engine with a different overlay and clears the
    /// pause, ready to replay the suffix. Sound only when the prefix up
    /// to the pause provably does not depend on the parts of the overlay
    /// that differ (the incremental sweep guarantees this via the
    /// watched-channel first-join iteration).
    pub(crate) fn resume_with(&self, overlay: &'a IndexOverlay) -> Engine<'a> {
        let mut e = self.clone();
        e.overlay = overlay;
        e.stop_iter = None;
        e
    }
}

pub(crate) fn span_kind(phase: &Phase) -> SpanKind {
    match phase {
        Phase::Compute { flops, .. } => SpanKind::Compute { flops: *flops },
        Phase::NodeData {
            resource, bytes, ..
        } => SpanKind::NodeData {
            resource: resource.clone(),
            bytes: *bytes,
        },
        Phase::SystemData {
            resource, bytes, ..
        } => SpanKind::SystemData {
            resource: resource.clone(),
            bytes: *bytes,
        },
        Phase::Overhead { label, .. } => SpanKind::Overhead {
            label: label.clone(),
        },
    }
}
