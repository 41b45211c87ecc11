//! Allocation counts of a full-result run, a summary run and sweep
//! columns of rows and of full results on a warm base and arena.
//!
//! A counting global allocator sees every allocation in this test
//! binary, so the file holds exactly one test: no other test thread can
//! add to the count. Allocation counts do not jitter, so a change in
//! what a full result copies, or in what a summary run allocates per
//! run, shows here even where wall-clock timings disagree run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wrm_core::{ids, machines};
use wrm_dag::generate::random_layered_tasks;
use wrm_sim::{
    simulate_summary_with_base, simulate_with_base, sweep_column, sweep_column_points, BaseIndex,
    Phase, Scenario, SchedulerPolicy, SimArena, SweepGrid, TaskSpec, WorkflowSpec,
};

/// Counts `alloc` and `realloc` calls; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a warm full run of the test's spec makes: the span-row
/// buffer, the workflow and machine names, the task table (one row per
/// task, each name an `Arc` clone) and a few per-run buffers, the
/// overlay's channel tables among them. With three name-keyed B-trees
/// in place of the table it made 564. Keeping spans as rows left the
/// count at 7.
const FULL_BUDGET: usize = 7;

/// Allocations a warm summary run of the test's spec may make: the
/// count measured once the calendar kept its buckets across resizes
/// (O(channels) plus the critical tail's names; 286 before).
const SUMMARY_BUDGET: usize = 44;

/// Allocations a warm 4-cell column of sweep rows may make (one cold
/// run, three replays): the measured count once each replay copies the
/// checkpoint into the arena's recycled replay buffers (615 while every
/// replay cloned them afresh).
const POINT_COLUMN_BUDGET: usize = 24;

/// Allocations the same warm column makes as full results: the rows'
/// count plus each cell's span rows, names and task table (2,271 while
/// each result built three B-trees, 43 while each checkpoint copy
/// cloned a `Trace` with its two names).
const FULL_COLUMN_BUDGET: usize = 41;

#[test]
fn warm_runs_allocate_their_pinned_counts() {
    let n_tasks = 2000;
    let tasks = random_layered_tasks(7, n_tasks, 64, 8, 30.0);
    let mut wf = WorkflowSpec::new("alloc-budget");
    for (i, t) in tasks.iter().enumerate() {
        let mut spec = TaskSpec::new(&t.name, t.nodes).phase(Phase::overhead("setup", t.duration));
        if i % 4 == 0 {
            spec = spec.phase(Phase::system_data(ids::FILE_SYSTEM, 1e10));
        }
        for &d in &t.deps {
            spec = spec.after(tasks[d].name.clone());
        }
        wf = wf.task(spec);
    }
    let scenario = Scenario::new(machines::perlmutter_cpu(), wf);
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow).expect("builds");
    let mut arena = SimArena::new();
    let warm = simulate_with_base(&scenario, &base, &mut arena).expect("runs");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = simulate_with_base(&scenario, &base, &mut arena).expect("runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(result, warm);
    assert_eq!(result.task_times.len(), n_tasks);
    assert_eq!(
        allocations, FULL_BUDGET,
        "allocations of a warm {n_tasks}-task full run"
    );
    // The materialized trace's names are the task table's allocations.
    for span in &result.to_trace().spans {
        let row = result
            .task(&span.task)
            .expect("every span's task has a row");
        assert!(
            Arc::ptr_eq(&row.name, &span.task),
            "{} is a copy",
            span.task
        );
    }

    // The summary path on the same warm arena: the calendar keeps its
    // buckets, so what is left is the summary itself, O(channels) plus
    // the critical tail's names, never O(tasks).
    let warm = simulate_summary_with_base(&scenario, &base, &mut arena).expect("runs");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = simulate_summary_with_base(&scenario, &base, &mut arena).expect("runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(summary, warm);
    assert!(
        allocations <= SUMMARY_BUDGET,
        "{allocations} allocations for a {n_tasks}-task summary run"
    );

    // A warm sweep column over the `fs` factor: one cold run paused at
    // the first `fs` join, then a replay per further factor.
    let grid = SweepGrid {
        resource: Some(ids::FILE_SYSTEM.into()),
        factors: vec![0.5, 1.0, 2.0, 4.0],
        node_limits: vec![None],
        policies: vec![SchedulerPolicy::Fifo],
    };
    let count = |arena: &mut SimArena, points: bool| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = if points {
            sweep_column_points(&scenario, &grid, &base, 0, 0, arena).1
        } else {
            sweep_column(&scenario, &grid, &base, 0, 0, arena).1
        };
        (ALLOCATIONS.load(Ordering::Relaxed) - before, stats)
    };
    count(&mut arena, true);
    let (points, stats) = count(&mut arena, true);
    let (full, full_stats) = count(&mut arena, false);
    assert_eq!(stats, full_stats);
    assert_eq!((stats.cold, stats.replayed), (1, 3), "{stats:?}");
    assert!(
        points <= POINT_COLUMN_BUDGET && points < full,
        "{points} allocations for a column of rows, {full} for full results"
    );
    assert_eq!(
        full, FULL_COLUMN_BUDGET,
        "allocations of a column of full results"
    );
}
