//! Parallel scenario sweeps: run many simulations across OS threads.
//!
//! Parameter sweeps (CosmoFlow's instance scaling, contention sweeps,
//! scheduler ablations, the `wrm sweep` grids) are embarrassingly
//! parallel; this driver fans scenarios out over a crossbeam scope with
//! a work-stealing chunk index. Each worker accumulates `(index,
//! result)` pairs in its own vector — there is no shared results lock —
//! and the driver merges them once at join time. A panic in any worker
//! (including one raised by a user closure in [`sweep`]) is re-raised on
//! the caller thread with its original payload.

use crate::engine::{simulate_with_base, Scenario, SimArena, SimError, SimResult};
use crate::index::BaseIndex;
use wrm_mc::sync::atomic::{AtomicUsize, Ordering};

/// Default number of scenarios a worker claims per counter increment.
/// Small enough to balance uneven scenario costs, large enough that the
/// atomic counter is not contended for sub-millisecond simulations.
const DEFAULT_CHUNK: usize = 4;

/// Resolves a requested thread count to the worker count actually
/// spawned for `jobs` work units.
///
/// * `requested == 0` means **auto**: one worker per available CPU.
/// * Explicit values are capped at the host's available parallelism —
///   oversubscribing OS threads onto fewer cores never helps a
///   CPU-bound sweep and measurably hurts on small hosts (`--threads 8`
///   ran 0.88x *serial* on a 1-CPU runner before this cap).
/// * Both are capped at `jobs` (no idle workers) and floored at 1.
#[must_use]
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let want = if requested == 0 {
        cores
    } else {
        requested.min(cores)
    };
    want.min(jobs).max(1)
}

/// The sweep's work-stealing column claimer: a shared cursor over
/// `total` work items, handed out in chunks of `chunk` consecutive
/// indices per atomic increment. Extracted from the sweep loop (and
/// built on the `wrm_mc` facade) so the model checker can verify the
/// claiming protocol: every index is claimed exactly once, no matter
/// how the workers interleave.
pub struct ChunkClaim {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl ChunkClaim {
    /// A cursor over `total` indices claimed `chunk` at a time
    /// (`chunk == 0` is treated as 1).
    #[must_use]
    pub fn new(total: usize, chunk: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            total,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk; `None` once the range is exhausted. The
    /// single fetch-add makes each index the property of exactly one
    /// caller (Relaxed suffices: uniqueness comes from the RMW's
    /// atomicity, and the scenarios read through the indices are
    /// shared immutably).
    pub fn next_range(&self) -> Option<std::ops::Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.total {
            return None;
        }
        Some(lo..(lo + self.chunk).min(self.total))
    }
}

/// Runs every scenario, using up to `threads` worker threads, and
/// returns the results in input order.
///
/// `threads == 0` means auto (one worker per available CPU); `1` runs
/// inline; explicit counts are capped at the available parallelism
/// ([`effective_workers`]). If a worker panics, the panic is propagated
/// to the caller with its original payload.
pub fn run_all(scenarios: &[Scenario], threads: usize) -> Vec<Result<SimResult, SimError>> {
    run_all_chunked(scenarios, threads, DEFAULT_CHUNK)
}

/// [`run_all`] with an explicit work-stealing chunk size: each worker
/// claims `chunk` consecutive scenarios per atomic increment. `chunk ==
/// 1` maximizes balance; larger chunks amortize counter traffic when
/// individual simulations are very cheap. `chunk == 0` is treated as 1.
pub fn run_all_chunked(
    scenarios: &[Scenario],
    threads: usize,
    chunk: usize,
) -> Vec<Result<SimResult, SimError>> {
    if scenarios.is_empty() {
        return Vec::new();
    }
    let workers = effective_workers(threads, scenarios.len());
    if workers == 1 {
        let mut arena = SimArena::new();
        return scenarios
            .iter()
            .map(|s| simulate_warm(s, &mut arena))
            .collect();
    }
    let claim = ChunkClaim::new(scenarios.len(), chunk);
    let worker_outputs = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut out: Vec<(usize, Result<SimResult, SimError>)> = Vec::new();
                    // One arena per worker: every simulation after the
                    // first reuses the warmed buffers.
                    let mut arena = SimArena::new();
                    while let Some(range) = claim.next_range() {
                        for i in range {
                            out.push((i, simulate_warm(&scenarios[i], &mut arena)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect::<Vec<_>>()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    let mut results: Vec<Option<Result<SimResult, SimError>>> =
        (0..scenarios.len()).map(|_| None).collect();
    for joined in worker_outputs {
        let out = joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (i, r) in out {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index was simulated"))
        .collect()
}

/// One [`run_all`] scenario over a worker's warm arena.
fn simulate_warm(scenario: &Scenario, arena: &mut SimArena) -> Result<SimResult, SimError> {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow)?;
    simulate_with_base(scenario, &base, arena)
}

/// Sweeps one scenario over a parameter, building each variant with
/// `make`, in parallel. A panicking `make` closure unwinds on the caller
/// thread before any worker starts, so it cannot poison the driver.
pub fn sweep<P: Sync, F>(params: &[P], threads: usize, make: F) -> Vec<Result<SimResult, SimError>>
where
    F: Fn(&P) -> Scenario + Sync,
{
    let scenarios: Vec<Scenario> = params.iter().map(&make).collect();
    run_all(&scenarios, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use wrm_core::machines;

    fn scenario(n_tasks: usize) -> Scenario {
        let mut wf = WorkflowSpec::new(format!("bag{n_tasks}"));
        for i in 0..n_tasks {
            wf = wf.task(TaskSpec::new(format!("t{i}"), 1).phase(Phase::overhead("work", 5.0)));
        }
        Scenario::new(machines::perlmutter_cpu(), wf)
    }

    #[test]
    fn parallel_matches_serial() {
        let scenarios: Vec<Scenario> = (1..10).map(scenario).collect();
        let serial = run_all(&scenarios, 1);
        let parallel = run_all(&scenarios, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            let s = s.as_ref().unwrap();
            let p = p.as_ref().unwrap();
            assert_eq!(s.makespan, p.makespan);
            assert_eq!(s.trace, p.trace);
        }
    }

    #[test]
    fn chunk_sizes_do_not_change_results() {
        let scenarios: Vec<Scenario> = (1..20).map(scenario).collect();
        let baseline = run_all_chunked(&scenarios, 1, 1);
        for chunk in [0, 1, 3, 64] {
            let chunked = run_all_chunked(&scenarios, 4, chunk);
            assert_eq!(chunked.len(), baseline.len());
            for (a, b) in baseline.iter().zip(chunked.iter()) {
                assert_eq!(a.as_ref().unwrap().makespan, b.as_ref().unwrap().makespan);
            }
        }
    }

    #[test]
    fn sweep_builds_variants() {
        let params: Vec<usize> = vec![1, 2, 3, 4];
        let results = sweep(&params, 2, |&n| scenario(n));
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().unwrap();
            assert_eq!(r.task_times.len(), params[i]);
        }
    }

    #[test]
    fn empty_input() {
        assert!(run_all(&[], 8).is_empty());
    }

    #[test]
    fn effective_workers_resolves_auto_and_caps() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // Auto: capped at both the core count and the job count.
        assert_eq!(effective_workers(0, 1), 1);
        assert_eq!(effective_workers(0, usize::MAX), cores);
        // Explicit requests never exceed the available parallelism...
        assert!(effective_workers(1_000_000, 1_000_000) <= cores);
        // ...nor the job count, and never drop to zero.
        assert_eq!(effective_workers(8, 3), 3.min(cores));
        assert_eq!(effective_workers(1, 0), 1);
        assert_eq!(effective_workers(0, 0), 1);
    }

    #[test]
    fn auto_threads_matches_serial() {
        let scenarios: Vec<Scenario> = (1..6).map(scenario).collect();
        let serial = run_all(&scenarios, 1);
        let auto = run_all(&scenarios, 0);
        for (s, a) in serial.iter().zip(auto.iter()) {
            assert_eq!(s.as_ref().unwrap().makespan, a.as_ref().unwrap().makespan);
            assert_eq!(s.as_ref().unwrap().trace, a.as_ref().unwrap().trace);
        }
    }

    #[test]
    fn errors_are_returned_in_place() {
        let mut bad = scenario(1);
        bad.workflow.tasks[0].nodes = 10_000_000;
        let scenarios = vec![scenario(1), bad, scenario(2)];
        let results = run_all(&scenarios, 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn panicking_make_does_not_poison_or_deadlock() {
        // A panicking `make` closure must unwind cleanly out of sweep()…
        let params: Vec<usize> = vec![1, 2, 3];
        let caught = std::panic::catch_unwind(|| {
            sweep(&params, 2, |&n| {
                assert!(n != 2, "boom at {n}");
                scenario(n)
            })
        });
        let payload = caught.expect_err("sweep must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 2"), "payload: {msg}");
        // …and the driver must still work afterwards.
        let results = sweep(&params, 2, |&n| scenario(n));
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(Result::is_ok));
    }
}
