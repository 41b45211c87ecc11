//! Parallel fan-out: the one scoped worker loop behind every batch
//! runner in this crate.
//!
//! Scenario batches ([`run_all`]), sweep grids
//! ([`crate::sweep_grid`], one `(node_limit, policy)` column per job)
//! and Monte-Carlo batches ([`crate::mc_run`], one replication per job)
//! are embarrassingly parallel. All three go through `fan_out`, which
//! hands job indices to scoped workers through a [`ChunkClaim`]. Each
//! worker builds one private state (a warm [`SimArena`], plus a cloned
//! base index for Monte-Carlo) and accumulates `(index, result)` pairs
//! in its own vector — there is no shared results lock — and the
//! driver merges them by index once at join time, so results never
//! depend on the thread count or the schedule. A panic in any worker is
//! re-raised on the caller thread with its original payload.

use crate::engine::{simulate_with_base, Scenario, SimArena, SimError, SimResult};
use crate::index::BaseIndex;
use wrm_mc::sync::atomic::{AtomicUsize, Ordering};

/// Scenarios a [`run_all`] worker claims per counter increment. Small
/// enough to balance uneven scenario costs, large enough that the
/// atomic counter is not contended for sub-millisecond simulations.
const RUN_ALL_CHUNK: usize = 4;

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

/// The fan-out's work-stealing claimer: a shared cursor over `total`
/// job indices, handed out in chunks of `chunk` consecutive indices per
/// atomic increment. Built on the `wrm_mc` facade so the model checker
/// can verify the claiming protocol that sweep columns, [`run_all`]
/// scenarios and Monte-Carlo replications all share: every index is
/// claimed exactly once, no matter how the workers interleave.
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
    /// atomicity, and every job's inputs are shared immutably).
    pub fn next_range(&self) -> Option<std::ops::Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.total {
            return None;
        }
        Some(lo..(lo + self.chunk).min(self.total))
    }
}

/// Runs `work(state, i)` for every job index `i in 0..jobs` on up to
/// `threads` workers (resolved by [`effective_workers`]) and returns
/// the results in index order.
///
/// Each worker calls `init` once and threads that state through every
/// job it claims, `chunk` indices at a time. With one worker the jobs
/// run inline on the caller thread over a single `init()` state —
/// no thread is spawned. A worker panic is re-raised on the caller with
/// its original payload.
pub(crate) fn fan_out<S, T, I, W>(
    jobs: usize,
    threads: usize,
    chunk: usize,
    init: I,
    work: W,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let workers = effective_workers(threads, jobs);
    if workers == 1 {
        let mut state = init();
        return (0..jobs).map(|i| work(&mut state, i)).collect();
    }
    let claim = ChunkClaim::new(jobs, chunk);
    let mut results: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    while let Some(range) = claim.next_range() {
                        for i in range {
                            out.push((i, work(&mut state, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        // A re-raised panic unwinds out of the scope only after every
        // other worker has finished.
        for handle in handles {
            let out = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in out {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job index was claimed"))
        .collect()
}

/// Runs every scenario, using up to `threads` worker threads, and
/// returns the results in input order.
///
/// `threads == 0` means auto (one worker per available CPU); `1` runs
/// inline; explicit counts are capped at the available parallelism
/// ([`effective_workers`]). Each worker simulates over one warm
/// [`SimArena`]. If a worker panics, the panic is propagated to the
/// caller with its original payload.
pub fn run_all(scenarios: &[Scenario], threads: usize) -> Vec<Result<SimResult, SimError>> {
    fan_out(
        scenarios.len(),
        threads,
        RUN_ALL_CHUNK,
        SimArena::new,
        |arena, i| {
            let scenario = &scenarios[i];
            let base = BaseIndex::build(&scenario.machine, &scenario.workflow)?;
            simulate_with_base(scenario, &base, arena)
        },
    )
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
            assert_eq!(s.to_trace(), p.to_trace());
        }
    }

    #[test]
    fn chunk_sizes_do_not_change_results() {
        let square = |_: &mut (), i: usize| i * i;
        let baseline = fan_out(19, 1, 1, || (), square);
        assert_eq!(baseline, (0..19).map(|i| i * i).collect::<Vec<_>>());
        for chunk in [0, 1, 3, 64] {
            assert_eq!(
                fan_out(19, 4, chunk, || (), square),
                baseline,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn chunk_claim_is_exhaustive_inline() {
        let claim = ChunkClaim::new(5, 2);
        let mut all = Vec::new();
        while let Some(r) = claim.next_range() {
            all.extend(r);
        }
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(claim.next_range(), None);
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
            assert_eq!(
                s.as_ref().unwrap().to_trace(),
                a.as_ref().unwrap().to_trace()
            );
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
    fn worker_panic_reraises_its_payload() {
        // A panic inside a worker (not on the caller thread) must come
        // back to the caller with its original payload… (On a 1-CPU
        // host `effective_workers` runs the jobs inline instead.)
        let caught = std::panic::catch_unwind(|| {
            fan_out(
                6,
                2,
                1,
                || (),
                |_: &mut (), i| {
                    assert!(i != 3, "boom at {i}");
                    i
                },
            )
        });
        let payload = caught.expect_err("fan_out must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 3"), "payload: {msg}");
        // …and the next fan-out must still complete normally.
        assert_eq!(
            fan_out(6, 2, 1, || (), |_: &mut (), i| i),
            vec![0, 1, 2, 3, 4, 5]
        );
    }
}
