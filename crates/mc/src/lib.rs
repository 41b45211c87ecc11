//! # wrm-mc — the concurrency facade and model checker
//!
//! Every concurrency-bearing module in the workspace (the vendored
//! crossbeam channel, the serve worker pool / LRU / drain logic, the
//! sweep column claimer) imports its primitives from here instead of
//! `std::sync` / `std::thread`:
//!
//! ```ignore
//! use wrm_mc::sync::{Mutex, Condvar};
//! use wrm_mc::sync::atomic::{AtomicUsize, Ordering};
//! use wrm_mc::thread;
//! ```
//!
//! In a **normal build** these are literal re-exports of the `std`
//! types — zero cost, zero behavior change, nothing but a `use` path.
//!
//! Under **`RUSTFLAGS="--cfg wrm_mc"`** the same paths resolve to
//! shims that, *inside a `model` run*, hand every visible operation
//! (lock, unlock, condvar wait/notify, atomic access, spawn, join,
//! yield) to a cooperative scheduler which:
//!
//! * runs exactly one thread at a time, so a schedule is a sequence of
//!   operation grants;
//! * **exhaustively explores** the bounded interleaving space by DFS
//!   over scheduling decisions, with a preemption bound and classic
//!   sleep-set pruning (Godefroid) to cut partial-order-equivalent
//!   schedules;
//! * detects **deadlocks** (every live thread blocked — this is how a
//!   lost wakeup manifests), **panicking threads** whose panic is not
//!   consumed by a `join`, and **non-termination** (per-schedule step
//!   limit);
//! * on failure prints a deterministic **replay seed**: re-running the
//!   model with `WRM_MC_REPLAY=<seed>` (or `replay`) re-executes
//!   exactly the failing schedule.
//!
//! Outside a model run the `wrm_mc` shims delegate to `std`, so the
//! whole workspace test suite still passes under `--cfg wrm_mc` — only
//! code inside `model(|| ...)` closures is scheduled.
//!
//! The checker explores sequentially-consistent interleavings: relaxed
//! memory-order bugs are out of scope (the nightly ThreadSanitizer CI
//! job covers that axis); lost wakeups, deadlocks, lost/duplicated
//! queue items, and counter drift are squarely in scope.
//!
//! See `docs/CONCURRENCY.md` for the facade rules and workflows.

pub mod fault;

#[cfg(not(wrm_mc))]
mod facade_std;
#[cfg(not(wrm_mc))]
pub use facade_std::{sync, thread};

#[cfg(wrm_mc)]
mod sched;
#[cfg(wrm_mc)]
pub mod shim_sync;
#[cfg(wrm_mc)]
pub mod shim_thread;
#[cfg(wrm_mc)]
pub use sched::{check, model, replay, Config, Failure, FailureKind, Report};
#[cfg(wrm_mc)]
pub use shim_sync as sync;
#[cfg(wrm_mc)]
pub use shim_thread as thread;
