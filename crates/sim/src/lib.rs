//! # wrm-sim — a discrete-event HPC system simulator
//!
//! The measurement substrate of this reproduction: where the paper runs
//! LCLS, BerkeleyGW, CosmoFlow and GPTune on Perlmutter and Cori, we
//! execute phase-structured workflow specifications ([`WorkflowSpec`])
//! against a machine model (`wrm_core::Machine`) and obtain traces with
//! the same bottleneck structure:
//!
//! * node-local phases (compute, HBM/DRAM/PCIe traffic) run at
//!   efficiency-scaled peak rates of the task's node allocation;
//! * shared-system phases (file system, external links, interconnect)
//!   are fluid flows on shared channels with **max–min fair sharing**
//!   ([`channel`]) — contention emerges, and can also be injected
//!   ([`SimOptions::contention`], the LCLS "bad days");
//! * a Slurm-like FIFO/backfill scheduler allocates nodes
//!   ([`SchedulerPolicy`]);
//! * fixed overhead phases model control flow (bash, python, srun) —
//!   the GPTune pattern.
//!
//! A full result builds a `wrm_trace::Trace` on demand
//! (`SimResult::to_trace`), so simulated runs feed the Workflow Roofline
//! Model exactly like real measurements would.
//!
//! ```
//! use wrm_sim::{simulate, Phase, Scenario, TaskSpec, WorkflowSpec};
//! use wrm_core::{ids, machines};
//!
//! // Five LCLS-like analyses, each pulling 1 TB over a 1 GB/s stream.
//! let mut wf = WorkflowSpec::new("lcls-lite");
//! for i in 0..5 {
//!     wf = wf.task(TaskSpec::new(format!("analyze[{i}]"), 32).phase(
//!         Phase::SystemData {
//!             resource: ids::EXTERNAL.into(),
//!             bytes: 1e12,
//!             stream_cap: Some(1e9),
//!         },
//!     ));
//! }
//! let result = simulate(&Scenario::new(machines::cori_haswell(), wf)).unwrap();
//! assert!((result.makespan - 1000.0).abs() < 1.0); // 1 TB @ 1 GB/s each
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
mod calendar;
pub mod channel;
pub mod engine;
pub mod incremental;
mod index;
pub mod mc;
mod overlay;
#[cfg(any(test, feature = "reference-engine"))]
pub mod reference;
pub mod spec;
pub mod sweep;

pub use bounds::{certify, certify_with_base, Certificate, ChannelFloor, TaskBound, TermBound};
pub use channel::{max_min_rates, max_min_rates_into, FlowDemand, FlowRate, RateScratch};
pub use engine::{
    simulate, simulate_summary, simulate_summary_with_base, simulate_with_base, ChannelSummary,
    Scenario, SchedulerPolicy, SimArena, SimError, SimOptions, SimResult, SimSummary, SweepPoint,
    TaskTime,
};
pub use incremental::{
    plan_columns, sweep_column, sweep_column_points, sweep_grid, sweep_grid_points,
    sweep_grid_with_base, sweep_group_points, IndexedResult, SweepGrid, SweepOutcome, SweepStats,
};
pub use index::BaseIndex;
pub use mc::{mc_run, mc_run_with_base, McOptions, McResult, Percentile};
pub use spec::{Phase, PhaseDist, SpecError, TaskSpec, WorkflowSpec};
pub use sweep::{effective_workers, run_all, ChunkClaim};
