//! # workflow-roofline
//!
//! An end-to-end implementation of the **Workflow Roofline Model** from
//! *“A Workflow Roofline Model for End-to-End Workflow Performance
//! Analysis”* (Ding et al., SC'24), together with everything needed to
//! exercise it without a supercomputer:
//!
//! * [`core`] (re-export of `wrm-core`) — machines, ceilings, walls,
//!   characterizations, bound/zone classification, what-if transforms,
//!   and the optimization advisor;
//! * [`dag`] — workflow skeletons, levels and critical-path lengths,
//!   and the Gantt chart and parallelism profile of a run;
//! * [`sim`] — a discrete-event simulator with max–min fair shared
//!   bandwidth and a Slurm-like scheduler (the measurement substrate);
//! * [`trace`] — lightweight execution traces and their conversion into
//!   roofline characterizations;
//! * [`workflows`] — the paper's four case studies (LCLS, BerkeleyGW,
//!   CosmoFlow, GPTune) as executable models;
//! * [`lang`] — a small workflow-description language;
//! * [`plot`] — SVG/ASCII rendering of every figure in the paper.
//!
//! ## Quickstart
//!
//! ```
//! use workflow_roofline::prelude::*;
//!
//! // 1. Describe a workflow (or load one of the paper's case studies).
//! let bgw = workflow_roofline::workflows::Bgw::si998_64();
//!
//! // 2. Simulate it on the built-in Perlmutter model.
//! let run = simulate(&bgw.scenario()).unwrap();
//!
//! // 3. Put the measured run on its roofline.
//! let model = RooflineModel::build(
//!     &machines::perlmutter_gpu(),
//!     &bgw.characterization(true),
//! ).unwrap();
//!
//! // 4. Interpret: BGW is node-bound at ~42% of the FLOPS ceiling.
//! assert!((model.efficiency().unwrap() - 0.42).abs() < 0.01);
//! assert!((run.makespan - 4184.86).abs() / 4184.86 < 0.02);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wrm_core as core;
pub use wrm_dag as dag;
pub use wrm_lang as lang;
pub use wrm_plot as plot;
pub use wrm_sim as sim;
pub use wrm_trace as trace;
pub use wrm_workflows as workflows;

/// One-stop imports for applications.
pub mod prelude {
    pub use wrm_core::prelude::*;
    pub use wrm_dag::{Dag, GanttChart};
    pub use wrm_lang::compile_source;
    pub use wrm_plot::{ExtraDot, RooflinePlot};
    pub use wrm_sim::{
        simulate, Phase, Scenario, SchedulerPolicy, SimOptions, TaskSpec, WorkflowSpec,
    };
    pub use wrm_trace::{characterize, Structure, Trace};
}
