//! # wrm-core — the Workflow Roofline Model
//!
//! A Rust implementation of the Workflow Roofline Model from
//! *“A Workflow Roofline Model for End-to-End Workflow Performance
//! Analysis”* (Ding et al., SC'24): a coarse-grained roofline that ties a
//! workflow's end-to-end throughput (tasks/second) and makespan to peak
//! node- and system-performance constraints.
//!
//! ## Model in one paragraph
//!
//! A workflow is characterized by its number of **parallel tasks** `x`,
//! its **total tasks**, per-node **FLOP/byte volumes**, and total
//! **system data volumes** ([`WorkflowCharacterization`]). A machine is
//! characterized by per-node peaks and shared-system peaks
//! ([`Machine`], presets in [`machines`]). Combining them yields a
//! [`RooflineModel`]: diagonal node ceilings, horizontal system ceilings,
//! and a vertical parallelism wall; the measured workflow appears as a
//! dot at `(parallel_tasks, total_tasks / makespan)`. The [`analysis`]
//! module classifies the dot (node-/system-/parallelism-bound, target
//! zones) and derives optimization advice; [`taskview`] breaks the
//! workflow into per-task points (Fig. 7c).
//!
//! ## Quick example
//!
//! ```
//! use wrm_core::prelude::*;
//!
//! // BerkeleyGW on Perlmutter GPU, 64 nodes per task (paper Fig. 7a).
//! let machine = machines::perlmutter_gpu();
//! let bgw = WorkflowCharacterization::builder("BerkeleyGW")
//!     .total_tasks(2.0)
//!     .parallel_tasks(1.0)
//!     .nodes_per_task(64)
//!     .makespan(Seconds::secs(4184.86))
//!     .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(4390.0) / 64.0))
//!     .system_volume(ids::FILE_SYSTEM, Bytes::gb(70.0))
//!     .build()
//!     .unwrap();
//! let model = RooflineModel::build(&machine, &bgw).unwrap();
//! assert_eq!(model.parallelism_wall, 28);
//! let eff = model.efficiency().unwrap();
//! assert!((eff - 0.42).abs() < 0.01); // the paper's "42% of node peak"
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod attribution;
pub mod charz;
pub mod dist;
pub mod error;
pub mod fingerprint;
pub mod machine;
pub mod machines;
pub mod projection;
pub mod resource;
pub mod roofline;
pub mod taskview;
pub mod units;

pub use attribution::{classify, classify_terms, BindingStrength, BoundClass};
pub use charz::{CharacterizationBuilder, TargetSpec, WorkflowCharacterization};
pub use dist::Dist;
pub use error::CoreError;
pub use fingerprint::{fingerprint_value, Fnv1a};
pub use machine::{Machine, MachineBuilder, NodeResource, SystemResource};
pub use projection::{across_machines, required_peak, MachineProjection};
pub use resource::{ids, ResourceId, SystemScaling};
pub use roofline::{Ceiling, CeilingKind, RooflineModel, RooflinePoint};
pub use taskview::{TaskCharacterization, TaskPoint, TaskView};
pub use units::{
    Bytes, BytesPerSec, Flops, FlopsPerSec, Rate, Seconds, TasksPerSec, Work, WorkUnit,
};

/// Convenient glob import: `use wrm_core::prelude::*;`.
pub mod prelude {
    pub use crate::analysis::{
        advise, classify_bound, classify_zone, remove_overhead, scale_intra_task_parallelism,
        Advice, Audience, BoundKind, Direction, Zone,
    };
    pub use crate::charz::{TargetSpec, WorkflowCharacterization};
    pub use crate::error::CoreError;
    pub use crate::machine::Machine;
    pub use crate::machines;
    pub use crate::projection::{across_machines, required_peak, MachineProjection};
    pub use crate::resource::{ids, ResourceId, SystemScaling};
    pub use crate::roofline::{Ceiling, CeilingKind, RooflineModel, RooflinePoint};
    pub use crate::taskview::{TaskCharacterization, TaskView};
    pub use crate::units::{
        Bytes, BytesPerSec, Flops, FlopsPerSec, Rate, Seconds, TasksPerSec, Work, WorkUnit,
    };
}
