//! # wrm-dag — workflow task graphs for the Workflow Roofline Model
//!
//! Workflow skeletons (paper Fig. 4 / Fig. 9) as DAGs of tasks with node
//! requirements and durations, plus the derived structure the model
//! needs: levels, widths (the "number of parallel tasks"), critical
//! paths, resource-constrained schedules, and Gantt charts (Fig. 7d).
//!
//! ```
//! use wrm_dag::{Dag, list_schedule, GanttChart};
//!
//! // The LCLS skeleton: five 32-node analyses, then a merge.
//! let mut dag = Dag::new("LCLS");
//! let merge = dag.add_task("merge", 1, 20.0).unwrap();
//! for i in 0..5 {
//!     let a = dag.add_task(format!("analyze[{i}]"), 32, 1000.0).unwrap();
//!     dag.add_dep(a, merge).unwrap();
//! }
//! assert_eq!(dag.max_width().unwrap(), 5);
//! assert_eq!(dag.critical_path_length().unwrap(), 2);
//!
//! let schedule = list_schedule(&dag, 2388).unwrap();
//! let gantt = GanttChart::build(&dag, &schedule).unwrap();
//! assert!((gantt.makespan - 1020.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod gantt;
pub mod generate;
pub mod graph;
pub mod profile;
pub mod schedule;

pub use csr::{longest_path_ends, max_coschedulable, resource_work};
pub use gantt::{GanttChart, GanttRow};
pub use graph::{Dag, DagError, Task, TaskId};
pub use profile::{ParallelismProfile, ProfileStep};
pub use schedule::{list_schedule, Schedule, ScheduleError, Span};
