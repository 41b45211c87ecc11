//! # wrm-dag — workflow task graphs for the Workflow Roofline Model
//!
//! Workflow skeletons (paper Fig. 4 / Fig. 9) as DAGs of tasks with node
//! requirements and durations, plus the derived structure the model
//! needs: levels and widths (the "number of parallel tasks"), and the
//! Gantt chart (Fig. 7d) and parallelism profile of a run, drawn from
//! each task's `(start, end)` interval in that run.
//!
//! ```
//! use wrm_dag::{Dag, GanttChart};
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
//! // A run in which the analyses went in two waves (merge is task 0).
//! let mut intervals = vec![(2000.0, 2020.0)];
//! intervals.extend((0..5).map(|i| if i < 3 { (0.0, 1000.0) } else { (1000.0, 2000.0) }));
//! let gantt = GanttChart::build(&dag, &intervals).unwrap();
//! assert_eq!(gantt.makespan, 2020.0);
//! // The run's critical chain: the last analysis to finish, then merge.
//! assert_eq!(gantt.critical_path.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod gantt;
pub mod generate;
pub mod graph;
pub mod profile;

pub use csr::{longest_path_ends, max_coschedulable, resource_work};
pub use gantt::{GanttChart, GanttRow};
pub use graph::{Dag, DagError, Task, TaskId};
pub use profile::{ParallelismProfile, ProfileStep};
