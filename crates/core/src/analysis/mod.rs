//! Interpretation of a built roofline: bound classification (Fig. 3),
//! target zones (Fig. 2a), what-if transforms (Fig. 2b/2c), and the
//! optimization advisor (Section III-C).

pub mod advisor;
pub mod classify;
pub mod whatif;
pub mod zones;

pub use advisor::{advise, Advice, Audience, Direction, Recommendation};
pub use classify::{classify as classify_bound, BoundKind, BoundReport};
pub use whatif::{remove_overhead, scale_intra_task_parallelism};
pub use zones::{classify as classify_zone, classify_point, Zone, ZoneReport};
