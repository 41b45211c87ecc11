//! Target-zone classification (Fig. 2a): the attainable area divided into
//! four zones by the target-makespan isoline and target-throughput line.
//!
//! * makespan criterion — the workflow's measured makespan
//!   (`total_tasks / tps` at its own x) meets the deadline;
//! * throughput criterion — the dot's y meets the target rate.

use crate::charz::WorkflowCharacterization;
use crate::error::CoreError;
use crate::units::{Seconds, TasksPerSec};
use serde::{Deserialize, Serialize};

/// One of the four zones of Fig. 2a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Zone {
    /// Green: meets both targets.
    GoodMakespanGoodThroughput,
    /// Yellow: deadline met, rate too low.
    GoodMakespanPoorThroughput,
    /// Orange: rate met, deadline missed.
    PoorMakespanGoodThroughput,
    /// Red: misses both.
    PoorMakespanPoorThroughput,
}

impl Zone {
    /// Conventional zone colour from the paper's figure.
    pub fn color(self) -> &'static str {
        match self {
            Zone::GoodMakespanGoodThroughput => "green",
            Zone::GoodMakespanPoorThroughput => "yellow",
            Zone::PoorMakespanGoodThroughput => "orange",
            Zone::PoorMakespanPoorThroughput => "red",
        }
    }
}

/// Zone classification together with the margins to each target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneReport {
    /// The zone the workflow dot falls in.
    pub zone: Zone,
    /// `target_makespan / measured_makespan` (>= 1 means deadline met),
    /// when a makespan target exists.
    pub makespan_margin: Option<f64>,
    /// `measured_tps / target_tps` (>= 1 means rate met), when a
    /// throughput target exists.
    pub throughput_margin: Option<f64>,
}

/// Classifies `workflow` against its recorded targets. A missing target
/// counts as satisfied (the workflow is only judged on what it declares).
///
/// Errors when the workflow has no measured makespan.
pub fn classify(workflow: &WorkflowCharacterization) -> Result<ZoneReport, CoreError> {
    let measured = workflow
        .makespan
        .ok_or_else(|| CoreError::MissingMakespan(workflow.name.clone()))?;
    let tps = workflow.throughput()?;
    Ok(classify_point(
        measured,
        tps,
        workflow.targets.makespan,
        workflow.targets.throughput,
    ))
}

/// Classifies an explicit (makespan, throughput) observation against
/// explicit targets.
pub fn classify_point(
    measured_makespan: Seconds,
    measured_tps: TasksPerSec,
    target_makespan: Option<Seconds>,
    target_tps: Option<TasksPerSec>,
) -> ZoneReport {
    let makespan_margin = target_makespan.map(|t| t.get() / measured_makespan.get());
    let throughput_margin = target_tps.map(|t| measured_tps.get() / t.get());
    let good_m = makespan_margin.is_none_or(|m| m >= 1.0);
    let good_t = throughput_margin.is_none_or(|m| m >= 1.0);
    let zone = match (good_m, good_t) {
        (true, true) => Zone::GoodMakespanGoodThroughput,
        (true, false) => Zone::GoodMakespanPoorThroughput,
        (false, true) => Zone::PoorMakespanGoodThroughput,
        (false, false) => Zone::PoorMakespanPoorThroughput,
    };
    ZoneReport {
        zone,
        makespan_margin,
        throughput_margin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charz::{TargetSpec, WorkflowCharacterization};

    fn wf(makespan_s: f64) -> WorkflowCharacterization {
        WorkflowCharacterization::builder("z")
            .total_tasks(6.0)
            .parallel_tasks(5.0)
            .makespan(Seconds::secs(makespan_s))
            .targets(TargetSpec::new(
                Seconds::secs(600.0),
                TasksPerSec(6.0 / 600.0),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn lcls_good_day_misses_both_2020_targets() {
        // 17 minutes against a 10-minute deadline.
        let r = classify(&wf(1020.0)).unwrap();
        assert_eq!(r.zone, Zone::PoorMakespanPoorThroughput);
        assert_eq!(r.zone.color(), "red");
        assert!(r.makespan_margin.unwrap() < 1.0);
        assert!(r.throughput_margin.unwrap() < 1.0);
    }

    #[test]
    fn fast_run_meets_both() {
        let r = classify(&wf(300.0)).unwrap();
        assert_eq!(r.zone, Zone::GoodMakespanGoodThroughput);
        assert!((r.makespan_margin.unwrap() - 2.0).abs() < 1e-12);
        assert!((r.throughput_margin.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exactly_on_target_counts_as_good() {
        let r = classify(&wf(600.0)).unwrap();
        assert_eq!(r.zone, Zone::GoodMakespanGoodThroughput);
    }

    #[test]
    fn mixed_zones() {
        // Deadline met but a stricter rate target missed (Fig. 2b yellow).
        let r = classify_point(
            Seconds::secs(500.0),
            TasksPerSec(6.0 / 500.0),
            Some(Seconds::secs(600.0)),
            Some(TasksPerSec(0.1)),
        );
        assert_eq!(r.zone, Zone::GoodMakespanPoorThroughput);
        assert_eq!(r.zone.color(), "yellow");

        // Rate met but deadline missed (orange).
        let r = classify_point(
            Seconds::secs(700.0),
            TasksPerSec(0.2),
            Some(Seconds::secs(600.0)),
            Some(TasksPerSec(0.1)),
        );
        assert_eq!(r.zone, Zone::PoorMakespanGoodThroughput);
        assert_eq!(r.zone.color(), "orange");
    }

    #[test]
    fn absent_targets_are_satisfied() {
        let r = classify_point(Seconds::secs(1e9), TasksPerSec(1e-12), None, None);
        assert_eq!(r.zone, Zone::GoodMakespanGoodThroughput);
        assert!(r.makespan_margin.is_none());
        assert!(r.throughput_margin.is_none());
    }

    #[test]
    fn no_makespan_errors() {
        let c = WorkflowCharacterization::builder("x").build().unwrap();
        assert!(classify(&c).is_err());
    }
}
