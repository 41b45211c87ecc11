//! `wrm-benchmark compare`: decides whether a change improved the
//! metric it claims, and whether it worsened any other, from the
//! `results.json` files of alternating parent and change runs.
//!
//! * The claim on one (metric, workload) needs at least ten pairs, the
//!   change winning at least nine in ten of them (ties count for
//!   neither side), and a median gap larger than the parent's own
//!   quartile spread.
//! * Every other end-to-end (metric, workload) must not be worse than
//!   the parent's median by more than its `BENCHMARK.json` bound. Where
//!   the parent's spread is wider than the bound the pair is
//!   `unresolved`, unless every change run beats every parent run.

use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

/// The outcome for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The claimed gain holds.
    Gain,
    /// The claimed gain does not hold.
    NotMet,
    /// Within the bound.
    Ok,
    /// Every change run beats every parent run.
    Better,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NotMet => "not-met",
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether higher is better.
    pub higher: bool,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_owned(),
                higher: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name} has no bound"))?,
            })
        })
        .collect()
}

/// `workload -> metric -> value` of one results file.
pub fn values(results: &Value) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    if let Some(workloads) = results.get("workloads").and_then(Value::as_object) {
        for (w, r) in workloads {
            let metrics = r
                .get("metrics")
                .and_then(Value::as_object)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                        .collect()
                })
                .unwrap_or_default();
            out.insert(w.clone(), metrics);
        }
    }
    out
}

fn better(a: f64, b: f64, higher: bool) -> bool {
    if higher {
        a > b
    } else {
        a < b
    }
}

/// The claim rule on paired runs (`parent[i]` ran next to `change[i]`).
pub fn claim(parent: &[f64], change: &[f64], higher: bool) -> (Verdict, String) {
    let n = parent.len().min(change.len());
    if n < 10 {
        return (
            Verdict::NotMet,
            format!("{n} pair(s); a claim needs at least 10"),
        );
    }
    let wins = (0..n)
        .filter(|&i| better(change[i], parent[i], higher))
        .count();
    let (Some((q1, mp, q3)), Some((_, mc, _))) = (quartiles(parent), quartiles(change)) else {
        return (Verdict::NotMet, "too few runs".into());
    };
    let gap = if higher { mc - mp } else { mp - mc };
    let detail = format!(
        "{wins}/{n} wins, median {mp:.4} -> {mc:.4}, gap {gap:.4} vs parent IQR {:.4}",
        q3 - q1
    );
    if wins * 10 >= 9 * n && gap > q3 - q1 {
        (Verdict::Gain, detail)
    } else {
        (Verdict::NotMet, detail)
    }
}

/// The no-regression rule for one (metric, workload).
pub fn guard(parent: &[f64], change: &[f64], higher: bool, bound: f64) -> (Verdict, f64) {
    let (Some((q1, mp, q3)), Some((_, mc, _))) = (quartiles(parent), quartiles(change)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let worse = if higher {
        (mp - mc) / mp
    } else {
        (mc - mp) / mp
    };
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(c, p, higher)));
    let verdict = if all_better {
        Verdict::Better
    } else if (q3 - q1) / mp.abs() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, -worse)
}

/// A full comparison: the claim (if any) and one row per workload.
pub struct Comparison {
    /// Lines to print.
    pub lines: Vec<String>,
    /// Whether the change passes: no regression, and the claim (if any)
    /// met.
    pub pass: bool,
}

/// Compares parent and change results files under `BENCHMARK.json`.
/// `claim_on` names the claimed `(metric, workload)`.
pub fn compare(
    parents: &[Value],
    changes: &[Value],
    benchmark: &Value,
    claim_on: Option<(&str, &str)>,
) -> Result<Comparison, String> {
    let bounds = bounds(benchmark)?;
    let p: Vec<_> = parents.iter().map(values).collect();
    let c: Vec<_> = changes.iter().map(values).collect();
    let series = |runs: &[BTreeMap<String, BTreeMap<String, f64>>], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get(w)?.get(m).copied())
            .collect()
    };
    let mut lines = Vec::new();
    let mut pass = true;
    if let Some((metric, workload)) = claim_on {
        let higher = crate::metrics::find(metric).map(|d| d.better == "higher");
        let higher = higher.ok_or_else(|| format!("unknown metric `{metric}`"))?;
        let (v, detail) = claim(
            &series(&p, workload, metric),
            &series(&c, workload, metric),
            higher,
        );
        pass &= v == Verdict::Gain;
        lines.push(format!(
            "claim {metric}@{workload}: {} ({detail})",
            v.label()
        ));
    }
    let workloads: Vec<String> = p.iter().chain(&c).flat_map(|r| r.keys().cloned()).collect();
    let workloads: std::collections::BTreeSet<String> = workloads.into_iter().collect();
    for w in &workloads {
        let mut row = format!("{w}:");
        for b in &bounds {
            if claim_on == Some((b.name.as_str(), w.as_str())) {
                continue;
            }
            let (ps, cs) = (series(&p, w, &b.name), series(&c, w, &b.name));
            if ps.is_empty() || cs.is_empty() {
                continue;
            }
            let (v, gain) = guard(&ps, &cs, b.higher, b.bound);
            pass &= v != Verdict::Regression;
            row.push_str(&format!(
                " {} {} ({:+.1}%)",
                b.name,
                v.label(),
                gain * 100.0
            ));
        }
        lines.push(row);
    }
    Ok(Comparison { lines, pass })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(p50: f64, p90: f64, setup: f64) -> Value {
        let text = format!(
            r#"{{"workloads": {{"engine-batch": {{"metrics":
                {{"p50_ms": {p50}, "p90_ms": {p90}, "setup_s": {setup}}}}}}}}}"#
        );
        serde_json::from_str(&text).unwrap()
    }

    fn benchmark() -> Value {
        serde_json::from_str(
            r#"{"end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.05},
                {"name": "p90_ms", "unit": "ms", "better": "lower", "bound": 0.05}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn a_consistent_win_is_a_gain_and_others_are_guarded() {
        let jitter = |i: usize| (i % 3) as f64 * 0.2;
        let parents: Vec<Value> = (0..10)
            .map(|i| results(100.0 + jitter(i), 200.0, 1.0))
            .collect();
        let changes: Vec<Value> = (0..10)
            .map(|i| results(90.0 + jitter(i), 201.0, 1.0))
            .collect();
        let c = compare(
            &parents,
            &changes,
            &benchmark(),
            Some(("p50_ms", "engine-batch")),
        )
        .unwrap();
        assert!(c.pass, "{:?}", c.lines);
        assert!(c.lines[0].contains("gain"), "{}", c.lines[0]);
        assert!(c.lines[1].contains("p90_ms ok"), "{}", c.lines[1]);
    }

    #[test]
    fn a_worsened_metric_is_a_regression() {
        let parents: Vec<Value> = (0..10)
            .map(|i| results(100.0, 200.0 + (i % 2) as f64, 1.0))
            .collect();
        let changes: Vec<Value> = (0..10)
            .map(|i| results(100.0, 240.0 + (i % 2) as f64, 1.0))
            .collect();
        let c = compare(&parents, &changes, &benchmark(), None).unwrap();
        assert!(!c.pass);
        assert!(c.lines[0].contains("p90_ms REGRESSION"), "{}", c.lines[0]);
        assert!(c.lines[0].contains("p50_ms ok"), "{}", c.lines[0]);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            100.0, 140.0, 80.0, 120.0, 95.0, 150.0, 70.0, 110.0, 130.0, 90.0,
        ];
        let parents: Vec<Value> = noisy.iter().map(|&v| results(v, 200.0, 1.0)).collect();
        let changes: Vec<Value> = noisy
            .iter()
            .map(|&v| results(v * 1.1, 200.0, 1.0))
            .collect();
        let c = compare(&parents, &changes, &benchmark(), None).unwrap();
        assert!(c.pass, "unresolved is not a regression");
        assert!(c.lines[0].contains("p50_ms unresolved"), "{}", c.lines[0]);
    }

    #[test]
    fn a_claim_needs_ten_pairs_and_nine_wins() {
        let p = [100.0; 9];
        assert_eq!(claim(&p, &[50.0; 9], false).0, Verdict::NotMet);
        let p = [
            100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0,
        ];
        // Eight wins and two losses: not enough.
        let c = [90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 110.0, 110.0];
        assert_eq!(claim(&p, &c, false).0, Verdict::NotMet);
        // Nine wins, but a gap inside the parent's spread.
        let c = [
            99.5, 99.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 101.0,
        ];
        assert_eq!(claim(&p, &c, false).0, Verdict::NotMet);
        let c = [90.0; 10];
        assert_eq!(claim(&p, &c, false).0, Verdict::Gain);
    }
}
