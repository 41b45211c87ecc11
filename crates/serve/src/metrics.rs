//! Request instrumentation: latency/path counters for every endpoint.
//!
//! Each request records its endpoint, wall-clock latency, and outcome;
//! sweeps also fold in the incremental engine's evaluation-path mix
//! ([`wrm_sim::SweepStats`]). Snapshots render as Prometheus text
//! (`GET /metrics`) or JSON (`GET /metrics/json`). Latencies go into a
//! per-endpoint reservoir capped at [`RESERVOIR_CAP`] samples; p50/p99
//! are nearest-rank over whatever the reservoir holds.

use crate::cache::IndexCache;
use wrm_mc::sync::atomic::{AtomicU64, Ordering};
use wrm_mc::sync::{Mutex, PoisonError};
use wrm_sim::SweepStats;

/// Max latency samples kept per endpoint; recording stops beyond this
/// (counts keep incrementing), bounding resident memory on long runs.
pub const RESERVOIR_CAP: usize = 100_000;

#[derive(Default)]
struct EndpointStats {
    count: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// Server-wide request counters. Cache counters live on the
/// [`IndexCache`] itself and are joined in at render time.
pub struct Metrics {
    endpoints: Mutex<Vec<(String, EndpointStats)>>,
    replayed: AtomicU64,
    cold: AtomicU64,
    reused: AtomicU64,
    sweep_errors: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            endpoints: Mutex::new(Vec::new()),
            replayed: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            sweep_errors: AtomicU64::new(0),
        }
    }

    /// Records one request against `endpoint`.
    pub fn record(&self, endpoint: &str, latency_us: u64, ok: bool) {
        let mut endpoints = self
            .endpoints
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stats = match endpoints.iter_mut().find(|(name, _)| name == endpoint) {
            Some((_, stats)) => stats,
            None => {
                endpoints.push((endpoint.to_owned(), EndpointStats::default()));
                &mut endpoints.last_mut().expect("just pushed").1
            }
        };
        stats.count += 1;
        if !ok {
            stats.errors += 1;
        }
        if stats.latencies_us.len() < RESERVOIR_CAP {
            stats.latencies_us.push(latency_us);
        }
    }

    /// Folds a sweep's evaluation-path statistics into the totals.
    pub fn absorb_sweep(&self, stats: &SweepStats) {
        self.replayed
            .fetch_add(stats.replayed as u64, Ordering::Relaxed);
        self.cold.fetch_add(stats.cold as u64, Ordering::Relaxed);
        self.reused
            .fetch_add(stats.reused as u64, Ordering::Relaxed);
        self.sweep_errors
            .fetch_add(stats.errors as u64, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition (`GET /metrics`).
    #[must_use]
    pub fn prometheus<V>(&self, cache: &IndexCache<V>) -> String {
        let mut out = String::new();
        {
            let mut endpoints = self
                .endpoints
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (name, stats) in endpoints.iter_mut() {
                out.push_str(&format!(
                    "wrm_requests_total{{endpoint=\"{name}\"}} {}\n",
                    stats.count
                ));
                out.push_str(&format!(
                    "wrm_request_errors_total{{endpoint=\"{name}\"}} {}\n",
                    stats.errors
                ));
                stats.latencies_us.sort_unstable();
                for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "wrm_request_latency_us{{endpoint=\"{name}\",quantile=\"{label}\"}} {}\n",
                        percentile(&stats.latencies_us, q)
                    ));
                }
            }
        }
        out.push_str(&format!("wrm_cache_hits_total {}\n", cache.hits()));
        out.push_str(&format!("wrm_cache_misses_total {}\n", cache.misses()));
        out.push_str(&format!(
            "wrm_cache_evictions_total {}\n",
            cache.evictions()
        ));
        out.push_str(&format!("wrm_cache_entries {}\n", cache.len()));
        for (path, counter) in [
            ("replayed", &self.replayed),
            ("cold", &self.cold),
            ("reused", &self.reused),
            ("error", &self.sweep_errors),
        ] {
            out.push_str(&format!(
                "wrm_sweep_points_total{{path=\"{path}\"}} {}\n",
                counter.load(Ordering::Relaxed)
            ));
        }
        out
    }

    /// Renders the JSON snapshot (`GET /metrics/json`): per-endpoint
    /// p50/p99/mean latency, cache hit rate, sweep path mix.
    #[must_use]
    pub fn snapshot<V>(&self, cache: &IndexCache<V>) -> serde_json::Value {
        let mut endpoint_rows = Vec::new();
        {
            let mut endpoints = self
                .endpoints
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (name, stats) in endpoints.iter_mut() {
                stats.latencies_us.sort_unstable();
                let mean = if stats.latencies_us.is_empty() {
                    0.0
                } else {
                    stats.latencies_us.iter().sum::<u64>() as f64 / stats.latencies_us.len() as f64
                };
                endpoint_rows.push((
                    name.clone(),
                    serde_json::json!({
                        "count": stats.count,
                        "errors": stats.errors,
                        "p50_us": percentile(&stats.latencies_us, 0.5),
                        "p99_us": percentile(&stats.latencies_us, 0.99),
                        "mean_us": mean,
                    }),
                ));
            }
        }
        let (hits, misses) = (cache.hits(), cache.misses());
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        serde_json::json!({
            "endpoints": serde_json::Value::Object(endpoint_rows),
            "cache": serde_json::json!({
                "hits": hits,
                "misses": misses,
                "evictions": cache.evictions(),
                "entries": cache.len() as u64,
                "hit_rate": hit_rate,
            }),
            "sweep_paths": serde_json::json!({
                "replayed": self.replayed.load(Ordering::Relaxed),
                "cold": self.cold.load(Ordering::Relaxed),
                "reused": self.reused.load(Ordering::Relaxed),
                "errors": self.sweep_errors.load(Ordering::Relaxed),
            }),
        })
    }
}

/// Nearest-rank percentile over a sorted sample (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn snapshot_reports_counts_and_paths() {
        let metrics = Metrics::new();
        let cache = IndexCache::<u64>::new(4);
        metrics.record("sweep", 100, true);
        metrics.record("sweep", 300, true);
        metrics.record("simulate", 50, false);
        metrics.absorb_sweep(&SweepStats {
            replayed: 2,
            cold: 1,
            reused: 4,
            ..SweepStats::default()
        });
        let snap = metrics.snapshot(&cache);
        let sweep = snap.get("endpoints").and_then(|e| e.get("sweep")).unwrap();
        assert_eq!(
            sweep.get("count").and_then(serde_json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            sweep.get("p99_us").and_then(serde_json::Value::as_u64),
            Some(300)
        );
        let sim = snap
            .get("endpoints")
            .and_then(|e| e.get("simulate"))
            .unwrap();
        assert_eq!(
            sim.get("errors").and_then(serde_json::Value::as_u64),
            Some(1)
        );
        let paths = snap.get("sweep_paths").unwrap();
        assert_eq!(
            paths.get("reused").and_then(serde_json::Value::as_u64),
            Some(4)
        );
        assert!(paths.get("fastpath").is_none());
        let text = metrics.prometheus(&cache);
        assert!(text.contains("wrm_requests_total{endpoint=\"sweep\"} 2"));
        assert!(text.contains("wrm_sweep_points_total{path=\"replayed\"} 2"));
        assert!(!text.contains("fastpath"));
    }
}
