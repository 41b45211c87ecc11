//! The metric registry: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! metrics with their regression bounds; `wrm-benchmark check` fails if
//! the two disagree.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees, reported by the untraced run of
/// every workload.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("p50_ms", "ms"),
    lower("p90_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, reported by the traced run. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[Def] = &[
    // lang
    lower("lang.parse_ms", "ms"),
    lower("lang.compile_ms", "ms"),
    // lint
    lower("lint.errors_ms", "ms"),
    lower("lint.context_ms", "ms"),
    lower("lint.structure_ms", "ms"),
    lower("lint.channels_ms", "ms"),
    lower("lint.bounds_ms", "ms"),
    lower("lint.makespan_ms", "ms"),
    lower("lint.rules_ms", "ms"),
    // sim engine
    lower("sim.index_ms", "ms"),
    lower("sim.run_full_ms", "ms"),
    lower("sim.run_summary_ms", "ms"),
    lower("sim.materialise_ms", "ms"),
    higher("sim.tasks_per_s", "1/s"),
    lower("render.report_ms", "ms"),
    // exact work counts of the workload's distinct inputs
    higher("sim.tasks", "count"),
    higher("sim.spans", "count"),
    higher("sim.flows", "count"),
    lower("sim.makespan_s", "s"),
    // what-if engines
    lower("sim.sweep_ms", "ms"),
    lower("sim.sweep_column_ms", "ms"),
    higher("sweep.fastpath", "count"),
    lower("sweep.replayed", "count"),
    lower("sweep.cold", "count"),
    higher("sweep.reused", "count"),
    higher("sweep.fastpath_frac", "ratio"),
    lower("sim.mc_ms", "ms"),
    higher("mc.reps", "count"),
    lower("sim.certify_ms", "ms"),
    higher("whatif.evals_per_s", "1/s"),
    // serve, client side (from due time)
    lower("serve.sweep_p50_ms", "ms"),
    lower("serve.simulate_p50_ms", "ms"),
    lower("serve.certify_p50_ms", "ms"),
    lower("serve.mc_p50_ms", "ms"),
    lower("serve.lint_p50_ms", "ms"),
    lower("serve.miss_p50_ms", "ms"),
    // serve, server side (its own per-endpoint latency)
    lower("serve.sweep_server_p50_ms", "ms"),
    lower("serve.simulate_server_p50_ms", "ms"),
    lower("serve.certify_server_p50_ms", "ms"),
    lower("serve.mc_server_p50_ms", "ms"),
    lower("serve.lint_server_p50_ms", "ms"),
    // client p50 minus server p50: connection, queue and transfer wait
    lower("serve.sweep_wait_ms", "ms"),
    lower("serve.simulate_wait_ms", "ms"),
    lower("serve.certify_wait_ms", "ms"),
    lower("serve.mc_wait_ms", "ms"),
    lower("serve.lint_wait_ms", "ms"),
    higher("cache.hits", "count"),
    lower("cache.misses", "count"),
    lower("cache.evictions", "count"),
    higher("cache.hit_frac", "ratio"),
    lower("serve.sweep_resp_bytes", "B"),
    lower("serve.simulate_resp_bytes", "B"),
    lower("serve.certify_resp_bytes", "B"),
    lower("serve.mc_resp_bytes", "B"),
    lower("serve.lint_resp_bytes", "B"),
    lower("serve.miss_resp_bytes", "B"),
    lower("gen.late_p90_ms", "ms"),
    lower("serve.sat_p90_ms", "ms"),
    // in-process replay of one request of each kind
    lower("serve.body_parse_ms", "ms"),
    lower("serve.key_ms", "ms"),
    lower("serve.build_ms", "ms"),
    lower("serve.render_ms", "ms"),
    lower("serve.http_ms", "ms"),
    // cli
    lower("cli.overhead_ms", "ms"),
    // validity of the trace itself
    lower("trace.uncovered_frac", "ratio"),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(find("setup_s").map(|d| d.unit), Some("s"));
    }
}
