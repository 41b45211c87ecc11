//! `.wrm` emission: turns an in-memory [`Scenario`] into source text, so
//! the CLI and the server can be fed the same seeded DAGs the engine
//! benches build in memory (WfBench-style generated inputs).
//!
//! Every number prints in Rust's shortest round-trip form with a
//! base-unit suffix (`s`, `B`, `B/s`, `FLOP`), which the lexer scales by
//! exactly 1.0, so the compiled spec carries the same `f64` bits as the
//! in-memory one. Names the language cannot spell (`t[3.17]`) are mapped
//! to identifiers (`t_3.17`); the mapping must stay injective.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use wrm_core::{Dist, Rate, SystemScaling};
use wrm_sim::{Phase, Scenario, SimOptions};

/// Emits `scenario` as `.wrm` source: an inline machine block, then the
/// workflow with one line per task. Errors when the scenario carries
/// something the language cannot express (non-default simulation
/// options, non-finite numbers, names that collide once sanitised).
pub fn to_wrm(scenario: &Scenario) -> Result<String, String> {
    if scenario.options != SimOptions::default() {
        return Err("only default simulation options can be written as .wrm".into());
    }
    let m = &scenario.machine;
    let machine = ident(&m.name)?;
    let mut out = format!("machine {machine} {{\n  nodes {}\n", m.total_nodes);
    for r in &m.node_resources {
        let (v, unit) = match r.peak_per_node {
            Rate::BytesPerSec(b) => (b.get(), "B/s"),
            Rate::FlopsPerSec(f) => (f.get(), "FLOPS"),
        };
        writeln!(out, "  node {} {}{unit}", ident(r.id.as_str())?, num(v)?).expect("string");
    }
    for r in &m.system_resources {
        let kw = match r.scaling {
            SystemScaling::Aggregate => "system",
            SystemScaling::PerNodeInUse => "system_per_node",
        };
        writeln!(
            out,
            "  {kw} {} {}B/s",
            ident(r.id.as_str())?,
            num(r.peak.get())?
        )
        .expect("string");
    }
    let wf = &scenario.workflow;
    writeln!(out, "}}\nworkflow {} on {machine} {{", ident(&wf.name)?).expect("string");

    let mut seen = BTreeSet::new();
    for t in &wf.tasks {
        let name = ident(&t.name)?;
        if !seen.insert(name.clone()) {
            return Err(format!("task names collide as `{name}`"));
        }
        write!(out, "  task {name} {{ nodes {}", t.nodes).expect("string");
        for (i, phase) in t.phases.iter().enumerate() {
            let dist = t
                .dists
                .iter()
                .find(|d| d.phase as usize == i)
                .map(|d| &d.dist);
            out.push(' ');
            out.push_str(&phase_stmt(phase, dist)?);
        }
        for dep in &t.after {
            write!(out, " after {}", ident(dep)?).expect("string");
        }
        out.push_str(" }\n");
    }
    out.push_str("}\n");
    Ok(out)
}

fn phase_stmt(phase: &Phase, dist: Option<&Dist>) -> Result<String, String> {
    Ok(match phase {
        Phase::Compute { flops, efficiency } => format!(
            "compute {} eff {}",
            quantity(*flops, dist, "FLOP")?,
            num(*efficiency)?
        ),
        Phase::NodeData {
            resource,
            bytes,
            efficiency,
        } => format!(
            "node_bytes {} {} eff {}",
            ident(resource)?,
            quantity(*bytes, dist, "B")?,
            num(*efficiency)?
        ),
        Phase::SystemData {
            resource,
            bytes,
            stream_cap,
        } => {
            let mut s = format!(
                "system_bytes {} {}",
                ident(resource)?,
                quantity(*bytes, dist, "B")?
            );
            if let Some(cap) = stream_cap {
                write!(s, " cap {}B/s", num(*cap)?).expect("string");
            }
            s
        }
        Phase::Overhead { label, seconds } => format!(
            "overhead {} {}",
            ident(label)?,
            quantity(*seconds, dist, "s")?
        ),
    })
}

/// A phase quantity in DIST syntax when a distribution rides along,
/// otherwise the plain value.
fn quantity(value: f64, dist: Option<&Dist>, unit: &str) -> Result<String, String> {
    let q = |v: f64| num(v).map(|s| format!("{s}{unit}"));
    Ok(match dist {
        None | Some(Dist::Point { .. }) => q(value)?,
        Some(Dist::Uniform { lo, hi }) => format!("uniform({} {})", q(*lo)?, q(*hi)?),
        Some(Dist::LogNormal { median, sigma }) => {
            format!("lognormal({} {})", q(*median)?, num(*sigma)?)
        }
        Some(Dist::Triangular { lo, mode, hi }) => {
            format!("triangular({} {} {})", q(*lo)?, q(*mode)?, q(*hi)?)
        }
        Some(Dist::Empirical { samples }) => {
            let mut parts = Vec::with_capacity(samples.len());
            for (v, w) in samples {
                parts.push(format!("{} {}", q(*v)?, num(*w)?));
            }
            format!("empirical({})", parts.join(" "))
        }
    })
}

/// Shortest round-trip decimal (Rust's `Display` for `f64` never uses an
/// exponent, which keeps the lexer's unit-suffix rule simple).
fn num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("cannot write non-finite number {v}"))
    }
}

/// Maps a name onto the language's identifier alphabet
/// `[A-Za-z_][A-Za-z0-9_.-]*`: `[` becomes `_`, `]` is dropped, any other
/// foreign character becomes `_`.
fn ident(name: &str) -> Result<String, String> {
    let s: String = name
        .chars()
        .filter(|&c| c != ']')
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    match s.chars().next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => Ok(s),
        _ => Err(format!("`{name}` cannot be written as a .wrm identifier")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_sim::{mc_run, simulate, McOptions};

    fn compile(source: &str) -> Scenario {
        let c = wrm_lang::compile_source(source).expect("emitted source compiles");
        Scenario::new(c.machine.expect("inline machine"), c.spec)
    }

    #[test]
    fn layered_10k_is_lint_clean_and_simulates_bit_equal() {
        let s = wrm_bench::generated_scenario(10_000, 32, 42);
        let src = to_wrm(&s).unwrap();
        assert_eq!(wrm_lint::lint_source(&src), Vec::new());
        let want = simulate(&s).unwrap().makespan;
        let got = simulate(&compile(&src)).unwrap().makespan;
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(format!("{got}"), "179.964334331144");
    }

    #[test]
    fn fork_join_2k_is_lint_clean_and_simulates_bit_equal() {
        let s = wrm_bench::generated_fork_join_scenario(2_000, 32, 42);
        let src = to_wrm(&s).unwrap();
        assert_eq!(wrm_lint::lint_source(&src), Vec::new());
        let want = simulate(&s).unwrap().makespan;
        assert_eq!(
            simulate(&compile(&src)).unwrap().makespan.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn mc_scenario_replications_are_bit_identical() {
        let s = wrm_bench::mc_scenario(2_000, 42);
        let emitted = compile(&to_wrm(&s).unwrap());
        let opts = McOptions {
            reps: 16,
            seed: 7,
            threads: 1,
        };
        let want = mc_run(&s, &opts).unwrap().makespans;
        let got = mc_run(&emitted, &opts).unwrap().makespans;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn names_map_to_identifiers_and_refuse_what_cannot_be_spelled() {
        assert_eq!(ident("t[3.17]").unwrap(), "t_3.17");
        assert_eq!(ident("gen[10000x32]").unwrap(), "gen_10000x32");
        assert!(ident("3d").is_err());
        let opts = SimOptions::default().with_contention("ch0", 0.5);
        let s = wrm_bench::generated_scenario(10, 1, 1).with_options(opts);
        assert!(to_wrm(&s).is_err());
    }
}
