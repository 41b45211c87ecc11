//! Soundness oracles for the certificate-backed lint verdicts.
//!
//! * **Bracketing over every `.wrm` spec in the repository.** The lint
//!   pass prints certified intervals for user-authored specs, so the
//!   guarantee has to hold for exactly what the compiler hands the
//!   simulator: for every spec under `workflows/` (shipped and defect
//!   fixtures alike) that compiles onto a resolved machine,
//!   `lo * (1 - 1e-6) <= DES makespan <= hi` with `hi` finite. Specs
//!   that fail to parse, compile, or simulate (that is what many of the
//!   defect fixtures are for) are skipped — but the certificate must
//!   fail on exactly the specs the simulator fails on, never certify an
//!   unrunnable workflow.
//! * **Verdict soundness over generated specs.** W009 and E010 claim a
//!   makespan target cannot be met; on random task-group graphs
//!   (replicas, chains, replica-indexed edges, capped and uncapped
//!   flows on a shared channel, optional `uniform(..)` overheads) the
//!   simulator must agree: the DES makespan, or every Monte-Carlo
//!   sample of a distributional spec, exceeds the target. W009 and W010
//!   must never fire together. On the same specs, where E010 fires,
//!   the error gate (`lint_errors`) must return exactly the full lint's
//!   errors, in the same order.

use proptest::prelude::*;
use wrm_lint::{lint_errors, lint_source, Severity};
use wrm_sim::{certify, mc_run, simulate_summary, McOptions, Scenario, SimOptions};

fn workflows_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows")
}

fn wrm_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wrm"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_compilable_spec_is_bracketed() {
    let dir = workflows_dir();
    let mut checked = 0usize;
    let mut paths = wrm_files(&dir);
    paths.extend(wrm_files(&dir.join("bad")));
    assert!(paths.len() >= 20, "expected the full fixture set");
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        let Ok(compiled) = wrm_lang::compile_source(&source) else {
            continue; // syntax/semantic defect fixtures
        };
        let Some(machine) = compiled.machine else {
            continue; // unknown machine (E001 fixture)
        };
        let scenario = Scenario::new(machine.clone(), compiled.spec.clone());
        match certify(&machine, &compiled.spec, &SimOptions::default()) {
            Ok(cert) => {
                let makespan = simulate_summary(&scenario)
                    .unwrap_or_else(|e| panic!("{name}: sim: {e}"))
                    .makespan;
                assert!(cert.hi.is_finite(), "{name}: hi is not finite");
                assert!(
                    cert.lo * (1.0 - 1e-6) <= makespan && makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
                    "{name}: bracket {} <= {} <= {} violated",
                    cert.lo,
                    makespan,
                    cert.hi
                );
                checked += 1;
            }
            Err(cert_err) => {
                let sim_err = simulate_summary(&scenario)
                    .expect_err(&format!("{name}: certify failed but the DES ran"));
                assert_eq!(cert_err, sim_err, "{name}: error parity");
            }
        }
    }
    assert!(
        checked >= 10,
        "only {checked} specs certified — harness broken?"
    );
}

/// One generated task group.
#[derive(Debug, Clone)]
struct Group {
    count: usize,
    chain: bool,
    nodes: u64,
    /// Seconds of fixed overhead per replica.
    overhead: u32,
    /// `system_bytes ext <GB>`, optionally capped at `<GB/s>`.
    flow: Option<(u32, Option<u32>)>,
    /// An extra overhead phase drawn from `uniform(lo, lo + width)`.
    spread: Option<(u32, u32)>,
    /// `after` edges as (group pick, replica pick), resolved against
    /// the earlier groups.
    deps: Vec<(usize, Option<usize>)>,
}

prop_compose! {
    fn group()(
        shape in (1usize..5, any::<bool>(), 1u64..4),
        overhead in 1u32..40,
        flow in proptest::option::of((1u32..200, proptest::option::of(1u32..4))),
        spread in proptest::option::of((0u32..20, 1u32..30)),
        deps in prop::collection::vec((0usize..8, proptest::option::of(0usize..4)), 0..3),
    ) -> Group {
        let (count, chain, nodes) = shape;
        Group { count, chain, nodes, overhead, flow, spread, deps }
    }
}

/// The spec text: group `i` is `g{i}`, replicated when `count > 1`;
/// edges only point at earlier groups, so the graph is acyclic.
fn spec_source(groups: &[Group], pool: u64, ext: u32, target: Option<&str>) -> String {
    let mut src = format!(
        "machine m {{ nodes {pool} node compute 1TFLOPS system ext {ext}GB/s }}\n\
         workflow w on m {{\n"
    );
    if let Some(t) = target {
        src.push_str(&format!("  targets {{ makespan {t}s }}\n"));
    }
    for (i, g) in groups.iter().enumerate() {
        let replicas = if g.count > 1 {
            format!("[{}]", g.count)
        } else {
            String::new()
        };
        let chain = if g.chain && g.count > 1 { " chain" } else { "" };
        src.push_str(&format!(
            "  task g{i}{replicas}{chain} {{ nodes {} overhead work {}s",
            g.nodes, g.overhead
        ));
        if let Some((gb, cap)) = g.flow {
            src.push_str(&format!(" system_bytes ext {gb}GB"));
            if let Some(c) = cap {
                src.push_str(&format!(" cap {c}GB/s"));
            }
        }
        if let Some((lo, width)) = g.spread {
            src.push_str(&format!(" overhead jitter uniform({lo}s, {}s)", lo + width));
        }
        if i > 0 {
            for &(pick, replica) in &g.deps {
                let j = pick % i;
                match replica {
                    Some(r) if groups[j].count > 1 => {
                        src.push_str(&format!(" after g{j}[{}]", r % groups[j].count));
                    }
                    _ => src.push_str(&format!(" after g{j}")),
                }
            }
        }
        src.push_str(" }\n");
    }
    src.push_str("}\n");
    src
}

proptest! {
    #[test]
    fn infeasibility_verdicts_agree_with_the_simulator(
        groups in prop::collection::vec(group(), 1..9),
        machine in (4u64..17, 1u32..9),
        distributional in any::<bool>(),
        factor in 0.5f64..1.2,
    ) {
        let (pool, ext) = machine;
        let mut groups = groups;
        if !distributional {
            groups.iter_mut().for_each(|g| g.spread = None);
        }
        let compiled = wrm_lang::compile_source(&spec_source(&groups, pool, ext, None))
            .map_err(|e| TestCaseError::fail(format!("generated spec must compile: {e:?}")))?;
        let machine = compiled.machine.expect("inline machine resolves");
        let scenario = Scenario::new(machine, compiled.spec);
        let nominal = simulate_summary(&scenario)
            .map_err(|e| TestCaseError::fail(format!("sim: {e}")))?
            .makespan;
        let target_text = format!("{:.3}", nominal * factor);
        let target: f64 = target_text.parse().expect("formatted float");
        let src = spec_source(&groups, pool, ext, Some(&target_text));
        let diags = lint_source(&src);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect();
        let ast = wrm_lang::parse(&src).expect("generated spec parses");
        let gate = lint_errors(&ast);
        prop_assert!(gate == errors, "{src}\ngate: {gate:?}\nfull: {errors:?}");
        let fired = |code: &str| diags.iter().any(|d| d.code == code);
        prop_assert!(
            diags.iter().all(|d| d.severity != Severity::Error || d.code == "E010"),
            "generator produced an invalid spec:\n{src}\n{diags:?}"
        );
        prop_assert!(
            !(fired("W009") && fired("W010")),
            "W009 and W010 both fired:\n{src}\n{diags:?}"
        );
        if !(fired("W009") || fired("E010")) {
            return Ok(());
        }
        let makespans = if distributional {
            let opts = McOptions { reps: 64, seed: 7, threads: 1 };
            mc_run(&scenario, &opts)
                .map_err(|e| TestCaseError::fail(format!("mc: {e}")))?
                .makespans
        } else {
            vec![nominal]
        };
        for m in makespans {
            prop_assert!(
                m > target * (1.0 - 1e-9),
                "infeasibility verdict refuted: a run finished in {m}s against the \
                 {target}s target\n{src}\n{diags:?}"
            );
        }
    }
}
