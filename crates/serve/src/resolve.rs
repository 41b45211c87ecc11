//! Workflow resolution shared by the CLI and the server: builtin paper
//! workflows by name, or `.wrm` source text through the
//! lint-errors-first compile pipeline.

use wrm_core::machines;
use wrm_sim::Scenario;
use wrm_trace::Structure;
use wrm_workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// The builtin workflow names [`builtin_scenario`] accepts.
pub const BUILTINS: [&str; 5] = ["lcls", "bgw", "cosmoflow", "gptune-rci", "gptune-spawn"];

/// Parses and compiles a workflow source, running only the lint rules
/// that can emit an error first ([`wrm_lint::lint_errors_with_context`])
/// so a broken spec fails with spanned diagnostics instead of whatever
/// the compiler trips over first. Warnings are not computed; `wrm lint`
/// reports them. `path` labels the diagnostics (a file path in the CLI,
/// a client-provided label on the server). The spec is compiled once:
/// the lint run's own compile is returned.
pub fn compile_checked(path: &str, source: &str) -> Result<wrm_lang::Compiled, String> {
    let ast = wrm_lang::parse(source).map_err(|e| format!("{path}:{e}"))?;
    let (errors, ctx) = wrm_lint::lint_errors_with_context(&ast);
    if !errors.is_empty() {
        let lines = wrm_lint::LineIndex::new(source);
        let mut msg = String::new();
        for d in &errors {
            msg.push_str(&format!("{path}: {}\n", d.render(&lines)));
        }
        msg.push_str(&format!(
            "{} error(s); see `wrm lint {path}` for the full report",
            errors.len()
        ));
        return Err(msg);
    }
    // Lint compiles every error-free spec; it holds none only when the
    // compiler rejects the spec, whose message compiling again recovers.
    match ctx.compiled {
        Some(compiled) => Ok(compiled),
        None => wrm_lang::compile(&ast).map_err(|e| format!("{path}:{e}")),
    }
}

/// Resolves the machine for a compiled spec: an explicit override wins,
/// then the file's `on <machine>` clause.
pub fn resolve_machine(
    compiled: &wrm_lang::Compiled,
    machine: Option<&str>,
) -> Result<wrm_core::Machine, String> {
    match machine {
        Some(name) => machines::by_name(name)
            .ok_or_else(|| format!("unknown machine `{name}` (try: pm-gpu, pm-cpu, cori-hsw)")),
        None => compiled.machine.clone().ok_or_else(|| {
            "no machine: add `on <machine>` to the file or pass --machine".to_owned()
        }),
    }
}

/// The builtin paper workflows, ready to simulate.
#[must_use]
pub fn builtin_scenario(name: &str) -> Option<Scenario> {
    match name {
        "lcls" => Some(Lcls::year_2020_on_cori().scenario(machines::cori_haswell(), Day::Good)),
        "bgw" => Some(Bgw::si998_64().scenario()),
        "cosmoflow" => Some(CosmoFlow::default().scenario()),
        "gptune-rci" => Some(GpTune::default().scenario(Mode::Rci)),
        "gptune-spawn" => Some(GpTune::default().scenario(Mode::Spawn)),
        _ => None,
    }
}

/// A resolved workflow: the scenario to simulate plus, when it came
/// from compiled source, the DAG structure the roofline
/// characterization needs.
pub struct Resolved {
    /// Machine + workflow + base options.
    pub scenario: Scenario,
    /// Task structure from the compiler (`None` for builtins).
    pub structure: Option<Structure>,
}

/// Resolves `.wrm` source text into a scenario with default options.
pub fn from_source(path: &str, source: &str, machine: Option<&str>) -> Result<Resolved, String> {
    let compiled = compile_checked(path, source)?;
    let machine = resolve_machine(&compiled, machine)?;
    let structure = Structure::new(
        compiled.total_tasks,
        compiled.parallel_tasks,
        compiled.nodes_per_task,
    );
    Ok(Resolved {
        scenario: Scenario::new(machine, compiled.spec),
        structure: Some(structure),
    })
}

/// Resolves a server request's workflow field: an exact builtin name,
/// or `.wrm` source text.
pub fn resolve_request(
    workflow: &str,
    machine: Option<&str>,
    path_label: &str,
) -> Result<Resolved, String> {
    if let Some(scenario) = builtin_scenario(workflow) {
        return Ok(Resolved {
            scenario,
            structure: None,
        });
    }
    from_source(path_label, workflow, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    /// Every `.wrm` file under `dir`, recursively.
    fn wrm_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                wrm_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "wrm") {
                out.push(path);
            }
        }
    }

    /// The pipeline `compile_checked` replaces: the full lint filtered
    /// to its errors, then a compile of its own. It runs every rule, so
    /// it also checks that the errors-only lint misses no error.
    fn lint_then_compile(path: &str, source: &str) -> Result<wrm_lang::Compiled, String> {
        let ast = wrm_lang::parse(source).map_err(|e| format!("{path}:{e}"))?;
        let errors: Vec<_> = wrm_lint::lint_ast(&ast)
            .into_iter()
            .filter(|d| d.severity == wrm_lint::Severity::Error)
            .collect();
        if !errors.is_empty() {
            let lines = wrm_lint::LineIndex::new(source);
            let mut msg = String::new();
            for d in &errors {
                msg.push_str(&format!("{path}: {}\n", d.render(&lines)));
            }
            msg.push_str(&format!(
                "{} error(s); see `wrm lint {path}` for the full report",
                errors.len()
            ));
            return Err(msg);
        }
        wrm_lang::compile(&ast).map_err(|e| format!("{path}:{e}"))
    }

    fn assert_same(path: &str, source: &str) -> bool {
        match (
            compile_checked(path, source),
            lint_then_compile(path, source),
        ) {
            (Ok(once), Ok(twice)) => {
                assert_eq!(once.spec, twice.spec, "{path}");
                assert_eq!(once.machine, twice.machine, "{path}");
                assert_eq!(once.targets, twice.targets, "{path}");
                assert_eq!(once.total_tasks.to_bits(), twice.total_tasks.to_bits());
                assert_eq!(
                    once.parallel_tasks.to_bits(),
                    twice.parallel_tasks.to_bits()
                );
                assert_eq!(once.nodes_per_task, twice.nodes_per_task, "{path}");
                true
            }
            (Err(once), Err(twice)) => {
                assert_eq!(once, twice, "{path}");
                false
            }
            (once, twice) => panic!(
                "{path}: compile_checked gave {:?}, lint then compile gave {:?}",
                once.err(),
                twice.err()
            ),
        }
    }

    #[test]
    fn compiling_once_matches_lint_then_compile_on_every_repo_spec() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows");
        let mut files = Vec::new();
        wrm_files(&root, &mut files);
        files.sort();
        let mut compiled = 0;
        for file in &files {
            let source = std::fs::read_to_string(file).unwrap();
            compiled += usize::from(assert_same(&file.to_string_lossy(), &source));
        }
        // Both outcomes are covered: the runnable specs and the defect
        // fixtures under `workflows/bad/`.
        assert!(compiled >= 6, "{compiled} of {} compiled", files.len());
        assert!(
            files.len() - compiled >= 10,
            "{compiled} of {} compiled",
            files.len()
        );
    }

    #[test]
    fn parse_and_compile_errors_match_too() {
        assert!(!assert_same("p.wrm", "workflow w { task a { nodes } }"));
        // Lint tolerates an invalid machine body and holds no compile;
        // the compiler's own message comes back.
        let source =
            "machine m { nodes 0 }\nworkflow w on m { task a { nodes 1 overhead work 1s } }";
        assert!(wrm_lint::lint_source(source).is_empty());
        assert!(!assert_same("m.wrm", source));
        let err = compile_checked("m.wrm", source).err().unwrap();
        assert!(err.contains("zero nodes"), "{err}");
    }
}
