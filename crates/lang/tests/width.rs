//! `compile`'s structural width against the `Dag` it no longer builds.
//!
//! Random sources mix replicated tasks, chains, tasks without phases,
//! single tasks and repeated `after` entries, and may close a cycle.
//! The test expands each source into the spec it should compile to, by
//! the language's rules alone; on that spec `validate` gives the error
//! `compile` must report, and the `Dag` the width it must report.

use proptest::prelude::*;
use wrm_sim::{Phase, TaskSpec, WorkflowSpec};

/// One `task` declaration: replica count, `chain`, whether it has a
/// phase, and its `after` entries as (task, replica index).
type Decl = (usize, bool, bool, Vec<(usize, Option<usize>)>);

fn replica(base: &str, index: usize, count: usize) -> String {
    if count == 1 {
        base.to_owned()
    } else {
        format!("{base}[{index}]")
    }
}

/// The source text and the spec the language defines for it. Replica
/// indices are taken modulo the target's count, so every reference
/// resolves.
fn source_and_spec(decls: &[Decl]) -> (String, WorkflowSpec) {
    let count = |j: usize| decls[j % decls.len()].0;
    let mut src = String::from("workflow w on pm-cpu {\n");
    let mut spec = WorkflowSpec::new("w");
    for (i, (n, chain, phase, after)) in decls.iter().enumerate() {
        let bracket = if *n == 1 {
            String::new()
        } else {
            format!("[{n}]")
        };
        let chain_kw = if *chain { " chain" } else { "" };
        src.push_str(&format!("  task t{i}{bracket}{chain_kw} {{"));
        if *phase {
            src.push_str(" overhead o 1s");
        }
        for &(j, index) in after {
            let j = j % decls.len();
            match index {
                Some(k) => src.push_str(&format!(" after t{j}[{}]", k % count(j))),
                None => src.push_str(&format!(" after t{j}")),
            }
        }
        src.push_str(" }\n");
        for r in 0..*n {
            let mut task = TaskSpec::new(replica(&format!("t{i}"), r, *n), 1);
            if *phase {
                task = task.phase(Phase::overhead("o", 1.0));
            }
            if *chain && r > 0 {
                task = task.after(replica(&format!("t{i}"), r - 1, *n));
            }
            for &(j, index) in after {
                let j = j % decls.len();
                let base = format!("t{j}");
                match index {
                    Some(k) => task = task.after(replica(&base, k % count(j), count(j))),
                    None => {
                        for k in 0..count(j) {
                            task = task.after(replica(&base, k, count(j)));
                        }
                    }
                }
            }
            spec = spec.task(task);
        }
    }
    src.push_str("}\n");
    (src, spec)
}

fn decl() -> impl Strategy<Value = Decl> {
    (
        prop_oneof![Just(1usize), 2usize..4],
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec((0usize..8, proptest::option::of(0usize..3)), 0..4),
    )
}

proptest! {
    #[test]
    fn compile_reports_the_dag_width_or_the_validation_error(
        decls in proptest::collection::vec(decl(), 1..8),
        acyclic in any::<bool>(),
    ) {
        // Half the cases keep every `after` pointing backwards, so most
        // of those compile; the rest may close a cycle.
        let decls: Vec<Decl> = decls
            .into_iter()
            .enumerate()
            .map(|(i, (n, chain, phase, after))| {
                let after = if acyclic && i > 0 {
                    after.into_iter().map(|(j, k)| (j % i, k)).collect()
                } else if acyclic {
                    Vec::new()
                } else {
                    after
                };
                (n, chain, phase, after)
            })
            .collect();
        let (src, spec) = source_and_spec(&decls);
        match (wrm_lang::compile_source(&src), spec.validate()) {
            (Ok(compiled), Ok(())) => {
                prop_assert_eq!(&compiled.spec, &spec);
                let width = spec.to_dag_with(|_| 0.0).unwrap().max_width().unwrap();
                prop_assert_eq!(compiled.parallel_tasks, width.max(1) as f64);
            }
            (Err(e), Err(want)) => {
                prop_assert_eq!(
                    (e.message, e.line, e.col),
                    (format!("invalid workflow: {want}"), 0, 0)
                );
            }
            (got, want) => prop_assert!(false, "{src}\ncompile: {got:?}\nvalidate: {want:?}"),
        }
    }
}

/// Duplicate, unknown-dependency and cyclic sources keep the exact
/// error `compile` gave when it validated and then built a `Dag`.
#[test]
fn structural_errors_keep_their_text() {
    let cases = [
        (
            "workflow w { task a { } task a { } }",
            "1:30: task `a` is declared twice",
        ),
        (
            "workflow w { task b { after ghost } }",
            "1:29: task `b` depends on unknown task `ghost`",
        ),
        (
            "workflow w { task a[2] { } task b { after a[2] } }",
            "1:43: task `b` references `a[2]` but only 2 replicas exist",
        ),
        (
            "workflow w { task a { after a } }",
            "0:0: invalid workflow: workflow graph error: task a depends on itself",
        ),
        (
            "workflow w { task a { after b } task b { after a } }",
            "0:0: invalid workflow: workflow graph error: dependency cycle involving task a",
        ),
        (
            "workflow w { task s { } task a[3] chain { after s after c } task c { after a[1] } }",
            "0:0: invalid workflow: workflow graph error: dependency cycle involving task a[0]",
        ),
    ];
    for (src, want) in cases {
        let err = wrm_lang::compile_source(src).expect_err(src);
        assert_eq!(err.to_string(), want, "{src}");
    }
}
