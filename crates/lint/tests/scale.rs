//! Specs with tens of thousands of tasks. W006: every task name
//! resolves through the DAG's index and the reachability sweep runs in
//! blocks, so the lint stays near-linear. E002: the help lists a fixed
//! number of declared names, so the output grows linearly with the
//! number of dangling `after`s, and each caret snippet is looked up in
//! the source's line index rather than scanned for. The tests pin the
//! findings, their snippets and a bound on the output, not a time.

use wrm_lint::{lint_source, LineIndex};

const LAYERS: usize = 200;
const WIDTH: usize = 100;

/// `LAYERS` x `WIDTH` tasks; each task runs after two neighbours in the
/// layer before. Task `t2_0` also declares `after t0_0`, which it
/// already reaches through `t1_0`, and task `t5_7` declares
/// `after t4_7` twice. Returns the source and the 1-based lines of the
/// two planted tasks.
fn layered() -> (String, usize, usize) {
    let mut src = String::from("workflow layered {\n");
    let (mut transitive, mut duplicate) = (0, 0);
    for l in 0..LAYERS {
        for j in 0..WIDTH {
            src.push_str(&format!("  task t{l}_{j} {{ nodes 1 overhead work 1s"));
            if l > 0 {
                let p = l - 1;
                src.push_str(&format!(" after t{p}_{j} after t{p}_{}", (j + 1) % WIDTH));
            }
            if (l, j) == (2, 0) {
                src.push_str(" after t0_0");
                transitive = src.lines().count();
            }
            if (l, j) == (5, 7) {
                src.push_str(" after t4_7");
                duplicate = src.lines().count();
            }
            src.push_str(" }\n");
        }
    }
    src.push_str("}\n");
    (src, transitive, duplicate)
}

#[test]
fn twenty_thousand_tasks_yield_exactly_the_planted_w006_findings() {
    let (src, transitive, duplicate) = layered();
    let diags = lint_source(&src);
    assert!(diags.iter().all(|d| d.code == "W006"), "{diags:?}");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].span.line, transitive);
    assert_eq!(
        diags[0].message,
        "`after t0_0` on task `t2_0` is redundant: `t0_0` already precedes `t2_0` through \
         other dependencies"
    );
    assert_eq!(diags[1].span.line, duplicate);
    assert_eq!(diags[1].message, "duplicate `after t4_7` on task `t5_7`");
}

/// Tasks in the dangling-dependency spec, each with one `after` naming
/// a task nobody declares.
const DANGLING: usize = 20_000;

/// An upper bound on one E002's message and help: the message names two
/// tasks, the help at most twenty declared names and a count.
const E002_BYTES: usize = 400;

#[test]
fn twenty_thousand_dangling_afters_yield_output_linear_in_their_count() {
    let written: Vec<String> = (0..DANGLING)
        .map(|i| format!("  task t{i} {{ nodes 1 overhead work 1s after g{i} }}"))
        .collect();
    let src = format!("workflow dangling {{\n{}\n}}\n", written.join("\n"));
    let diags = lint_source(&src);
    assert_eq!(diags.len(), DANGLING);
    let lines = LineIndex::new(&src);

    let mut declared: Vec<String> = (0..DANGLING).map(|i| format!("t{i}")).collect();
    declared.sort();
    let listed: Vec<String> = declared[..20].iter().map(|n| format!("`{n}`")).collect();
    let help = format!(
        "declared tasks: {}, … and {} more",
        listed.join(", "),
        DANGLING - 20
    );
    for (i, d) in diags.iter().enumerate() {
        assert_eq!(d.code, "E002");
        assert_eq!(d.span.line, i + 2);
        assert_eq!(
            d.message,
            format!("task `t{i}` depends on undeclared task `g{i}`")
        );
        assert_eq!(d.help.as_deref(), Some(help.as_str()));
        let len = d.message.len() + help.len();
        assert!(len <= E002_BYTES, "{len} bytes: {d:?}");
        let rendered = d.render(&lines);
        let snippet = rendered.lines().nth(2).expect("snippet line");
        assert_eq!(snippet, format!("{} | {}", i + 2, written[i]));
    }
}
