//! W006 on a spec with tens of thousands of tasks: every task name
//! resolves through the DAG's index and the reachability sweep runs in
//! blocks, so the lint stays near-linear. The test pins the findings,
//! not a time.

use wrm_lint::lint_source;

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
