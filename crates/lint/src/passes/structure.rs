//! Structural DAG passes: unreachable tasks (E009) and redundant
//! transitive edges (W006).

use super::AnalysisContext;
use crate::diagnostics::{Diagnostic, SuggestedEdit};
use crate::ir::AnalysisIr;
use std::collections::{BTreeMap, BTreeSet};
use wrm_lang::ast::{AfterRef, WorkflowAst};

/// E009: tasks that sit *downstream* of a dependency cycle. The cycle
/// itself is E004; the tasks it strands are a separate defect — they
/// parse, they even look schedulable locally, but no schedule can ever
/// start them.
pub fn unreachable_tasks(ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    let ir = &ctx.ir;
    let stuck_order = stuck(ir);
    if stuck_order.is_empty() {
        return;
    }
    let stuck: BTreeSet<usize> = stuck_order.iter().copied().collect();
    // Forward adjacency restricted to the stuck cone.
    let mut succs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &v in &stuck {
        for &d in &ir.tasks[v].deps {
            if stuck.contains(&d) {
                succs.entry(d).or_default().push(v);
            }
        }
    }
    let on_cycle = |start: usize| -> bool {
        let mut seen = BTreeSet::new();
        let mut work: Vec<usize> = succs.get(&start).cloned().unwrap_or_default();
        while let Some(v) = work.pop() {
            if v == start {
                return true;
            }
            if seen.insert(v) {
                work.extend(succs.get(&v).cloned().unwrap_or_default());
            }
        }
        false
    };
    for &v in &stuck_order {
        if on_cycle(v) {
            continue; // the cycle members already carry E004
        }
        let task = &ir.tasks[v];
        out.push(
            Diagnostic::error(
                "E009",
                task.span,
                format!(
                    "task `{}` can never start: it depends, possibly transitively, on a \
                     dependency cycle",
                    task.name
                ),
            )
            .with_help("break the cycle reported by E004 to make this task schedulable"),
        );
    }
}

/// Kahn's algorithm over the task-group dependency edges: the groups it
/// never schedules (on a dependency cycle, or downstream of one), in
/// index order. Runs on the AST-level IR because a cyclic spec has no
/// compiled DAG.
fn stuck(ir: &AnalysisIr) -> Vec<usize> {
    let n = ir.tasks.len();
    let mut indegree: Vec<usize> = ir.tasks.iter().map(|t| t.deps.len()).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in ir.tasks.iter().enumerate() {
        for &d in &t.deps {
            succs[d].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(v) = ready.pop() {
        for &s in &succs[v] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    (0..n).filter(|&i| indegree[i] > 0).collect()
}

/// W006: `after` edges already implied by the rest of the graph
/// (transitive edges and duplicates). Each carries a fix-it deleting
/// the statement; removing it cannot change any schedule.
pub fn redundant_edges(ast: &WorkflowAst, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    let Some(compiled) = &ctx.compiled else {
        return;
    };
    let Ok(dag) = compiled.spec.to_dag_with(|_| 0.0) else {
        return;
    };
    let Ok(redundant) = dag.redundant_edges() else {
        return;
    };
    let redundant: BTreeSet<(usize, usize)> =
        redundant.into_iter().map(|(u, v)| (u.0, v.0)).collect();
    let replica = |base: &str, i: usize, count: usize| -> String {
        if count == 1 {
            base.to_owned()
        } else {
            format!("{base}[{i}]")
        }
    };
    // The spec compiled, so no name is declared twice and every `after`
    // entry resolved: the IR's deps pair up with the entries.
    for (t, group) in ast.tasks.iter().zip(&ctx.ir.tasks) {
        if t.after.is_empty() {
            continue;
        }
        let count = group.count;
        // Each replica name is resolved once, through the DAG's index.
        let tos: Vec<_> = (0..count)
            .map(|i| dag.task_by_name(&replica(&t.name, i, count)))
            .collect();
        let mut seen: BTreeSet<(usize, Option<usize>)> = BTreeSet::new();
        for (dep, &to_group) in t.after.iter().zip(&group.deps) {
            let shown = match dep.index {
                Some(i) => format!("{}[{i}]", dep.name),
                None => dep.name.clone(),
            };
            if !seen.insert((to_group, dep.index)) {
                out.push(duplicate_edge(t.name.as_str(), &shown, dep));
                continue;
            }
            let dep_count = ctx.ir.tasks[to_group].count;
            if dep.name == t.name {
                continue;
            }
            // The `after` statement is redundant only if EVERY replica
            // edge it expands to is implied by the rest of the graph.
            let froms: Vec<_> = match dep.index {
                Some(i) => vec![dag.task_by_name(&replica(&dep.name, i, dep_count))],
                None => (0..dep_count)
                    .map(|j| dag.task_by_name(&replica(&dep.name, j, dep_count)))
                    .collect(),
            };
            let mut edges = 0usize;
            let mut all_implied = true;
            'edges: for to in &tos {
                let Some(to) = to else {
                    all_implied = false;
                    break;
                };
                for from in &froms {
                    let Some(from) = from else {
                        all_implied = false;
                        break 'edges;
                    };
                    edges += 1;
                    if !redundant.contains(&(from.0, to.0)) {
                        all_implied = false;
                        break 'edges;
                    }
                }
            }
            if edges > 0 && all_implied {
                out.push(
                    Diagnostic::warning(
                        "W006",
                        dep.stmt_span.into(),
                        format!(
                            "`after {shown}` on task `{}` is redundant: `{}` already precedes \
                             `{}` through other dependencies",
                            t.name, dep.name, t.name
                        ),
                    )
                    .with_help(
                        "removing the edge cannot change any schedule; `wrm lint --fix` \
                         deletes it",
                    )
                    .with_fix(SuggestedEdit::replace_span(
                        dep.stmt_span.into(),
                        "",
                        format!("remove `after {shown}`"),
                    )),
                );
            }
        }
    }
}

fn duplicate_edge(task: &str, shown: &str, dep: &AfterRef) -> Diagnostic {
    Diagnostic::warning(
        "W006",
        dep.stmt_span.into(),
        format!("duplicate `after {shown}` on task `{task}`"),
    )
    .with_help("the same edge is already declared on this task")
    .with_fix(SuggestedEdit::replace_span(
        dep.stmt_span.into(),
        "",
        format!("remove the duplicate `after {shown}`"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_leave_their_cone_stuck() {
        let ast = wrm_lang::parse(
            "workflow w {
               task a { after b }
               task b { after a }
               task c { after b }
               task d { }
             }",
        )
        .unwrap();
        let ir = AnalysisIr::lower(&ast, &wrm_lang::TaskNames::new(&ast), None);
        assert_eq!(stuck(&ir), vec![0, 1, 2]);
    }
}
