//! The rule registry: every semantic pass the linter runs over a parsed
//! workflow, with stable codes.
//!
//! | Code | Severity | What it catches |
//! |------|----------|-----------------|
//! | E000 | error    | syntax error (parse failure surfaced as a diagnostic) |
//! | E001 | error    | `on <machine>` names neither a preset nor a declared machine |
//! | E002 | error    | `after` references an undeclared task |
//! | E003 | error    | `after t[i]` replica index out of range |
//! | E004 | error    | dependency cycle among tasks |
//! | E005 | error    | task needs more nodes than the machine has (parallelism wall 0) |
//! | E006 | error    | `eff` outside (0, 1] |
//! | E007 | error    | `task t[0]` — zero replicas |
//! | E008 | error    | duplicate task or machine declaration |
//! | W001 | warning  | phase resource absent on the target machine (dead ceiling) |
//! | W002 | warning  | custom `machine` declared but never used |
//! | W003 | warning  | zero/negative phase volume (imposes no ceiling) |
//! | W004 | warning  | `nodes 0` (compiler treats it as 1) |
//! | W005 | warning  | target provably unattainable (names the binding ceiling) |
//! | E009 | error    | task strands behind a dependency cycle and can never start |
//! | W006 | warning  | `after` edge already implied by other dependencies (fixable) |
//! | W007 | warning  | shared channel whose capped streams can never saturate it |
//! | W008 | warning  | max-min fair share too small for a task's bytes within the makespan target |
//! | W009 | warning  | certified critical-path lower bound exceeds the makespan target (fixable) |
//! | W010 | warning  | makespan target falls inside the certified interval `[lo, hi)` — undetermined |
//! | W011 | warning  | channel capacity provably reducible to the stream-cap sum without moving the certified interval |
//! | W012 | warning  | certified lower bound unchanged with every channel zeroed — channel sweeps cannot help |
//! | E010 | error    | makespan target infeasible under any channel provisioning (fixable) |
//! | E011 | error    | invalid distribution call (negative sigma, empty empirical set, NaN/out-of-order parameters) |
//!
//! E000–E008, E011 and W001–W005 are per-statement checks implemented here;
//! E009, E010 and W006–W012 are the analyzer passes in [`crate::passes`],
//! driven by the lowered IR and the simulator's two-sided makespan
//! certificate ([`wrm_sim::certify`]).

use crate::diagnostics::{Diagnostic, Severity, Span, SuggestedEdit};
use crate::passes::{self, AnalysisContext, Scope};
use std::collections::BTreeSet;
use wrm_core::{machines, Machine, WorkUnit};
use wrm_lang::ast::{PhaseAst, TaskAst, WorkflowAst};
use wrm_lang::TaskNames;

/// Registry metadata for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable code (`E001`, `W003`, ...).
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Severity every diagnostic from this rule carries.
    pub severity: Severity,
    /// One-line description for docs and `--explain`-style output.
    pub summary: &'static str,
}

/// Every rule the linter knows, in code order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "E000",
        name: "syntax-error",
        severity: Severity::Error,
        summary: "the file does not parse; the lexer/parser error is surfaced as a diagnostic",
    },
    RuleInfo {
        code: "E001",
        name: "unknown-machine",
        severity: Severity::Error,
        summary: "`on <machine>` names neither a built-in preset nor a declared machine",
    },
    RuleInfo {
        code: "E002",
        name: "undeclared-dependency",
        severity: Severity::Error,
        summary: "`after` references a task that is not declared in the workflow",
    },
    RuleInfo {
        code: "E003",
        name: "replica-index-out-of-range",
        severity: Severity::Error,
        summary: "`after t[i]` indexes past the replica count of `t` (indices are 0-based)",
    },
    RuleInfo {
        code: "E004",
        name: "dependency-cycle",
        severity: Severity::Error,
        summary: "the `after` edges form a cycle, so no schedule exists",
    },
    RuleInfo {
        code: "E005",
        name: "task-larger-than-machine",
        severity: Severity::Error,
        summary: "a task needs more nodes than the machine has, making the parallelism wall 0",
    },
    RuleInfo {
        code: "E006",
        name: "eff-out-of-range",
        severity: Severity::Error,
        summary: "`eff` must be in (0, 1]",
    },
    RuleInfo {
        code: "E007",
        name: "zero-replicas",
        severity: Severity::Error,
        summary: "`task t[0]` declares zero replicas",
    },
    RuleInfo {
        code: "E008",
        name: "duplicate-name",
        severity: Severity::Error,
        summary: "a task or machine name is declared more than once",
    },
    RuleInfo {
        code: "E009",
        name: "unreachable-task",
        severity: Severity::Error,
        summary: "a task depends, possibly transitively, on a dependency cycle and can never \
                  start",
    },
    RuleInfo {
        code: "W001",
        name: "dead-ceiling",
        severity: Severity::Warning,
        summary: "a phase references a resource the target machine does not provide, so the \
                  phase imposes no ceiling",
    },
    RuleInfo {
        code: "W002",
        name: "unused-machine",
        severity: Severity::Warning,
        summary: "a custom `machine` is declared but never referenced with `on`",
    },
    RuleInfo {
        code: "W003",
        name: "zero-volume",
        severity: Severity::Warning,
        summary: "a phase has zero or negative volume and imposes no ceiling",
    },
    RuleInfo {
        code: "W004",
        name: "zero-nodes",
        severity: Severity::Warning,
        summary: "`nodes 0` is treated as `nodes 1` by the compiler",
    },
    RuleInfo {
        code: "W005",
        name: "infeasible-target",
        severity: Severity::Warning,
        summary: "a declared target is provably unattainable on this machine; the message \
                  names the binding ceiling",
    },
    RuleInfo {
        code: "W006",
        name: "redundant-edge",
        severity: Severity::Warning,
        summary: "an `after` edge is duplicated or already implied by other dependencies; \
                  `wrm lint --fix` removes it",
    },
    RuleInfo {
        code: "W007",
        name: "unsaturable-channel",
        severity: Severity::Warning,
        summary: "every stream on a shared channel is capped and the caps sum below its \
                  capacity, so the contention ceiling can never bind",
    },
    RuleInfo {
        code: "W008",
        name: "starved-channel",
        severity: Severity::Warning,
        summary: "under max-min fair sharing a task's share of a shared channel is below the \
                  rate its bytes need within the makespan target",
    },
    RuleInfo {
        code: "W009",
        name: "infeasible-critical-path",
        severity: Severity::Warning,
        summary: "the certified dependency-chain lower bound on makespan exceeds the declared \
                  target",
    },
    RuleInfo {
        code: "W010",
        name: "undetermined-target",
        severity: Severity::Warning,
        summary: "the makespan target falls inside the certified interval [lo, hi): neither \
                  provably met nor provably missed; the report carries the witness \
                  decomposition of both bounds",
    },
    RuleInfo {
        code: "W011",
        name: "overprovisioned-channel",
        severity: Severity::Warning,
        summary: "an aggregate channel's capacity can provably be reduced to the sum of its \
                  stream caps without moving either end of the certified makespan interval",
    },
    RuleInfo {
        code: "W012",
        name: "channel-independent-bound",
        severity: Severity::Warning,
        summary: "the certified makespan lower bound is unchanged with every channel zeroed: \
                  the fixed-phase chain and node-pool occupancy alone force it, so channel \
                  capacity sweeps provably cannot help",
    },
    RuleInfo {
        code: "E010",
        name: "infeasible-under-any-channel",
        severity: Severity::Error,
        summary: "the makespan target is below the certified lower bound even with every \
                  channel infinitely fast; no channel provisioning can meet it",
    },
    RuleInfo {
        code: "E011",
        name: "invalid-distribution",
        severity: Severity::Error,
        summary: "a distribution call has invalid parameters (negative sigma, empty empirical \
                  set, non-finite or out-of-order bounds); the Monte-Carlo engine cannot \
                  sample it",
    },
];

/// Looks up a rule by its code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

fn sp(s: wrm_lang::Span) -> Span {
    s.into()
}

/// Lints source text: a parse failure becomes a single `E000`
/// diagnostic; otherwise all semantic rules run over the AST.
pub fn lint_source(source: &str) -> Vec<Diagnostic> {
    match wrm_lang::parse(source) {
        Ok(ast) => lint_ast(&ast),
        Err(e) => vec![syntax_error(&e)],
    }
}

/// [`lint_source`], also returning the analysis context the passes ran
/// on (`None` when the source does not parse).
pub fn lint_source_with_context(source: &str) -> (Vec<Diagnostic>, Option<AnalysisContext>) {
    match wrm_lang::parse(source) {
        Ok(ast) => {
            let (diags, ctx) = lint_with_context(&ast);
            (diags, Some(ctx))
        }
        Err(e) => (vec![syntax_error(&e)], None),
    }
}

/// E000: a parse failure as a diagnostic.
fn syntax_error(e: &wrm_lang::LangError) -> Diagnostic {
    Diagnostic::error(
        "E000",
        Span::new(e.line, e.col),
        format!("syntax error: {}", e.message),
    )
}

/// Runs every semantic rule over a parsed workflow, then the analyzer
/// passes. Diagnostics come back sorted by source position, then code,
/// then message — a total order, so output is deterministic.
pub fn lint_ast(ast: &WorkflowAst) -> Vec<Diagnostic> {
    lint_with_context(ast).0
}

/// [`lint_ast`], also returning the [`AnalysisContext`] the passes
/// shared, so a caller can take its compiled spec and certificate
/// instead of compiling and certifying the workflow a second time.
pub fn lint_with_context(ast: &WorkflowAst) -> (Vec<Diagnostic>, AnalysisContext) {
    lint_in(Scope::All, ast)
}

/// Only the error-severity findings — what `analyze`, `simulate`,
/// `certify` and `sweep` gate on before compiling. Equal to
/// [`lint_ast`] filtered to [`Severity::Error`], in the same order, but
/// runs only the checks that can emit an error.
pub fn lint_errors(ast: &WorkflowAst) -> Vec<Diagnostic> {
    lint_errors_with_context(ast).0
}

/// [`lint_errors`], also returning the [`AnalysisContext`] it ran on,
/// so a caller can take its compiled spec. The context holds no
/// roofline model, and a certificate only when the spec declares a
/// makespan target (E010 checks the target against it).
pub fn lint_errors_with_context(ast: &WorkflowAst) -> (Vec<Diagnostic>, AnalysisContext) {
    lint_in(Scope::Errors, ast)
}

/// The one lint driver: the per-statement checks, then the analyzer
/// passes, restricted to the rules of `scope`.
fn lint_in(scope: Scope, ast: &WorkflowAst) -> (Vec<Diagnostic>, AnalysisContext) {
    let all = scope == Scope::All;
    let machine = resolve_machine(ast);
    let names = TaskNames::new(ast);
    let mut out = Vec::new();

    check_machine_reference(ast, &mut out);
    check_duplicates(ast, &names, &mut out);
    check_dependencies(ast, &names, &mut out);
    check_cycles(ast, &names, &mut out);
    check_values(ast, &mut out);
    if let Some(m) = &machine {
        check_machine_fit(ast, m, &mut out);
        if all {
            check_dead_ceilings(ast, m, &mut out);
        }
    }
    if all {
        check_unused_machines(ast, &mut out);
    }
    let has_errors = out.iter().any(|d| d.severity == Severity::Error);
    let ctx = AnalysisContext::build_in(scope, ast, &names, machine, has_errors);
    if all {
        check_targets(ast, &ctx, &mut out);
        passes::run(ast, &ctx, &mut out);
    } else {
        passes::run_errors(&ctx, &mut out);
        // `check_values` emits W003 and W004 beside its errors.
        out.retain(|d| d.severity == Severity::Error);
    }

    // Every AST span now carries a position; a 0:0 diagnostic here means
    // a rule fabricated a span instead of taking it from the source.
    debug_assert!(
        out.iter().all(|d| d.span.is_known()),
        "rule emitted an unknown span: {:?}",
        out.iter().find(|d| !d.span.is_known())
    );
    out.sort_by(|a, b| (a.span, &a.code, &a.message).cmp(&(b.span, &b.code, &b.message)));
    (out, ctx)
}

/// The worst severity in a batch, if any.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// The machine the workflow targets, with in-file declarations
/// shadowing presets, as the compiler resolves it; an invalid machine
/// body resolves to none (it produces its own compile error).
fn resolve_machine(ast: &WorkflowAst) -> Option<Machine> {
    let name = ast.machine.as_ref()?;
    match ast.machines.iter().find(|m| &m.name == name) {
        Some(m) => wrm_lang::compile::build_machine(m).ok(),
        None => machines::by_name(name),
    }
}

/// E001: `on <name>` resolves to nothing.
fn check_machine_reference(ast: &WorkflowAst, out: &mut Vec<Diagnostic>) {
    let Some(name) = &ast.machine else { return };
    let declared = ast.machines.iter().any(|m| &m.name == name);
    if !declared && machines::by_name(name).is_none() {
        out.push(
            Diagnostic::error(
                "E001",
                sp(ast.machine_span),
                format!("unknown machine `{name}`"),
            )
            .with_help(format!(
                "known presets: {}; or declare `machine {name} {{ ... }}` in this file",
                machines::short_names().join(", ")
            )),
        );
    }
}

/// E008: duplicate task or machine names.
fn check_duplicates(ast: &WorkflowAst, names: &TaskNames, out: &mut Vec<Diagnostic>) {
    for &i in names.duplicates() {
        let t = &ast.tasks[i];
        out.push(Diagnostic::error(
            "E008",
            sp(t.span),
            format!("task `{}` is declared twice", t.name),
        ));
    }
    let mut machines_seen = BTreeSet::new();
    for m in &ast.machines {
        if !machines_seen.insert(&m.name) {
            out.push(Diagnostic::error(
                "E008",
                sp(m.span),
                format!("machine `{}` is declared twice", m.name),
            ));
        }
    }
}

/// How many declared names E002's help lists before it counts the rest,
/// so a spec with many dangling `after`s gets output linear in their
/// number.
const E002_LISTED: usize = 20;

/// E002's help: the declared task names in byte order, the first
/// [`E002_LISTED`] of them written out.
fn declared_tasks(ast: &WorkflowAst) -> String {
    let mut sorted: Vec<&str> = ast.tasks.iter().map(|t| t.name.as_str()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let listed: Vec<String> = sorted
        .iter()
        .take(E002_LISTED)
        .map(|k| format!("`{k}`"))
        .collect();
    let mut help = format!("declared tasks: {}", listed.join(", "));
    if sorted.len() > E002_LISTED {
        help.push_str(&format!(", … and {} more", sorted.len() - E002_LISTED));
    }
    help
}

/// E002 + E003: `after` references and replica indices. A name declared
/// more than once resolves to its last declaration.
fn check_dependencies(ast: &WorkflowAst, names: &TaskNames, out: &mut Vec<Diagnostic>) {
    // Built at the first E002, once per run.
    let mut declared: Option<String> = None;
    for (ti, t) in ast.tasks.iter().enumerate() {
        for (dep, to) in t.after.iter().zip(names.after(ti)) {
            let Some(first) = *to else {
                let help = declared.get_or_insert_with(|| declared_tasks(ast));
                out.push(
                    Diagnostic::error(
                        "E002",
                        sp(dep.span),
                        format!(
                            "task `{}` depends on undeclared task `{}`",
                            t.name, dep.name
                        ),
                    )
                    .with_help(help.clone()),
                );
                continue;
            };
            let count = ast.tasks[names.last(first)].count;
            if let Some(idx) = dep.index {
                if idx >= count {
                    out.push(
                        Diagnostic::error(
                            "E003",
                            sp(dep.span),
                            format!(
                                "task `{}` references `{}[{idx}]` but only {count} \
                                 replica(s) exist",
                                t.name, dep.name
                            ),
                        )
                        .with_help("replica indices are 0-based".to_owned()),
                    );
                }
            }
        }
    }
}

/// E004: cycles in the base-name dependency graph. A name declared more
/// than once resolves to its last declaration.
///
/// `after` edges connect whole replica groups, so any cycle among base
/// names means a cycle among expanded replicas (including `after self`,
/// even with an index: every replica would wait on a member of its own
/// group). Chain edges (`task t[n] chain`) stay inside one group and
/// are acyclic by construction, so base-name granularity is exact.
fn check_cycles(ast: &WorkflowAst, names: &TaskNames, out: &mut Vec<Diagnostic>) {
    // settled[i]: fully explored with no cycle, or already reported.
    let mut settled = vec![false; ast.tasks.len()];
    // Iterative DFS with an explicit path so fuzzed inputs with very
    // long chains cannot overflow the stack. The path buffers are shared
    // by every start: each DFS pops its whole path, clearing them.
    let mut path: Vec<usize> = Vec::new();
    let mut edge_pos: Vec<usize> = Vec::new();
    let mut on_path = vec![false; ast.tasks.len()];
    for start in 0..ast.tasks.len() {
        if settled[start] {
            continue;
        }
        path.push(start);
        edge_pos.push(0);
        on_path[start] = true;
        while let Some(&node) = path.last() {
            let deps = &ast.tasks[node].after;
            let cursor = edge_pos[path.len() - 1];
            let next = names.after(node)[cursor..]
                .iter()
                .enumerate()
                .find_map(|(off, to)| {
                    to.map(|first| (cursor + off + 1, names.last(first), &deps[cursor + off]))
                });
            match next {
                Some((resume, to, dep)) if on_path[to] && !settled[to] => {
                    // Found a cycle: the path suffix from `to`, closed.
                    let from = path.iter().position(|&n| n == to).expect("on path");
                    let mut names: Vec<&str> = path[from..]
                        .iter()
                        .map(|&n| ast.tasks[n].name.as_str())
                        .collect();
                    names.push(ast.tasks[to].name.as_str());
                    for &n in &path[from..] {
                        settled[n] = true;
                    }
                    out.push(
                        Diagnostic::error(
                            "E004",
                            sp(dep.span),
                            format!("dependency cycle: {}", names.join(" -> ")),
                        )
                        .with_help("no schedule exists; remove one of these `after` edges"),
                    );
                    edge_pos[path.len() - 1] = resume;
                }
                Some((resume, to, _)) => {
                    edge_pos[path.len() - 1] = resume;
                    if !settled[to] {
                        path.push(to);
                        edge_pos.push(0);
                        on_path[to] = true;
                    }
                }
                None => {
                    settled[node] = true;
                    on_path[node] = false;
                    path.pop();
                    edge_pos.pop();
                }
            }
        }
    }
}

/// E006, E007, W003, W004: per-task value sanity.
fn check_values(ast: &WorkflowAst, out: &mut Vec<Diagnostic>) {
    for t in &ast.tasks {
        if t.count == 0 {
            let span = sp(t.count_span);
            let mut d = Diagnostic::error(
                "E007",
                span,
                format!("task `{}` declares 0 replicas", t.name),
            )
            .with_help(format!(
                "use `task {}[n]` with n >= 1, or drop the bracket for a single task",
                t.name
            ));
            if span.has_range() {
                d = d.with_fix(SuggestedEdit::replace_span(span, "1", "declare 1 replica"));
            }
            out.push(d);
        }
        if t.nodes == 0 {
            let span = sp(t.nodes_span);
            let mut d = Diagnostic::warning(
                "W004",
                span,
                format!(
                    "task `{}` declares `nodes 0`; the compiler treats it as 1 node",
                    t.name
                ),
            );
            if span.has_range() {
                d = d.with_fix(SuggestedEdit::replace_span(span, "1", "set `nodes 1`"));
            }
            out.push(d);
        }
        for p in &t.phases {
            check_phase_values(t, p, out);
        }
    }
}

fn check_phase_values(t: &TaskAst, p: &PhaseAst, out: &mut Vec<Diagnostic>) {
    let eff_diag = |eff: f64, eff_span: wrm_lang::Span, out: &mut Vec<Diagnostic>| {
        if !(eff > 0.0 && eff <= 1.0) {
            let span = sp(eff_span);
            let mut d =
                Diagnostic::error("E006", span, format!("eff must be in (0, 1], got {eff}"));
            if span.has_range() {
                d = d.with_fix(SuggestedEdit::replace_span(span, "1", "set `eff 1`"));
            }
            out.push(d);
        }
    };
    let volume_diag =
        |kw: &str, v: f64, span: wrm_lang::Span, what: &str, out: &mut Vec<Diagnostic>| {
            // `<= 0.0 || NaN`, i.e. anything that is not a real volume.
            if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                out.push(Diagnostic::warning(
                    "W003",
                    sp(span),
                    format!(
                        "`{kw}` in task `{}` has non-positive {what} ({v}); the phase \
                         imposes no ceiling",
                        t.name
                    ),
                ));
            }
        };
    // E011: a distribution call the Monte-Carlo engine cannot sample.
    // The nominal quantity (the distribution mean) is meaningless when
    // the parameters are invalid — possibly NaN — so skip the value
    // checks below rather than pile derived noise onto the same phase.
    if let Some(d) = p.dist() {
        if let Err(reason) = d.to_dist().validate() {
            out.push(
                Diagnostic::error(
                    "E011",
                    sp(d.span()),
                    format!("invalid distribution in task `{}`: {reason}", t.name),
                )
                .with_help(
                    "distribution parameters must be finite and non-negative, bounds ordered \
                     lo <= mode <= hi, and empirical sets non-empty with positive weights",
                ),
            );
            return;
        }
    }
    match p {
        PhaseAst::Compute {
            flops,
            eff,
            span,
            eff_span,
            ..
        } => {
            eff_diag(*eff, *eff_span, out);
            volume_diag("compute", *flops, *span, "volume", out);
        }
        PhaseAst::NodeBytes {
            bytes,
            eff,
            span,
            eff_span,
            ..
        } => {
            eff_diag(*eff, *eff_span, out);
            volume_diag("node_bytes", *bytes, *span, "volume", out);
        }
        PhaseAst::SystemBytes { bytes, span, .. } => {
            volume_diag("system_bytes", *bytes, *span, "volume", out);
        }
        PhaseAst::Overhead { seconds, span, .. } => {
            if *seconds < 0.0 {
                out.push(Diagnostic::warning(
                    "W003",
                    sp(*span),
                    format!(
                        "`overhead` in task `{}` has negative duration ({seconds}s)",
                        t.name
                    ),
                ));
            }
        }
    }
}

/// E005: a task that cannot fit on the machine at all.
fn check_machine_fit(ast: &WorkflowAst, machine: &Machine, out: &mut Vec<Diagnostic>) {
    for t in &ast.tasks {
        if t.nodes > machine.total_nodes {
            out.push(
                Diagnostic::error(
                    "E005",
                    sp(t.nodes_span),
                    format!(
                        "task `{}` needs {} nodes but machine `{}` has only {}",
                        t.name, t.nodes, machine.name, machine.total_nodes
                    ),
                )
                .with_help(
                    "the parallelism wall floor(total_nodes / nodes_per_task) would be 0; \
                     no schedule exists",
                ),
            );
        }
    }
}

/// W001: phases whose resource the machine does not provide.
fn check_dead_ceilings(ast: &WorkflowAst, machine: &Machine, out: &mut Vec<Diagnostic>) {
    let has_flops = machine
        .node_resources
        .iter()
        .any(|r| r.peak_per_node.unit() == WorkUnit::Flops);
    let list = |items: Vec<String>| {
        if items.is_empty() {
            "(none)".to_owned()
        } else {
            items.join(", ")
        }
    };
    let node_ids = || {
        list(
            machine
                .node_resources
                .iter()
                .map(|r| format!("`{}`", r.id))
                .collect(),
        )
    };
    let system_ids = || {
        list(
            machine
                .system_resources
                .iter()
                .map(|r| format!("`{}`", r.id))
                .collect(),
        )
    };
    for t in &ast.tasks {
        for p in &t.phases {
            match p {
                PhaseAst::Compute { span, .. } if !has_flops => {
                    out.push(
                        Diagnostic::warning(
                            "W001",
                            sp(*span),
                            format!(
                                "machine `{}` has no FLOP/s node resource; this `compute` \
                                 phase imposes no ceiling",
                                machine.name
                            ),
                        )
                        .with_help(format!("node resources on this machine: {}", node_ids())),
                    );
                }
                PhaseAst::NodeBytes { resource, span, .. }
                    if machine.node_resource(resource).is_none() =>
                {
                    out.push(
                        Diagnostic::warning(
                            "W001",
                            sp(*span),
                            format!(
                                "machine `{}` has no node resource `{resource}`; this \
                                 `node_bytes` phase imposes no ceiling",
                                machine.name
                            ),
                        )
                        .with_help(format!("node resources on this machine: {}", node_ids())),
                    );
                }
                PhaseAst::SystemBytes { resource, span, .. }
                    if machine.system_resource(resource).is_none() =>
                {
                    out.push(
                        Diagnostic::warning(
                            "W001",
                            sp(*span),
                            format!(
                                "machine `{}` has no system resource `{resource}`; this \
                                 `system_bytes` phase imposes no ceiling",
                                machine.name
                            ),
                        )
                        .with_help(format!(
                            "system resources on this machine: {}",
                            system_ids()
                        )),
                    );
                }
                _ => {}
            }
        }
    }
}

/// W002: declared machines never referenced with `on`.
fn check_unused_machines(ast: &WorkflowAst, out: &mut Vec<Diagnostic>) {
    // Only the first declaration of a name is reachable (E008 covers the
    // rest), and only the one matching `on <name>` is used.
    let mut seen = BTreeSet::new();
    for m in &ast.machines {
        let first = seen.insert(&m.name);
        if first && ast.machine.as_ref() != Some(&m.name) {
            out.push(
                Diagnostic::warning(
                    "W002",
                    sp(m.span),
                    format!("machine `{}` is declared but never used", m.name),
                )
                .with_help(format!(
                    "reference it with `workflow {} on {} {{ ... }}`",
                    ast.name, m.name
                )),
            );
        }
    }
}

/// W005: targets the model can prove unattainable. The model exists
/// only when the spec compiled cleanly on a resolved machine, so this
/// implicitly skips files with error-severity diagnostics.
fn check_targets(ast: &WorkflowAst, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    let Some(model) = &ctx.model else { return };
    if ast.targets.makespan.is_none() && ast.targets.throughput.is_none() {
        return;
    }
    if model.ceilings.is_empty() {
        return; // nothing binds; any target is (vacuously) attainable
    }
    let wall = model.parallelism_wall as f64;

    if let Some(target) = ast.targets.throughput {
        // The best the envelope ever allows: node ceilings peak at the
        // wall, system ceilings are flat.
        if let Some(best) = model.envelope_at(wall) {
            let best = best.get();
            if best.is_finite() && target > best * (1.0 + 1e-9) {
                let binding = model
                    .binding_ceiling_at(wall)
                    .map_or_else(|| "parallelism wall".to_owned(), |c| c.label.clone());
                out.push(
                    Diagnostic::warning(
                        "W005",
                        sp(ast.targets.throughput_span),
                        format!(
                            "throughput target {target} tasks/s is unattainable: the model \
                             caps at {best:.6} tasks/s even at the parallelism wall \
                             (x = {wall})",
                        ),
                    )
                    .with_help(format!("binding ceiling: {binding}")),
                );
            }
        }
    }

    if let Some(target) = ast.targets.makespan {
        if let Some(lb) = model.makespan_lower_bound() {
            let lb = lb.get();
            if lb.is_finite() && target < lb * (1.0 - 1e-9) {
                let binding = model
                    .binding_ceiling()
                    .map_or_else(|| "parallelism wall".to_owned(), |c| c.label.clone());
                out.push(
                    Diagnostic::warning(
                        "W005",
                        sp(ast.targets.makespan_span),
                        format!(
                            "makespan target {target}s is below the theoretical lower bound \
                             {lb:.3}s at this workflow's parallelism",
                        ),
                    )
                    .with_help(format!("binding ceiling: {binding}")),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        lint_source(src).into_iter().map(|d| d.code).collect()
    }

    fn find(src: &str, code: &str) -> Diagnostic {
        lint_source(src)
            .into_iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("no {code} diagnostic for {src}"))
    }

    #[test]
    fn clean_workflow_produces_no_diagnostics() {
        let src = "workflow w on pm-gpu {
  task a[4] { nodes 8 compute 1PFLOPS eff 0.5 system_bytes fs 1TB }
  task b { nodes 1 system_bytes fs 1GB after a }
}";
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn e000_syntax_error() {
        let d = find("workflow w { task a { nodes } }", "E000");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("syntax error"), "{}", d.message);
        assert!(d.span.is_known());
    }

    #[test]
    fn e001_unknown_machine() {
        let d = find("workflow w on summit { task a { } }", "E001");
        assert!(
            d.message.contains("unknown machine `summit`"),
            "{}",
            d.message
        );
        assert_eq!((d.span.line, d.span.col), (1, 15));
        assert!(d.help.unwrap().contains("pm-gpu"));
    }

    #[test]
    fn e002_undeclared_dependency() {
        let d = find("workflow w {\n  task b { after ghost }\n}", "E002");
        assert!(
            d.message.contains("undeclared task `ghost`"),
            "{}",
            d.message
        );
        assert_eq!((d.span.line, d.span.col), (2, 18));
        assert!(d.help.unwrap().contains("`b`"));
    }

    #[test]
    fn e003_replica_index_out_of_range() {
        let d = find("workflow w { task a[2] { } task b { after a[5] } }", "E003");
        assert!(d.message.contains("`a[5]`"), "{}", d.message);
        assert!(d.message.contains("only 2 replica"), "{}", d.message);
    }

    #[test]
    fn e004_dependency_cycle() {
        let d = find(
            "workflow w { task a { after b } task b { after c } task c { after a } }",
            "E004",
        );
        assert!(
            d.message.contains("a -> b -> c -> a") || d.message.contains("cycle"),
            "{}",
            d.message
        );
        // Self-dependency is a cycle too, even with an index.
        let d = find("workflow w { task a[3] { after a[0] } }", "E004");
        assert!(d.message.contains("a -> a"), "{}", d.message);
    }

    #[test]
    fn e005_task_larger_than_machine() {
        let d = find(
            "machine m { nodes 4 node compute 1TFLOPS }
workflow w on m { task big { nodes 8 compute 1PFLOPS } }",
            "E005",
        );
        assert!(d.message.contains("needs 8 nodes"), "{}", d.message);
        assert!(d.message.contains("only 4"), "{}", d.message);
    }

    #[test]
    fn e006_eff_out_of_range() {
        let d = find("workflow w { task a { compute 1PFLOPS eff 2 } }", "E006");
        assert!(d.message.contains("(0, 1]"), "{}", d.message);
        let d = find("workflow w { task a { compute 1PFLOPS eff 0 } }", "E006");
        assert!(d.message.contains("got 0"), "{}", d.message);
    }

    #[test]
    fn e007_zero_replicas() {
        let d = find("workflow w { task a[0] { } }", "E007");
        assert!(d.message.contains("0 replicas"), "{}", d.message);
    }

    #[test]
    fn e008_duplicates() {
        let d = find("workflow w { task a { } task a { } }", "E008");
        assert!(d.message.contains("task `a`"), "{}", d.message);
        let d = find(
            "machine m { nodes 1 } machine m { nodes 2 } workflow w on m { task a { } }",
            "E008",
        );
        assert!(d.message.contains("machine `m`"), "{}", d.message);
    }

    #[test]
    fn e011_overflowing_lognormal() {
        let d = find(
            "workflow w on pm-cpu { task a { nodes 1 compute lognormal(1PFLOPS, 100) } }",
            "E011",
        );
        assert_eq!(
            d.message,
            "invalid distribution in task `a`: upper bound median * exp(8 * sigma) must be \
             finite, got inf"
        );
        let d = find(
            "workflow w on pm-cpu { task a { nodes 1 overhead python lognormal(0s, 100) } }",
            "E011",
        );
        assert!(d.message.ends_with("got NaN"), "{}", d.message);
        // A wide but representable lognormal stays clean.
        let clean = "workflow w on pm-cpu { task a { nodes 1 compute lognormal(1PFLOPS, 2) } }";
        assert!(lint_source(clean).iter().all(|d| d.code != "E011"));
    }

    #[test]
    fn w001_dead_ceiling() {
        // pm-gpu has no `dram` node resource (it has hbm) and no `bb`.
        let src = "workflow w on pm-gpu { task a { node_bytes dram 1GB system_bytes bb 1GB } }";
        let diags = lint_source(src);
        let w: Vec<_> = diags.iter().filter(|d| d.code == "W001").collect();
        assert_eq!(w.len(), 2, "{diags:?}");
        assert!(
            w[0].message.contains("no node resource `dram`"),
            "{}",
            w[0].message
        );
        assert!(
            w[1].message.contains("no system resource `bb`"),
            "{}",
            w[1].message
        );
        // A machine with no FLOP/s resource makes compute dead.
        let d = find(
            "machine m { nodes 4 node dram 100GB/s }
workflow w on m { task a { compute 1PFLOPS } }",
            "W001",
        );
        assert!(
            d.message.contains("no FLOP/s node resource"),
            "{}",
            d.message
        );
    }

    #[test]
    fn w002_unused_machine() {
        let d = find(
            "machine spare { nodes 4 node compute 1TFLOPS }
workflow w on pm-gpu { task a { } }",
            "W002",
        );
        assert!(d.message.contains("`spare`"), "{}", d.message);
        assert!(d.help.unwrap().contains("on spare"));
    }

    #[test]
    fn w003_zero_volume() {
        let d = find("workflow w { task a { compute 0FLOPS } }", "W003");
        assert!(d.message.contains("non-positive"), "{}", d.message);
        let d = find("workflow w { task a { system_bytes fs 0B } }", "W003");
        assert!(d.message.contains("system_bytes"), "{}", d.message);
    }

    #[test]
    fn w004_zero_nodes() {
        let d = find("workflow w { task a { nodes 0 } }", "W004");
        assert!(d.message.contains("nodes 0"), "{}", d.message);
    }

    #[test]
    fn w005_infeasible_throughput_names_binding_ceiling() {
        // One task at a time (chain), each needing 1000 s of external
        // transfer: throughput can never exceed ~0.001 tasks/s, let
        // alone 1 task/s.
        let src = "machine m { nodes 4 node compute 1TFLOPS system ext 1GB/s }
workflow w on m {
  targets { throughput 1 }
  task pull[4] chain { nodes 1 system_bytes ext 1TB }
}";
        let d = find(src, "W005");
        assert!(d.message.contains("unattainable"), "{}", d.message);
        assert!(
            d.help.unwrap().contains("ext"),
            "should name the binding ceiling"
        );
    }

    #[test]
    fn w005_infeasible_makespan() {
        let src = "machine m { nodes 4 node compute 1TFLOPS system ext 1GB/s }
workflow w on m {
  targets { makespan 10s }
  task pull[4] chain { nodes 1 system_bytes ext 1TB }
}";
        let d = find(src, "W005");
        assert!(d.message.contains("lower bound"), "{}", d.message);
    }

    #[test]
    fn w005_skipped_when_errors_present() {
        // The same infeasible target, but with an error elsewhere: W005
        // stays quiet because the model cannot be trusted.
        let src = "machine m { nodes 4 node compute 1TFLOPS system ext 1GB/s }
workflow w on m {
  targets { throughput 1 }
  task pull[4] chain { nodes 1 system_bytes ext 1TB after ghost }
}";
        let diags = lint_source(src);
        assert!(diags.iter().any(|d| d.code == "E002"));
        assert!(!diags.iter().any(|d| d.code == "W005"));
    }

    #[test]
    fn diagnostics_come_back_sorted_by_position() {
        let src = "workflow w {\n  task a[0] { }\n  task b { after ghost }\n}";
        let diags = lint_source(src);
        let lines: Vec<usize> = diags.iter().map(|d| d.span.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn lint_errors_filters_warnings() {
        let src = "workflow w on pm-gpu { task a[0] { node_bytes dram 1GB } }";
        let all = lint_source(src);
        assert!(all.iter().any(|d| d.severity == Severity::Warning));
        let ast = wrm_lang::parse(src).unwrap();
        let errs = lint_errors(&ast);
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|d| d.severity == Severity::Error));
    }

    fn repo_spec(rel: &str) -> (String, WorkflowAst) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../workflows")
            .join(rel);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let ast = wrm_lang::parse(&source).unwrap();
        (source, ast)
    }

    #[test]
    fn the_error_gate_skips_what_only_warnings_read() {
        // No makespan target: only warnings read the model and the
        // certificate, so the gate builds neither.
        let (_, ast) = repo_spec("node_pressure.wrm");
        let (_, full) = lint_with_context(&ast);
        assert!(full.model.is_some() && full.certificate.is_some());
        let (errors, gate) = lint_errors_with_context(&ast);
        assert!(errors.is_empty());
        assert!(gate.compiled.is_some());
        assert!(gate.model.is_none() && gate.certificate.is_none());
    }

    #[test]
    fn the_error_gate_certifies_a_target_for_e010() {
        let (source, ast) = repo_spec("bad/infeasible_floor.wrm");
        let (errors, gate) = lint_errors_with_context(&ast);
        assert!(gate.certificate.is_some() && gate.model.is_none());
        let full: Vec<Diagnostic> = lint_ast(&ast)
            .into_iter()
            .filter(|d| d.code == "E010")
            .collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(full.len(), 1);
        assert_eq!(errors[0], full[0]);
        let lines = crate::LineIndex::new(&source);
        assert_eq!(errors[0].render(&lines), full[0].render(&lines));
    }

    #[test]
    fn registry_is_consistent() {
        // Codes are unique, ordered, and match their severity prefix.
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.code), "duplicate code {}", r.code);
            let expect = match r.severity {
                Severity::Error => 'E',
                Severity::Warning => 'W',
            };
            assert!(r.code.starts_with(expect), "{} vs {:?}", r.code, r.severity);
        }
        assert!(rule("E001").is_some());
        assert!(rule("Z999").is_none());
    }
}
