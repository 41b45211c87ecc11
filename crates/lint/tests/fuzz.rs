//! Property tests: the linter must never panic, whatever the input.
//!
//! `lint_source` is the entry point the CLI hands raw files to, so it
//! has to absorb arbitrary bytes (E000), arbitrary parseable-but-absurd
//! specs (the parser is deliberately permissive about values), and
//! hostile dependency graphs without crashing. On every generated spec
//! that parses, the error gate (`lint_errors`) must return exactly the
//! full lint's errors, in the same order.
//!
//! The shared task-name table is checked against [`per_pass`], the
//! resolution each pass used to make with a map of its own, and the
//! line index that renders snippets against [`scanned_render`], the
//! rendering that found each line by scanning from the top.

use proptest::prelude::*;
use wrm_lint::{
    apply_fixes, collect_edits, lint_ast, lint_errors, lint_errors_with_context, lint_source,
    max_severity, Diagnostic, LineIndex, Severity, Span,
};

/// Fails unless `lint_errors` equals `lint_ast` filtered to errors,
/// element for element. Sources that do not parse pass: both runs
/// start from an AST.
fn gate_matches_full_lint(src: &str) -> Result<(), TestCaseError> {
    let Ok(ast) = wrm_lang::parse(src) else {
        return Ok(());
    };
    let full: Vec<_> = lint_ast(&ast)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    let gate = lint_errors(&ast);
    prop_assert!(gate == full, "{src}\ngate: {gate:?}\nfull: {full:?}");
    Ok(())
}

/// `d` rendered with its snippet line found by `source.lines().nth`,
/// as every diagnostic was rendered before sources had a line index.
fn scanned_render(d: &Diagnostic, source: &str) -> String {
    let mut out = d.one_line();
    if d.span.is_known() {
        if let Some(line_text) = source.lines().nth(d.span.line - 1) {
            let number = d.span.line.to_string();
            let gutter = " ".repeat(number.len());
            out.push_str(&format!("\n{gutter} |\n{number} | {line_text}"));
            let caret_pad = " ".repeat(d.span.col.saturating_sub(1));
            out.push_str(&format!("\n{gutter} | {caret_pad}^"));
        }
    }
    if let Some(help) = &d.help {
        out.push_str(&format!("\n  = help: {help}"));
    }
    out
}

/// Fails unless every token the lexer returns starts on a character
/// boundary at the line and column that counting characters in the
/// source before it gives.
fn token_positions_count_chars(src: &str) -> Result<(), TestCaseError> {
    let Ok(tokens) = wrm_lang::lexer::lex(src) else {
        return Ok(());
    };
    for t in &tokens {
        prop_assert!(src.is_char_boundary(t.offset) && src.is_char_boundary(t.end_offset()));
        let before = &src[..t.offset];
        let line = 1 + before.matches('\n').count();
        let col = 1 + before.rsplit('\n').next().map_or(0, |l| l.chars().count());
        prop_assert!(
            (t.line, t.col) == (line, col),
            "{:?} at {}:{}, counted {line}:{col} in {src:?}",
            t.kind,
            t.line,
            t.col
        );
    }
    Ok(())
}

/// A character from one draw: one in four is ASCII (control characters
/// and newlines included), the rest spread over the two-, three- and
/// four-byte UTF-8 ranges.
fn unicode_char(x: u32) -> char {
    let end = [0x80, 0x800, 0x1_0000, 0x11_0000][(x % 4) as usize];
    char::from_u32((x >> 2) % end).unwrap_or('\u{FFFD}')
}

/// Arbitrary Unicode text of `len` characters.
fn unicode_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), len)
        .prop_map(|draws| draws.into_iter().map(unicode_char).collect())
}

/// Printable-ASCII lines, each ending in a comment of arbitrary
/// Unicode, so the scan gets past the first character it rejects. The
/// last comment has no newline: end of input follows it on its line.
fn commented_lines() -> impl Strategy<Value = String> {
    proptest::collection::vec(("[ -~]{0,30}", unicode_text(0..20)), 0..8).prop_map(|lines| {
        lines
            .iter()
            .map(|(code, comment)| format!("{code}#{comment}"))
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// The name resolution each pass made with its own ordered map before
/// the passes shared one table, kept as the oracle the table must
/// reproduce. E002, E003 and E004 resolve a name declared twice to its
/// last declaration (collecting into a map keeps the last value), the
/// analysis IR to its first, and the compiler refuses it.
mod per_pass {
    use std::collections::{BTreeMap, BTreeSet};
    use wrm_lang::ast::WorkflowAst;
    use wrm_lang::LangError;
    use wrm_lint::Diagnostic;
    use wrm_sim::{Phase, TaskSpec, WorkflowSpec};

    /// E008 for tasks.
    pub fn duplicates(ast: &WorkflowAst) -> Vec<Diagnostic> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &ast.tasks {
            if !seen.insert(&t.name) {
                out.push(Diagnostic::error(
                    "E008",
                    t.span.into(),
                    format!("task `{}` is declared twice", t.name),
                ));
            }
        }
        out
    }

    /// E002 and E003, with E002's help capped at twenty names.
    pub fn dependencies(ast: &WorkflowAst) -> Vec<Diagnostic> {
        let counts: BTreeMap<&str, usize> = ast
            .tasks
            .iter()
            .map(|t| (t.name.as_str(), t.count))
            .collect();
        let mut help: Vec<String> = counts.keys().take(20).map(|k| format!("`{k}`")).collect();
        if counts.len() > 20 {
            help.push(format!("… and {} more", counts.len() - 20));
        }
        let help = format!("declared tasks: {}", help.join(", "));
        let mut out = Vec::new();
        for t in &ast.tasks {
            for dep in &t.after {
                match counts.get(dep.name.as_str()) {
                    None => out.push(
                        Diagnostic::error(
                            "E002",
                            dep.span.into(),
                            format!(
                                "task `{}` depends on undeclared task `{}`",
                                t.name, dep.name
                            ),
                        )
                        .with_help(help.clone()),
                    ),
                    Some(&count) => match dep.index {
                        Some(idx) if idx >= count => out.push(
                            Diagnostic::error(
                                "E003",
                                dep.span.into(),
                                format!(
                                    "task `{}` references `{}[{idx}]` but only {count} \
                                     replica(s) exist",
                                    t.name, dep.name
                                ),
                            )
                            .with_help("replica indices are 0-based"),
                        ),
                        _ => {}
                    },
                }
            }
        }
        out
    }

    /// E004: the depth-first cycle search over the last declarations.
    pub fn cycles(ast: &WorkflowAst) -> Vec<Diagnostic> {
        let index: BTreeMap<&str, usize> = ast
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        let n = ast.tasks.len();
        let mut settled = vec![false; n];
        let mut on_path = vec![false; n];
        let (mut path, mut edge_pos): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        for start in 0..n {
            if settled[start] {
                continue;
            }
            path.push(start);
            edge_pos.push(0);
            on_path[start] = true;
            while let Some(&node) = path.last() {
                let deps = &ast.tasks[node].after;
                let cursor = edge_pos[path.len() - 1];
                let next = deps[cursor..].iter().enumerate().find_map(|(off, dep)| {
                    index
                        .get(dep.name.as_str())
                        .map(|&to| (cursor + off + 1, to, dep))
                });
                match next {
                    Some((resume, to, dep)) if on_path[to] && !settled[to] => {
                        let from = path.iter().position(|&v| v == to).unwrap();
                        let mut names: Vec<&str> = path[from..]
                            .iter()
                            .map(|&v| ast.tasks[v].name.as_str())
                            .collect();
                        names.push(ast.tasks[to].name.as_str());
                        for &v in &path[from..] {
                            settled[v] = true;
                        }
                        out.push(
                            Diagnostic::error(
                                "E004",
                                dep.span.into(),
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
        out
    }

    /// The analysis IR's dependencies: each resolved `after` entry's
    /// first declaration.
    pub fn ir_deps(ast: &WorkflowAst) -> Vec<Vec<usize>> {
        let first: BTreeMap<&str, usize> = ast
            .tasks
            .iter()
            .enumerate()
            .rev()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        ast.tasks
            .iter()
            .map(|t| {
                t.after
                    .iter()
                    .filter_map(|a| first.get(a.name.as_str()).copied())
                    .collect()
            })
            .collect()
    }

    fn replica(base: &str, index: usize, count: usize) -> String {
        if count == 1 {
            base.to_owned()
        } else {
            format!("{base}[{index}]")
        }
    }

    /// The compiled spec of a generated graph (every task one overhead
    /// phase, replica counts at least 1), or the compiler's first error.
    pub fn compile(ast: &WorkflowAst) -> Result<WorkflowSpec, LangError> {
        let mut counts = BTreeMap::new();
        for t in &ast.tasks {
            if counts.insert(t.name.clone(), t.count).is_some() {
                let msg = format!("task `{}` is declared twice", t.name);
                return Err(LangError::new(msg, t.span.line, t.span.col));
            }
        }
        let mut spec = WorkflowSpec::new(ast.name.clone());
        for t in &ast.tasks {
            for i in 0..t.count {
                let mut task = TaskSpec::new(replica(&t.name, i, t.count), t.nodes.max(1))
                    .phase(Phase::overhead("o", 1.0));
                if t.chain && i > 0 {
                    task = task.after(replica(&t.name, i - 1, t.count));
                }
                for dep in &t.after {
                    let (line, col) = (dep.span.line, dep.span.col);
                    let Some(&n) = counts.get(&dep.name) else {
                        let msg =
                            format!("task `{}` depends on unknown task `{}`", t.name, dep.name);
                        return Err(LangError::new(msg, line, col));
                    };
                    match dep.index {
                        Some(idx) if idx >= n => {
                            let msg = format!(
                                "task `{}` references `{}[{idx}]` but only {n} replicas exist",
                                t.name, dep.name
                            );
                            return Err(LangError::new(msg, line, col));
                        }
                        Some(idx) => task = task.after(replica(&dep.name, idx, n)),
                        None => {
                            for j in 0..n {
                                task = task.after(replica(&dep.name, j, n));
                            }
                        }
                    }
                }
                spec = spec.task(task);
            }
        }
        spec.max_width()
            .map_err(|e| LangError::new(format!("invalid workflow: {e}"), 0, 0))?;
        Ok(spec)
    }
}

/// One generated `task` declaration: its name (`n<k>`), replica count,
/// `chain`, and `after` entries as (name, replica index).
type Decl = (usize, usize, bool, Vec<(usize, Option<usize>)>);

/// Task graphs in three kinds: names drawn from a pool (so they repeat),
/// unique names, and unique names whose `after`s name only earlier
/// tasks at in-range replicas (so most compile). Across them, `after`s
/// name undeclared tasks, index past a replica count, point at their
/// own task and close cycles, and long graphs declare more names than
/// E002's help lists.
fn name_graphs() -> impl Strategy<Value = Vec<Decl>> {
    let after = (0usize..40, proptest::option::of(0usize..4));
    let decl = (
        0usize..26,
        1usize..4,
        any::<bool>(),
        proptest::collection::vec(after, 0..4),
    );
    (0usize..3, proptest::collection::vec(decl, 1..36)).prop_map(|(kind, mut decls)| {
        let counts: Vec<usize> = decls.iter().map(|d| d.1).collect();
        for (i, (name, _, _, after)) in decls.iter_mut().enumerate() {
            if kind > 0 {
                *name = i;
            }
            if kind == 2 {
                after.retain(|_| i > 0);
                for (dep, index) in after.iter_mut() {
                    *dep %= i.max(1);
                    *index = index.map(|k| k % counts[*dep]);
                }
            }
        }
        decls
    })
}

fn graph_source(decls: &[Decl]) -> String {
    let mut src = String::from("workflow w on pm-cpu {\n");
    for (name, count, chain, after) in decls {
        let bracket = if *count == 1 {
            String::new()
        } else {
            format!("[{count}]")
        };
        let chain = if *chain { " chain" } else { "" };
        src.push_str(&format!("  task n{name}{bracket}{chain} {{ overhead o 1s"));
        for (dep, index) in after {
            match index {
                Some(i) => src.push_str(&format!(" after n{dep}[{i}]")),
                None => src.push_str(&format!(" after n{dep}")),
            }
        }
        src.push_str(" }\n");
    }
    src.push_str("}\n");
    src
}

/// Fails unless the diagnostics, IR and compile of `src` that resolve
/// names through the shared table equal [`per_pass`]'s.
fn names_match_per_pass_maps(src: &str) -> Result<(), TestCaseError> {
    let ast = wrm_lang::parse(src).expect("generated graphs parse");
    let (errors, ctx) = lint_errors_with_context(&ast);
    let resolved: Vec<_> = errors
        .into_iter()
        .filter(|d| ["E002", "E003", "E004", "E008"].contains(&d.code.as_str()))
        .collect();
    let mut expected = per_pass::duplicates(&ast);
    expected.extend(per_pass::dependencies(&ast));
    expected.extend(per_pass::cycles(&ast));
    expected.sort_by(|a, b| (a.span, &a.code, &a.message).cmp(&(b.span, &b.code, &b.message)));
    prop_assert!(
        resolved == expected,
        "{src}\ntable: {resolved:#?}\nmaps: {expected:#?}"
    );

    let deps: Vec<Vec<usize>> = ctx.ir.tasks.iter().map(|t| t.deps.clone()).collect();
    let oracle_deps = per_pass::ir_deps(&ast);
    prop_assert!(
        deps == oracle_deps,
        "{src}\ntable: {deps:?}\nmaps: {oracle_deps:?}"
    );

    let oracle = per_pass::compile(&ast);
    match (wrm_lang::compile(&ast), &oracle) {
        (Ok(c), Ok(spec)) => prop_assert!(&c.spec == spec, "{src}"),
        (Err(e), Err(o)) => prop_assert!(
            (&e.message, e.line, e.col) == (&o.message, o.line, o.col),
            "{src}\ncompile: {e:?}\noracle: {o:?}"
        ),
        (got, _) => prop_assert!(false, "{src}\ncompile: {got:?}\noracle: {oracle:?}"),
    }
    if let Some(c) = &ctx.compiled {
        prop_assert!(oracle.as_ref().is_ok_and(|spec| &c.spec == spec), "{src}");
    }
    Ok(())
}

proptest! {
    /// The lexer scans bytes, so a multi-byte character must never
    /// split a slice or shift a column.
    #[test]
    fn never_panics_on_arbitrary_text(src in prop_oneof![unicode_text(0..200), commented_lines()]) {
        let _ = lint_source(&src);
        token_positions_count_chars(&src)?;
    }

    #[test]
    fn never_panics_on_keyword_soup(words in proptest::collection::vec(prop_oneof![
        Just("workflow"), Just("machine"), Just("task"), Just("targets"),
        Just("nodes"), Just("compute"), Just("node_bytes"), Just("system_bytes"),
        Just("overhead"), Just("after"), Just("eff"), Just("cap"), Just("on"),
        Just("{"), Just("}"), Just("["), Just("]"), Just("per"),
        Just("1TB"), Just("0"), Just("-3"), Just("2.5GB/s"), Just("pm-cpu"),
        Just("a"), Just("b"), Just("\n"),
    ], 0..40)) {
        let src = words.join(" ");
        let _ = lint_source(&src);
        gate_matches_full_lint(&src)?;
    }

    #[test]
    fn diagnostics_always_have_registered_codes(
        count in 0usize..6,
        nodes in 0usize..5000,
        // The lexer has no unary minus, so stay non-negative; 0.0 and
        // anything above 1.0 still trip E006.
        eff in 0.0f64..2.0,
    ) {
        // A generated spec that can trip E005/E006/E007/W003/W004
        // depending on the drawn values; whatever fires must come from
        // the registry and E000 must not (the spec is syntactically
        // valid).
        let src = format!(
            "workflow w on pm-cpu {{\n  task a[{count}] {{\n    nodes {nodes}\n    \
             compute 1TFLOPS eff {eff:.3}\n  }}\n}}\n"
        );
        for d in lint_source(&src) {
            prop_assert!(wrm_lint::rule(&d.code).is_some(), "unregistered code {}", d.code);
            prop_assert!(d.code != "E000", "valid spec produced a syntax error");
        }
        gate_matches_full_lint(&src)?;
    }

    #[test]
    fn random_dependency_graphs_never_hang_or_panic(edges in proptest::collection::vec(
        (0usize..8, 0usize..8), 0..16,
    )) {
        // 8 tasks with random `after` edges: cycles, self-loops, and
        // duplicate edges are all fair game for E004.
        let mut src = String::from("workflow w on pm-cpu {\n");
        for i in 0..8 {
            src.push_str(&format!("  task t{i} {{\n    nodes 1\n    compute 1TFLOPS\n"));
            for (from, to) in &edges {
                if *from == i {
                    src.push_str(&format!("    after t{to}\n"));
                }
            }
            src.push_str("  }\n");
        }
        src.push_str("}\n");
        let diags = lint_source(&src);
        // Syntactically valid by construction; cycles surface as E004,
        // never as a panic or a bogus syntax error.
        for d in &diags {
            prop_assert!(d.code != "E000", "valid spec produced a syntax error");
        }
        let has_self_loop = edges.iter().any(|(f, t)| f == t);
        if has_self_loop {
            prop_assert_eq!(max_severity(&diags), Some(Severity::Error));
            prop_assert!(diags.iter().any(|d| d.code == "E004"));
        }
        gate_matches_full_lint(&src)?;
    }

    /// `--fix` round trip: applying every suggested edit yields a file
    /// that still parses, and re-linting it no longer reports the fixed
    /// diagnostic at its original (code, line). Specs here draw from
    /// the fixable rules' trigger space: zero nodes/replicas (W004,
    /// E007), out-of-range eff (E006), redundant and duplicate `after`
    /// edges (W006), and infeasible makespan targets (W009).
    #[test]
    fn applied_fixes_reparse_and_resolve_their_diagnostics(
        count in 0usize..3,
        nodes in 0usize..3,
        eff in prop_oneof![Just(0.0f64), Just(0.5), Just(2.0)],
        makespan in 1usize..2000,
        dup_edge in any::<bool>(),
        transitive_edge in any::<bool>(),
    ) {
        let mut src = format!(
            "machine m {{ nodes 16 node compute 1TFLOPS system ext 1GB/s }}\n\
             workflow w on m {{\n  targets {{ makespan {makespan}s }}\n  \
             task a[{count}] {{ nodes {nodes} compute 1PFLOPS eff {eff:.1} \
             system_bytes ext 100GB }}\n  \
             task b {{ after a }}\n  task c {{ after b"
        );
        if dup_edge {
            src.push_str(" after b");
        }
        if transitive_edge {
            src.push_str(" after a");
        }
        src.push_str(" }\n}\n");

        let diags = lint_source(&src);
        let edits = collect_edits(&diags);
        let outcome = apply_fixes(&src, &edits);
        // Whatever was applied, the result must still parse.
        let reparsed = wrm_lang::parse(&outcome.fixed);
        prop_assert!(reparsed.is_ok(), "fixed source fails to parse:\n{}", outcome.fixed);

        // Every fixable diagnostic whose edits all landed must be gone
        // from the re-lint at its original (code, line) anchor.
        let relinted = lint_source(&outcome.fixed);
        for d in diags.iter().filter(|d| !d.fixes.is_empty()) {
            let all_applied = d
                .fixes
                .iter()
                .all(|f| outcome.applied.contains(f));
            if all_applied {
                prop_assert!(
                    !relinted
                        .iter()
                        .any(|r| r.code == d.code && r.span.line == d.span.line),
                    "{} at line {} survived its own fix:\n{}\nrelinted: {relinted:?}",
                    d.code,
                    d.span.line,
                    outcome.fixed
                );
            }
        }
    }

    /// The shared name table resolves every name as each pass's own map
    /// did: E002, E003, E004 and E008 element for element, the IR's
    /// dependencies, and the compiler's errors and specs.
    #[test]
    fn the_name_table_resolves_as_the_per_pass_maps_did(decls in name_graphs()) {
        let src = graph_source(&decls);
        names_match_per_pass_maps(&src)?;
        gate_matches_full_lint(&src)?;
    }

    /// The line index gives every line `str::lines` gives, terminators
    /// (`\n`, `\r\n`) stripped and a bare `\r` kept, with or without a
    /// final newline, and nothing before the first line or past the
    /// last; a rendered snippet equals the scanned one.
    #[test]
    fn snippets_from_the_line_index_match_a_scan(pieces in proptest::collection::vec(prop_oneof![
        Just("a"), Just("task t"), Just("é"), Just(" "), Just(""),
        Just("\n"), Just("\n"), Just("\r\n"), Just("\r"), Just("\n\n"),
    ], 0..30)) {
        let src = pieces.concat();
        let index = LineIndex::new(&src);
        let count = src.lines().count();
        for line in 0..count + 3 {
            let (got, want) = (index.line(line), line.checked_sub(1).and_then(|n| src.lines().nth(n)));
            prop_assert!(got == want, "line {line} of {src:?}: {got:?}, want {want:?}");
            let d = Diagnostic::error("E002", Span::new(line, 3), "m").with_help("h");
            let (got, want) = (d.render(&index), scanned_render(&d, &src));
            prop_assert!(got == want, "{src:?}: {got:?}, want {want:?}");
        }
    }
}
