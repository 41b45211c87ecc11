//! Property tests: the linter must never panic, whatever the input.
//!
//! `lint_source` is the entry point the CLI hands raw files to, so it
//! has to absorb arbitrary bytes (E000), arbitrary parseable-but-absurd
//! specs (the parser is deliberately permissive about values), and
//! hostile dependency graphs without crashing. On every generated spec
//! that parses, the error gate (`lint_errors`) must return exactly the
//! full lint's errors, in the same order.

use proptest::prelude::*;
use wrm_lint::{
    apply_fixes, collect_edits, lint_ast, lint_errors, lint_source, max_severity, Severity,
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
}
