//! Golden front-end errors: the exact message, line and column
//! `wrm_lang::parse` reports for lexer edge cases, and the values the
//! lexer gives mixed-case unit suffixes.
//!
//! Lines and columns count characters, not bytes, so the non-ASCII
//! cases pin that a multi-byte character in a comment or a value
//! position moves the column by one.

use wrm_lang::lexer::lex;
use wrm_lang::token::{TokenKind, Unit};

/// `(source, message, line, column)`.
const ERRORS: &[(&str, &str, usize, usize)] = &[
    // A minus that starts no number.
    ("-", "unexpected character `-`", 1, 1),
    ("a - b", "unexpected character `-`", 1, 3),
    ("--5", "unexpected character `-`", 1, 1),
    (
        "workflow w { task a { nodes - } }",
        "unexpected character `-`",
        1,
        29,
    ),
    // Malformed numbers and suffixes.
    ("5XB", "unknown unit suffix `XB`", 1, 1),
    ("1.2.3", "invalid number `1.2.3`", 1, 1),
    ("1e", "invalid number `1e`", 1, 1),
    ("1e+", "invalid number `1e+`", 1, 1),
    ("1e--5", "invalid number `1e-`", 1, 1),
    ("2EB", "invalid number `2E`", 1, 1),
    ("-.", "invalid number `-.`", 1, 1),
    (
        "workflow w { task a { nodes 2.5e3x } }",
        "unknown unit suffix `x`",
        1,
        29,
    ),
    (
        "workflow w { task a { nodes 3KfLoPs/s } }",
        "unknown unit suffix `KfLoPs/s`",
        1,
        29,
    ),
    (
        "workflow w { task a { nodes 7S/s } }",
        "unknown unit suffix `S/s`",
        1,
        29,
    ),
    // Mixed-case suffixes lex to their unit class; the wrong-unit
    // message names it.
    (
        "workflow w { task a { nodes 2.5gb/S } }",
        "nodes: wrong unit BytesPerSec, expected None",
        1,
        29,
    ),
    (
        "workflow w { task a { nodes 9.7TFLOPS } }",
        "nodes: wrong unit Flops, expected None",
        1,
        29,
    ),
    (
        "workflow w { task a { nodes 3Kflop } }",
        "nodes: wrong unit Flops, expected None",
        1,
        29,
    ),
    (
        "workflow w { task a { compute 2.5gb/S } }",
        "compute: wrong unit BytesPerSec, expected Some(Flops)",
        1,
        31,
    ),
    // Characters the language has no use for.
    ("@", "unexpected character `@`", 1, 1),
    ("é", "unexpected character `é`", 1, 1),
    (
        "workflow w { task a-_. { nodes 1 } } ~",
        "unexpected character `~`",
        1,
        38,
    ),
    (
        "workflow w on pm-cpu { task a { overhead s uniform(4s, 6s) } } ?",
        "unexpected character `?`",
        1,
        64,
    ),
    // Non-ASCII in a value position.
    (
        "workflow w {\n  task a { nodes é }\n}",
        "unexpected character `é`",
        2,
        18,
    ),
    (
        "workflow w { task a { nodes 5é } }",
        "unexpected character `é`",
        1,
        30,
    ),
    // Non-ASCII comments, with the error on the same line and on the
    // next one.
    (
        "workflow w { task a { warp 9 } } # ünïcödé ✓ 日本",
        "unknown task statement `warp` (expected nodes, compute, node_bytes, system_bytes, \
         overhead, or after)",
        1,
        28,
    ),
    (
        "# ünïcödé ✓ 日本\nworkflow w { task a { nodes 5qq } }",
        "unknown unit suffix `qq`",
        2,
        29,
    ),
    (
        "workflow w { # 日本語\n\ttask a { nodes @ } }",
        "unexpected character `@`",
        2,
        17,
    ),
    (
        "workflow w { task a { nodes 1 } }\n# trailing ✓\nx",
        "unexpected trailing input: identifier `x`",
        3,
        1,
    ),
    (
        "workflow w {\r\n task a { nodes 1.5 }\r\n}",
        "nodes: expected a non-negative integer, got 1.5",
        2,
        17,
    ),
    // End of input right after a final comment with no newline.
    (
        "workflow w { task a { } # ünïcödé",
        "expected `task` or `targets`, found end of input",
        1,
        34,
    ),
    (
        "workflow w { task a { } # plain",
        "expected `task` or `targets`, found end of input",
        1,
        32,
    ),
    ("", "expected `workflow`, found end of input", 1, 1),
    (
        "# only a comment ✓",
        "expected `workflow`, found end of input",
        1,
        19,
    ),
];

#[test]
fn parse_errors_keep_their_message_line_and_column() {
    for &(source, message, line, col) in ERRORS {
        let err = wrm_lang::parse(source).expect_err(source);
        assert_eq!(
            (err.message.as_str(), err.line, err.col),
            (message, line, col),
            "{source:?}"
        );
    }
}

#[test]
fn mixed_case_unit_suffixes_normalize_to_base_units() {
    let cases: &[(&str, f64, Option<Unit>)] = &[
        ("2.5gb/S", 2.5e9, Some(Unit::BytesPerSec)),
        ("9.7TFLOPS", 9.7e12, Some(Unit::Flops)),
        ("3Kflop", 3e3, Some(Unit::Flops)),
        ("1Min", 60.0, Some(Unit::Seconds)),
        ("2HRS", 7200.0, Some(Unit::Seconds)),
        ("4Ms", 0.004, Some(Unit::Seconds)),
        ("1PB/s", 1e15, Some(Unit::BytesPerSec)),
        ("-2e-3S", -0.002, Some(Unit::Seconds)),
        ("1.5e9", 1.5e9, None),
        (".5", 0.5, None),
        ("5.", 5.0, None),
    ];
    for &(text, value, unit) in cases {
        let tokens = lex(text).expect(text);
        assert_eq!(tokens[0].kind, TokenKind::Number { value, unit }, "{text}");
        assert_eq!(tokens[0].len, text.len(), "{text}");
    }
}
