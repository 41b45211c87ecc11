//! Lexer: source text -> tokens.
//!
//! Numbers accept decimal-SI unit suffixes, case-insensitive:
//!
//! * bytes: `B KB MB GB TB PB`
//! * rates: `B/s KB/s MB/s GB/s TB/s`
//! * flops: `FLOP GFLOP TFLOP PFLOP` (plural `...S` accepted)
//! * time:  `ms s min h`
//!
//! `#` starts a line comment. Identifiers are
//! `[A-Za-z_][A-Za-z0-9_.-]*`.
//!
//! The scan runs over bytes: every token is ASCII, so a non-ASCII
//! character can only sit in a comment or be an error, and every slice
//! the lexer takes starts and ends on a character boundary. Columns
//! still count characters.

use crate::token::{LangError, Token, TokenKind, Unit};

/// Byte-volume suffixes; with a `/s` they are rates.
const BYTE_SUFFIXES: [(&str, f64); 6] = [
    ("b", 1.0),
    ("kb", 1e3),
    ("mb", 1e6),
    ("gb", 1e9),
    ("tb", 1e12),
    ("pb", 1e15),
];

/// Every other suffix, none of which takes a `/s`.
const OTHER_SUFFIXES: [(&str, f64, Unit); 20] = [
    ("flop", 1.0, Unit::Flops),
    ("flops", 1.0, Unit::Flops),
    ("kflop", 1e3, Unit::Flops),
    ("kflops", 1e3, Unit::Flops),
    ("mflop", 1e6, Unit::Flops),
    ("mflops", 1e6, Unit::Flops),
    ("gflop", 1e9, Unit::Flops),
    ("gflops", 1e9, Unit::Flops),
    ("tflop", 1e12, Unit::Flops),
    ("tflops", 1e12, Unit::Flops),
    ("pflop", 1e15, Unit::Flops),
    ("pflops", 1e15, Unit::Flops),
    ("ms", 1e-3, Unit::Seconds),
    ("s", 1.0, Unit::Seconds),
    ("sec", 1.0, Unit::Seconds),
    ("secs", 1.0, Unit::Seconds),
    ("min", 60.0, Unit::Seconds),
    ("h", 3600.0, Unit::Seconds),
    ("hr", 3600.0, Unit::Seconds),
    ("hrs", 3600.0, Unit::Seconds),
];

fn unit_of(suffix: &str) -> Option<(f64, Unit)> {
    let (body, rate) = match suffix.as_bytes() {
        [body @ .., b'/', b's' | b'S'] => (&suffix[..body.len()], true),
        _ => (suffix, false),
    };
    if let Some(&(_, scale)) = BYTE_SUFFIXES
        .iter()
        .find(|(s, _)| body.eq_ignore_ascii_case(s))
    {
        return Some(if rate {
            (scale, Unit::BytesPerSec)
        } else {
            (scale, Unit::Bytes)
        });
    }
    if rate {
        return None;
    }
    OTHER_SUFFIXES
        .iter()
        .find(|(s, _, _)| body.eq_ignore_ascii_case(s))
        .map(|&(_, scale, unit)| (scale, unit))
}

/// Tokenizes `source`.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LangError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut i = 0usize;
    // Advances `i` past every byte that satisfies the predicate.
    let skip_while = |mut i: usize, keep: fn(u8) -> bool| {
        while bytes.get(i).is_some_and(|&b| keep(b)) {
            i += 1;
        }
        i
    };

    while let Some(&b) = bytes.get(i) {
        let start = i;
        let kind = match b {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | b',' | b';' => {
                i += 1;
                col += 1;
                continue;
            }
            b'#' => {
                // Comment to end of line; the newline is scanned next.
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                col += source[start..i].chars().count();
                continue;
            }
            b'{' => {
                i += 1;
                TokenKind::LBrace
            }
            b'}' => {
                i += 1;
                TokenKind::RBrace
            }
            b'[' => {
                i += 1;
                TokenKind::LBracket
            }
            b']' => {
                i += 1;
                TokenKind::RBracket
            }
            b'(' => {
                i += 1;
                TokenKind::LParen
            }
            b')' => {
                i += 1;
                TokenKind::RParen
            }
            b'0'..=b'9' | b'.' | b'-' => {
                if b == b'-' {
                    // A leading minus starts a negative number (`-` in
                    // the middle of an identifier is consumed by the
                    // identifier arm below). The value is almost always
                    // a lint error — the lexer stays permissive so the
                    // linter can point at it.
                    i += 1;
                    if !bytes
                        .get(i)
                        .is_some_and(|&d| d.is_ascii_digit() || d == b'.')
                    {
                        return Err(LangError::new("unexpected character `-`", line, col));
                    }
                }
                // Digits, dots and exponents; a sign only right after an
                // exponent marker. A trailing 'e' with no exponent ("5e")
                // stays part of the number and fails to parse.
                while let Some(&d) = bytes.get(i) {
                    let exponent_sign =
                        (d == b'+' || d == b'-') && matches!(bytes[i - 1], b'e' | b'E');
                    if d.is_ascii_digit() || matches!(d, b'.' | b'e' | b'E') || exponent_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let num = &source[start..i];
                let value: f64 = num
                    .parse()
                    .map_err(|_| LangError::new(format!("invalid number `{num}`"), line, col))?;
                // Optional unit suffix, directly attached.
                let suffix_start = i;
                i = skip_while(i, |c| c.is_ascii_alphabetic() || c == b'/');
                let suffix = &source[suffix_start..i];
                if suffix.is_empty() {
                    TokenKind::Number { value, unit: None }
                } else {
                    let Some((scale, unit)) = unit_of(suffix) else {
                        return Err(LangError::new(
                            format!("unknown unit suffix `{suffix}`"),
                            line,
                            col,
                        ));
                    };
                    TokenKind::Number {
                        value: value * scale,
                        unit: Some(unit),
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                i = skip_while(i, |c| {
                    c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-'
                });
                TokenKind::Ident(&source[start..i])
            }
            _ => {
                let other = source[i..].chars().next().expect("i is a char boundary");
                return Err(LangError::new(
                    format!("unexpected character `{other}`"),
                    line,
                    col,
                ));
            }
        };
        // Every token is ASCII: one column per byte.
        tokens.push(Token {
            kind,
            line,
            col,
            offset: start,
            len: i - start,
        });
        col += i - start;
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
        offset: i,
        len: 0,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let k = kinds("workflow lcls { task a[5] }");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("workflow"),
                TokenKind::Ident("lcls"),
                TokenKind::LBrace,
                TokenKind::Ident("task"),
                TokenKind::Ident("a"),
                TokenKind::LBracket,
                TokenKind::Number {
                    value: 5.0,
                    unit: None
                },
                TokenKind::RBracket,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn units_normalize_to_base() {
        let k = kinds("1TB 32GB 100GB/s 9.7TFLOPS 600s 10min 0.5h 3ms");
        let vals: Vec<(f64, Option<Unit>)> = k
            .into_iter()
            .filter_map(|t| match t {
                TokenKind::Number { value, unit } => Some((value, unit)),
                _ => None,
            })
            .collect();
        assert_eq!(vals[0], (1e12, Some(Unit::Bytes)));
        assert_eq!(vals[1], (32e9, Some(Unit::Bytes)));
        assert_eq!(vals[2], (100e9, Some(Unit::BytesPerSec)));
        assert_eq!(vals[3], (9.7e12, Some(Unit::Flops)));
        assert_eq!(vals[4], (600.0, Some(Unit::Seconds)));
        assert_eq!(vals[5], (600.0, Some(Unit::Seconds)));
        assert_eq!(vals[6], (1800.0, Some(Unit::Seconds)));
        assert_eq!(vals[7], (0.003, Some(Unit::Seconds)));
    }

    #[test]
    fn comments_and_separators_are_skipped() {
        let k = kinds("a # a comment with { } [ ] 5TB\nb; c, d");
        assert_eq!(k.len(), 5); // a b c d Eof
    }

    #[test]
    fn scientific_notation() {
        let k = kinds("1.5e9 2e-3s");
        assert_eq!(
            k[0],
            TokenKind::Number {
                value: 1.5e9,
                unit: None
            }
        );
        assert_eq!(
            k[1],
            TokenKind::Number {
                value: 0.002,
                unit: Some(Unit::Seconds)
            }
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("task a\n  nodes 5qq").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown unit suffix"));
        let err = lex("a ? b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        let err = lex("1.2.3").unwrap_err();
        assert!(err.message.contains("invalid number"));
    }

    #[test]
    fn byte_ranges_slice_back_to_the_source_text() {
        let src = "workflow lcls {\n  task a[5] nodes 32\n}";
        let toks = lex(src).unwrap();
        for t in &toks {
            let text = &src[t.offset..t.end_offset()];
            match &t.kind {
                TokenKind::Ident(s) => assert_eq!(text, *s),
                TokenKind::Number { .. } => assert!(text == "5" || text == "32"),
                TokenKind::LBrace => assert_eq!(text, "{"),
                TokenKind::RBrace => assert_eq!(text, "}"),
                TokenKind::LBracket => assert_eq!(text, "["),
                TokenKind::RBracket => assert_eq!(text, "]"),
                TokenKind::LParen => assert_eq!(text, "("),
                TokenKind::RParen => assert_eq!(text, ")"),
                TokenKind::Eof => {
                    assert_eq!(t.offset, src.len());
                    assert_eq!(t.len, 0);
                }
            }
        }
        // Unit suffixes are part of the number token's range.
        let toks = lex("cap 1.5GB/s").unwrap();
        assert_eq!(
            &"cap 1.5GB/s"[toks[1].offset..toks[1].end_offset()],
            "1.5GB/s"
        );
    }

    #[test]
    fn parens_lex_as_tokens_with_comma_separators() {
        // Distribution calls: commas are separators, parens are tokens.
        let k = kinds("lognormal(120s, 0.3)");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("lognormal"),
                TokenKind::LParen,
                TokenKind::Number {
                    value: 120.0,
                    unit: Some(Unit::Seconds)
                },
                TokenKind::Number {
                    value: 0.3,
                    unit: None
                },
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn negative_numbers_lex_with_optional_units() {
        let k = kinds("-0.5 -3s");
        assert_eq!(
            k[0],
            TokenKind::Number {
                value: -0.5,
                unit: None
            }
        );
        assert_eq!(
            k[1],
            TokenKind::Number {
                value: -3.0,
                unit: Some(Unit::Seconds)
            }
        );
        // A bare minus is still rejected.
        let err = lex("a - b").unwrap_err();
        assert!(err.message.contains("unexpected character `-`"));
    }

    #[test]
    fn identifiers_allow_dots_and_dashes() {
        let k = kinds("pm-gpu cori_hsw ids.fs");
        assert_eq!(k[0], TokenKind::Ident("pm-gpu"));
        assert_eq!(k[1], TokenKind::Ident("cori_hsw"));
        assert_eq!(k[2], TokenKind::Ident("ids.fs"));
    }
}
