//! Tokens for the workflow description language (WDL-lite).

use std::fmt;

/// A token with its source position (1-based line/column, counted in
/// characters) and byte range. Identifiers borrow their text from the
/// source, so a token is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// The token kind and payload.
    pub kind: TokenKind<'src>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// Byte offset of the token start.
    pub offset: usize,
    /// Byte length of the token text (0 for Eof).
    pub len: usize,
}

impl Token<'_> {
    /// One past the last byte of the token text.
    pub fn end_offset(&self) -> usize {
        self.offset + self.len
    }
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword (`workflow`, `task`, `nodes`, resource ids),
    /// borrowed from the source.
    Ident(&'src str),
    /// A number with an optional unit suffix, normalized to base units:
    /// bytes, flops, seconds, or bytes/s. A bare number has `unit: None`.
    Number {
        /// Normalized value (base units when a unit was given).
        value: f64,
        /// The unit class, when a suffix was present.
        unit: Option<Unit>,
    },
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// End of input.
    Eof,
}

/// Unit classes a number suffix can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Data volume (bytes).
    Bytes,
    /// Compute volume (FLOPs).
    Flops,
    /// Duration (seconds).
    Seconds,
    /// Data rate (bytes/second).
    BytesPerSec,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Number { value, unit } => match unit {
                Some(u) => write!(f, "number {value} ({u:?})"),
                None => write!(f, "number {value}"),
            },
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::LBracket => f.write_str("`[`"),
            TokenKind::RBracket => f.write_str("`]`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A language-level error with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl LangError {
    /// Creates an error at a position.
    pub fn new(message: impl Into<String>, line: usize, col: usize) -> Self {
        Self {
            message: message.into(),
            line,
            col,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LangError {}
