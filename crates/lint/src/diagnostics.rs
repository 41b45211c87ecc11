//! Diagnostic data model: severities, stable rule codes, source spans,
//! and rendered caret snippets.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How serious a diagnostic is.
///
/// Ordered so `max()` picks the worst severity in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Severity {
    /// The spec is suspicious or wasteful but still analyzable.
    Warning,
    /// The spec cannot be compiled into a meaningful model.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A 1-based source position, matching the lexer's line/column scheme,
/// plus the byte range of the spanned text (when known) so fix-its and
/// SARIF regions can address the source precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// Byte offset of the spanned text (0 when only a position is
    /// known).
    #[serde(default)]
    pub offset: usize,
    /// Byte length of the spanned text (0 when only a position is
    /// known).
    #[serde(default)]
    pub len: usize,
}

impl Span {
    /// A span at `line:col` with no byte range.
    pub fn new(line: usize, col: usize) -> Self {
        Self {
            line,
            col,
            offset: 0,
            len: 0,
        }
    }

    /// A span at `line:col` covering `len` bytes starting at `offset`.
    pub fn with_range(line: usize, col: usize, offset: usize, len: usize) -> Self {
        Self {
            line,
            col,
            offset,
            len,
        }
    }

    /// The "unknown location" sentinel used when a construct has no
    /// recorded position.
    pub fn unknown() -> Self {
        Self::new(0, 0)
    }

    /// True when the span carries a real position.
    pub fn is_known(&self) -> bool {
        self.line > 0
    }

    /// True when the span carries a usable byte range.
    pub fn has_range(&self) -> bool {
        self.len > 0
    }

    /// One past the last byte of the spanned text.
    pub fn end_offset(&self) -> usize {
        self.offset + self.len
    }
}

impl From<wrm_lang::Span> for Span {
    fn from(s: wrm_lang::Span) -> Self {
        Self {
            line: s.line,
            col: s.col,
            offset: s.offset,
            len: s.len,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A machine-applicable edit: replace `len` bytes at `offset` with
/// `replacement`. `len == 0` inserts; an empty replacement deletes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuggestedEdit {
    /// Byte offset of the start of the replaced range.
    pub offset: usize,
    /// Byte length of the replaced range.
    pub len: usize,
    /// Text to splice in.
    pub replacement: String,
    /// Short human description of the edit.
    pub title: String,
}

impl SuggestedEdit {
    /// An edit replacing the bytes under `span` (which must carry a
    /// range) with `replacement`.
    pub fn replace_span(
        span: Span,
        replacement: impl Into<String>,
        title: impl Into<String>,
    ) -> Self {
        Self {
            offset: span.offset,
            len: span.len,
            replacement: replacement.into(),
            title: title.into(),
        }
    }

    /// One past the last replaced byte.
    pub fn end_offset(&self) -> usize {
        self.offset + self.len
    }
}

/// One finding from the linter: a stable rule code, a severity, a source
/// span, and a human-readable message (plus an optional help line).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule code (`E001`, `W003`, ...). `E000` is reserved for
    /// syntax errors surfaced through the linter.
    pub code: String,
    /// Whether this is an error or a warning.
    pub severity: Severity,
    /// Where in the source the problem is anchored.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// Optional guidance on how to fix it.
    pub help: Option<String>,
    /// Machine-applicable edits that resolve the diagnostic (empty when
    /// no automatic fix exists).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub fixes: Vec<SuggestedEdit>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: &str, span: Span, message: impl Into<String>) -> Self {
        Self {
            code: code.to_owned(),
            severity: Severity::Error,
            span,
            message: message.into(),
            help: None,
            fixes: Vec::new(),
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: &str, span: Span, message: impl Into<String>) -> Self {
        Self {
            code: code.to_owned(),
            severity: Severity::Warning,
            span,
            message: message.into(),
            help: None,
            fixes: Vec::new(),
        }
    }

    /// Attaches a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Attaches a machine-applicable fix.
    pub fn with_fix(mut self, fix: SuggestedEdit) -> Self {
        self.fixes.push(fix);
        self
    }

    /// One-line rendering: `error[E001] 3:9: message`.
    pub fn one_line(&self) -> String {
        if self.span.is_known() {
            format!(
                "{}[{}] {}: {}",
                self.severity, self.code, self.span, self.message
            )
        } else {
            format!("{}[{}]: {}", self.severity, self.code, self.message)
        }
    }

    /// Multi-line rendering with a caret snippet pointing into `source`:
    ///
    /// ```text
    /// error[E001] 3:9: unknown machine `pm-gpuu`
    ///   |
    /// 3 | machine pm-gpuu
    ///   |         ^
    ///   = help: did you mean `pm-gpu`?
    /// ```
    pub fn render(&self, source: &str) -> String {
        let mut out = self.one_line();
        if self.span.is_known() {
            if let Some(line_text) = source.lines().nth(self.span.line - 1) {
                let number = self.span.line.to_string();
                let gutter = " ".repeat(number.len());
                out.push_str(&format!("\n{gutter} |\n{number} | {line_text}"));
                let caret_pad = " ".repeat(self.span.col.saturating_sub(1));
                out.push_str(&format!("\n{gutter} | {caret_pad}^"));
            }
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n  = help: {help}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_includes_code_span_and_message() {
        let d = Diagnostic::error("E001", Span::new(3, 9), "unknown machine `x`");
        assert_eq!(d.one_line(), "error[E001] 3:9: unknown machine `x`");
    }

    #[test]
    fn render_points_a_caret_at_the_column() {
        let src = "workflow w\nmachine pm-gpuu\n";
        let d = Diagnostic::error("E001", Span::new(2, 9), "unknown machine `pm-gpuu`")
            .with_help("did you mean `pm-gpu`?");
        let r = d.render(src);
        assert!(r.contains("2 | machine pm-gpuu"), "{r}");
        assert!(r.contains("  |         ^"), "{r}");
        assert!(r.contains("= help: did you mean `pm-gpu`?"), "{r}");
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn diagnostic_round_trips_through_json() {
        let d = Diagnostic::warning("W002", Span::new(7, 1), "unused machine `m`")
            .with_help("remove it");
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn unknown_span_is_omitted_from_text() {
        let d = Diagnostic::error("E008", Span::unknown(), "duplicate task `a`");
        assert_eq!(d.one_line(), "error[E008]: duplicate task `a`");
    }

    #[test]
    fn fixes_round_trip_and_legacy_json_still_loads() {
        let d = Diagnostic::warning("W004", Span::with_range(4, 11, 40, 1), "nodes 0").with_fix(
            SuggestedEdit::replace_span(
                Span::with_range(4, 11, 40, 1),
                "1",
                "replace `0` with `1`",
            ),
        );
        assert_eq!(d.fixes.len(), 1);
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Diagnostics serialized before spans carried byte ranges (and
        // before `fixes` existed) still deserialize.
        let legacy = r#"{"code":"E001","severity":"error","span":{"line":2,"col":15},
                         "message":"unknown machine `summit`","help":null}"#;
        let back: Diagnostic = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.span, Span::new(2, 15));
        assert!(back.fixes.is_empty());
    }
}
