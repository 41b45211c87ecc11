//! Recursive-descent parser: tokens -> [`WorkflowAst`].
//!
//! Grammar (whitespace/`,`/`;` are separators, `#` comments):
//!
//! ```text
//! file      := machine* "workflow" IDENT ["on" IDENT] "{" item* "}"
//! machine   := "machine" IDENT "{" mstmt* "}"
//! mstmt     := "nodes" INT
//!            | "node" IDENT RATE            (flops- or bytes-per-second)
//!            | "system" IDENT RATE
//!            | "system_per_node" IDENT RATE
//! item      := targets | task
//! targets   := "targets" "{" tstmt* "}"
//! tstmt     := "makespan" TIME
//!            | "throughput" NUMBER ["per" TIME]
//! task      := "task" IDENT ["[" INT "]"] ["chain"] "{" stmt* "}"
//! stmt      := "nodes" INT
//!            | "compute" QTY(FLOPS) ["eff" NUMBER]
//!            | "node_bytes" IDENT QTY(BYTES) ["eff" NUMBER]
//!            | "system_bytes" IDENT QTY(BYTES) ["cap" RATE]
//!            | "overhead" IDENT QTY(TIME)
//!            | "after" IDENT ["[" INT "]"]
//! QTY(U)    := U | DIST(U)
//! DIST(U)   := "uniform" "(" U U ")"
//!            | "lognormal" "(" U NUMBER ")"          (median, sigma)
//!            | "triangular" "(" U U U ")"            (lo, mode, hi)
//!            | "empirical" "(" (U NUMBER)* ")"       (value weight ...)
//! ```
//!
//! A `QTY` written as a distribution call lowers its *mean* into the
//! phase's plain quantity (so deterministic analyses are unchanged) and
//! records the distribution on the AST for the Monte-Carlo engine.
//!
//! The parser records a [`Span`] on every AST node so downstream
//! consumers (the linter, the compiler) can anchor diagnostics. It is
//! deliberately permissive about *values* — a replica count of 0 or an
//! efficiency of 2.0 parses fine; the linter flags them (E007/E006) and
//! the compiler rejects them as a backstop.

use crate::ast::{AfterRef, DistAst, MachineAst, PhaseAst, Span, TargetsAst, TaskAst, WorkflowAst};
use crate::lexer::lex;
use crate::token::{LangError, Token, TokenKind, Unit};

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    pos: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &Token<'src> {
        &self.tokens[self.pos]
    }

    /// Source position (and byte range) of the next token.
    fn pos_span(&self) -> Span {
        let t = self.peek();
        Span::with_range(t.line, t.col, t.offset, t.len)
    }

    /// One past the last byte of the most recently consumed token.
    fn prev_end(&self) -> usize {
        self.tokens[self.pos.saturating_sub(1)].end_offset()
    }

    fn next(&mut self) -> Token<'src> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        let t = self.peek();
        LangError::new(msg, t.line, t.col)
    }

    fn expect_ident(&mut self) -> Result<&'src str, LangError> {
        match self.next() {
            Token {
                kind: TokenKind::Ident(s),
                ..
            } => Ok(s),
            t => Err(LangError::new(
                format!("expected identifier, found {}", t.kind),
                t.line,
                t.col,
            )),
        }
    }

    /// An identifier plus its source position.
    fn expect_ident_spanned(&mut self) -> Result<(&'src str, Span), LangError> {
        let span = self.pos_span();
        Ok((self.expect_ident()?, span))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), LangError> {
        let t = self.next();
        match t.kind {
            TokenKind::Ident(s) if s == kw => Ok(()),
            other => Err(LangError::new(
                format!("expected `{kw}`, found {other}"),
                t.line,
                t.col,
            )),
        }
    }

    fn expect_token(&mut self, kind: TokenKind<'src>) -> Result<(), LangError> {
        let t = self.next();
        if t.kind == kind {
            Ok(())
        } else {
            Err(LangError::new(
                format!("expected {kind}, found {}", t.kind),
                t.line,
                t.col,
            ))
        }
    }

    /// A number whose unit must be `expected` (or unit-less, which is
    /// accepted and taken at face value).
    fn expect_number(&mut self, expected: Option<Unit>, what: &str) -> Result<f64, LangError> {
        let t = self.next();
        match t.kind {
            TokenKind::Number { value, unit } => match (unit, expected) {
                (None, _) => Ok(value),
                (Some(u), Some(e)) if u == e => Ok(value),
                (Some(u), _) => Err(LangError::new(
                    format!("{what}: wrong unit {u:?}, expected {expected:?}"),
                    t.line,
                    t.col,
                )),
            },
            other => Err(LangError::new(
                format!("{what}: expected a number, found {other}"),
                t.line,
                t.col,
            )),
        }
    }

    fn expect_uint(&mut self, what: &str) -> Result<u64, LangError> {
        let t = *self.peek();
        let v = self.expect_number(None, what)?;
        if v.fract() != 0.0 || v < 0.0 || v > u64::MAX as f64 {
            return Err(LangError::new(
                format!("{what}: expected a non-negative integer, got {v}"),
                t.line,
                t.col,
            ));
        }
        Ok(v as u64)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    /// A phase quantity: a plain number, or a distribution call
    /// (`uniform`/`lognormal`/`triangular`/`empirical` followed by
    /// `(`). Returns the nominal value — the distribution mean for
    /// calls, so deterministic analyses see the expected workload — and
    /// the parsed distribution. An identifier *not* followed by `(` is
    /// left in place (e.g. a resource that happens to be named
    /// `uniform`).
    fn expect_quantity(
        &mut self,
        unit: Option<Unit>,
        what: &str,
    ) -> Result<(f64, Option<DistAst>), LangError> {
        if let TokenKind::Ident(name) = self.peek().kind {
            let is_dist = matches!(name, "uniform" | "lognormal" | "triangular" | "empirical");
            let next_is_paren =
                matches!(self.tokens.get(self.pos + 1), Some(t) if t.kind == TokenKind::LParen);
            if is_dist && next_is_paren {
                let dist = self.parse_dist_call(unit, what)?;
                return Ok((dist.to_dist().mean(), Some(dist)));
            }
        }
        Ok((self.expect_number(unit, what)?, None))
    }

    /// One distribution call; the cursor sits on the distribution
    /// keyword. Quantity-valued parameters are unit-checked against the
    /// phase's unit; sigma and empirical weights are unit-less. Like
    /// every other value position the parser is permissive about
    /// *values* — `lognormal(10s, -1)` parses; the linter flags it
    /// (E011) and the compiler rejects it as a backstop.
    fn parse_dist_call(&mut self, unit: Option<Unit>, what: &str) -> Result<DistAst, LangError> {
        let kw_span = self.pos_span();
        let name = self.expect_ident()?;
        self.expect_token(TokenKind::LParen)?;
        let ast = match name {
            "uniform" => {
                let lo = self.expect_number(unit, what)?;
                let hi = self.expect_number(unit, what)?;
                DistAst::Uniform {
                    lo,
                    hi,
                    span: kw_span,
                }
            }
            "lognormal" => {
                let median = self.expect_number(unit, what)?;
                let sigma = self.expect_number(None, "sigma")?;
                DistAst::LogNormal {
                    median,
                    sigma,
                    span: kw_span,
                }
            }
            "triangular" => {
                let lo = self.expect_number(unit, what)?;
                let mode = self.expect_number(unit, what)?;
                let hi = self.expect_number(unit, what)?;
                DistAst::Triangular {
                    lo,
                    mode,
                    hi,
                    span: kw_span,
                }
            }
            "empirical" => {
                let mut samples = Vec::new();
                while !matches!(self.peek().kind, TokenKind::RParen | TokenKind::Eof) {
                    let v = self.expect_number(unit, what)?;
                    let w = self.expect_number(None, "weight")?;
                    samples.push((v, w));
                }
                DistAst::Empirical {
                    samples,
                    span: kw_span,
                }
            }
            other => unreachable!("caller checked the distribution name, got `{other}`"),
        };
        self.expect_token(TokenKind::RParen)?;
        // Widen the span to the whole call so diagnostics and fix-its
        // can splice it.
        let full = Span::with_range(
            kw_span.line,
            kw_span.col,
            kw_span.offset,
            self.prev_end() - kw_span.offset,
        );
        Ok(match ast {
            DistAst::Uniform { lo, hi, .. } => DistAst::Uniform { lo, hi, span: full },
            DistAst::LogNormal { median, sigma, .. } => DistAst::LogNormal {
                median,
                sigma,
                span: full,
            },
            DistAst::Triangular { lo, mode, hi, .. } => DistAst::Triangular {
                lo,
                mode,
                hi,
                span: full,
            },
            DistAst::Empirical { samples, .. } => DistAst::Empirical {
                samples,
                span: full,
            },
        })
    }

    /// `eff <number>` if present. Any value parses; the linter enforces
    /// the (0, 1] range (E006). Returns the value and its span (unknown
    /// when defaulted).
    fn parse_optional_eff(&mut self) -> Result<(f64, Span), LangError> {
        if self.peek_keyword("eff") {
            self.next();
            let span = self.pos_span();
            let v = self.expect_number(None, "eff")?;
            Ok((v, span))
        } else {
            Ok((1.0, Span::default()))
        }
    }

    fn parse_task(&mut self) -> Result<TaskAst, LangError> {
        let (name, name_span) = self.expect_ident_spanned()?;
        let (count, count_span) = if self.peek().kind == TokenKind::LBracket {
            self.next();
            let span = self.pos_span();
            let n = self.expect_uint("replica count")? as usize;
            self.expect_token(TokenKind::RBracket)?;
            (n, span)
        } else {
            (1, name_span)
        };
        let chain = if self.peek_keyword("chain") {
            self.next();
            true
        } else {
            false
        };
        self.expect_token(TokenKind::LBrace)?;
        let mut task = TaskAst {
            name: name.to_owned(),
            span: name_span,
            count,
            count_span,
            chain,
            nodes: 1,
            nodes_span: name_span,
            phases: Vec::new(),
            after: Vec::new(),
        };
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.next();
                    break;
                }
                TokenKind::Ident(kw) => {
                    let kw_span = self.pos_span();
                    self.next();
                    match kw {
                        "nodes" => {
                            task.nodes_span = self.pos_span();
                            task.nodes = self.expect_uint("nodes")?;
                        }
                        "compute" => {
                            let (flops, dist) =
                                self.expect_quantity(Some(Unit::Flops), "compute")?;
                            let (eff, eff_span) = self.parse_optional_eff()?;
                            task.phases.push(PhaseAst::Compute {
                                flops,
                                eff,
                                span: kw_span,
                                eff_span,
                                dist,
                            });
                        }
                        "node_bytes" => {
                            let resource = self.expect_ident()?.to_owned();
                            let (bytes, dist) =
                                self.expect_quantity(Some(Unit::Bytes), "node_bytes")?;
                            let (eff, eff_span) = self.parse_optional_eff()?;
                            task.phases.push(PhaseAst::NodeBytes {
                                resource,
                                bytes,
                                eff,
                                span: kw_span,
                                eff_span,
                                dist,
                            });
                        }
                        "system_bytes" => {
                            let resource = self.expect_ident()?.to_owned();
                            let (bytes, dist) =
                                self.expect_quantity(Some(Unit::Bytes), "system_bytes")?;
                            let cap = if self.peek_keyword("cap") {
                                self.next();
                                Some(self.expect_number(Some(Unit::BytesPerSec), "cap")?)
                            } else {
                                None
                            };
                            task.phases.push(PhaseAst::SystemBytes {
                                resource,
                                bytes,
                                cap,
                                span: kw_span,
                                dist,
                            });
                        }
                        "overhead" => {
                            let label = self.expect_ident()?.to_owned();
                            let (seconds, dist) =
                                self.expect_quantity(Some(Unit::Seconds), "overhead")?;
                            task.phases.push(PhaseAst::Overhead {
                                label,
                                seconds,
                                span: kw_span,
                                dist,
                            });
                        }
                        "after" => {
                            let (name, span) = self.expect_ident_spanned()?;
                            let index = if self.peek().kind == TokenKind::LBracket {
                                self.next();
                                let i = self.expect_uint("replica index")? as usize;
                                self.expect_token(TokenKind::RBracket)?;
                                Some(i)
                            } else {
                                None
                            };
                            let stmt_span = Span::with_range(
                                kw_span.line,
                                kw_span.col,
                                kw_span.offset,
                                self.prev_end() - kw_span.offset,
                            );
                            task.after.push(AfterRef {
                                name: name.to_owned(),
                                index,
                                span,
                                stmt_span,
                            });
                        }
                        other => {
                            return Err(self.err(format!(
                                "unknown task statement `{other}` (expected nodes, compute, \
                                 node_bytes, system_bytes, overhead, or after)"
                            )));
                        }
                    }
                }
                other => {
                    return Err(self.err(format!("expected a task statement, found {other}")));
                }
            }
        }
        Ok(task)
    }

    /// A rate: a bytes/s number, or a flops number (interpreted as
    /// FLOP/s). Returns (value, is_flops).
    fn expect_rate(&mut self, what: &str) -> Result<(f64, bool), LangError> {
        let t = self.next();
        match t.kind {
            TokenKind::Number { value, unit } => match unit {
                Some(Unit::BytesPerSec) => Ok((value, false)),
                Some(Unit::Flops) => Ok((value, true)),
                None => Ok((value, false)),
                Some(other) => Err(LangError::new(
                    format!("{what}: expected a rate (B/s or FLOPS), got {other:?}"),
                    t.line,
                    t.col,
                )),
            },
            other => Err(LangError::new(
                format!("{what}: expected a rate, found {other}"),
                t.line,
                t.col,
            )),
        }
    }

    fn parse_machine(&mut self) -> Result<MachineAst, LangError> {
        let (name, span) = self.expect_ident_spanned()?;
        self.expect_token(TokenKind::LBrace)?;
        let mut m = MachineAst {
            name: name.to_owned(),
            span,
            nodes: 1,
            node_resources: Vec::new(),
            system_resources: Vec::new(),
        };
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.next();
                    break;
                }
                TokenKind::Ident(kw) => {
                    self.next();
                    match kw {
                        "nodes" => m.nodes = self.expect_uint("nodes")?,
                        "node" => {
                            let id = self.expect_ident()?.to_owned();
                            let (rate, is_flops) = self.expect_rate("node peak")?;
                            m.node_resources.push((id, rate, is_flops));
                        }
                        "system" => {
                            let id = self.expect_ident()?.to_owned();
                            let (rate, is_flops) = self.expect_rate("system peak")?;
                            if is_flops {
                                return Err(self.err("system peaks are bandwidths (B/s)"));
                            }
                            m.system_resources.push((id, rate, false));
                        }
                        "system_per_node" => {
                            let id = self.expect_ident()?.to_owned();
                            let (rate, is_flops) = self.expect_rate("system peak")?;
                            if is_flops {
                                return Err(self.err("system peaks are bandwidths (B/s)"));
                            }
                            m.system_resources.push((id, rate, true));
                        }
                        other => {
                            return Err(self.err(format!(
                                "unknown machine statement `{other}` (expected nodes, node, \
                                 system, or system_per_node)"
                            )));
                        }
                    }
                }
                other => {
                    return Err(self.err(format!("expected a machine statement, found {other}")));
                }
            }
        }
        Ok(m)
    }

    fn parse_targets(&mut self) -> Result<TargetsAst, LangError> {
        self.expect_token(TokenKind::LBrace)?;
        let mut t = TargetsAst::default();
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.next();
                    break;
                }
                TokenKind::Ident("makespan") => {
                    self.next();
                    t.makespan_span = self.pos_span();
                    t.makespan = Some(self.expect_number(Some(Unit::Seconds), "makespan")?);
                }
                TokenKind::Ident("throughput") => {
                    self.next();
                    t.throughput_span = self.pos_span();
                    let n = self.expect_number(None, "throughput")?;
                    if self.peek_keyword("per") {
                        self.next();
                        let per = self.expect_number(Some(Unit::Seconds), "per")?;
                        if per <= 0.0 {
                            return Err(self.err("`per` duration must be positive"));
                        }
                        t.throughput = Some(n / per);
                    } else {
                        t.throughput = Some(n);
                    }
                }
                other => {
                    return Err(self.err(format!(
                        "expected `makespan` or `throughput`, found {other}"
                    )));
                }
            }
        }
        Ok(t)
    }
}

/// Parses a workflow source file.
pub fn parse(source: &str) -> Result<WorkflowAst, LangError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut machines = Vec::new();
    while p.peek_keyword("machine") {
        p.next();
        machines.push(p.parse_machine()?);
    }
    p.expect_keyword("workflow")?;
    let (name, name_span) = p.expect_ident_spanned()?;
    let (machine, machine_span) = if p.peek_keyword("on") {
        p.next();
        let (m, span) = p.expect_ident_spanned()?;
        (Some(m.to_owned()), span)
    } else {
        (None, Span::default())
    };
    p.expect_token(TokenKind::LBrace)?;
    let mut ast = WorkflowAst {
        name: name.to_owned(),
        name_span,
        machine,
        machine_span,
        targets: TargetsAst::default(),
        tasks: Vec::new(),
        machines,
    };
    loop {
        match p.peek().kind {
            TokenKind::RBrace => {
                p.next();
                break;
            }
            TokenKind::Ident("task") => {
                p.next();
                ast.tasks.push(p.parse_task()?);
            }
            TokenKind::Ident("targets") => {
                p.next();
                ast.targets = p.parse_targets()?;
            }
            other => {
                return Err(p.err(format!("expected `task` or `targets`, found {other}")));
            }
        }
    }
    if p.peek().kind != TokenKind::Eof {
        return Err(p.err(format!("unexpected trailing input: {}", p.peek().kind)));
    }
    Ok(ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LCLS: &str = r#"
# The LCLS workflow of paper Fig. 4.
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
    system_bytes bb 1GB
  }
  task merge {
    nodes 1
    system_bytes bb 5GB
    after analyze
  }
}
"#;

    #[test]
    fn parses_the_lcls_example() {
        let ast = parse(LCLS).unwrap();
        assert_eq!(ast.name, "lcls");
        assert_eq!(ast.machine.as_deref(), Some("cori-hsw"));
        assert_eq!(ast.targets.makespan, Some(600.0));
        assert!((ast.targets.throughput.unwrap() - 0.01).abs() < 1e-12);
        assert_eq!(ast.tasks.len(), 2);
        let analyze = &ast.tasks[0];
        assert_eq!(analyze.count, 5);
        assert_eq!(analyze.nodes, 32);
        assert_eq!(analyze.phases.len(), 3);
        match &analyze.phases[0] {
            PhaseAst::SystemBytes {
                resource,
                bytes,
                cap,
                ..
            } => {
                assert_eq!(resource, "ext");
                assert_eq!(*bytes, 1e12);
                assert_eq!(*cap, Some(1e9));
            }
            other => panic!("expected system_bytes, got {other:?}"),
        }
        let merge = &ast.tasks[1];
        assert_eq!(merge.after.len(), 1);
        assert_eq!(merge.after[0].name, "analyze");
        assert_eq!(merge.after[0].index, None);
    }

    #[test]
    fn parses_compute_and_overhead() {
        let ast = parse(
            "workflow bgw { task e { nodes 64 compute 1164PFLOPS eff 0.39 \
             overhead setup 5s } task s { nodes 64 compute 3226PFLOPS after e } }",
        )
        .unwrap();
        match &ast.tasks[0].phases[0] {
            PhaseAst::Compute { flops, eff, .. } => {
                assert_eq!(*flops, 1.164e18);
                assert_eq!(*eff, 0.39);
            }
            other => panic!("expected compute, got {other:?}"),
        }
        match &ast.tasks[0].phases[1] {
            PhaseAst::Overhead { label, seconds, .. } => {
                assert_eq!(label, "setup");
                assert_eq!(*seconds, 5.0);
            }
            other => panic!("expected overhead, got {other:?}"),
        }
        assert_eq!(ast.tasks[1].after[0].name, "e");
    }

    #[test]
    fn spans_point_at_the_declaration_sites() {
        let ast = parse(LCLS).unwrap();
        // Line/col are 1-based; `workflow lcls on cori-hsw` is line 3.
        let lc = |s: Span| (s.line, s.col);
        assert_eq!(lc(ast.name_span), (3, 10));
        assert_eq!(lc(ast.machine_span), (3, 18));
        assert_eq!(ast.targets.makespan_span.line, 4);
        let analyze = &ast.tasks[0];
        assert_eq!(lc(analyze.span), (5, 8));
        assert_eq!(lc(analyze.count_span), (5, 16));
        assert_eq!(analyze.nodes_span.line, 6);
        assert_eq!(lc(analyze.phases[0].span()), (7, 5));
        let merge = &ast.tasks[1];
        assert_eq!(lc(merge.after[0].span), (14, 11));
    }

    #[test]
    fn byte_ranges_slice_back_to_the_declarations() {
        let ast = parse(LCLS).unwrap();
        let slice = |s: Span| &LCLS[s.offset..s.end_offset()];
        assert_eq!(slice(ast.name_span), "lcls");
        assert_eq!(slice(ast.machine_span), "cori-hsw");
        assert_eq!(slice(ast.targets.makespan_span), "10min");
        let analyze = &ast.tasks[0];
        assert_eq!(slice(analyze.span), "analyze");
        assert_eq!(slice(analyze.count_span), "5");
        assert_eq!(slice(analyze.nodes_span), "32");
        let merge = &ast.tasks[1];
        assert_eq!(slice(merge.after[0].span), "analyze");
        // The statement span covers the whole dependency edge so a
        // fix-it can delete it.
        assert_eq!(slice(merge.after[0].stmt_span), "after analyze");
        let ast = parse("workflow w { task a[3] { } task b { after a[1] } }").unwrap();
        let src = "workflow w { task a[3] { } task b { after a[1] } }";
        let s = ast.tasks[1].after[0].stmt_span;
        assert_eq!(&src[s.offset..s.end_offset()], "after a[1]");
    }

    #[test]
    fn default_spans_are_unknown() {
        let ast = parse("workflow w { task a { compute 1GFLOPS } }").unwrap();
        assert_eq!(ast.machine_span, Span::default());
        assert!(!ast.machine_span.is_known());
        match &ast.tasks[0].phases[0] {
            PhaseAst::Compute { eff, eff_span, .. } => {
                assert_eq!(*eff, 1.0);
                assert!(!eff_span.is_known());
            }
            other => panic!("expected compute, got {other:?}"),
        }
        // A bracket-less task anchors count/nodes spans on its name.
        assert_eq!(ast.tasks[0].count_span, ast.tasks[0].span);
    }

    #[test]
    fn suspicious_values_parse_for_the_linter() {
        // Replica count 0 and out-of-range eff are lint errors (E007,
        // E006), not parse errors.
        let ast = parse("workflow w { task a[0] { compute 1GFLOPS eff 2 } }").unwrap();
        assert_eq!(ast.tasks[0].count, 0);
        match &ast.tasks[0].phases[0] {
            PhaseAst::Compute { eff, eff_span, .. } => {
                assert_eq!(*eff, 2.0);
                assert!(eff_span.is_known());
            }
            other => panic!("expected compute, got {other:?}"),
        }
    }

    #[test]
    fn after_with_index() {
        let ast = parse("workflow w { task a[3] { } task b { after a[1] } }").unwrap();
        assert_eq!(ast.tasks[1].after[0].index, Some(1));
    }

    #[test]
    fn throughput_as_plain_rate() {
        let ast = parse("workflow w { targets { throughput 0.02 } }").unwrap();
        assert_eq!(ast.targets.throughput, Some(0.02));
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = parse("task a {}").unwrap_err();
        assert!(e.message.contains("expected `workflow`"), "{e}");
        let e = parse("workflow w { task a { nodes 1.5 } }").unwrap_err();
        assert!(e.message.contains("integer"), "{e}");
        let e = parse("workflow w { task a { compute 5GB } }").unwrap_err();
        assert!(e.message.contains("wrong unit"), "{e}");
        let e = parse("workflow w { task a { warp 9 } }").unwrap_err();
        assert!(e.message.contains("unknown task statement"), "{e}");
        let e = parse("workflow w { task a { eff } }").unwrap_err();
        assert!(e.message.contains("unknown task statement"), "{e}");
        let e = parse("workflow w { targets { makespan } }").unwrap_err();
        assert!(e.message.contains("expected a number"), "{e}");
        let e = parse("workflow w { targets { throughput 6 per 0s } }").unwrap_err();
        assert!(e.message.contains("positive"), "{e}");
        let e = parse("workflow w { } trailing").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn eof_inside_block_is_an_error() {
        let e = parse("workflow w { task a {").unwrap_err();
        assert!(e.message.contains("expected a task statement"), "{e}");
    }

    #[test]
    fn distribution_calls_parse_with_mean_as_nominal() {
        let src = "workflow w { task a {\n\
                   compute lognormal(4PFLOPS, 0.3) eff 0.5\n\
                   overhead setup uniform(4s, 6s)\n\
                   system_bytes ext triangular(1GB, 2GB, 6GB) cap 1GB/s\n\
                   node_bytes hbm empirical(1GB 3, 2GB 1)\n\
                   } }";
        let ast = parse(src).unwrap();
        let phases = &ast.tasks[0].phases;
        match &phases[0] {
            PhaseAst::Compute {
                flops,
                eff,
                dist: Some(DistAst::LogNormal { median, sigma, .. }),
                ..
            } => {
                assert_eq!(*median, 4e15);
                assert_eq!(*sigma, 0.3);
                assert_eq!(*eff, 0.5);
                // Nominal = lognormal mean = median * exp(sigma^2/2).
                assert_eq!(*flops, 4e15 * (0.5 * 0.3f64 * 0.3).exp());
            }
            other => panic!("expected compute with lognormal, got {other:?}"),
        }
        match &phases[1] {
            PhaseAst::Overhead {
                seconds,
                dist: Some(DistAst::Uniform { lo, hi, .. }),
                ..
            } => {
                assert_eq!((*lo, *hi), (4.0, 6.0));
                assert_eq!(*seconds, 5.0);
            }
            other => panic!("expected overhead with uniform, got {other:?}"),
        }
        match &phases[2] {
            PhaseAst::SystemBytes {
                bytes,
                cap,
                dist: Some(DistAst::Triangular { lo, mode, hi, .. }),
                ..
            } => {
                assert_eq!((*lo, *mode, *hi), (1e9, 2e9, 6e9));
                assert_eq!(*cap, Some(1e9));
                assert_eq!(*bytes, 3e9); // (lo + mode + hi) / 3
            }
            other => panic!("expected system_bytes with triangular, got {other:?}"),
        }
        match &phases[3] {
            PhaseAst::NodeBytes {
                bytes,
                dist: Some(DistAst::Empirical { samples, .. }),
                ..
            } => {
                assert_eq!(samples, &[(1e9, 3.0), (2e9, 1.0)]);
                assert_eq!(*bytes, 1.25e9); // weighted mean
            }
            other => panic!("expected node_bytes with empirical, got {other:?}"),
        }
    }

    #[test]
    fn distribution_spans_cover_the_whole_call() {
        let src = "workflow w { task a { overhead s uniform(4s, 6s) } }";
        let ast = parse(src).unwrap();
        let dist = ast.tasks[0].phases[0].dist().unwrap();
        let s = dist.span();
        assert_eq!(&src[s.offset..s.end_offset()], "uniform(4s, 6s)");
    }

    #[test]
    fn distribution_quantities_are_unit_checked() {
        // Quantity parameters carry the phase unit; sigma is unit-less.
        let e = parse("workflow w { task a { compute lognormal(4s, 0.3) } }").unwrap_err();
        assert!(e.message.contains("wrong unit"), "{e}");
        let e = parse("workflow w { task a { overhead s uniform(4s 6GB) } }").unwrap_err();
        assert!(e.message.contains("wrong unit"), "{e}");
        // Unclosed call.
        let e = parse("workflow w { task a { overhead s uniform(4s 6s } }").unwrap_err();
        assert!(e.message.contains("expected `)`"), "{e}");
    }

    #[test]
    fn suspicious_distribution_values_parse_for_the_linter() {
        // Negative sigma and an empty empirical set are lint errors
        // (E011), not parse errors.
        let ast = parse("workflow w { task a { compute lognormal(1PFLOPS, -0.5) } }").unwrap();
        match ast.tasks[0].phases[0].dist() {
            Some(DistAst::LogNormal { sigma, .. }) => assert_eq!(*sigma, -0.5),
            other => panic!("expected lognormal, got {other:?}"),
        }
        let ast = parse("workflow w { task a { node_bytes hbm empirical() } }").unwrap();
        match ast.tasks[0].phases[0].dist() {
            Some(DistAst::Empirical { samples, .. }) => assert!(samples.is_empty()),
            other => panic!("expected empirical, got {other:?}"),
        }
    }

    #[test]
    fn an_identifier_named_like_a_distribution_is_not_a_call() {
        // `uniform` without `(` stays a plain identifier (here a
        // resource name).
        let ast = parse("workflow w { task a { node_bytes uniform 4GB } }").unwrap();
        match &ast.tasks[0].phases[0] {
            PhaseAst::NodeBytes {
                resource,
                bytes,
                dist: None,
                ..
            } => {
                assert_eq!(resource, "uniform");
                assert_eq!(*bytes, 4e9);
            }
            other => panic!("expected plain node_bytes, got {other:?}"),
        }
    }
}
