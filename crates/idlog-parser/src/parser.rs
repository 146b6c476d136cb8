//! Recursive-descent parser.

use idlog_common::Interner;

use crate::ast::{Atom, Builtin, Clause, HeadAtom, Literal, Program, Term};
use crate::error::{ParseError, ParseResult};
use crate::lexer::{lex, Lexer};
use crate::span::{AtomSpans, ClauseSpans, LiteralSpans, Span, SpanMap};
use crate::token::{Pos, Spanned, Token};

/// Parse a whole program. Constants are interned into `interner`.
pub fn parse_program(src: &str, interner: &Interner) -> ParseResult<Program> {
    parse_program_with_spans(src, interner).map(|(p, _)| p)
}

/// Parse a whole program, also returning a [`SpanMap`] that records where
/// every clause, atom, and term came from (for diagnostics).
pub fn parse_program_with_spans(src: &str, interner: &Interner) -> ParseResult<(Program, SpanMap)> {
    let mut p = Parser::new(src, interner)?;
    let mut clauses = Vec::new();
    let mut spans = SpanMap::default();
    while !p.at_eof() {
        let (clause, clause_spans) = p.clause()?;
        clauses.push(clause);
        spans.clauses.push(clause_spans);
    }
    Ok((Program { clauses }, spans))
}

/// Parse a single clause (must consume all input up to the final `.`).
pub fn parse_clause(src: &str, interner: &Interner) -> ParseResult<Clause> {
    let mut p = Parser::new(src, interner)?;
    let (c, _) = p.clause()?;
    if !p.at_eof() {
        return Err(p.unexpected("end of input"));
    }
    Ok(c)
}

/// Parse the next clause off `lexer`, leaving it just past the clause's
/// `.`: the streaming fact loader's way into the clause grammar. A lexical
/// error anywhere up to that `.` is reported before any syntax error of the
/// clause (the clause is lexed, then parsed), and nothing beyond the `.` is
/// looked at.
pub fn parse_clause_from(lexer: &mut Lexer<'_>, interner: &Interner) -> ParseResult<Clause> {
    let mut tokens = Vec::new();
    loop {
        let t = lexer.next_token()?;
        tokens.push(t);
        match t.token {
            Token::Eof => break,
            Token::Dot => {
                // No rule reads past a clause's `.`; the parser still wants
                // its `Eof` sentinel.
                tokens.push(Spanned {
                    token: Token::Eof,
                    pos: t.end,
                    end: t.end,
                });
                break;
            }
            _ => {}
        }
    }
    Parser::over(tokens, interner).clause().map(|(c, _)| c)
}

struct Parser<'a> {
    /// Never empty; ends with [`Token::Eof`].
    tokens: Vec<Spanned<'a>>,
    at: usize,
    /// End position of the most recently consumed token.
    last_end: Pos,
    interner: &'a Interner,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, interner: &'a Interner) -> ParseResult<Parser<'a>> {
        Ok(Parser::over(lex(src)?, interner))
    }

    fn over(tokens: Vec<Spanned<'a>>, interner: &'a Interner) -> Parser<'a> {
        Parser {
            tokens,
            at: 0,
            last_end: Pos { line: 1, col: 1 },
            interner,
        }
    }

    fn peek(&self) -> Token<'a> {
        self.tokens[self.at].token
    }

    fn peek2(&self) -> Token<'a> {
        let idx = (self.at + 1).min(self.tokens.len() - 1);
        self.tokens[idx].token
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    /// Span of the token about to be consumed.
    fn token_span(&self) -> Span {
        Span::new(self.tokens[self.at].pos, self.tokens[self.at].end)
    }

    /// End position of the last token consumed — the closing edge for a
    /// span whose node has just been fully parsed.
    fn prev_end(&self) -> Pos {
        self.last_end
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.at].token;
        self.last_end = self.tokens[self.at].end;
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn expect(&mut self, want: Token<'_>) -> ParseResult<()> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                self.pos(),
                format!("expected {want}, found {}", self.peek()),
            ))
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError::new(
            self.pos(),
            format!("expected {wanted}, found {}", self.peek()),
        )
    }

    fn clause(&mut self) -> ParseResult<(Clause, ClauseSpans)> {
        let start = self.pos();
        let (first, first_spans) = self.head_atom()?;
        let mut head = vec![first];
        let mut head_spans = vec![first_spans];
        let mut disjunctive = false;
        if matches!(self.peek(), Token::Amp | Token::Pipe) {
            disjunctive = matches!(self.peek(), Token::Pipe);
            let sep = if disjunctive { Token::Pipe } else { Token::Amp };
            while self.peek() == sep {
                self.bump();
                let (atom, spans) = self.head_atom()?;
                head.push(atom);
                head_spans.push(spans);
            }
            if matches!(self.peek(), Token::Amp | Token::Pipe) {
                return Err(ParseError::new(
                    self.pos(),
                    "cannot mix `&` and `|` in one head",
                ));
            }
        }
        let mut body_spans = Vec::new();
        let body = if matches!(self.peek(), Token::Implies) {
            self.bump();
            let (first, first_spans) = self.literal()?;
            let mut body = vec![first];
            body_spans.push(first_spans);
            while matches!(self.peek(), Token::Comma) {
                self.bump();
                let (lit, spans) = self.literal()?;
                body.push(lit);
                body_spans.push(spans);
            }
            body
        } else {
            Vec::new()
        };
        self.expect(Token::Dot)?;
        Ok((
            Clause {
                head,
                body,
                disjunctive,
            },
            ClauseSpans {
                span: Span::new(start, self.prev_end()),
                head: head_spans,
                body: body_spans,
            },
        ))
    }

    fn head_atom(&mut self) -> ParseResult<(HeadAtom, AtomSpans)> {
        let start = self.pos();
        let negated = if matches!(self.peek(), Token::Not) {
            self.bump();
            true
        } else {
            false
        };
        let (atom, mut spans) = self.atom()?;
        spans.span.start = start; // include the `not`
        Ok((HeadAtom { negated, atom }, spans))
    }

    fn literal(&mut self) -> ParseResult<(Literal, LiteralSpans)> {
        match self.peek() {
            Token::Not => {
                let start = self.pos();
                self.bump();
                let pos = self.pos();
                let (atom, atom_spans) = self.atom()?;
                if Builtin::from_name(&self.name_of(&atom)).is_some() {
                    return Err(ParseError::new(
                        pos,
                        "cannot negate an arithmetic predicate",
                    ));
                }
                Ok((
                    Literal::Neg(atom),
                    LiteralSpans {
                        span: Span::new(start, self.prev_end()),
                        atom: atom_spans,
                    },
                ))
            }
            Token::Choice => {
                let start = self.pos();
                let name = self.token_span();
                self.bump();
                self.expect(Token::LParen)?;
                self.expect(Token::LParen)?;
                let (grouped, mut term_spans) = self.term_list(Token::RParen)?;
                self.expect(Token::RParen)?;
                self.expect(Token::Comma)?;
                self.expect(Token::LParen)?;
                let (chosen, chosen_spans) = self.term_list(Token::RParen)?;
                self.expect(Token::RParen)?;
                self.expect(Token::RParen)?;
                term_spans.extend(chosen_spans);
                let span = Span::new(start, self.prev_end());
                Ok((
                    Literal::Choice { grouped, chosen },
                    LiteralSpans {
                        span,
                        atom: AtomSpans {
                            span,
                            name,
                            terms: term_spans,
                        },
                    },
                ))
            }
            Token::Cut => {
                let name = self.token_span();
                self.bump();
                Ok((
                    Literal::Cut,
                    LiteralSpans {
                        span: name,
                        atom: AtomSpans {
                            span: name,
                            name,
                            terms: Vec::new(),
                        },
                    },
                ))
            }
            Token::Var(_) | Token::Int(_) => self.comparison(),
            Token::Ident(_) => {
                // `a < X` (constant lhs) vs `p(…)` / `p[…](…)` / 0-ary `p`.
                if self.is_cmp(self.peek2()) {
                    self.comparison()
                } else {
                    let pos = self.pos();
                    let (atom, atom_spans) = self.atom()?;
                    let lit = self.classify_atom(atom, pos)?;
                    Ok((
                        lit,
                        LiteralSpans {
                            span: atom_spans.span,
                            atom: atom_spans,
                        },
                    ))
                }
            }
            _ => Err(self.unexpected("a body literal")),
        }
    }

    /// Turn atoms named after builtins into builtin literals.
    fn classify_atom(&self, atom: Atom, pos: Pos) -> ParseResult<Literal> {
        let name = self.name_of(&atom);
        if let Some(op) = Builtin::from_name(&name) {
            if atom.pred.is_id_version() {
                return Err(ParseError::new(
                    pos,
                    "arithmetic predicates have no ID-version",
                ));
            }
            if atom.terms.len() != op.arity() {
                return Err(ParseError::new(
                    pos,
                    format!(
                        "{name} takes {} arguments, got {}",
                        op.arity(),
                        atom.terms.len()
                    ),
                ));
            }
            Ok(Literal::Builtin {
                op,
                args: atom.terms,
            })
        } else {
            Ok(Literal::Pos(atom))
        }
    }

    fn name_of(&self, atom: &Atom) -> String {
        self.interner.resolve(atom.pred.base())
    }

    fn is_cmp(&self, t: Token<'_>) -> bool {
        matches!(
            t,
            Token::Lt | Token::Le | Token::Gt | Token::Ge | Token::Eq | Token::Ne
        )
    }

    fn comparison(&mut self) -> ParseResult<(Literal, LiteralSpans)> {
        let (lhs, lhs_span) = self.term()?;
        let name = self.token_span();
        let op = match self.bump() {
            Token::Lt => Builtin::Lt,
            Token::Le => Builtin::Le,
            Token::Gt => Builtin::Gt,
            Token::Ge => Builtin::Ge,
            Token::Eq => Builtin::Eq,
            Token::Ne => Builtin::Ne,
            other => {
                return Err(ParseError::new(
                    self.pos(),
                    format!("expected comparison operator, found {other}"),
                ))
            }
        };
        let (rhs, rhs_span) = self.term()?;
        let span = lhs_span.merge(rhs_span);
        Ok((
            Literal::Builtin {
                op,
                args: vec![lhs, rhs],
            },
            LiteralSpans {
                span,
                atom: AtomSpans {
                    span,
                    name,
                    terms: vec![lhs_span, rhs_span],
                },
            },
        ))
    }

    fn atom(&mut self) -> ParseResult<(Atom, AtomSpans)> {
        let pos = self.pos();
        let name_span = self.token_span();
        let name = match self.bump() {
            Token::Ident(s) => s,
            other => {
                return Err(ParseError::new(
                    pos,
                    format!("expected predicate, found {other}"),
                ))
            }
        };
        let pred = self.interner.intern(name);

        // Optional ID-version grouping `[2]`, `[1,2]`, `[]` (1-based in source).
        let grouping = if matches!(self.peek(), Token::LBracket) {
            self.bump();
            let mut grouping = Vec::new();
            if !matches!(self.peek(), Token::RBracket) {
                loop {
                    let gpos = self.pos();
                    match self.bump() {
                        Token::Int(n) if n.get() >= 1 => grouping.push((n.get() - 1) as usize),
                        Token::Int(n) => {
                            return Err(ParseError::new(
                                gpos,
                                format!("grouping attributes are 1-based, got {n}"),
                            ))
                        }
                        other => {
                            return Err(ParseError::new(
                                gpos,
                                format!("expected attribute position, found {other}"),
                            ))
                        }
                    }
                    if matches!(self.peek(), Token::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Token::RBracket)?;
            Some(grouping)
        } else {
            None
        };

        let (terms, term_spans) = if matches!(self.peek(), Token::LParen) {
            self.bump();
            let (terms, spans) = self.term_list(Token::RParen)?;
            self.expect(Token::RParen)?;
            (terms, spans)
        } else {
            (Vec::new(), Vec::new())
        };

        let spans = AtomSpans {
            span: Span::new(pos, self.prev_end()),
            name: name_span,
            terms: term_spans,
        };
        match grouping {
            None => Ok((Atom::ordinary(pred, terms), spans)),
            Some(g) => {
                if terms.is_empty() {
                    return Err(ParseError::new(
                        pos,
                        "ID-atom needs at least a tid argument",
                    ));
                }
                // Grouping positions must index base-predicate columns.
                let base_arity = terms.len() - 1;
                if let Some(&bad) = g.iter().find(|&&p| p >= base_arity) {
                    return Err(ParseError::new(
                        pos,
                        format!(
                            "grouping attribute {} out of range for base arity {base_arity}",
                            bad + 1
                        ),
                    ));
                }
                Ok((Atom::id_version(pred, g, terms), spans))
            }
        }
    }

    fn term_list(&mut self, close: Token<'_>) -> ParseResult<(Vec<Term>, Vec<Span>)> {
        let mut terms = Vec::new();
        let mut spans = Vec::new();
        if self.peek() == close {
            return Ok((terms, spans));
        }
        loop {
            let (term, span) = self.term()?;
            terms.push(term);
            spans.push(span);
            if matches!(self.peek(), Token::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        Ok((terms, spans))
    }

    fn term(&mut self) -> ParseResult<(Term, Span)> {
        let pos = self.pos();
        let span = self.token_span();
        match self.bump() {
            Token::Var(v) => Ok((Term::Var(v.to_string()), span)),
            Token::Ident(s) => Ok((Term::Sym(self.interner.intern(s)), span)),
            Token::Int(n) => Ok((Term::Int(n), span)),
            other => Err(ParseError::new(
                pos,
                format!("expected a term, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PredicateRef;

    #[test]
    fn parses_fact_and_rule() {
        let i = Interner::new();
        let p = parse_program("person(a). man(X) :- person(X), not woman(X).", &i).unwrap();
        assert_eq!(p.clauses.len(), 2);
        assert!(p.clauses[0].is_fact());
        let rule = &p.clauses[1];
        assert_eq!(rule.body.len(), 2);
        assert!(matches!(rule.body[1], Literal::Neg(_)));
    }

    #[test]
    fn parses_id_atom_with_paper_syntax() {
        // Paper: select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
        let i = Interner::new();
        let c = parse_clause("select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.", &i).unwrap();
        let Literal::Pos(atom) = &c.body[0] else {
            panic!("expected positive atom")
        };
        match &atom.pred {
            PredicateRef::IdVersion { base, grouping } => {
                assert_eq!(i.resolve(*base), "emp");
                assert_eq!(grouping, &vec![1]); // 1-based `2` → 0-based 1
            }
            _ => panic!("expected ID-version"),
        }
        assert_eq!(atom.base_arity(), 2);
        assert!(matches!(
            &c.body[1],
            Literal::Builtin {
                op: Builtin::Lt,
                ..
            }
        ));
    }

    #[test]
    fn parses_empty_grouping() {
        let i = Interner::new();
        let c = parse_clause("p(X) :- q[](X, 0).", &i).unwrap();
        let Literal::Pos(atom) = &c.body[0] else {
            panic!()
        };
        match &atom.pred {
            PredicateRef::IdVersion { grouping, .. } => assert!(grouping.is_empty()),
            _ => panic!("expected ID-version"),
        }
    }

    #[test]
    fn parses_choice_literal() {
        let i = Interner::new();
        let c = parse_clause("select_emp(N) :- emp(N, D), choice((D), (N)).", &i).unwrap();
        let Literal::Choice { grouped, chosen } = &c.body[1] else {
            panic!("expected choice")
        };
        assert_eq!(grouped, &vec![Term::Var("D".into())]);
        assert_eq!(chosen, &vec![Term::Var("N".into())]);
    }

    #[test]
    fn parses_builtin_prefix_forms() {
        let i = Interner::new();
        let c = parse_clause("p(X, N) :- q(X, N), plus(L, M, N), succ(N, N2).", &i).unwrap();
        assert!(matches!(
            &c.body[1],
            Literal::Builtin {
                op: Builtin::Plus,
                ..
            }
        ));
        assert!(matches!(
            &c.body[2],
            Literal::Builtin {
                op: Builtin::Succ,
                ..
            }
        ));
    }

    #[test]
    fn parses_multi_head_and_negated_head() {
        let i = Interner::new();
        let c = parse_clause("a(X) & not b(X) :- c(X).", &i).unwrap();
        assert_eq!(c.head.len(), 2);
        assert!(!c.head[0].negated);
        assert!(c.head[1].negated);
    }

    #[test]
    fn parses_zero_ary_atoms() {
        let i = Interner::new();
        let c = parse_clause("q1 :- x(c).", &i).unwrap();
        assert_eq!(c.single_head().terms.len(), 0);
    }

    #[test]
    fn constant_lhs_comparison() {
        let i = Interner::new();
        let c = parse_clause("p(X) :- q(X), X != a.", &i).unwrap();
        let Literal::Builtin {
            op: Builtin::Ne,
            args,
        } = &c.body[1]
        else {
            panic!()
        };
        assert_eq!(args[0], Term::Var("X".into()));
        assert!(matches!(args[1], Term::Sym(_)));
    }

    #[test]
    fn rejects_zero_based_grouping() {
        let i = Interner::new();
        assert!(parse_clause("p(X) :- q[0](X, T).", &i).is_err());
    }

    #[test]
    fn rejects_grouping_out_of_range() {
        let i = Interner::new();
        // q[3] with base arity 2 (three terms incl. tid) is out of range.
        assert!(parse_clause("p(X) :- q[3](X, Y, T).", &i).is_err());
    }

    #[test]
    fn rejects_negated_builtin() {
        let i = Interner::new();
        assert!(parse_clause("p(X) :- q(X), not succ(X, Y).", &i).is_err());
    }

    #[test]
    fn rejects_wrong_builtin_arity() {
        let i = Interner::new();
        assert!(parse_clause("p(X) :- plus(X, Y).", &i).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_in_parse_clause() {
        let i = Interner::new();
        assert!(parse_clause("p. q.", &i).is_err());
    }

    #[test]
    fn error_mentions_position() {
        let i = Interner::new();
        let err = parse_program("p(X) :- q(X)\nr(Y).", &i).unwrap_err();
        // Missing dot: error reported on line 2.
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn spans_point_at_source_text() {
        let i = Interner::new();
        let src = "p(X) :- q(X, abc), not r(X), X < 2.\nfact(a).\n";
        let (prog, spans) = parse_program_with_spans(src, &i).unwrap();
        assert_eq!(prog.clauses.len(), 2);
        assert_eq!(spans.clauses.len(), 2);

        let c0 = spans.clause(0).unwrap();
        // Whole clause: col 1 through one past the final `.` (col 36).
        assert_eq!((c0.span.start.line, c0.span.start.col), (1, 1));
        assert_eq!((c0.span.end.line, c0.span.end.col), (1, 36));
        // Head atom `p(X)` and its name `p`.
        let head = c0.head_atom(0).unwrap();
        assert_eq!((head.name.start.col, head.name.end.col), (1, 2));
        assert_eq!((head.span.start.col, head.span.end.col), (1, 5));
        // `q(X, abc)`: name at col 9, term `abc` covering cols 14..17.
        let q = c0.literal(0).unwrap();
        assert_eq!((q.atom.name.start.col, q.atom.name.end.col), (9, 10));
        let abc = q.atom.term(1).unwrap();
        assert_eq!((abc.start.col, abc.end.col), (14, 17));
        // `not r(X)` literal span includes the `not`; its name is `r`.
        let r = c0.literal(1).unwrap();
        assert_eq!((r.span.start.col, r.span.end.col), (20, 28));
        assert_eq!((r.atom.name.start.col, r.atom.name.end.col), (24, 25));
        // `X < 2` comparison: name span on the operator.
        let cmp = c0.literal(2).unwrap();
        assert_eq!((cmp.atom.name.start.col, cmp.atom.name.end.col), (32, 33));
        assert_eq!((cmp.span.start.col, cmp.span.end.col), (30, 35));

        // Second clause sits on line 2.
        let c1 = spans.clause(1).unwrap();
        assert_eq!(c1.span.start.line, 2);
        assert_eq!((c1.span.start.col, c1.span.end.col), (1, 9));
    }

    #[test]
    fn spans_cover_choice_and_id_atoms() {
        let i = Interner::new();
        let src = "two(N) :- emp[2](N, D, T), choice((D), (N)).";
        let (_, spans) = parse_program_with_spans(src, &i).unwrap();
        let c = spans.clause(0).unwrap();
        // `emp[2](N, D, T)` — atom span covers brackets and args.
        let emp = c.literal(0).unwrap();
        assert_eq!((emp.span.start.col, emp.span.end.col), (11, 26));
        assert_eq!((emp.atom.name.start.col, emp.atom.name.end.col), (11, 14));
        assert_eq!(emp.atom.terms.len(), 3);
        // choice literal: name on the keyword, terms = grouped ++ chosen.
        let ch = c.literal(1).unwrap();
        assert_eq!((ch.atom.name.start.col, ch.atom.name.end.col), (28, 34));
        assert_eq!(ch.atom.terms.len(), 2);
        assert_eq!((ch.span.start.col, ch.span.end.col), (28, 44));
    }

    #[test]
    fn paper_example2_program_parses() {
        let i = Interner::new();
        let src = "
            sex_guess(X, male) :- person(X).
            sex_guess(X, female) :- person(X).
            man(X) :- sex_guess[1](X, male, 1).
            woman(X) :- sex_guess[1](X, female, 1).
        ";
        let p = parse_program(src, &i).unwrap();
        assert_eq!(p.clauses.len(), 4);
        let inputs = p.input_predicates();
        assert_eq!(inputs.len(), 1);
        assert!(inputs.contains(&i.intern("person")));
    }
}
