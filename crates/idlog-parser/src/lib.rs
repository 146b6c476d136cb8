//! Surface syntax for the IDLOG family of languages.
//!
//! One lexer/parser/AST serves four languages from the paper:
//!
//! * **DATALOG(¬)** — ordinary clauses with stratified negation;
//! * **IDLOG** — adds ID-literals `p[s](…, Tid)` (\[She90b\]);
//! * **DATALOG^C** — adds `choice((X̄), (Ȳ))` literals (\[KN88\]);
//! * **DL / N-DATALOG** — conjunctive (and negated) heads under the
//!   non-deterministic inflationary semantics (\[AV88\], \[ASV90\]).
//!
//! Which constructs are *legal* is decided by each engine's validation pass,
//! not by the parser: the parser accepts the union.
//!
//! # Syntax
//!
//! ```text
//! % line comment
//! person(a).  person(b).                    % facts
//! man(X) :- sex_guess[1](X, male, 1).       % ID-literal, grouped by attr 1
//! two(N) :- emp[2](N, D, T), T < 2.         % comparisons are infix
//! all(D) :- emp(N, D), choice((D), (N)).    % choice operator
//! p(X)  :- q(X, Z), not r(Z).               % negation
//! p(X, N) :- q(X, N), plus(L, M, N).        % arithmetic predicates
//! a(X) & b(X) :- c(X).                      % DL conjunctive head
//! not a(X) :- c(X).                         % N-DATALOG deleting head
//! ```
//!
//! Identifiers starting lowercase are constants/predicates, ones starting
//! uppercase (or `_`) are variables, integer literals are sort-`i` constants.

#![warn(missing_docs)]

pub mod ast;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod span;
pub mod token;

pub use ast::{Atom, Builtin, Clause, HeadAtom, Literal, PredicateRef, Program, Term};
pub use error::{ParseError, ParseResult};
pub use lexer::{FactArg, Lexer};
pub use parser::{parse_clause, parse_clause_from, parse_program, parse_program_with_spans};
pub use span::{AtomSpans, ClauseSpans, LiteralSpans, Span, SpanMap};
pub use token::Pos;
