//! The collect-all analysis driver.
//!
//! [`analyze`] parses a program once (keeping the parser's [`SpanMap`]) and
//! runs the engine's one validator, [`idlog_core::program::check`], which
//! never stops at the first failure: head shape, arity consistency,
//! grouping ranges, sort inference, safety and stratification. This module
//! only gives each [`Violation`] its code, its span and its notes; the
//! headline is the engine's, so `idlog lint` and `idlog run` report a
//! problem in the same words. For DATALOG^C programs the paper's choice
//! conditions C1/C2 are checked as well. When the program is error-free
//! the lint passes from [`crate::lints`] run too.

use std::sync::Arc;

use idlog_choice::{collect_violations, ChoiceViolation};
use idlog_common::Interner;
use idlog_core::program::{check, Site, Violation};
use idlog_core::safety::SafetyViolation;
use idlog_core::sorts::{SortConflictKind, SortSite};
use idlog_core::stratify::DepGraph;
use idlog_core::ValidatedProgram;
use idlog_parser::{parse_program_with_spans, Clause, Literal, Program, Span, SpanMap, Term};

use crate::diagnostic::Diagnostic;
use crate::{determinism, lints, relevance, termination};

/// Which language the program appears to be written in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dialect {
    /// Plain IDLOG (possibly with negation and ID-literals).
    Idlog,
    /// DATALOG^C: at least one `choice((X̄), (Ȳ))` literal occurs, so the
    /// paper's conditions C1/C2 apply instead of the engine's "translate
    /// choice first" rejection.
    Choice,
}

/// Knobs for [`analyze`].
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Run the warning/hint lint passes (W…/H… codes).
    pub lints: bool,
    /// Run the bounded redundant-clause suggestion (W005). This evaluates
    /// the program on randomized test databases, so it is the one pass with
    /// non-trivial cost; `idlog check` turns it off.
    pub redundancy: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            lints: true,
            redundancy: true,
        }
    }
}

/// The result of analyzing one program.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Detected dialect.
    pub dialect: Dialect,
    /// All diagnostics, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// The validated program: `None` when it has errors, and for the
    /// choice dialect (the engine runs its translation).
    pub program: Option<ValidatedProgram>,
}

impl Analysis {
    /// Number of diagnostics at [`crate::Severity::Error`].
    pub fn error_count(&self) -> usize {
        self.count(crate::Severity::Error)
    }

    /// Number of diagnostics at [`crate::Severity::Warning`].
    pub fn warning_count(&self) -> usize {
        self.count(crate::Severity::Warning)
    }

    /// Number of diagnostics at [`crate::Severity::Hint`].
    pub fn hint_count(&self) -> usize {
        self.count(crate::Severity::Hint)
    }

    fn count(&self, severity: crate::Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }
}

/// Analyze `src`, collecting every diagnostic (never fail-fast).
pub fn analyze(src: &str, interner: &Arc<Interner>, options: &Options) -> Analysis {
    let (program, spans) = match parse_program_with_spans(src, interner) {
        Ok(parsed) => parsed,
        Err(e) => {
            return Analysis {
                dialect: Dialect::Idlog,
                diagnostics: vec![Diagnostic::error("E001", Span::point(e.pos), e.headline())],
                program: None,
            };
        }
    };

    let dialect = if program
        .clauses
        .iter()
        .any(|c| c.body.iter().any(|l| matches!(l, Literal::Choice { .. })))
    {
        Dialect::Choice
    } else {
        Dialect::Idlog
    };

    let checked = check(&program, interner);
    let graph = Arc::clone(&checked.graph);
    let mut diags: Vec<Diagnostic> = checked
        .violations
        .iter()
        .filter_map(|v| diagnostic(v, &program, &spans, interner))
        .collect();
    if dialect == Dialect::Choice {
        check_choice(&program, &graph, &spans, interner, &mut diags);
    }

    let has_errors = diags.iter().any(|d| d.severity == crate::Severity::Error);
    if options.lints {
        lints::unused_predicates(&program, &graph, &spans, interner, &mut diags);
        lints::underivable_predicates(&program, &spans, interner, &mut diags);
        lints::singleton_variables(&program, &spans, &mut diags);
        lints::degenerate_id_groups(&program, &spans, interner, &mut diags);
    }
    let validated = (!has_errors && dialect == Dialect::Idlog)
        .then(|| ValidatedProgram::from_checked(program, Arc::clone(interner), checked).ok())
        .flatten();
    if options.lints {
        if let Some(validated) = &validated {
            determinism::possibly_nondeterministic_outputs(validated, &spans, &mut diags);
            determinism::tid_value_columns(validated, &spans, &mut diags);
            lints::tid_bound_hints(validated, &spans, &mut diags);
            termination::termination_lints(validated, &spans, &mut diags);
            relevance::relevance_lints(validated, &spans, &mut diags);
            if options.redundancy {
                lints::redundant_clauses(validated.ast(), &graph, &spans, interner, &mut diags);
            }
        }
    }

    // Stable, reader-friendly order: by position, then code; diagnostics
    // without a position sink to the end.
    diags.sort_by_key(|d| {
        let known = d.span.is_known();
        (
            !known,
            d.span.start.line,
            d.span.start.col,
            d.span.end.line,
            d.span.end.col,
            d.code,
        )
    });
    Analysis {
        dialect,
        diagnostics: diags,
        program: validated,
    }
}

/// The diagnostic of one violation the engine's validator found: its code,
/// its span and notes at the other sites involved, under the engine's
/// headline. A choice literal is no error in the choice dialect (C1/C2
/// judge it there), and its presence is what defines that dialect, so it
/// gets none.
fn diagnostic(
    v: &Violation,
    program: &Program,
    spans: &SpanMap,
    interner: &Interner,
) -> Option<Diagnostic> {
    let (code, span) = match v {
        Violation::HeadCount(ci) => ("E002", site_span(spans, Site::Head(*ci, 1))),
        Violation::NegatedHead(site) => ("E003", name_span(spans, *site)),
        Violation::IdHead(site) => ("E004", name_span(spans, *site)),
        Violation::BuiltinHead(site, _) => ("E005", name_span(spans, *site)),
        Violation::Choice(_) => return None,
        Violation::Cut(site) => ("E015", site_span(spans, *site)),
        Violation::Arity { site, .. } => ("E006", site_span(spans, *site)),
        Violation::Grouping { site, .. } => ("E007", name_span(spans, *site)),
        // Anchored at the term whose demand completed the conflict.
        Violation::Sort(c) => {
            let code = match c.kind {
                SortConflictKind::Column { .. } => "E020",
                SortConflictKind::Variable { .. } => "E021",
                SortConflictKind::GroundMismatch | SortConflictKind::ConstantPosition { .. } => {
                    "E022"
                }
            };
            let at = c.at.and_then(|site| term_span(spans, site));
            let clause = c.clause.map(|ci| spans.clause_span(ci));
            (code, at.or(clause).unwrap_or_default())
        }
        Violation::Unsafe(ci, SafetyViolation::NoSafeOrder { stuck }) => {
            let first = stuck.first().map(|&(li, _)| spans.literal_span(*ci, li));
            ("E009", first.unwrap_or_else(|| spans.clause_span(*ci)))
        }
        Violation::Unsafe(ci, SafetyViolation::UnboundHeadVar { head, var }) => {
            let clause = &program.clauses[*ci];
            ("E010", head_var_span(spans, *ci, *head, clause, var))
        }
        // Anchored at the strict edge; the notes walk the cycle.
        Violation::Unstratifiable(cycle) => {
            let first = cycle
                .first()
                .map(|e| spans.literal_span(e.clause, e.literal));
            ("E011", first.unwrap_or_default())
        }
    };
    let notes: Vec<(Span, String)> = match v {
        Violation::Arity {
            first: (site, arity),
            ..
        } => vec![(
            site_span(spans, *site),
            format!("first used with arity {arity} here"),
        )],
        Violation::Sort(c) => c
            .first
            .and_then(|site| term_span(spans, site))
            .filter(|&first| first != span)
            .map(|first| (first, "the conflicting use is here".to_string()))
            .into_iter()
            .collect(),
        Violation::Unsafe(ci, SafetyViolation::NoSafeOrder { stuck }) => stuck
            .iter()
            .map(|(li, reason)| (spans.literal_span(*ci, *li), reason.message()))
            .collect(),
        Violation::Unstratifiable(cycle) => cycle
            .iter()
            .map(|e| {
                let (to, from) = (interner.resolve(e.to), interner.resolve(e.from));
                let how = if e.strict {
                    "strictly (negation or ID-literal)"
                } else {
                    "positively"
                };
                let note = format!("`{to}` depends {how} on `{from}` here");
                (spans.literal_span(e.clause, e.literal), note)
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut d = Diagnostic::error(code, span, v.headline(interner));
    for (at, note) in notes {
        d = d.with_note_at(at, note);
    }
    Some(d)
}

/// The span of a whole head atom or body literal.
fn site_span(spans: &SpanMap, site: Site) -> Span {
    match site {
        Site::Head(ci, hi) => spans
            .clause(ci)
            .and_then(|c| c.head_atom(hi))
            .map(|a| a.span)
            .unwrap_or_else(|| spans.clause_span(ci)),
        Site::Body(ci, li) => spans.literal_span(ci, li),
    }
}

/// The span of a head atom's or body literal's predicate-name token.
fn name_span(spans: &SpanMap, site: Site) -> Span {
    match site {
        Site::Head(ci, hi) => spans
            .clause(ci)
            .and_then(|c| c.head_atom(hi))
            .map(|a| a.name)
            .unwrap_or_else(|| spans.head_name_span(ci)),
        Site::Body(ci, li) => spans
            .clause(ci)
            .and_then(|c| c.literal(li))
            .map(|l| l.atom.name)
            .filter(Span::is_known)
            .unwrap_or_else(|| spans.literal_span(ci, li)),
    }
}

/// The source span of one sort demand's term, when the parser recorded it.
fn term_span(spans: &SpanMap, site: SortSite) -> Option<Span> {
    let span = match site {
        SortSite::Head { clause, atom, term } => {
            spans.clause(clause)?.head_atom(atom)?.term(term)?
        }
        SortSite::Body {
            clause,
            literal,
            term,
        } => spans.clause(clause)?.literal(literal)?.atom.term(term)?,
    };
    Some(span).filter(Span::is_known)
}

/// Span of the first occurrence of `var` in head atom `hi` of clause `ci`.
fn head_var_span(spans: &SpanMap, ci: usize, hi: usize, clause: &Clause, var: &str) -> Span {
    let k = clause
        .head
        .get(hi)
        .and_then(|h| h.atom.terms.iter().position(|t| t.as_var() == Some(var)));
    k.and_then(|k| spans.clause(ci)?.head_atom(hi)?.term(k))
        .unwrap_or_else(|| spans.head_name_span(ci))
}

/// The paper's choice conditions (E012 C1, E013 C2, E014 recursion).
fn check_choice(
    program: &Program,
    graph: &DepGraph,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    for v in collect_violations(program, graph) {
        match v {
            ChoiceViolation::C1 { clause, literals } => {
                let primary = literals
                    .get(1)
                    .map(|&li| spans.literal_span(clause, li))
                    .unwrap_or_else(|| spans.clause_span(clause));
                let mut d = Diagnostic::error(
                    "E012",
                    primary,
                    "a clause may contain at most one choice operator (condition C1)",
                );
                for li in literals {
                    d = d.with_note_at(spans.literal_span(clause, li), "choice operator here");
                }
                diags.push(d);
            }
            ChoiceViolation::C2 {
                first: (ci, pi),
                second: (cj, pj),
            } => {
                diags.push(
                    Diagnostic::error(
                        "E013",
                        spans.head_name_span(cj),
                        format!(
                            "choice clause for `{}` is related to the choice clause for `{}` \
                             (condition C2)",
                            interner.resolve(pj),
                            interner.resolve(pi)
                        ),
                    )
                    .with_note_at(
                        spans.head_name_span(ci),
                        format!(
                            "`{}` is defined with choice here and contributes to `{}`",
                            interner.resolve(pi),
                            interner.resolve(pj)
                        ),
                    ),
                );
            }
            ChoiceViolation::Recursion {
                clause,
                pred,
                literal,
            } => {
                diags.push(Diagnostic::error(
                    "E014",
                    spans.literal_span(clause, literal),
                    format!(
                        "choice clause for `{}` is recursive through its own head \
                         (the [KN88] semantics excludes this)",
                        interner.resolve(pred)
                    ),
                ));
            }
        }
    }
}

/// Best-effort span of the first occurrence of `var` among the terms of a
/// body literal (used by the lints as well).
pub(crate) fn body_term_spans<'a>(
    clause: &'a Clause,
    spans: &'a SpanMap,
    ci: usize,
) -> impl Iterator<Item = (String, Span)> + 'a {
    clause.body.iter().enumerate().flat_map(move |(li, lit)| {
        let atom_spans = spans
            .clause(ci)
            .and_then(|c| c.literal(li))
            .map(|l| &l.atom);
        let terms: Vec<&Term> = match lit {
            Literal::Pos(a) | Literal::Neg(a) => a.terms.iter().collect(),
            Literal::Builtin { args, .. } => args.iter().collect(),
            Literal::Choice { grouped, chosen } => grouped.iter().chain(chosen.iter()).collect(),
            Literal::Cut => Vec::new(),
        };
        terms
            .into_iter()
            .enumerate()
            .filter_map(move |(k, t)| {
                let v = t.as_var()?;
                let span = atom_spans
                    .and_then(|a| a.term(k))
                    .filter(Span::is_known)
                    .unwrap_or_else(|| spans.literal_span(ci, li));
                Some((v.to_string(), span))
            })
            .collect::<Vec<_>>()
    })
}
