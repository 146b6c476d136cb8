//! The collect-all analysis driver.
//!
//! [`analyze`] parses a program once (keeping the parser's [`SpanMap`]) and
//! then runs every check the engine performs at validation time — head
//! shape, arity consistency, grouping ranges, sort inference, safety,
//! stratification, and (for DATALOG^C programs) the paper's choice
//! conditions C1/C2 — *without stopping at the first failure*. Each finding
//! becomes a [`Diagnostic`] anchored to the clause, literal, or term that
//! caused it. When the program is error-free the lint passes from
//! [`crate::lints`] run as well.

use std::sync::Arc;

use idlog_choice::{collect_violations, ChoiceViolation};
use idlog_common::{FxHashMap, Interner, SymbolId};
use idlog_core::safety;
use idlog_core::stratify::{self, DepGraph, Stratification};
use idlog_parser::{
    parse_program_with_spans, Builtin, Literal, PredicateRef, Program, Span, SpanMap, Term,
};

use crate::dataflow::Dataflow;
use crate::diagnostic::Diagnostic;
use crate::{determinism, lints, relevance, sorts, termination};

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
                diagnostics: vec![Diagnostic::error(
                    "E001",
                    Span::point(e.pos),
                    format!("parse error: {}", e.message),
                )],
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

    let graph = Arc::new(DepGraph::new(&program));
    let mut diags = Vec::new();
    check_structure(&program, &spans, interner, dialect, &mut diags);
    let arities = check_arities(&program, &spans, interner, &mut diags);
    check_grouping(&program, &spans, &arities, interner, &mut diags);
    sorts::check(&program, &spans, &arities, interner, &mut diags);
    check_safety(&program, &spans, &mut diags);
    check_stratification(&graph, &spans, interner, &mut diags);
    if dialect == Dialect::Choice {
        check_choice(&program, &graph, &spans, interner, &mut diags);
    }

    let has_errors = diags.iter().any(|d| d.severity == crate::Severity::Error);
    if options.lints {
        lints::unused_predicates(&program, &graph, &spans, interner, &mut diags);
        lints::underivable_predicates(&program, &spans, interner, &mut diags);
        lints::singleton_variables(&program, &spans, &mut diags);
        lints::degenerate_id_groups(&program, &spans, interner, &mut diags);
        if !has_errors && dialect == Dialect::Idlog {
            let flow = Dataflow::of(&program, &graph, interner);
            determinism::possibly_nondeterministic_outputs(
                &program, &spans, &flow, interner, &mut diags,
            );
            determinism::tid_value_columns(&program, &spans, &flow, interner, &mut diags);
            lints::tid_bound_hints(&program, &spans, interner, &mut diags);
            termination::termination_lints(&program, &graph, &spans, interner, &mut diags);
            relevance::relevance_lints(&program, &spans, interner, &mut diags);
            if options.redundancy {
                lints::redundant_clauses(&program, &graph, &spans, interner, &mut diags);
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
    }
}

/// Span of the atom shape of body literal `(ci, li)`.
fn literal_span(spans: &SpanMap, ci: usize, li: usize) -> Span {
    spans.literal_span(ci, li)
}

/// Span of the predicate-name token of body literal `(ci, li)`.
fn literal_name_span(spans: &SpanMap, ci: usize, li: usize) -> Span {
    spans
        .clause(ci)
        .and_then(|c| c.literal(li))
        .map(|l| l.atom.name)
        .filter(Span::is_known)
        .unwrap_or_else(|| spans.literal_span(ci, li))
}

/// Head shape and dialect checks: E002–E005 and E015, collect-all.
fn check_structure(
    program: &Program,
    spans: &SpanMap,
    interner: &Interner,
    dialect: Dialect,
    diags: &mut Vec<Diagnostic>,
) {
    for (ci, clause) in program.clauses.iter().enumerate() {
        if clause.head.len() != 1 {
            let span = spans
                .clause(ci)
                .and_then(|c| c.head_atom(1))
                .map(|a| a.span)
                .unwrap_or_else(|| spans.clause_span(ci));
            diags.push(Diagnostic::error(
                "E002",
                span,
                "IDLOG clauses have exactly one head atom (multi-head clauses belong to DL)",
            ));
        }
        for (hi, h) in clause.head.iter().enumerate() {
            let name_span = spans
                .clause(ci)
                .and_then(|c| c.head_atom(hi))
                .map(|a| a.name)
                .unwrap_or_else(|| spans.head_name_span(ci));
            if h.negated {
                diags.push(Diagnostic::error(
                    "E003",
                    name_span,
                    "negated heads belong to N-DATALOG, not IDLOG",
                ));
            }
            if h.atom.pred.is_id_version() {
                diags.push(Diagnostic::error(
                    "E004",
                    name_span,
                    "the head must be a non-ID-atom ([She90b] clause shape)",
                ));
            }
            let head_name = interner.resolve(h.atom.pred.base());
            if Builtin::from_name(&head_name).is_some() {
                diags.push(Diagnostic::error(
                    "E005",
                    name_span,
                    format!("cannot define arithmetic predicate {head_name}"),
                ));
            }
        }
        for (li, lit) in clause.body.iter().enumerate() {
            if matches!(lit, Literal::Cut) {
                diags.push(Diagnostic::error(
                    "E015",
                    literal_span(spans, ci, li),
                    "cut is a top-down construct; only the SLD evaluator \
                     (idlog-choice::cut) supports it",
                ));
            }
        }
    }
    // A choice literal is not an error in the choice dialect — the C1/C2
    // checks handle it — and the dialect is defined by its presence, so
    // there is nothing to flag in the IDLOG dialect either.
    let _ = dialect;
}

/// Arity consistency across all occurrences (E006). Returns the first-wins
/// arity table for the later passes.
fn check_arities(
    program: &Program,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) -> FxHashMap<SymbolId, usize> {
    let mut first_seen: FxHashMap<SymbolId, (usize, Span)> = FxHashMap::default();
    let mut check =
        |pred: SymbolId, arity: usize, span: Span, diags: &mut Vec<Diagnostic>| match first_seen
            .get(&pred)
        {
            Some(&(a, first_span)) if a != arity => {
                diags.push(
                    Diagnostic::error(
                        "E006",
                        span,
                        format!(
                            "predicate {} used with arity {arity} but previously {a}",
                            interner.resolve(pred)
                        ),
                    )
                    .with_note_at(first_span, format!("first used with arity {a} here")),
                );
            }
            Some(_) => {}
            None => {
                first_seen.insert(pred, (arity, span));
            }
        };
    for (ci, clause) in program.clauses.iter().enumerate() {
        for (hi, h) in clause.head.iter().enumerate() {
            let span = spans
                .clause(ci)
                .and_then(|c| c.head_atom(hi))
                .map(|a| a.span)
                .unwrap_or_else(|| spans.clause_span(ci));
            check(h.atom.pred.base(), h.atom.base_arity(), span, diags);
        }
        for (li, lit) in clause.body.iter().enumerate() {
            if let Some(a) = lit.atom() {
                check(
                    a.pred.base(),
                    a.base_arity(),
                    literal_span(spans, ci, li),
                    diags,
                );
            }
        }
    }
    first_seen.into_iter().map(|(p, (a, _))| (p, a)).collect()
}

/// Grouping attributes must fall inside the base predicate's arity (E007).
fn check_grouping(
    program: &Program,
    spans: &SpanMap,
    arities: &FxHashMap<SymbolId, usize>,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    for (ci, clause) in program.clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            let Some(a) = lit.atom() else { continue };
            let PredicateRef::IdVersion { base, grouping } = &a.pred else {
                continue;
            };
            let arity = arities.get(base).copied().unwrap_or(a.base_arity());
            if let Some(&bad) = grouping.iter().find(|&&g| g >= arity) {
                diags.push(Diagnostic::error(
                    "E007",
                    literal_name_span(spans, ci, li),
                    format!(
                        "grouping attribute {} exceeds arity {arity} of {}",
                        bad + 1,
                        interner.resolve(*base)
                    ),
                ));
            }
        }
    }
}

/// Safety per clause (E009 no safe order, E010 unbound head variable).
fn check_safety(program: &Program, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    for (ci, clause) in program.clauses.iter().enumerate() {
        let Err(violations) = safety::analyze_clause(clause) else {
            continue;
        };
        for v in violations {
            match v {
                safety::SafetyViolation::NoSafeOrder { stuck } => {
                    let primary = stuck
                        .first()
                        .map(|&(li, _)| literal_span(spans, ci, li))
                        .unwrap_or_else(|| spans.clause_span(ci));
                    let mut d = Diagnostic::error(
                        "E009",
                        primary,
                        "no safe evaluation order exists for this clause body",
                    );
                    for (li, reason) in stuck {
                        d = d.with_note_at(literal_span(spans, ci, li), reason.message());
                    }
                    diags.push(d);
                }
                safety::SafetyViolation::UnboundHeadVar { head, var } => {
                    let span = head_var_span(spans, ci, head, clause, &var);
                    diags.push(Diagnostic::error(
                        "E010",
                        span,
                        format!("head variable {var} is not bound by the body"),
                    ));
                }
            }
        }
    }
}

/// Span of the first occurrence of `var` in head atom `hi` of clause `ci`.
fn head_var_span(
    spans: &SpanMap,
    ci: usize,
    hi: usize,
    clause: &idlog_parser::Clause,
    var: &str,
) -> Span {
    let atom_spans = spans.clause(ci).and_then(|c| c.head_atom(hi));
    if let (Some(h), Some(atom_spans)) = (clause.head.get(hi), atom_spans) {
        for (k, term) in h.atom.terms.iter().enumerate() {
            if term.as_var() == Some(var) {
                if let Some(s) = atom_spans.term(k) {
                    return s;
                }
            }
        }
    }
    spans.head_name_span(ci)
}

/// Stratification (E011): report the actual cycle, edge by edge.
fn check_stratification(
    graph: &Arc<DepGraph>,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    let Err(cycle) = Stratification::of(Arc::clone(graph)) else {
        return;
    };
    let names = stratify::cycle_names(&cycle, interner);
    let Some(strict) = cycle.first() else {
        diags.push(Diagnostic::error(
            "E011",
            Span::default(),
            "program is not stratifiable",
        ));
        return;
    };
    let mut d = Diagnostic::error(
        "E011",
        literal_span(spans, strict.clause, strict.literal),
        format!("program is not stratifiable: cycle {}", names.join(" -> ")),
    );
    for e in &cycle {
        let kind = if e.strict {
            "strictly (negation or ID-literal)"
        } else {
            "positively"
        };
        d = d.with_note_at(
            literal_span(spans, e.clause, e.literal),
            format!(
                "`{}` depends {kind} on `{}` here",
                interner.resolve(e.to),
                interner.resolve(e.from)
            ),
        );
    }
    diags.push(d);
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
                    .map(|&li| literal_span(spans, clause, li))
                    .unwrap_or_else(|| spans.clause_span(clause));
                let mut d = Diagnostic::error(
                    "E012",
                    primary,
                    "a clause may contain at most one choice operator (condition C1)",
                );
                for li in literals {
                    d = d.with_note_at(literal_span(spans, clause, li), "choice operator here");
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
                    literal_span(spans, clause, literal),
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
    clause: &'a idlog_parser::Clause,
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
