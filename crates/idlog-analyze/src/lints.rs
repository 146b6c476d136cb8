//! The warning/hint lint passes (`W…`/`H…` codes).
//!
//! These run only when requested (and the expensive ones only on programs
//! that already pass every error check): they flag *suspicious* or
//! *improvable* programs, never invalid ones.

use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId};
use idlog_core::stratify::DepGraph;
use idlog_core::{EnumBudget, ValidatedProgram};
use idlog_parser::{Literal, PredicateRef, Program, Span, SpanMap, Term};
use idlog_storage::Database;

use crate::analyzer::body_term_spans;
use crate::diagnostic::Diagnostic;

/// W001: a defined predicate that contributes to no output.
pub fn unused_predicates(
    program: &Program,
    graph: &DepGraph,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    // A multi-head clause feeds every one of its heads.
    let cone = graph.output_cone();
    let mut reported: FxHashSet<SymbolId> = FxHashSet::default();
    for (ci, clause) in program.clauses.iter().enumerate() {
        for (hi, h) in clause.head.iter().enumerate() {
            let pred = h.atom.pred.base();
            if !cone.contains(&pred) && reported.insert(pred) {
                let span = spans
                    .clause(ci)
                    .and_then(|c| c.head_atom(hi))
                    .map(|a| a.name)
                    .unwrap_or_else(|| spans.head_name_span(ci));
                diags.push(Diagnostic::warning(
                    "W001",
                    span,
                    format!(
                        "predicate `{}` is defined but contributes to no output",
                        interner.resolve(pred)
                    ),
                ));
            }
        }
    }
}

/// W002: in a program that carries its own facts, a positive body literal
/// over a predicate with no clauses and no facts can never hold.
pub fn underivable_predicates(
    program: &Program,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    if !program.clauses.iter().any(|c| c.is_fact()) {
        return; // inputs presumably come from a separate facts file
    }
    let defined = program.head_predicates();
    let mut reported: FxHashSet<SymbolId> = FxHashSet::default();
    for (ci, clause) in program.clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            let Literal::Pos(a) = lit else { continue };
            let pred = a.pred.base();
            if !defined.contains(&pred) && reported.insert(pred) {
                diags.push(
                    Diagnostic::warning(
                        "W002",
                        spans.literal_span(ci, li),
                        format!(
                            "predicate `{}` is underivable: the program defines its own facts \
                             but has no clause or fact for it",
                            interner.resolve(pred)
                        ),
                    )
                    .with_note("this literal can never hold, so the clause derives nothing"),
                );
            }
        }
    }
}

/// W003: a named variable occurring exactly once in its clause.
pub fn singleton_variables(program: &Program, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    for (ci, clause) in program.clauses.iter().enumerate() {
        let mut occurrences: Vec<(String, Span)> = Vec::new();
        for (hi, h) in clause.head.iter().enumerate() {
            let atom_spans = spans.clause(ci).and_then(|c| c.head_atom(hi));
            for (k, t) in h.atom.terms.iter().enumerate() {
                if let Term::Var(v) = t {
                    let span = atom_spans
                        .and_then(|a| a.term(k))
                        .filter(Span::is_known)
                        .unwrap_or_else(|| spans.head_name_span(ci));
                    occurrences.push((v.clone(), span));
                }
            }
        }
        occurrences.extend(body_term_spans(clause, spans, ci));

        let mut counts: FxHashMap<&str, usize> = FxHashMap::default();
        for (v, _) in &occurrences {
            *counts.entry(v.as_str()).or_insert(0) += 1;
        }
        let mut flagged: Vec<&str> = Vec::new();
        for (v, span) in &occurrences {
            if counts[v.as_str()] == 1 && !v.starts_with('_') {
                diags.push(
                    Diagnostic::warning(
                        "W003",
                        *span,
                        format!("variable {v} occurs only once in this clause"),
                    )
                    .with_note(format!(
                        "rename it to _{v} if the single occurrence is intentional"
                    )),
                );
            }
            // The inverse (SWI-Prolog's singleton-marked warning): an
            // underscore prefix promises a singleton, so a repeated use is
            // probably a typo'd join.
            if counts[v.as_str()] > 1 && v.starts_with('_') && !flagged.contains(&v.as_str()) {
                flagged.push(v.as_str());
                diags.push(
                    Diagnostic::warning(
                        "W003",
                        *span,
                        format!(
                            "variable {v} occurs {} times but its name marks it as an \
                             intentional singleton",
                            counts[v.as_str()]
                        ),
                    )
                    .with_note(if v.trim_start_matches('_').is_empty() {
                        // There is no anonymous wildcard: every `_` in a
                        // clause is the *same* variable and joins.
                        format!("every occurrence of {v} names the same variable and joins")
                    } else {
                        format!(
                            "drop the underscore if the join is intentional: {}",
                            v.trim_start_matches('_')
                        )
                    }),
                );
            }
        }
    }
}

/// W004: an ID-literal whose grouping covers every column of the base
/// predicate — each group then holds exactly one tuple, so the only tid is 0.
pub fn degenerate_id_groups(
    program: &Program,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    for (ci, clause) in program.clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            let Some(a) = lit.atom() else { continue };
            let PredicateRef::IdVersion { base, grouping } = &a.pred else {
                continue;
            };
            if grouping.len() != a.base_arity() {
                continue;
            }
            let name = interner.resolve(*base);
            let mut d = Diagnostic::warning(
                "W004",
                spans.literal_span(ci, li),
                format!(
                    "grouping covers every column of `{name}`, so each group holds \
                     exactly one tuple and the only tid is 0"
                ),
            );
            if let Some(Term::Int(k)) = a.terms.last() {
                if k.get() >= 1 {
                    d = d.with_note(format!(
                        "tid {k} can never match — this literal is always false"
                    ));
                }
            }
            diags.push(d);
        }
    }
}

/// H001: every occurrence of an ID-use bounds its tid below `k` (paper
/// footnotes 6–7), so enumeration may walk `k`-prefix arrangements only.
pub fn tid_bound_hints(program: &ValidatedProgram, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    let (bounds, interner) = (program.tid_bounds(), program.interner());
    let mut reported: FxHashSet<(SymbolId, Vec<usize>)> = FxHashSet::default();
    for (ci, clause) in program.ast().clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            let Some(a) = lit.atom() else { continue };
            let PredicateRef::IdVersion { base, grouping } = &a.pred else {
                continue;
            };
            let key = (*base, grouping.clone());
            let Some(&k) = bounds.get(&key) else { continue };
            if !reported.insert(key) {
                continue;
            }
            let shown: Vec<String> = grouping.iter().map(|g| (g + 1).to_string()).collect();
            diags.push(
                Diagnostic::hint(
                    "H001",
                    spans.literal_span(ci, li),
                    format!(
                        "tid of `{}[{}]` is bounded below {k} in every occurrence",
                        interner.resolve(*base),
                        shown.join(","),
                    ),
                )
                .with_note(format!(
                    "evaluation only needs the first {k} tuple(s) of each group \
                     (k-prefix enumeration, paper footnotes 6-7)"
                )),
            );
        }
    }
}

/// Every `arity`-tuple over `domain`, for building the full test database.
fn combos<'a>(domain: &[&'a str], arity: usize) -> Vec<Vec<&'a str>> {
    let mut acc = vec![Vec::new()];
    for _ in 0..arity {
        acc = acc
            .into_iter()
            .flat_map(|c: Vec<&str>| {
                domain.iter().map(move |d| {
                    let mut next = c.clone();
                    next.push(*d);
                    next
                })
            })
            .collect();
    }
    acc
}

/// W005: the bounded Example-8 redundancy suggestion — a clause whose
/// removal preserves every output on a family of test databases
/// (deterministic empty + full, plus a randomized family).
pub fn redundant_clauses(
    program: &Program,
    graph: &DepGraph,
    spans: &SpanMap,
    interner: &Arc<Interner>,
    diags: &mut Vec<Diagnostic>,
) {
    let Ok(validated) = ValidatedProgram::new(program.clone(), Arc::clone(interner)) else {
        return;
    };
    let mut sinks: Vec<String> = graph.sinks().iter().map(|&p| interner.resolve(p)).collect();
    sinks.sort();
    if sinks.is_empty() {
        return;
    }

    // Databases over the program's elementary input predicates, with a
    // fixed seed so lint output is reproducible. A deterministic empty and
    // full database bracket the random family: clauses that only matter on
    // no-input or all-input databases are otherwise easy to miss, because a
    // probability-½ random family rarely hits those extremes.
    let mut schema: Vec<(String, usize)> = Vec::new();
    for &pred in validated.inputs() {
        let (Some(arity), Some(rtype)) = (validated.arity(pred), validated.sorts().rel_type(pred))
        else {
            continue;
        };
        if rtype.is_elementary() {
            schema.push((interner.resolve(pred), arity));
        }
    }
    schema.sort();
    let schema_refs: Vec<(&str, usize)> = schema.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    // The domain must include the program's own symbolic constants: a point
    // query like `q(Y) :- anc(ann, Y)` is empty on every database whose
    // domain misses `ann`, which would make every upstream clause look
    // removable. Capped so the full database stays small.
    let mut domain: Vec<String> = program
        .clauses
        .iter()
        .flat_map(|c| {
            c.head
                .iter()
                .flat_map(|h| h.atom.terms.iter())
                .chain(c.body.iter().flat_map(|l| match l {
                    idlog_parser::Literal::Pos(a) | idlog_parser::Literal::Neg(a) => a.terms.iter(),
                    idlog_parser::Literal::Builtin { args, .. } => args.iter(),
                    _ => [].iter(),
                }))
        })
        .filter_map(|t| match t {
            idlog_parser::Term::Sym(s) => Some(interner.resolve(*s)),
            _ => None,
        })
        .collect();
    domain.sort();
    domain.dedup();
    domain.truncate(3);
    domain.extend(["d1", "d2", "d3", "d4"].map(str::to_string));
    let domain: Vec<&str> = domain.iter().map(String::as_str).collect();
    let mut empty_db = Database::with_interner(Arc::clone(interner));
    let mut full_db = Database::with_interner(Arc::clone(interner));
    for (name, arity) in &schema {
        let rtype = idlog_common::RelType::elementary(*arity);
        if empty_db.declare(name, rtype.clone()).is_err() || full_db.declare(name, rtype).is_err() {
            return;
        }
        for combo in combos(&domain, *arity) {
            if full_db.insert_syms(name, &combo).is_err() {
                return;
            }
        }
    }
    let mut dbs = vec![empty_db, full_db];
    dbs.extend(idlog_optimizer::random_databases(
        interner,
        &schema_refs,
        &domain,
        8,
        0xD1CE,
    ));

    let cone = graph.output_cone();
    let budget = EnumBudget::default();
    let mut removable: Option<FxHashSet<usize>> = None;
    for sink in &sinks {
        let Ok(rep) =
            idlog_optimizer::suggest_redundant_clauses(program, interner, &dbs, sink, &budget)
        else {
            return; // sort mismatch with random databases, budget, … — no suggestion
        };
        let this: FxHashSet<usize> = rep.removable.into_iter().collect();
        removable = Some(match removable {
            None => this,
            Some(prev) => prev.intersection(&this).copied().collect(),
        });
    }
    let mut removable: Vec<usize> = removable.unwrap_or_default().into_iter().collect();
    removable.sort_unstable();
    for ci in removable {
        // Clauses for predicates outside every output's cone are already
        // W001 territory; suggesting their removal again is noise.
        let head = program.clauses[ci].head[0].atom.pred.base();
        if !cone.contains(&head) {
            continue;
        }
        diags.push(
            Diagnostic::warning(
                "W005",
                spans.clause_span(ci),
                format!(
                    "clause looks redundant: removing it preserves {} on {} test \
                     databases (empty, full, and randomized; bounded check, Example 8)",
                    sinks
                        .iter()
                        .map(|s| format!("`{s}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    dbs.len()
                ),
            )
            .with_note(
                "the check is sound only up to the tested databases; review before deleting",
            ),
        );
    }
}
