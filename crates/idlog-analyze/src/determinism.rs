//! Determinism certification lints (W010, W011), read from the ID-taint
//! analysis the validated program holds ([`ValidatedProgram::taint`]) —
//! the one the evaluator's enumeration fast path reads too, so what the
//! lints report and what the engine exploits can never drift apart.
//!
//! Theorem 3 makes exact determinism undecidable, so these are
//! *possibly*-non-deterministic warnings: W010 silence is a certificate
//! (the engine then skips ID-function enumeration for that output — see
//! [`idlog_core::Query::certified_deterministic`]), W010 presence is not a
//! conviction. Intentionally non-deterministic programs (the paper's
//! sampling queries) should suppress it with `idlog lint --allow W010`.

use idlog_core::taint::TaintStep;
use idlog_core::ValidatedProgram;
use idlog_parser::{SpanMap, Term};

use crate::diagnostic::Diagnostic;

/// W010: an output (sink) predicate the analysis cannot certify
/// deterministic — its contents can vary with the chosen ID-function. The
/// notes walk the taint witness down to the literal that introduces the
/// choice. Non-determinism becomes observable at the sinks, the heads no
/// body reads.
pub(crate) fn possibly_nondeterministic_outputs(
    program: &ValidatedProgram,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    let (interner, taint) = (program.interner(), program.taint());
    for &sink in program.stratification().graph().sinks() {
        if taint.deterministic(sink) {
            continue;
        }
        let name = interner.resolve(sink);
        let defining = program
            .ast()
            .clauses
            .iter()
            .position(|c| c.single_head().pred.base() == sink)
            .expect("a sink has a defining clause");
        let mut d = Diagnostic::warning(
            "W010",
            spans.head_name_span(defining),
            format!(
                "output predicate `{name}` is possibly non-deterministic: its contents \
                 can vary with the chosen ID-function"
            ),
        );
        for step in taint.witness(sink) {
            d = match step {
                TaintStep::Choice { clause, literal } => d.with_note_at(
                    spans.literal_span(clause, literal),
                    "the choice is introduced here",
                ),
                TaintStep::Via {
                    clause,
                    literal,
                    from,
                } => d.with_note_at(
                    spans.literal_span(clause, literal),
                    format!(
                        "depends on possibly non-deterministic `{}` here",
                        interner.resolve(from)
                    ),
                ),
            };
        }
        d = d.with_note(
            "the analysis is conservative (Theorem 3: exact determinism is undecidable); \
             if the non-determinism is intentional, suppress with --allow W010",
        );
        diags.push(d);
    }
}

/// W011: a head column receives a tid-derived value. Even when reaching
/// the clause is deterministic, the stored value is an artifact of the
/// enumerated ID-function; joins on such a column differ across perfect
/// models. Reported once per (predicate, column).
pub(crate) fn tid_value_columns(
    program: &ValidatedProgram,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    let mut reported: Vec<(idlog_common::SymbolId, usize)> = Vec::new();
    for (ci, clause) in program.ast().clauses.iter().enumerate() {
        let tainted = program.taint().value_tainted_vars(clause);
        if tainted.is_empty() {
            continue;
        }
        let h = clause.single_head();
        let pred = h.pred.base();
        for (k, term) in h.terms.iter().enumerate() {
            let Term::Var(v) = term else { continue };
            if !tainted.contains(v.as_str()) || reported.contains(&(pred, k)) {
                continue;
            }
            reported.push((pred, k));
            let anchor = spans
                .clause(ci)
                .and_then(|c| c.head_atom(0))
                .and_then(|a| a.term(k))
                .unwrap_or_else(|| spans.head_name_span(ci));
            diags.push(
                Diagnostic::warning(
                    "W011",
                    anchor,
                    format!(
                        "column {} of `{}` stores a tid-derived value",
                        k + 1,
                        program.interner().resolve(pred)
                    ),
                )
                .with_note(
                    "tids are assigned by the enumerated ID-function; values derived \
                     from them differ across perfect models",
                ),
            );
        }
    }
}
