//! Termination certification lints (W020, W021, H010).
//!
//! Read from the termination certificate the validated program holds
//! ([`ValidatedProgram::termination`]). Theorem 3 makes exact termination
//! undecidable, so W020 is a *possibly*-diverging warning — its absence is
//! a certificate (H010), its presence is not a conviction. Intentionally
//! value-generating programs should bound evaluation with
//! `--timeout`/`--max-rounds` or suppress with `idlog lint --allow W020`.

use idlog_common::{FxHashSet, Interner, SymbolId};
use idlog_core::termination::{FlowNode, RecursionKind, TerminationCert};
use idlog_core::ValidatedProgram;
use idlog_parser::SpanMap;

use crate::diagnostic::Diagnostic;

/// Describe a flow node for witness notes.
fn node_name(node: FlowNode, interner: &Interner) -> String {
    match node {
        FlowNode::Col(p, k) => format!("column {} of `{}`", k + 1, interner.resolve(p)),
        FlowNode::Card(p) => format!("the tids of `{}`", interner.resolve(p)),
    }
}

/// Emit W020 (possibly-diverging recursion, with a witness walk along the
/// growing cycle), W021 (ID-materialization of a cardinality-unbounded
/// predicate), and H010 (bounded-depth certificate) as applicable.
pub(crate) fn termination_lints(
    program: &ValidatedProgram,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    let (cert, interner) = (program.termination(), program.interner());
    possibly_diverging_recursion(cert, spans, interner, diags);
    unbounded_id_materialization(cert, spans, interner, diags);
    if !program.ast().clauses.is_empty() {
        bounded_depth_hint(cert, spans, diags);
    }
}

/// W020: an expanding cycle in the argument-flow graph — the fixpoint can
/// derive ever-larger naturals and may never terminate. The notes walk the
/// witness cycle edge by edge down to the growing builtin.
fn possibly_diverging_recursion(
    cert: &TerminationCert,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(witness) = cert.growth_witness() else {
        return;
    };
    let grower = witness[0];
    let pred = grower.to.pred();
    let op = grower.op.map(|o| o.name()).unwrap_or("arithmetic");
    let anchor = spans.head_name_span(grower.clause);
    let mut d = Diagnostic::warning(
        "W020",
        anchor,
        format!(
            "recursion of `{}` may diverge: each round can derive a strictly \
             larger value through `{op}`",
            interner.resolve(pred)
        ),
    );
    for e in witness {
        d = match e.grew_at {
            Some(grew_at) => d.with_note_at(
                spans.literal_span(e.clause, grew_at),
                format!(
                    "the value read from {} grows through `{}` here and reaches {}",
                    node_name(e.from, interner),
                    e.op.map(|o| o.name()).unwrap_or("arithmetic"),
                    node_name(e.to, interner),
                ),
            ),
            None => d.with_note_at(
                spans.literal_span(e.clause, e.literal),
                format!(
                    "{} flows back into {} here, closing the cycle",
                    node_name(e.from, interner),
                    node_name(e.to, interner),
                ),
            ),
        };
    }
    d = d.with_note(
        "the analysis is conservative (Theorem 3: exact termination is undecidable); \
         bound evaluation with --timeout/--max-rounds, or suppress with --allow W020 \
         if the growth is intentional",
    );
    diags.push(d);
}

/// W021: an ID-literal over a predicate whose cardinality the analysis
/// cannot bound. Tids are assigned per *complete* sub-relation, so
/// materializing the ID-relation of a growing predicate can never finish.
fn unbounded_id_materialization(
    cert: &TerminationCert,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    let mut reported: FxHashSet<SymbolId> = FxHashSet::default();
    for site in cert.unbounded_id_sites() {
        if !reported.insert(site.base) {
            continue;
        }
        let name = interner.resolve(site.base);
        let mut d = Diagnostic::warning(
            "W021",
            spans.literal_span(site.clause, site.literal),
            format!(
                "ID-relation of `{name}` is materialized here, but `{name}` is \
                 not certified to have bounded cardinality"
            ),
        )
        .with_note(
            "tuple identifiers are assigned once the sub-relation is complete; \
             a possibly unbounded relation never completes, so this \
             materialization may never happen",
        );
        if let Some(witness) = cert.growth_witness() {
            d = d.with_note_at(
                spans.literal_span(witness[0].clause, witness[0].grew_at.unwrap_or(0)),
                "the growth originates here (see W020)",
            );
        }
        diags.push(d);
    }
}

/// H010: the program is certified bounded — every fixpoint terminates on
/// its own, with a per-database round bound the engine installs
/// automatically (see `idlog_core::Query::termination_cert`).
fn bounded_depth_hint(cert: &TerminationCert, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    if !cert.bounded() {
        return;
    }
    let recursive = cert
        .recursion()
        .iter()
        .filter(|s| s.kind != RecursionKind::Nonrecursive)
        .count();
    diags.push(
        Diagnostic::hint(
            "H010",
            spans.head_name_span(0),
            format!(
                "derivation depth is statically bounded: every derived relation's \
                 cardinality is polynomial (degree <= {}) in the active domain",
                cert.degree()
            ),
        )
        .with_note(format!(
            "{} recursive component(s); the engine derives a concrete per-database \
             round bound from this certificate and installs it as an automatic \
             max-rounds ceiling",
            recursive
        )),
    );
}
