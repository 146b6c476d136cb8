//! Goal-directed relevance lints (W031, H020).
//!
//! Backed by [`idlog_core::relevance::analyze_relevance`]. Each *sink*
//! predicate (an IDB head no body reads — the program's query outputs) is
//! analyzed as a query root. When the planner's SIPS reaches at least one
//! derived predicate with a bound argument position, the program has a
//! *point-query shape* and the verdict is worth reporting:
//!
//! * **H020** — certified: magic-sets evaluation (`--strategy magic`) is
//!   semantics-preserving and its rewrite is a valid program, with the
//!   adorned predicates and the statically pruned fraction of the
//!   dependency graph listed;
//! * **W031** — the reachable region contains an ID-literal, a choice
//!   site: magic guards must not duplicate or split a choice point,
//!   mirroring the ID-taint witnesses of `W010`.
//!
//! Programs without point-query shape stay silent — all-free queries gain
//! nothing from magic sets, so neither a cert nor a refusal is news. So
//! does a query whose rewrite is not a valid program: `--strategy magic`
//! refuses it with the validator's error, and no hint claims otherwise.

use idlog_common::{FxHashSet, Interner, SymbolId};
use idlog_core::relevance::{
    analyze_relevance, pattern_string, query_roots, RelevanceAnalysis, RelevanceStep,
};
use idlog_core::ValidatedProgram;
use idlog_parser::SpanMap;

use crate::diagnostic::Diagnostic;

/// Run the relevance analysis per query root and emit W031/H020.
pub(crate) fn relevance_lints(
    program: &ValidatedProgram,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    let interner = program.interner();
    let mut reported: FxHashSet<(usize, usize)> = FxHashSet::default();
    for (root, ci) in query_roots(program) {
        let analysis = analyze_relevance(program, root);
        // Only point-query shapes are worth a verdict: the walk must have
        // entered some derived predicate with a bound position.
        if analysis.adorned().is_empty() {
            continue;
        }
        if analysis.refusal().is_some() {
            refusal_warning(root, &analysis, spans, interner, diags, &mut reported);
        } else if analysis.certified() {
            certified_hint(root, ci, &analysis, spans, interner, diags);
        }
    }
}

/// H020: the point query is certified for goal-directed evaluation.
fn certified_hint(
    root: SymbolId,
    root_clause: usize,
    analysis: &RelevanceAnalysis,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
) {
    let adorned: Vec<String> = analysis
        .adorned()
        .iter()
        .map(|a| a.display(interner))
        .collect();
    let (guarded, total) = analysis.pruned_fraction();
    diags.push(
        Diagnostic::hint(
            "H020",
            spans.head_name_span(root_clause),
            format!(
                "`{}` is a certified point query: goal-directed evaluation \
                 reaches {}",
                interner.resolve(root),
                adorned.join(", ")
            ),
        )
        .with_note(format!(
            "magic sets guard {guarded} of {total} derived predicate(s) with \
             query-constant seeds; run with --strategy magic to derive only \
             relevant facts"
        )),
    );
}

/// W031: the refusal, rendered as a rustc-style witness walk — one note
/// per SIPS hop, anchored at the literal that passes the bindings.
fn refusal_warning(
    root: SymbolId,
    analysis: &RelevanceAnalysis,
    spans: &SpanMap,
    interner: &Interner,
    diags: &mut Vec<Diagnostic>,
    reported: &mut FxHashSet<(usize, usize)>,
) {
    let refusal = analysis.refusal().expect("caller checked");
    let (site_clause, site_literal) = refusal.site();
    if !reported.insert((site_clause, site_literal)) {
        return;
    }
    let mut d = Diagnostic::warning(
        "W031",
        spans.literal_span(site_clause, site_literal),
        format!(
            "point query `{}` cannot be made goal-directed: reaches a choice site, \
             so magic-sets must not prune it",
            interner.resolve(root)
        ),
    );
    for step in &refusal.walk {
        d = match step {
            RelevanceStep::Goal {
                clause,
                literal,
                to,
                pattern,
            } => d.with_note_at(
                spans.literal_span(*clause, *literal),
                format!(
                    "bindings flow into `{}` with pattern {} here",
                    interner.resolve(*to),
                    pattern_string(pattern)
                ),
            ),
            RelevanceStep::Choice { clause, literal } => d.with_note_at(
                spans.literal_span(*clause, *literal),
                "non-deterministic choice happens here; a magic guard would \
                 prune the relation it draws from, duplicating or splitting \
                 the choice point (the same sites the W010 taint walk tracks)",
            ),
        };
    }
    d = d.with_note(
        "goal-directed evaluation stays off for this query; suppress \
         with --allow W031 if the full evaluation is intentional",
    );
    diags.push(d);
}
