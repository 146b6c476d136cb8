//! Human-readable evaluation plans.
//!
//! [`explain`] renders what the engine will do with a program: the strata,
//! each clause's join order (the safe order found by [`crate::safety`]),
//! which ID-relations are read and with what tid bounds, and the inferred
//! relation types. The `idlog check` CLI command prints this.
//! [`explain_analyze`] renders the same plan annotated with measured
//! per-clause counters from a [`Profile`] — the `EXPLAIN ANALYZE` of the
//! engine, surfaced by `idlog explain --analyze`.

use std::collections::HashMap;
use std::fmt::Write as _;

use idlog_parser::Literal;

use crate::error::CoreResult;
use crate::profile::Profile;
use crate::program::ValidatedProgram;

/// Render an evaluation plan for `program`.
pub fn explain(program: &ValidatedProgram) -> CoreResult<String> {
    render(program, None)
}

/// Render an evaluation plan annotated with measured counters.
///
/// `profile` must come from evaluating the *same* `program` (same clause
/// indices) with [`crate::EvalOptions::profile`] enabled; clauses the run
/// never instantiated are annotated `measured: (not fired)`.
pub fn explain_analyze(program: &ValidatedProgram, profile: &Profile) -> CoreResult<String> {
    render(program, Some(profile))
}

fn render(program: &ValidatedProgram, profile: Option<&Profile>) -> CoreResult<String> {
    let interner = program.interner();
    let strat = program.stratification();
    let bounds = program.tid_bounds();
    let mut out = String::new();

    // Measured per-clause totals, when analyzing.
    let measured: HashMap<usize, _> = profile
        .map(|p| {
            p.per_rule_totals()
                .into_iter()
                .map(|t| (t.clause, t))
                .collect()
        })
        .unwrap_or_default();

    let mut inputs: Vec<String> = program
        .inputs()
        .iter()
        .map(|&p| interner.resolve(p))
        .collect();
    inputs.sort();
    let _ = writeln!(out, "inputs: {}", inputs.join(", "));

    let by_stratum = strat.clauses_by_stratum(program.ast());
    for (k, clause_ids) in by_stratum.iter().enumerate() {
        if clause_ids.is_empty() {
            continue;
        }
        let _ = writeln!(out, "stratum {k}:");
        if let Some(p) = profile {
            for sp in p.strata.iter().filter(|sp| sp.index == k) {
                for idr in &sp.id_relations {
                    let _ = writeln!(
                        out,
                        "  materialized ID-relation {}: {} tuples in {} group(s)",
                        idr.display_name(),
                        idr.tuples,
                        idr.groups
                    );
                }
            }
        }
        for &ci in clause_ids {
            let clause = &program.ast().clauses[ci];
            let _ = writeln!(out, "  {}", clause.display(interner));
            if clause.body.len() > 1 {
                let order = &program.clause_order(ci).order;
                let steps: Vec<String> = order
                    .iter()
                    .map(|&li| clause.body[li].display(interner).to_string())
                    .collect();
                let _ = writeln!(out, "    order: {}", steps.join("  ->  "));
            }
            for lit in &clause.body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    if let idlog_parser::PredicateRef::IdVersion { base, grouping } = &a.pred {
                        let name = interner.resolve(*base);
                        let attrs: Vec<String> =
                            grouping.iter().map(|g| (g + 1).to_string()).collect();
                        let bound = bounds.get(&(*base, grouping.clone())).map_or(
                            "unbounded (full permutation walk)".to_string(),
                            |k| {
                                format!(
                                    "tids < {k} observable (k-prefix walk; evaluation \
                                     materializes at most {k} tuple(s) per group)"
                                )
                            },
                        );
                        let _ = writeln!(
                            out,
                            "    reads ID-relation {name}[{}]: {bound}",
                            attrs.join(",")
                        );
                    }
                }
            }
            if profile.is_some() {
                match measured.get(&ci) {
                    Some(t) => {
                        let _ = writeln!(
                            out,
                            "    measured: inst={} derived={} inserted={} redundant={} \
                             probes={} builtins={} rounds={} shards={}",
                            t.stats.instantiations,
                            t.stats.derived,
                            t.stats.inserted,
                            t.redundant(),
                            t.stats.probes,
                            t.stats.builtin_evals,
                            t.rounds,
                            t.shards
                        );
                    }
                    None => {
                        let _ = writeln!(out, "    measured: (not fired)");
                    }
                }
            }
        }
    }
    if let Some(p) = profile {
        let _ = writeln!(out, "totals: {}", p.totals);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::eval::evaluate_governed;
    use crate::tid::CanonicalOracle;
    use std::sync::Arc;

    #[test]
    fn explain_shows_strata_orders_and_bounds() {
        let program = ValidatedProgram::parse(
            "reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).
             pick(N) :- reach[](N, T), T < 2, big(N).
             rest(N) :- reach(N), not pick(N).",
            Arc::new(crate::Interner::new()),
        )
        .unwrap();
        let text = explain(&program).unwrap();
        assert!(text.contains("inputs: big, e, start"), "{text}");
        assert!(text.contains("stratum 0:"), "{text}");
        assert!(text.contains("stratum 1:"), "{text}");
        assert!(text.contains("stratum 2:"), "{text}");
        assert!(text.contains("reads ID-relation reach[]"), "{text}");
        assert!(
            text.contains(
                "tids < 2 observable (k-prefix walk; evaluation materializes at most \
                 2 tuple(s) per group)"
            ),
            "{text}"
        );
        assert!(text.contains("order:"), "{text}");
        assert!(!text.contains("measured:"), "{text}");
        assert!(!text.contains("totals:"), "{text}");
    }

    #[test]
    fn explain_marks_unbounded_uses() {
        let program = ValidatedProgram::parse(
            "expose(N, T) :- emp[2](N, D, T).",
            Arc::new(crate::Interner::new()),
        )
        .unwrap();
        let text = explain(&program).unwrap();
        assert!(text.contains("unbounded (full permutation walk)"), "{text}");
    }

    #[test]
    fn explain_analyze_annotates_measured_counters() {
        let program = ValidatedProgram::parse(
            "reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).
             pick(N) :- reach[](N, 0).",
            Arc::new(crate::Interner::new()),
        )
        .unwrap();
        let mut db = idlog_storage::Database::with_interner(Arc::clone(program.interner()));
        db.insert_syms("start", &["a"]).unwrap();
        db.insert_syms("e", &["a", "b"]).unwrap();
        db.insert_syms("e", &["b", "c"]).unwrap();
        let out = evaluate_governed(
            &program,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::serial().profile(true),
            None,
        )
        .unwrap();
        let profile = out.profile().expect("profiling enabled");
        let text = explain_analyze(&program, profile).unwrap();
        assert!(text.contains("measured: inst="), "{text}");
        assert!(text.contains("materialized ID-relation reach[]"), "{text}");
        assert!(text.contains("totals: "), "{text}");
        // Every clause gets an annotation line (fired or not).
        assert_eq!(text.matches("measured:").count(), 3, "{text}");
    }
}
