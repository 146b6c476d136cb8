//! Model checking: is a computed state closed under a program's clauses?
//!
//! The paper's Theorem 1 guarantees every stratified IDLOG program has a
//! perfect model; [`verify_model`] checks the operational counterpart for a
//! concrete evaluation result — that every rule instantiation whose body is
//! satisfied has its head fact present. Together with minimality spot checks
//! in the test suite, this validates the engine's fixpoints independently of
//! the engine's own derivation bookkeeping.

use idlog_common::{SymbolId, Tuple};
use idlog_storage::Database;

use crate::engine::{Derived, Drive, EvalState, Resolved};
use crate::error::{CoreError, CoreResult};
use crate::eval::EvalOutput;
use crate::pred::PredKey;
use crate::program::ValidatedProgram;
use crate::stats::EvalStats;

/// A head fact that a satisfied body failed to support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    /// The head predicate.
    pub pred: SymbolId,
    /// The derivable-but-missing tuple.
    pub tuple: Tuple,
}

/// Check that `output`'s state (all relations computed by [`crate::evaluate_with_options`]
/// along with the input database) is closed under the program's clauses:
/// re-fire every rule against the final relations and report any head fact
/// not already present.
///
/// Returns the violations (empty = the state is a model). ID-literals are
/// checked against the ID-relations materialized during the evaluation; a
/// program portion that never ran (not related to the evaluated output) is
/// skipped if its ID-relations were never drawn.
pub fn verify_model(
    program: &ValidatedProgram,
    db: &Database,
    output: &EvalOutput,
) -> CoreResult<Vec<ModelViolation>> {
    let interner = program.interner();
    // Rebuild an EvalState view over the output's relations.
    let mut state = EvalState::new();
    let mut skip_preds: Vec<SymbolId> = Vec::new();
    for &pred in program.inputs().iter().chain(program.idb()) {
        let name = interner.resolve(pred);
        match output.relation(&name) {
            Some(rel) => state.put(PredKey::Ordinary(pred), rel.clone()),
            None => {
                // Input predicate never installed (not part of the evaluated
                // portion): fall back to the database or treat as empty.
                if let Some(rel) = db.relation_by_id(pred) {
                    state.put(PredKey::Ordinary(pred), rel.clone());
                }
            }
        }
    }
    for (base, grouping) in program.id_uses() {
        let name = interner.resolve(*base);
        match output.id_relation(&name, grouping) {
            Some(rel) => state.put(PredKey::Id(*base, grouping.clone()), rel.clone()),
            None => {
                // The ID-relation was never materialized (unrelated portion):
                // clauses reading it cannot be checked meaningfully.
                for clause in &program.ast().clauses {
                    let head = clause.head[0].atom.pred.base();
                    let uses_it = clause.body.iter().any(|l| {
                        l.atom().is_some_and(|a| match &a.pred {
                            idlog_parser::PredicateRef::IdVersion {
                                base: b,
                                grouping: g,
                            } => b == base && g == grouping,
                            _ => false,
                        })
                    });
                    if uses_it {
                        skip_preds.push(head);
                    }
                }
            }
        }
    }

    let resolved = Resolved::new(&state, program.plans().iter());

    let mut violations = Vec::new();
    let mut stats = EvalStats::default();
    for rule in resolved.rules() {
        let plan = rule.plan;
        if skip_preds.contains(&plan.head_pred) {
            continue;
        }
        let head_rel = state
            .get(&PredKey::Ordinary(plan.head_pred))
            .ok_or_else(|| CoreError::Eval {
                message: format!(
                    "relation {} missing from the checked state",
                    interner.resolve(plan.head_pred)
                ),
            })?;
        let mut derived = Derived::default();
        derived.run_rule(&state, rule, Drive::Full, &mut stats)?;
        for (pred, tuples) in derived.runs() {
            for t in tuples.iter().filter(|t| !head_rel.contains(t)) {
                violations.push(ModelViolation {
                    pred,
                    tuple: t.clone(),
                });
            }
        }
    }
    violations.sort_by(|a, b| {
        interner
            .cmp_by_name(a.pred, b.pred)
            .then_with(|| a.tuple.cmp_canonical(&b.tuple, interner))
    });
    violations.dedup();
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::eval::evaluate_with_options;
    use crate::tid::{CanonicalOracle, SeededOracle};
    use std::sync::Arc;

    fn setup(src: &str, facts: &[(&str, &[&str])]) -> (ValidatedProgram, Database) {
        let interner = Arc::new(crate::Interner::new());
        let program = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
        let mut db = Database::with_interner(interner);
        for (pred, cols) in facts {
            db.insert_syms(pred, cols).unwrap();
        }
        (program, db)
    }

    #[test]
    fn computed_fixpoints_are_models() {
        let (p, db) = setup(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &[("e", &["a", "b"]), ("e", &["b", "c"]), ("e", &["c", "a"])],
        );
        let out =
            evaluate_with_options(&p, &db, &mut CanonicalOracle, &EvalOptions::default()).unwrap();
        assert!(verify_model(&p, &db, &out).unwrap().is_empty());
    }

    #[test]
    fn id_programs_are_models_under_any_oracle() {
        let (p, db) = setup(
            "pick(N, D) :- emp[2](N, D, 0).
             rest(N) :- emp(N, D), not pick(N, D).",
            &[
                ("emp", &["a", "x"]),
                ("emp", &["b", "x"]),
                ("emp", &["c", "y"]),
            ],
        );
        for seed in 0..8 {
            let out = evaluate_with_options(
                &p,
                &db,
                &mut SeededOracle::new(seed),
                &EvalOptions::default(),
            )
            .unwrap();
            let violations = verify_model(&p, &db, &out).unwrap();
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn detects_a_non_model() {
        // Evaluate the full program, then check a *larger* program against
        // the same state: the extra clause's heads are missing.
        let (p, db) = setup("a(X) :- base(X).", &[("base", &["x"]), ("base", &["y"])]);
        let out =
            evaluate_with_options(&p, &db, &mut CanonicalOracle, &EvalOptions::default()).unwrap();

        let bigger = ValidatedProgram::parse(
            "a(X) :- base(X). a(X) :- more(X).",
            Arc::clone(p.interner()),
        )
        .unwrap();
        let mut db2 = Database::with_interner(Arc::clone(p.interner()));
        db2.insert_syms("base", &["x"]).unwrap();
        db2.insert_syms("base", &["y"]).unwrap();
        db2.insert_syms("more", &["z"]).unwrap();
        let violations = verify_model(&bigger, &db2, &out).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            p.interner().resolve(violations[0].pred),
            "a",
            "the unsupported head is a(z)"
        );
    }

    #[test]
    fn arithmetic_models_check() {
        let (p, db) = setup("upto(0). upto(M) :- upto(N), succ(N, M), M <= 5.", &[]);
        let out =
            evaluate_with_options(&p, &db, &mut CanonicalOracle, &EvalOptions::default()).unwrap();
        assert_eq!(out.relation("upto").unwrap().len(), 6);
        assert!(verify_model(&p, &db, &out).unwrap().is_empty());
    }
}
