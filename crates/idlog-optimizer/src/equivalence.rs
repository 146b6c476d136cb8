//! Bounded q-equivalence checking.
//!
//! Two programs are *q-equivalent* when they define the same query `q`
//! (\[She90b\] §3.1) — for non-deterministic programs, the same *set* of
//! answers on every input database. Exact checking is undecidable
//! (Theorem 3), so we check on a caller-supplied or randomly generated
//! family of small databases: the paper's own counterexamples (Example 7)
//! are witnessed by databases with ≤ 2 constants, so small instances carry
//! real discriminating power.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use idlog_common::Interner;
use idlog_core::{
    CoreError, CoreResult, EnumBudget, EvalOptions, LimitKind, Query, StopReason, ValidatedProgram,
};
use idlog_parser::Program;
use idlog_storage::Database;

/// Outcome of a bounded equivalence check.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// True when every checked database gave identical answer sets.
    pub equivalent: bool,
    /// Index of the first database that distinguished the programs.
    pub counterexample: Option<usize>,
    /// Number of databases checked (all of them when equivalent).
    pub databases_checked: usize,
}

/// Compare the answer sets of two programs for `output` on each database.
///
/// Both programs must share `interner` (and so must the databases).
pub fn q_equivalent_on(
    p1: &Program,
    p2: &Program,
    interner: &Arc<Interner>,
    dbs: &[Database],
    output: &str,
    budget: &EnumBudget,
) -> CoreResult<EquivalenceReport> {
    let q1 = Query::new(
        ValidatedProgram::new(p1.clone(), Arc::clone(interner))?,
        output,
    )?;
    let q2 = Query::new(
        ValidatedProgram::new(p2.clone(), Arc::clone(interner))?,
        output,
    )?;
    // Termination of the probed programs is undecidable (Theorem 3), and
    // this routine runs inside lints and optimizer suggestions that must
    // never hang. The termination certificates decide: a growth witness on
    // either side means the probe would only ever burn its ceilings, so
    // skip probing entirely (no verdict). Otherwise both sides are
    // certified bounded, and each session runs under its own certified
    // round ceiling and takes the deterministic fast path where its side
    // certifies.
    if q1.termination_cert().growth_witness().is_some()
        || q2.termination_cert().growth_witness().is_some()
    {
        return Err(CoreError::LimitExceeded {
            limit: LimitKind::Rounds,
        });
    }
    let options = EvalOptions::serial().budget(*budget);
    for (i, db) in dbs.iter().enumerate() {
        let a1 = q1.session(db).options(options).all_answers()?;
        let a2 = q2.session(db).options(options).all_answers()?;
        // A walk cut short by a round ceiling (as opposed to the caller's
        // model/answer budget) compared two truncated sets; no verdict can
        // be drawn from that, so surface the trip.
        for set in [&a1, &a2] {
            if let Some(StopReason::Limit(kind)) = set.stopped() {
                if !matches!(kind, LimitKind::Models | LimitKind::Answers) {
                    return Err(CoreError::LimitExceeded { limit: kind });
                }
            }
        }
        if !a1.same_answers(&a2, interner) {
            return Ok(EquivalenceReport {
                equivalent: false,
                counterexample: Some(i),
                databases_checked: i + 1,
            });
        }
    }
    Ok(EquivalenceReport {
        equivalent: true,
        counterexample: None,
        databases_checked: dbs.len(),
    })
}

/// Generate `count` random databases over the given relational schema
/// (`(name, arity)` pairs) and symbolic domain. Each possible tuple is
/// included independently with probability ½ — dense enough to exercise
/// joins, sparse enough to leave groups of differing sizes.
pub fn random_databases(
    interner: &Arc<Interner>,
    schema: &[(&str, usize)],
    domain: &[&str],
    count: usize,
    seed: u64,
) -> Vec<Database> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut db = Database::with_interner(Arc::clone(interner));
            for &(name, arity) in schema {
                // Ensure the relation exists even when empty.
                db.declare(name, idlog_common::RelType::elementary(arity))
                    .expect("fresh declaration");
                for combo in cartesian(domain, arity) {
                    if rng.gen_bool(0.5) {
                        let cols: Vec<&str> = combo.clone();
                        db.insert_syms(name, &cols).expect("sorted schema");
                    }
                }
            }
            db
        })
        .collect()
}

/// All `arity`-length combinations over `domain` (with repetition).
fn cartesian<'a>(domain: &'a [&'a str], arity: usize) -> Vec<Vec<&'a str>> {
    let mut out: Vec<Vec<&str>> = vec![vec![]];
    for _ in 0..arity {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                domain.iter().map(move |&d| {
                    let mut v = prefix.clone();
                    v.push(d);
                    v
                })
            })
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_parser::parse_program;

    #[test]
    fn identical_programs_are_equivalent() {
        let i = Arc::new(Interner::new());
        let p = parse_program("q(X) :- e(X, Y).", &i).unwrap();
        let dbs = random_databases(&i, &[("e", 2)], &["a", "b", "c"], 8, 7);
        let r = q_equivalent_on(&p, &p, &i, &dbs, "q", &EnumBudget::default()).unwrap();
        assert!(r.equivalent);
        assert_eq!(r.databases_checked, 8);
    }

    #[test]
    fn different_programs_are_distinguished() {
        let i = Arc::new(Interner::new());
        let p1 = parse_program("q(X) :- e(X, Y).", &i).unwrap();
        let p2 = parse_program("q(X) :- e(Y, X).", &i).unwrap();
        let dbs = random_databases(&i, &[("e", 2)], &["a", "b"], 16, 3);
        let r = q_equivalent_on(&p1, &p2, &i, &dbs, "q", &EnumBudget::default()).unwrap();
        assert!(!r.equivalent);
        assert!(r.counterexample.is_some());
    }

    #[test]
    fn paper_example7_forall_but_not_exists() {
        // P: q1 :- x(c). q2 :- x(a). x(Y) :- p(Y). p(b) :- y(X). p(c) :- y(X).
        // P2 replaces p(Y) with p[](Y, 0). The paper: P and P2 are NOT
        // q1-equivalent (P2's q1 may be FALSE on nonempty y), but they ARE
        // q2-equivalent (both always FALSE).
        let i = Arc::new(Interner::new());
        let p = parse_program(
            "q1 :- x(c).
             q2 :- x(a).
             x(Y) :- p(Y).
             p(b) :- y(X).
             p(c) :- y(X).",
            &i,
        )
        .unwrap();
        let p2 = parse_program(
            "q1 :- x(c).
             q2 :- x(a).
             x(Y) :- p[](Y, 0).
             p(b) :- y(X).
             p(c) :- y(X).",
            &i,
        )
        .unwrap();
        let dbs = random_databases(&i, &[("y", 1)], &["d1", "d2"], 12, 11);
        let budget = EnumBudget::default();
        let r1 = q_equivalent_on(&p, &p2, &i, &dbs, "q1", &budget).unwrap();
        assert!(
            !r1.equivalent,
            "the argument is NOT ∃-existential w.r.t. q1"
        );
        let r2 = q_equivalent_on(&p, &p2, &i, &dbs, "q2", &budget).unwrap();
        assert!(r2.equivalent, "the argument IS ∃-existential w.r.t. q2");
    }

    #[test]
    fn paper_example7_forall_side() {
        // P1 applies Definition 1's transformation: p(Y) in clause [3] is
        // replaced by p'(Y'), with the new clause p'(Y') :- p(Y). Under the
        // paper's domain-closure axiom the unbound Y' ranges over the whole
        // domain, which we encode with an explicit dom predicate:
        //   p'(Yp) :- dom(Yp), p(Y).
        // Paper: P is q1-equivalent to P1 (the argument IS ∀-existential
        // w.r.t. q1), but NOT q2-equivalent (q2 under P1 returns TRUE on
        // nonempty inputs).
        let i = Arc::new(Interner::new());
        let p = parse_program(
            "q1 :- x(c).
             q2 :- x(a).
             x(Y) :- p(Y).
             p(b) :- y(X).
             p(c) :- y(X).",
            &i,
        )
        .unwrap();
        let p1 = parse_program(
            "q1 :- x(c).
             q2 :- x(a).
             x(Y) :- pprime(Y).
             pprime(Yp) :- dom(Yp), p(Y).
             p(b) :- y(X).
             p(c) :- y(X).",
            &i,
        )
        .unwrap();
        let mut dbs = random_databases(&i, &[("y", 1)], &["d1", "d2"], 12, 5);
        for db in &mut dbs {
            for d in ["a", "b", "c", "d1", "d2"] {
                db.insert_syms("dom", &[d]).unwrap();
            }
        }
        let budget = EnumBudget::default();
        let r1 = q_equivalent_on(&p, &p1, &i, &dbs, "q1", &budget).unwrap();
        assert!(r1.equivalent, "the argument IS ∀-existential w.r.t. q1");
        let r2 = q_equivalent_on(&p, &p1, &i, &dbs, "q2", &budget).unwrap();
        assert!(
            !r2.equivalent,
            "the argument is NOT ∀-existential w.r.t. q2"
        );
    }

    #[test]
    fn certified_programs_compare_without_enumeration() {
        // Full-grouping ID-literals with constant tids: both programs are
        // certified deterministic, so the check runs on single canonical
        // evaluations. The verdicts must still be right in both directions.
        let i = Arc::new(Interner::new());
        let p1 = parse_program("q(D) :- e[1](D, 0).", &i).unwrap();
        let p2 = parse_program("q(D) :- e[1](D, T), T = 0.", &i).unwrap();
        let p3 = parse_program("q(D) :- e[1](D, 1).", &i).unwrap();
        let dbs = random_databases(&i, &[("e", 1)], &["a", "b", "c"], 8, 21);
        let budget = EnumBudget::default();
        let r = q_equivalent_on(&p1, &p2, &i, &dbs, "q", &budget).unwrap();
        assert!(r.equivalent, "tid constant vs tid builtin");
        // Full grouping means every group is a singleton, so tid 1 never
        // exists and p3 is empty everywhere — distinguishable.
        let r = q_equivalent_on(&p1, &p3, &i, &dbs, "q", &budget).unwrap();
        assert!(!r.equivalent, "tid 0 vs unreachable tid 1");
    }

    #[test]
    fn diverging_candidate_is_skipped_without_probing() {
        // A growth witness on either side means no probe can return a
        // verdict — the check reports the would-be limit trip immediately
        // instead of burning 10k rounds.
        let i = Arc::new(Interner::new());
        let p1 = parse_program("q(X) :- e(X, Y).", &i).unwrap();
        let p2 =
            parse_program("q(M) :- e(X, Y), q(N), plus(N, 1, M). q(0) :- e(X, Y).", &i).unwrap();
        let dbs = random_databases(&i, &[("e", 2)], &["a", "b"], 4, 9);
        let err = q_equivalent_on(&p1, &p2, &i, &dbs, "q", &EnumBudget::default()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::LimitExceeded {
                limit: LimitKind::Rounds
            }
        ));
    }

    #[test]
    fn certified_bounded_programs_probe_without_blunt_ceilings() {
        // Both sides certify bounded: the probes run under the certified
        // round bound only.
        let i = Arc::new(Interner::new());
        let p1 = parse_program("q(X) :- e(X, Y).", &i).unwrap();
        let p2 = parse_program("q(X) :- e(X, Y), e(X, Z).", &i).unwrap();
        for p in [&p1, &p2] {
            let v = ValidatedProgram::new(p.clone(), Arc::clone(&i)).unwrap();
            assert!(v.termination().bounded());
        }
        let dbs = random_databases(&i, &[("e", 2)], &["a", "b", "c"], 8, 13);
        let r = q_equivalent_on(&p1, &p2, &i, &dbs, "q", &EnumBudget::default()).unwrap();
        assert!(r.equivalent, "projections of the same join key agree");
    }

    #[test]
    fn cartesian_sizes() {
        assert_eq!(cartesian(&["a", "b"], 2).len(), 4);
        assert_eq!(cartesian(&["a", "b", "c"], 1).len(), 3);
        assert_eq!(cartesian(&["a"], 0), vec![Vec::<&str>::new()]);
    }
}
