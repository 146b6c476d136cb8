//! Hand-written engine ≡ reference cases: a recursive closure, arithmetic,
//! and an ID-literal under every one of its ID-functions, each evaluated by
//! the engine and by the reference interpreter (`idlog_suite::reference`)
//! and compared relation for relation.

use std::sync::Arc;

use idlog_core::{
    evaluate_governed, CanonicalOracle, EvalOptions, ExplicitOracle, Interner, TidOracle,
    ValidatedProgram,
};
use idlog_storage::Database;
use idlog_suite::reference::{self, Perms, Relations};

/// Evaluate `src` over `facts` with the engine under `oracle` and with the
/// reference under `perms`, and return both models.
fn both(
    src: &str,
    facts: &str,
    oracle: &mut dyn TidOracle,
    perms: &Perms,
) -> (Relations, Relations) {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
    let mut db = Database::with_interner(Arc::clone(&interner));
    idlog_core::load_facts(facts, &mut db).unwrap();
    let out = evaluate_governed(&program, &db, oracle, &EvalOptions::default(), None).unwrap();
    let model = reference::perfect_model(src, &reference::facts(facts).unwrap(), perms).unwrap();
    let engine = reference::view(&model, &interner, |name| {
        out.relation(name).map(|r| r.iter())
    });
    (engine, model)
}

#[test]
fn three_cycle_closure_equals_the_reference() {
    let (engine, model) = both(
        "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        "e(a, b). e(b, c). e(c, a).",
        &mut CanonicalOracle,
        &Perms::new(),
    );
    assert_eq!(model["tc"].len(), 9, "every pair on the cycle");
    assert_eq!(engine, model);
}

#[test]
fn bounded_counting_equals_the_reference() {
    let (engine, model) = both(
        "upto(0). upto(M) :- upto(N), succ(N, M), M <= 5.",
        "",
        &mut CanonicalOracle,
        &Perms::new(),
    );
    assert_eq!(model["upto"].len(), 6, "0 through 5");
    assert_eq!(engine, model);
}

/// Three departments of two employees each: `emp[2]` has 2 × 2 × 2 = 8
/// ID-functions, and each one, given to both sides as the same explicit
/// permutations, picks a different employee per department.
#[test]
fn id_literals_equal_the_reference_under_every_id_function() {
    let src = "pick(N, D) :- emp[2](N, D, 0).
               rest(N) :- emp(N, D), not pick(N, D).";
    let facts = "emp(a, x). emp(b, x). emp(c, y). emp(d, y). emp(e, z). emp(f, z).";
    let mut picks = std::collections::BTreeSet::new();
    for choice in 0..8u32 {
        let perms: Vec<Vec<i64>> = (0..3)
            .map(|g| {
                if choice >> g & 1 == 0 {
                    vec![0, 1]
                } else {
                    vec![1, 0]
                }
            })
            .collect();
        let mut oracle = ExplicitOracle::new();
        oracle.set("emp", vec![1], perms.clone());
        let explicit = Perms::from([(("emp".to_string(), vec![1]), perms)]);
        let (engine, model) = both(src, facts, &mut oracle, &explicit);
        assert_eq!(engine, model, "ID-function {choice}");
        assert_eq!(model["pick"].len(), 3, "one employee per department");
        assert_eq!(model["rest"].len(), 3, "and the other three");
        picks.insert(model["pick"].clone());
    }
    assert_eq!(picks.len(), 8, "every ID-function picks differently");
}
