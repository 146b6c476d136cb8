//! Randomized whole-engine soundness harness.
//!
//! On valid programs from `idlog_suite::gen` with recursion, negation,
//! arithmetic and grouped ID-literals whose tids are constants or bounded
//! by `T < k` (so the engine builds only a prefix of those ID-relations):
//!
//! 1. evaluation terminates with the perfect model that the reference
//!    interpreter of the paper's §2 (`idlog_suite::reference`) computes
//!    under the same canonical ID-functions;
//! 2. serial and parallel evaluation agree, statistics and profiles too;
//! 3. every seeded-oracle answer is contained in the enumerated answer set;
//! 4. enumeration is deterministic (two walks agree).

use std::sync::Arc;

use proptest::prelude::*;

use idlog_core::tid::TidOracle;
use idlog_core::{
    evaluate_governed, CanonicalOracle, CoreError, EnumBudget, EvalOptions, EvalOutput, Interner,
    Query, SeededOracle, ValidatedProgram,
};
use idlog_storage::Database;
use idlog_suite::gen::{self, Fragment, Ids, Program};
use idlog_suite::reference::{self, Perms};

const FRAGMENT: Fragment = Fragment {
    ids: Ids::Bounded,
    point_query: false,
};

fn build(p: &Program) -> Result<(ValidatedProgram, Database), CoreError> {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(&p.to_string(), Arc::clone(&interner))?;
    let mut db = Database::with_interner(interner);
    idlog_core::load_facts(&p.facts(), &mut db)?;
    Ok((program, db))
}

/// The whole model under `oracle`.
fn eval(
    p: &ValidatedProgram,
    db: &Database,
    oracle: &mut dyn TidOracle,
    options: EvalOptions,
) -> Result<EvalOutput, TestCaseError> {
    evaluate_governed(p, db, oracle, &options, None).map_err(gen::fail)
}

/// Invariant 1: the engine's semi-naive fixpoint is the perfect model the
/// reference's naive rounds compute.
#[test]
fn fixpoints_are_models_and_strategies_agree() {
    gen::check("fixpoints", 160, FRAGMENT, build, |p, (program, db)| {
        let out = eval(&program, &db, &mut CanonicalOracle, EvalOptions::new())?;
        let edb = reference::facts(&p.facts()).map_err(gen::fail)?;
        let model =
            reference::perfect_model(&p.to_string(), &edb, &Perms::new()).map_err(gen::fail)?;
        let engine = reference::view(&model, out.interner(), |name| {
            out.relation(name).map(|r| r.iter())
        });
        prop_assert!(engine == model, "engine {engine:?}\nreference {model:?}");
        Ok(())
    });
}

/// Invariant 2: parallel and serial evaluation agree — relations *and*
/// statistics.
#[test]
fn parallel_and_serial_evaluation_agree() {
    gen::check("parallel", 160, FRAGMENT, build, |p, (program, db)| {
        let oracle = || SeededOracle::new(p.seed);
        let options = |threads| EvalOptions::new().threads(threads).profile(true);
        let serial = eval(&program, &db, &mut oracle(), options(1))?;
        for threads in [2usize, 8] {
            let par = eval(&program, &db, &mut oracle(), options(threads))?;
            prop_assert_eq!(serial.stats(), par.stats(), "stats at {threads} threads");
            let json = |out: &EvalOutput| out.profile().unwrap().to_json(false);
            prop_assert_eq!(json(&serial), json(&par), "profile at {threads} threads");
            for name in p.derived() {
                match (serial.relation(name), par.relation(name)) {
                    (Some(a), Some(b)) => prop_assert!(a.set_eq(b), "{name} differs at {threads}"),
                    (None, None) => {}
                    _ => prop_assert!(false, "presence mismatch on {name}"),
                }
            }
        }
        Ok(())
    });
}

/// Invariants 3 and 4: oracle answers are enumerated; enumeration is
/// deterministic.
#[test]
fn oracle_answers_are_enumerated() {
    gen::check("oracle", 160, FRAGMENT, build, |p, (program, db)| {
        let output = p.output();
        let budget = EnumBudget {
            max_models: 50_000,
            max_answers: 50_000,
        };
        // The fast path off: a certified program walks its ID-functions too.
        let opts = EvalOptions::serial().budget(budget).det_fastpath(false);
        let query = Query::new(program.clone(), output).map_err(gen::fail)?;
        let walk = || {
            query
                .session(&db)
                .options(opts)
                .all_answers()
                .map_err(gen::fail)
        };
        let all = walk()?;
        prop_assume!(all.complete()); // skip the rare factorial blowups

        let again = walk()?;
        prop_assert!(all.same_answers(&again, program.interner()));

        let out = eval(
            &program,
            &db,
            &mut SeededOracle::new(p.seed),
            EvalOptions::new(),
        )?;
        let tuples: Vec<_> = out.relation(output).unwrap().iter().cloned().collect();
        prop_assert!(
            all.contains_answer(&tuples),
            "oracle answer not enumerated for {output}"
        );
        Ok(())
    });
}
