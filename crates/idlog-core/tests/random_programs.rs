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
//! 4. enumeration is deterministic (two walks agree);
//! 5. where the bases of the ID-literals are deterministic, enumeration
//!    finds exactly the answers of the reference under every choice of
//!    ID-functions, at 1 and at 4 threads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use idlog_core::tid::TidOracle;
use idlog_core::{
    evaluate_governed, CanonicalOracle, CoreError, EnumBudget, EvalOptions, EvalOutput, Interner,
    Query, SeededOracle, ValidatedProgram,
};
use idlog_storage::Database;
use idlog_suite::gen::{self, Fragment, Ids, Program};
use idlog_suite::reference::{self, Perms, Rows};

const FRAGMENT: Fragment = Fragment {
    ids: Ids::Bounded,
    point_query: false,
    growth: false,
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
        // A shrunk candidate may define no output: not a failure, so the
        // shrinker keeps the clauses that make the fault.
        let query = Query::new(program.clone(), output)
            .map_err(|e| TestCaseError::reject(e.to_string()))?;
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

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<i64>> {
    let mut all = vec![Vec::new()];
    for k in 0..n as i64 {
        let mut longer = Vec::new();
        for p in &all {
            for at in 0..=p.len() {
                let mut q: Vec<i64> = p.clone();
                q.insert(at, k);
                longer.push(q);
            }
        }
        all = longer;
    }
    all
}

/// Every way of picking one item from each list, in list order.
fn product<T: Clone>(lists: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut all = vec![Vec::new()];
    for list in lists {
        let mut longer = Vec::new();
        for prefix in &all {
            for x in list {
                let mut p: Vec<T> = prefix.clone();
                p.push(x.clone());
                longer.push(p);
            }
        }
        all = longer;
    }
    all
}

/// Invariant 5: when the bases of a query's ID-literals are certified
/// deterministic, their groups are the same in every model, so every
/// choice of ID-functions is one explicit tid map. The enumerated answers
/// — fast path off, at 1 and at 4 threads — are then exactly the
/// reference's answers under all those maps. Cases with no ID-literal, a
/// choice-dependent base or more than 720 tid maps are discarded. Both the
/// bounded fragment, whose walk visits k-prefix arrangements, and the full
/// one, whose walk visits every permutation, are checked.
#[test]
fn enumeration_is_the_reference_over_every_tid_map() {
    const MAX_MAPS: u128 = 720;
    const CASES: u32 = 40;
    for (seed, ids) in [("maps-bounded", Ids::Bounded), ("maps-any", Ids::Any)] {
        let fragment = Fragment {
            ids,
            point_query: false,
            growth: false,
        };
        let ran = AtomicUsize::new(0);
        gen::check(seed, CASES, fragment, build, |p, (program, db)| {
            let output = p.output();
            // A shrunk candidate may define no output: not a failure.
            let query = Query::new(program.clone(), output)
                .map_err(|e| TestCaseError::reject(e.to_string()))?;
            let related = query.related_program();
            let interner = program.interner();
            let mut uses: Vec<(String, Vec<usize>)> = Vec::new();
            for (base, grouping) in related.id_uses() {
                prop_assume!(program.taint().deterministic(*base));
                uses.push((interner.resolve(*base), grouping.clone()));
            }
            prop_assume!(!uses.is_empty());
            uses.sort();

            let src = p.to_string();
            let edb = reference::facts(&p.facts()).map_err(gen::fail)?;
            let canonical =
                reference::perfect_model(&src, &edb, &Perms::new()).map_err(gen::fail)?;
            // Each use's choices: a permutation per group, groups in key
            // order, as the reference numbers them.
            let mut maps: u128 = 1;
            let mut choices: Vec<Vec<Vec<Vec<i64>>>> = Vec::new();
            for (name, grouping) in &uses {
                let mut sizes: BTreeMap<Vec<_>, usize> = BTreeMap::new();
                for row in canonical.get(name).into_iter().flatten() {
                    let key: Vec<_> = grouping.iter().map(|&c| row[c].clone()).collect();
                    *sizes.entry(key).or_default() += 1;
                }
                for &n in sizes.values() {
                    maps = (1..=n as u128).fold(maps, |m, f| m.saturating_mul(f));
                }
                prop_assume!(maps <= MAX_MAPS);
                let per_group: Vec<_> = sizes.values().map(|&n| permutations(n)).collect();
                choices.push(product(&per_group));
            }
            let mut expected: BTreeSet<Rows> = BTreeSet::new();
            for choice in product(&choices) {
                let perms: Perms = uses.iter().cloned().zip(choice).collect();
                let model = reference::perfect_model(&src, &edb, &perms).map_err(gen::fail)?;
                expected.insert(model.get(output).cloned().unwrap_or_default());
            }

            for threads in [1usize, 4] {
                let options = EvalOptions::new()
                    .threads(threads)
                    .budget(EnumBudget {
                        max_models: 50_000,
                        max_answers: 50_000,
                    })
                    .det_fastpath(false);
                let all = query
                    .session(&db)
                    .options(options)
                    .all_answers()
                    .map_err(gen::fail)?;
                prop_assert!(
                    all.complete(),
                    "{} models at {threads} threads",
                    all.models_explored()
                );
                let got = reference::answer_set(all.iter().map(|r| r.iter()), interner);
                prop_assert!(
                    got == expected,
                    "at {threads} threads over {maps} tid map(s):\nengine {got:?}\nreference {expected:?}"
                );
            }
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(ran.load(Ordering::Relaxed), CASES as usize, "{seed}");
    }
}
