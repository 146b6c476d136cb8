//! Soundness harness for the determinism fast path.
//!
//! Draws valid programs from `idlog_suite::gen` whose ID-literals are all
//! *choice-free occurrences*, so the taint analysis must certify every
//! query over them. For a certified query the engine answers `all_answers`
//! with one canonical evaluation instead of enumerating ID-functions; this
//! harness checks the certification claim behind that shortcut:
//!
//! 1. the full enumeration (fast path disabled) finds exactly one answer;
//! 2. the fast path reproduces it byte-identically at every thread count;
//! 3. every seeded-oracle evaluation lands on that same answer.

use proptest::prelude::*;

use idlog_core::{AnswerSet, CoreError, EnumBudget, EvalOptions, Query, SeededOracle};
use idlog_storage::Database;
use idlog_suite::gen::{self, Fragment, Ids, Program};

fn build(p: &Program) -> Result<(Query, Database), CoreError> {
    let query = Query::parse(&p.to_string(), p.output())?;
    let mut db = query.new_database();
    idlog_core::load_facts(&p.facts(), &mut db)?;
    Ok((query, db))
}

#[test]
fn certified_fast_path_matches_full_enumeration() {
    let fragment = Fragment {
        ids: Ids::ChoiceFree,
        point_query: false,
        growth: false,
    };
    gen::check("fast path", 96, fragment, build, |p, (query, db)| {
        prop_assert!(query.certified_deterministic(), "choice-free must certify");

        let budget = EnumBudget {
            max_models: 50_000,
            max_answers: 50_000,
        };
        let slow = query
            .session(&db)
            .options(EvalOptions::serial().budget(budget).det_fastpath(false))
            .all_answers()
            .map_err(gen::fail)?;
        prop_assume!(slow.complete()); // skip the rare factorial blowups
        prop_assert_eq!(slow.len(), 1, "a certified query has one answer");

        for threads in [1usize, 2, 8] {
            let fast = query
                .session(&db)
                .options(EvalOptions::new().threads(threads).budget(budget))
                .all_answers()
                .map_err(gen::fail)?;
            prop_assert_eq!(fast.models_explored(), 1, "fast path must not enumerate");
            prop_assert!(fast.complete());
            let strings = |a: &AnswerSet| a.to_sorted_strings(query.interner());
            prop_assert_eq!(
                strings(&fast),
                strings(&slow),
                "diverged at {threads} threads"
            );
        }

        // Every seeded oracle must land on the certified answer.
        let result = query
            .session(&db)
            .options(EvalOptions::new())
            .run_with(&mut SeededOracle::new(p.seed))
            .map_err(gen::fail)?;
        let tuples: Vec<_> = result.relation.iter().cloned().collect();
        prop_assert!(
            slow.contains_answer(&tuples),
            "seeded answer differs from the certified one"
        );
        Ok(())
    });
}
