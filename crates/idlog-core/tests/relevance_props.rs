//! Goal-directed evaluation adorns along the planner's safe order.
//!
//! Draws point queries from `idlog_suite::gen`: a root `q` reads a derived
//! predicate with a constant argument, over recursive layers, and a bound
//! `s` negates recursive ones. Bodies are shuffled, so a negation or a
//! builtin often stands textually before the literal that binds it — a
//! shape a textual left-to-right walk finds unbound. Checks that every one
//! is certified, that its magic-sets rewrite revalidates, and that magic
//! and direct evaluation both equal the reference interpreter's perfect
//! model (`idlog_suite::reference`) at 1, 2 and 8 threads.

use proptest::prelude::*;

use idlog_core::{Query, Strategy as EvalStrategy};
use idlog_storage::Database;
use idlog_suite::gen::{self, Fragment, Ids, Program};
use idlog_suite::reference::{self, Perms};

/// The query and its database; a program whose root reaches no predicate
/// with a bound position is not a point query, and does not build.
fn build(p: &Program) -> Result<(Query, Database), String> {
    let q = Query::parse(&p.to_string(), "q").map_err(|e| e.to_string())?;
    if q.relevance().adorned().is_empty() {
        return Err("not a point query".into());
    }
    let mut db = q.new_database();
    idlog_core::load_facts(&p.facts(), &mut db).map_err(|e| e.to_string())?;
    Ok((q, db))
}

#[test]
fn binders_after_their_use_are_certified_and_magic_equals_the_reference() {
    let fragment = Fragment {
        ids: Ids::Off,
        point_query: true,
        growth: false,
    };
    gen::check("binders", 256, fragment, build, |p, (q, db)| {
        // Certified exactly when `--strategy magic` has a rewrite to run.
        prop_assert_eq!(
            q.relevance().certified(),
            q.magic_plan().is_some(),
            "certificate and rewrite disagree"
        );
        prop_assert!(q.relevance().is_point_query(), "not certified");

        let edb = reference::facts(&p.facts()).map_err(gen::fail)?;
        let model =
            reference::perfect_model(&p.to_string(), &edb, &Perms::new()).map_err(gen::fail)?;
        let want = model.get("q").cloned().unwrap_or_default();
        for threads in [1usize, 2, 8] {
            for strategy in [EvalStrategy::SemiNaive, EvalStrategy::Magic] {
                let out = (q.session(&db).threads(threads).strategy(strategy).run())
                    .map_err(gen::fail)?;
                let got = reference::rows(out.relation.iter(), q.interner());
                prop_assert_eq!(&got, &want, "{strategy:?} at {threads} thread(s)");
            }
        }
        Ok(())
    });
}
