//! The certified-equivalence harness of the magic-sets rewrite.
//!
//! The analysis and rewrite live in [`idlog_core::relevance`], and the
//! `Query` API caches them per query ([`idlog_core::Query::magic_plan`]),
//! mirroring the taint and termination certs. This module's tests validate
//! the rewrite against the untransformed program on randomized databases,
//! across thread counts and storage backends.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use idlog_core::{CoreError, EnumBudget, EvalStats, Interner, Query, Strategy};
    use idlog_storage::{BackendKind, Database, Relation};
    use idlog_suite::gen::{self, Fragment, Ids, Program};

    use crate::equivalence::{q_equivalent_on, random_databases};

    /// Point queries over recursive layers, with negation and builtins.
    const POINT: Fragment = Fragment {
        ids: Ids::Off,
        point_query: true,
        growth: false,
    };

    const ANCESTOR: &str = "
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
        query(Y) :- ancestor(ann, Y).
    ";

    #[test]
    fn rewrite_is_q_equivalent_on_random_databases() {
        let i = Arc::new(Interner::new());
        let q = Query::parse_with_interner(ANCESTOR, "query", Arc::clone(&i)).unwrap();
        let p = q.program().ast();
        let magic = q.magic_plan().expect("certified").ast();
        let mut dbs = random_databases(&i, &[("parent", 2)], &["x", "y", "z"], 12, 17);
        for db in &mut dbs {
            db.insert_syms("parent", &["ann", "x"]).unwrap();
        }
        let r = q_equivalent_on(p, magic, &i, &dbs, "query", &EnumBudget::default()).unwrap();
        assert!(r.equivalent, "counterexample at {:?}", r.counterexample);
        assert_eq!(r.databases_checked, 12);
    }

    #[test]
    fn refusal_carries_the_witness_walk() {
        let q = Query::parse(
            "picked(X, Y) :- pref[2](X, Y, 0).
             q(Y) :- picked(a, Y).",
            "q",
        )
        .unwrap();
        assert!(q.magic_plan().is_none());
        let refusal = q.relevance().refusal().expect("refused");
        assert!(!refusal.walk.is_empty());
        assert!(refusal.render(q.interner()).contains("choice site"));
    }

    /// Direct and magic evaluation must produce byte-identical answers and
    /// identical stats at 1/2/8 threads on both backends.
    fn magic_agrees(db: &Database, q: &Query) -> Result<(), TestCaseError> {
        let mut stats_seen: Option<(EvalStats, EvalStats)> = None;
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            for threads in [1usize, 2, 8] {
                let session = || q.session(db).backend(backend).threads(threads);
                let direct = session().run().map_err(gen::fail)?;
                let magic = (session().strategy(Strategy::Magic).run()).map_err(gen::fail)?;
                let rows = |r: &Relation| r.sorted_canonical(q.interner());
                prop_assert_eq!(
                    rows(&direct.relation),
                    rows(&magic.relation),
                    "answers diverge"
                );
                // Stats are part of the determinism contract: identical
                // across thread counts and backends, pruned ≥ 0 by type.
                match &stats_seen {
                    None => stats_seen = Some((direct.stats, magic.stats)),
                    Some((d, m)) => {
                        prop_assert_eq!(*d, direct.stats, "direct stats drift");
                        prop_assert_eq!(*m, magic.stats, "magic stats drift");
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn ancestor_point_query_agrees_across_threads_and_backends() {
        let q = Query::parse(ANCESTOR, "query").unwrap();
        let mut db = q.new_database();
        for (x, y) in [
            ("ann", "bob"),
            ("bob", "cal"),
            ("cal", "dee"),
            ("eve", "fay"),
            ("fay", "gus"),
        ] {
            db.insert_syms("parent", &[x, y]).unwrap();
        }
        magic_agrees(&db, &q).unwrap();
        let magic = q.session(&db).strategy(Strategy::Magic).run().unwrap();
        let direct = q.session(&db).run().unwrap();
        // Profit, on every backend and thread count since the stats agree
        // across them: fewer insertions, fewer probes, pruned EDB tuples.
        assert!(magic.stats.inserted < direct.stats.inserted);
        assert!(magic.stats.probes < direct.stats.probes);
        assert!(magic.stats.tuples_pruned > 0);
    }

    fn point_query(p: &Program) -> Result<(Query, Database), CoreError> {
        let q = Query::parse(&p.to_string(), "q")?;
        let mut db = q.new_database();
        idlog_core::load_facts(&p.facts(), &mut db)?;
        Ok((q, db))
    }

    #[test]
    fn random_programs_magic_equals_direct_everywhere() {
        gen::check("magic", 12, POINT, point_query, |_, (q, db)| {
            prop_assert!(q.magic_certified(), "generated programs are choice-free");
            magic_agrees(&db, &q)
        });
    }

    #[test]
    fn random_refusals_always_carry_witnesses() {
        // Inject a choice site into otherwise-random programs: every
        // refusal must carry a non-empty walk ending at the site.
        let with_choice_site =
            |p: &Program| Query::parse(&format!("{p}q(Y) :- q(Y), e0[2](A, B, 0).\n"), "q");
        gen::check("refusals", 12, POINT, with_choice_site, |_, q| {
            let refusal = q.relevance().refusal();
            prop_assert!(
                refusal.is_some_and(|r| !r.walk.is_empty()),
                "refusal without walk"
            );
            Ok(())
        });
    }

    #[test]
    fn rewritten_program_revalidates() {
        let q = Query::parse(ANCESTOR, "query").unwrap();
        let magic = q.magic_plan().expect("the rewrite revalidates");
        let query = q.interner().get("query").unwrap();
        assert!(magic.idb().contains(&query));
    }
}
