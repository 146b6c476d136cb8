//! Optimizer integration: the rewrites preserve queries on randomized
//! databases (Theorem 4 empirically) and actually reduce the work counters
//! the paper's §4 claims they reduce.

use std::sync::Arc;

use idlog_core::{EnumBudget, EvalStats, Interner, Query, ValidatedProgram};
use idlog_optimizer::{
    analyze, push_projections, q_equivalent_on, random_databases, to_id_program,
};
use idlog_parser::Program;
use idlog_storage::Database;

/// Check original ≡ ∀-rewrite ≡ ID-rewrite on random databases.
fn check_rewrites(src: &str, output: &str, schema: &[(&str, usize)], seed: u64) {
    let interner = Arc::new(Interner::new());
    let original = idlog_core::parse_program(src, &interner).unwrap();
    let out = interner.intern(output);
    let projected = push_projections(&original, out);
    let id_program = to_id_program(&original, out);

    let dbs = random_databases(&interner, schema, &["a", "b", "c"], 8, seed);
    let budget = EnumBudget::default();
    let r1 = q_equivalent_on(&original, &projected, &interner, &dbs, output, &budget).unwrap();
    assert!(r1.equivalent, "∀-rewrite changed {output} in:\n{src}");
    let r2 = q_equivalent_on(&original, &id_program, &interner, &dbs, output, &budget).unwrap();
    assert!(r2.equivalent, "ID-rewrite changed {output} in:\n{src}");
}

#[test]
fn rewrites_preserve_query_on_program_family() {
    check_rewrites("q(X) :- e(X, Y).", "q", &[("e", 2)], 1);
    check_rewrites(
        "q(X) :- a(X, Y).
         a(X, Y) :- p(X, Z), a(Z, Y).
         a(X, Y) :- p(X, Y).",
        "q",
        &[("p", 2)],
        2,
    );
    check_rewrites(
        "p(X) :- q(X, Z), z(Z, Y), y(W).",
        "p",
        &[("q", 2), ("z", 2), ("y", 1)],
        3,
    );
    check_rewrites(
        "q(X) :- mid(X, Y).
         mid(X, Y) :- low(X, Y).
         low(X, Y) :- base(X, Y).",
        "q",
        &[("base", 2)],
        4,
    );
    check_rewrites(
        "out(X) :- left(X, Y), right(X, Z).",
        "out",
        &[("left", 2), ("right", 2)],
        5,
    );
    check_rewrites(
        "q(X) :- e(X, Y), not bad(X).",
        "q",
        &[("e", 2), ("bad", 1)],
        6,
    );
}

fn stats_on(program: &Program, interner: &Arc<Interner>, db: &Database, output: &str) -> EvalStats {
    let validated = ValidatedProgram::new(program.clone(), Arc::clone(interner)).unwrap();
    let q = Query::new(validated, output).unwrap();
    q.session(db).run().unwrap().stats
}

/// §4's whole point: the ID-rewrite reduces intermediate redundant tuples.
/// On a dense z/y workload the original materializes |q|·|z-matches| pairs;
/// the rewrite touches one tuple per group.
#[test]
fn id_rewrite_reduces_derivations() {
    let interner = Arc::new(Interner::new());
    let original = idlog_core::parse_program("p(X) :- q(X, Z), z(Z, Y), y(W).", &interner).unwrap();
    let out = interner.intern("p");
    let id_program = to_id_program(&original, out);

    let mut db = Database::with_interner(Arc::clone(&interner));
    let (keys, fanout, witnesses) = (10, 20, 30);
    for k in 0..keys {
        db.insert_syms("q", &[&format!("x{k}"), &format!("z{k}")])
            .unwrap();
        for f in 0..fanout {
            db.insert_syms("z", &[&format!("z{k}"), &format!("y{f}")])
                .unwrap();
        }
    }
    for w in 0..witnesses {
        db.insert_syms("y", &[&format!("w{w}")]).unwrap();
    }

    let profiled = |program: &Program| {
        let validated = ValidatedProgram::new(program.clone(), Arc::clone(&interner)).unwrap();
        let q = Query::new(validated, "p").unwrap();
        let result = q.session(&db).profile(true).run().unwrap();
        let worst_rule = result
            .profile
            .unwrap()
            .per_rule_totals()
            .iter()
            .map(|t| t.stats.instantiations)
            .max()
            .unwrap();
        (result.stats, worst_rule)
    };
    let (before, worst_before) = profiled(&original);
    let (after, worst_after) = profiled(&id_program);
    // Same answer...
    assert_eq!(before.inserted, after.inserted);
    // ...with a fanout×witnesses reduction in rule firings.
    assert_eq!(before.instantiations, (keys * fanout * witnesses) as u64);
    assert_eq!(after.instantiations, keys as u64);
    assert!(after.probes < before.probes);
    // The per-rule profile localizes the saving: the original's worst rule
    // less the rewritten program's worst rule is the whole drop.
    assert_eq!(worst_before, before.instantiations);
    assert_eq!(
        worst_before - worst_after,
        before.instantiations - after.instantiations
    );
}

/// The ∀-rewrite on Example 6 shrinks the materialized `a` relation from
/// O(nodes²) pairs to O(nodes).
#[test]
fn projection_pushing_shrinks_relations() {
    let interner = Arc::new(Interner::new());
    let src = "q(X) :- a(X, Y).
               a(X, Y) :- p(X, Z), a(Z, Y).
               a(X, Y) :- p(X, Y).";
    let original = idlog_core::parse_program(src, &interner).unwrap();
    let out = interner.intern("q");
    let projected = push_projections(&original, out);

    // A chain x0 → x1 → … → x20.
    let mut db = Database::with_interner(Arc::clone(&interner));
    for k in 0..20 {
        db.insert_syms("p", &[&format!("x{k}"), &format!("x{}", k + 1)])
            .unwrap();
    }
    let before = stats_on(&original, &interner, &db, "q");
    let after = stats_on(&projected, &interner, &db, "q");
    assert!(
        before.inserted > after.inserted,
        "fewer materialized tuples"
    );
    assert!(after.instantiations < before.instantiations);
}

/// The analysis is stable under clause reordering (it quantifies over all
/// occurrences, not the first).
#[test]
fn analysis_is_order_insensitive() {
    let interner = Arc::new(Interner::new());
    let p1 = idlog_core::parse_program(
        "a(X, Y) :- p(X, Y). a(X, Y) :- p(X, Z), a(Z, Y). q(X) :- a(X, Y).",
        &interner,
    )
    .unwrap();
    let p2 = idlog_core::parse_program(
        "q(X) :- a(X, Y). a(X, Y) :- p(X, Z), a(Z, Y). a(X, Y) :- p(X, Y).",
        &interner,
    )
    .unwrap();
    let out = interner.intern("q");
    let a = interner.intern("a");
    let an1 = analyze(&p1, out);
    let an2 = analyze(&p2, out);
    assert_eq!(an1.pred_positions(a), an2.pred_positions(a));
}

/// Idempotence: rewriting an already-rewritten program changes nothing.
#[test]
fn rewrites_are_idempotent() {
    let interner = Arc::new(Interner::new());
    let original = idlog_core::parse_program("p(X) :- q(X, Z), z(Z, Y), y(W).", &interner).unwrap();
    let out = interner.intern("p");
    let once = to_id_program(&original, out);
    let twice = to_id_program(&once, out);
    assert_eq!(
        once.display(&interner).to_string(),
        twice.display(&interner).to_string()
    );
}
