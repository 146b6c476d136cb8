//! Allocation budget of the join kernel and the tuple store.
//!
//! A counting global allocator (per-thread counters, so libtest's other
//! threads do not leak in) measures what a semi-naive fixpoint and a
//! relation clone ask the allocator for. Tuples of up to three columns live
//! inline, probes and inserts allocate nothing per tuple and round buffers
//! are reused, so a fixpoint's allocations grow with its *rounds* (plus the
//! logarithmic growth of the stores), not with the tuples it touches. And
//! inputs are read by reference, with the indexes and groupings built on
//! them kept, so a repeated query allocates nothing per stored row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use idlog_core::{
    evaluate_with_options, CanonicalOracle, EvalOptions, Interner, Query, RelType, Relation,
    SeededOracle, Strategy, Tuple, ValidatedProgram, Value,
};
use idlog_storage::Database;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_fixpoint_allocates_per_round_not_per_tuple() {
    const EDGES: u64 = 300;
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(
        "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).",
        Arc::clone(&interner),
    )
    .unwrap();
    let mut db = Database::with_interner(interner);
    for n in 0..EDGES {
        db.insert_syms("e", &[&format!("n{n}"), &format!("n{}", n + 1)])
            .unwrap();
    }
    let options = EvalOptions::serial();
    let (out, allocations) = allocations_during(|| {
        evaluate_with_options(&program, &db, &mut CanonicalOracle, &options).unwrap()
    });
    let stats = out.stats();
    // A chain's closure: one round per path length, plus the empty last one.
    assert_eq!(stats.iterations, EDGES + 1);
    assert_eq!(stats.inserted, EDGES * (EDGES + 1) / 2);
    assert_eq!(out.relation("t").unwrap().len() as u64, stats.inserted);
    // O(rounds): a work list, a batch and its flags per round, and the
    // doubling growth of the store, its membership table and the buffers.
    assert!(
        allocations <= 12 * stats.iterations,
        "{allocations} allocations in {} rounds",
        stats.iterations
    );
    assert!(
        (allocations as f64) < 0.1 * stats.inserted as f64,
        "{allocations} allocations for {} inserted tuples",
        stats.inserted
    );
}

#[test]
fn cloning_a_relation_of_small_tuples_is_a_handful_of_copies() {
    let mut rel = Relation::new(RelType::new(vec![idlog_core::Sort::I; 2]));
    for n in 0..10_000i64 {
        let t: Tuple = [Value::Int(n), Value::Int(n / 7)].into_iter().collect();
        rel.insert(t).unwrap();
    }
    let (copy, allocations) = allocations_during(|| rel.clone());
    assert_eq!(copy.len(), 10_000);
    // The store, the membership table's two arrays and the relation type:
    // nothing per row.
    assert!(allocations <= 8, "{allocations} allocations");
}

/// The ancestor point query the served workload asks, goal-directed.
const ANCESTOR: &str = "anc(X, Y) :- parent(X, Y).
                        anc(X, Z) :- anc(X, Y), parent(Y, Z).
                        q(Y) :- anc(c0n0, Y).";

/// `parent` as chains of 100 nodes, `c{k}n0` → … → `c{k}n99`.
fn chains(query: &Query, rows: usize) -> Database {
    let mut db = query.new_database();
    for k in 0..rows / 100 {
        for n in 0..100 {
            let (from, to) = (format!("c{k}n{n}"), format!("c{k}n{}", n + 1));
            db.insert_syms("parent", &[&from, &to]).unwrap();
        }
    }
    db
}

/// Inputs are read by reference and the index a query readies on one stays
/// with the stored relation: after a first magic point query, the next one
/// copies and indexes nothing, so what it allocates does not depend on how
/// large `parent` is — only on its answer. A write after that is seen by
/// the next answer through the maintained index.
#[test]
fn a_repeated_point_query_allocates_nothing_per_stored_row() {
    let query = Query::parse(ANCESTOR, "q").unwrap();
    let ask = |db: &Database| {
        query
            .session(db)
            .threads(1)
            .strategy(Strategy::Magic)
            .run()
            .unwrap()
            .relation
    };
    let second_query = |rows: usize| {
        let db = chains(&query, rows);
        assert_eq!(ask(&db).len(), 100, "warm-up");
        let (answer, allocations) = allocations_during(|| ask(&db));
        assert_eq!(answer.len(), 100);
        allocations
    };
    let small = second_query(2_000);
    let large = second_query(20_000);
    assert_eq!(small, large, "allocations grew with the stored rows");

    let mut db = chains(&query, 20_000);
    ask(&db);
    db.insert_syms("parent", &["c0n100", "late"]).unwrap();
    let late: Tuple = [Value::Sym(query.interner().intern("late"))]
        .into_iter()
        .collect();
    assert!(ask(&db).contains(&late), "the index missed a later write");
}

/// A seeded sample reads the group index of `emp` that the first sample
/// left with the stored relation: the next one neither regroups nor
/// re-ranks, so what it allocates does not depend on how many rows `emp`
/// holds — only on its 200 groups and the 400 rows it keeps.
#[test]
fn a_repeated_seeded_sample_allocates_nothing_per_stored_row() {
    let query = Query::parse("pick(N) :- emp[2](N, D, T), T < 2.", "pick").unwrap();
    let second_sample = |rows: usize| {
        let mut db = query.new_database();
        for n in 0..rows {
            db.insert_syms("emp", &[&format!("e{n}"), &format!("d{}", n % 200)])
                .unwrap();
        }
        let ask = |seed: u64| {
            let session = query.session(&db).threads(1);
            session
                .run_with(&mut SeededOracle::new(seed))
                .unwrap()
                .relation
        };
        assert_eq!(ask(1).len(), 400, "warm-up");
        let (answer, allocations) = allocations_during(|| ask(2));
        assert_eq!(answer.len(), 400);
        allocations
    };
    let small = second_sample(2_000);
    let large = second_sample(20_000);
    assert_eq!(small, large, "allocations grew with the stored rows");
}

/// The database pass behind every termination round bound is made once per
/// database version: asked again, it allocates nothing.
#[test]
fn the_value_summary_is_computed_once_per_database_version() {
    let query = Query::parse(ANCESTOR, "q").unwrap();
    let mut db = chains(&query, 2_000);
    let (first, _) = allocations_during(|| db.value_summary());
    let (again, allocations) = allocations_during(|| db.value_summary());
    assert_eq!((first, allocations), (again, 0));
    let snapshot = db.clone();
    assert_eq!(allocations_during(|| snapshot.value_summary()).1, 0);
    db.insert_syms("parent", &["x", "y"]).unwrap();
    assert_eq!(db.value_summary().distinct, first.distinct + 2);
}
