//! Allocation and memory budget of the join kernel and the tuple store.
//!
//! A counting global allocator (per-thread counters, so libtest's other
//! threads do not leak in) measures what a semi-naive fixpoint and a
//! relation clone ask the allocator for, and the live heap they hold at
//! their peak. A relation's rows sit back to back in one value buffer,
//! probes and inserts allocate nothing per row and round buffers are
//! reused, so a fixpoint's allocations grow with its *rounds* (plus the
//! logarithmic growth of the stores), not with the rows it touches. And
//! inputs are read by reference, with the indexes and groupings built on
//! them kept, so a repeated query allocates nothing per stored row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use idlog_core::{
    evaluate_governed, load_facts, CanonicalOracle, EnumBudget, EvalOptions, Interner, Nat, Query,
    RelType, Relation, SeededOracle, Strategy, Tuple, ValidatedProgram, Value,
};
use idlog_storage::Database;

fn int(n: i64) -> Value {
    Value::Int(Nat::new(n).expect("a natural"))
}

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed by this thread, and their maximum.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

fn live_grows(bytes: usize) {
    let live = LIVE.with(|n| {
        n.set(n.get() + bytes as u64);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// Saturating: a block another thread allocated may be freed here.
fn live_shrinks(bytes: usize) {
    LIVE.with(|n| n.set(n.get().saturating_sub(bytes as u64)));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s without a destructor, so touching
// them neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live_grows(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_shrinks(layout.size());
        System.dealloc(ptr, layout)
    }

    /// A reallocation counts as its net change in live bytes: a large
    /// block's pages move by `mremap`, never held twice.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        if new_size >= layout.size() {
            live_grows(new_size - layout.size());
        } else {
            live_shrinks(layout.size() - new_size);
        }
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

/// The most this thread's live heap grew above its level at the call while
/// `f` ran.
fn peak_growth_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let value = f();
    (value, PEAK.with(Cell::get) - before)
}

/// Bytes this thread asks the allocator for (a reallocation counts its new
/// size) while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let value = f();
    (value, BYTES.with(Cell::get) - before)
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
        evaluate_governed(&program, &db, &mut CanonicalOracle, &options, None).unwrap()
    });
    let stats = out.stats();
    // A chain's closure: one round per path length, plus the empty last one.
    assert_eq!(stats.iterations, EDGES + 1);
    assert_eq!(stats.inserted, EDGES * (EDGES + 1) / 2);
    assert_eq!(out.relation("t").unwrap().len() as u64, stats.inserted);
    // O(rounds): a work list, a segment list and its counts per round, and
    // the doubling growth of the store, its membership table and the
    // buffers.
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

/// The peak live heap of a serial binary fixpoint — the closure of a
/// 1000-edge chain, 500 500 stored rows — per stored row. Rows are 16 bytes
/// in a store whose capacity doubles, beside a membership table of 4-byte
/// slots at most half full: 2²⁰ eight-byte values and 2²⁰ four-byte slots,
/// 25.1 bytes a row, plus the small delta and round buffers. It measures
/// 25.5; the budget is that plus 10 %. With 8-byte slots it measured 33.9,
/// and before strided rows (32-byte tuples, and the old and new tables side
/// by side while the table doubled) 50.7.
#[test]
fn a_fixpoints_peak_heap_per_stored_row_stays_within_its_budget() {
    const EDGES: u64 = 1000;
    const BUDGET: f64 = 25.5 * 1.1;
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
    let (out, peak) = peak_growth_during(|| {
        evaluate_governed(&program, &db, &mut CanonicalOracle, &options, None).unwrap()
    });
    let rows = out.relation("t").unwrap().len() as u64;
    assert_eq!(rows, EDGES * (EDGES + 1) / 2);
    let per_row = peak as f64 / rows as f64;
    assert!(
        per_row <= BUDGET,
        "{per_row:.2} bytes of peak heap per stored row, budget {BUDGET:.1}"
    );
}

/// A membership table that doubles frees its old slots before it takes
/// the new ones: the push that grows 2¹⁶ slots to 2¹⁷ raises the live heap
/// by the difference, 256 KiB of 4-byte slots. A table that kept its old
/// slots until the new ones were filled peaked at the whole new table,
/// 512 KiB, above.
#[test]
fn a_doubling_membership_table_never_exists_twice() {
    const HALF: u64 = 1 << 15;
    let hash = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut keys: Vec<u64> = Vec::with_capacity(HALF as usize + 1);
    let mut table = idlog_common::IdTable::new();
    let push = |keys: &mut Vec<u64>, table: &mut idlog_common::IdTable, k: u64| {
        let (_, new) = table.find_or_push(
            hash(k),
            |id| keys[id as usize] == k,
            |id| hash(keys[id as usize]),
        );
        assert!(new);
        keys.push(k);
    };
    for k in 0..HALF {
        push(&mut keys, &mut table, k);
    }
    // 2¹⁵ ids fill 2¹⁶ slots to half: the next push doubles them.
    let ((), growth) = peak_growth_during(|| push(&mut keys, &mut table, HALF));
    let slot = idlog_common::IdTable::SLOT_BYTES as u64;
    assert_eq!(
        growth,
        (1 << 16) * slot,
        "the old and new slots were live at once"
    );
    assert_eq!(table.len() as u64, HALF + 1);
}

#[test]
fn cloning_a_relation_of_small_tuples_is_a_handful_of_copies() {
    let mut rel = Relation::new(RelType::new(vec![idlog_core::Sort::I; 2]));
    for n in 0..10_000i64 {
        let t: Tuple = [int(n), int(n / 7)].into_iter().collect();
        rel.insert(t).unwrap();
    }
    let (copy, allocations) = allocations_during(|| rel.clone());
    assert_eq!(copy.len(), 10_000);
    // The store, the membership table's slots and the relation type:
    // nothing per row.
    assert!(allocations <= 8, "{allocations} allocations");
}

/// An empty relation and an empty interner allocate nothing: a store, its
/// membership table, an interner's name arena and its id table all wait for
/// their first row or name, so a program's many small relations pay only
/// for what they hold.
#[test]
fn an_empty_relation_and_interner_allocate_nothing() {
    let rtype = RelType::new(vec![idlog_core::Sort::I; 2]);
    let (rel, allocations) = allocations_during(|| Relation::new(rtype));
    assert_eq!((rel.len(), allocations), (0, 0));
    let (interner, allocations) = allocations_during(Interner::new);
    assert_eq!((interner.len(), allocations), (0, 0));
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

/// Paper §4's rule before its ID-literal rewrite makes `keys × fanout ×
/// witnesses` instantiations of `keys` head tuples. Each instantiation
/// after a key's first repeats the head tuple just emitted, and the engine
/// counts it without buffering it: what evaluation allocates does not grow
/// with the witnesses, though the instantiations do tenfold.
#[test]
fn an_existential_tail_allocates_nothing_per_witness() {
    let program =
        ValidatedProgram::parse("p(X) :- q(X, Z), z(Z, Y), y(W).", Arc::new(Interner::new()))
            .unwrap();
    let evaluate = |witnesses: usize| {
        let mut db = Database::with_interner(Arc::clone(program.interner()));
        for k in 0..40 {
            db.insert_syms("q", &[&format!("x{k}"), &format!("zk{k}")])
                .unwrap();
            for f in 0..3 {
                db.insert_syms("z", &[&format!("zk{k}"), &format!("y{f}")])
                    .unwrap();
            }
        }
        for w in 0..witnesses {
            db.insert_syms("y", &[&format!("w{w}")]).unwrap();
        }
        let options = EvalOptions::serial();
        let (out, bytes) = bytes_during(|| {
            evaluate_governed(&program, &db, &mut CanonicalOracle, &options, None).unwrap()
        });
        let stats = out.stats();
        assert_eq!(stats.instantiations, 40 * 3 * witnesses as u64);
        assert_eq!(stats.derived, stats.instantiations);
        assert_eq!(stats.inserted, 40);
        bytes
    };
    let (few, many) = (evaluate(50), evaluate(500));
    assert_eq!(few, many, "evaluation bytes grew with the witnesses");
}

/// A fact file's symbols go into the interner's one arena, under one hold
/// of its lock per run of plain facts, and its tuples straight into their
/// relation: loading allocates for the growth of a few buffers, never per
/// fact or per new symbol.
#[test]
fn loading_plain_facts_allocates_nothing_per_fact() {
    for facts in [20_000usize, 100_000] {
        let src: String = (0..facts)
            .map(|n| format!("emp(n{n}, dept{}).\n", n % 500))
            .collect();
        let mut db = Database::with_interner(Arc::new(Interner::new()));
        let ((), allocations) = allocations_during(|| load_facts(&src, &mut db).unwrap());
        assert_eq!(db.relation("emp").unwrap().len(), facts);
        assert_eq!(db.interner().len(), facts + 500 + 1);
        assert!(
            (allocations as f64) < 0.01 * facts as f64,
            "{allocations} allocations for {facts} facts"
        );
    }
}

/// The peak live heap of loading 100 000 `emp(n<k>, dept<k mod 500>).`
/// facts, per fact. The relation holds 2¹⁷ sixteen-byte rows of capacity
/// and 2¹⁸ four-byte membership slots, taken once when the run ends; the
/// interner 2¹⁸ four-byte id slots, reserved once, and its names and end
/// offsets, reserved from the bytes left with an eighth to spare. It
/// measures 53.1 bytes a fact; the budget is that plus 10 %. Growing the
/// interner's buffers and the membership table by doubling, a fact at a
/// time, it measured 57.7.
#[test]
fn loading_plain_facts_peaks_within_its_budget() {
    const FACTS: usize = 100_000;
    const BUDGET_PER_FACT: f64 = 53.1 * 1.1;
    let src: String = (0..FACTS)
        .map(|n| format!("emp(n{n}, dept{}).\n", n % 500))
        .collect();
    let mut db = Database::with_interner(Arc::new(Interner::new()));
    let ((), peak) = peak_growth_during(|| load_facts(&src, &mut db).unwrap());
    assert_eq!(db.relation("emp").unwrap().len(), FACTS);
    let per_fact = peak as f64 / FACTS as f64;
    assert!(
        per_fact <= BUDGET_PER_FACT,
        "{per_fact:.2} bytes of peak heap per fact, budget {BUDGET_PER_FACT:.1}"
    );
}

/// The peak live heap of a canonical group-index build — `emp` grouped on
/// its department, 100 000 rows over 100 000 distinct names that share
/// their first eight bytes — per row. The rows are not copied: the build
/// numbers the distinct symbols in an id-indexed table (4 bytes per
/// interned symbol), sorts a 4-byte permutation of them on an 8-byte name
/// prefix each, reading ties from the interner's arena, keeps an id → rank
/// table and a rank → id list, and sorts one packed 8-byte key per row;
/// the index keeps a 4-byte row id per row. At its peak, while the names
/// are sorted, it holds the table, the distinct symbols (with their
/// vector's doubling slack), the permutation and the prefixes: 21.2 bytes
/// a row measured, and the budget is that plus 10 %. While the view kept a
/// copy of every name, with a span per symbol and a `(prefix, number)`
/// pair to sort, it measured 64.8.
#[test]
fn a_canonical_group_index_build_peaks_within_its_budget() {
    const ROWS: usize = 100_000;
    const BUDGET_PER_ROW: f64 = 21.2 * 1.1;
    let interner = Interner::new();
    let mut rel = Relation::new(RelType::new(vec![idlog_core::Sort::U, idlog_core::Sort::I]));
    for n in 0..ROWS {
        let name = Value::Sym(interner.intern(&format!("employee{n}")));
        rel.insert([name, int((n % 1000) as i64)].into_iter().collect())
            .unwrap();
    }
    assert_eq!(interner.len(), ROWS);
    let (build, peak) =
        peak_growth_during(|| idlog_storage::canonical_id_relation(&rel, &[1], &interner, Some(0)));
    let build = build.unwrap();
    assert_eq!((build.groups, build.relation.len()), (1000, 0));
    let per_row = peak as f64 / ROWS as f64;
    assert!(
        per_row <= BUDGET_PER_ROW,
        "{per_row:.2} bytes of peak heap per row, budget {BUDGET_PER_ROW:.1}"
    );
}

/// Enumeration walks a choice point's assignments as it reaches them. The
/// tid of `r[]` reaches the head, so nothing bounds it: one group of nine
/// members has 9! = 362 880 assignments, and seven have 5 040. A walk that
/// stops after its first model holds one assignment at a time either way,
/// so its peak heap over nine members stays within a few KiB of its peak
/// over seven. Collecting every assignment first held all 9! of them.
#[test]
fn a_one_model_walk_holds_one_assignment_at_a_time() {
    const SLACK: u64 = 4096;
    let query = Query::parse("q(X, T) :- r[](X, T).", "q").unwrap();
    let walk = |members: usize| {
        let mut db = query.new_database();
        for n in 0..members {
            db.insert_syms("r", &[&format!("m{n}")]).unwrap();
        }
        let options = EvalOptions::serial().budget(EnumBudget {
            max_models: 1,
            max_answers: 10,
        });
        let (answers, peak) =
            peak_growth_during(|| query.session(&db).options(options).all_answers().unwrap());
        assert_eq!(answers.len(), 1);
        assert!(!answers.complete());
        peak
    };
    let (seven, nine) = (walk(7), walk(9));
    assert!(
        nine <= seven + SLACK,
        "a one-model walk peaked at {nine} bytes over nine members, {seven} over seven"
    );
}
