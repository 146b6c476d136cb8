//! Engine-focused integration cases: shapes the unit tests don't cover —
//! mutual recursion, repeated variables and constants in probes, multiple
//! ID-literals per clause, deep strata, self-joins.

use std::sync::Arc;

use idlog_core::{Interner, Nat, Query, Tuple, Value};
use idlog_storage::Database;

fn db_from(interner: &Arc<Interner>, facts: &[(&str, &[&str])]) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for (pred, cols) in facts {
        db.insert_syms(pred, cols).unwrap();
    }
    db
}

fn rows(q: &Query, rel: &idlog_core::Relation) -> Vec<String> {
    let interner = q.interner();
    let mut v: Vec<String> = rel
        .sorted_canonical(interner)
        .iter()
        .map(|t| t.display(interner).to_string())
        .collect();
    v.sort();
    v
}

/// Mutual recursion across two predicates in one stratum.
#[test]
fn mutual_recursion_even_odd_paths() {
    let src = "
        even_path(X, X) :- node(X).
        odd_path(X, Y) :- even_path(X, Z), e(Z, Y).
        even_path(X, Y) :- odd_path(X, Z), e(Z, Y).
    ";
    let q = Query::parse(src, "even_path").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("node", &["a"]),
            ("node", &["b"]),
            ("node", &["c"]),
            ("e", &["a", "b"]),
            ("e", &["b", "c"]),
            ("e", &["c", "a"]),
        ],
    );
    let rel = q.session(&db).run().unwrap().relation;
    // 3-cycle: even-length paths from X land on the nodes at even distance;
    // gcd(2,3)=1 so every node reaches every node (incl. itself) eventually.
    assert_eq!(rel.len(), 9);
}

/// Repeated variable inside one atom: the engine's same-step check path.
#[test]
fn self_loop_detection() {
    let q = Query::parse("loop(X) :- e(X, X).", "loop").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("e", &["a", "a"]),
            ("e", &["a", "b"]),
            ("e", &["b", "b"]),
            ("e", &["b", "c"]),
        ],
    );
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rows(&q, &rel), ["(a)", "(b)"]);
}

/// Constants in probe positions combined with repeated head variables.
#[test]
fn constant_probes_and_self_join() {
    let src = "peer(X, Y) :- e(X, hub), e(Y, hub), X != Y.";
    let q = Query::parse(src, "peer").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("e", &["a", "hub"]),
            ("e", &["b", "hub"]),
            ("e", &["c", "other"]),
        ],
    );
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rows(&q, &rel), ["(a, b)", "(b, a)"]);
}

/// Two ID-literals in one clause: both choice points resolved per model.
#[test]
fn two_id_literals_in_one_clause() {
    let src = "pair(X, Y) :- left[](X, 0), right[](Y, 0).";
    let q = Query::parse(src, "pair").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("left", &["l1"]),
            ("left", &["l2"]),
            ("right", &["r1"]),
            ("right", &["r2"]),
        ],
    );
    let answers = q.session(&db).all_answers().unwrap();
    assert!(answers.complete());
    // 2 × 2 = 4 distinct single-pair answers.
    assert_eq!(answers.len(), 4);
    for rel in answers.iter() {
        assert_eq!(rel.len(), 1);
    }
}

/// Same base predicate read under two different groupings: independent
/// ID-relations.
#[test]
fn two_groupings_of_one_predicate() {
    let src = "
        by_dept(N) :- emp[2](N, D, 0).
        by_name(D) :- emp[1](N, D, 0).
        both(N, D) :- by_dept(N), by_name(D).
    ";
    let q = Query::parse(src, "both").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("emp", &["a", "x"]),
            ("emp", &["a", "y"]),
            ("emp", &["b", "x"]),
        ],
    );
    let answers = q.session(&db).all_answers().unwrap();
    assert!(answers.complete());
    assert!(answers.len() > 1, "the two groupings choose independently");
    // Every answer is a cross product of the two independent selections.
    for rel in answers.iter() {
        assert!(!rel.is_empty());
    }
}

/// A five-stratum alternation of negation and ID-literals.
#[test]
fn deep_strata_chain() {
    let src = "
        l1(X) :- base(X).
        l2(X) :- l1(X), not skip(X).
        l3(X) :- l2[](X, 0).
        l4(X) :- l2(X), not l3(X).
        l5(X) :- l4[](X, T), T <= 0.
    ";
    let q = Query::parse(src, "l5").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("base", &["a"]),
            ("base", &["b"]),
            ("base", &["c"]),
            ("skip", &["c"]),
        ],
    );
    let answers = q.session(&db).all_answers().unwrap();
    assert!(answers.complete());
    // l2 = {a,b}; l3 picks one; l4 = the other; l5 = that one.
    assert_eq!(answers.len(), 2);
    for rel in answers.iter() {
        assert_eq!(rel.len(), 1);
    }
}

/// Facts with integer constants interact with comparisons.
#[test]
fn integer_facts_and_filters() {
    let src = "
        senior(N) :- level(N, L), L >= 3.
        junior(N) :- level(N, L), L < 3.
    ";
    let q = Query::parse(src, "senior").unwrap();
    let mut db = Database::with_interner(Arc::clone(q.interner()));
    for (n, l) in [("a", 1i64), ("b", 3), ("c", 5)] {
        let sym = Value::Sym(q.interner().intern(n));
        db.insert(
            "level",
            Tuple::new(vec![sym, Value::Int(Nat::new(l).unwrap())]),
        )
        .unwrap();
    }
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rows(&q, &rel), ["(b)", "(c)"]);
    let j = Query::parse_with_interner(src, "junior", Arc::clone(q.interner())).unwrap();
    let rel = j.session(&db).run().unwrap().relation;
    assert_eq!(rows(&j, &rel), ["(a)"]);
}

/// Zero-ary predicates through all strata machinery.
#[test]
fn zero_ary_flags() {
    let src = "
        nonempty :- p(X).
        empty :- not nonempty.
        verdict(yes) :- nonempty.
        verdict(no) :- empty.
    ";
    let q = Query::parse(src, "verdict").unwrap();
    let db = db_from(q.interner(), &[("p", &["a"])]);
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rows(&q, &rel), ["(yes)"]);
    let empty_db = q.new_database();
    let rel = q.session(&empty_db).run().unwrap().relation;
    assert_eq!(rows(&q, &rel), ["(no)"]);
}

/// A wide join (five-way) exercising index reuse within one clause.
#[test]
fn five_way_join() {
    let src = "j(A, E) :- r1(A, B), r2(B, C), r3(C, D), r4(D, E), r5(E).";
    let q = Query::parse(src, "j").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("r1", &["a", "b"]),
            ("r2", &["b", "c"]),
            ("r3", &["c", "d"]),
            ("r4", &["d", "e"]),
            ("r5", &["e"]),
            ("r1", &["a2", "b2"]), // dead-end branch
            ("r2", &["b2", "c2"]),
        ],
    );
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rows(&q, &rel), ["(a, e)"]);
}

/// An ID-relation over an IDB predicate computed with recursion, grouped by
/// a derived column.
#[test]
fn id_relation_over_recursive_idb() {
    let src = "
        reach(X, Y) :- e(X, Y).
        reach(X, Y) :- e(X, Z), reach(Z, Y).
        spokesman(X, Y) :- reach[1](X, Y, 0).
    ";
    let q = Query::parse(src, "spokesman").unwrap();
    let db = db_from(q.interner(), &[("e", &["a", "b"]), ("e", &["b", "c"])]);
    // reach = {(a,b),(a,c),(b,c)}: groups by source a → {b,c}, b → {c}.
    let answers = q.session(&db).all_answers().unwrap();
    assert!(answers.complete());
    assert_eq!(answers.len(), 2, "two choices for a's spokesman, one for b");
    for rel in answers.iter() {
        assert_eq!(rel.len(), 2, "one spokesman per source");
    }
}

/// A 50-department `emp` of 2 000 rows with uneven departments (sizes 1 and
/// 2 included), and the department sizes.
fn uneven_emp(interner: &Arc<Interner>) -> (Database, Vec<usize>) {
    let mut db = Database::with_interner(Arc::clone(interner));
    // Sizes 1..=50 sum to 1 275; the first 29 departments get 25 more each.
    let sizes: Vec<usize> = (1..=50).map(|d| if d <= 29 { d + 25 } else { d }).collect();
    assert_eq!(sizes.iter().sum::<usize>(), 2000);
    // Employees round-robin over the departments that still have room, so a
    // department's rows are spread through the scan order.
    let mut placed = vec![0usize; sizes.len()];
    let mut n = 0;
    while n < 2000 {
        for (d, &size) in sizes.iter().enumerate() {
            if placed[d] < size {
                db.insert_syms("emp", &[&format!("e{n}"), &format!("d{d}")])
                    .unwrap();
                placed[d] += 1;
                n += 1;
            }
        }
    }
    (db, sizes)
}

/// Footnotes 6–7 as a work bound: a tid-bounded ID-literal makes the engine
/// touch `min(k, size)` tuples per group, whichever oracle numbers them —
/// and a program that leaks the tid still gets every tuple.
#[test]
fn tid_bounded_id_literals_touch_k_tuples_per_group() {
    use idlog_core::{CanonicalOracle, SeededOracle};

    let two = Query::parse(
        "select_two_emp(N) :- emp[2](N, _D, T), T < 2.",
        "select_two_emp",
    )
    .unwrap();
    let (db, sizes) = uneven_emp(two.interner());
    let expected: u64 = sizes.iter().map(|&s| s.min(2) as u64).sum();
    let run = two.session(&db).run_with(&mut CanonicalOracle).unwrap();
    assert_eq!(run.stats.probes, expected);
    assert_eq!(run.stats.builtin_evals, expected);
    assert_eq!(run.relation.len() as u64, expected);
    // The canonical sample: each department's two name-smallest employees.
    let mut want: Vec<String> = Vec::new();
    let emp = db.relation("emp").unwrap();
    for d in 0..sizes.len() {
        let dept = Value::Sym(two.interner().intern(&format!("d{d}")));
        let mut names: Vec<String> = emp
            .iter()
            .filter(|t| t[1] == dept)
            .map(|t| two.interner().resolve(t[0].as_sym().unwrap()))
            .collect();
        names.sort();
        want.extend(names.into_iter().take(2).map(|n| format!("({n})")));
    }
    want.sort();
    assert_eq!(rows(&two, &run.relation), want);
    // A seeded sample differs in who, never in how many or how much work.
    let seeded = two
        .session(&db)
        .run_with(&mut SeededOracle::new(7))
        .unwrap();
    assert_eq!(seeded.stats, run.stats);
    assert_eq!(seeded.relation.len() as u64, expected);

    let depts = Query::parse("all_depts(D) :- emp[2](_N, D, 0).", "all_depts").unwrap();
    let (db, sizes) = uneven_emp(depts.interner());
    let run = depts.session(&db).run().unwrap();
    assert_eq!(run.stats.probes, sizes.len() as u64);
    assert_eq!(run.relation.len(), sizes.len());

    // The tid reaches the head: nothing bounds it, all 2 000 rows exist.
    let leaky = Query::parse("pick(N, T) :- emp[2](N, _D, T), T < 5.", "pick").unwrap();
    let (db, sizes) = uneven_emp(leaky.interner());
    assert!(leaky.related_program().tid_bounds().is_empty());
    let run = leaky.session(&db).run().unwrap();
    assert_eq!(run.stats.probes, 2000);
    let expected: usize = sizes.iter().map(|&s| s.min(5)).sum();
    assert_eq!(run.relation.len(), expected);
}

/// An oracle that only says how it assigns tids — reversed canonical ranks,
/// or a panic — goes through [`TidOracle::id_relation`]'s provided default.
struct ReversedRanks {
    panics: bool,
}

impl idlog_core::TidOracle for ReversedRanks {
    fn assign(
        &mut self,
        _pred: idlog_core::SymbolId,
        grouping: &[usize],
        rel: &idlog_core::Relation,
        interner: &Interner,
    ) -> idlog_storage::IdAssignment {
        assert!(!self.panics, "no tids today");
        let groups = idlog_storage::group_by(rel, grouping, interner);
        let perms: Vec<Vec<i64>> = groups
            .group_sizes()
            .map(|n| (0..n as i64).rev().collect())
            .collect();
        idlog_storage::IdAssignment::from_permutations(&groups, &perms)
    }
}

#[test]
fn assign_only_oracles_get_bounded_relations_and_contained_panics() {
    let q = Query::parse("last(N, D) :- emp[2](N, D, 0).", "last").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("emp", &["ann", "sales"]),
            ("emp", &["bob", "sales"]),
            ("emp", &["cay", "sales"]),
            ("emp", &["dan", "dev"]),
        ],
    );
    let program = q.related_program();
    let emp = q.interner().get("emp").unwrap();
    assert_eq!(program.tid_bounds().get(&(emp, vec![1])), Some(&1));
    let out = idlog_core::evaluate_governed(
        program,
        &db,
        &mut ReversedRanks { panics: false },
        &idlog_core::EvalOptions::default(),
        None,
    )
    .unwrap();
    // Reversed ranks: the canonically *last* member of each group holds tid 0.
    assert_eq!(
        rows(&q, out.relation("last").unwrap()),
        ["(cay, sales)", "(dan, dev)"]
    );
    // Only the observable tuples were kept, one per group ...
    assert_eq!(out.id_relation("emp", &[1]).unwrap().len(), 2);
    // ... and `emp` was never copied: the output reads the database's own
    // relation.
    assert!(std::ptr::eq(
        out.relation("emp").unwrap(),
        db.relation("emp").unwrap()
    ));

    let err = idlog_core::evaluate_governed(
        program,
        &db,
        &mut ReversedRanks { panics: true },
        &idlog_core::EvalOptions::default(),
        None,
    )
    .unwrap_err();
    assert_eq!(err.code(), idlog_core::ErrorCode::Internal);
    let message = err.to_string();
    assert!(
        message.contains("ID-oracle panicked for emp: no tids today"),
        "{message}"
    );
}

/// An explicit choice that is not an ID-function fails the evaluation with
/// an invariant error. A repeated tid would otherwise build a relation that
/// is no ID-relation, and a permutation too few or too many would panic
/// inside the oracle. The tid reaches the head of the first program, so its
/// choice is checked in full; the second observes tid 0 only, so a bound of
/// 1 leaves just the kept tids to check, and a repeated 0 is still caught.
#[test]
fn explicit_choices_that_are_not_id_functions_are_errors() {
    let facts: &[(&str, &[&str])] = &[
        ("emp", &["ann", "sales"]),
        ("emp", &["bob", "sales"]),
        ("emp", &["dan", "dev"]),
    ];
    for (src, output) in [
        ("pick(N, T) :- emp[2](N, _D, T).", "pick"),
        ("first(N) :- emp[2](N, _D, 0).", "first"),
    ] {
        let q = Query::parse(src, output).unwrap();
        let db = db_from(q.interner(), facts);
        // Groups in key order: dev = [dan], sales = [ann, bob].
        let evaluate = |perms: Vec<Vec<i64>>| {
            let mut oracle = idlog_core::ExplicitOracle::new();
            oracle.set("emp", vec![1], perms);
            idlog_core::evaluate_governed(
                q.related_program(),
                &db,
                &mut oracle,
                &idlog_core::EvalOptions::default(),
                None,
            )
        };
        for perms in [
            vec![vec![0], vec![0, 0]],
            vec![vec![0]],
            vec![vec![0], vec![1, 0], vec![0]],
        ] {
            let err = evaluate(perms.clone()).unwrap_err();
            assert_eq!(err.code(), idlog_core::ErrorCode::Internal, "{perms:?}");
            let message = err.to_string();
            assert!(
                message.contains("ID-oracle assignment for emp: invariant violated"),
                "{src} {perms:?}: {message}"
            );
        }
        let out = evaluate(vec![vec![0], vec![1, 0]]).unwrap();
        let expected: &[&str] = if output == "pick" {
            &["(ann, 1)", "(bob, 0)", "(dan, 0)"]
        } else {
            &["(bob)", "(dan)"]
        };
        assert_eq!(rows(&q, out.relation(output).unwrap()), expected);
    }
}

/// Paper §4's rule before its ID-literal rewrite, and the same existential
/// tail under recursion (`e` chains every key `x{k}` into `c0 → c1 → …`).
const SECTION4: &str = "p(X) :- q(X, Z), z(Z, Y), y(W).";
const SECTION4_RECURSIVE: &str = "p(X) :- q(X, Z), z(Z, Y), y(W). p(X) :- p(V), e(V, X), y(W).";

/// The §4 family: `q(x{k}, zk{k})` for `keys` keys, every tenth dangling
/// (no `z` rows), `fanout` `z` rows per other key, `witnesses` `y` rows,
/// and a 12-link `e` chain out of every key.
fn zy_database(interner: &Arc<Interner>, keys: usize, fanout: usize, witnesses: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for k in 0..keys {
        db.insert_syms("q", &[&format!("x{k}"), &format!("zk{k}")])
            .unwrap();
        if k % 10 != 9 {
            for f in 0..fanout {
                db.insert_syms("z", &[&format!("zk{k}"), &format!("y{f}")])
                    .unwrap();
            }
        }
        db.insert_syms("e", &[&format!("x{k}"), "c0"]).unwrap();
    }
    for c in 0..12 {
        db.insert_syms("e", &[&format!("c{c}"), &format!("c{}", c + 1)])
            .unwrap();
    }
    for w in 0..witnesses {
        db.insert_syms("y", &[&format!("w{w}")]).unwrap();
    }
    db
}

/// Every instantiation of an existential tail produces the head tuple the
/// one before it produced; the engine counts such a tuple without buffering
/// it. Every counter — `derived` included — and the profile's per-rule
/// `derived` and `redundant` columns stay what full buffering gave, pinned
/// here, at every thread count.
#[test]
fn existential_tails_count_every_derivation() {
    use idlog_core::{evaluate_governed, CanonicalOracle, EvalOptions, EvalStats};

    // The profile's `(clause, derived, redundant)` per rule.
    type Columns = [(usize, u64, u64)];
    let cases: [(&str, EvalStats, &Columns); 2] = [
        (
            SECTION4,
            EvalStats {
                instantiations: 5400,
                derived: 5400,
                inserted: 36,
                probes: 5548,
                builtin_evals: 0,
                iterations: 2,
                id_relations: 0,
                tuples_pruned: 0,
            },
            &[(0, 5400, 5364)],
        ),
        (
            SECTION4_RECURSIVE,
            EvalStats {
                instantiations: 7800,
                derived: 7800,
                inserted: 49,
                probes: 8045,
                builtin_evals: 0,
                iterations: 15,
                id_relations: 0,
                tuples_pruned: 0,
            },
            &[(0, 5400, 5364), (1, 2400, 2387)],
        ),
    ];
    for (src, want, per_rule) in cases {
        let interner = Arc::new(Interner::new());
        let program = idlog_core::ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
        let db = zy_database(&interner, 40, 3, 50);
        for threads in [1, 4] {
            let options = EvalOptions::new().threads(threads).profile(true);
            let out =
                evaluate_governed(&program, &db, &mut CanonicalOracle, &options, None).unwrap();
            assert_eq!(out.stats(), want, "{src} at {threads} threads");
            let columns: Vec<(usize, u64, u64)> = out
                .profile()
                .expect("profiled")
                .per_rule_totals()
                .iter()
                .map(|t| (t.clause, t.stats.derived, t.redundant()))
                .collect();
            assert_eq!(columns, per_rule, "{src} at {threads} threads");
        }
    }
}
