//! End-to-end scenarios on generated workloads: the optimization claims of
//! §4 measured through engine statistics, larger recursive programs, and
//! oracle behaviour.

use std::sync::Arc;

use idlog_core::{
    EnumBudget, EvalOptions, EvalStats, Interner, Query, SeededOracle, ValidatedProgram,
};
use idlog_storage::Database;

/// D departments × E employees per department.
fn emp_db(interner: &Arc<Interner>, depts: usize, emps: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for d in 0..depts {
        for e in 0..emps {
            db.insert_syms("emp", &[&format!("n{d}_{e}"), &format!("dept{d}")])
                .unwrap();
        }
    }
    db
}

fn stats_of(src: &str, output: &str, db_builder: impl Fn(&Arc<Interner>) -> Database) -> EvalStats {
    let q = Query::parse(src, output).unwrap();
    let db = db_builder(q.interner());
    q.session(&db).run().unwrap().stats
}

/// §1/§4: the IDLOG formulation of all_depts considers one tuple per
/// department, the plain one considers all D×E tuples.
#[test]
fn all_depts_idlog_reduces_instantiations() {
    let (depts, emps) = (10, 20);
    let plain = stats_of("all_depts(D) :- emp(N, D).", "all_depts", |i| {
        emp_db(i, depts, emps)
    });
    let idlog = stats_of("all_depts(D) :- emp[2](N, D, 0).", "all_depts", |i| {
        emp_db(i, depts, emps)
    });
    assert_eq!(plain.instantiations, (depts * emps) as u64);
    assert_eq!(
        idlog.instantiations, depts as u64,
        "one firing per department"
    );
    assert!(idlog.probes < plain.probes);
}

/// §3.3: the n-sample IDLOG query fires once per selected tuple — n per
/// group — not once per candidate tuple. Emulating it with choice (Example
/// 5 generalized) takes n choices plus n(n−1)/2 pairwise disequalities, and
/// its work grows with the group size as well as with n. The choice side is
/// counted on `Pᶜ` (`idlog_choice::translate`), whose minimal model is the
/// KN88 candidate pool that every intended model pays for.
#[test]
fn sampling_instantiations_scale_with_n_not_group_size() {
    let (depts, emps, n) = (5, 30, 3);
    let src = format!("sample(N) :- emp[2](N, D, T), T < {n}.");
    let stats = stats_of(&src, "sample", |i| emp_db(i, depts, emps));
    assert_eq!(stats.instantiations, (depts * n) as u64);

    let interner = Arc::new(Interner::new());
    let db = emp_db(&interner, 3, 6);
    for (n, choice_instantiations) in [(1usize, 54u64), (2, 252), (3, 1_188), (4, 4_464)] {
        let mut choice_src = String::new();
        for i in 0..n {
            choice_src.push_str(&format!("emp{i}(N, D) :- emp(N, D), choice((D), (N)).\n"));
        }
        let mut body: Vec<String> = (0..n).map(|i| format!("emp{i}(N{i}, D)")).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                body.push(format!("N{i} != N{j}"));
            }
        }
        choice_src.push_str(&format!("select_n(N0) :- {}.\n", body.join(", ")));
        let choice_ast = idlog_core::parse_program(&choice_src, &interner).unwrap();
        let pc = idlog_choice::translate(&choice_ast, &interner)
            .unwrap()
            .program;
        let pc = ValidatedProgram::new(pc, Arc::clone(&interner)).unwrap();
        let choice_stats = Query::new(pc, "select_n")
            .unwrap()
            .session(&db)
            .run()
            .unwrap()
            .stats;
        assert_eq!(
            choice_stats.instantiations, choice_instantiations,
            "n = {n}"
        );

        let q = Query::parse_with_interner(
            &format!("select_n(N) :- emp[2](N, D, T), T < {n}."),
            "select_n",
            Arc::clone(&interner),
        )
        .unwrap();
        let idlog_stats = q.session(&db).run().unwrap().stats;
        assert_eq!(idlog_stats.instantiations, (3 * n) as u64, "n = {n}");
    }
}

/// Same-generation on a tree: a classic recursive workload exercising
/// semi-naive evaluation, negation-free.
#[test]
fn same_generation_on_a_tree() {
    let src = "
        sg(X, X) :- person(X).
        sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
    ";
    let q = Query::parse(src, "sg").unwrap();
    let mut db = Database::with_interner(Arc::clone(q.interner()));
    // A complete binary tree of depth 3: nodes 1..15, par(child, parent).
    for child in 2..=15u32 {
        let parent = child / 2;
        db.insert_syms("par", &[&format!("v{child}"), &format!("v{parent}")])
            .unwrap();
        db.insert_syms("person", &[&format!("v{child}")]).unwrap();
    }
    db.insert_syms("person", &["v1"]).unwrap();
    let rel = q.session(&db).run().unwrap().relation;
    // Same-generation pairs in a complete binary tree of 15 nodes:
    // level sizes 1,2,4,8 → 1 + 4 + 16 + 64 = 85 ordered pairs.
    assert_eq!(rel.len(), 85);
}

/// Seeded oracles give reproducible answers, and different seeds reach
/// different answers somewhere.
#[test]
fn seeded_oracles_are_reproducible() {
    let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
    let db = emp_db(q.interner(), 2, 6);
    let a1 = q
        .session(&db)
        .run_with(&mut SeededOracle::new(11))
        .unwrap()
        .relation;
    let a2 = q
        .session(&db)
        .run_with(&mut SeededOracle::new(11))
        .unwrap()
        .relation;
    assert!(a1.set_eq(&a2));
    let differing = (0..32)
        .filter(|&s| {
            !q.session(&db)
                .run_with(&mut SeededOracle::new(s))
                .unwrap()
                .relation
                .set_eq(&a1)
        })
        .count();
    assert!(
        differing > 0,
        "32 seeds must reach at least two distinct answers"
    );
}

/// Deterministic queries are oracle-independent even when they read
/// ID-relations (the paper's all_depts: existential choice does not leak).
/// The query certifies, so `all_answers` evaluates once where the full walk
/// visits all 10^4 ID-functions, to the same single answer.
#[test]
fn all_depts_is_oracle_independent() {
    let q = Query::parse("all_depts(D) :- emp[2](N, D, 0).", "all_depts").unwrap();
    let db = emp_db(q.interner(), 4, 10);
    let canonical = q.session(&db).run().unwrap().relation;
    for seed in 0..16 {
        let seeded = q
            .session(&db)
            .run_with(&mut SeededOracle::new(seed))
            .unwrap()
            .relation;
        assert!(
            canonical.set_eq(&seeded),
            "seed {seed} changed a deterministic query"
        );
    }
    assert_eq!(canonical.len(), 4);

    assert!(q.certified_deterministic());
    let budget = EnumBudget {
        max_models: 1_000_000,
        max_answers: 1_000_000,
    };
    let walk = EvalOptions::serial().budget(budget);
    let slow = q
        .session(&db)
        .options(walk.det_fastpath(false))
        .all_answers()
        .unwrap();
    let fast = q.session(&db).options(walk).all_answers().unwrap();
    assert!(slow.complete() && fast.complete());
    assert_eq!(slow.models_explored(), 10_000);
    assert_eq!(fast.models_explored(), 1);
    assert_eq!(slow.len(), 1);
    assert_eq!(
        fast.to_sorted_strings(q.interner()),
        slow.to_sorted_strings(q.interner())
    );
}

/// Arithmetic end-to-end: sum the first k naturals with succ/plus recursion.
#[test]
fn triangular_numbers_via_arithmetic() {
    let src = "
        tri(0, 0).
        tri(N2, S2) :- tri(N, S), succ(N, N2), N2 <= 10, plus(S, N2, S2).
    ";
    let q = Query::parse(src, "tri").unwrap();
    let db = Database::with_interner(Arc::clone(q.interner()));
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rel.len(), 11);
    let int = |n| idlog_core::Value::Int(idlog_core::Nat::new(n).unwrap());
    let t: idlog_core::Tuple = vec![int(10), int(55)].into();
    assert!(rel.contains(&t), "tri(10) = 55");
}

/// Mixed recursion + ID-literal + negation across three strata.
#[test]
fn three_strata_pipeline() {
    let src = "
        reach(X) :- start(X).
        reach(Y) :- reach(X), e(X, Y).
        rep(X) :- reach[](X, 0).
        nonrep(X) :- reach(X), not rep(X).
    ";
    let q = Query::parse(src, "nonrep").unwrap();
    let mut db = Database::with_interner(Arc::clone(q.interner()));
    db.insert_syms("start", &["a"]).unwrap();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
        db.insert_syms("e", &[x, y]).unwrap();
    }
    let answers = q.session(&db).all_answers().unwrap();
    // reach = {a,b,c,d}; rep is any single one of them; nonrep the other 3.
    assert_eq!(answers.len(), 4);
    for rel in answers.iter() {
        assert_eq!(rel.len(), 3);
    }
}

/// The enumeration budget reports truncation instead of hanging on a
/// factorial space.
#[test]
fn enumeration_budget_cuts_factorial_space() {
    // The tid escapes into the head, so the walk is over all 9! = 362880
    // permutations; the budget must truncate it.
    let q = Query::parse("pick(N, T) :- emp[](N, D, T).", "pick").unwrap();
    let db = emp_db(q.interner(), 1, 9);
    let budget = EnumBudget {
        max_models: 500,
        max_answers: 10_000,
    };
    // Serial: the tight models_explored bound is a property of the
    // sequential walk (parallel branches may each run up to the budget).
    let answers = q
        .session(&db)
        .threads(1)
        .budget(budget)
        .all_answers()
        .unwrap();
    assert!(!answers.complete());
    assert!(answers.models_explored() <= 501);
}

/// The footnote 6/7 optimization: a tid-0-only query over the same relation
/// enumerates 9 arrangements, not 9! permutations, and completes.
#[test]
fn bounded_tid_enumeration_is_linear() {
    let q = Query::parse("pick(N) :- emp[](N, D, 0).", "pick").unwrap();
    let db = emp_db(q.interner(), 1, 9);
    let budget = EnumBudget {
        max_models: 500,
        max_answers: 10_000,
    };
    let answers = q.session(&db).budget(budget).all_answers().unwrap();
    assert!(answers.complete());
    assert_eq!(answers.models_explored(), 9);
    assert_eq!(answers.len(), 9);

    // Under `T < 2` a group of m walks its m(m−1) two-prefixes. The same
    // query with the tid exposed through a helper defeats the bound and
    // walks all m! permutations, to the same answer set.
    let interner = Arc::new(Interner::new());
    let bounded = Query::parse_with_interner(
        "pick(N) :- emp[2](N, D, T), T < 2.",
        "pick",
        Arc::clone(&interner),
    )
    .unwrap();
    let exposed = Query::parse_with_interner(
        "expose(N, T) :- emp[2](N, D, T).\npick(N) :- expose(N, T), T < 2.",
        "pick",
        Arc::clone(&interner),
    )
    .unwrap();
    let budget = EnumBudget {
        max_models: 10_000_000,
        max_answers: 1_000_000,
    };
    for (m, prefixes, permutations) in [(4, 12, 24), (5, 20, 120), (6, 30, 720), (7, 42, 5_040)] {
        let db = emp_db(&interner, 1, m);
        let a = bounded.session(&db).budget(budget).all_answers().unwrap();
        let b = exposed.session(&db).budget(budget).all_answers().unwrap();
        assert!(a.complete() && b.complete(), "m = {m}");
        assert_eq!(a.models_explored(), prefixes, "m = {m}");
        assert_eq!(b.models_explored(), permutations, "m = {m}");
        assert!(a.same_answers(&b, &interner), "m = {m}");
    }
}

/// Parallel and sequential enumeration agree on a two-choice-point program.
#[test]
fn parallel_enumeration_agrees() {
    let src = "
        first(N) :- emp[2](N, D, 0).
        second(P) :- proj[2](P, T, 0).
        pair(N, P) :- first(N), second(P).
    ";
    let q = Query::parse(src, "pair").unwrap();
    let mut db = emp_db(q.interner(), 2, 3);
    for t in 0..2 {
        for p in 0..2 {
            db.insert_syms("proj", &[&format!("p{t}_{p}"), &format!("t{t}")])
                .unwrap();
        }
    }
    let budget = EnumBudget::default();
    let seq = q
        .session(&db)
        .threads(1)
        .budget(budget)
        .all_answers()
        .unwrap();
    let par = q
        .session(&db)
        .threads(4)
        .budget(budget)
        .all_answers()
        .unwrap();
    assert!(seq.complete() && par.complete());
    assert!(seq.same_answers(&par, q.interner()));
}

/// The paper's introductory claim (via [She90b]): tuple identifiers enhance
/// *deterministic* expressive power. Cardinality parity of a unary relation
/// is not expressible in DATALOG(¬), but with an empty-grouping ID-relation
/// the tids 0..n−1 give a linear order to count along — and the answer is
/// the same in every perfect model.
#[test]
fn counting_with_tids_is_deterministic() {
    let src = "
        % tid order: numbered(X, T) pairs each element with a unique tid.
        numbered(X, T) :- person[](X, T).
        % count up: reach(T) holds for every tid, size = max tid + 1.
        has(T) :- numbered(X, T).
        even_upto(0) :- has(0).
        odd_upto(T2) :- even_upto(T), succ(T, T2), has(T2).
        even_upto(T2) :- odd_upto(T), succ(T, T2), has(T2).
        % the relation has even cardinality iff the last tid is odd-indexed
        % (odd_upto holds at the maximum tid), or the relation is empty.
        top(T) :- has(T), succ(T, T2), not has(T2).
        even_card :- top(T), odd_upto(T).
        empty :- not some.
        some :- person(X).
        even_card :- empty.
    ";
    let q = Query::parse(src, "even_card").unwrap();
    for n in 0..6usize {
        let mut db = q.new_database();
        for k in 0..n {
            db.insert_syms("person", &[&format!("p{k}")]).unwrap();
        }
        // Deterministic: a single answer over all perfect models.
        let answers = q.session(&db).all_answers().unwrap();
        assert!(answers.complete());
        assert_eq!(
            answers.len(),
            1,
            "parity must be tid-choice independent (n={n})"
        );
        let is_even = !answers.iter().next().unwrap().is_empty();
        assert_eq!(is_even, n % 2 == 0, "wrong parity for n={n}");
        // And any single oracle gives the same verdict.
        for seed in [1, 9] {
            let rel = q
                .session(&db)
                .run_with(&mut SeededOracle::new(seed))
                .unwrap()
                .relation;
            assert_eq!(!rel.is_empty(), n % 2 == 0);
        }
    }
}

/// §2.2: "More complicated arithmetic predicates, such as +, −, *, / and <,
/// can be defined by IDLOG programs using the predicate succ." Define
/// addition from succ over a bounded range and compare with the builtin.
#[test]
fn plus_is_definable_from_succ() {
    let src = "
        % myplus(X, Y, Z) over 0..=LIMIT, defined only from succ.
        bound(0).
        bound(N2) :- bound(N), succ(N, N2), N2 <= 12.
        myplus(X, 0, X) :- bound(X).
        myplus(X, Y2, Z2) :- myplus(X, Y, Z), succ(Y, Y2), succ(Z, Z2), Z2 <= 12.
        % check: pairs where the builtin and the definition agree.
        agree(X, Y) :- myplus(X, Y, Z), plus(X, Y, Z).
    ";
    let q = Query::parse(src, "myplus").unwrap();
    let db = Database::with_interner(Arc::clone(q.interner()));
    let rel = q.session(&db).run().unwrap().relation;
    // Every derived myplus(X, Y, Z) satisfies X + Y = Z…
    for t in rel.iter() {
        let (x, y, z) = (
            t[0].as_int().unwrap(),
            t[1].as_int().unwrap(),
            t[2].as_int().unwrap(),
        );
        assert_eq!(x + y, z);
    }
    // …and the definition is complete for all sums ≤ 12:
    // Σ_{z=0}^{12} (z+1) = 91 triples.
    assert_eq!(rel.len(), 91);
}
