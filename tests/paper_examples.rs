//! Every worked example in the paper, reproduced end-to-end.
//!
//! Example numbering follows the paper; each test cites the claim it checks.

use std::sync::Arc;

use std::collections::BTreeSet;

use idlog_core::{AnswerSet, EnumBudget, Interner, Query, ValidatedProgram};
use idlog_storage::{count_id_functions, make_id_relation, Database, IdAssignmentIter, Relation};
use idlog_suite::eval::{all_outcomes, intended_models, Budget, Dialect};
use idlog_suite::reference::{answer_set, symbol_facts, Rows};

fn db_from(interner: &Arc<Interner>, facts: &[(&str, &[&str])]) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for (pred, cols) in facts {
        db.insert_syms(pred, cols).unwrap();
    }
    db
}

/// An engine answer set in the reference's form.
fn engine(answers: &AnswerSet, interner: &Interner) -> BTreeSet<Rows> {
    answer_set(answers.iter().map(|r| r.iter()), interner)
}

/// Example 1: r = {(a,c),(a,d),(b,c)} has exactly two ID-relations on {1},
/// the two listed in the paper.
#[test]
fn example1_id_relations() {
    let interner = Interner::new();
    let mut r = Relation::elementary(2);
    for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
        r.insert(
            vec![
                idlog_core::Value::Sym(interner.intern(x)),
                idlog_core::Value::Sym(interner.intern(y)),
            ]
            .into(),
        )
        .unwrap();
    }
    assert_eq!(count_id_functions(&r, &[0], &interner), 2);

    let mut seen = Vec::new();
    for assignment in IdAssignmentIter::new(&r, &[0], &interner) {
        let id_relation = make_id_relation(&r, &assignment).unwrap();
        let tid = |x: &str, y: &str| {
            let t = [
                idlog_core::Value::Sym(interner.intern(x)),
                idlog_core::Value::Sym(interner.intern(y)),
            ];
            let row = id_relation.rows().find(|row| row[..2] == t).unwrap();
            row[2].as_int().unwrap()
        };
        seen.push((tid("a", "c"), tid("a", "d"), tid("b", "c")));
    }
    seen.sort_unstable();
    // Paper's listings: {(a,c,1),(a,d,0),(b,c,0)} and {(a,c,0),(a,d,1),(b,c,0)}.
    assert_eq!(seen, vec![(0, 1, 0), (1, 0, 0)]);
}

/// Example 2: the man/woman guessing program evaluates to all four subsets
/// of {a, b} for both queries.
#[test]
fn example2_man_woman_answer_sets() {
    let src = "
        sex_guess(X, male) :- person(X).
        sex_guess(X, female) :- person(X).
        man(X) :- sex_guess[1](X, male, 1).
        woman(X) :- sex_guess[1](X, female, 1).
    ";
    let man = Query::parse(src, "man").unwrap();
    let db = db_from(man.interner(), &[("person", &["a"]), ("person", &["b"])]);
    let budget = EnumBudget::default();

    let expected = vec![
        vec![],
        vec!["(a)".to_string()],
        vec!["(a)".to_string(), "(b)".to_string()],
        vec!["(b)".to_string()],
    ];
    let man_answers = man.session(&db).budget(budget).all_answers().unwrap();
    assert!(man_answers.complete());
    assert_eq!(man_answers.to_sorted_strings(man.interner()), expected);

    let woman = Query::parse_with_interner(src, "woman", Arc::clone(man.interner())).unwrap();
    let woman_answers = woman.session(&db).budget(budget).all_answers().unwrap();
    assert_eq!(woman_answers.to_sorted_strings(man.interner()), expected);
}

/// Example 3 is covered in `idlog_suite::eval`'s unit tests (DL
/// inflationary semantics); here we check the comparison the paper draws:
/// the DL answer set equals the IDLOG answer set of Example 2 — two roads to
/// one query.
#[test]
fn example3_dl_agrees_with_example2_idlog() {
    let idlog_src = "
        sex_guess(X, male) :- person(X).
        sex_guess(X, female) :- person(X).
        man(X) :- sex_guess[1](X, male, 1).
    ";
    let q = Query::parse(idlog_src, "man").unwrap();
    let facts: &[(&str, &[&str])] = &[("person", &["a"]), ("person", &["b"])];
    let db = db_from(q.interner(), facts);
    let idlog_answers = q.session(&db).all_answers().unwrap();

    let dl_src = "
        man(X) :- person(X), not woman(X).
        woman(X) :- person(X), not man(X).
    ";
    let dl_answers = all_outcomes(
        dl_src,
        Dialect::Dl,
        &symbol_facts(facts),
        "man",
        &Budget::default(),
    )
    .unwrap();

    assert_eq!(engine(&idlog_answers, q.interner()), dl_answers.answers);
}

/// Example 4: the one-per-department sampling query — the DATALOG^C program
/// and the IDLOG program `select_emp(N) :- emp[2](N, D, 0)` are q-equivalent.
#[test]
fn example4_single_sampling_equivalence() {
    let interner = Arc::new(Interner::new());
    let facts: &[(&str, &[&str])] = &[
        ("emp", &["ann", "sales"]),
        ("emp", &["bob", "sales"]),
        ("emp", &["cay", "dev"]),
        ("emp", &["dan", "dev"]),
        ("emp", &["eve", "dev"]),
    ];
    let db = db_from(&interner, facts);
    let budget = EnumBudget::default();

    let choice_src = "select_emp(N) :- emp(N, D), choice((D), (N)).";
    let choice_answers = intended_models(
        choice_src,
        &symbol_facts(facts),
        "select_emp",
        &Budget::default(),
    )
    .unwrap();

    let idlog = Query::parse_with_interner(
        "select_emp(N) :- emp[2](N, D, 0).",
        "select_emp",
        Arc::clone(&interner),
    )
    .unwrap();
    let idlog_answers = idlog.session(&db).budget(budget).all_answers().unwrap();

    assert_eq!(choice_answers.answers, engine(&idlog_answers, &interner));
    // 2 × 3 = 6 ways to pick one employee per department.
    assert_eq!(idlog_answers.len(), 6);
}

/// Example 5: the naive two-sample DATALOG^C program is WRONG — some of its
/// intended models miss a department entirely — while the IDLOG program
/// `emp[2](N, D, T), T < 2` always returns exactly two per department.
#[test]
fn example5_two_sampling() {
    let interner = Arc::new(Interner::new());
    let facts: &[(&str, &[&str])] = &[
        ("emp", &["ann", "sales"]),
        ("emp", &["bob", "sales"]),
        ("emp", &["cay", "sales"]),
        ("emp", &["dan", "dev"]),
        ("emp", &["eve", "dev"]),
    ];
    let db = db_from(&interner, facts);
    let budget = EnumBudget::default();

    // The paper's (incorrect) DATALOG^C attempt.
    let choice_src = "emp1(N, D) :- emp(N, D), choice((D), (N)).
                      emp2(N, D) :- emp(N, D), choice((D), (N)).
                      select_two_emp(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.";
    let choice_answers = intended_models(
        choice_src,
        &symbol_facts(facts),
        "select_two_emp",
        &Budget::default(),
    )
    .unwrap();
    // "There are some intended models … while others may not contain any
    // student from a certain department": when both choices agree on a
    // department, that department contributes nothing.
    let deficient = choice_answers.answers.iter().any(|rel| rel.len() < 4);
    assert!(deficient, "the choice program must have deficient models");

    // The paper's IDLOG program.
    let idlog = Query::parse_with_interner(
        "select_two_emp(N) :- emp[2](N, D, T), T < 2.",
        "select_two_emp",
        Arc::clone(&interner),
    )
    .unwrap();
    let idlog_answers = idlog.session(&db).budget(budget).all_answers().unwrap();
    assert!(idlog_answers.complete());
    for rel in idlog_answers.iter() {
        assert_eq!(
            rel.len(),
            4,
            "exactly two employees from each of 2 departments"
        );
    }
    // C(3,2) unordered pairs from sales × C(2,2) from dev = 3 answers.
    assert_eq!(idlog_answers.len(), 3);
}

/// Example 6 + Example 8: the adornment rewrite and the ID-literal rewrite
/// produce exactly the programs printed in the paper, and all three are
/// q-equivalent.
#[test]
fn example6_and_8_rewrites_are_equivalent() {
    use idlog_optimizer::{push_projections, q_equivalent_on, random_databases, to_id_program};

    let interner = Arc::new(Interner::new());
    let original = idlog_core::parse_program(
        "q(X) :- a(X, Y).
         a(X, Y) :- p(X, Z), a(Z, Y).
         a(X, Y) :- p(X, Y).",
        &interner,
    )
    .unwrap();
    let out = interner.intern("q");
    let projected = push_projections(&original, out);
    assert_eq!(
        projected.display(&interner).to_string(),
        "q(X) :- a(X).\na(X) :- p(X, Z), a(Z).\na(X) :- p(X, Y).\n"
    );
    let id_program = to_id_program(&original, out);
    assert_eq!(
        id_program.display(&interner).to_string(),
        "q(X) :- a(X).\na(X) :- p(X, Z), a(Z).\na(X) :- p[1](X, Y, 0).\n"
    );

    let dbs = random_databases(&interner, &[("p", 2)], &["a", "b", "c"], 10, 42);
    let budget = EnumBudget::default();
    let r1 = q_equivalent_on(&original, &projected, &interner, &dbs, "q", &budget).unwrap();
    assert!(r1.equivalent, "projection pushing preserves q");
    let r2 = q_equivalent_on(&original, &id_program, &interner, &dbs, "q", &budget).unwrap();
    assert!(
        r2.equivalent,
        "the ID-rewrite preserves q (Theorem 4 instance)"
    );
}

/// The paper's §2.2 safety example: the first occurrence of `+` is not
/// allowed (`1 + L = M` has infinitely many solutions), the second is.
#[test]
fn section2_safety_example() {
    let p1 = ValidatedProgram::parse(
        "q(a, 1). p1(X, N) :- q(X, N), plus(N, L, M).",
        Arc::new(Interner::new()),
    );
    assert!(matches!(p1, Err(idlog_core::CoreError::Safety { .. })));

    ValidatedProgram::parse(
        "q(a, 1). p2(X, N) :- q(X, N), plus(L, M, N).",
        Arc::new(Interner::new()),
    )
    .unwrap();
}

/// §1 / §4: `all_depts` — the three formulations (plain DATALOG, choice,
/// IDLOG tid-0) define the same deterministic query.
#[test]
fn all_depts_three_ways() {
    let interner = Arc::new(Interner::new());
    let facts: &[(&str, &[&str])] = &[
        ("emp", &["ann", "sales"]),
        ("emp", &["bob", "sales"]),
        ("emp", &["cay", "dev"]),
    ];
    let db = db_from(&interner, facts);
    let budget = EnumBudget::default();

    let plain = Query::parse_with_interner(
        "all_depts(D) :- emp(N, D).",
        "all_depts",
        Arc::clone(&interner),
    )
    .unwrap();
    let plain_answers = plain.session(&db).budget(budget).all_answers().unwrap();
    assert_eq!(plain_answers.len(), 1);

    let idlog = Query::parse_with_interner(
        "all_depts(D) :- emp[2](N, D, 0).",
        "all_depts",
        Arc::clone(&interner),
    )
    .unwrap();
    let idlog_answers = idlog.session(&db).budget(budget).all_answers().unwrap();
    assert!(plain_answers.same_answers(&idlog_answers, &interner));

    let choice_src = "all_depts(D) :- emp(N, D), choice((D), (N)).";
    let choice_answers = intended_models(
        choice_src,
        &symbol_facts(facts),
        "all_depts",
        &Budget::default(),
    )
    .unwrap();
    assert_eq!(engine(&plain_answers, &interner), choice_answers.answers);
}

/// §3.1 genericity: answers commute with permutations of the u-domain.
#[test]
fn queries_are_generic() {
    let src = "pick(N) :- emp[2](N, D, 0).";
    let q = Query::parse(src, "pick").unwrap();
    let db = db_from(
        q.interner(),
        &[
            ("emp", &["u1", "d1"]),
            ("emp", &["u2", "d1"]),
            ("emp", &["u3", "d2"]),
        ],
    );
    let answers = q.session(&db).all_answers().unwrap();

    // Permute u1 <-> u3 (a renaming of the domain).
    let permuted_db = db_from(
        q.interner(),
        &[
            ("emp", &["u3", "d1"]),
            ("emp", &["u2", "d1"]),
            ("emp", &["u1", "d2"]),
        ],
    );
    let permuted = q.session(&permuted_db).all_answers().unwrap();

    // Apply the same permutation to the original answers and compare.
    let rename = |s: &str| match s {
        "u1" => "u3".to_string(),
        "u3" => "u1".to_string(),
        other => other.to_string(),
    };
    let mut expected: Vec<Vec<String>> = answers
        .to_sorted_strings(q.interner())
        .into_iter()
        .map(|ans| {
            let mut rows: Vec<String> = ans
                .into_iter()
                .map(|row| {
                    let inner = row.trim_start_matches('(').trim_end_matches(')');
                    format!("({})", rename(inner))
                })
                .collect();
            rows.sort();
            rows
        })
        .collect();
    expected.sort();
    assert_eq!(permuted.to_sorted_strings(q.interner()), expected);
}

/// §3.1's database program includes `udom(dᵢ)` facts for every domain
/// element (realizing the domain-closure axiom). With
/// `Database::materialize_udom`, complement queries work as in the paper's
/// construction.
#[test]
fn udom_enables_complement_queries() {
    let q = Query::parse(
        "non_edge(X, Y) :- udom(X), udom(Y), not e(X, Y).",
        "non_edge",
    )
    .unwrap();
    let mut db = db_from(q.interner(), &[("e", &["a", "b"]), ("e", &["b", "c"])]);
    db.materialize_udom("udom").unwrap();
    let rel = q.session(&db).run().unwrap().relation;
    // 3 constants → 9 pairs, minus the 2 edges.
    assert_eq!(rel.len(), 7);

    // The domain can also carry isolated elements, as the paper allows.
    db.add_domain_element("d");
    db.materialize_udom("udom").unwrap();
    let rel = q.session(&db).run().unwrap().relation;
    assert_eq!(rel.len(), 16 - 2);
}
