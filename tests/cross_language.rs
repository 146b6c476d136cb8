//! Cross-language agreement: IDLOG vs DATALOG^C vs DL on queries all three
//! can express, plus Theorem 2 translations on a family of programs and on
//! generated ones. Every language but IDLOG runs on the reference
//! interpreter's matcher (`idlog_suite::{eval, disj, cut}`), so Theorem 2
//! compares the direct semantics there with the translation on the engine.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use idlog_core::{AnswerSet, EnumBudget, Interner, Query, ValidatedProgram};
use idlog_storage::Database;
use idlog_suite::cut::{all_solutions, CutBudget};
use idlog_suite::disj::minimal_models;
use idlog_suite::eval::{all_outcomes, intended_models, Budget, Dialect};
use idlog_suite::reference::{answer_set, symbol_facts, Rows, V};

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

/// One answer: a relation of unary rows.
fn unary(names: &[&str]) -> Rows {
    names.iter().map(|n| vec![V::Sym(n.to_string())]).collect()
}

/// Run one DATALOG^C program through (a) the direct KN88 semantics on the
/// reference matcher and (b) the Theorem 2 translation + IDLOG enumeration
/// on the engine; assert that both are complete and equal.
fn check_theorem2(src: &str, facts: &[(&str, &[&str])], output: &str) {
    let direct = intended_models(src, &symbol_facts(facts), output, &Budget::default()).unwrap();
    assert!(direct.complete);
    let via_idlog = translated_answers(src, facts, output);
    assert_eq!(direct.answers, via_idlog, "Theorem 2 failed on {output}");
}

/// The answers of the Theorem 2 translation of `src`, enumerated on the
/// engine.
fn translated_answers(src: &str, facts: &[(&str, &[&str])], output: &str) -> BTreeSet<Rows> {
    let interner = Arc::new(Interner::new());
    let ast = idlog_core::parse_program(src, &interner).unwrap();
    let translated = idlog_choice::to_idlog::to_idlog(&ast, &interner).unwrap();
    let validated = ValidatedProgram::new(translated, Arc::clone(&interner)).unwrap();
    let db = db_from(&interner, facts);
    let q = Query::new(validated, output).unwrap();
    let via_idlog = q
        .session(&db)
        .budget(EnumBudget::default())
        .all_answers()
        .unwrap();
    assert!(via_idlog.complete());
    engine(&via_idlog, &interner)
}

#[test]
fn theorem2_on_a_program_family() {
    let emp: &[(&str, &[&str])] = &[
        ("emp", &["a", "x"]),
        ("emp", &["b", "x"]),
        ("emp", &["c", "y"]),
        ("emp", &["d", "y"]),
        ("emp", &["e", "z"]),
    ];
    check_theorem2("s(N) :- emp(N, D), choice((D), (N)).", emp, "s");
    check_theorem2("s(D) :- emp(N, D), choice((N), (D)).", emp, "s");
    check_theorem2("s(N, D) :- emp(N, D), choice((), (N, D)).", emp, "s");
    check_theorem2(
        "picked(N) :- emp(N, D), choice((D), (N)).
         s(D) :- picked(N), emp(N, D).",
        emp,
        "s",
    );
    check_theorem2(
        "s(N, M) :- emp(N, D), emp(M, D), N != M, choice((D), (N, M)).",
        emp,
        "s",
    );
}

#[test]
fn theorem2_with_negation_below_choice() {
    check_theorem2(
        "senior(N) :- emp(N, D), not junior(N).
         s(N) :- senior(N), emp(N, D), choice((D), (N)).",
        &[
            ("emp", &["a", "x"]),
            ("emp", &["b", "x"]),
            ("emp", &["c", "x"]),
            ("junior", &["b"]),
        ],
        "s",
    );
}

/// A three-way agreement on a query all languages express: "choose one
/// element globally".
#[test]
fn three_languages_one_query() {
    let interner = Arc::new(Interner::new());
    let facts: &[(&str, &[&str])] = &[("item", &["a"]), ("item", &["b"])];
    let db = db_from(&interner, facts);
    let edb = symbol_facts(facts);

    // IDLOG.
    let idlog =
        Query::parse_with_interner("pick(X) :- item[](X, 0).", "pick", Arc::clone(&interner))
            .unwrap();
    let a_idlog = engine(
        &idlog
            .session(&db)
            .budget(EnumBudget::default())
            .all_answers()
            .unwrap(),
        &interner,
    );

    // DATALOG^C.
    let choice_src = "pick(X) :- item(X), choice((), (X)).";
    let a_choice = intended_models(choice_src, &edb, "pick", &Budget::default()).unwrap();

    // DL: the natural attempt — pick X unless something else was picked.
    // Under the one-instantiation-at-a-time inflationary semantics this is
    // RACY: pick(a) and pick(b) can both fire before either other_picked
    // fact is derived, so {a, b} is also an outcome. This inadequacy is one
    // of the paper's motivations for explicit non-deterministic constructs.
    let dl_src = "pick(X) :- item(X), not other_picked(X).
                  other_picked(X) :- item(X), pick(Y), X != Y.";
    let a_dl = all_outcomes(dl_src, Dialect::Dl, &edb, "pick", &Budget::default()).unwrap();

    assert_eq!(a_idlog.len(), 2);
    assert_eq!(a_idlog, a_choice.answers);
    assert!(
        a_idlog.is_subset(&a_dl.answers),
        "DL misses an IDLOG answer"
    );
    assert!(
        a_dl.answers.contains(&unary(&["a", "b"])),
        "the DL race outcome must be observable: {:?}",
        a_dl.answers
    );
}

/// The paper (§3.3): IDLOG's n-sample query returns exactly the binomial
/// family of subsets — every answer has n members per group and all C(k, n)
/// subsets occur.
#[test]
fn idlog_n_sampling_is_exactly_binomial() {
    let interner = Arc::new(Interner::new());
    // One department with 4 employees, n = 2 → C(4,2) = 6 answers.
    let facts: &[(&str, &[&str])] = &[
        ("emp", &["a", "d"]),
        ("emp", &["b", "d"]),
        ("emp", &["c", "d"]),
        ("emp", &["e", "d"]),
    ];
    let db = db_from(&interner, facts);
    let q = Query::parse_with_interner(
        "two(N) :- emp[2](N, D, T), T < 2.",
        "two",
        Arc::clone(&interner),
    )
    .unwrap();
    let answers = q.session(&db).all_answers().unwrap();
    assert!(answers.complete());
    assert_eq!(answers.len(), 6);
    for rel in answers.iter() {
        assert_eq!(rel.len(), 2);
    }
}

/// DL and IDLOG on a stratified-negation query: the stratified answer must
/// be among the DL outcomes (DL's unstratified negation can also fire
/// early, so its outcome set may be larger).
#[test]
fn dl_outcomes_contain_the_stratified_answer() {
    let interner = Arc::new(Interner::new());
    let facts: &[(&str, &[&str])] = &[
        ("node", &["a"]),
        ("node", &["b"]),
        ("node", &["c"]),
        ("start", &["a"]),
        ("e", &["a", "b"]),
    ];
    let db = db_from(&interner, facts);
    let src = "
        reach(X) :- start(X).
        reach(Y) :- reach(X), e(X, Y).
        unreach(X) :- node(X), not reach(X).
    ";
    let q = Query::parse_with_interner(src, "unreach", Arc::clone(&interner)).unwrap();
    let idlog_answers = q.session(&db).all_answers().unwrap();
    assert_eq!(idlog_answers.len(), 1);

    let dl = all_outcomes(
        src,
        Dialect::Dl,
        &symbol_facts(facts),
        "unreach",
        &Budget::default(),
    )
    .unwrap();
    let target = engine(&idlog_answers, &interner).pop_first().unwrap();
    assert!(
        dl.answers.contains(&target),
        "stratified answer {target:?} missing from DL outcomes {:?}",
        dl.answers
    );
}

/// The paper's §4 closing remark: cut can be expressed through choice (and
/// hence IDLOG). Demonstrated as containment: the SLD-with-cut answer of
/// "pick one item per key" is one of the choice program's intended models,
/// which equal the IDLOG translation's answers (Theorem 2).
#[test]
fn cut_answer_is_a_choice_model_is_an_idlog_answer() {
    let facts: &[(&str, &[&str])] = &[
        ("item", &["x1", "k1"]),
        ("item", &["x2", "k1"]),
        ("item", &["y1", "k2"]),
        ("item", &["y2", "k2"]),
    ];
    let edb = symbol_facts(facts);

    // Cut: for each key (driven by keyof), commit to the first item.
    let cut_answer = all_solutions(
        "keyof(K) :- item(X, K).
         picked(K, X) :- keyof(K), first(K, X).
         first(K, X) :- item(X, K), !.",
        &edb,
        "picked",
        &CutBudget::default(),
    )
    .unwrap();
    assert_eq!(cut_answer.len(), 2, "one item per key");

    // Choice: the same query non-deterministically.
    let choice_src = "picked(K, X) :- item(X, K), choice((K), (X)).";
    let choice_models = intended_models(choice_src, &edb, "picked", &Budget::default()).unwrap();
    assert!(
        choice_models.answers.contains(&cut_answer),
        "the cut answer must be one of the choice program's intended models"
    );

    // IDLOG (via Theorem 2): same answer set as choice — so the cut answer
    // is an IDLOG answer too.
    let idlog_answers = translated_answers(choice_src, facts, "picked");
    assert_eq!(choice_models.answers, idlog_answers);
    assert!(idlog_answers.contains(&cut_answer));
}

/// Four languages, one query (the paper's §3.2 survey): the guess answer
/// set {∅, {a}, {b}, {a,b}} falls out of IDLOG (Example 2), DL (Example 3),
/// DATALOG^C (§3.2.2), and DATALOG∨ (§3.2 ¶1) alike.
#[test]
fn four_languages_agree_on_the_guess_query() {
    let interner = Arc::new(Interner::new());
    let facts: &[(&str, &[&str])] = &[("person", &["a"]), ("person", &["b"])];
    let db = db_from(&interner, facts);

    // IDLOG (Example 2).
    let idlog = Query::parse_with_interner(
        "sex_guess(X, male) :- person(X).
         sex_guess(X, female) :- person(X).
         man(X) :- sex_guess[1](X, male, 1).",
        "man",
        Arc::clone(&interner),
    )
    .unwrap();
    let a_idlog = engine(
        &idlog
            .session(&db)
            .budget(EnumBudget::default())
            .all_answers()
            .unwrap(),
        &interner,
    );
    let edb = symbol_facts(facts);
    let budget = Budget::default();

    // DL (Example 3).
    let dl_src = "man(X) :- person(X), not woman(X).
                  woman(X) :- person(X), not man(X).";
    let a_dl = all_outcomes(dl_src, Dialect::Dl, &edb, "man", &budget).unwrap();

    // DATALOG^C (§3.2.2's translation example).
    let choice_src = "sex_guess(X, male) :- person(X).
                      sex_guess(X, female) :- person(X).
                      sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)).
                      man(X) :- sex(X, male).";
    let a_choice = intended_models(choice_src, &edb, "man", &budget).unwrap();

    // DATALOG∨ (§3.2 ¶1).
    let disj_src = "man(X) | woman(X) :- person(X).";
    let a_disj = minimal_models(disj_src, &edb, "man", &budget).unwrap();

    assert_eq!(a_idlog.len(), 4);
    assert_eq!(a_idlog, a_dl.answers, "DL differs");
    assert_eq!(a_idlog, a_choice.answers, "DATALOG^C differs");
    assert_eq!(a_idlog, a_disj.answers, "DATALOG∨ differs");
}

/// One generated choice clause `c{k}(…) :- body, choice((X̄), (Ȳ)).` Its
/// body is `emp(N, D)`, then optionally a second positive atom, `not
/// junior(N)` and a disequality. Each body variable is grouped (in X̄),
/// chosen (in Ȳ) or neither, by the base-3 digits of `roles`; Ȳ is never
/// empty.
fn choice_clause(
    k: usize,
    (second, neg, ne, wide, roles): (usize, usize, usize, usize, usize),
) -> String {
    let mut body = vec!["emp(N, D)"];
    let mut vars = vec!["N", "D"];
    match second {
        1 => {
            body.push("emp(M, D)");
            vars.push("M");
        }
        2 => {
            body.push("emp(M, E)");
            vars.extend(["M", "E"]);
        }
        3 => body.push("senior(N)"),
        _ => {}
    }
    if neg == 1 {
        body.push("not junior(N)");
    }
    if ne == 1 {
        body.push(if vars.contains(&"M") {
            "N != M"
        } else {
            "N != m0"
        });
    }
    let (mut grouped, mut chosen) = (Vec::new(), Vec::new());
    for (i, v) in vars.iter().enumerate() {
        match roles / 3usize.pow(i as u32) % 3 {
            1 => grouped.push(*v),
            2 => chosen.push(*v),
            _ => {}
        }
    }
    if chosen.is_empty() {
        chosen.push(grouped.pop().unwrap_or("N"));
    }
    format!(
        "{} :- {}, choice(({}), ({})).",
        choice_head(k, wide),
        body.join(", "),
        grouped.join(", "),
        chosen.join(", ")
    )
}

fn choice_head(k: usize, wide: usize) -> String {
    if wide == 1 {
        format!("c{k}(N, D)")
    } else {
        format!("c{k}(N)")
    }
}

/// The output clause: it reads choice head `read`, optionally joined to
/// `emp` (`join`), and optionally negates `senior` or another choice head
/// (`neg`); `out` picks which bound variable it returns.
fn output_clause(heads: &[usize], (read, join, neg, out): (usize, usize, usize, usize)) -> String {
    let k = read % heads.len();
    let mut body = vec![choice_head(k, heads[k])];
    let mut vars = vec!["N"];
    if heads[k] == 1 {
        vars.push("D");
    }
    if join == 1 {
        body.push("emp(N, F)".into());
        vars.push("F");
    }
    match (neg, heads.len()) {
        (1, _) => body.push("not senior(N)".into()),
        (2, 2) => {
            let j = 1 - k;
            if heads[j] == 1 && !vars.contains(&"D") {
                body.push("emp(N, D)".into());
                vars.push("D");
            }
            body.push(format!("not {}", choice_head(j, heads[j])));
        }
        _ => {}
    }
    format!("out({}) :- {}.", vars[out % vars.len()], body.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2 on generated DATALOG^C programs over `emp(N, D)` and
    /// `junior(N)`: the direct KN88 semantics on the reference matcher and
    /// the IDLOG translation on the engine give the same answer set.
    #[test]
    fn theorem2_on_random_programs(
        sites in proptest::collection::vec((0usize..4, 0usize..2, 0usize..2, 0usize..2, 0usize..81), 1..3),
        output in (0usize..2, 0usize..2, 0usize..3, 0usize..3),
        emps in proptest::collection::vec((0usize..5, 0usize..3), 2..8),
        depts in 2usize..4,
        juniors in proptest::collection::btree_set(0usize..5, 0..3),
    ) {
        let mut src: Vec<String> =
            sites.iter().enumerate().map(|(k, &site)| choice_clause(k, site)).collect();
        src.push("senior(N) :- emp(N, D), not junior(N).".into());
        let wide: Vec<usize> = sites.iter().map(|site| site.3).collect();
        src.push(output_clause(&wide, output));
        let src = src.join("\n");

        let interner = Interner::new();
        let ast = idlog_core::parse_program(&src, &interner).unwrap();
        prop_assume!(idlog_choice::check_conditions(&ast, &interner).is_ok());

        let names: Vec<[String; 2]> =
            emps.iter().map(|(m, d)| [format!("m{m}"), format!("d{}", d % depts)]).collect();
        let junior: Vec<[String; 1]> = juniors.iter().map(|m| [format!("m{m}")]).collect();
        let mut facts: Vec<(&str, Vec<&str>)> = Vec::new();
        facts.extend(names.iter().map(|r| ("emp", r.iter().map(String::as_str).collect())));
        facts.extend(junior.iter().map(|r| ("junior", r.iter().map(String::as_str).collect())));
        let facts: Vec<(&str, &[&str])> = facts.iter().map(|(p, r)| (*p, r.as_slice())).collect();

        // The direct walk runs one fixpoint per functional subset, and their
        // number is a product of group sizes: a case that needs more than
        // `max_states` of them is discarded rather than walked.
        let budget = Budget { max_states: 400, ..Budget::default() };
        let direct = intended_models(&src, &symbol_facts(&facts), "out", &budget).unwrap();
        prop_assume!(direct.complete);
        let via_idlog = translated_answers(&src, &facts, "out");
        prop_assert_eq!(direct.answers, via_idlog, "Theorem 2 failed on\n{}", src);
    }
}
