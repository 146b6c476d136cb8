//! Reproducibility suite.
//!
//! The engine promises bit-for-bit reproducibility along two axes:
//!
//! 1. **Run-to-run**: the same program, database, and oracle produce the
//!    same relations and the same [`EvalStats`] every time — the oracle is
//!    consulted in sorted (name, grouping) order and delta rounds execute a
//!    deterministic (plan, step) work list.
//! 2. **Across thread counts**: `EvalOptions::threads` changes scheduling
//!    only. Work items merge at the round barrier in work-item order, so
//!    relations, statistics, *and* profiles (wall time excepted) are
//!    identical for any thread count.
//! 3. **Across storage backends**: `EvalOptions::backend` changes physical
//!    layout only. Every statistic is a function of relation *contents*
//!    (sets), never of scan order, so the hash and columnar backends
//!    produce the same relations and the same [`EvalStats`].
//!
//! What every axis agrees on is also the right answer: under the canonical
//! ID-functions the shared fixtures evaluate to the perfect model of the
//! reference interpreter (`idlog_suite::reference`).

use std::sync::Arc;

use idlog_core::tid::TidOracle;
use idlog_core::{
    evaluate_governed, BackendKind, CanonicalOracle, EnumBudget, EvalOptions, EvalOutput, Interner,
    Query, SeededOracle, ValidatedProgram,
};
use idlog_storage::{make_id_relation, Database};
use idlog_suite::reference::{self, Perms, Relations};

/// Both storage backends; determinism suites sweep this axis.
const BACKENDS: [BackendKind; 2] = [BackendKind::Hash, BackendKind::Columnar];

fn setup(src: &str, facts: &[(&str, &[&str])]) -> (ValidatedProgram, Database) {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
    let mut db = Database::with_interner(interner);
    for (pred, cols) in facts {
        db.insert_syms(pred, cols).unwrap();
    }
    (program, db)
}

const TC_SRC: &str = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";

/// root → 64 sources → one hub → 64 sinks. The closure's third round
/// replays a delta holding all 64 × 64 source→sink paths — 4097 tuples from
/// only 192 edges, enough to cross the engine's parallel-round threshold
/// (4096) and shard — and derives every root→sink path 64 times over, so
/// the pooled round's merge and dedup do real work.
fn fan_in_fan_out() -> (ValidatedProgram, Database) {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(TC_SRC, Arc::clone(&interner)).unwrap();
    let mut db = Database::with_interner(interner);
    for n in 0..64 {
        db.insert_syms("e", &["root", &format!("src{n}")]).unwrap();
        db.insert_syms("e", &[&format!("src{n}"), "hub"]).unwrap();
        db.insert_syms("e", &["hub", &format!("sink{n}")]).unwrap();
    }
    (program, db)
}

fn assert_same_output(a: &EvalOutput, b: &EvalOutput, rels: &[&str], what: &str) {
    assert_eq!(a.stats(), b.stats(), "stats differ: {what}");
    for name in rels {
        match (a.relation(name), b.relation(name)) {
            (Some(x), Some(y)) => assert!(x.set_eq(y), "relation {name} differs: {what}"),
            (None, None) => {}
            _ => panic!("presence of {name} differs: {what}"),
        }
    }
}

/// A stratum that reads several ID-relations: before the ordering fix the
/// oracle was consulted in hash order, so any call-order-sensitive oracle
/// produced different perfect models run-to-run.
const MULTI_ID_SRC: &str = "
    first_a(X, T) :- a[1](X, Y, T).
    first_b(X, T) :- b[1](X, Y, T).
    first_c(X, T) :- c[1](X, Y, T).
    agree(X) :- first_a(X, T), first_b(X, T), first_c(X, T).
";

const MULTI_ID_FACTS: &[(&str, &[&str])] = &[
    ("a", &["p", "u"]),
    ("a", &["p", "v"]),
    ("a", &["q", "u"]),
    ("b", &["p", "u"]),
    ("b", &["p", "w"]),
    ("b", &["q", "u"]),
    ("c", &["p", "u"]),
    ("c", &["p", "v"]),
    ("c", &["q", "w"]),
];

#[test]
fn seeded_runs_are_reproducible() {
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let (program, db) = setup(MULTI_ID_SRC, MULTI_ID_FACTS);
        let once = evaluate_governed(
            &program,
            &db,
            &mut SeededOracle::new(seed),
            &EvalOptions::new(),
            None,
        )
        .unwrap();
        let (program2, db2) = setup(MULTI_ID_SRC, MULTI_ID_FACTS);
        let twice = evaluate_governed(
            &program2,
            &db2,
            &mut SeededOracle::new(seed),
            &EvalOptions::new(),
            None,
        )
        .unwrap();
        // Fresh interners on both sides: reproducibility may not lean on
        // interning order, only on names.
        let render = |out: &EvalOutput, rel: &str| -> Vec<String> {
            out.relation(rel)
                .map(|r| {
                    r.sorted_canonical(out.interner())
                        .iter()
                        .map(|t| t.display(out.interner()).to_string())
                        .collect()
                })
                .unwrap_or_default()
        };
        for rel in ["first_a", "first_b", "first_c", "agree"] {
            assert_eq!(
                render(&once, rel),
                render(&twice, rel),
                "seed {seed}: relation {rel} not reproducible"
            );
        }
        assert_eq!(once.stats(), twice.stats(), "seed {seed}: stats differ");
    }
}

#[test]
fn seeded_oracle_is_call_order_independent() {
    let (_, db) = setup(MULTI_ID_SRC, MULTI_ID_FACTS);
    let interner = Arc::clone(db.interner());
    let a = db.relation("a").unwrap();
    let b = db.relation("b").unwrap();
    let sym_a = interner.get("a").unwrap();
    let sym_b = interner.get("b").unwrap();

    // Consult a then b…
    let mut o1 = SeededOracle::new(42);
    let a_first = o1.assign(sym_a, &[0], a, &interner);
    let b_second = o1.assign(sym_b, &[0], b, &interner);
    // …and b then a: per-(seed, name, grouping) streams must not shift.
    let mut o2 = SeededOracle::new(42);
    let b_first = o2.assign(sym_b, &[0], b, &interner);
    let a_second = o2.assign(sym_a, &[0], a, &interner);

    assert!(
        make_id_relation(a, &a_first)
            .unwrap()
            .set_eq(&make_id_relation(a, &a_second).unwrap()),
        "assignment for `a` depends on consultation order"
    );
    assert!(
        make_id_relation(b, &b_first)
            .unwrap()
            .set_eq(&make_id_relation(b, &b_second).unwrap()),
        "assignment for `b` depends on consultation order"
    );
}

#[test]
fn thread_count_changes_nothing_on_recursion() {
    // The 4097-tuple delta reaches the parallel-round threshold, so the
    // scoped-pool path really runs (sharded) at 2 and 8 threads.
    let (program, db) = fan_in_fan_out();
    for backend in BACKENDS {
        let baseline = evaluate_governed(
            &program,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::serial().backend(backend),
            None,
        )
        .unwrap();
        // 192 edges + root→hub + 4096 source→sink + 64 root→sink paths.
        assert_eq!(
            baseline.relation("tc").unwrap().len(),
            4353,
            "fixture sanity"
        );
        for threads in [2usize, 8] {
            let par = evaluate_governed(
                &program,
                &db,
                &mut CanonicalOracle,
                &EvalOptions::new().threads(threads).backend(backend),
                None,
            )
            .unwrap();
            assert_same_output(
                &baseline,
                &par,
                &["tc"],
                &format!("{threads} threads, {backend} backend"),
            );
        }
    }
}

#[test]
fn thread_count_changes_nothing_on_multi_rule_strata() {
    // Several rules per stratum + negation + ID-literals: round 0 fans out
    // across plans, delta rounds across (plan, step) items. The 2100 extra
    // start nodes lift the recursive stratum's rounds (2 rules × 2100
    // tuples) over the parallel-round threshold.
    let src = "
        reach(X) :- start(X).
        reach(Y) :- reach(X), e(X, Y).
        alt(Y) :- start(Y).
        alt(Y) :- alt(X), e(X, Y).
        dead(X) :- node(X), not reach(X).
        pick(X) :- node[](X, 0).
    ";
    let facts: &[(&str, &[&str])] = &[
        ("start", &["a"]),
        ("node", &["a"]),
        ("node", &["b"]),
        ("node", &["c"]),
        ("node", &["d"]),
        ("e", &["a", "b"]),
        ("e", &["b", "c"]),
        ("e", &["c", "a"]),
    ];
    let rels = ["reach", "alt", "dead", "pick"];
    for backend in BACKENDS {
        let (program, mut db) = setup(src, facts);
        for s in 0..2100 {
            db.insert_syms("start", &[&format!("s{s}")]).unwrap();
        }
        let baseline = evaluate_governed(
            &program,
            &db,
            &mut SeededOracle::new(3),
            &EvalOptions::serial().backend(backend),
            None,
        )
        .unwrap();
        for threads in [2usize, 8] {
            let par = evaluate_governed(
                &program,
                &db,
                &mut SeededOracle::new(3),
                &EvalOptions::new().threads(threads).backend(backend),
                None,
            )
            .unwrap();
            assert_same_output(
                &baseline,
                &par,
                &rels,
                &format!("{threads} threads, {backend} backend"),
            );
        }
    }
}

/// The shared fixtures' canonical evaluation is the reference's perfect
/// model, relation for relation.
#[test]
fn fixtures_equal_the_reference_model_under_the_canonical_order() {
    type Fixture = fn() -> (ValidatedProgram, Database);
    let cases: [(&str, Fixture); 2] = [
        (TC_SRC, fan_in_fan_out),
        (MULTI_ID_SRC, || setup(MULTI_ID_SRC, MULTI_ID_FACTS)),
    ];
    for (src, fixture) in cases {
        let (program, db) = fixture();
        let interner = db.interner();
        let edb: Relations = db
            .iter()
            .map(|(p, rel)| (interner.resolve(p), reference::rows(rel.iter(), interner)))
            .collect();
        let model = reference::perfect_model(src, &edb, &Perms::new()).unwrap();
        for backend in BACKENDS {
            let out = evaluate_governed(
                &program,
                &db,
                &mut CanonicalOracle,
                &EvalOptions::new().backend(backend),
                None,
            )
            .unwrap();
            let engine = reference::view(&model, interner, |name| {
                out.relation(name).map(|r| r.iter())
            });
            assert_eq!(engine, model, "{backend} backend\n{src}");
        }
    }
}

#[test]
fn enumeration_is_identical_across_thread_counts() {
    let (program, db) = setup(
        "sex_guess(X, male) :- person(X).
         sex_guess(X, female) :- person(X).
         man(X) :- sex_guess[1](X, male, 1).",
        &[("person", &["a"]), ("person", &["b"]), ("person", &["c"])],
    );
    let budget = EnumBudget::default();
    let query = Query::new(program.clone(), "man").unwrap();
    let all_answers = |options: EvalOptions| {
        let options = options.budget(budget).det_fastpath(false);
        query.session(&db).options(options).all_answers().unwrap()
    };
    let serial = all_answers(EvalOptions::serial());
    for backend in BACKENDS {
        for threads in [1usize, 2, 8] {
            let par = all_answers(EvalOptions::new().threads(threads).backend(backend));
            assert!(
                serial.same_answers(&par, program.interner()),
                "answer set differs at {threads} threads on the {backend} backend"
            );
            assert_eq!(serial.models_explored(), par.models_explored());
        }
    }
}

#[test]
fn backends_agree_on_relations_and_stats() {
    // The third reproducibility axis: hash and columnar storage hold the
    // same sets, so every run produces the same relations and EvalStats —
    // at every thread count. (idlog-cli's
    // `corpus_counters_agree_across_threads_and_backends` holds the
    // `programs/*.idl` corpus to the same.)
    type Fixture = fn() -> (ValidatedProgram, Database);
    let cases: [(&str, Fixture, &[&str]); 2] = [
        ("fan_in_fan_out", fan_in_fan_out, &["tc"]),
        (
            "multi_id",
            || setup(MULTI_ID_SRC, MULTI_ID_FACTS),
            &["first_a", "first_b", "first_c", "agree"],
        ),
    ];
    for (name, fixture, rels) in cases {
        let (program, db) = fixture();
        let hash = evaluate_governed(
            &program,
            &db,
            &mut SeededOracle::new(11),
            &EvalOptions::serial().backend(BackendKind::Hash),
            None,
        )
        .unwrap();
        for threads in [1usize, 2, 4] {
            let columnar = evaluate_governed(
                &program,
                &db,
                &mut SeededOracle::new(11),
                &EvalOptions::new()
                    .threads(threads)
                    .backend(BackendKind::Columnar),
                None,
            )
            .unwrap();
            assert_same_output(
                &hash,
                &columnar,
                rels,
                &format!("{name}: hash/serial vs columnar/{threads} threads"),
            );
        }
    }
}

#[test]
fn profile_is_identical_across_thread_counts() {
    // Deltas large enough that the sharded parallel path actually runs;
    // the profile (JSON and table, wall time excluded) must still be
    // byte-identical at every thread count.
    let (program, db) = fan_in_fan_out();
    let run = |threads: usize| {
        evaluate_governed(
            &program,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::new().threads(threads).profile(true),
            None,
        )
        .unwrap()
    };
    let baseline = run(1);
    let base_profile = baseline.profile().expect("profiling enabled");
    let base_json = base_profile.to_json(false);
    let base_table = base_profile.render_table(false);
    assert!(base_json.contains("idlog-profile/1"), "{base_json}");
    assert_eq!(base_profile.totals, baseline.stats());
    for threads in [2usize, 8] {
        let par = run(threads);
        let profile = par.profile().expect("profiling enabled");
        assert_eq!(
            profile.to_json(false),
            base_json,
            "profile JSON differs at {threads} threads"
        );
        assert_eq!(
            profile.render_table(false),
            base_table,
            "profile table differs at {threads} threads"
        );
        // Shard counts are part of the profile and depend only on delta
        // sizes, so the parallel runs really sharded *and* still agreed.
        assert!(
            profile.per_rule_totals().iter().any(|t| t.shards > 1),
            "fixture did not exercise sharding"
        );
    }
}

#[test]
fn profiling_does_not_change_results() {
    let (program, db) = fan_in_fan_out();
    let plain = evaluate_governed(
        &program,
        &db,
        &mut CanonicalOracle,
        &EvalOptions::new(),
        None,
    )
    .unwrap();
    let profiled = evaluate_governed(
        &program,
        &db,
        &mut CanonicalOracle,
        &EvalOptions::new().profile(true),
        None,
    )
    .unwrap();
    assert!(plain.profile().is_none());
    assert_same_output(&plain, &profiled, &["tc"], "profiling on vs off");
}

/// A program whose round 0 scans 4200 tuples — enough to cross the
/// parallel-round threshold — and whose `plus` instances
/// overflow for some pairs. The overflow error itself must be
/// deterministic: parallel rounds report the first failing work item in
/// work-item order, so every thread count sees the serial path's error.
fn overflow_fixture() -> (idlog_core::Query, Database) {
    let src = "sum(M) :- a(X), b(Y), plus(X, Y, M).\n\
               sum(M) :- b(Y), a(X), plus(X, Y, M).";
    let q = idlog_core::Query::parse(src, "sum").unwrap();
    let mut db = q.new_database();
    let mut facts = String::from("b(9223372036854775707).\n");
    for i in 0..4200 {
        facts.push_str(&format!("a({i}).\n"));
    }
    idlog_core::load_facts(&facts, &mut db).unwrap();
    (q, db)
}

#[test]
fn builtin_overflow_error_is_identical_across_thread_counts() {
    let (q, db) = overflow_fixture();
    let serial = q.session(&db).threads(1).run().unwrap_err();
    assert_eq!(
        serial,
        idlog_core::CoreError::Eval {
            message: "arithmetic overflow".into()
        }
    );
    for backend in BACKENDS {
        for threads in [2usize, 8] {
            let par = q
                .session(&db)
                .threads(threads)
                .backend(backend)
                .run()
                .unwrap_err();
            assert_eq!(
                serial, par,
                "overflow error differs at {threads} threads on {backend}"
            );
        }
    }
    // Run-to-run too.
    assert_eq!(serial, q.session(&db).threads(8).run().unwrap_err());
}
