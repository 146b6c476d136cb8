//! Fault-injection tests (`--features failpoints`): injected panics, errors,
//! and delays at every site must surface as clean structured errors — never
//! process aborts, deadlocks, partial merges, or nondeterministic output.
//!
//! The failpoint registry is process-global, so every test serializes on
//! `SCENARIO` and clears the registry before releasing it.

#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use idlog_common::failpoint;
use idlog_core::{CoreError, EvalError, Query};

static SCENARIO: Mutex<()> = Mutex::new(());

/// Run `f` with `spec` configured, silencing the default panic hook so the
/// intentionally injected panics do not spray backtraces over test output.
/// The registry is cleared and the hook restored before returning.
fn with_failpoints<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let _guard = SCENARIO.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::configure(spec).expect("test spec must parse");
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev_hook);
    failpoint::clear();
    out
}

const TC: &str = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";

/// A 12-edge chain hanging off a 2100-leaf star: the chain gives the
/// fixpoint its rounds, the star makes round 0 (two rules scanning 2112
/// edges each) cross the engine's parallel-round threshold, so faults at
/// `threads > 1` really fire inside the scoped pool.
fn tc_query() -> (Query, idlog_core::Database) {
    let q = Query::parse(TC, "tc").unwrap();
    let mut db = q.new_database();
    let chain: String = (0..12).map(|i| format!("e({i}, {}).\n", i + 1)).collect();
    let star: String = (100..2200).map(|i| format!("e(99, {i}).\n")).collect();
    idlog_core::load_facts(&(chain + &star), &mut db).unwrap();
    (q, db)
}

fn expect_internal(err: EvalError) -> (Option<usize>, String) {
    match err {
        EvalError::Core(CoreError::Internal { clause, message }) => (clause, message),
        other => panic!("expected Internal, got {other:?}"),
    }
}

#[test]
fn worker_panic_surfaces_as_internal_error_with_clause() {
    for threads in [1usize, 4] {
        let err = with_failpoints("eval.worker=panic", || {
            let (q, db) = tc_query();
            q.session(&db).threads(threads).try_run().unwrap_err()
        });
        let (clause, message) = expect_internal(err);
        assert!(clause.is_some(), "worker faults carry the rule's clause");
        assert!(message.contains("injected panic"), "{message}");
    }
}

#[test]
fn worker_oom_panic_is_contained() {
    let err = with_failpoints("eval.worker=oom", || {
        let (q, db) = tc_query();
        q.session(&db).threads(4).try_run().unwrap_err()
    });
    let (_, message) = expect_internal(err);
    assert!(message.contains("allocation failure"), "{message}");
}

#[test]
fn worker_error_action_surfaces_as_internal_error() {
    let err = with_failpoints("eval.worker=err:disk on fire", || {
        let (q, db) = tc_query();
        q.session(&db).try_run().unwrap_err()
    });
    let (clause, message) = expect_internal(err);
    assert!(clause.is_some());
    assert!(message.contains("disk on fire"), "{message}");
}

#[test]
fn worker_delay_does_not_perturb_results_at_any_thread_count() {
    // Adversarial scheduling: slow every work item down and check the
    // output is still byte-identical to the clean run at 1/2/8 threads.
    let (q, db) = tc_query();
    // The baseline also takes the scenario lock (with an empty spec) so a
    // concurrent test's failpoints cannot leak into it.
    let clean = with_failpoints("", || q.session(&db).run().unwrap());
    for threads in [1usize, 2, 8] {
        let delayed = with_failpoints("eval.worker=delay:3", || {
            q.session(&db).threads(threads).run().unwrap()
        });
        assert!(
            clean.relation.set_eq(&delayed.relation),
            "{threads} threads"
        );
        assert_eq!(clean.stats, delayed.stats, "{threads} threads");
    }
}

#[test]
fn storage_insert_panic_is_contained() {
    // Facts are loaded before the failpoint arms, so the first tripped
    // insert is a derived tuple inside the governed evaluation.
    let err = with_failpoints("storage.insert=panic", || {
        let (q, db) = tc_query();
        q.session(&db).threads(2).try_run().unwrap_err()
    });
    let (_, message) = expect_internal(err);
    assert!(message.contains("storage.insert"), "{message}");
}

#[test]
fn oracle_assign_faults_are_contained() {
    let src = "pick(N) :- emp[2](N, D, 0).";
    for spec in ["oracle.assign=panic", "oracle.assign=err:oracle down"] {
        let err = with_failpoints(spec, || {
            let q = Query::parse(src, "pick").unwrap();
            let mut db = q.new_database();
            idlog_core::load_facts("emp(a, s). emp(b, s).", &mut db).unwrap();
            q.session(&db).try_run().unwrap_err()
        });
        let (_, message) = expect_internal(err);
        assert!(message.contains("oracle.assign"), "{spec}: {message}");
    }
}

#[test]
fn enum_branch_faults_are_contained() {
    // An uncertified one-of-many choice forces real enumeration; threads > 1
    // with more than one assignment spawns the branch-worker pool where the
    // site lives.
    let src = "pick(X) :- item[](X, 0).";
    for spec in ["enum.branch=panic", "enum.branch=err:branch fault"] {
        let err = with_failpoints(spec, || {
            let q = Query::parse(src, "pick").unwrap();
            let mut db = q.new_database();
            idlog_core::load_facts("item(a). item(b). item(c).", &mut db).unwrap();
            q.session(&db)
                .threads(4)
                .all_answers()
                .expect_err("injected branch fault must fail enumeration")
        });
        match err {
            CoreError::Internal { message, .. } => {
                assert!(message.contains("enum.branch"), "{spec}: {message}")
            }
            other => panic!("{spec}: expected Internal, got {other:?}"),
        }
    }
}

#[test]
fn enum_branch_delay_keeps_answer_sets_identical() {
    let src = "pick(X) :- item[](X, 0).";
    let q = Query::parse(src, "pick").unwrap();
    let mut db = q.new_database();
    idlog_core::load_facts("item(a). item(b). item(c). item(d).", &mut db).unwrap();
    let clean = with_failpoints("", || q.session(&db).threads(4).all_answers().unwrap());
    let delayed = with_failpoints("enum.branch=delay:5", || {
        q.session(&db).threads(4).all_answers().unwrap()
    });
    assert_eq!(
        clean.to_sorted_strings(q.interner()),
        delayed.to_sorted_strings(q.interner())
    );
}

#[test]
fn clearing_failpoints_restores_normal_evaluation() {
    let result = with_failpoints("eval.worker=panic", || {
        let (q, db) = tc_query();
        let _ = q.session(&db).try_run().unwrap_err();
        failpoint::clear();
        q.session(&db).try_run()
    });
    assert!(result.is_ok(), "clean run after clear(): {result:?}");
}
