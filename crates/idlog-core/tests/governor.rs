//! Integration tests for the resource-governance layer: limit trips and
//! cancellation return structured errors carrying the partial result, and
//! the partial result is byte-identical at any thread count because limits
//! are decided at deterministic round barriers.

use std::time::Duration;

use idlog_core::{BackendKind, CancelToken, EvalError, LimitKind, Limits, Query};

/// Both storage backends; limit trips must be identical across them.
const BACKENDS: [BackendKind; 2] = [BackendKind::Hash, BackendKind::Columnar];

/// A program whose fixpoint diverges: `count` grows by one every round,
/// forever. Theorem 3 of the paper says we cannot detect this statically —
/// the governor is the runtime answer.
const DIVERGE: &str = "count(0). count(M) :- count(N), plus(N, 1, M).";

fn rounds_limit(n: u64) -> Limits {
    Limits {
        max_rounds: Some(n),
        ..Limits::none()
    }
}

#[test]
fn round_limit_returns_partial_result_identically_at_any_thread_count() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    let mut snapshots = Vec::new();
    for backend in BACKENDS {
        for threads in [1usize, 2, 8] {
            let err = q
                .session(&db)
                .threads(threads)
                .backend(backend)
                .limits(rounds_limit(10))
                .try_run()
                .unwrap_err();
            let EvalError::Limit { limit, partial } = err else {
                panic!("expected Limit at {threads} threads");
            };
            assert_eq!(limit, LimitKind::Rounds);
            let rel = partial.relation("count").expect("partial carries output");
            let tuples: Vec<String> = rel
                .sorted_canonical(q.interner())
                .iter()
                .map(|t| t.display(q.interner()).to_string())
                .collect();
            assert!(!tuples.is_empty(), "partial result must not be empty");
            snapshots.push((tuples, partial.stats()));
        }
    }
    // Same facts, same counters, regardless of parallelism or storage.
    for (i, snap) in snapshots.iter().enumerate().skip(1) {
        assert_eq!(&snapshots[0], snap, "snapshot {i} diverged");
    }
    assert_eq!(
        snapshots[0].1.iterations, 10,
        "tripped at the round barrier"
    );
}

#[test]
fn tuple_limit_trips_deterministically() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    let mut snapshots = Vec::new();
    for backend in BACKENDS {
        for threads in [1usize, 2, 8] {
            let err = q
                .session(&db)
                .threads(threads)
                .backend(backend)
                .limits(Limits {
                    max_tuples: Some(7),
                    ..Limits::none()
                })
                .try_run()
                .unwrap_err();
            let EvalError::Limit { limit, partial } = err else {
                panic!("expected Limit at {threads} threads");
            };
            assert_eq!(limit, LimitKind::Tuples);
            let rel = partial.relation("count").expect("partial carries output");
            snapshots.push((rel.len(), partial.stats()));
        }
    }
    for (i, snap) in snapshots.iter().enumerate().skip(1) {
        assert_eq!(&snapshots[0], snap, "snapshot {i} diverged");
    }
    assert!(
        snapshots[0].1.inserted > 7,
        "tripped after crossing the bound"
    );
}

#[test]
fn byte_limit_trips_on_divergence() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    let err = q
        .session(&db)
        .limits(Limits {
            max_bytes: Some(512),
            ..Limits::none()
        })
        .try_run()
        .unwrap_err();
    let EvalError::Limit { limit, .. } = err else {
        panic!("expected Limit");
    };
    assert_eq!(limit, LimitKind::Bytes);
}

/// The byte estimate is a pure function of (len, arity, sorts) — no hashes,
/// no capacities, no backend internals — so a symbol-heavy diverging
/// program trips `max_bytes` at the *same round* for every thread count and
/// every storage backend.
#[test]
fn byte_limit_trips_at_the_same_round_for_symbol_heavy_programs() {
    let sym_src = "seedy(alpha). seedy(beta). seedy(gamma).
                   count(X, 0) :- seedy(X).
                   count(X, M) :- count(X, N), plus(N, 1, M).";
    let limits = Limits {
        max_bytes: Some(4096),
        ..Limits::none()
    };
    let q = Query::parse(sym_src, "count").unwrap();
    let db = q.new_database();
    let mut rounds = Vec::new();
    for backend in BACKENDS {
        for threads in [1usize, 2, 8] {
            let err = q
                .session(&db)
                .threads(threads)
                .backend(backend)
                .limits(limits)
                .try_run()
                .unwrap_err();
            let EvalError::Limit { limit, partial } = err else {
                panic!("expected Limit at {threads} threads on {backend}");
            };
            assert_eq!(limit, LimitKind::Bytes);
            rounds.push((partial.stats().iterations, partial.stats()));
        }
    }
    for (i, r) in rounds.iter().enumerate().skip(1) {
        assert_eq!(&rounds[0], r, "trip round {i} diverged");
    }
    assert!(rounds[0].0 >= 2, "fixture must survive the first barrier");

    // Same shape with int keys: symbols are estimated heavier (48 vs 16
    // bytes per value), so the symbol-heavy variant must trip earlier.
    let int_src = "seedy(101). seedy(102). seedy(103).
                   count(X, 0) :- seedy(X).
                   count(X, M) :- count(X, N), plus(N, 1, M).";
    let qi = Query::parse(int_src, "count").unwrap();
    let dbi = qi.new_database();
    let err = qi.session(&dbi).limits(limits).try_run().unwrap_err();
    let EvalError::Limit { limit, partial } = err else {
        panic!("expected Limit on the int variant");
    };
    assert_eq!(limit, LimitKind::Bytes);
    assert!(
        rounds[0].0 < partial.stats().iterations,
        "symbol columns must weigh more than int columns ({} vs {})",
        rounds[0].0,
        partial.stats().iterations
    );
}

#[test]
fn zero_deadline_trips_before_any_round_completes() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    for threads in [1usize, 4] {
        let err = q
            .session(&db)
            .threads(threads)
            .limits(Limits {
                deadline: Some(Duration::ZERO),
                ..Limits::none()
            })
            .try_run()
            .unwrap_err();
        let EvalError::Limit { limit, .. } = err else {
            panic!("expected Limit at {threads} threads");
        };
        assert_eq!(limit, LimitKind::Deadline);
    }
}

#[test]
fn short_deadline_stops_a_diverging_run_promptly() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    let started = std::time::Instant::now();
    let err = q
        .session(&db)
        .threads(4)
        .limits(Limits {
            deadline: Some(Duration::from_millis(50)),
            ..Limits::none()
        })
        .try_run()
        .unwrap_err();
    // Generous bound: the point is "seconds, not forever".
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline must stop a diverging run"
    );
    assert!(
        matches!(
            err,
            EvalError::Limit {
                limit: LimitKind::Deadline,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn cancellation_from_another_thread_stops_the_run() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    let token = CancelToken::new();
    let trip = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        trip.cancel();
    });
    let err = q
        .session(&db)
        .threads(2)
        .cancel_token(token)
        .try_run()
        .unwrap_err();
    canceller.join().unwrap();
    let EvalError::Cancelled { partial } = err else {
        panic!("expected Cancelled, got {err:?}");
    };
    // Partial state is coherent (complete rounds only) even if empty.
    let _ = partial.relation("count");
}

#[test]
fn generous_limits_do_not_perturb_a_terminating_run() {
    let src = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";
    let q = Query::parse(src, "tc").unwrap();
    let mut db = q.new_database();
    let chain: String = (0..20).map(|i| format!("e({i}, {}).\n", i + 1)).collect();
    idlog_core::load_facts(&chain, &mut db).unwrap();

    let plain = q.session(&db).run().unwrap();
    let governed = q
        .session(&db)
        .limits(Limits {
            deadline: Some(Duration::from_secs(120)),
            max_rounds: Some(100_000),
            max_tuples: Some(100_000_000),
            max_bytes: Some(1 << 32),
        })
        .try_run()
        .unwrap();
    assert!(plain.relation.set_eq(&governed.relation));
    assert_eq!(plain.stats, governed.stats);
}

#[test]
fn limits_compose_first_barrier_trip_wins() {
    // Both ceilings are crossable; rounds trips first because with one new
    // tuple per round the 3-round barrier precedes the 100-tuple one.
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    let err = q
        .session(&db)
        .limits(Limits {
            max_rounds: Some(3),
            max_tuples: Some(100),
            ..Limits::none()
        })
        .try_run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            EvalError::Limit {
                limit: LimitKind::Rounds,
                ..
            }
        ),
        "{err:?}"
    );
}

/// A round-ceiling trip keeps the tripped stratum's per-rule profile: the
/// partial profile's per-rule rows add up to its totals line, as they do
/// for a run that completes, and its rounds are the iterations counted —
/// on both backends and at one and several threads.
#[test]
fn a_round_trip_keeps_the_tripped_stratums_rule_profile() {
    let q = Query::parse(DIVERGE, "count").unwrap();
    let db = q.new_database();
    for backend in BACKENDS {
        for threads in [1usize, 4] {
            let err = q
                .session(&db)
                .threads(threads)
                .backend(backend)
                .profile(true)
                .limits(rounds_limit(5))
                .try_run()
                .unwrap_err();
            let partial = err
                .partial_output()
                .expect("a trip carries its partial output");
            let profile = partial.profile().expect("profile requested");
            assert_eq!(profile.totals, partial.stats());
            assert!(profile.totals.instantiations > 0);
            let per_rule = profile.per_rule_totals();
            assert!(!per_rule.is_empty(), "the rule table is empty");
            let mut summed = idlog_core::EvalStats::default();
            for rule in &per_rule {
                summed += rule.stats;
            }
            assert_eq!(summed.instantiations, profile.totals.instantiations);
            assert_eq!(summed.derived, profile.totals.derived);
            assert_eq!(summed.inserted, profile.totals.inserted);
            assert_eq!(summed.probes, profile.totals.probes);
            assert_eq!(summed.builtin_evals, profile.totals.builtin_evals);
            let rounds: u64 = profile.strata.iter().map(|s| s.rounds.len() as u64).sum();
            assert_eq!(rounds, profile.totals.iterations);
        }
    }
}
