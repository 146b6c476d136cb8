//! Property-based tests for the engine: builtin solving against brute
//! force, semi-naive evaluation against a reference fixpoint, oracle
//! soundness, and the bounded-enumeration optimization against the full
//! walk.

use std::sync::Arc;

use proptest::prelude::*;

use idlog_core::{
    builtins::solve, evaluate_governed, BackendKind, CanonicalOracle, EnumBudget, EvalOptions,
    Interner, Query, SeededOracle, ValidatedProgram,
};
use idlog_parser::Builtin;
use idlog_storage::Database;

// ---------------------------------------------------------------- builtins

/// Brute-force the solution set of a builtin over a small grid.
fn brute(op: Builtin, args: &[Option<i64>], limit: i64) -> Vec<Vec<i64>> {
    let n = op.arity();
    let mut out = Vec::new();
    let mut idx = vec![0i64; n];
    loop {
        let candidate: Vec<i64> = (0..n).map(|k| args[k].unwrap_or(idx[k])).collect();
        let holds = match op {
            Builtin::Succ => candidate[1] == candidate[0] + 1,
            Builtin::Plus => candidate[0] + candidate[1] == candidate[2],
            Builtin::Minus => candidate[1] + candidate[2] == candidate[0],
            Builtin::Times => candidate[0] * candidate[1] == candidate[2],
            Builtin::Div => candidate[1] != 0 && candidate[1] * candidate[2] == candidate[0],
            Builtin::Lt => candidate[0] < candidate[1],
            Builtin::Le => candidate[0] <= candidate[1],
            Builtin::Gt => candidate[0] > candidate[1],
            Builtin::Ge => candidate[0] >= candidate[1],
            Builtin::Eq => candidate[0] == candidate[1],
            Builtin::Ne => candidate[0] != candidate[1],
        };
        if holds && candidate.iter().all(|&v| v >= 0 && v <= limit) {
            out.push(candidate);
        }
        // Odometer over the free positions only.
        let mut k = n;
        loop {
            if k == 0 {
                out.sort();
                out.dedup();
                return out;
            }
            k -= 1;
            if args[k].is_some() {
                continue;
            }
            idx[k] += 1;
            if idx[k] <= limit {
                break;
            }
            idx[k] = 0;
        }
    }
}

fn arb_mask(n: usize) -> impl Strategy<Value = Vec<Option<i64>>> {
    proptest::collection::vec(proptest::option::of(0i64..8), n..=n)
}

proptest! {
    /// Wherever `solve` succeeds, its solutions equal brute force over the
    /// grid that contains them.
    #[test]
    fn solve_matches_brute_force(
        op_idx in 0usize..11,
        mask in arb_mask(3),
    ) {
        let ops = [
            Builtin::Succ, Builtin::Plus, Builtin::Minus, Builtin::Times, Builtin::Div,
            Builtin::Lt, Builtin::Le, Builtin::Gt, Builtin::Ge, Builtin::Eq, Builtin::Ne,
        ];
        let op = ops[op_idx];
        let args: Vec<Option<i64>> = mask.into_iter().take(op.arity()).collect();
        prop_assume!(args.len() == op.arity());
        if let Ok(mut sols) = solve(op, &args) {
            sols.sort();
            sols.dedup();
            // All bound inputs are ≤ 7, so every derived value fits in
            // 0..=64 (products of two ≤7 values, sums, etc.); the brute
            // grid over the free positions covers that range.
            let expect = brute(op, &args, 64);
            prop_assert_eq!(sols, expect, "op {:?} args {:?}", op, args);
        }
    }
}

// ------------------------------------------------------------- evaluation

/// Reference reachability by plain BFS.
fn reachable(edges: &[(usize, usize)], starts: &[usize]) -> Vec<usize> {
    let mut seen: Vec<usize> = starts.to_vec();
    let mut frontier = starts.to_vec();
    while let Some(u) = frontier.pop() {
        for &(a, b) in edges {
            if a == u && !seen.contains(&b) {
                seen.push(b);
                frontier.push(b);
            }
        }
    }
    seen.sort_unstable();
    seen.dedup();
    seen
}

proptest! {
    /// Semi-naive reach = BFS reach on random graphs.
    #[test]
    fn reach_matches_bfs(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
        start in 0usize..8,
    ) {
        let q = Query::parse(
            "reach(X) :- start(X). reach(Y) :- reach(X), e(X, Y).",
            "reach",
        ).unwrap();
        let mut db = q.new_database();
        for (a, b) in &edges {
            db.insert_syms("e", &[&format!("v{a}"), &format!("v{b}")]).unwrap();
        }
        db.insert_syms("start", &[&format!("v{start}")]).unwrap();
        let rel = q.session(&db).run().unwrap().relation;
        let mut got: Vec<String> = rel
            .iter()
            .map(|t| q.interner().resolve(t[0].as_sym().unwrap()))
            .collect();
        got.sort();
        let want: Vec<String> =
            reachable(&edges, &[start]).into_iter().map(|v| format!("v{v}")).collect();
        prop_assert_eq!(got, want);
    }

    /// Per-rule profile records partition the total [`idlog_core::EvalStats`]:
    /// summing every rule's counters (plus per-round iteration counts and
    /// ID-relation materializations) reproduces the run's totals exactly.
    #[test]
    fn profile_totals_sum_to_eval_stats(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
        start in 0usize..8,
        threads in 1usize..5,
    ) {
        let interner = Arc::new(Interner::new());
        let program = ValidatedProgram::parse(
            "reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).
             pick(X) :- reach[](X, 0).
             far(X) :- node(X), not reach(X).",
            Arc::clone(&interner),
        ).unwrap();
        let mut db = Database::with_interner(Arc::clone(&interner));
        for v in 0..8 {
            db.insert_syms("node", &[&format!("v{v}")]).unwrap();
        }
        for (a, b) in &edges {
            db.insert_syms("e", &[&format!("v{a}"), &format!("v{b}")]).unwrap();
        }
        db.insert_syms("start", &[&format!("v{start}")]).unwrap();
        let out = evaluate_governed(
            &program,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::new().threads(threads).profile(true),
            None,
        ).unwrap();
        let stats = out.stats();
        let profile = out.profile().unwrap();
        prop_assert_eq!(profile.totals, stats);

        let mut summed = idlog_core::EvalStats::default();
        for t in profile.per_rule_totals() {
            summed.instantiations += t.stats.instantiations;
            summed.derived += t.stats.derived;
            summed.inserted += t.stats.inserted;
            summed.probes += t.stats.probes;
            summed.builtin_evals += t.stats.builtin_evals;
        }
        for stratum in &profile.strata {
            summed.iterations += stratum.rounds.len() as u64;
            summed.id_relations += stratum.id_relations.len() as u64;
        }
        prop_assert_eq!(summed, stats, "profile records do not partition the totals");
    }

    /// Stratified negation: complement = nodes − reach, on random graphs.
    #[test]
    fn negation_is_complement(
        edges in proptest::collection::vec((0usize..6, 0usize..6), 0..15),
        start in 0usize..6,
    ) {
        let q = Query::parse(
            "reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).
             unreach(X) :- node(X), not reach(X).",
            "unreach",
        ).unwrap();
        let mut db = q.new_database();
        for v in 0..6 {
            db.insert_syms("node", &[&format!("v{v}")]).unwrap();
        }
        for (a, b) in &edges {
            db.insert_syms("e", &[&format!("v{a}"), &format!("v{b}")]).unwrap();
        }
        db.insert_syms("start", &[&format!("v{start}")]).unwrap();
        let rel = q.session(&db).run().unwrap().relation;
        let reach = reachable(&edges, &[start]);
        prop_assert_eq!(rel.len(), 6 - reach.len());
    }

    /// Every seeded-oracle answer of a tid query appears in the enumerated
    /// answer set (oracle soundness).
    #[test]
    fn oracle_answers_are_enumerated(
        members in proptest::collection::vec((0usize..3, 0usize..4), 1..8),
        seed in any::<u64>(),
    ) {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        let mut db = q.new_database();
        for (d, m) in &members {
            db.insert_syms("emp", &[&format!("m{m}"), &format!("d{d}")]).unwrap();
        }
        let all = q.session(&db).all_answers().unwrap();
        prop_assert!(all.complete());
        let one = q.session(&db).run_with(&mut SeededOracle::new(seed)).unwrap().relation;
        let tuples: Vec<_> = one.iter().cloned().collect();
        prop_assert!(all.contains_answer(&tuples));
    }

    /// The bounded-enumeration optimization never changes the answer set:
    /// compare a tid-bounded query against the same query with the bound
    /// analysis defeated by exposing the tid and projecting afterwards.
    #[test]
    fn bounded_walk_equals_full_walk(
        members in proptest::collection::vec((0usize..2, 0usize..4), 1..7),
        k in 1i64..3,
    ) {
        let interner = Arc::new(Interner::new());
        // Bounded: tid compared against the constant k.
        let bounded = ValidatedProgram::parse(
            &format!("pick(N) :- emp[2](N, D, T), T < {k}."),
            Arc::clone(&interner),
        ).unwrap();
        // Full: the helper exposes the tid (defeating the analysis), and the
        // output projects it away — semantically the same query.
        let full = ValidatedProgram::parse(
            &format!(
                "expose(N, T) :- emp[2](N, D, T).
                 pick(N) :- expose(N, T), T < {k}."
            ),
            Arc::clone(&interner),
        ).unwrap();
        let mut db = Database::with_interner(Arc::clone(&interner));
        for (d, m) in &members {
            db.insert_syms("emp", &[&format!("m{m}"), &format!("d{d}")]).unwrap();
        }
        let budget = EnumBudget { max_models: 200_000, max_answers: 100_000 };
        let opts = EvalOptions::serial().budget(budget).det_fastpath(false);
        let all_answers = |program: &ValidatedProgram| {
            let query = Query::new(program.clone(), "pick").unwrap();
            query.session(&db).options(opts).all_answers().unwrap()
        };
        let (a, b) = (all_answers(&bounded), all_answers(&full));
        prop_assert!(a.complete() && b.complete());
        prop_assert!(a.same_answers(&b, &interner));
        // And the bounded walk is never larger.
        prop_assert!(a.models_explored() <= b.models_explored());
    }

    /// Evaluation is monotone in the input for negation-free programs:
    /// adding facts never removes derived tuples.
    #[test]
    fn positive_programs_are_monotone(
        edges in proptest::collection::vec((0usize..5, 0usize..5), 1..12),
    ) {
        let interner = Arc::new(Interner::new());
        let program = ValidatedProgram::parse(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            Arc::clone(&interner),
        ).unwrap();
        let mut db_small = Database::with_interner(Arc::clone(&interner));
        let mut db_big = Database::with_interner(Arc::clone(&interner));
        for (i, (a, b)) in edges.iter().enumerate() {
            if i % 2 == 0 {
                db_small.insert_syms("e", &[&format!("v{a}"), &format!("v{b}")]).unwrap();
            }
            db_big.insert_syms("e", &[&format!("v{a}"), &format!("v{b}")]).unwrap();
        }
        let small =
            evaluate_governed(&program, &db_small, &mut CanonicalOracle, &EvalOptions::new(), None)
                .unwrap();
        let big =
            evaluate_governed(&program, &db_big, &mut CanonicalOracle, &EvalOptions::new(), None)
                .unwrap();
        let small_tc = small.relation("tc").unwrap();
        let big_tc = big.relation("tc").unwrap();
        for t in small_tc.iter() {
            prop_assert!(big_tc.contains(t));
        }
    }
}

proptest! {
    /// Builtin failures are part of the determinism contract: whether a
    /// random arithmetic program overflows — and the exact error it
    /// overflows with — is identical at 1, 2, and 8 threads, on either
    /// storage backend, and matches run-to-run.
    #[test]
    fn overflow_outcome_is_thread_count_invariant(
        offsets in proptest::collection::vec(0i64..200, 1..40),
        near_max in (i64::MAX - 150)..i64::MAX,
    ) {
        let q = Query::parse("sum(M) :- a(X), b(Y), plus(X, Y, M).", "sum").unwrap();
        let mut db = q.new_database();
        let mut facts = format!("b({near_max}).\n");
        for off in &offsets {
            facts.push_str(&format!("a({off}).\n"));
        }
        idlog_core::load_facts(&facts, &mut db).unwrap();
        let serial = q.session(&db).threads(1).run();
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            for threads in [1usize, 2, 8] {
                let par = q.session(&db).threads(threads).backend(backend).run();
                match (&serial, &par) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(
                            a.relation.set_eq(&b.relation),
                            "{threads} threads, {backend}"
                        );
                        prop_assert_eq!(a.stats, b.stats, "{} threads, {}", threads, backend);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "{} threads, {}", threads, backend),
                    _ => prop_assert!(
                        false,
                        "Ok/Err disagreement at {threads} threads on {backend}"
                    ),
                }
            }
        }
    }
}

// ------------------------------------------------- the ID-relation contract

/// Names whose interning order (as listed) is the reverse of their name
/// order, so raw symbol ids and canonical ranks disagree.
const NAMES: [&str; 6] = ["zeta", "yam", "x1", "mid", "beta", "alpha"];

/// A relation of the given column sorts (`true` = symbols) from small codes,
/// and the interner its symbols live in.
fn coded_relation(symbolic: &[bool], rows: &[Vec<usize>]) -> (Interner, idlog_core::Relation) {
    use idlog_core::{Nat, RelType, Sort, Tuple, Value};
    let interner = Interner::new();
    for name in NAMES {
        interner.intern(name);
    }
    let sorts = symbolic.iter().map(|&s| if s { Sort::U } else { Sort::I });
    let mut rel = idlog_core::Relation::new(RelType::new(sorts.collect()));
    for row in rows {
        let values = symbolic.iter().zip(row).map(|(&s, &code)| match s {
            true => Value::Sym(interner.intern(NAMES[code % NAMES.len()])),
            false => Value::Int(Nat::new(code as i64).unwrap()),
        });
        rel.insert(Tuple::new(values.collect::<Vec<_>>())).unwrap();
    }
    (interner, rel)
}

proptest! {
    /// For every oracle, `id_relation` under a bound `k` is the ID-relation
    /// of the oracle's own assignment filtered to `tid < k` — same tuples,
    /// same scan order, same group count; `k = 0` is the empty relation of
    /// the ID type.
    #[test]
    fn bounded_id_relation_is_the_full_one_filtered(
        symbolic in proptest::collection::vec(any::<bool>(), 1..=3),
        rows in proptest::collection::vec(proptest::collection::vec(0usize..6, 3), 0..40),
        grouping_bits in 0usize..8,
        k in prop_oneof![Just(None), (0usize..=4).prop_map(Some), Just(Some(17))],
        seed in 0u64..4,
    ) {
        use idlog_core::{ExplicitOracle, TidOracle};
        use idlog_storage::{group_by, make_id_relation};

        let (interner, rel) = coded_relation(&symbolic, &rows);
        let arity = symbolic.len();
        // Any subset of the columns: `[]` up to all of them.
        let grouping: Vec<usize> = (0..arity).filter(|c| grouping_bits >> c & 1 == 1).collect();
        let groups = group_by(&rel, &grouping, &interner);
        let pred = interner.intern("r");

        let mut explicit = ExplicitOracle::new();
        let rotated = |n: usize| (0..n as i64).map(|r| (r + 1) % n as i64).collect();
        let perms = groups.group_sizes().map(rotated).collect();
        explicit.set("r", grouping.clone(), perms);
        let oracles: [(&str, Box<dyn TidOracle>); 3] = [
            ("canonical", Box::new(CanonicalOracle)),
            ("seeded", Box::new(SeededOracle::new(seed))),
            ("explicit", Box::new(explicit)),
        ];
        for (name, mut oracle) in oracles {
            let assignment = oracle.assign(pred, &grouping, &rel, &interner);
            let full = make_id_relation(&rel, &assignment).unwrap();
            let limit = k.map_or(i64::MAX, |k| k as i64);
            let expected: Vec<_> = full
                .iter()
                .filter(|t| t[arity].as_int().unwrap() < limit)
                .cloned()
                .collect();
            let built = oracle.id_relation(pred, &grouping, &rel, &interner, k).unwrap();
            prop_assert_eq!(built.relation.rtype(), full.rtype(), "{}", name);
            prop_assert_eq!(built.groups, groups.group_count(), "{}", name);
            let got: Vec<_> = built.relation.iter().cloned().collect();
            prop_assert_eq!(&got, &expected, "{} under bound {:?}", name, k);
            if k == Some(0) {
                prop_assert!(built.relation.is_empty(), "{}", name);
            }
        }
    }
}
