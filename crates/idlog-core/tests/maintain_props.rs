//! Generated "incremental ≡ recompute": random insert/retract streams over
//! random small digraphs (self-loops and cycles included) through three
//! programs — linear transitive closure, non-linear closure (whose
//! recursive rule has a same-stratum step past the first) and reach/far
//! (stratified negation, where the change drives the negated literal) — on
//! both backends at 1 and 4 threads. After every write the maintained view
//! equals a fresh canonical evaluation of the updated database, as sets
//! and in canonical rendering, and the perfect model the reference
//! interpreter (`idlog_suite::reference`) computes from the current facts;
//! and it never fell back to recomputing.

use proptest::prelude::*;

use idlog_core::{
    evaluate_governed, BackendKind, CanonicalOracle, Database, EvalOptions, FactDelta,
    MaintainOutcome, Materialized, Query, Tuple, Value,
};
use idlog_suite::reference::{self, Perms, Relations};

const LINEAR_TC: &str = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
const NONLINEAR_TC: &str = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z).";
const REACH_FAR: &str = "reach(X) :- start(X).
                         reach(Y) :- reach(X), e(X, Y).
                         far(X) :- node(X), not reach(X).";

/// Each program, its output, and every relation compared.
const PROGRAMS: [(&str, &str, &[&str]); 3] = [
    (LINEAR_TC, "t", &["e", "t"]),
    (NONLINEAR_TC, "t", &["e", "t"]),
    (REACH_FAR, "far", &["e", "start", "node", "reach", "far"]),
];

const NODES: i64 = 6;

/// One write: insert an edge, retract the live edge at an index (modulo
/// the live count), or — for reach/far — toggle a start node.
#[derive(Debug, Clone, Copy)]
enum Write {
    Insert(i64, i64),
    Retract(usize),
    Start(i64),
}

fn node(n: i64) -> String {
    format!("v{n}")
}

/// Play `writes` against a view of `program` built over `edges`, checking
/// it against a fresh evaluation after each one.
fn check(program: usize, edges: &[(i64, i64)], writes: &[Write], options: EvalOptions) {
    let (src, output, compared) = PROGRAMS[program];
    let q = Query::parse(src, output).unwrap();
    let interner = q.interner().clone();
    let sym = |name: &str| Value::Sym(interner.intern(name));
    let mut db: Database = q.new_database();
    let mut live: Vec<(i64, i64)> = Vec::new();
    for &(a, b) in edges {
        if !live.contains(&(a, b)) {
            db.insert_syms("e", &[&node(a), &node(b)]).unwrap();
            live.push((a, b));
        }
    }
    if program == 2 {
        for n in 0..NODES {
            db.insert_syms("node", &[&node(n)]).unwrap();
        }
        db.insert_syms("start", &[&node(0)]).unwrap();
    }
    let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
    for (step, &write) in writes.iter().enumerate() {
        let delta = match write {
            Write::Insert(a, b) => {
                let t: Tuple = vec![sym(&node(a)), sym(&node(b))].into();
                if !live.contains(&(a, b)) {
                    live.push((a, b));
                }
                db.insert("e", t.clone()).unwrap();
                FactDelta::insert(interner.intern("e"), t)
            }
            Write::Retract(_) if live.is_empty() => continue,
            Write::Retract(i) => {
                let (a, b) = live.remove(i % live.len());
                let t: Tuple = vec![sym(&node(a)), sym(&node(b))].into();
                db.retract("e", &t).unwrap();
                FactDelta::retract(interner.intern("e"), t)
            }
            Write::Start(_) if program != 2 => continue,
            Write::Start(n) => {
                let t: Tuple = vec![sym(&node(n))].into();
                let start = interner.intern("start");
                if db.relation("start").is_some_and(|r| r.contains(&t)) {
                    db.retract("start", &t).unwrap();
                    FactDelta::retract(start, t)
                } else {
                    db.insert("start", t.clone()).unwrap();
                    FactDelta::insert(start, t)
                }
            }
        };
        let outcome = mat.apply(&db, &delta).unwrap();
        assert_ne!(
            outcome,
            MaintainOutcome::Recomputed,
            "step {step}: {write:?}"
        );
        let edb: Relations = db
            .iter()
            .map(|(p, rel)| (interner.resolve(p), reference::rows(rel.iter(), &interner)))
            .collect();
        let model = reference::perfect_model(src, &edb, &Perms::new()).unwrap();
        let kept = reference::view(&model, &interner, |name| {
            mat.relation(name).map(|r| r.iter())
        });
        assert_eq!(kept, model, "step {step} ({write:?}): the reference model");
        let fresh = evaluate_governed(
            q.related_program(),
            &db,
            &mut CanonicalOracle,
            &options,
            None,
        )
        .unwrap();
        for name in compared {
            let (Some(kept), Some(truth)) = (mat.relation(name), fresh.relation(name)) else {
                panic!("step {step}: {name} missing");
            };
            assert!(
                kept.set_eq(truth),
                "step {step} ({write:?}): {name} diverged\n maintained {:?}\n fresh {:?}",
                kept.sorted_canonical(&interner),
                truth.sorted_canonical(&interner),
            );
            assert_eq!(
                kept.sorted_canonical(&interner),
                truth.sorted_canonical(&interner),
                "step {step}: canonical rendering of {name}"
            );
        }
    }
}

fn arb_write() -> impl Strategy<Value = Write> {
    (0u8..5, 0..NODES, 0..NODES).prop_map(|(kind, a, b)| match kind {
        0 | 1 => Write::Insert(a, b),
        2 | 3 => Write::Retract((a * NODES + b) as usize),
        _ => Write::Start(a),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn maintained_views_equal_a_fresh_evaluation_after_every_write(
        program in 0usize..3,
        edges in proptest::collection::vec((0..NODES, 0..NODES), 0..14),
        writes in proptest::collection::vec(arb_write(), 1..16),
    ) {
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            for threads in [1, 4] {
                check(program, &edges, &writes, EvalOptions::new().backend(backend).threads(threads));
            }
        }
    }
}
