//! Randomized whole-engine soundness harness.
//!
//! Generates random *safe, stratified* IDLOG programs over a three-level
//! predicate hierarchy (inputs → middle → top) with negation and ID-literals
//! only across strictly lower levels, then checks engine invariants:
//!
//! 1. evaluation terminates with the perfect model that the reference
//!    interpreter of the paper's §2 (`idlog_suite::reference`) computes
//!    under the same canonical ID-functions;
//! 2. serial and parallel evaluation agree, statistics and profiles too;
//! 3. every seeded-oracle answer is contained in the enumerated answer set;
//! 4. enumeration is deterministic (two walks agree).

use std::sync::Arc;

use proptest::prelude::*;

use idlog_core::{
    evaluate_governed, CanonicalOracle, EnumBudget, EvalOptions, Interner, Query, SeededOracle,
    ValidatedProgram,
};
use idlog_storage::Database;
use idlog_suite::reference::{self, Perms, Relations, V};

/// Pool of variable names used by generated clauses.
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];

/// Specification of one generated body literal.
#[derive(Clone, Debug)]
enum LitSpec {
    /// Positive atom on a predicate of the given level (0 = input).
    Pos {
        level: usize,
        pred: usize,
        vars: Vec<usize>,
    },
    /// Negated atom on a strictly lower level (vars must be bound).
    Neg {
        level: usize,
        pred: usize,
        vars: Vec<usize>,
    },
    /// ID-literal on a strictly lower level with constant tid 0, grouped by
    /// the first column.
    Id {
        level: usize,
        pred: usize,
        vars: Vec<usize>,
    },
}

/// Specification of one clause for a level-`level` head predicate.
#[derive(Clone, Debug)]
struct ClauseSpec {
    head_pred: usize,
    head_vars: Vec<usize>,
    body: Vec<LitSpec>,
}

/// Everything needed to materialize a program + database.
#[derive(Clone, Debug)]
struct ProgramSpec {
    /// clauses[level-1] = clauses whose head lives at that level (1 or 2).
    clauses: Vec<Vec<ClauseSpec>>,
    /// Facts for the two input predicates (pairs over a 3-symbol domain).
    facts: Vec<(usize, usize, usize)>, // (input pred, col1 symbol, col2 symbol)
}

/// All generated predicates are binary; two predicates per level.
fn pred_name(level: usize, pred: usize) -> String {
    format!("l{level}p{pred}")
}

fn arb_lit(level: usize) -> impl Strategy<Value = LitSpec> {
    // A literal in a level-`level` clause body.
    let pos = (
        0..level + 1,
        0usize..2,
        proptest::collection::vec(0usize..4, 2),
    )
        .prop_map(|(l, p, v)| LitSpec::Pos {
            level: l,
            pred: p,
            vars: v,
        });
    let neg =
        (0..level, 0usize..2, proptest::collection::vec(0usize..4, 2)).prop_map(|(l, p, v)| {
            LitSpec::Neg {
                level: l,
                pred: p,
                vars: v,
            }
        });
    let id =
        (0..level, 0usize..2, proptest::collection::vec(0usize..4, 2)).prop_map(|(l, p, v)| {
            LitSpec::Id {
                level: l,
                pred: p,
                vars: v,
            }
        });
    prop_oneof![3 => pos, 1 => neg, 1 => id]
}

fn arb_clause(level: usize) -> impl Strategy<Value = ClauseSpec> {
    (
        0usize..2,
        proptest::collection::vec(0usize..4, 2),
        proptest::collection::vec(arb_lit(level), 1..4),
    )
        .prop_map(move |(head_pred, head_vars, body)| ClauseSpec {
            head_pred,
            head_vars,
            body,
        })
}

fn arb_program() -> impl Strategy<Value = ProgramSpec> {
    (
        proptest::collection::vec(arb_clause(1), 1..4),
        proptest::collection::vec(arb_clause(2), 1..4),
        proptest::collection::vec((0usize..2, 0usize..3, 0usize..3), 0..8),
    )
        .prop_map(|(l1, l2, facts)| ProgramSpec {
            clauses: vec![l1, l2],
            facts,
        })
}

/// Render the spec to source, repairing safety: head variables not bound by
/// a positive body literal are replaced by a bound variable (or the clause
/// gets a domain atom prepended when nothing binds at all); negated and
/// ID-literal variables are likewise forced to bound ones.
fn render(spec: &ProgramSpec) -> String {
    let mut src = String::new();
    for (li, level_clauses) in spec.clauses.iter().enumerate() {
        let level = li + 1;
        for c in level_clauses {
            // Variables positively bound by ordinary atoms.
            let mut bound: Vec<usize> = c
                .body
                .iter()
                .filter_map(|l| match l {
                    LitSpec::Pos { vars, .. } => Some(vars.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            bound.sort_unstable();
            bound.dedup();
            let mut body_parts: Vec<String> = Vec::new();
            if bound.is_empty() {
                // Prepend a binder so the clause is safe.
                body_parts.push(format!("{}(X, Y)", pred_name(0, 0)));
                bound = vec![0, 1];
            }
            let fix = |v: usize| -> usize {
                if bound.contains(&v) {
                    v
                } else {
                    bound[v % bound.len()]
                }
            };
            for l in &c.body {
                match l {
                    LitSpec::Pos { level, pred, vars } => {
                        body_parts.push(format!(
                            "{}({}, {})",
                            pred_name(*level, *pred),
                            VARS[vars[0]],
                            VARS[vars[1]]
                        ));
                    }
                    LitSpec::Neg { level, pred, vars } => {
                        body_parts.push(format!(
                            "not {}({}, {})",
                            pred_name(*level, *pred),
                            VARS[fix(vars[0])],
                            VARS[fix(vars[1])]
                        ));
                    }
                    LitSpec::Id { level, pred, vars } => {
                        body_parts.push(format!(
                            "{}[1]({}, {}, 0)",
                            pred_name(*level, *pred),
                            VARS[fix(vars[0])],
                            VARS[fix(vars[1])]
                        ));
                    }
                }
            }
            let head = format!(
                "{}({}, {})",
                pred_name(level, c.head_pred),
                VARS[fix(c.head_vars[0])],
                VARS[fix(c.head_vars[1])]
            );
            src.push_str(&format!("{head} :- {}.\n", body_parts.join(", ")));
        }
    }
    src
}

/// The ID-literal in a generated body *binds* its variables too — but our
/// renderer conservatively forces them to already-bound ones, so every
/// rendered program is safe by construction. Some renders may still fail
/// stratification-by-level if a positive same-level atom also appears under
/// an ID at a lower level — impossible here because ID-levels are strictly
/// lower. Hence: every rendered program validates.
fn build(spec: &ProgramSpec) -> (ValidatedProgram, Database) {
    let src = render(spec);
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(&src, Arc::clone(&interner))
        .unwrap_or_else(|e| panic!("generated program failed to validate: {e}\n{src}"));
    let mut db = Database::with_interner(interner);
    // Input relations always exist (binder clauses reference l0p0).
    for p in 0..2 {
        db.declare(&pred_name(0, p), idlog_core::RelType::elementary(2))
            .unwrap();
    }
    for &(p, a, b) in &spec.facts {
        db.insert_syms(&pred_name(0, p), &[&format!("c{a}"), &format!("c{b}")])
            .unwrap();
    }
    (program, db)
}

/// The spec's input facts, for the reference.
fn edb(spec: &ProgramSpec) -> Relations {
    let mut edb = Relations::new();
    for &(p, a, b) in &spec.facts {
        let row = vec![V::Sym(format!("c{a}")), V::Sym(format!("c{b}"))];
        edb.entry(pred_name(0, p)).or_default().insert(row);
    }
    edb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Invariant 1: the engine's semi-naive fixpoint is the perfect model
    /// the reference's naive rounds compute.
    #[test]
    fn fixpoints_are_models_and_strategies_agree(spec in arb_program()) {
        let (program, db) = build(&spec);
        let out =
            evaluate_governed(&program, &db, &mut CanonicalOracle, &EvalOptions::new(), None).unwrap();
        let src = render(&spec);
        let model = reference::perfect_model(&src, &edb(&spec), &Perms::new()).unwrap();
        let engine = reference::view(&model, out.interner(), |name| out.relation(name).map(|r| r.iter()));
        prop_assert!(engine == model, "engine {engine:?}\nreference {model:?}\n{src}");
    }

    /// Invariant 2: parallel and serial evaluation agree — relations *and*
    /// statistics — on random stratified programs.
    #[test]
    fn parallel_and_serial_evaluation_agree(spec in arb_program(), seed in any::<u64>()) {
        let (program, db) = build(&spec);
        let serial = evaluate_governed(
            &program, &db, &mut SeededOracle::new(seed),
            &EvalOptions::serial().profile(true),
            None,
        ).unwrap();
        for threads in [2usize, 8] {
            let par = evaluate_governed(
                &program, &db, &mut SeededOracle::new(seed),
                &EvalOptions::new().threads(threads).profile(true),
                None,
            ).unwrap();
            prop_assert_eq!(
                serial.stats(), par.stats(),
                "stats differ at {} threads\n{}", threads, render(&spec)
            );
            prop_assert_eq!(
                serial.profile().unwrap().to_json(false),
                par.profile().unwrap().to_json(false),
                "profile differs at {} threads\n{}", threads, render(&spec)
            );
            for level in 1..=2usize {
                for pred in 0..2 {
                    let name = pred_name(level, pred);
                    match (serial.relation(&name), par.relation(&name)) {
                        (Some(a), Some(b)) => prop_assert!(
                            a.set_eq(b),
                            "relation {} differs at {} threads\n{}",
                            name, threads, render(&spec)
                        ),
                        (None, None) => {}
                        _ => prop_assert!(false, "presence mismatch on {}", name),
                    }
                }
            }
        }
    }

    /// Invariants 3 and 4: oracle answers are enumerated; enumeration is
    /// deterministic.
    #[test]
    fn oracle_answers_are_enumerated(spec in arb_program(), seed in any::<u64>()) {
        let (program, db) = build(&spec);
        // Query the first level-2 head predicate that actually has clauses.
        let output = pred_name(2, spec.clauses[1][0].head_pred);
        let budget = EnumBudget { max_models: 50_000, max_answers: 50_000 };
        // The fast path off: a certified program walks its ID-functions too.
        let opts = EvalOptions::serial().budget(budget).det_fastpath(false);
        let query = Query::new(program.clone(), &output).unwrap();
        let all = query.session(&db).options(opts).all_answers().unwrap();
        prop_assume!(all.complete()); // skip the rare factorial blowups

        let again = query.session(&db).options(opts).all_answers().unwrap();
        prop_assert!(all.same_answers(&again, program.interner()));

        let out =
            evaluate_governed(&program, &db, &mut SeededOracle::new(seed), &EvalOptions::new(), None)
                .unwrap();
        let rel = out.relation(&output).unwrap();
        let tuples: Vec<_> = rel.iter().cloned().collect();
        prop_assert!(
            all.contains_answer(&tuples),
            "oracle answer not enumerated for {output}\n{}",
            render(&spec)
        );
    }
}
