//! Goal-directed evaluation adorns along the planner's safe order.
//!
//! Generates point-query programs whose clauses put a negation or a
//! builtin textually before the literal that binds it — shapes a textual
//! left-to-right walk finds unbound — and checks that every one is
//! certified, that its magic-sets rewrite revalidates, and that magic and
//! direct evaluation both equal the reference interpreter's perfect model
//! (`idlog_suite::reference`) at 1, 2 and 8 threads.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use idlog_core::{Query, Strategy as EvalStrategy};
use idlog_suite::reference::{self, Perms};

/// Constants of the generated databases.
const DOMAIN: [&str; 4] = ["c0", "c1", "c2", "c3"];

/// Number of clause shapes [`shape`] knows.
const SHAPES: usize = 6;

/// Clauses for `s`, each with a negation or a builtin textually before its
/// binder; `s` is entered with its first argument bound. `a` and `b` name
/// layer predicates; `r` holds the paths of one edge and then a `p{a}` step.
fn shape(kind: usize, a: usize, b: usize) -> String {
    let r = format!("r(X, Y) :- e(X, Z), p{a}(Z, Y).\n");
    match kind {
        0 => format!("s(X, Y) :- not r(X, Z), p{b}(X, Z), e(Z, Y).\n{r}"),
        1 => format!("s(X, Y) :- X != Y, p{b}(X, Y).\n"),
        2 => format!("s(X, Y) :- Y = Z, p{b}(X, Z).\n"),
        3 => format!("s(X, Y) :- node(X), not p{a}(X, Y), node(Y).\n"),
        4 => format!("s(X, Y) :- not r(Y, Z), e(Y, Z), p{b}(X, Y).\n{r}"),
        _ => "s(X, M) :- succ(N, M), u(X, N).\n\
              u(X, N) :- w(X, N).\n\
              u(X, M) :- u(X, N), succ(N, M), M < 3.\n"
            .to_string(),
    }
}

/// A generated program over the EDB `e`, `node` and `w`, with query `q`,
/// and a database for it as a facts file.
fn generate(layers: usize, kind: usize, seed: u64) -> (String, String) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut src = String::from("p0(X, Y) :- e(X, Y).\n");
    for k in 1..layers {
        let lower = rng.gen_range(0..k);
        src.push_str(&format!("p{k}(X, Y) :- p{lower}(X, Y).\n"));
        if rng.gen_bool(0.5) {
            src.push_str(&format!("p{k}(X, Z) :- p{k}(X, Y), e(Y, Z).\n"));
        } else {
            src.push_str(&format!("p{k}(X, Z) :- p{lower}(X, Y), e(Y, Z).\n"));
        }
        // A constant in a body position varies the adornments reached.
        if rng.gen_bool(0.3) {
            src.push_str(&format!("p{k}(X, Y) :- p{lower}(X, c1), e(X, Y).\n"));
        }
    }
    let (a, b) = (rng.gen_range(0..layers), rng.gen_range(0..layers));
    src.push_str(&shape(kind, a, b));
    if rng.gen_bool(0.5) {
        src.push_str("q(Y) :- s(c0, Y).\n");
    } else {
        src.push_str(&format!("q(Y) :- p{}(c0, Z), s(Z, Y).\n", layers - 1));
    }
    if kind < SHAPES - 1 && rng.gen_bool(0.5) {
        src.push_str("q(Y) :- not p0(Y, Z), e(Y, Z).\n");
    }

    let mut facts = String::from("e(c0, c1).\ne(c1, c2).\n");
    for x in DOMAIN {
        if rng.gen_bool(0.8) {
            facts.push_str(&format!("node({x}).\n"));
        }
        for y in DOMAIN {
            if rng.gen_bool(0.4) {
                facts.push_str(&format!("e({x}, {y}).\n"));
            }
        }
        for n in 0..3 {
            if rng.gen_bool(0.3) {
                facts.push_str(&format!("w({x}, {n}).\n"));
            }
        }
    }
    (src, facts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binders_after_their_use_are_certified_and_magic_equals_the_reference(
        layers in 1..5usize,
        kind in 0..SHAPES,
        seed in any::<u64>(),
    ) {
        let (src, facts) = generate(layers, kind, seed);
        let q = Query::parse(&src, "q").expect("generated programs are valid");
        // Certified exactly when `--strategy magic` has a rewrite to run.
        prop_assert_eq!(
            q.relevance().certified(),
            q.magic_plan().is_some(),
            "certificate and rewrite disagree:\n{}",
            src
        );
        prop_assert!(q.relevance().is_point_query(), "not certified:\n{}", src);

        let mut db = q.new_database();
        idlog_core::load_facts(&facts, &mut db).unwrap();
        let model = reference::perfect_model(&src, &reference::facts(&facts).unwrap(), &Perms::new())
            .unwrap();
        let want = model.get("q").cloned().unwrap_or_default();
        for threads in [1usize, 2, 8] {
            for strategy in [EvalStrategy::SemiNaive, EvalStrategy::Magic] {
                let out = q.session(&db).threads(threads).strategy(strategy).run().unwrap();
                let got = reference::rows(out.relation.iter(), q.interner());
                prop_assert_eq!(
                    &got,
                    &want,
                    "{:?} at {} thread(s) differs from the reference:\n{}{}",
                    strategy,
                    threads,
                    src,
                    facts
                );
            }
        }
    }
}
