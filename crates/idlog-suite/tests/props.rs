//! Properties of the baseline semantics built on the reference matcher.

use proptest::prelude::*;

use idlog_suite::eval::{
    all_outcomes, deterministic_inflationary, intended_models, Budget, Dialect,
};
use idlog_suite::reference::{Relations, V};

fn sym(s: String) -> V {
    V::Sym(s)
}

fn persons(n: usize) -> Relations {
    let rows = (0..n).map(|k| vec![sym(format!("p{k}"))]).collect();
    Relations::from([("person".to_string(), rows)])
}

const GUESS: &str = "
    man(X) :- person(X), not woman(X).
    woman(X) :- person(X), not man(X).
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Example 3 generalizes: on n persons the guess program has exactly 2^n
    /// outcomes for `man` (every subset).
    #[test]
    fn guess_program_has_all_subsets(n in 0usize..4) {
        let outcomes =
            all_outcomes(GUESS, Dialect::Dl, &persons(n), "man", &Budget::default()).unwrap();
        prop_assert!(outcomes.complete);
        prop_assert_eq!(outcomes.answers.len(), 1 << n);
    }

    /// Positive DL programs are confluent: exactly one outcome, equal to
    /// the deterministic inflationary fixpoint.
    #[test]
    fn positive_programs_are_confluent(
        edges in proptest::collection::vec((0usize..4, 0usize..4), 0..8),
    ) {
        let src = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";
        let rows = edges
            .iter()
            .map(|(a, b)| vec![sym(format!("v{a}")), sym(format!("v{b}"))])
            .collect();
        let edb = Relations::from([("e".to_string(), rows)]);
        let all = all_outcomes(src, Dialect::Dl, &edb, "tc", &Budget::default()).unwrap();
        let det = deterministic_inflationary(src, &edb, "tc").unwrap();
        prop_assert_eq!(all.answers.into_iter().collect::<Vec<_>>(), vec![det]);
    }

    /// Functional-subset invariant: every intended model of the one-per-
    /// group program selects exactly one member per nonempty group.
    #[test]
    fn intended_models_are_functional(
        members in proptest::collection::vec((0usize..3, 0usize..4), 0..9),
    ) {
        let rows = members
            .iter()
            .map(|(d, m)| vec![sym(format!("m{m}")), sym(format!("d{d}"))])
            .collect();
        let edb = Relations::from([("emp".to_string(), rows)]);
        let src = "s(N, D) :- emp(N, D), choice((D), (N)).";
        let models = intended_models(src, &edb, "s", &Budget::default()).unwrap();
        let groups: std::collections::BTreeSet<usize> = members.iter().map(|&(d, _)| d).collect();
        for rel in &models.answers {
            // One tuple per distinct department.
            prop_assert_eq!(rel.len(), groups.len());
            let depts: std::collections::BTreeSet<&V> = rel.iter().map(|row| &row[1]).collect();
            prop_assert_eq!(depts.len(), groups.len(), "FD Dept -> Name violated");
        }
    }
}
