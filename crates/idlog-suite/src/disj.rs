//! DATALOG∨: positive disjunctive DATALOG under minimal-model semantics.
//!
//! The paper (§3.2): "A fairly direct way to have a non-deterministic
//! database language is to allow disjunctions in clause heads … However,
//! DATALOG∨ does not provide a convenient mechanism for defining sampling
//! queries." This module supplies that baseline: clauses
//! `a(X) | b(X) :- body` with positive bodies (plus comparisons); the
//! answers of a query are its relations in every **minimal model**.
//!
//! Evaluation is explicit-state search on the [`crate::reference`]
//! matcher: from the input, repeatedly pick a clause instance whose body
//! holds but no head disjunct does, and branch over the disjuncts. Closed
//! states (no violated instance) are models, and the ⊆-minimal ones among
//! them are the minimal models. Exact for the small instances the
//! comparisons in this workspace need; the budget bounds the walk.

use std::collections::BTreeSet;

use crate::eval::{Answers, Budget};
use crate::machine::{self, Fact};
use crate::reference::{self, Clause, Lit, Relations};

/// The `output` relation of every minimal model of the DATALOG∨ program
/// `src` over `edb`.
pub fn minimal_models(
    src: &str,
    edb: &Relations,
    output: &str,
    budget: &Budget,
) -> Result<Answers, String> {
    let clauses = program(src)?;
    let mut stack = vec![machine::start(&clauses, edb, output)?];
    let mut visited = BTreeSet::new();
    let mut closed = Vec::new();
    let mut complete = true;
    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if visited.len() > budget.max_states {
            complete = false;
            break;
        }
        match first_violation(&clauses, &state)? {
            None => closed.push(state),
            Some(disjuncts) => {
                for fact in &disjuncts {
                    let mut next = state.clone();
                    machine::apply(&mut next, std::slice::from_ref(fact));
                    stack.push(next);
                }
            }
        }
    }
    // Minimal models: closed states with no closed state strictly below.
    let facts: Vec<BTreeSet<(&String, &Vec<_>)>> = closed
        .iter()
        .map(|s| {
            s.iter()
                .flat_map(|(p, rows)| rows.iter().map(move |r| (p, r)))
                .collect()
        })
        .collect();
    let mut out = Answers::new();
    out.complete = complete;
    for (state, mine) in closed.iter().zip(&facts) {
        let minimal = facts
            .iter()
            .all(|other| !(other.len() < mine.len() && other.is_subset(mine)));
        if minimal && !out.add(state[output].clone(), budget) {
            break;
        }
    }
    Ok(out)
}

/// The clauses of `src`, checked as DATALOG∨: positive ordinary heads,
/// several of them only joined by `|`; bodies of positive atoms and
/// comparisons; no invented values.
fn program(src: &str) -> Result<Vec<Clause>, String> {
    let clauses = reference::clauses(src)?;
    for (ci, clause) in clauses.iter().enumerate() {
        let problem = if clause.heads.len() > 1 && !clause.disjunctive {
            Err("conjunctive heads belong to DL; DATALOG∨ heads use `|`")
        } else if clause.heads.iter().any(|h| h.negated) {
            Err("DATALOG∨ heads are positive atoms")
        } else if !clause
            .body
            .iter()
            .all(|l| matches!(l, Lit::Pos(_) | Lit::Op(..)))
        {
            Err("DATALOG∨ bodies are positive atoms and comparisons")
        } else {
            machine::checked(clause)
        };
        problem.map_err(|p| format!("invalid clause #{ci}: {p}"))?;
    }
    Ok(clauses)
}

/// The head facts of one clause instance whose body holds in `state` but
/// none of whose heads does; `None` when `state` is a model.
fn first_violation(clauses: &[Clause], state: &Relations) -> Result<Option<Vec<Fact>>, String> {
    for clause in clauses {
        for heads in machine::instances(clause, state)? {
            if !heads.iter().any(|h| machine::holds(state, h)) {
                return Ok(Some(heads));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{facts, names};

    fn models(src: &str, edb: &str, output: &str) -> Answers {
        let edb = facts(edb).unwrap();
        minimal_models(src, &edb, output, &Budget::default()).unwrap()
    }

    fn strings(answers: &Answers) -> Vec<Vec<String>> {
        answers.answers.iter().map(names).collect()
    }

    #[test]
    fn paper_guess_clause_has_all_subsets() {
        // The paper's Example 2 preamble: man(X) ∨ woman(X) ← person(X).
        let models = models(
            "man(X) | woman(X) :- person(X).",
            "person(a). person(b).",
            "man",
        );
        assert!(models.complete);
        let subsets: [&[&str]; 4] = [&[], &["a"], &["a", "b"], &["b"]];
        assert_eq!(strings(&models), subsets);
    }

    #[test]
    fn minimality_excludes_both_disjuncts() {
        // In every minimal model each person is man XOR woman, never both.
        let man = models("man(X) | woman(X) :- person(X).", "person(a).", "man");
        let woman = models("man(X) | woman(X) :- person(X).", "person(a).", "woman");
        assert_eq!(man.answers.len(), 2);
        assert_eq!(woman.answers.len(), 2);
        // No model has a in both: check via a combined predicate.
        let both = models(
            "man(X) | woman(X) :- person(X).
             both(X) :- man(X), woman(X).",
            "person(a).",
            "both",
        );
        for rel in &both.answers {
            assert!(rel.is_empty(), "minimality must forbid man ∧ woman");
        }
    }

    #[test]
    fn single_heads_reduce_to_plain_datalog() {
        let models = models(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            "e(a, b). e(b, c).",
            "tc",
        );
        assert_eq!(strings(&models), [["a b", "a c", "b c"]]);
    }

    #[test]
    fn disjunction_feeding_recursion() {
        // Chosen colors propagate: blue(X) | red(X); mark what's blue.
        let models = models(
            "blue(X) | red(X) :- node(X).
             marked(X) :- blue(X).",
            "node(n1). node(n2).",
            "marked",
        );
        assert_eq!(models.answers.len(), 4);
    }

    #[test]
    fn validation_rejects_negation_and_conjunctive_heads() {
        assert!(program("p(X) :- q(X), not r(X).").is_err());
        assert!(program("a(X) & b(X) :- c(X).").is_err());
        assert!(program("p(X) :- q[](X, 0).").is_err());
    }

    #[test]
    fn budget_truncation_is_reported() {
        let persons: String = (0..12).map(|k| format!("person(p{k}). ")).collect();
        // 2^12 = 4096 minimal models but far more intermediate states.
        let budget = Budget {
            max_states: 100,
            ..Budget::default()
        };
        let edb = facts(&persons).unwrap();
        let src = "a(X) | b(X) :- person(X).";
        let models = minimal_models(src, &edb, "a", &budget).unwrap();
        assert!(!models.complete);
    }
}
