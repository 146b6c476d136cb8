//! The paper's syntactic conditions on DATALOG^C programs.
//!
//! * **C1** — every clause contains at most one choice operator.
//! * **C2** — a clause containing a choice operator is not *related to* the
//!   head predicate of another clause that contains a choice operator
//!   (relatedness as in the paper's `P/q`: the clause's head transitively
//!   contributes to the predicate).
//!
//! We additionally check that no choice clause is recursive through its own
//! head predicate; the paper's footnote concedes that the \[KN88\] semantics
//! "does not seem to be appropriate for all DATALOG^C programs", and both the
//! direct semantics and the Theorem 2 translation need this exclusion to be
//! well-defined.

use idlog_common::{Interner, SymbolId};
use idlog_core::stratify::DepGraph;
use idlog_parser::{Literal, Program};

use crate::error::{ChoiceError, ChoiceResult};

/// One structured violation of the paper's choice conditions, with clause
/// (and where meaningful, literal) anchors for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChoiceViolation {
    /// C1: more than one choice operator in a clause.
    C1 {
        /// The offending clause.
        clause: usize,
        /// Body indices of every choice literal in it.
        literals: Vec<usize>,
    },
    /// C2: two choice clauses are related (the first's head contributes to
    /// the second's head, or both share a head).
    C2 {
        /// Clause index and head predicate of the contributing choice clause.
        first: (usize, SymbolId),
        /// Clause index and head predicate of the choice clause it reaches.
        second: (usize, SymbolId),
    },
    /// A choice clause recursive through its own head predicate.
    Recursion {
        /// The offending clause.
        clause: usize,
        /// Its head predicate.
        pred: SymbolId,
        /// The body literal through which the head is reachable.
        literal: usize,
    },
}

/// Collect *every* violation of C1, C2, and the no-self-recursion condition
/// (single positive heads assumed — the parser accepts more, the caller's
/// engine validates that part). `graph` is `program`'s dependency graph.
/// Violations come out grouped in that order, so the first element
/// reproduces the historical fail-fast error.
pub fn collect_violations(program: &Program, graph: &DepGraph) -> Vec<ChoiceViolation> {
    let mut violations = Vec::new();

    // C1 plus collect choice clauses.
    let mut choice_clauses: Vec<(usize, SymbolId)> = Vec::new();
    for (ci, clause) in program.clauses.iter().enumerate() {
        let choice_lits: Vec<usize> = clause
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Literal::Choice { .. }))
            .map(|(i, _)| i)
            .collect();
        if choice_lits.len() > 1 {
            violations.push(ChoiceViolation::C1 {
                clause: ci,
                literals: choice_lits.clone(),
            });
        }
        if !choice_lits.is_empty() {
            choice_clauses.push((ci, clause.head[0].atom.pred.base()));
        }
    }

    // C2: for distinct choice clauses i, j: head(i) must not contribute to
    // head(j) (clause i ∉ P/head(j)).
    for &(ci, pi) in &choice_clauses {
        for &(cj, pj) in &choice_clauses {
            if pi == pj {
                continue;
            }
            if graph.upstream([pj]).contains(&pi) {
                violations.push(ChoiceViolation::C2 {
                    first: (ci, pi),
                    second: (cj, pj),
                });
            }
        }
    }
    // Two choice clauses with the same head violate C2 as well (each is
    // trivially related to the other's head).
    for (k, &(ci, pi)) in choice_clauses.iter().enumerate() {
        for &(cj, pj) in &choice_clauses[k + 1..] {
            if pi == pj {
                violations.push(ChoiceViolation::C2 {
                    first: (ci, pi),
                    second: (cj, pj),
                });
            }
        }
    }

    // No recursion through a choice clause's own head: the head must not be
    // reachable from the clause's own body.
    for &(ci, head) in &choice_clauses {
        for (li, lit) in program.clauses[ci].body.iter().enumerate() {
            if let Some(a) = lit.atom() {
                if graph.upstream([a.pred.base()]).contains(&head) {
                    violations.push(ChoiceViolation::Recursion {
                        clause: ci,
                        pred: head,
                        literal: li,
                    });
                    break; // one recursion report per clause
                }
            }
        }
    }
    violations
}

/// Check C1, C2, and the no-self-recursion condition, failing on the first
/// violation found.
pub fn check_conditions(program: &Program, interner: &Interner) -> ChoiceResult<()> {
    match collect_violations(program, &DepGraph::new(program))
        .into_iter()
        .next()
    {
        None => Ok(()),
        Some(ChoiceViolation::C1 { clause, .. }) => Err(ChoiceError::C1Violation { clause }),
        Some(ChoiceViolation::C2 {
            first: (_, pi),
            second: (_, pj),
        }) => Err(ChoiceError::C2Violation {
            first: interner.resolve(pi),
            second: interner.resolve(pj),
        }),
        Some(ChoiceViolation::Recursion { pred, .. }) => Err(ChoiceError::ChoiceRecursion {
            pred: interner.resolve(pred),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_parser::parse_program;

    fn check(src: &str) -> ChoiceResult<()> {
        let i = Interner::new();
        let p = parse_program(src, &i).unwrap();
        check_conditions(&p, &i)
    }

    #[test]
    fn paper_select_emp_is_fine() {
        check("select_emp(N) :- emp(N, D), choice((D), (N)).").unwrap();
    }

    #[test]
    fn two_independent_choices_are_fine() {
        // Paper Example 5's (incorrect but legal) two-sample program.
        check(
            "emp1(N, D) :- emp(N, D), choice((D), (N)).
             emp2(N, D) :- emp(N, D), choice((D), (N)).
             two(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.",
        )
        .unwrap();
    }

    #[test]
    fn c1_two_choices_in_one_clause() {
        let err = check("s(N) :- emp(N, D), choice((D), (N)), choice((N), (D)).").unwrap_err();
        assert!(matches!(err, ChoiceError::C1Violation { .. }));
    }

    #[test]
    fn c2_chained_choice_clauses() {
        // q's choice clause body uses p, which is defined with choice:
        // clause for q is related to p's head.
        let err = check(
            "p(X) :- base(X, Y), choice((X), (Y)).
             q(X) :- p(X), other(X, Y), choice((X), (Y)).",
        )
        .unwrap_err();
        assert!(matches!(err, ChoiceError::C2Violation { .. }));
    }

    #[test]
    fn c2_same_head_twice() {
        let err = check(
            "p(X) :- a(X, Y), choice((X), (Y)).
             p(X) :- b(X, Y), choice((X), (Y)).",
        )
        .unwrap_err();
        assert!(matches!(err, ChoiceError::C2Violation { .. }));
    }

    #[test]
    fn self_recursive_choice_rejected() {
        let err = check("p(X) :- p(Y), e(Y, X), choice((Y), (X)).").unwrap_err();
        assert!(matches!(err, ChoiceError::ChoiceRecursion { .. }));
    }

    #[test]
    fn collect_reports_independent_violations_together() {
        // One C1 clause and, separately, a same-head C2 pair.
        let i = Interner::new();
        let p = parse_program(
            "s(N) :- emp(N, D), choice((D), (N)), choice((N), (D)).
             p(X) :- a(X, Y), choice((X), (Y)).
             p(X) :- b(X, Y), choice((X), (Y)).",
            &i,
        )
        .unwrap();
        let vs = collect_violations(&p, &DepGraph::new(&p));
        assert!(vs.iter().any(
            |v| matches!(v, ChoiceViolation::C1 { clause: 0, literals } if literals == &vec![1, 2])
        ));
        assert!(vs.iter().any(|v| matches!(
            v,
            ChoiceViolation::C2 {
                first: (1, _),
                second: (2, _)
            }
        )));
    }

    #[test]
    fn recursion_without_choice_is_fine() {
        check(
            "tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).
             s(X) :- tc(X, Y), choice((X), (Y)).",
        )
        .unwrap();
    }
}
