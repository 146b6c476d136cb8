//! The paper's four-step optimization strategy (§4): replace input-predicate
//! literals whose existential arguments were identified by the adornment
//! algorithm with tid-0 ID-literals.
//!
//! 1. Identify existential arguments with the adornment algorithm and
//!    transform the program accordingly;
//! 2. eliminate identified existential arguments of derived predicates
//!    (both handled by [`crate::rewrite_forall::push_projections`]);
//! 3. for each input-predicate literal `p(Ȳ)` with existential arguments
//!    `X₁…X_n`, replace `p(Ȳ)` by the ID-literal `p[s](Ȳ, 0)` where `s`
//!    corresponds to the arguments in `Ȳ − {X₁…X_n}`;
//! 4. (the thesis's Algorithm D.1 — a further pass propagating the tid
//!    constant into join orders — is not reproducible from the paper and is
//!    omitted; the measurable effect of steps 1–3 is benchmarked instead.)
//!
//! Soundness is Theorem 4: every ∀-existential argument identified by the
//! adornment algorithm is also ∃-existential, so keeping *one tuple per
//! sub-relation* (tid 0) instead of *all* tuples preserves the query.
//!
//! As an independent machine-checked precondition, every ID-literal this
//! pass introduces must be a *choice-free occurrence* in its clause
//! (`idlog_core::choice_free_occurrence`, the taint analysis's base case):
//! a rewrite that fails the check — e.g. a repeated variable inside the
//! rewritten atom, which turns "some tuple with equal columns" into "THE
//! chosen tuple has equal columns" — is reverted literal by literal.

use idlog_common::{Nat, SymbolId};
use idlog_core::choice_free_occurrence;
use idlog_parser::{Atom, Clause, Literal, Program, Term};

use crate::adornment::analyze;
use crate::rewrite_forall::push_projections;

/// Apply steps 1–3: returns the optimized IDLOG program.
///
/// ```
/// use idlog_common::Interner;
/// use idlog_optimizer::to_id_program;
///
/// let interner = Interner::new();
/// let program = idlog_parser::parse_program(
///     "p(X) :- q(X, Z), z(Z, Y), y(W).",
///     &interner,
/// ).unwrap();
/// let rewritten = to_id_program(&program, interner.intern("p"));
/// assert_eq!(
///     rewritten.display(&interner).to_string(),
///     "p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).\n"
/// );
/// ```
pub fn to_id_program(program: &Program, output: SymbolId) -> Program {
    let projected = push_projections(program, output);
    let analysis = analyze(&projected, output);
    let inputs = projected.input_predicates();

    let clauses = projected
        .clauses
        .iter()
        .enumerate()
        .map(|(ci, clause)| {
            let mut rewritten_at: Vec<usize> = Vec::new();
            let body: Vec<Literal> = clause
                .body
                .iter()
                .enumerate()
                .map(|(li, lit)| match lit {
                    Literal::Pos(atom)
                        if !atom.pred.is_id_version() && inputs.contains(&atom.pred.base()) =>
                    {
                        let exist = analysis.occurrence_positions(ci, li);
                        if exist.is_empty() {
                            lit.clone()
                        } else {
                            let grouping: Vec<usize> = (0..atom.terms.len())
                                .filter(|p| !exist.contains(p))
                                .collect();
                            let mut terms = atom.terms.clone();
                            terms.push(Term::Int(Nat::ZERO));
                            rewritten_at.push(li);
                            Literal::Pos(Atom::id_version(atom.pred.base(), grouping, terms))
                        }
                    }
                    other => other.clone(),
                })
                .collect();
            let mut candidate = Clause {
                head: clause.head.clone(),
                body,
                disjunctive: clause.disjunctive,
            };
            // Precondition check: revert any introduced ID-literal that is
            // not choice-free in the rewritten clause. (Reverting one
            // literal never changes another's verdict — the rewrite keeps
            // base terms intact, so variable counts are unaffected.)
            for li in rewritten_at {
                if !choice_free_occurrence(&candidate, li) {
                    candidate.body[li] = clause.body[li].clone();
                }
            }
            candidate
        })
        .collect();
    Program { clauses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;
    use idlog_parser::parse_program;

    fn rewrite(src: &str, output: &str) -> String {
        let i = Interner::new();
        let p = parse_program(src, &i).unwrap();
        let out = i.intern(output);
        to_id_program(&p, out).display(&i).to_string()
    }

    #[test]
    fn paper_section4_example() {
        // p(X) :- q(X,Z), z(Z,Y), y(W)
        // →   p(X) :- q(X,Z), z[1](Z,Y,0), y[](W,0).
        let printed = rewrite("p(X) :- q(X, Z), z(Z, Y), y(W).", "p");
        assert_eq!(printed, "p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).\n");
    }

    #[test]
    fn paper_example8() {
        // Example 6's program after both rewrites:
        // q(X) :- a(X). a(X) :- p(X,Z), a(Z). a(X) :- p[1](X,Y,0).
        let printed = rewrite(
            "q(X) :- a(X, Y).
             a(X, Y) :- p(X, Z), a(Z, Y).
             a(X, Y) :- p(X, Y).",
            "q",
        );
        assert_eq!(
            printed,
            "q(X) :- a(X).\na(X) :- p(X, Z), a(Z).\na(X) :- p[1](X, Y, 0).\n"
        );
    }

    #[test]
    fn no_existential_args_is_identity() {
        let printed = rewrite("q(X, Y) :- p(X, Y).", "q");
        assert_eq!(printed, "q(X, Y) :- p(X, Y).\n");
    }

    #[test]
    fn join_variables_prevent_grouping_removal() {
        // Z joins q and z: only Y is existential in z's occurrence.
        let printed = rewrite("p(X) :- q(X, Z), z(Z, Y).", "p");
        assert!(printed.contains("z[1](Z, Y, 0)"), "{printed}");
        assert!(printed.contains("q(X, Z)"), "{printed}");
    }

    #[test]
    fn repeated_variable_rewrite_is_reverted() {
        // Both columns of z(Y, Y) are existential, but z[](Y, Y, 0) is NOT
        // choice-free (Y occurs twice): it asks whether THE chosen tuple has
        // equal columns, not whether SOME tuple does. The precondition check
        // must keep the original literal.
        let printed = rewrite("p(X) :- q(X), z(Y, Y).", "p");
        assert!(printed.contains("z(Y, Y)"), "{printed}");
        assert!(!printed.contains("z["), "{printed}");
        // A sibling literal with a genuine existential argument is still
        // rewritten: the revert is per-literal, not per-clause.
        let printed = rewrite("p(X) :- q(X), z(Y, Y), y(W).", "p");
        assert!(printed.contains("z(Y, Y)"), "{printed}");
        assert!(printed.contains("y[](W, 0)"), "{printed}");
    }

    #[test]
    fn result_validates_as_idlog() {
        use idlog_core::ValidatedProgram;
        use std::sync::Arc;
        let i = Arc::new(Interner::new());
        let p = parse_program("p(X) :- q(X, Z), z(Z, Y), y(W).", &i).unwrap();
        let out = i.intern("p");
        let rewritten = to_id_program(&p, out);
        ValidatedProgram::new(rewritten, i).unwrap();
    }
}
