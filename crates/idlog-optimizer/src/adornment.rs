//! The adornment algorithm of \[RBK88\] (as quoted in the paper, §4):
//!
//! > "if a variable Y appears in a body literal and does not appear anywhere
//! > else in the clause, except possibly in an existential argument of the
//! > head, then the argument position corresponding to Y is existential."
//!
//! Because head-argument existentiality depends on body-occurrence
//! existentiality of the *same* predicate elsewhere, the definition is a
//! greatest fixpoint: we start from "every position of every non-output
//! predicate is existential" and delete violations until stable.
//!
//! The result distinguishes:
//!
//! * **predicate-level** marks — an argument of a predicate is existential
//!   when the local condition holds at *every* body occurrence; these drive
//!   the projection-pushing rewrite for IDB predicates;
//! * **occurrence-level** marks — the local condition at one body literal;
//!   these drive the ID-literal rewrite for input-predicate occurrences
//!   (paper's step 3).

use idlog_common::{FxHashMap, FxHashSet, SymbolId};
use idlog_core::columns::{ClauseColumns, ColumnGraph, Role, Use};
use idlog_parser::{Literal, PredicateRef, Program};

/// Result of the adornment analysis w.r.t. one output predicate.
#[derive(Debug, Clone)]
pub struct ExistentialAnalysis {
    /// Predicate-level marks: `(pred, 0-based position)`.
    pred_level: FxHashSet<(SymbolId, usize)>,
    /// Occurrence-level marks: `(clause index, body literal index)` →
    /// existential positions of that occurrence, ascending.
    occurrence: FxHashMap<(usize, usize), Vec<usize>>,
    output: SymbolId,
}

impl ExistentialAnalysis {
    /// Is `(pred, pos)` existential at every body occurrence?
    pub fn pred_existential(&self, pred: SymbolId, pos: usize) -> bool {
        self.pred_level.contains(&(pred, pos))
    }

    /// All predicate-level existential positions of `pred`, ascending.
    pub fn pred_positions(&self, pred: SymbolId) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .pred_level
            .iter()
            .filter(|&&(p, _)| p == pred)
            .map(|&(_, pos)| pos)
            .collect();
        v.sort_unstable();
        v
    }

    /// Existential positions of one body occurrence, ascending.
    pub fn occurrence_positions(&self, clause: usize, literal: usize) -> &[usize] {
        self.occurrence
            .get(&(clause, literal))
            .map_or(&[], |v| v.as_slice())
    }

    /// The output predicate the analysis was computed against.
    pub fn output(&self) -> SymbolId {
        self.output
    }
}

/// Run the adornment analysis on `program` w.r.t. `output`, on the use
/// lists of its column graph.
///
/// Only ordinary positive body literals participate; negated literals,
/// builtins, and ID-literals block existentiality of the variables they
/// mention (a variable occurring there "appears somewhere else").
pub fn analyze(program: &Program, output: SymbolId) -> ExistentialAnalysis {
    let columns = ColumnGraph::new(program);
    // Candidate predicate-level set: every position of every predicate
    // except the output's.
    let mut arities: FxHashMap<SymbolId, usize> = FxHashMap::default();
    for clause in &program.clauses {
        for h in &clause.head {
            arities.insert(h.atom.pred.base(), h.atom.base_arity());
        }
        for l in &clause.body {
            if let Some(a) = l.atom() {
                arities.insert(a.pred.base(), a.base_arity());
            }
        }
    }
    let mut pred_level: FxHashSet<(SymbolId, usize)> = arities
        .iter()
        .filter(|&(&p, _)| p != output)
        .flat_map(|(&p, &n)| (0..n).map(move |j| (p, j)))
        .collect();

    // Greatest fixpoint: delete (p, j) whenever some body occurrence of p
    // violates the local condition under the current pred_level. Deletion
    // is monotone, so the order of deletions cannot change the result.
    loop {
        let (mut occurrence, mut violated) = (FxHashMap::default(), Vec::new());
        for (ci, (clause, cols)) in program.clauses.iter().zip(&columns.0).enumerate() {
            for (li, lit) in clause.body.iter().enumerate() {
                let Literal::Pos(atom) = lit else { continue };
                let positions = local_existential(cols, li, &pred_level);
                if let PredicateRef::Ordinary(p) = atom.pred {
                    let broken = (0..atom.terms.len()).filter(|j| !positions.contains(j));
                    violated.extend(broken.map(|j| (p, j)));
                }
                occurrence.insert((ci, li), positions);
            }
        }
        let before = pred_level.len();
        for v in violated {
            pred_level.remove(&v);
        }
        if pred_level.len() == before {
            occurrence.retain(|_, positions| !positions.is_empty());
            return ExistentialAnalysis {
                pred_level,
                occurrence,
                output,
            };
        }
    }
}

/// The local condition at the positive body literal `li`: the positions
/// holding a variable whose every other use is a head column currently
/// marked predicate-level existential — so it appears once in this
/// literal, in no other body literal, and in the head only at existential
/// positions.
fn local_existential(
    cols: &ClauseColumns,
    li: usize,
    pred_level: &FxHashSet<(SymbolId, usize)>,
) -> Vec<usize> {
    let existential = |u: &Use| match u.role {
        Role::Head(hp) => pred_level.contains(&(hp, u.pos)),
        _ => false,
    };
    let uses = cols.in_literal(li);
    uses.iter()
        .filter(|u| cols.uses_of(u.var).all(|o| o == *u || existential(o)))
        .map(|u| u.pos)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;
    use idlog_parser::parse_program;

    fn run(src: &str, output: &str) -> (ExistentialAnalysis, Interner) {
        let i = Interner::new();
        let p = parse_program(src, &i).unwrap();
        let out = i.intern(output);
        (analyze(&p, out), i)
    }

    #[test]
    fn paper_example6() {
        // [1] q(X) :- a(X, Y).  [2] a(X, Y) :- p(X, Z), a(Z, Y).
        // [3] a(X, Y) :- p(X, Y).
        let (an, i) = run(
            "q(X) :- a(X, Y).
             a(X, Y) :- p(X, Z), a(Z, Y).
             a(X, Y) :- p(X, Y).",
            "q",
        );
        let a = i.get("a").unwrap();
        let p = i.get("p").unwrap();
        // Paper: a's second argument is existential; a's first is not
        // (X flows to the output); p's first is not.
        assert!(an.pred_existential(a, 1));
        assert!(!an.pred_existential(a, 0));
        assert!(!an.pred_existential(p, 0));
        // p's second argument is existential in [3] (occurrence level) but
        // NOT in [2] (Z joins with a), hence not predicate-level.
        assert!(!an.pred_existential(p, 1));
        assert_eq!(an.occurrence_positions(2, 0), &[1]); // clause [3], p(X,Y)
        assert_eq!(an.occurrence_positions(1, 0), &[] as &[usize]); // [2], p(X,Z)
    }

    #[test]
    fn paper_section4_opening_program() {
        // p(X) :- q(X, Z), z(Z, Y), y(W): Y and W are existential.
        let (an, _) = run("p(X) :- q(X, Z), z(Z, Y), y(W).", "p");
        // occurrence marks: z's 2nd position (Y), y's 1st (W).
        assert_eq!(an.occurrence_positions(0, 1), &[1]);
        assert_eq!(an.occurrence_positions(0, 2), &[0]);
        // q's positions are not existential: X is output-bound, Z joins.
        assert_eq!(an.occurrence_positions(0, 0), &[] as &[usize]);
    }

    #[test]
    fn output_positions_are_never_existential() {
        let (an, i) = run("q(X) :- p(X).", "q");
        let q = i.get("q").unwrap();
        assert!(!an.pred_existential(q, 0));
    }

    #[test]
    fn repeated_variable_in_literal_blocks() {
        let (an, _) = run("q(X) :- p(X), r(Y, Y).", "q");
        assert_eq!(an.occurrence_positions(0, 1), &[] as &[usize]);
    }

    #[test]
    fn variable_in_negation_blocks() {
        let (an, _) = run("q(X) :- p(X, Y), s(Y), not t(Y).", "q");
        // Y appears in s and not t: nothing existential.
        assert_eq!(an.occurrence_positions(0, 0), &[] as &[usize]);
    }

    #[test]
    fn chained_head_dependency_converges() {
        // b's arg flows only into a's existential arg → b's arg existential.
        let (an, i) = run(
            "q(X) :- p(X), a(Y).
             a(Y) :- b(Y).",
            "q",
        );
        let a = i.get("a").unwrap();
        let b = i.get("b").unwrap();
        assert!(an.pred_existential(a, 0));
        assert!(an.pred_existential(b, 0));
    }

    #[test]
    fn head_dependency_blocks_when_not_existential() {
        // a's arg reaches the output through q's head: not existential.
        let (an, i) = run(
            "q(Y) :- a(Y).
             a(Y) :- b(Y).",
            "q",
        );
        let a = i.get("a").unwrap();
        assert!(!an.pred_existential(a, 0));
        let b = i.get("b").unwrap();
        assert!(!an.pred_existential(b, 0));
    }
}
