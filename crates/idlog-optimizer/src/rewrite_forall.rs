//! Projection pushing: eliminate ∀-existential arguments (Definition 1).
//!
//! Every predicate-level existential position of a non-input, non-output
//! predicate is dropped from all occurrences; elimination can expose new
//! existential positions, so the rewrite iterates analysis + projection to a
//! fixpoint. Predicate names are kept (arities shrink consistently); the
//! paper writes `a'` for the projected predicate, we keep `a`.

use idlog_common::{FxHashMap, SymbolId};
use idlog_parser::{Atom, Clause, HeadAtom, Literal, Program};

use crate::adornment::analyze;

/// Drop the given positions (ascending) from an atom's terms.
fn project_atom(atom: &Atom, drop: &[usize]) -> Atom {
    let terms = atom
        .terms
        .iter()
        .enumerate()
        .filter(|(i, _)| !drop.contains(i))
        .map(|(_, t)| t.clone())
        .collect();
    Atom {
        pred: atom.pred.clone(),
        terms,
    }
}

/// One round: eliminate all currently-identified predicate-level existential
/// positions. Returns `None` when nothing was eliminable.
fn eliminate_once(program: &Program, output: SymbolId) -> Option<Program> {
    let analysis = analyze(program, output);
    let inputs = program.input_predicates();

    // Collect per-predicate drop lists (non-input, non-output, non-empty).
    let mut drops: FxHashMap<SymbolId, Vec<usize>> = FxHashMap::default();
    let mut preds: Vec<SymbolId> = program.head_predicates().into_iter().collect();
    preds.extend(program.body_predicates());
    preds.sort_unstable();
    preds.dedup();
    for p in preds {
        if p == output || inputs.contains(&p) {
            continue;
        }
        let positions = analysis.pred_positions(p);
        if !positions.is_empty() {
            drops.insert(p, positions);
        }
    }
    if drops.is_empty() {
        return None;
    }

    let clauses = program
        .clauses
        .iter()
        .map(|clause| {
            let head = clause
                .head
                .iter()
                .map(|h| HeadAtom {
                    negated: h.negated,
                    atom: match drops.get(&h.atom.pred.base()) {
                        Some(d) => project_atom(&h.atom, d),
                        None => h.atom.clone(),
                    },
                })
                .collect();
            let body = clause
                .body
                .iter()
                .map(|lit| match lit {
                    Literal::Pos(a) => Literal::Pos(match drops.get(&a.pred.base()) {
                        Some(d) if !a.pred.is_id_version() => project_atom(a, d),
                        _ => a.clone(),
                    }),
                    other => other.clone(),
                })
                .collect();
            Clause {
                head,
                body,
                disjunctive: clause.disjunctive,
            }
        })
        .collect();
    Some(Program { clauses })
}

/// Eliminate ∀-existential arguments to a fixpoint (paper §4, steps 1–2).
pub fn push_projections(program: &Program, output: SymbolId) -> Program {
    let mut current = program.clone();
    while let Some(next) = eliminate_once(&current, output) {
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{q_equivalent_on, random_databases};
    use idlog_common::Interner;
    use idlog_core::EnumBudget;
    use idlog_parser::parse_program;
    use std::sync::Arc;

    fn rewrite(src: &str, output: &str) -> (String, Interner) {
        let i = Interner::new();
        let p = parse_program(src, &i).unwrap();
        let out = i.intern(output);
        let rewritten = push_projections(&p, out);
        let printed = rewritten.display(&i).to_string();
        (printed, i)
    }

    #[test]
    fn paper_example6_rewrite() {
        // Expected (paper): q(X) :- a(X). a(X) :- p(X,Z), a(Z). a(X) :- p(X,Y).
        let (printed, _) = rewrite(
            "q(X) :- a(X, Y).
             a(X, Y) :- p(X, Z), a(Z, Y).
             a(X, Y) :- p(X, Y).",
            "q",
        );
        assert_eq!(
            printed,
            "q(X) :- a(X).\na(X) :- p(X, Z), a(Z).\na(X) :- p(X, Y).\n"
        );
    }

    #[test]
    fn nothing_to_eliminate_is_identity() {
        let src = "q(X, Y) :- p(X, Y).";
        let (printed, _) = rewrite(src, "q");
        assert_eq!(printed, "q(X, Y) :- p(X, Y).\n");
    }

    #[test]
    fn input_predicates_keep_their_arity() {
        // y(W)'s W is existential but y is an input: arity unchanged.
        let (printed, _) = rewrite("p(X) :- q(X, Z), z(Z, Y), y(W).", "p");
        assert!(printed.contains("y(W)"), "{printed}");
        assert!(printed.contains("z(Z, Y)"), "{printed}");
    }

    #[test]
    fn cascading_elimination() {
        // Dropping mid's 2nd arg makes bot's 2nd arg existential in turn...
        // bot is an input here, so add an IDB layer.
        let (printed, _) = rewrite(
            "q(X) :- mid(X, Y).
             mid(X, Y) :- low(X, Y).
             low(X, Y) :- base(X, Y).",
            "q",
        );
        assert_eq!(
            printed,
            "q(X) :- mid(X).\nmid(X) :- low(X).\nlow(X) :- base(X, Y).\n"
        );
    }

    #[test]
    fn a_predicate_read_under_negation_keeps_its_columns() {
        // h is read only under negation: the rewrite cannot project that
        // occurrence, so h keeps its arity, and the rewrite ends. m's
        // second column is still dropped.
        let src = "h(D) :- e(D, X).
             m(D, Z) :- e(D, Z).
             q(D) :- m(D, Z), not h(D).";
        let i = Arc::new(Interner::new());
        let p = parse_program(src, &i).unwrap();
        let rewritten = push_projections(&p, i.intern("q"));
        assert_eq!(
            rewritten.display(&i).to_string(),
            "h(D) :- e(D, X).\nm(D) :- e(D, Z).\nq(D) :- m(D), not h(D).\n"
        );
        let dbs = random_databases(&i, &[("e", 2)], &["a", "b", "c"], 16, 5);
        let report =
            q_equivalent_on(&p, &rewritten, &i, &dbs, "q", &EnumBudget::default()).unwrap();
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn a_predicate_read_through_an_id_literal_keeps_its_columns() {
        // n is read only through n[1]: the rewrite does not project an
        // ID-literal, so n keeps its arity, and the rewrite ends.
        let src = "n(D, X) :- e(D, X).
             m(D, Z) :- e(D, Z).
             q(D) :- m(D, Z), n[1](D, X, 0).";
        let i = Arc::new(Interner::new());
        let p = parse_program(src, &i).unwrap();
        let rewritten = push_projections(&p, i.intern("q"));
        assert_eq!(
            rewritten.display(&i).to_string(),
            "n(D, X) :- e(D, X).\nm(D) :- e(D, Z).\nq(D) :- m(D), n[1](D, X, 0).\n"
        );
        let dbs = random_databases(&i, &[("e", 2)], &["a", "b", "c"], 16, 5);
        let report =
            q_equivalent_on(&p, &rewritten, &i, &dbs, "q", &EnumBudget::default()).unwrap();
        assert!(report.equivalent, "{report:?}");
    }
}
