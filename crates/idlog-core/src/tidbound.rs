//! Tid-observability analysis: how many tids of an ID-relation can a
//! program distinguish?
//!
//! The paper's footnotes 6–7 observe that a literal like
//! `emp[2](N, D, T), T < 2` "can be used to generate an optimization
//! information which ensures that only two tuples of the relation emp will
//! be used in the evaluation". This module derives that information: if
//! *every* occurrence of `p[s]` constrains its tid position to values `< k`
//! (a constant tid, or a variable used only in comparisons against
//! constants), then two ID-functions that agree on which tuples hold tids
//! `0..k` are indistinguishable, and all-answers enumeration may walk
//! k-prefix arrangements (falling factorial) instead of full permutations
//! (factorial) — see [`idlog_storage::BoundedAssignmentIter`].

use idlog_common::{FxHashMap, SymbolId};
use idlog_parser::{Builtin, Clause, Literal, PredicateRef, Program, Term};

/// `(base predicate, grouping)` of an ID-use → the number `k` of tids its
/// occurrences can tell apart (they observe tids `0..k` only). ID-uses
/// with an occurrence that leaks its tid have no entry.
pub type TidBounds = FxHashMap<(SymbolId, Vec<usize>), usize>;

/// For every ID-use whose tid is provably bounded in *all* occurrences, the
/// number of distinguishable tids. The analysis only reads clause syntax,
/// so it runs before validation too (lint passes surface the optimization
/// as a hint); [`crate::ValidatedProgram::tid_bounds`] holds the result for
/// a validated program.
pub fn tid_bounds_ast(program: &Program) -> TidBounds {
    let mut bounds: FxHashMap<(SymbolId, Vec<usize>), Option<usize>> = FxHashMap::default();
    for clause in &program.clauses {
        for (li, lit) in clause.body.iter().enumerate() {
            let Some(atom) = lit.atom() else { continue };
            let PredicateRef::IdVersion { base, grouping } = &atom.pred else {
                continue;
            };
            let key = (*base, grouping.clone());
            let this = occurrence_bound(clause, li);
            let entry = bounds.entry(key).or_insert(Some(0));
            *entry = match (*entry, this) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
    }
    bounds
        .into_iter()
        .filter_map(|(k, v)| v.map(|b| (k, b)))
        .collect()
}

/// Bound for one ID-literal occurrence, or `None` when the tid leaks.
fn occurrence_bound(clause: &Clause, li: usize) -> Option<usize> {
    let atom = clause.body[li].atom().expect("caller checked");
    let tid_pos = atom.terms.len() - 1;
    match &atom.terms[tid_pos] {
        Term::Int(c) => Some(usize::try_from(*c).map_or(0, |c| c + 1)),
        Term::Sym(_) => Some(0), // wrong sort: never matches
        Term::Var(v) => {
            // The variable must occur nowhere else in the ID-atom itself.
            if atom.terms[..tid_pos].iter().any(|t| t.as_var() == Some(v)) {
                return None;
            }
            // ...nor in any head...
            for h in &clause.head {
                if h.atom.variables().contains(&v.as_str()) {
                    return None;
                }
            }
            // ...nor in any other body literal except bounding comparisons.
            let mut bound: Option<usize> = None;
            for (lj, other) in clause.body.iter().enumerate() {
                if lj == li {
                    continue;
                }
                match other {
                    Literal::Builtin { op, args } => match comparison_bound(*op, args, v) {
                        ComparisonUse::NotMentioned => {}
                        ComparisonUse::Bounds(b) => {
                            bound = Some(bound.map_or(b, |cur| cur.min(b)));
                        }
                        ComparisonUse::Leaks => return None,
                    },
                    _ => {
                        if other.variables().contains(&v.as_str()) {
                            return None;
                        }
                    }
                }
            }
            bound
        }
    }
}

enum ComparisonUse {
    NotMentioned,
    Bounds(usize),
    Leaks,
}

/// Does this builtin bound variable `v` from above by a constant?
fn comparison_bound(op: Builtin, args: &[Term], v: &str) -> ComparisonUse {
    let mentions = args.iter().any(|t| t.as_var() == Some(v));
    if !mentions {
        return ComparisonUse::NotMentioned;
    }
    let as_const = |t: &Term| match t {
        Term::Int(c) => usize::try_from(*c).ok(),
        _ => None,
    };
    // Only comparisons against an integer constant bound the tid; anything
    // else (another variable, a symbol) leaks it.
    match (op, &args[0], &args[1]) {
        // v < c, v <= c, v = c
        (Builtin::Lt, Term::Var(x), rhs) if x == v => match as_const(rhs) {
            Some(c) => ComparisonUse::Bounds(c),
            None => ComparisonUse::Leaks,
        },
        (Builtin::Le, Term::Var(x), rhs) if x == v => match as_const(rhs) {
            Some(c) => ComparisonUse::Bounds(c + 1),
            None => ComparisonUse::Leaks,
        },
        (Builtin::Eq, Term::Var(x), rhs) if x == v => match as_const(rhs) {
            Some(c) => ComparisonUse::Bounds(c + 1),
            None => ComparisonUse::Leaks,
        },
        // c > v, c >= v, c = v
        (Builtin::Gt, lhs, Term::Var(x)) if x == v => match as_const(lhs) {
            Some(c) => ComparisonUse::Bounds(c),
            None => ComparisonUse::Leaks,
        },
        (Builtin::Ge, lhs, Term::Var(x)) if x == v => match as_const(lhs) {
            Some(c) => ComparisonUse::Bounds(c + 1),
            None => ComparisonUse::Leaks,
        },
        (Builtin::Eq, lhs, Term::Var(x)) if x == v => match as_const(lhs) {
            Some(c) => ComparisonUse::Bounds(c + 1),
            None => ComparisonUse::Leaks,
        },
        _ => ComparisonUse::Leaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ValidatedProgram;
    use idlog_common::Interner;
    use std::sync::Arc;

    fn bounds_of(src: &str) -> FxHashMap<(String, Vec<usize>), usize> {
        let interner = Arc::new(Interner::new());
        let p = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
        p.tid_bounds()
            .iter()
            .map(|((s, g), &b)| ((interner.resolve(*s), g.clone()), b))
            .collect()
    }

    #[test]
    fn constant_tid_bounds_to_c_plus_one() {
        let b = bounds_of("pick(N) :- emp[2](N, D, 0).");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&1));
        let b = bounds_of("pick(N) :- emp[2](N, D, 3).");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&4));
    }

    #[test]
    fn comparison_bounds() {
        let b = bounds_of("two(N) :- emp[2](N, D, T), T < 2.");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&2));
        let b = bounds_of("two(N) :- emp[2](N, D, T), T <= 2.");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&3));
        let b = bounds_of("two(N) :- emp[2](N, D, T), 2 > T.");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&2));
        let b = bounds_of("two(N) :- emp[2](N, D, T), T = 1.");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&2));
    }

    #[test]
    fn leaking_tid_is_unbounded() {
        // Tid flows to the head.
        assert!(bounds_of("pick(N, T) :- emp[2](N, D, T), T < 5.").is_empty());
        // Tid joins with another literal.
        assert!(bounds_of("pick(N) :- emp[2](N, D, T), lim(T).").is_empty());
        // Tid in arithmetic other than a constant comparison.
        assert!(bounds_of("pick(N) :- emp[2](N, D, T), num(M), T < M.").is_empty());
        // No constraint at all.
        assert!(bounds_of("pick(N) :- emp[2](N, D, T), T >= 0.").is_empty());
    }

    #[test]
    fn multiple_occurrences_take_the_max_or_poison() {
        let b = bounds_of(
            "a(N) :- emp[2](N, D, 0).
             b(N) :- emp[2](N, D, T), T < 3.",
        );
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&3));
        let b = bounds_of(
            "a(N) :- emp[2](N, D, 0).
             b(N, T) :- emp[2](N, D, T), T < 3.",
        );
        assert!(b.is_empty(), "one leaking occurrence poisons the use");
    }

    #[test]
    fn distinct_groupings_are_independent() {
        let b = bounds_of(
            "a(N) :- emp[2](N, D, 0).
             b(N, T) :- emp[1](N, D, T), T < 9.",
        );
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&1));
        assert_eq!(b.get(&("emp".into(), vec![0])), None);
    }

    #[test]
    fn negated_id_literal_with_constant_tid() {
        let b = bounds_of("rest(N, D) :- emp(N, D), not emp[2](N, D, 0).");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&1));
    }
}
