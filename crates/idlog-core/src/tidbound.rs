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
use idlog_parser::{PredicateRef, Term};

use crate::columns::{ClauseColumns, ColumnGraph, Role};

/// `(base predicate, grouping)` of an ID-use → the number `k` of tids its
/// occurrences can tell apart (they observe tids `0..k` only). ID-uses
/// with an occurrence that leaks its tid have no entry.
pub type TidBounds = FxHashMap<(SymbolId, Vec<usize>), usize>;

/// For every ID-use whose tid is provably bounded in *all* occurrences, the
/// number of distinguishable tids. The analysis only reads clause syntax,
/// through the program's column graph; each validated program runs it
/// once, and every consumer — evaluation, enumeration, `explain` and the
/// H001 lint — reads the result from [`crate::ValidatedProgram::tid_bounds`].
pub fn tid_bounds_ast(columns: &ColumnGraph) -> TidBounds {
    let mut bounds: FxHashMap<(SymbolId, Vec<usize>), Option<usize>> = FxHashMap::default();
    for cols in &columns.0 {
        for (li, lit) in cols.clause.body.iter().enumerate() {
            let Some(atom) = lit.atom() else { continue };
            let PredicateRef::IdVersion { base, grouping } = &atom.pred else {
                continue;
            };
            let key = (*base, grouping.clone());
            let this = tid_use(cols, li).bound;
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

/// What the rest of its clause can observe of one ID-literal occurrence's
/// tid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TidUse {
    /// The tid is constrained only by the literal itself and by builtins
    /// over constants, so the set of tids satisfying the constraints is a
    /// function of the group size alone (taint's choice-free rule).
    pub local: bool,
    /// The number `k` of tids the occurrence can tell apart (it observes
    /// tids `0..k` only), when comparisons against constants bound it from
    /// above and nothing else reads it (H001 and bounded enumeration).
    pub bound: Option<usize>,
}

/// The tid use of the ID-literal at body literal `li`, from its tid
/// variable's uses. A local tid need not be bounded: `succ(T, 3)` pins `T`
/// to a constant's predecessor, but only a constant cap bounds it.
pub(crate) fn tid_use(cols: &ClauseColumns, li: usize) -> TidUse {
    let atom = cols.clause.body[li]
        .atom()
        .expect("li indexes an ID-literal");
    let tid = atom.terms.len() - 1;
    let constant = |k| TidUse {
        local: true,
        bound: Some(k),
    };
    let v = match &atom.terms[tid] {
        Term::Int(c) => return constant(usize::try_from(c.get()).map_or(0, |c| c + 1)),
        // Wrong sort: never matches, so it observes no tid.
        Term::Sym(_) => return constant(0),
        Term::Var(_) => cols.var_at(li, tid).expect("a variable has a use"),
    };
    let (mut local, mut bound, mut read) = (true, usize::MAX, false);
    for u in cols.uses_of(v) {
        match u.role {
            _ if u.literal == Some(li) && u.pos == tid => {}
            // Another variable of the builtin couples the tid to the rest
            // of the clause; only a constant cap bounds it.
            Role::Arg(_, cap) => {
                let lj = u.literal.expect("a builtin is a body literal");
                local &= cols.in_literal(lj).iter().all(|o| o.var == v);
                match cap {
                    Some(cap) => bound = bound.min(cap.c as usize + usize::from(!cap.strict)),
                    None => read = true,
                }
            }
            // A head use exports the tid; any other use, a base position
            // of the ID-atom itself included, couples it with the
            // member↔tid assignment.
            _ => {
                return TidUse {
                    local: false,
                    bound: None,
                }
            }
        }
    }
    let bound = (bound < usize::MAX && !read).then_some(bound);
    TidUse { local, bound }
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
    fn a_local_tid_need_not_be_bounded() {
        let i = Interner::new();
        let use_of = |src: &str| {
            let p = idlog_parser::parse_program(src, &i).unwrap();
            tid_use(&ClauseColumns::new(&p.clauses[0]), 0)
        };
        // `succ(T, 3)` fixes the tid from constants alone, but no
        // comparison bounds it.
        let succ = use_of("p(N) :- emp[](N, D, T), succ(T, 3).");
        assert_eq!((succ.local, succ.bound), (true, None));
        let lt = use_of("p(N) :- emp[](N, D, T), T < 3.");
        assert_eq!((lt.local, lt.bound), (true, Some(3)));
        let joined = use_of("p(N) :- emp[](N, D, T), lim(M), T < M.");
        assert_eq!((joined.local, joined.bound), (false, None));
    }

    #[test]
    fn negated_id_literal_with_constant_tid() {
        let b = bounds_of("rest(N, D) :- emp(N, D), not emp[2](N, D, 0).");
        assert_eq!(b.get(&("emp".into(), vec![1])), Some(&1));
    }
}
