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
/// number of distinguishable tids. The analysis only reads clause syntax;
/// each validated program runs it once, and every consumer — evaluation,
/// enumeration, `explain` and the H001 lint — reads the result from
/// [`crate::ValidatedProgram::tid_bounds`].
pub fn tid_bounds_ast(program: &Program) -> TidBounds {
    let mut bounds: FxHashMap<(SymbolId, Vec<usize>), Option<usize>> = FxHashMap::default();
    for clause in &program.clauses {
        for (li, lit) in clause.body.iter().enumerate() {
            let Some(atom) = lit.atom() else { continue };
            let PredicateRef::IdVersion { base, grouping } = &atom.pred else {
                continue;
            };
            let key = (*base, grouping.clone());
            let this = tid_use(clause, li).bound;
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

/// The tid use of the ID-literal at `clause.body[li]`. A local tid need not
/// be bounded: `succ(T, 3)` pins `T` to a constant's predecessor, but only
/// comparisons bound it.
pub(crate) fn tid_use(clause: &Clause, li: usize) -> TidUse {
    let atom = clause.body[li].atom().expect("li indexes an ID-literal");
    let tid_pos = atom.terms.len() - 1;
    let constant = |k| TidUse {
        local: true,
        bound: Some(k),
    };
    let v = match &atom.terms[tid_pos] {
        Term::Int(c) => return constant(usize::try_from(c.get()).map_or(0, |c| c + 1)),
        // Wrong sort: never matches, so it observes no tid.
        Term::Sym(_) => return constant(0),
        Term::Var(v) => v.as_str(),
    };
    const LEAKS: TidUse = TidUse {
        local: false,
        bound: None,
    };
    let occurs = |t: &Term| t.as_var() == Some(v);
    // Reuse at a base position of the ID-atom itself couples the tid with
    // the member↔tid assignment; a head occurrence exports it.
    if atom.terms[..tid_pos].iter().any(occurs)
        || clause.head.iter().any(|h| h.atom.terms.iter().any(occurs))
    {
        return LEAKS;
    }
    let mut local = true;
    let mut bound: Option<usize> = None;
    let mut unbounded_read = false;
    for (lj, lit) in clause.body.iter().enumerate() {
        match lit {
            _ if lj == li => {}
            Literal::Builtin { op, args } if args.iter().any(occurs) => {
                // Another variable couples the tid to the rest of the clause.
                local &= !args.iter().any(|t| !occurs(t) && matches!(t, Term::Var(_)));
                match constant_bound(*op, args, v) {
                    Some(b) => bound = Some(bound.map_or(b, |cur| cur.min(b))),
                    None => unbounded_read = true,
                }
            }
            Literal::Builtin { .. } => {}
            _ if lit.variables().contains(&v) => return LEAKS,
            _ => {}
        }
    }
    TidUse {
        local,
        bound: bound.filter(|_| !unbounded_read),
    }
}

/// The bound a builtin over `v` puts on it: `k` when it admits only
/// `v < k`. Only comparisons against an integer constant bound the tid;
/// anything else (another variable, a symbol, arithmetic) reads it.
fn constant_bound(op: Builtin, args: &[Term], v: &str) -> Option<usize> {
    // `(variable side, constant side, constant excluded)`.
    let (x, c, strict) = match (op, args.first()?, args.get(1)?) {
        (Builtin::Lt, Term::Var(x), c) => (x, c, true),
        (Builtin::Le | Builtin::Eq, Term::Var(x), c) => (x, c, false),
        (Builtin::Gt, c, Term::Var(x)) => (x, c, true),
        (Builtin::Ge | Builtin::Eq, c, Term::Var(x)) => (x, c, false),
        _ => return None,
    };
    let Term::Int(c) = c else { return None };
    let c = usize::try_from(c.get()).ok()?;
    (x == v).then_some(if strict { c } else { c + 1 })
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
            tid_use(&p.clauses[0], 0)
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
