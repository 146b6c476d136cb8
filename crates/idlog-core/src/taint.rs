//! ID-taint dataflow and conservative determinism certification.
//!
//! The paper's Theorem 3 proves that deciding whether an IDLOG program is
//! deterministic is undecidable, so this analysis is *sound but incomplete*:
//! every predicate it certifies is genuinely ID-function-independent, but
//! some deterministic programs (e.g. `programs/parity.idl`, which counts
//! along an arbitrary tid order) remain uncertified.
//!
//! The analysis is a monotone fixpoint over the predicate dependency graph
//! with two coupled lattices:
//!
//! * **membership taint** — the set of tuples derivable for a predicate can
//!   vary with the chosen ID-function. A head is tainted when its clause
//!   reads a tainted predicate or contains an ID-literal occurrence that is
//!   not *choice-free* (see [`choice_free_occurrence`]). A valid program
//!   has no other source of choice: validation rejects `choice` and `!`.
//! * **column (value) taint** — a column can carry a tid-derived value even
//!   when reaching the clause at all is deterministic. Tracked per
//!   `(predicate, column)`, read from each clause's use lists
//!   ([`crate::columns`]) and spread through joins, `=` and arithmetic;
//!   it feeds the W011 lint. Membership taint is the sound gate: a clause
//!   binding a variable from a tainted column of `p` is already
//!   membership-tainted via `p`.
//!
//! Certification (`deterministic(p)`) is the complement of membership
//! taint, and every taint carries a [`TaintStep`] witness so diagnostics
//! can show a concrete derivation path to the offending literal.
//!
//! The analysis is a fact of a valid program: each
//! [`crate::ValidatedProgram`] runs it once and holds the result
//! ([`crate::ValidatedProgram::taint`]), which the engine's enumeration fast
//! path, `idlog lint`'s W010/W011, `idlog check` and the optimizer all read.

use std::collections::hash_map::Entry;

use idlog_common::{FxHashMap, FxHashSet, SymbolId};
use idlog_parser::{Atom, Builtin, Clause, Literal, PredicateRef};

use crate::columns::{ClauseColumns, ColumnGraph, Role, Use};
use crate::tidbound::tid_use;

/// One step in a taint witness: how ID-function dependence reaches a
/// predicate. Chased transitively by [`TaintAnalysis::witness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintStep {
    /// The literal at `(clause, literal)` introduces a choice directly: an
    /// ID-literal whose enumerated bindings vary across ID-functions.
    Choice {
        /// Clause index in the program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
    },
    /// The body literal at `(clause, literal)` reads the already-tainted
    /// predicate `from`.
    Via {
        /// Clause index in the program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
        /// The tainted predicate this literal reads.
        from: SymbolId,
    },
}

/// The result of the ID-taint fixpoint over one program.
#[derive(Debug, Clone, Default)]
pub struct TaintAnalysis {
    /// First taint step recorded per membership-tainted predicate.
    tainted: FxHashMap<SymbolId, TaintStep>,
    /// `(predicate, column)` pairs that can carry tid-derived values.
    tainted_cols: FxHashSet<(SymbolId, usize)>,
}

impl TaintAnalysis {
    /// True when the analysis certifies `pred`'s contents identical under
    /// every ID-function. Predicates the program never defines (EDB inputs)
    /// are trivially certified.
    pub fn deterministic(&self, pred: SymbolId) -> bool {
        !self.tainted.contains_key(&pred)
    }

    /// True when column `col` of `pred` can carry a tid-derived value.
    pub fn col_tainted(&self, pred: SymbolId, col: usize) -> bool {
        self.tainted_cols.contains(&(pred, col))
    }

    /// The witness path from `pred` down to a choice-introducing literal:
    /// a sequence of [`TaintStep::Via`] hops ending in a
    /// [`TaintStep::Choice`]. Empty when `pred` is certified.
    pub fn witness(&self, pred: SymbolId) -> Vec<TaintStep> {
        let mut path = Vec::new();
        let mut at = pred;
        while let Some(&step) = self.tainted.get(&at) {
            path.push(step);
            match step {
                TaintStep::Choice { .. } => break,
                // First-taint order makes the chain acyclic, but guard
                // against pathological growth anyway.
                TaintStep::Via { from, .. } if path.len() <= 1024 => at = from,
                TaintStep::Via { .. } => break,
            }
        }
        path
    }

    /// The variables of `clause` that can carry tid-derived values, given
    /// the column taint computed so far. Exposed for per-clause reporting
    /// (the W011 lint); sound only on the fixpoint result.
    pub fn value_tainted_vars<'c>(&self, clause: &'c Clause) -> FxHashSet<&'c str> {
        let cols = ClauseColumns::new(clause);
        let tainted = value_tainted_vars(&cols, &self.tainted_cols);
        let names = cols.names.into_iter().zip(tainted);
        names.filter(|&(_, t)| t).map(|(name, _)| name).collect()
    }
}

/// Run the ID-taint fixpoint over the clauses of a validated program, read
/// through its column graph; [`crate::ValidatedProgram::taint`] holds the
/// result.
pub(crate) fn analyze_taint(columns: &ColumnGraph) -> TaintAnalysis {
    let mut t = TaintAnalysis::default();
    loop {
        let mut changed = false;
        for (ci, cols) in columns.0.iter().enumerate() {
            let step = clause_taint_step(cols, ci, &t);
            let vars = value_tainted_vars(cols, &t.tainted_cols);
            let head = cols.clause.single_head().pred.base();
            if let (Some(step), Entry::Vacant(e)) = (step, t.tainted.entry(head)) {
                e.insert(step);
                changed = true;
            }
            for u in &cols.uses {
                if matches!(u.role, Role::Head(_)) && vars[u.var] {
                    changed |= t.tainted_cols.insert((head, u.pos));
                }
            }
        }
        if !changed {
            return t;
        }
    }
}

/// Why the clause membership-taints its head, if it does: the first body
/// literal that reads a tainted predicate or introduces a choice.
fn clause_taint_step(cols: &ClauseColumns, ci: usize, t: &TaintAnalysis) -> Option<TaintStep> {
    for (li, lit) in cols.clause.body.iter().enumerate() {
        let Some(a) = lit.atom() else { continue };
        let base = a.pred.base();
        if !t.deterministic(base) {
            return Some(TaintStep::Via {
                clause: ci,
                literal: li,
                from: base,
            });
        }
        if a.pred.is_id_version() && !choice_free(cols, li) {
            return Some(TaintStep::Choice {
                clause: ci,
                literal: li,
            });
        }
    }
    None
}

/// True when the ID-literal occurrence at `clause.body[li]` is
/// *choice-free*: the set of clause instantiations it admits is the same
/// under every ID-function, so it introduces no non-determinism of its own.
///
/// Sound cases (anything else returns `false`):
///
/// * **Full grouping** (`grouping.len() == base arity`): every group is a
///   singleton, so every ID-function assigns the same tids — deterministic
///   for positive *and* negated occurrences (the W004 degenerate case).
/// * **Positive occurrence testing only group membership**: every
///   non-grouping base position is a variable occurring exactly once in
///   the whole clause (a pure existential — which group member carries
///   which tid cannot be observed), *and* the tid term is a constant or a
///   variable constrained only by comparisons against constants. The tids
///   of a k-member group are always exactly `{0, …, k−1}`, so
///   `∃t ∈ {0..k−1}: C(t)` depends only on the group size, never on the
///   ID-function. Note this is strictly stronger than H001 tid-boundedness:
///   `pick(N) :- emp[2](N, D, 0)` is tid-bounded but non-deterministic,
///   because N escapes to the head.
/// * **Negated occurrences** are choice-free only under full grouping:
///   range restriction forces their variables to be bound elsewhere, so
///   they always observe the member↔tid assignment.
pub fn choice_free_occurrence(clause: &Clause, li: usize) -> bool {
    choice_free(&ClauseColumns::new(clause), li)
}

/// [`choice_free_occurrence`], on a clause's use lists.
fn choice_free(cols: &ClauseColumns, li: usize) -> bool {
    let lit = &cols.clause.body[li];
    let Some(Atom {
        pred: PredicateRef::IdVersion { grouping, .. },
        terms,
    }) = lit.atom()
    else {
        return false;
    };
    let Some(arity) = terms.len().checked_sub(1) else {
        return false;
    };
    if grouping.len() == arity {
        return true;
    }
    if matches!(lit, Literal::Neg(_)) {
        return false;
    }
    let members = (0..arity).filter(|p| !grouping.contains(p)).count();
    let single = |u: &&Use| matches!(u.role, Role::Member(_)) && cols.uses_of(u.var).count() == 1;
    cols.in_literal(li).iter().filter(single).count() == members && tid_use(cols, li).local
}

/// The clause's variables, by number, that can carry tid-derived values:
/// tid-position and non-grouping variables of non-choice-free positive
/// ID-literals, plus variables bound from tainted columns, closed under
/// `=` and arithmetic builtins.
fn value_tainted_vars(
    cols: &ClauseColumns,
    tainted_cols: &FxHashSet<(SymbolId, usize)>,
) -> Vec<bool> {
    let mut tainted = vec![false; cols.names.len()];
    for u in &cols.uses {
        tainted[u.var] |= match u.role {
            Role::Atom(p) => tainted_cols.contains(&(p, u.pos)),
            // Grouping positions range over the (deterministic) projection
            // of the base relation and inherit its column taint; every
            // other position pairs with the ID-function's choices.
            Role::Group(base) | Role::Member(base) | Role::Tid(base) => {
                !choice_free(cols, u.literal.expect("an ID-literal is a body literal"))
                    && (!matches!(u.role, Role::Group(_)) || tainted_cols.contains(&(base, u.pos)))
            }
            _ => false,
        };
    }
    // `X = Y` and the arithmetic relations spread taint among their
    // arguments. Pure comparisons (`<`, …) constrain but do not carry
    // values; membership taint already accounts for their effect on
    // derivability.
    let carries =
        |u: &Use| matches!(u.role, Role::Arg(op, _) if !op.is_comparison() || op == Builtin::Eq);
    loop {
        let mut changed = false;
        for li in 0..cols.clause.body.len() {
            let args = cols.in_literal(li);
            if args.iter().any(|u| carries(u) && tainted[u.var]) {
                for u in args {
                    changed |= !std::mem::replace(&mut tainted[u.var], true);
                }
            }
        }
        if !changed {
            return tainted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use idlog_common::Interner;

    fn taints(src: &str) -> (TaintAnalysis, Arc<Interner>) {
        let interner = Arc::new(Interner::new());
        let program = crate::ValidatedProgram::parse(src, Arc::clone(&interner))
            .expect("test program validates");
        (program.taint().clone(), interner)
    }

    fn det(src: &str, pred: &str) -> bool {
        let (t, interner) = taints(src);
        t.deterministic(interner.intern(pred))
    }

    #[test]
    fn pure_existential_group_scan_is_certified() {
        assert!(det("all_depts(D) :- emp[2](N, D, 0).", "all_depts"));
        // Any constant tid works, as does a tid variable compared against
        // constants (group-size tests).
        assert!(det("has_two(D) :- emp[2](N, D, T), T = 1.", "has_two"));
        assert!(det("big(D) :- emp[2](N, D, T), T > 2.", "big"));
    }

    #[test]
    fn escaping_member_variable_taints() {
        // The chosen member reaches the head …
        assert!(!det("pick(N) :- emp[2](N, D, 0).", "pick"));
        // … or is constrained by another literal.
        assert!(!det("q(D) :- emp[2](N, D, 0), male(N).", "q"));
        // A constant at a non-grouping position observes the assignment.
        assert!(!det("q(D) :- emp[2](ann, D, 0).", "q"));
        // The member variable repeated inside the atom observes it too.
        assert!(!det("q :- emp[2](N, N, 0).", "q"));
    }

    #[test]
    fn escaping_tid_variable_taints() {
        assert!(!det("pick(N, T) :- emp[](N, D, T).", "pick"));
        // Tid compared against another variable leaks through the builtin.
        assert!(!det("q(D) :- emp[2](N, D, T), size(M), T < M.", "q"));
        // Tid reused at a base position of the same atom.
        assert!(!det("q(D) :- emp[2](N, D, D).", "q"));
    }

    #[test]
    fn full_grouping_is_certified_both_polarities() {
        assert!(det("p(N, D) :- emp[1,2](N, D, 0).", "p"));
        assert!(det("p(N, D) :- emp(N, D), not emp[1,2](N, D, 1).", "p"));
        // Partial grouping under negation observes the assignment.
        assert!(!det(
            "rest(N, D) :- emp(N, D), not emp[2](N, D, 0).",
            "rest"
        ));
    }

    #[test]
    fn taint_propagates_transitively() {
        let src = "
            picked(N) :- emp[2](N, D, 0).
            via(X) :- picked(X).
            clean(D) :- emp[2](N, D, 0).
            downstream(X) :- clean(X).
        ";
        let (t, interner) = taints(src);
        assert!(!t.deterministic(interner.intern("picked")));
        assert!(!t.deterministic(interner.intern("via")));
        assert!(t.deterministic(interner.intern("clean")));
        assert!(t.deterministic(interner.intern("downstream")));
    }

    #[test]
    fn id_literal_over_tainted_base_taints() {
        // h's ID-occurrence is choice-free in shape, but its base g is
        // itself tainted.
        let src = "
            g(N, D) :- emp[2](N, D, 0), dept(D).
            h(D) :- g[2](M, D, 0).
        ";
        let (t, interner) = taints(src);
        assert!(!t.deterministic(interner.intern("g")));
        assert!(!t.deterministic(interner.intern("h")));
        match t.witness(interner.intern("h")).as_slice() {
            [TaintStep::Via { from, .. }, TaintStep::Choice { clause: 0, .. }] => {
                assert_eq!(*from, interner.intern("g"));
            }
            other => panic!("unexpected witness {other:?}"),
        }
    }

    #[test]
    fn choice_and_cut_taint() {
        // Validation rejects both before any analysis runs, so the taint
        // fixpoint never meets a choice source other than an ID-literal.
        for src in [
            "s(N) :- emp(N, D), choice((D), (N)).",
            "first(X) :- cand(X), !.",
        ] {
            let parsed = crate::ValidatedProgram::parse(src, Arc::new(Interner::new()));
            assert!(
                matches!(parsed, Err(crate::CoreError::Validation { .. })),
                "{src}"
            );
        }
    }

    #[test]
    fn column_taint_tracks_tid_values() {
        let src = "
            numbered(X, T) :- person[](X, T).
            copy(T) :- numbered(X, T).
            names(X) :- numbered(X, T).
        ";
        let (t, interner) = taints(src);
        let numbered = interner.intern("numbered");
        // Column 1 carries the tid; column 0 carries the (non-determinately
        // paired) member.
        assert!(t.col_tainted(numbered, 1));
        assert!(t.col_tainted(numbered, 0));
        assert!(t.col_tainted(interner.intern("copy"), 0));
        // Membership taint still gates everything downstream.
        assert!(!t.deterministic(interner.intern("names")));
    }

    #[test]
    fn certified_program_has_empty_witness() {
        let (t, interner) = taints("all_depts(D) :- emp[2](N, D, 0).");
        let all_depts = interner.intern("all_depts");
        assert!(t.witness(all_depts).is_empty());
        assert!(t.deterministic(all_depts));
    }

    #[test]
    fn equality_spreads_value_taint() {
        let src = "
            leak(Y) :- person[](X, T), T = Y2, Y = Y2.
        ";
        let (t, interner) = taints(src);
        assert!(!t.deterministic(interner.intern("leak")));
        assert!(t.col_tainted(interner.intern("leak"), 0));
    }
}
