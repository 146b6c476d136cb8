//! Rule plans: clauses compiled to ordered join steps.
//!
//! The safe body order found by [`crate::safety`] is compiled into a
//! [`RulePlan`]: for every step we know statically which argument positions
//! are bound on entry (they form the probe key), which bind new variables,
//! and which merely check a repeated variable. The engine then executes the
//! plan without re-deriving any of this per tuple.

use idlog_common::{FxHashMap, SymbolId, Value};
use idlog_parser::{Builtin, Clause, Literal, PredicateRef, Term};

use crate::error::{CoreError, CoreResult};
use crate::pred::PredKey;
use crate::program::ValidatedProgram;

/// A term with clause variables resolved to dense indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermPat {
    /// A ground constant.
    Const(Value),
    /// Clause variable number.
    Var(usize),
}

/// One positive atom step.
#[derive(Debug, Clone)]
pub struct AtomStep {
    /// Which stored relation to read.
    pub key: PredKey,
    /// Positions bound on entry and the pattern producing their value
    /// (probe-key parts, in position order).
    pub probe: Vec<(usize, TermPat)>,
    /// Positions that bind a new variable (first occurrence).
    pub bind: Vec<(usize, usize)>,
    /// Positions that must equal a variable bound earlier *in this step*
    /// (repeated variable, e.g. `p(X, X)` with `X` free on entry).
    pub check: Vec<(usize, usize)>,
    /// The positions of `probe`, stated once by the planner: the index
    /// [`idlog_storage::Relation::ensure_index`] readies is the one
    /// [`idlog_storage::Relation::probe`] is asked for.
    positions: Vec<usize>,
}

impl AtomStep {
    /// The argument positions bound on entry (the probe key's columns).
    pub(crate) fn probe_positions(&self) -> &[usize] {
        &self.positions
    }
}

/// One executable step of a rule body.
#[derive(Debug, Clone)]
pub enum Step {
    /// Join with a stored relation (scan when `probe` is empty).
    Atom(AtomStep),
    /// Fully-bound negated membership test.
    Negation {
        /// Which stored relation to test.
        key: PredKey,
        /// The (fully bound) argument patterns.
        terms: Vec<TermPat>,
    },
    /// Arithmetic literal.
    Builtin {
        /// The operation.
        op: Builtin,
        /// Argument patterns.
        args: Vec<TermPat>,
        /// Statically-known boundness per argument.
        bound: Vec<bool>,
    },
}

impl Step {
    /// The stored relation this step reads, if any.
    pub fn reads(&self) -> Option<&PredKey> {
        match self {
            Step::Atom(a) => Some(&a.key),
            Step::Negation { key, .. } => Some(key),
            Step::Builtin { .. } => None,
        }
    }
}

/// A compiled clause.
#[derive(Debug, Clone)]
pub struct RulePlan {
    /// Index of the source clause in the program.
    pub clause_idx: usize,
    /// Head predicate.
    pub head_pred: SymbolId,
    /// Head argument patterns.
    pub head: Vec<TermPat>,
    /// Ordered body steps.
    pub steps: Vec<Step>,
    /// Number of clause variables.
    pub n_vars: usize,
}

impl RulePlan {
    /// Step indices that are positive atom joins on `pred` (candidates for
    /// semi-naive delta rewriting).
    pub fn atom_steps_on(&self, pred: SymbolId) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Step::Atom(a) if a.key.base() == pred && matches!(a.key, PredKey::Ordinary(_)) => {
                    Some(i)
                }
                _ => None,
            })
            .collect()
    }
}

/// Compile every clause of `program` into a [`RulePlan`].
pub fn compile(program: &ValidatedProgram) -> CoreResult<Vec<RulePlan>> {
    program
        .ast()
        .clauses
        .iter()
        .enumerate()
        .map(|(ci, clause)| compile_clause(program, clause, ci))
        .collect()
}

fn compile_clause(
    program: &ValidatedProgram,
    clause: &Clause,
    clause_idx: usize,
) -> CoreResult<RulePlan> {
    // Variables get dense indices in order of first occurrence.
    let names = clause.variables();
    let vars: FxHashMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    let pat = |t: &Term| -> TermPat {
        match t {
            Term::Var(v) => TermPat::Var(vars[v.as_str()]),
            Term::Sym(s) => TermPat::Const(Value::Sym(*s)),
            Term::Int(n) => TermPat::Const(Value::Int(*n)),
        }
    };

    let order = &program.clause_order(clause_idx).order;
    let mut bound = vec![false; names.len()];
    let mut steps = Vec::with_capacity(order.len());

    for &li in order {
        let lit = &clause.body[li];
        match lit {
            Literal::Pos(atom) => {
                let key = pred_key(&atom.pred);
                let mut probe = Vec::new();
                let mut bind = Vec::new();
                let mut check = Vec::new();
                let mut bound_in_step: Vec<usize> = Vec::new();
                for (pos, term) in atom.terms.iter().enumerate() {
                    match pat(term) {
                        TermPat::Const(c) => probe.push((pos, TermPat::Const(c))),
                        TermPat::Var(v) => {
                            if bound[v] {
                                probe.push((pos, TermPat::Var(v)));
                            } else if bound_in_step.contains(&v) {
                                check.push((pos, v));
                            } else {
                                bind.push((pos, v));
                                bound_in_step.push(v);
                            }
                        }
                    }
                }
                for v in bound_in_step {
                    bound[v] = true;
                }
                steps.push(Step::Atom(AtomStep {
                    key,
                    positions: probe.iter().map(|&(pos, _)| pos).collect(),
                    probe,
                    bind,
                    check,
                }));
            }
            Literal::Neg(atom) => {
                let key = pred_key(&atom.pred);
                let terms: Vec<TermPat> = atom.terms.iter().map(&pat).collect();
                // Safety ordering guarantees all bound.
                debug_assert!(terms.iter().all(|t| match t {
                    TermPat::Var(v) => bound[*v],
                    TermPat::Const(_) => true,
                }));
                steps.push(Step::Negation { key, terms });
            }
            Literal::Builtin { op, args } => {
                let pats: Vec<TermPat> = args.iter().map(&pat).collect();
                let mask: Vec<bool> = pats
                    .iter()
                    .map(|p| match p {
                        TermPat::Const(_) => true,
                        TermPat::Var(v) => bound[*v],
                    })
                    .collect();
                for p in &pats {
                    if let TermPat::Var(v) = p {
                        bound[*v] = true;
                    }
                }
                steps.push(Step::Builtin {
                    op: *op,
                    args: pats,
                    bound: mask,
                });
            }
            Literal::Choice { .. } | Literal::Cut => {
                return Err(CoreError::Validation {
                    clause: Some(clause_idx),
                    message: "choice/cut literal reached the planner".into(),
                });
            }
        }
    }

    let head_atom = clause.single_head();
    let head: Vec<TermPat> = head_atom.terms.iter().map(&pat).collect();
    Ok(RulePlan {
        clause_idx,
        head_pred: head_atom.pred.base(),
        head,
        steps,
        n_vars: names.len(),
    })
}

fn pred_key(p: &PredicateRef) -> PredKey {
    match p {
        PredicateRef::Ordinary(s) => PredKey::Ordinary(*s),
        PredicateRef::IdVersion { base, grouping } => PredKey::Id(*base, grouping.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;
    use std::sync::Arc;

    fn plans(src: &str) -> (Vec<RulePlan>, Arc<Interner>) {
        let i = Arc::new(Interner::new());
        let p = ValidatedProgram::parse(src, Arc::clone(&i)).unwrap();
        (compile(&p).unwrap(), i)
    }

    #[test]
    fn simple_join_plan() {
        let (ps, i) = plans("p(X, Y) :- q(X, Z), r(Z, Y).");
        let plan = &ps[0];
        assert_eq!(plan.n_vars, 3);
        assert_eq!(plan.steps.len(), 2);
        // First step scans q (nothing bound), binding X and Z.
        let Step::Atom(a0) = &plan.steps[0] else {
            panic!()
        };
        assert!(a0.probe.is_empty());
        assert_eq!(a0.bind.len(), 2);
        // Second step probes r on position 0 (Z bound).
        let Step::Atom(a1) = &plan.steps[1] else {
            panic!()
        };
        assert_eq!(a1.probe.len(), 1);
        assert_eq!(a1.probe[0].0, 0);
        assert_eq!(a1.probe_positions(), [0]);
        assert_eq!(a1.key, PredKey::Ordinary(i.get("r").unwrap()));
    }

    #[test]
    fn repeated_var_in_one_step_is_checked() {
        let (ps, _) = plans("p(X) :- q(X, X).");
        let Step::Atom(a) = &ps[0].steps[0] else {
            panic!()
        };
        assert_eq!(a.bind.len(), 1);
        assert_eq!(a.check.len(), 1);
        assert_eq!(a.bind[0].1, a.check[0].1);
    }

    #[test]
    fn id_atom_becomes_id_key() {
        let (ps, i) = plans("two(N) :- emp[2](N, D, T), T < 2.");
        let Step::Atom(a) = &ps[0].steps[0] else {
            panic!()
        };
        assert_eq!(a.key, PredKey::Id(i.get("emp").unwrap(), vec![1]));
        // The comparison runs second, with T bound and 2 constant.
        let Step::Builtin { op, bound, .. } = &ps[0].steps[1] else {
            panic!()
        };
        assert_eq!(*op, Builtin::Lt);
        assert_eq!(bound, &vec![true, true]);
    }

    #[test]
    fn negation_step_fully_bound() {
        let (ps, i) = plans("p(X) :- q(X), not r(X).");
        let Step::Negation { key, terms } = &ps[0].steps[1] else {
            panic!()
        };
        assert_eq!(key, &PredKey::Ordinary(i.get("r").unwrap()));
        assert_eq!(terms.len(), 1);
    }

    #[test]
    fn constants_go_into_probe_keys() {
        let (ps, _) = plans("man(X) :- sex_guess[1](X, male, 1).");
        let Step::Atom(a) = &ps[0].steps[0] else {
            panic!()
        };
        // Positions 1 (male) and 2 (tid 1) are constants.
        assert_eq!(a.probe.len(), 2);
        assert_eq!(a.probe_positions(), [1, 2]);
        assert_eq!(a.bind.len(), 1);
        assert_eq!(a.bind[0].0, 0);
    }

    #[test]
    fn atom_steps_on_finds_ordinary_only() {
        let (ps, i) = plans("p(X) :- q(X), q2(X), q[](X, 0), succ(Y, 1), r(Y).");
        let q = i.get("q").unwrap();
        let on_q = ps[0].atom_steps_on(q);
        assert_eq!(
            on_q.len(),
            1,
            "the ID-version of q is not a delta candidate"
        );
    }
}
