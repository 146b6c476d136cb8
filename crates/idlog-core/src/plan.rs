//! Rule plans: clauses compiled to ordered join steps.
//!
//! The safe body order found by [`crate::safety`] is compiled into a
//! [`RulePlan`]: for every step we know statically which argument positions
//! are bound on entry (they form the probe key), which bind new variables,
//! and which merely check a repeated variable. The engine then executes the
//! plan without re-deriving any of this per tuple.
//!
//! **Variants.** A change set binds some literal (or the head) of a rule
//! before anything else is known, so a rule is also compiled in the orders
//! a change drives it — each once, from the compiled plan itself, on the
//! first request, so a rule nothing ever drives carries none:
//!
//! - `RulePlan::driven_by`: for each positive atom and each negation, the
//!   rule with that literal first (the rule as written, when that literal
//!   is its first step and an atom). Its first step reads the change set — a
//!   semi-naive delta, a maintenance net change, or the tuples whose
//!   negated membership flipped — and binds the literal's terms from each
//!   tuple; the other literals follow in the safe order, now probing on
//!   what the change bound instead of scanning before it.
//! - `RulePlan::head_bound`: the rule with its head first, for DRed's
//!   rederivation of given head tuples, then the positive atoms over lower
//!   strata (settled relations the head's bindings probe), then the rest.
//!
//! Moving a literal earlier only binds variables sooner, so every later
//! step keeps its safety: negations stay fully bound and builtin modes
//! stay met. A step whose every position ends up bound is a membership
//! test (`AtomStep::fully_bound`), which needs no index.

use std::sync::OnceLock;

use idlog_common::{FxHashMap, SymbolId, Value};
use idlog_parser::{Builtin, Literal, PredicateRef, Term};

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
    /// The relation is an input, an ID-relation or in a lower stratum than
    /// the rule's head: complete before the head's stratum is evaluated.
    settled: bool,
}

impl AtomStep {
    /// The argument positions bound on entry (the probe key's columns).
    pub(crate) fn probe_positions(&self) -> &[usize] {
        &self.positions
    }

    /// True when every position is bound on entry: the probe key is the
    /// whole tuple, so the step is a membership test and needs no index.
    pub(crate) fn fully_bound(&self) -> bool {
        self.bind.is_empty() && self.check.is_empty()
    }

    /// The atom's argument patterns, in position order.
    fn terms(&self) -> Vec<TermPat> {
        let arity = self.probe.len() + self.bind.len() + self.check.len();
        let mut terms = vec![TermPat::Var(0); arity];
        for &(pos, pat) in &self.probe {
            terms[pos] = pat;
        }
        for &(pos, v) in self.bind.iter().chain(&self.check) {
            terms[pos] = TermPat::Var(v);
        }
        terms
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
    /// Per argument, whether it is bound when the step runs: the probe
    /// key's positions of an atom, every argument of a negation.
    pub(crate) fn bound_on_entry(&self) -> Vec<bool> {
        match self {
            Step::Atom(a) => {
                let mut bound = vec![false; a.probe.len() + a.bind.len() + a.check.len()];
                for &pos in &a.positions {
                    bound[pos] = true;
                }
                bound
            }
            Step::Negation { terms, .. } => vec![true; terms.len()],
            Step::Builtin { bound, .. } => bound.clone(),
        }
    }

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
    /// The step of the rule as written whose literal this plan's first
    /// step reads when a change set drives it: `si` for the variant
    /// [`RulePlan::driven_by`]`(si)`, 0 for the rule as written.
    driven_step: usize,
    /// Per body step, the variant that step drives, compiled on the first
    /// request. Step 0's stays empty when it is an atom: the rule as
    /// written already reads it first.
    driven: Box<[OnceLock<Box<RulePlan>>]>,
    /// This rule with its head first, compiled on the first request.
    head_bound: OnceLock<Box<RulePlan>>,
}

impl RulePlan {
    fn new(clause_idx: usize, head_pred: SymbolId, head: Vec<TermPat>, body: Body) -> Self {
        RulePlan {
            clause_idx,
            head_pred,
            head,
            driven: body.steps.iter().map(|_| OnceLock::new()).collect(),
            steps: body.steps,
            n_vars: body.bound.len(),
            driven_step: 0,
            head_bound: OnceLock::new(),
        }
    }

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

    /// The variant a change to step `si`'s literal drives: its first step
    /// binds that literal's terms from each changed tuple, and the other
    /// literals follow in this plan's order — the plan itself when step 0
    /// is an atom. Panics for a builtin step.
    pub(crate) fn driven_by(&self, si: usize) -> &RulePlan {
        if si == 0 && matches!(self.steps[0], Step::Atom(_)) {
            return self;
        }
        self.driven[si].get_or_init(|| {
            let (key, terms) = match &self.steps[si] {
                Step::Atom(a) => (a.key.clone(), a.terms()),
                Step::Negation { key, terms } => (key.clone(), terms.clone()),
                Step::Builtin { .. } => panic!("a builtin step drives nothing"),
            };
            let others = self.steps.iter().enumerate().filter(|&(i, _)| i != si);
            let mut variant = self.variant(key, &terms, others.map(|(_, step)| step));
            variant.driven_step = si;
            Box::new(variant)
        })
    }

    /// The step of the rule as written that this plan's first step reads
    /// when a change set drives it (see [`RulePlan::driven_by`]).
    pub(crate) fn driven_step(&self) -> usize {
        self.driven_step
    }

    /// The variant that rederives given head tuples: its first step binds
    /// the head's terms from each tuple, then come the positive atoms over
    /// inputs and lower strata — settled by then, so the head's bindings
    /// probe them instead of the stratum's own relations being scanned —
    /// then the other literals in this plan's order.
    pub(crate) fn head_bound(&self) -> &RulePlan {
        self.head_bound.get_or_init(|| {
            let (settled, rest): (Vec<&Step>, Vec<&Step>) = self
                .steps
                .iter()
                .partition(|step| matches!(step, Step::Atom(a) if a.settled));
            let head = PredKey::Ordinary(self.head_pred);
            Box::new(self.variant(head, &self.head, settled.into_iter().chain(rest)))
        })
    }

    /// This rule with a first step over `key` that binds `terms` from a
    /// change set, then `rest` in order.
    fn variant<'s>(
        &self,
        key: PredKey,
        terms: &[TermPat],
        rest: impl Iterator<Item = &'s Step>,
    ) -> RulePlan {
        let mut body = Body::new(self.n_vars, self.steps.len() + 1);
        body.atom(key, terms, false);
        for step in rest {
            body.step(step);
        }
        RulePlan::new(self.clause_idx, self.head_pred, self.head.clone(), body)
    }
}

/// Compile every clause of `program` into a [`RulePlan`].
pub fn compile(program: &ValidatedProgram) -> CoreResult<Vec<RulePlan>> {
    (0..program.ast().clauses.len())
        .map(|ci| compile_clause(program, ci, &[]))
        .collect()
}

/// A body compiled one literal at a time, in a chosen order, tracking which
/// variables the steps so far have bound.
struct Body {
    bound: Vec<bool>,
    steps: Vec<Step>,
}

impl Body {
    fn new(n_vars: usize, n_steps: usize) -> Self {
        Body {
            bound: vec![false; n_vars],
            steps: Vec::with_capacity(n_steps),
        }
    }

    /// A positive atom step over `key`: bound positions form the probe key,
    /// the first occurrence of a free variable binds it, a repeat within
    /// the atom checks it.
    fn atom(&mut self, key: PredKey, terms: &[TermPat], settled: bool) {
        let mut probe = Vec::new();
        let mut bind = Vec::new();
        let mut check = Vec::new();
        let mut bound_in_step: Vec<usize> = Vec::new();
        for (pos, &term) in terms.iter().enumerate() {
            match term {
                TermPat::Var(v) if !self.bound[v] => {
                    if bound_in_step.contains(&v) {
                        check.push((pos, v));
                    } else {
                        bind.push((pos, v));
                        bound_in_step.push(v);
                    }
                }
                _ => probe.push((pos, term)),
            }
        }
        for v in bound_in_step {
            self.bound[v] = true;
        }
        self.steps.push(Step::Atom(AtomStep {
            key,
            positions: probe.iter().map(|&(pos, _)| pos).collect(),
            probe,
            bind,
            check,
            settled,
        }));
    }

    fn negation(&mut self, key: PredKey, terms: Vec<TermPat>) {
        // Safety ordering guarantees all bound.
        debug_assert!(terms.iter().all(|t| match t {
            TermPat::Var(v) => self.bound[*v],
            TermPat::Const(_) => true,
        }));
        self.steps.push(Step::Negation { key, terms });
    }

    fn builtin(&mut self, op: Builtin, args: Vec<TermPat>) {
        let bound: Vec<bool> = args
            .iter()
            .map(|p| match p {
                TermPat::Const(_) => true,
                TermPat::Var(v) => self.bound[*v],
            })
            .collect();
        for p in &args {
            if let TermPat::Var(v) = p {
                self.bound[*v] = true;
            }
        }
        self.steps.push(Step::Builtin { op, args, bound });
    }

    /// A compiled step again, under this body's bindings so far. Moving a
    /// literal earlier than the safe order has it only binds variables
    /// sooner, so every step keeps its safety: negations stay fully bound
    /// and builtin modes stay met (the mode tables are monotone).
    fn step(&mut self, step: &Step) {
        match step {
            Step::Atom(a) => self.atom(a.key.clone(), &a.terms(), a.settled),
            Step::Negation { key, terms } => self.negation(key.clone(), terms.clone()),
            Step::Builtin { op, args, .. } => self.builtin(*op, args.clone()),
        }
    }
}

/// Compile clause `clause_idx` in its safe order, with the head positions
/// marked in `head_bound` bound on entry (none for the rule the engine
/// runs). Each step then states what is bound when it runs: this is the
/// binding pass goal-directed evaluation adorns along ([`crate::relevance`]).
/// The safe order stays safe with more bound, as the mode tables are
/// monotone.
pub(crate) fn compile_clause(
    program: &ValidatedProgram,
    clause_idx: usize,
    head_bound: &[bool],
) -> CoreResult<RulePlan> {
    let clause = &program.ast().clauses[clause_idx];
    // Variables get dense indices in order of first occurrence.
    let names = clause.variables();
    let vars: FxHashMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let pats = |terms: &[Term]| -> Vec<TermPat> {
        terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => TermPat::Var(vars[v.as_str()]),
                Term::Sym(s) => TermPat::Const(Value::Sym(*s)),
                Term::Int(n) => TermPat::Const(Value::Int(*n)),
            })
            .collect()
    };
    let head_atom = clause.single_head();
    let head_pred = head_atom.pred.base();
    let strat = program.stratification();
    let settled = |pred: &PredicateRef| match pred {
        PredicateRef::Ordinary(p) => {
            !program.idb().contains(p) || strat.stratum(*p) < strat.stratum(head_pred)
        }
        PredicateRef::IdVersion { .. } => true,
    };

    let head = pats(&head_atom.terms);
    let order = &program.clause_order(clause_idx).order;
    let mut body = Body::new(names.len(), order.len());
    for (term, _) in head.iter().zip(head_bound).filter(|(_, &b)| b) {
        if let TermPat::Var(v) = term {
            body.bound[*v] = true;
        }
    }
    for &li in order {
        match &clause.body[li] {
            Literal::Pos(atom) => body.atom(
                pred_key(&atom.pred),
                &pats(&atom.terms),
                settled(&atom.pred),
            ),
            Literal::Neg(atom) => body.negation(pred_key(&atom.pred), pats(&atom.terms)),
            Literal::Builtin { op, args } => body.builtin(*op, pats(args)),
            Literal::Choice { .. } | Literal::Cut => {
                return Err(CoreError::Validation {
                    clause: Some(clause_idx),
                    message: "choice/cut literal reached the planner".into(),
                });
            }
        }
    }
    Ok(RulePlan::new(clause_idx, head_pred, head, body))
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

    /// The key and the probed (or, `None`, fully bound) positions of each
    /// atom step; `not` for a negation.
    fn shape(plan: &RulePlan, i: &Interner) -> Vec<(String, Option<Vec<usize>>)> {
        plan.steps
            .iter()
            .map(|step| match step {
                Step::Atom(a) => {
                    let probed = (!a.fully_bound()).then(|| a.probe_positions().to_vec());
                    (i.resolve(a.key.base()), probed)
                }
                Step::Negation { key, .. } => (format!("not {}", i.resolve(key.base())), None),
                Step::Builtin { op, .. } => (op.name().to_string(), None),
            })
            .collect()
    }

    #[test]
    fn variants_put_the_driven_literal_or_the_head_first() {
        let (ps, i) = plans(
            "t(X, Z) :- t(X, Y), e(Y, Z).
             far(X) :- node(X), not reach(X).
             reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).",
        );
        let s = |name: &str, probed: Option<&[usize]>| {
            (name.to_string(), probed.map(<[usize]>::to_vec))
        };
        let tc = &ps[0];
        assert_eq!(shape(tc, &i), [s("t", Some(&[])), s("e", Some(&[0]))]);
        assert_eq!(tc.driven_step(), 0);
        // A change to `e` binds Y and Z first: `t` is probed on Y.
        let by_e = tc.driven_by(1);
        assert_eq!(by_e.driven_step(), 1);
        assert_eq!(shape(by_e, &i), [s("e", Some(&[])), s("t", Some(&[1]))]);
        // Driving the first step is the rule as written.
        assert!(std::ptr::eq(tc.driven_by(0), tc));
        // Rederiving t(X, Z): the input `e` first, probed on Z, then `t`
        // fully bound — a membership test.
        let rederive = tc.head_bound();
        assert_eq!(
            shape(rederive, &i),
            [s("t", Some(&[])), s("e", Some(&[1])), s("t", None)]
        );
        // A flipped negation drives a positive read of the changed tuples,
        // and the literal before it becomes a membership test.
        let far = &ps[1];
        assert_eq!(
            shape(far.driven_by(1), &i),
            [s("reach", Some(&[])), s("node", None)]
        );
        // Rederiving far(X): the input `node` is a membership test right
        // after the head; the negation keeps its place after it.
        assert_eq!(
            shape(far.head_bound(), &i),
            [s("far", Some(&[])), s("node", None), s("not reach", None)]
        );
    }
}
