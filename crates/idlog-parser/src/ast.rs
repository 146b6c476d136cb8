//! Abstract syntax shared by the language family.

use idlog_common::{FxHashSet, Nat, SymbolId};

/// A term: a variable or a ground constant of either sort.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable, by source name (`X`, `Dept`, `_t`).
    Var(String),
    /// An uninterpreted constant (sort `u`), interned.
    Sym(SymbolId),
    /// A natural number constant (sort `i`).
    Int(Nat),
}

impl Term {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// True for non-variable terms.
    pub fn is_ground(&self) -> bool {
        !matches!(self, Term::Var(_))
    }
}

/// Arithmetic and comparison built-ins (paper §2.2: `succ` is primitive;
/// `+ − * /` and `<` are definable but we provide them natively, with the
/// same safety discipline).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `succ(A, B)` ⇔ B = A + 1.
    Succ,
    /// `plus(A, B, C)` ⇔ A + B = C.
    Plus,
    /// `minus(A, B, C)` ⇔ A − B = C (partial over ℕ).
    Minus,
    /// `times(A, B, C)` ⇔ A · B = C.
    Times,
    /// `div(A, B, C)` ⇔ A / B = C exactly (B ≠ 0, B·C = A).
    Div,
    /// `A < B` (sort i).
    Lt,
    /// `A <= B` (sort i).
    Le,
    /// `A > B` (sort i).
    Gt,
    /// `A >= B` (sort i).
    Ge,
    /// `A = B` (either sort).
    Eq,
    /// `A != B` (either sort).
    Ne,
}

impl Builtin {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Succ => 2,
            Builtin::Plus | Builtin::Minus | Builtin::Times | Builtin::Div => 3,
            Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge | Builtin::Eq | Builtin::Ne => 2,
        }
    }

    /// Parse a prefix-form builtin name (the infix comparisons have no name).
    pub fn from_name(name: &str) -> Option<Builtin> {
        match name {
            "succ" => Some(Builtin::Succ),
            "plus" => Some(Builtin::Plus),
            "minus" => Some(Builtin::Minus),
            "times" => Some(Builtin::Times),
            "div" => Some(Builtin::Div),
            _ => None,
        }
    }

    /// Canonical rendering.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Succ => "succ",
            Builtin::Plus => "plus",
            Builtin::Minus => "minus",
            Builtin::Times => "times",
            Builtin::Div => "div",
            Builtin::Lt => "<",
            Builtin::Le => "<=",
            Builtin::Gt => ">",
            Builtin::Ge => ">=",
            Builtin::Eq => "=",
            Builtin::Ne => "!=",
        }
    }

    /// True for the infix comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge | Builtin::Eq | Builtin::Ne
        )
    }
}

/// Reference to a predicate occurrence: either the ordinary predicate or its
/// ID-version on a grouping attribute set.
///
/// Grouping attributes are stored 0-based and sorted; the surface syntax
/// `emp[2](…)` (1-based, as in the paper) becomes `grouping = [1]`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PredicateRef {
    /// `p(…)`.
    Ordinary(SymbolId),
    /// `p[s](…, Tid)` — the ID-version of `p` on grouping set `s`.
    IdVersion {
        /// The base predicate.
        base: SymbolId,
        /// 0-based grouping attribute positions of the base predicate,
        /// ascending, deduplicated.
        grouping: Vec<usize>,
    },
}

impl PredicateRef {
    /// The underlying predicate symbol.
    pub fn base(&self) -> SymbolId {
        match self {
            PredicateRef::Ordinary(p) => *p,
            PredicateRef::IdVersion { base, .. } => *base,
        }
    }

    /// True for ID-versions.
    pub fn is_id_version(&self) -> bool {
        matches!(self, PredicateRef::IdVersion { .. })
    }
}

/// An atom: predicate reference applied to terms.
///
/// For an ID-atom, `terms` has the base predicate's arity plus one: the last
/// term is the tid.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Predicate (ordinary or ID-version).
    pub pred: PredicateRef,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an ordinary atom.
    pub fn ordinary(pred: SymbolId, terms: Vec<Term>) -> Self {
        Atom {
            pred: PredicateRef::Ordinary(pred),
            terms,
        }
    }

    /// Build an ID-atom; `grouping` is 0-based.
    pub fn id_version(base: SymbolId, mut grouping: Vec<usize>, terms: Vec<Term>) -> Self {
        grouping.sort_unstable();
        grouping.dedup();
        Atom {
            pred: PredicateRef::IdVersion { base, grouping },
            terms,
        }
    }

    /// Arity of the *base* predicate (ID-atoms have one extra tid term).
    pub fn base_arity(&self) -> usize {
        match &self.pred {
            PredicateRef::Ordinary(_) => self.terms.len(),
            PredicateRef::IdVersion { .. } => self.terms.len().saturating_sub(1),
        }
    }

    /// Variables occurring in this atom, in order of first occurrence.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }
}

/// A body literal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// Positive atom (ordinary or ID-version).
    Pos(Atom),
    /// Negated atom.
    Neg(Atom),
    /// Arithmetic/comparison builtin.
    Builtin {
        /// Which builtin.
        op: Builtin,
        /// Its arguments (`op.arity()` of them).
        args: Vec<Term>,
    },
    /// `choice((grouped…), (chosen…))` — DATALOG^C only.
    Choice {
        /// The FD's left-hand side (paper: `X̄`).
        grouped: Vec<Term>,
        /// The FD's right-hand side (paper: `Ȳ`).
        chosen: Vec<Term>,
    },
    /// `!` — Prolog-style cut; only the top-down SLD evaluator
    /// (`idlog_suite::cut`) gives it meaning, every other engine rejects it.
    Cut,
}

impl Literal {
    /// The atom inside, for `Pos`/`Neg` literals.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            _ => None,
        }
    }

    /// Variables occurring in this literal, in order of first occurrence.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        let terms: Vec<&Term> = match self {
            Literal::Pos(a) | Literal::Neg(a) => a.terms.iter().collect(),
            Literal::Builtin { args, .. } => args.iter().collect(),
            Literal::Choice { grouped, chosen } => grouped.iter().chain(chosen.iter()).collect(),
            Literal::Cut => Vec::new(),
        };
        for t in terms {
            if let Term::Var(v) = t {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }

    /// True for positive non-builtin, non-choice atoms (the literals that
    /// positively bind variables per the paper's safety condition).
    pub fn is_positive_atom(&self) -> bool {
        matches!(self, Literal::Pos(_))
    }
}

/// A head atom: an ordinary atom, possibly negated (negation in heads is
/// only meaningful for N-DATALOG, where it is a deletion).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HeadAtom {
    /// True for `not p(…)` heads (N-DATALOG deletions).
    pub negated: bool,
    /// The atom. IDLOG requires this to be an ordinary predicate.
    pub atom: Atom,
}

/// A clause `H₁ & … & H_m :- B₁, …, B_n.` (conjunctive heads, DL) or
/// `H₁ | … | H_m :- B₁, …, B_n.` (disjunctive heads, DATALOG∨); facts have
/// an empty body, and ordinary languages have a single positive head.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Clause {
    /// One or more head atoms (more than one only in DL / DATALOG∨).
    pub head: Vec<HeadAtom>,
    /// Body literals (empty for facts).
    pub body: Vec<Literal>,
    /// True when a multi-atom head is a disjunction (`|`) rather than a
    /// conjunction (`&`). Irrelevant for single-atom heads.
    pub disjunctive: bool,
}

impl Clause {
    /// A single-headed clause.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Clause {
            head: vec![HeadAtom {
                negated: false,
                atom: head,
            }],
            body,
            disjunctive: false,
        }
    }

    /// True when the body is empty.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// The single head atom; panics if the clause is multi-headed (callers
    /// validate single-headedness first).
    pub fn single_head(&self) -> &Atom {
        assert_eq!(self.head.len(), 1, "clause has multiple heads");
        &self.head[0].atom
    }

    /// All variables in the clause, in order of first occurrence
    /// (head first, then body).
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for h in &self.head {
            for v in h.atom.variables() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        for l in &self.body {
            for v in l.variables() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

/// A parsed program: a list of clauses (facts included).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
}

impl Program {
    /// Predicates appearing in any head.
    pub fn head_predicates(&self) -> FxHashSet<SymbolId> {
        let mut out = FxHashSet::default();
        for c in &self.clauses {
            for h in &c.head {
                out.insert(h.atom.pred.base());
            }
        }
        out
    }

    /// Predicates whose ordinary or ID-version occurs in any body.
    pub fn body_predicates(&self) -> FxHashSet<SymbolId> {
        let mut out = FxHashSet::default();
        for c in &self.clauses {
            for l in &c.body {
                if let Some(a) = l.atom() {
                    out.insert(a.pred.base());
                }
            }
        }
        out
    }

    /// Input predicates: occur in a body (ordinary or ID-version) but never
    /// in a head (paper §3.1). Builtins are excluded by construction.
    pub fn input_predicates(&self) -> FxHashSet<SymbolId> {
        let heads = self.head_predicates();
        self.body_predicates()
            .into_iter()
            .filter(|p| !heads.contains(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;

    fn atom(i: &Interner, pred: &str, vars: &[&str]) -> Atom {
        Atom::ordinary(
            i.intern(pred),
            vars.iter().map(|v| Term::Var(v.to_string())).collect(),
        )
    }

    #[test]
    fn builtin_arities() {
        assert_eq!(Builtin::Succ.arity(), 2);
        assert_eq!(Builtin::Plus.arity(), 3);
        assert_eq!(Builtin::Lt.arity(), 2);
        assert_eq!(Builtin::from_name("times"), Some(Builtin::Times));
        assert_eq!(Builtin::from_name("nope"), None);
    }

    #[test]
    fn id_atom_normalizes_grouping() {
        let i = Interner::new();
        let a = Atom::id_version(
            i.intern("emp"),
            vec![1, 0, 1],
            vec![
                Term::Var("X".into()),
                Term::Var("Y".into()),
                Term::Var("T".into()),
            ],
        );
        match &a.pred {
            PredicateRef::IdVersion { grouping, .. } => assert_eq!(grouping, &vec![0, 1]),
            _ => panic!("expected id version"),
        }
        assert_eq!(a.base_arity(), 2);
    }

    #[test]
    fn clause_variables_in_order() {
        let i = Interner::new();
        let c = Clause::new(
            atom(&i, "p", &["X"]),
            vec![
                Literal::Pos(atom(&i, "q", &["X", "Z"])),
                Literal::Neg(atom(&i, "r", &["Z", "Y"])),
            ],
        );
        assert_eq!(c.variables(), vec!["X", "Z", "Y"]);
        assert!(!c.is_fact());
    }

    #[test]
    fn input_predicates_excludes_heads() {
        let i = Interner::new();
        let p = Program {
            clauses: vec![
                Clause::new(
                    atom(&i, "p", &["X"]),
                    vec![Literal::Pos(atom(&i, "q", &["X"]))],
                ),
                Clause::new(
                    atom(&i, "q2", &["X"]),
                    vec![Literal::Pos(atom(&i, "p", &["X"]))],
                ),
            ],
        };
        let inputs = p.input_predicates();
        assert_eq!(inputs.len(), 1);
        assert!(inputs.contains(&i.intern("q")));
    }

    #[test]
    fn choice_literal_variables() {
        let l = Literal::Choice {
            grouped: vec![Term::Var("D".into())],
            chosen: vec![Term::Var("N".into())],
        };
        assert_eq!(l.variables(), vec!["D", "N"]);
    }
}
