//! Sort inference for the two-sorted language.
//!
//! Every predicate column and every clause variable gets a sort (`u` or `i`).
//! Constraints come from constants, arithmetic predicates (all-`i`), tid
//! positions of ID-atoms (`i`), and equalities between occurrences. The
//! constraint graph is solved by fixpoint propagation; columns that remain
//! unconstrained default to `u` (the common case for purely relational
//! programs).

use idlog_common::{FxHashMap, Interner, RelType, Sort, SymbolId};
use idlog_parser::{Atom, Builtin, Literal, PredicateRef, Program, Term};

use crate::error::{CoreError, CoreResult};

/// Inferred column sorts for every predicate occurring in the program.
#[derive(Debug, Clone, Default)]
pub struct SortMap {
    cols: FxHashMap<(SymbolId, usize), Sort>,
    arities: FxHashMap<SymbolId, usize>,
}

impl SortMap {
    /// The inferred relation type of `pred` (columns default to `u`).
    pub fn rel_type(&self, pred: SymbolId) -> Option<RelType> {
        let arity = *self.arities.get(&pred)?;
        Some(RelType::new(
            (0..arity)
                .map(|c| self.cols.get(&(pred, c)).copied().unwrap_or(Sort::U))
                .collect(),
        ))
    }

    /// The inferred sort of one column (defaults to `u`).
    pub fn col_sort(&self, pred: SymbolId, col: usize) -> Sort {
        self.cols.get(&(pred, col)).copied().unwrap_or(Sort::U)
    }

    /// The *constraint* on one column: `None` when the program leaves the
    /// sort open (an input database may then use either sort).
    pub fn constraint(&self, pred: SymbolId, col: usize) -> Option<Sort> {
        self.cols.get(&(pred, col)).copied()
    }
}

/// One sort variable: a predicate column or a clause-local variable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Node {
    Col(SymbolId, usize),
    Var(usize, String),
}

/// Where a sort demand arose: one term occurrence in the program. Maps to
/// a source span through the parser's `SpanMap` side-table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortSite {
    /// Term `term` of head atom `atom` in clause `clause`.
    Head {
        /// Clause index.
        clause: usize,
        /// Head atom index within the clause.
        atom: usize,
        /// Term position within the atom.
        term: usize,
    },
    /// Term (or builtin argument) `term` of body literal `literal` in
    /// clause `clause`.
    Body {
        /// Clause index.
        clause: usize,
        /// Body literal index within the clause.
        literal: usize,
        /// Term position within the literal.
        term: usize,
    },
}

/// One sort conflict, with enough structure for span-carrying diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortConflict {
    /// Clause whose constraint exposed the conflict (`None` for conflicts
    /// between seed constraints).
    pub clause: Option<usize>,
    /// The occurrence whose demand exposed the conflict, when known.
    pub at: Option<SortSite>,
    /// The earlier occurrence that pinned the other sort, when known.
    pub first: Option<SortSite>,
    /// What conflicted.
    pub kind: SortConflictKind,
}

/// The shape of a sort conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortConflictKind {
    /// A predicate column constrained to two different sorts.
    Column {
        /// The predicate.
        pred: SymbolId,
        /// Zero-based column.
        col: usize,
        /// The two demanded sorts.
        sorts: (Sort, Sort),
    },
    /// A clause variable constrained to two different sorts.
    Variable {
        /// The variable name.
        var: String,
        /// The two demanded sorts.
        sorts: (Sort, Sort),
    },
    /// A ground (dis)equality between constants of different sorts.
    GroundMismatch,
    /// A constant of the wrong sort in a position demanding `sort`.
    ConstantPosition {
        /// The demanded sort.
        sort: Sort,
    },
}

impl SortConflict {
    /// The one-line headline `idlog lint` and the engine both report.
    pub fn message(&self, interner: &Interner) -> String {
        match &self.kind {
            SortConflictKind::Column {
                pred,
                col,
                sorts: (a, b),
            } => format!(
                "column {} of `{}` is used both as sort {a} and sort {b}",
                col + 1,
                interner.resolve(*pred)
            ),
            SortConflictKind::Variable { var, sorts: (a, b) } => {
                format!("variable {var} is used both as sort {a} and sort {b}")
            }
            SortConflictKind::GroundMismatch => {
                "(dis)equality between constants of different sorts can never hold".into()
            }
            SortConflictKind::ConstantPosition { sort } => {
                format!("constant of the wrong sort in a position demanding sort {sort}")
            }
        }
    }

    /// The engine's error for this conflict.
    pub(crate) fn error(&self, interner: &Interner) -> CoreError {
        CoreError::Sort {
            clause: self.clause,
            message: self.message(interner),
        }
    }
}

/// Infer sorts for `program`, whose predicates have the given `arities`,
/// with additional seed constraints — used at evaluation time to propagate
/// the *actual* column sorts of the input database into derived predicates
/// whose sorts the program text leaves open (e.g. a column only ever joined
/// against an input column).
pub fn infer_with_seeds(
    program: &Program,
    arities: &FxHashMap<SymbolId, usize>,
    interner: &Interner,
    seeds: &[(SymbolId, usize, Sort)],
) -> CoreResult<SortMap> {
    let (map, conflicts) = infer_collect(program, arities, seeds);
    match conflicts.first() {
        None => Ok(map),
        Some(c) => Err(c.error(interner)),
    }
}

/// Like [`infer_with_seeds`], but collects *every* conflict instead of
/// stopping at the first, and still returns the best-effort [`SortMap`]
/// (first constraint wins on conflicted nodes).
pub fn infer_collect(
    program: &Program,
    arities: &FxHashMap<SymbolId, usize>,
    seeds: &[(SymbolId, usize, Sort)],
) -> (SortMap, Vec<SortConflict>) {
    let mut solver = Solver {
        sorts: FxHashMap::default(),
        unions: Vec::new(),
        conflicts: Vec::new(),
    };
    for &(pred, col, sort) in seeds {
        solver.node_is(Node::Col(pred, col), sort, None, None);
    }

    for (ci, clause) in program.clauses.iter().enumerate() {
        for (hi, h) in clause.head.iter().enumerate() {
            solver.atom(ci, Loc::Head(hi), &h.atom);
        }
        for (li, l) in clause.body.iter().enumerate() {
            match l {
                Literal::Pos(a) | Literal::Neg(a) => solver.atom(ci, Loc::Body(li), a),
                Literal::Builtin { op, args } => solver.builtin(ci, li, *op, args),
                Literal::Choice { .. } | Literal::Cut => {
                    // Choice terms are variables/constants already constrained
                    // by their other occurrences; choice and cut are sort-free.
                }
            }
        }
    }
    solver.solve();

    let mut map = SortMap {
        cols: FxHashMap::default(),
        arities: arities.clone(),
    };
    for (node, (sort, _)) in solver.sorts {
        if let Node::Col(p, c) = node {
            map.cols.insert((p, c), sort);
        }
    }
    (map, solver.conflicts)
}

/// Which side of a clause an atom occurrence sits on.
#[derive(Clone, Copy)]
enum Loc {
    Head(usize),
    Body(usize),
}

impl Loc {
    fn site(self, clause: usize, term: usize) -> SortSite {
        match self {
            Loc::Head(atom) => SortSite::Head { clause, atom, term },
            Loc::Body(literal) => SortSite::Body {
                clause,
                literal,
                term,
            },
        }
    }
}

struct Solver {
    /// Each node's sort plus the occurrence that first demanded it.
    sorts: FxHashMap<Node, (Sort, Option<SortSite>)>,
    /// `(a, b, clause, site)` — nodes demanded equal by the occurrence at
    /// `site` in clause `clause`.
    unions: Vec<(Node, Node, usize, SortSite)>,
    conflicts: Vec<SortConflict>,
}

impl Solver {
    fn atom(&mut self, clause: usize, loc: Loc, atom: &Atom) {
        let (base, tid_pos) = match &atom.pred {
            PredicateRef::Ordinary(p) => (*p, None),
            PredicateRef::IdVersion { base, .. } => (*base, Some(atom.terms.len() - 1)),
        };
        for (pos, term) in atom.terms.iter().enumerate() {
            let site = loc.site(clause, pos);
            if Some(pos) == tid_pos {
                // Tid column is sort i and does not belong to the base pred.
                self.term_is(clause, site, term, Sort::I);
                continue;
            }
            match term {
                Term::Sym(_) => {
                    self.node_is(Node::Col(base, pos), Sort::U, Some(clause), Some(site))
                }
                Term::Int(_) => {
                    self.node_is(Node::Col(base, pos), Sort::I, Some(clause), Some(site))
                }
                Term::Var(v) => {
                    self.unions.push((
                        Node::Col(base, pos),
                        Node::Var(clause, v.clone()),
                        clause,
                        site,
                    ));
                }
            }
        }
    }

    fn builtin(&mut self, clause: usize, literal: usize, op: Builtin, args: &[Term]) {
        let site = |term| SortSite::Body {
            clause,
            literal,
            term,
        };
        match op {
            Builtin::Eq | Builtin::Ne => {
                // Both sides share a sort, whatever it is.
                let nodes: Vec<Option<Node>> = args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Some(Node::Var(clause, v.clone())),
                        _ => None,
                    })
                    .collect();
                match (&nodes[0], &nodes[1]) {
                    (Some(a), Some(b)) => self.unions.push((a.clone(), b.clone(), clause, site(0))),
                    (Some(n), None) => {
                        self.node_is(n.clone(), term_sort(&args[1]), Some(clause), Some(site(1)))
                    }
                    (None, Some(n)) => {
                        self.node_is(n.clone(), term_sort(&args[0]), Some(clause), Some(site(0)))
                    }
                    (None, None) => {
                        if term_sort(&args[0]) != term_sort(&args[1]) {
                            self.conflicts.push(SortConflict {
                                clause: Some(clause),
                                at: Some(site(1)),
                                first: Some(site(0)),
                                kind: SortConflictKind::GroundMismatch,
                            });
                        }
                    }
                }
            }
            _ => {
                // All arithmetic arguments are naturals.
                for (pos, t) in args.iter().enumerate() {
                    self.term_is(clause, site(pos), t, Sort::I);
                }
            }
        }
    }

    fn term_is(&mut self, clause: usize, site: SortSite, term: &Term, sort: Sort) {
        match term {
            Term::Var(v) => {
                self.node_is(Node::Var(clause, v.clone()), sort, Some(clause), Some(site))
            }
            other => {
                if term_sort(other) != sort {
                    self.conflicts.push(SortConflict {
                        clause: Some(clause),
                        at: Some(site),
                        first: None,
                        kind: SortConflictKind::ConstantPosition { sort },
                    });
                }
            }
        }
    }

    fn node_is(&mut self, node: Node, sort: Sort, clause: Option<usize>, site: Option<SortSite>) {
        if let Some(&(prev, prev_site)) = self.sorts.get(&node) {
            if prev != sort {
                self.conflicts
                    .push(conflict(&node, prev, sort, clause, site, prev_site));
            }
            return;
        }
        self.sorts.insert(node, (sort, site));
    }

    /// Propagate equalities until fixpoint, recording (without re-recording)
    /// every union whose two sides disagree.
    fn solve(&mut self) {
        let mut reported = vec![false; self.unions.len()];
        loop {
            let mut changed = false;
            for (idx, (a, b, clause, site)) in self.unions.clone().into_iter().enumerate() {
                match (self.sorts.get(&a).copied(), self.sorts.get(&b).copied()) {
                    (Some((sa, site_a)), Some((sb, site_b))) if sa != sb && !reported[idx] => {
                        reported[idx] = true;
                        // Anchor at the occurrence demanding the equality;
                        // point back at whichever prior demand disagrees.
                        let first = site_b.or(site_a);
                        self.conflicts
                            .push(conflict(&a, sa, sb, Some(clause), Some(site), first));
                    }
                    (Some((sa, _)), None) => {
                        self.sorts.insert(b.clone(), (sa, Some(site)));
                        changed = true;
                    }
                    (None, Some((sb, _))) => {
                        self.sorts.insert(a.clone(), (sb, Some(site)));
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return;
            }
        }
    }
}

fn conflict(
    node: &Node,
    a: Sort,
    b: Sort,
    clause: Option<usize>,
    at: Option<SortSite>,
    first: Option<SortSite>,
) -> SortConflict {
    match node {
        Node::Col(p, c) => SortConflict {
            clause,
            at,
            first,
            kind: SortConflictKind::Column {
                pred: *p,
                col: *c,
                sorts: (a, b),
            },
        },
        Node::Var(var_clause, v) => SortConflict {
            clause: Some(*var_clause),
            at,
            first,
            kind: SortConflictKind::Variable {
                var: v.clone(),
                sorts: (a, b),
            },
        },
    }
}

fn term_sort(t: &Term) -> Sort {
    match t {
        Term::Sym(_) => Sort::U,
        Term::Int(_) => Sort::I,
        Term::Var(_) => unreachable!("callers handle variables"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_parser::parse_program;

    fn arities_of(p: &Program) -> FxHashMap<SymbolId, usize> {
        let mut m = FxHashMap::default();
        for c in &p.clauses {
            for h in &c.head {
                m.insert(h.atom.pred.base(), h.atom.base_arity());
            }
            for l in &c.body {
                if let Some(a) = l.atom() {
                    m.insert(a.pred.base(), a.base_arity());
                }
            }
        }
        m
    }

    fn infer_src(src: &str) -> CoreResult<(SortMap, Interner, FxHashMap<SymbolId, usize>)> {
        let i = Interner::new();
        let p = parse_program(src, &i).unwrap();
        let a = arities_of(&p);
        infer_with_seeds(&p, &a, &i, &[]).map(|m| (m, i, a))
    }

    #[test]
    fn constants_fix_column_sorts() {
        let (m, i, _) = infer_src("p(a, 3).").unwrap();
        let p = i.get("p").unwrap();
        assert_eq!(m.col_sort(p, 0), Sort::U);
        assert_eq!(m.col_sort(p, 1), Sort::I);
        assert_eq!(m.rel_type(p).unwrap().to_string(), "01");
    }

    #[test]
    fn arithmetic_forces_i_through_variables() {
        let (m, i, _) = infer_src("q(X, N) :- p(X, N), succ(N, M), r(M).").unwrap();
        let q = i.get("q").unwrap();
        let r = i.get("r").unwrap();
        assert_eq!(m.col_sort(q, 0), Sort::U); // default
        assert_eq!(m.col_sort(q, 1), Sort::I); // via succ
        assert_eq!(m.col_sort(r, 0), Sort::I);
    }

    #[test]
    fn tid_position_is_i_but_base_columns_propagate() {
        let (m, i, _) = infer_src("two(N) :- emp[2](N, D, T), T < 2.").unwrap();
        let emp = i.get("emp").unwrap();
        assert_eq!(m.col_sort(emp, 0), Sort::U);
        assert_eq!(m.col_sort(emp, 1), Sort::U);
        // emp itself is binary; the tid is not a column of emp.
        assert_eq!(m.rel_type(emp).unwrap().arity(), 2);
    }

    #[test]
    fn conflict_is_reported() {
        // q(a) forces q's column to sort u; succ(X, Y) with X flowing from
        // q(X) forces the same column to sort i.
        let err = infer_src("q(a). p(X) :- q(X), succ(X, Y).").unwrap_err();
        match err {
            CoreError::Sort { message, .. } => assert!(message.contains("`q`"), "{message}"),
            other => panic!("expected sort error, got {other:?}"),
        }
    }

    #[test]
    fn equality_unifies_sides() {
        let (m, i, _) = infer_src("p(X, Y) :- q(X), r(Y), X = Y, s(3), q(Z), Z = 4.").unwrap();
        let q = i.get("q").unwrap();
        // Z = 4 forces q's column to i... and X = Y keeps X,Y united; X in q
        // too, so q col is i, hence X and Y are i.
        assert_eq!(m.col_sort(q, 0), Sort::I);
        let p = i.get("p").unwrap();
        assert_eq!(m.col_sort(p, 0), Sort::I);
        assert_eq!(m.col_sort(p, 1), Sort::I);
    }

    #[test]
    fn ground_disequality_between_sorts_rejected() {
        let err = infer_src("p(X) :- q(X), a != 3.").unwrap_err();
        assert!(matches!(err, CoreError::Sort { .. }));
    }

    #[test]
    fn collect_reports_every_independent_conflict() {
        // Two unrelated conflicts: q's column (u vs i via succ) and r's
        // column (u via constant `a` vs i via constant 3).
        let i = Interner::new();
        let p = parse_program("q(a). p(X) :- q(X), succ(X, Y). r(a). r(3).", &i).unwrap();
        let a = arities_of(&p);
        let (_, conflicts) = infer_collect(&p, &a, &[]);
        assert_eq!(conflicts.len(), 2, "{conflicts:?}");
        assert!(conflicts
            .iter()
            .any(|c| matches!(&c.kind, SortConflictKind::Column { pred, .. }
                if i.resolve(*pred) == "q")));
        assert!(conflicts
            .iter()
            .any(|c| matches!(&c.kind, SortConflictKind::Column { pred, .. }
                if i.resolve(*pred) == "r")));
    }

    #[test]
    fn unconstrained_defaults_to_u() {
        let (m, i, _) = infer_src("p(X) :- q(X).").unwrap();
        let p = i.get("p").unwrap();
        assert_eq!(m.col_sort(p, 0), Sort::U);
    }
}
