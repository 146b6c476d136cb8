//! The column graph: every use of every variable of a clause, labelled by
//! where it sits.
//!
//! Column taint ([`crate::taint`]), termination's argument flow
//! ([`crate::termination`]), the tid rule ([`crate::tidbound`]) and the
//! optimizer's §4 ∃-adornment ask the same two questions of a clause: where
//! else does this variable occur, and does a builtin cap it by a constant?
//! [`ClauseColumns::new`] answers both in one pass. Each analysis keeps its
//! own lattice and transfer rule on the use lists. [`crate::ValidatedProgram`]
//! builds one [`ColumnGraph`] and passes it to the three it holds.

use idlog_common::SymbolId;
use idlog_parser::{Builtin, Clause, Literal, PredicateRef, Program, Term};

/// Where one use of a variable sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A column of a head atom over the predicate.
    Head(SymbolId),
    /// A column of a positive ordinary atom over the predicate.
    Atom(SymbolId),
    /// A column of a positive ID-literal's grouping set, over its base.
    Group(SymbolId),
    /// A non-grouping column of a positive ID-literal, over its base.
    Member(SymbolId),
    /// The tid of a positive ID-literal, over its base.
    Tid(SymbolId),
    /// A column of a negated atom or ID-literal, over its base.
    Neg(SymbolId),
    /// An argument of a builtin, with the cap it puts on the variable.
    Arg(Builtin, Option<Cap>),
    /// A term of a `choice` literal.
    Choice,
}

/// A cap from above by a constant: `V < c` (`strict`), `V <= c` or
/// `V = c`, or mirrored (`c > V`, `c >= V`, `c = V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cap {
    /// The constant.
    pub c: u64,
    /// The constant itself is excluded.
    pub strict: bool,
}

/// One use of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Use {
    /// The variable, numbered by first use in the clause.
    pub var: usize,
    /// The body literal, or `None` for a head column.
    pub literal: Option<usize>,
    /// The argument position within the atom or builtin.
    pub pos: usize,
    /// Where the use sits.
    pub role: Role,
}

/// The uses of one clause's variables: by clause order, by variable and by
/// body literal.
#[derive(Debug, Clone)]
pub struct ClauseColumns<'a> {
    /// The clause read.
    pub(crate) clause: &'a Clause,
    /// The variables' source names, numbered by first use.
    pub(crate) names: Vec<&'a str>,
    /// Every use: head columns first, then body literals, each in argument
    /// order ([`ClauseColumns::in_literal`] relies on it).
    pub(crate) uses: Vec<Use>,
}

impl<'a> ClauseColumns<'a> {
    /// Read `clause` once.
    pub fn new(clause: &'a Clause) -> Self {
        let mut cols = ClauseColumns {
            clause,
            names: Vec::new(),
            uses: Vec::new(),
        };
        for h in &clause.head {
            let pred = h.atom.pred.base();
            cols.add(None, &h.atom.terms, |_| Role::Head(pred));
        }
        for (li, lit) in clause.body.iter().enumerate() {
            match lit {
                Literal::Neg(a) => cols.add(Some(li), &a.terms, |_| Role::Neg(a.pred.base())),
                Literal::Pos(a) => {
                    let tid = a.terms.len().wrapping_sub(1);
                    cols.add(Some(li), &a.terms, |pos| match &a.pred {
                        PredicateRef::Ordinary(pred) => Role::Atom(*pred),
                        PredicateRef::IdVersion { base, .. } if pos == tid => Role::Tid(*base),
                        PredicateRef::IdVersion { base, grouping } if grouping.contains(&pos) => {
                            Role::Group(*base)
                        }
                        PredicateRef::IdVersion { base, .. } => Role::Member(*base),
                    });
                }
                Literal::Builtin { op, args } => {
                    let cap = cap(*op, args);
                    cols.add(Some(li), args, |_| Role::Arg(*op, cap));
                }
                Literal::Choice { grouped, chosen } => {
                    cols.add(Some(li), grouped.iter().chain(chosen), |_| Role::Choice);
                }
                Literal::Cut => {}
            }
        }
        cols
    }

    fn add(
        &mut self,
        literal: Option<usize>,
        terms: impl IntoIterator<Item = &'a Term>,
        role: impl Fn(usize) -> Role,
    ) {
        for (pos, t) in terms.into_iter().enumerate() {
            let Term::Var(name) = t else { continue };
            let var = self.names.iter().position(|n| n == name);
            let var = var.unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
            let role = role(pos);
            self.uses.push(Use {
                var,
                literal,
                pos,
                role,
            });
        }
    }

    /// Every use of `var`, in clause order.
    pub fn uses_of(&self, var: usize) -> impl Iterator<Item = &Use> {
        self.uses.iter().filter(move |u| u.var == var)
    }

    /// The uses in body literal `li`, in argument order.
    pub fn in_literal(&self, li: usize) -> &[Use] {
        let at = |li| self.uses.partition_point(|u| u.literal < Some(li));
        &self.uses[at(li)..at(li + 1)]
    }

    /// The variable at argument `pos` of body literal `li`, if one is.
    pub(crate) fn var_at(&self, li: usize, pos: usize) -> Option<usize> {
        self.in_literal(li)
            .iter()
            .find(|u| u.pos == pos)
            .map(|u| u.var)
    }

    /// The least constant the clause caps `var` by, if it caps it.
    pub(crate) fn cap(&self, var: usize) -> Option<u64> {
        let caps = self.uses_of(var).filter_map(|u| match u.role {
            Role::Arg(_, cap) => cap,
            _ => None,
        });
        caps.map(|cap| cap.c).min()
    }
}

/// The cap a builtin puts on its one variable argument, if it is `V < c`,
/// `V <= c` or `V = c`, or mirrored: the clause's one cap reader.
fn cap(op: Builtin, args: &[Term]) -> Option<Cap> {
    let (c, strict) = match (op, args) {
        (Builtin::Lt, [Term::Var(_), Term::Int(c)])
        | (Builtin::Gt, [Term::Int(c), Term::Var(_)]) => (c, true),
        (Builtin::Le | Builtin::Eq, [Term::Var(_), Term::Int(c)])
        | (Builtin::Ge | Builtin::Eq, [Term::Int(c), Term::Var(_)]) => (c, false),
        _ => return None,
    };
    Some(Cap {
        c: c.get() as u64,
        strict,
    })
}

/// Every clause of a program, read once ([`ClauseColumns`]), in program
/// order.
#[derive(Debug, Clone)]
pub struct ColumnGraph<'a>(pub Vec<ClauseColumns<'a>>);

impl<'a> ColumnGraph<'a> {
    /// Read every clause of `program`.
    pub fn new(program: &'a Program) -> Self {
        ColumnGraph(program.clauses.iter().map(ClauseColumns::new).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;

    #[test]
    fn uses_are_labelled_by_where_they_sit() {
        let i = Interner::new();
        let src = "h(X, T) :- e[2](X, D, T), not f(D), T < 3, 4 >= X, g(X, X).";
        let p = idlog_parser::parse_program(src, &i).unwrap();
        let cols = ClauseColumns::new(&p.clauses[0]);
        let (e, x) = (i.intern("e"), 0);
        assert_eq!(cols.names, ["X", "T", "D"]);
        let roles: Vec<_> = cols.uses_of(x).map(|u| (u.literal, u.pos)).collect();
        assert_eq!(
            roles,
            [
                (None, 0),
                (Some(0), 0),
                (Some(3), 1),
                (Some(4), 0),
                (Some(4), 1)
            ]
        );
        assert_eq!(cols.in_literal(0)[0].role, Role::Member(e));
        let tid = cols.var_at(0, 2).unwrap();
        assert_eq!(cols.names[tid], "T");
        assert_eq!(
            (cols.cap(tid), cols.cap(x), cols.cap(2)),
            (Some(3), Some(4), None)
        );
        let strict = cols.in_literal(2)[0].role;
        assert!(matches!(
            strict,
            Role::Arg(_, Some(Cap { c: 3, strict: true }))
        ));
        assert_eq!(cols.in_literal(1)[0].role, Role::Neg(i.intern("f")));
    }
}
