//! Top-down SLD evaluation of DATALOG with cut.
//!
//! The paper's §4 closes with: "The relationship between choice and cut in
//! top-down evaluation was also discussed in \[KN88\]. It is known that every
//! DATALOG program with cut has an equivalent DATALOG^C program. Since IDLOG
//! subsumes DATALOG^C, it means that cut can be expressed in IDLOG as well."
//!
//! This module supplies the missing substrate: a Prolog-style SLD resolution
//! interpreter over DATALOG (input facts first, in [`V`] order, then clauses
//! in source order; body literals left to right; negation as failure;
//! arithmetic builtins) with `!` pruning the choice points of the enclosing
//! call. The cross-language tests then demonstrate the containment the
//! remark rests on: a cut program's answer is one of the intended models of
//! the corresponding choice program, which in turn equals an IDLOG answer
//! (Theorem 2).
//!
//! The walk is its own: its unifier links variables to variables, which a
//! bottom-up match never needs. Its values, input order and builtins are
//! the [`crate::reference`] ones. Left-recursive programs can loop in
//! top-down evaluation (no tabling); a step budget turns the loop into an
//! error.

use std::collections::BTreeMap;

use idlog_parser::Builtin;

use crate::reference::{builtin, clauses, Atom, Clause, Head, Lit, Relations, Rows, T, V};

/// Budget for one query.
#[derive(Debug, Clone, Copy)]
pub struct CutBudget {
    /// Maximum resolution steps (clause activations).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for CutBudget {
    fn default() -> Self {
        CutBudget {
            max_steps: 1_000_000,
            max_depth: 10_000,
        }
    }
}

/// All solutions of `?- output(V…)` for the DATALOG-with-cut program `src`
/// over `edb`, cuts applied. The program has single positive ordinary heads
/// and no ID-atoms or `choice`.
///
/// ```
/// use idlog_suite::cut::{all_solutions, CutBudget};
/// use idlog_suite::reference::facts;
///
/// let edb = facts("item(b). item(a).").unwrap();
/// // The cut commits to the first derivation (input facts in V order).
/// let rel = all_solutions("first(X) :- item(X), !.", &edb, "first", &CutBudget::default())
///     .unwrap();
/// assert_eq!(rel.len(), 1);
/// ```
pub fn all_solutions(
    src: &str,
    edb: &Relations,
    output: &str,
    budget: &CutBudget,
) -> Result<Rows, String> {
    let clauses = clauses(src)?;
    let mut by_head: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut vars = Vec::new();
    for (ci, clause) in clauses.iter().enumerate() {
        let [Head {
            negated: false,
            atom: head,
        }] = clause.heads.as_slice()
        else {
            return Err(format!(
                "clause #{ci}: cut programs have single positive heads"
            ));
        };
        if clause.atoms().any(|a| a.grouping.is_some()) {
            return Err(format!("clause #{ci}: ID-atoms belong to IDLOG"));
        }
        if clause.body.iter().any(|l| matches!(l, Lit::Choice(..))) {
            return Err(format!(
                "clause #{ci}: cut programs may not also contain choice"
            ));
        }
        by_head.entry(&head.pred).or_default().push(ci);
        vars.push(variables(clause));
    }
    let arity = clauses
        .iter()
        .flat_map(Clause::atoms)
        .find(|a| a.pred == output)
        .map(|a| a.terms.len())
        .or_else(|| edb.get(output).map(|rows| rows.first().map_or(0, Vec::len)))
        .ok_or_else(|| format!("output predicate {output} does not occur"))?;

    let mut machine = Machine {
        clauses: &clauses,
        vars,
        by_head,
        edb,
        cells: Vec::new(),
        steps: 0,
        budget: *budget,
        results: Rows::new(),
    };
    // Fresh query variables.
    let base = machine.alloc(arity);
    let args: Vec<Slot> = (base..base + arity).map(Slot::Var).collect();
    let mut ground = true;
    let mut answer = |m: &mut Machine<'_>| match args.iter().map(|s| m.deref(s)).collect() {
        Some(row) => {
            m.results.insert(row);
            Sig::More
        }
        None => {
            ground = false;
            Sig::CutTo(0)
        }
    };
    machine.solve_call(output, &args, 0, &mut answer)?;
    if !ground {
        return Err(format!("{output}: an answer is not ground"));
    }
    Ok(machine.results)
}

/// Each variable of `clause` with its index in an activation, in order of
/// first occurrence.
fn variables(clause: &Clause) -> BTreeMap<String, usize> {
    let terms = clause
        .atoms()
        .flat_map(|a| &a.terms)
        .chain(clause.body.iter().flat_map(|l| match l {
            Lit::Op(_, args) => args.as_slice(),
            _ => &[],
        }));
    let mut vars = BTreeMap::new();
    for t in terms {
        if let T::Var(x) = t {
            let next = vars.len();
            vars.entry(x.clone()).or_insert(next);
        }
    }
    vars
}

/// A runtime term: a binding slot or a ground value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Var(usize),
    Val(V),
}

/// One binding cell: unbound, bound to a value, or linked to another cell
/// (variable-variable unification). Links always point to *older* (lower)
/// indices so truncating an activation's slots never dangles.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cell {
    Free,
    Val(V),
    Link(usize),
}

/// Backtracking signal: keep enumerating, or prune to (and including) the
/// call at the given barrier depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sig {
    More,
    CutTo(usize),
}

struct Machine<'a> {
    clauses: &'a [Clause],
    /// Per clause, its variables' indices in an activation.
    vars: Vec<BTreeMap<String, usize>>,
    /// Clause indices per head predicate, in source order.
    by_head: BTreeMap<&'a str, Vec<usize>>,
    edb: &'a Relations,
    cells: Vec<Cell>,
    steps: u64,
    budget: CutBudget,
    results: Rows,
}

type Cont<'m> = dyn FnMut(&mut Machine<'_>) -> Sig + 'm;

impl Machine<'_> {
    fn alloc(&mut self, n: usize) -> usize {
        let base = self.cells.len();
        self.cells.resize(base + n, Cell::Free);
        base
    }

    /// Follow links to the representative: a value or a free variable slot.
    fn walk(&self, s: &Slot) -> Slot {
        let mut s = s.clone();
        loop {
            match s {
                Slot::Val(_) => return s,
                Slot::Var(i) => match &self.cells[i] {
                    Cell::Free => return s,
                    Cell::Val(v) => return Slot::Val(v.clone()),
                    Cell::Link(j) => s = Slot::Var(*j),
                },
            }
        }
    }

    fn deref(&self, s: &Slot) -> Option<V> {
        match self.walk(s) {
            Slot::Val(v) => Some(v),
            Slot::Var(_) => None,
        }
    }

    /// Unify two runtime terms, trailing changed cells.
    fn unify(&mut self, a: &Slot, b: &Slot, trail: &mut Vec<usize>) -> bool {
        match (self.walk(a), self.walk(b)) {
            (Slot::Val(x), Slot::Val(y)) => x == y,
            (Slot::Var(i), Slot::Val(v)) | (Slot::Val(v), Slot::Var(i)) => {
                self.cells[i] = Cell::Val(v);
                trail.push(i);
                true
            }
            (Slot::Var(i), Slot::Var(j)) => {
                if i != j {
                    // Link the younger to the older so truncation is safe.
                    let (young, old) = if i > j { (i, j) } else { (j, i) };
                    self.cells[young] = Cell::Link(old);
                    trail.push(young);
                }
                true
            }
        }
    }

    fn undo(&mut self, trail: &[usize]) {
        for &i in trail {
            self.cells[i] = Cell::Free;
        }
    }

    /// Resolve clause terms to slots under an activation base.
    fn slots(&self, ci: usize, terms: &[T], base: usize) -> Vec<Slot> {
        terms
            .iter()
            .map(|t| match t {
                T::Var(v) => Slot::Var(base + self.vars[ci][v]),
                T::Val(v) => Slot::Val(v.clone()),
            })
            .collect()
    }

    fn bump(&mut self) -> Result<(), String> {
        self.steps += 1;
        if self.steps > self.budget.max_steps {
            return Err(format!(
                "budget exceeded: {} SLD steps",
                self.budget.max_steps
            ));
        }
        Ok(())
    }

    /// Prove `pred(args…)`, invoking `cont` at every solution. `depth` is
    /// the call depth; cuts in bodies activated here carry barrier
    /// `depth + 1`.
    fn solve_call(
        &mut self,
        pred: &str,
        args: &[Slot],
        depth: usize,
        cont: &mut Cont<'_>,
    ) -> Result<Sig, String> {
        if depth >= self.budget.max_depth {
            return Err(format!(
                "budget exceeded: SLD depth {}",
                self.budget.max_depth
            ));
        }

        // Input facts first, in V order.
        let edb = self.edb;
        for row in edb.get(pred).into_iter().flatten() {
            self.bump()?;
            let mut trail = Vec::new();
            let ok = args.len() == row.len()
                && args
                    .iter()
                    .zip(row)
                    .all(|(s, v)| self.unify(s, &Slot::Val(v.clone()), &mut trail));
            let sig = if ok { cont(self) } else { Sig::More };
            self.undo(&trail);
            if let Sig::CutTo(b) = sig {
                return Ok(Sig::CutTo(b));
            }
        }

        // Program clauses in source order.
        let clause_ids = self.by_head.get(pred).cloned().unwrap_or_default();
        let clauses = self.clauses;
        for ci in clause_ids {
            self.bump()?;
            let clause = &clauses[ci];
            let base = self.alloc(self.vars[ci].len());
            let head = self.slots(ci, &clause.heads[0].atom.terms, base);

            let mut trail = Vec::new();
            let ok = args.len() == head.len()
                && args
                    .iter()
                    .zip(&head)
                    .all(|(s, t)| self.unify(s, t, &mut trail));
            let sig = if ok {
                self.solve_body(ci, base, depth, 0, cont)?
            } else {
                Sig::More
            };
            self.undo(&trail);
            self.cells.truncate(base);
            match sig {
                Sig::More => {}
                // A cut whose barrier is this call: consume it (stop trying
                // further clauses) but let the caller continue normally.
                Sig::CutTo(b) if b > depth => return Ok(Sig::More),
                Sig::CutTo(b) => return Ok(Sig::CutTo(b)),
            }
        }
        Ok(Sig::More)
    }

    /// Prove the body literals of clause `ci` from index `li` on.
    fn solve_body(
        &mut self,
        ci: usize,
        base: usize,
        depth: usize,
        li: usize,
        cont: &mut Cont<'_>,
    ) -> Result<Sig, String> {
        let clauses = self.clauses;
        let Some(lit) = clauses[ci].body.get(li) else {
            return Ok(cont(self));
        };
        match lit {
            Lit::Pos(atom) => {
                let args = self.slots(ci, &atom.terms, base);
                let mut err = None;
                let sig = {
                    let mut k = |m: &mut Machine<'_>| -> Sig {
                        match m.solve_body(ci, base, depth, li + 1, &mut *cont) {
                            Ok(sig) => sig,
                            Err(e) => {
                                err = Some(e);
                                Sig::CutTo(0)
                            }
                        }
                    };
                    self.solve_call(&atom.pred, &args, depth + 1, &mut k)?
                };
                match err {
                    Some(e) => Err(e),
                    None => Ok(sig),
                }
            }
            Lit::Neg(atom) => {
                if self.prove_once(ci, atom, base, depth)? {
                    Ok(Sig::More)
                } else {
                    self.solve_body(ci, base, depth, li + 1, cont)
                }
            }
            Lit::Cut => match self.solve_body(ci, base, depth, li + 1, cont)? {
                Sig::More => Ok(Sig::CutTo(depth + 1)),
                cut => Ok(cut),
            },
            Lit::Op(op, args) => {
                let slots = self.slots(ci, args, base);
                self.solve_builtin(ci, base, depth, li, *op, &slots, cont)
            }
            Lit::Choice(..) => unreachable!("refused by all_solutions"),
        }
    }

    /// Negation as failure: succeed iff the (ground) atom has no proof.
    fn prove_once(
        &mut self,
        ci: usize,
        atom: &Atom,
        base: usize,
        depth: usize,
    ) -> Result<bool, String> {
        let args = self.slots(ci, &atom.terms, base);
        if args.iter().any(|s| self.deref(s).is_none()) {
            return Err("negation-as-failure on a non-ground goal".into());
        }
        let mut proved = false;
        self.solve_call(&atom.pred, &args, depth + 1, &mut |_m| {
            proved = true;
            Sig::CutTo(0) // abandon the sub-proof entirely
        })?;
        Ok(proved)
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_builtin(
        &mut self,
        ci: usize,
        base: usize,
        depth: usize,
        li: usize,
        op: Builtin,
        slots: &[Slot],
        cont: &mut Cont<'_>,
    ) -> Result<Sig, String> {
        let given: Vec<Option<V>> = slots.iter().map(|s| self.deref(s)).collect();
        let solutions = match builtin(op, &given)? {
            Some(solutions) => solutions,
            // `X = Y` with both sides free: link them.
            None if op == Builtin::Eq => {
                let mut trail = Vec::new();
                self.unify(&slots[0], &slots[1], &mut trail);
                let sig = self.solve_body(ci, base, depth, li + 1, cont)?;
                self.undo(&trail);
                return Ok(sig);
            }
            None => return Err(format!("{op:?} with too few bound arguments")),
        };
        for values in solutions {
            let mut trail = Vec::new();
            let ok = slots
                .iter()
                .zip(values)
                .all(|(s, v)| self.unify(s, &Slot::Val(v), &mut trail));
            let sig = if ok {
                self.solve_body(ci, base, depth, li + 1, cont)?
            } else {
                Sig::More
            };
            self.undo(&trail);
            if let Sig::CutTo(b) = sig {
                return Ok(Sig::CutTo(b));
            }
        }
        Ok(Sig::More)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{facts, names};

    fn run(src: &str, edb: &str, output: &str) -> Vec<String> {
        let edb = facts(edb).unwrap();
        names(&all_solutions(src, &edb, output, &CutBudget::default()).unwrap())
    }

    #[test]
    fn plain_sld_finds_all_solutions() {
        let rel = run(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
            "par(a, b). par(b, c).",
            "anc",
        );
        assert_eq!(rel, ["a b", "a c", "b c"]);
    }

    #[test]
    fn cut_commits_to_the_first_clause() {
        // Classic if-then-else, driven per person so each status(...) call
        // has a bound argument: special for VIPs (cut commits), normal
        // otherwise.
        let rel = run(
            "result(X, S) :- person(X), status(X, S).
             status(X, special) :- vip(X), !.
             status(X, normal) :- person(X).",
            "person(a). person(b). vip(a).",
            "result",
        );
        assert_eq!(rel, ["a special", "b normal"]);
    }

    #[test]
    fn toplevel_cut_prunes_the_whole_query() {
        // With the query variable unbound, the cut in clause 1 commits the
        // whole status(X, S) call to its first derivation — exactly
        // Prolog's behaviour.
        let rel = run(
            "status(X, special) :- vip(X), !.
             status(X, normal) :- person(X).",
            "person(a). person(b). vip(a).",
            "status",
        );
        assert_eq!(rel, ["a special"]);
    }

    #[test]
    fn cut_prunes_within_one_call_only() {
        // first(X) :- item(X), !. — one item, but which one depends on
        // derivation order (V order here: the least).
        let rel = run(
            "first(X) :- item(X), !.",
            "item(b). item(a). item(c).",
            "first",
        );
        assert_eq!(rel, ["a"], "V order puts a first");
    }

    #[test]
    fn negation_as_failure() {
        let rel = run(
            "bachelor(X) :- person(X), not married(X).",
            "person(a). person(b). married(a).",
            "bachelor",
        );
        assert_eq!(rel, ["b"]);
    }

    #[test]
    fn arithmetic_in_bodies() {
        let rel = run(
            "double(X, Y) :- num(X), plus(X, X, Y).",
            "num(3). num(5).",
            "double",
        );
        assert_eq!(rel, ["3 6", "5 10"]);
    }

    #[test]
    fn left_recursion_hits_the_budget() {
        let budget = CutBudget {
            max_steps: 10_000,
            max_depth: 64,
        };
        let edb = facts("item(a).").unwrap();
        let src = "p(X) :- p(X).
                   p(X) :- item(X).";
        assert!(all_solutions(src, &edb, "p", &budget).is_err());
    }

    #[test]
    fn rejects_choice_and_id_atoms() {
        let edb = Relations::new();
        let budget = CutBudget::default();
        let src = "p(X) :- q(X, Y), choice((X), (Y)).";
        assert!(all_solutions(src, &edb, "p", &budget).is_err());
        assert!(all_solutions("p(X) :- q[](X, 0).", &edb, "p", &budget).is_err());
    }

    #[test]
    fn cut_interacts_with_variable_aliasing() {
        // Head var flows through an unbound call: exercise var-var links.
        let rel = run(
            "top(X) :- mid(X).
             mid(Y) :- item(Y), !.",
            "item(z). item(y).",
            "top",
        );
        assert_eq!(rel, ["y"], "V order: y before z");
    }
}
