//! The state machine under DL, N-DATALOG and DATALOG∨: which clauses it
//! runs, and what one instantiation does to a state. A state is a
//! [`Relations`]; an instance is a binding [`solve`]d from a clause's body,
//! with the clause's heads grounded under it.

use crate::eval::Dialect;
use crate::reference::{clauses, ground, solve, Binding, Clause, Head, Ids, Lit, Relations, T, V};

/// One grounded head: deleted when `.0` (an N-DATALOG negated head),
/// added otherwise.
pub(crate) type Fact = (bool, String, Vec<V>);

/// The clauses of `src`, checked as a `dialect` program: heads joined by
/// `&`, negated ones only in N-DATALOG; no ID-atoms, `choice` or `!`; and no
/// invented values.
pub(crate) fn program(src: &str, dialect: Dialect) -> Result<Vec<Clause>, String> {
    let clauses = clauses(src)?;
    for (ci, clause) in clauses.iter().enumerate() {
        let problem = if clause.disjunctive && clause.heads.len() > 1 {
            Err("disjunctive heads belong to DATALOG∨")
        } else if dialect == Dialect::Dl && clause.heads.iter().any(|h| h.negated) {
            Err("negated heads require the N-DATALOG dialect")
        } else if clause
            .body
            .iter()
            .any(|l| matches!(l, Lit::Choice(..) | Lit::Cut))
        {
            Err("choice belongs to DATALOG^C and cut to top-down evaluation")
        } else {
            checked(clause)
        };
        problem.map_err(|p| format!("invalid clause #{ci}: {p}"))?;
    }
    Ok(clauses)
}

/// What DL, N-DATALOG and DATALOG∨ all refuse: ID-atoms, which belong to
/// IDLOG, and a head variable the body does not mention (an invented
/// value, outside the baselines' scope).
pub(crate) fn checked(clause: &Clause) -> Result<(), &'static str> {
    if clause.atoms().any(|a| a.grouping.is_some()) {
        return Err("ID-atoms belong to IDLOG");
    }
    let in_body = |x: &String| {
        clause.body.iter().any(|l| match l {
            Lit::Pos(a) | Lit::Neg(a) => a.terms.iter().any(|t| matches!(t, T::Var(v) if v == x)),
            Lit::Op(_, args) => args.iter().any(|t| matches!(t, T::Var(v) if v == x)),
            Lit::Choice(..) | Lit::Cut => false,
        })
    };
    let invents = clause
        .heads
        .iter()
        .flat_map(|h| &h.atom.terms)
        .any(|t| matches!(t, T::Var(x) if !in_body(x)));
    if invents {
        return Err("a head variable the body does not bind invents a value");
    }
    Ok(())
}

/// The first state: `edb`, with an empty relation for every other
/// predicate the clauses name. `output` must be one of them.
pub(crate) fn start(
    clauses: &[Clause],
    edb: &Relations,
    output: &str,
) -> Result<Relations, String> {
    let mut state = edb.clone();
    for atom in clauses.iter().flat_map(Clause::atoms) {
        state.entry(atom.pred.clone()).or_default();
    }
    if !state.contains_key(output) {
        return Err(format!(
            "output predicate {output} does not occur in the program"
        ));
    }
    Ok(state)
}

/// Every instance of `clause` whose body holds in `state`.
pub(crate) fn instances(clause: &Clause, state: &Relations) -> Result<Vec<Vec<Fact>>, String> {
    let body: Vec<&Lit> = clause.body.iter().collect();
    let mut bindings = Vec::new();
    solve(&body, &Binding::new(), state, &Ids::new(), &mut bindings)?;
    let heads = |b: &Binding| {
        let ground = |h: &Head| {
            let row = ground(&h.atom.terms, b).ok_or("a head variable is unbound")?;
            Ok((h.negated, h.atom.pred.clone(), row))
        };
        clause.heads.iter().map(ground).collect()
    };
    bindings.iter().map(heads).collect()
}

/// True when `state` holds the fact's row.
pub(crate) fn holds(state: &Relations, (_, pred, row): &Fact) -> bool {
    state.get(pred).is_some_and(|rows| rows.contains(row))
}

/// The instances that change `state` when fired one at a time: DL adds
/// every head, N-DATALOG also deletes its negated ones. An instance that
/// would add and delete one fact is inconsistent and never fires.
pub(crate) fn firings(clauses: &[Clause], state: &Relations) -> Result<Vec<Vec<Fact>>, String> {
    let mut out = Vec::new();
    for clause in clauses {
        for facts in instances(clause, state)? {
            let inconsistent = facts
                .iter()
                .any(|(del, p, r)| *del && facts.iter().any(|(d, q, s)| !d && q == p && s == r));
            // A deletion changes a state that holds its fact, an addition
            // one that does not.
            let changes = facts.iter().any(|f| f.0 == holds(state, f));
            if !inconsistent && changes {
                out.push(facts);
            }
        }
    }
    Ok(out)
}

/// `state` after `facts` fire.
pub(crate) fn apply(state: &mut Relations, facts: &[Fact]) {
    for (del, pred, row) in facts {
        let rows = state.entry(pred.clone()).or_default();
        if *del {
            rows.remove(row);
        } else {
            rows.insert(row.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_rejects_negated_heads() {
        assert!(program("not a(X) :- b(X).", Dialect::Dl).is_err());
        assert!(program("not a(X) :- b(X).", Dialect::NDatalog).is_ok());
    }

    #[test]
    fn rejects_id_atoms_everywhere() {
        assert!(program("a(X) :- b[](X, 0).", Dialect::Dl).is_err());
    }

    #[test]
    fn rejects_choice() {
        assert!(program("a(X) :- b(X, Y), choice((X), (Y)).", Dialect::Dl).is_err());
    }

    #[test]
    fn rejects_invented_values() {
        // Head variable Y not bound by the body: DL's invented values are
        // out of scope here (documented substitution).
        assert!(program("a(X, Y) :- b(X).", Dialect::Dl).is_err());
    }

    #[test]
    fn multi_head_is_fine() {
        let p = program("a(X) & b(X) :- c(X).", Dialect::Dl).unwrap();
        assert_eq!(p[0].heads.len(), 2);
    }
}
