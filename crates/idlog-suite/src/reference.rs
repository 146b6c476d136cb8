//! A reference interpreter of the paper's §2, written for the test suites.
//!
//! The engine is held to this module: the random, determinism, maintenance
//! and corpus suites assert that the engine's relations equal the ones
//! computed here. That check means something only because this module
//! shares no evaluation code with the engine. It reads programs with
//! `idlog-parser` and uses `idlog-common`'s interner to resolve names, and
//! nothing else: no plans, no storage, no tid oracles, no builtin solver,
//! no stratifier. Everything is computed from the definitions, as plainly
//! as possible and with no regard for speed:
//!
//! * a value is a [`V`]; its derived order puts integers before symbols,
//!   integers by value and symbols by name (the engine's canonical order);
//! * the strata come from the predicate dependencies, where a negated
//!   literal and an ID-literal both depend *strictly* on their predicate;
//! * the ID-relation `p[s]` groups `p`'s tuples on the positions `s` and
//!   numbers each group's members: in [`V`] order by default (the engine's
//!   `CanonicalOracle`), or by an explicit map in [`Perms`];
//! * each stratum runs naively: every rule fires on the whole current
//!   state until a round adds nothing;
//! * builtins are the arithmetic relations over ℕ, solved on the spot.
//!
//! The other languages the paper compares IDLOG with run on this module's
//! matcher too: [`crate::eval`] (DL, N-DATALOG and DATALOG^C),
//! [`crate::disj`] (DATALOG∨) and [`crate::cut`] (DATALOG with cut). So
//! [`clauses`] reads their clause forms as well (several heads, negated
//! heads, `|` heads, `choice` and `!`), and [`solve`], [`unify`], [`ground`]
//! and [`builtin`] are public. [`perfect_model`] and [`model`] still refuse
//! everything that is not IDLOG, and none of these languages reaches the
//! engine either.

use std::collections::{BTreeMap, BTreeSet};

use idlog_common::{Interner, Tuple, Value};
use idlog_parser::{Builtin, Literal, PredicateRef, Term};

/// A ground value. The derived order is the engine's canonical order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum V {
    /// A natural number (sort `i`).
    Int(i64),
    /// An uninterpreted constant (sort `u`), by name.
    Sym(String),
}

/// The tuples of one relation.
pub type Rows = BTreeSet<Vec<V>>;

/// Relations by predicate name.
pub type Relations = BTreeMap<String, Rows>;

/// Explicit ID-functions, keyed by predicate name and 0-based grouping.
/// `perms[g][k]` is the tid of the `k`-th member of the `g`-th group, groups
/// and members both in [`V`] order: the convention of the engine's
/// `ExplicitOracle`. An ID-relation without an entry numbers each group's
/// members in [`V`] order.
pub type Perms = BTreeMap<(String, Vec<usize>), Vec<Vec<i64>>>;

/// ID-relations by predicate name and 0-based grouping, each tuple
/// extended by its tid.
pub type Ids = BTreeMap<(String, Vec<usize>), Rows>;

/// Variable bindings of one clause instance.
pub type Binding = BTreeMap<String, V>;

/// A term with its names resolved.
#[derive(Clone, Debug)]
pub enum T {
    /// A variable, by name.
    Var(String),
    /// A constant.
    Val(V),
}

/// An atom: `pred(terms)`, or the ID-literal `pred[grouping](terms, tid)`.
#[derive(Clone, Debug)]
pub struct Atom {
    /// The predicate's name.
    pub pred: String,
    /// The 0-based grouping of an ID-literal; `None` for an ordinary atom.
    pub grouping: Option<Vec<usize>>,
    /// The arguments (an ID-literal's tid last).
    pub terms: Vec<T>,
}

/// A body literal.
#[derive(Clone, Debug)]
pub enum Lit {
    /// A positive atom.
    Pos(Atom),
    /// A negated atom.
    Neg(Atom),
    /// A builtin relation.
    Op(Builtin, Vec<T>),
    /// DATALOG^C's `choice((X̄), (Ȳ))`: the grouped terms, then the chosen.
    Choice(Vec<T>, Vec<T>),
    /// Prolog's cut, `!`.
    Cut,
}

/// One head atom; a negated one is an N-DATALOG deletion.
#[derive(Clone, Debug)]
pub struct Head {
    /// True for `not p(…)`.
    pub negated: bool,
    /// The atom.
    pub atom: Atom,
}

/// A clause with its names resolved.
#[derive(Clone, Debug)]
pub struct Clause {
    /// One head, or several joined by `&` (DL) or `|` (DATALOG∨).
    pub heads: Vec<Head>,
    /// True when several heads are a disjunction (`|`).
    pub disjunctive: bool,
    /// The body literals, in source order.
    pub body: Vec<Lit>,
}

impl Clause {
    /// Every atom of the clause: its heads, then its positive and negated
    /// body atoms.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> {
        let body = self.body.iter().filter_map(|l| match l {
            Lit::Pos(a) | Lit::Neg(a) => Some(a),
            _ => None,
        });
        self.heads.iter().map(|h| &h.atom).chain(body)
    }
}

/// An IDLOG rule: a clause with one positive ordinary head and no `choice`
/// or `!`.
struct Rule<'a> {
    head: &'a Atom,
    body: &'a [Lit],
}

static EMPTY: Rows = Rows::new();

/// The perfect model of the program `src` over the input relations `edb`,
/// under the ID-functions `perms` (an empty map gives the canonical ones).
/// The result holds every predicate the program names: its input relations
/// as given, its derived ones as computed.
pub fn perfect_model(src: &str, edb: &Relations, perms: &Perms) -> Result<Relations, String> {
    model(&clauses(src)?, edb, perms)
}

/// [`perfect_model`] of resolved clauses.
pub fn model(clauses: &[Clause], edb: &Relations, perms: &Perms) -> Result<Relations, String> {
    let mut rules = Vec::new();
    for clause in clauses {
        let [Head {
            negated: false,
            atom: head,
        }] = clause.heads.as_slice()
        else {
            return Err("an IDLOG clause has one positive head".into());
        };
        if head.grouping.is_some() {
            return Err("a head is an ordinary atom".into());
        }
        if clause
            .body
            .iter()
            .any(|l| matches!(l, Lit::Choice(..) | Lit::Cut))
        {
            return Err("choice and cut are not IDLOG".into());
        }
        rules.push(Rule {
            head,
            body: &clause.body,
        });
    }
    let strata = strata(&rules)?;
    let mut model = Relations::new();
    for atom in clauses.iter().flat_map(Clause::atoms) {
        let given = edb.get(&atom.pred).cloned().unwrap_or_default();
        model.entry(atom.pred.clone()).or_insert(given);
    }
    let top = strata.values().copied().max().unwrap_or(0);
    for stratum in 0..=top {
        let here: Vec<&Rule> = rules
            .iter()
            .filter(|r| strata[&r.head.pred] == stratum)
            .collect();
        // Every ID-literal here reads a predicate of a lower stratum, which
        // is complete by now.
        let mut ids = Ids::new();
        for lit in here.iter().flat_map(|r| r.body) {
            if let Lit::Pos(atom) | Lit::Neg(atom) = lit {
                if let Some(grouping) = &atom.grouping {
                    let key = (atom.pred.clone(), grouping.clone());
                    let rel = id_relation(&model[&atom.pred], grouping, perms.get(&key))?;
                    ids.insert(key, rel);
                }
            }
        }
        loop {
            let mut new = Vec::new();
            for rule in &here {
                let mut bindings = Vec::new();
                let body: Vec<&Lit> = rule.body.iter().collect();
                solve(&body, &Binding::new(), &model, &ids, &mut bindings)?;
                let known = &model[&rule.head.pred];
                for b in bindings {
                    let t = ground(&rule.head.terms, &b)
                        .ok_or_else(|| format!("{}: unsafe head", rule.head.pred))?;
                    if !known.contains(&t) {
                        new.push((&rule.head.pred, t));
                    }
                }
            }
            if new.is_empty() {
                break;
            }
            for (pred, t) in new {
                model
                    .get_mut(pred)
                    .expect("every head has a relation")
                    .insert(t);
            }
        }
    }
    Ok(model)
}

/// The relations of a facts file: every clause a ground fact.
pub fn facts(src: &str) -> Result<Relations, String> {
    let mut out = Relations::new();
    for clause in clauses(src)? {
        let [Head {
            negated: false,
            atom,
        }] = clause.heads.as_slice()
        else {
            return Err("a fact has one positive head".into());
        };
        if !clause.body.is_empty() {
            return Err(format!("{}: not a fact", atom.pred));
        }
        let row = ground(&atom.terms, &Binding::new())
            .ok_or_else(|| format!("{}: a fact must be ground", atom.pred))?;
        out.entry(atom.pred.clone()).or_default().insert(row);
    }
    Ok(out)
}

/// Relations of symbol facts, written as `(predicate, [constant, …])`.
pub fn symbol_facts(facts: &[(&str, &[&str])]) -> Relations {
    let mut out = Relations::new();
    for (pred, cols) in facts {
        let row = cols.iter().map(|c| V::Sym(c.to_string())).collect();
        out.entry(pred.to_string()).or_default().insert(row);
    }
    out
}

/// Engine tuples as reference rows.
pub fn rows<'a>(tuples: impl IntoIterator<Item = &'a Tuple>, interner: &Interner) -> Rows {
    let value = |v: &Value| match *v {
        Value::Int(n) => V::Int(n.get()),
        Value::Sym(s) => V::Sym(interner.resolve(s)),
    };
    tuples
        .into_iter()
        .map(|t| t.values().iter().map(value).collect())
        .collect()
}

/// Engine answers (each answer the tuples of one relation) as a set of
/// [`Rows`]: the form in which the other languages' walks return theirs.
pub fn answer_set<'a, A, I>(answers: A, interner: &Interner) -> BTreeSet<Rows>
where
    A: IntoIterator<Item = I>,
    I: IntoIterator<Item = &'a Tuple>,
{
    answers.into_iter().map(|a| rows(a, interner)).collect()
}

/// The engine's side of an engine ≡ reference check: what `relation`
/// holds for each predicate of `model`, an absent relation read as empty.
pub fn view<'a, I>(
    model: &Relations,
    interner: &Interner,
    relation: impl Fn(&str) -> Option<I>,
) -> Relations
where
    I: IntoIterator<Item = &'a Tuple>,
{
    model
        .keys()
        .map(|name| {
            let held = relation(name).map(|tuples| rows(tuples, interner));
            (name.clone(), held.unwrap_or_default())
        })
        .collect()
}

/// Parse `src` and resolve every name.
pub fn clauses(src: &str) -> Result<Vec<Clause>, String> {
    let interner = Interner::new();
    let program = idlog_parser::parse_program(src, &interner).map_err(|e| e.to_string())?;
    let term = |t: &Term| match t {
        Term::Var(v) => T::Var(v.clone()),
        Term::Sym(s) => T::Val(V::Sym(interner.resolve(*s))),
        Term::Int(n) => T::Val(V::Int(n.get())),
    };
    let terms = |ts: &[Term]| ts.iter().map(term).collect();
    let atom = |a: &idlog_parser::Atom| Atom {
        pred: interner.resolve(a.pred.base()),
        grouping: match &a.pred {
            PredicateRef::Ordinary(_) => None,
            PredicateRef::IdVersion { grouping, .. } => Some(grouping.clone()),
        },
        terms: terms(&a.terms),
    };
    let clauses = program.clauses.iter().map(|clause| Clause {
        heads: clause
            .head
            .iter()
            .map(|h| Head {
                negated: h.negated,
                atom: atom(&h.atom),
            })
            .collect(),
        disjunctive: clause.disjunctive,
        body: clause
            .body
            .iter()
            .map(|l| match l {
                Literal::Pos(a) => Lit::Pos(atom(a)),
                Literal::Neg(a) => Lit::Neg(atom(a)),
                Literal::Builtin { op, args } => Lit::Op(*op, terms(args)),
                Literal::Choice { grouped, chosen } => Lit::Choice(terms(grouped), terms(chosen)),
                Literal::Cut => Lit::Cut,
            })
            .collect(),
    });
    Ok(clauses.collect())
}

/// The stratum of every derived predicate: the least numbering in which a
/// rule's head is at or above each positive ordinary body predicate and
/// strictly above each negated or ID-read one.
fn strata(rules: &[Rule]) -> Result<BTreeMap<String, usize>, String> {
    let mut level: BTreeMap<String, usize> =
        rules.iter().map(|r| (r.head.pred.clone(), 0)).collect();
    let ceiling = level.len();
    loop {
        let mut changed = false;
        for rule in rules {
            for lit in rule.body {
                let (Lit::Pos(a) | Lit::Neg(a)) = lit else {
                    continue;
                };
                let Some(&below) = level.get(&a.pred) else {
                    continue;
                };
                let strict = matches!(lit, Lit::Neg(_)) || a.grouping.is_some();
                let need = below + usize::from(strict);
                let head = level.get_mut(&rule.head.pred).expect("heads are levelled");
                if *head < need {
                    if need >= ceiling {
                        return Err(format!("{} is not stratifiable", rule.head.pred));
                    }
                    *head = need;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(level);
        }
    }
}

/// The ID-relation of `rel` on `grouping`: each tuple extended by its tid.
fn id_relation(
    rel: &Rows,
    grouping: &[usize],
    perms: Option<&Vec<Vec<i64>>>,
) -> Result<Rows, String> {
    let mut groups: BTreeMap<Vec<V>, Vec<&Vec<V>>> = BTreeMap::new();
    for row in rel {
        let key = grouping.iter().map(|&i| row[i].clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    if perms.is_some_and(|p| p.len() != groups.len()) {
        return Err("one permutation per group".into());
    }
    let mut out = Rows::new();
    for (g, members) in groups.values().enumerate() {
        for (k, row) in members.iter().enumerate() {
            let tid = match perms {
                None => k as i64,
                Some(p) => *p[g].get(k).ok_or("a permutation covers its group")?,
            };
            let mut t = (*row).clone();
            t.push(V::Int(tid));
            out.insert(t);
        }
    }
    Ok(out)
}

/// Every extension of `binding` under which the literals `body` hold, read
/// against `model` (an absent relation is empty) and the ID-relations
/// `ids`. The literals run in body order, except that one which cannot run
/// yet (a negation with a free variable, a builtin with too few bound
/// arguments) waits for the first one that can. `choice` and `!` have no
/// bottom-up reading and are refused.
pub fn solve(
    body: &[&Lit],
    binding: &Binding,
    model: &Relations,
    ids: &Ids,
    out: &mut Vec<Binding>,
) -> Result<(), String> {
    if body.is_empty() {
        out.push(binding.clone());
        return Ok(());
    }
    for (i, lit) in body.iter().enumerate() {
        let mut others = body.to_vec();
        others.remove(i);
        match lit {
            Lit::Pos(a) => {
                for row in relation(a, model, ids) {
                    if let Some(b) = unify(&a.terms, row, binding) {
                        solve(&others, &b, model, ids, out)?;
                    }
                }
            }
            Lit::Neg(a) => {
                let Some(row) = ground(&a.terms, binding) else {
                    continue;
                };
                if !relation(a, model, ids).contains(&row) {
                    solve(&others, binding, model, ids, out)?;
                }
            }
            Lit::Op(op, args) => {
                let given: Vec<Option<V>> = args.iter().map(|t| resolve(t, binding)).collect();
                let Some(solutions) = builtin(*op, &given)? else {
                    continue;
                };
                for values in solutions {
                    if let Some(b) = unify(args, &values, binding) {
                        solve(&others, &b, model, ids, out)?;
                    }
                }
            }
            Lit::Choice(..) | Lit::Cut => {
                return Err("choice and cut have no bottom-up reading".into())
            }
        }
        return Ok(());
    }
    Err("no body literal can run".into())
}

/// The rows `a` reads: its ID-relation, or its relation in `model`.
fn relation<'a>(a: &Atom, model: &'a Relations, ids: &'a Ids) -> &'a Rows {
    match &a.grouping {
        None => model.get(&a.pred).unwrap_or(&EMPTY),
        Some(g) => &ids[&(a.pred.clone(), g.clone())],
    }
}

fn resolve(t: &T, binding: &Binding) -> Option<V> {
    match t {
        T::Var(v) => binding.get(v).cloned(),
        T::Val(v) => Some(v.clone()),
    }
}

/// `terms` under `binding`, when every variable is bound.
pub fn ground(terms: &[T], binding: &Binding) -> Option<Vec<V>> {
    terms.iter().map(|t| resolve(t, binding)).collect()
}

/// `binding` extended so that `terms` equal `row`, if it can be.
pub fn unify(terms: &[T], row: &[V], binding: &Binding) -> Option<Binding> {
    if terms.len() != row.len() {
        return None;
    }
    let mut b = binding.clone();
    for (t, v) in terms.iter().zip(row) {
        match t {
            T::Val(c) if c != v => return None,
            T::Val(_) => {}
            T::Var(x) => {
                if b.get(x).is_some_and(|old| old != v) {
                    return None;
                }
                b.insert(x.clone(), v.clone());
            }
        }
    }
    Some(b)
}

/// All argument vectors of `op` that agree with `given`, or `None` when too
/// few arguments are bound for the set to be finite.
pub fn builtin(op: Builtin, given: &[Option<V>]) -> Result<Option<Vec<Vec<V>>>, String> {
    if let (Builtin::Eq | Builtin::Ne, [a, b]) = (op, given) {
        let eq = op == Builtin::Eq;
        return Ok(match (a, b) {
            (Some(a), Some(b)) => Some(if (a == b) == eq {
                vec![vec![a.clone(), b.clone()]]
            } else {
                vec![]
            }),
            (Some(x), None) | (None, Some(x)) if eq => Some(vec![vec![x.clone(), x.clone()]]),
            _ => None,
        });
    }
    // The rest are relations over ℕ: no symbol or negative number is in one.
    let mut n = Vec::new();
    for v in given {
        match v {
            None => n.push(None),
            Some(V::Int(i)) if *i >= 0 => n.push(Some(*i)),
            Some(_) => return Ok(Some(vec![])),
        }
    }
    // Each case names its relation by another one and maps the solutions
    // back: succ(a, b) is plus(a, 1, b), minus(a, b, c) is plus(b, c, a),
    // div(a, b, c) is b ≠ 0 ∧ times(b, c, a), and a > b is b < a.
    let solutions: Option<Vec<Vec<i64>>> = match op {
        Builtin::Succ => plus([n[0], Some(1), n[1]])?.map(|s| map(s, |[a, _, b]| vec![a, b])),
        Builtin::Plus => plus([n[0], n[1], n[2]])?.map(|s| map(s, Vec::from)),
        Builtin::Minus => plus([n[1], n[2], n[0]])?.map(|s| map(s, |[b, c, a]| vec![a, b, c])),
        Builtin::Times => times([n[0], n[1], n[2]])?.map(|s| map(s, Vec::from)),
        Builtin::Div if n[1] == Some(0) => Some(vec![]),
        Builtin::Div => times([n[1], n[2], n[0]])?.map(|s| map(s, |[b, c, a]| vec![a, b, c])),
        Builtin::Lt => below(n[0], n[1], 1),
        Builtin::Le => below(n[0], n[1], 0),
        Builtin::Gt => below(n[1], n[0], 1).map(|s| map(s, |v| vec![v[1], v[0]])),
        Builtin::Ge => below(n[1], n[0], 0).map(|s| map(s, |v| vec![v[1], v[0]])),
        Builtin::Eq | Builtin::Ne => unreachable!("compared above"),
    };
    Ok(solutions.map(|s| map(s, |v| v.into_iter().map(V::Int).collect())))
}

fn map<A, B>(items: Vec<A>, f: impl Fn(A) -> B) -> Vec<B> {
    items.into_iter().map(f).collect()
}

fn overflow() -> String {
    "arithmetic overflow".to_string()
}

/// `a + b = c` over ℕ.
fn plus(args: [Option<i64>; 3]) -> Result<Option<Vec<[i64; 3]>>, String> {
    Ok(match args {
        [Some(a), Some(b), c] => {
            let sum = a.checked_add(b).ok_or_else(overflow)?;
            Some(if c.is_none_or(|c| c == sum) {
                vec![[a, b, sum]]
            } else {
                vec![]
            })
        }
        [Some(a), None, Some(c)] => Some(if a <= c { vec![[a, c - a, c]] } else { vec![] }),
        [None, Some(b), Some(c)] => Some(if b <= c { vec![[c - b, b, c]] } else { vec![] }),
        [None, None, Some(c)] => Some((0..=c).map(|a| [a, c - a, c]).collect()),
        _ => None,
    })
}

/// `a · b = c` over ℕ.
fn times(args: [Option<i64>; 3]) -> Result<Option<Vec<[i64; 3]>>, String> {
    Ok(match args {
        [Some(a), Some(b), c] => {
            let product = a.checked_mul(b).ok_or_else(overflow)?;
            Some(if c.is_none_or(|c| c == product) {
                vec![[a, b, product]]
            } else {
                vec![]
            })
        }
        [Some(0), None, Some(0)] | [None, Some(0), Some(0)] => {
            return Err("times has infinitely many solutions".into())
        }
        [Some(k), None, Some(c)] | [None, Some(k), Some(c)] => Some(if k != 0 && c % k == 0 {
            let other = c / k;
            vec![if args[0].is_some() {
                [k, other, c]
            } else {
                [other, k, c]
            }]
        } else {
            vec![]
        }),
        _ => None,
    })
}

/// `a + gap ≤ b` over ℕ.
fn below(a: Option<i64>, b: Option<i64>, gap: i64) -> Option<Vec<Vec<i64>>> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.saturating_add(gap) <= b {
            vec![vec![a, b]]
        } else {
            vec![]
        }),
        (None, Some(b)) => Some((0..=b - gap).map(|a| vec![a, b]).collect()),
        _ => None,
    }
}

/// Each row of `rel`, its values joined by spaces, in [`V`] order: how the
/// suite's unit tests spell an expected relation.
#[cfg(test)]
pub(crate) fn names(rel: &Rows) -> Vec<String> {
    rel.iter()
        .map(|row| {
            let cols: Vec<String> = row
                .iter()
                .map(|v| match v {
                    V::Int(n) => n.to_string(),
                    V::Sym(s) => s.clone(),
                })
                .collect();
            cols.join(" ")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> V {
        V::Sym(s.to_string())
    }

    fn model(src: &str, facts_src: &str) -> Relations {
        perfect_model(src, &facts(facts_src).unwrap(), &Perms::new()).unwrap()
    }

    #[test]
    fn ints_come_before_symbols_and_symbols_sort_by_name() {
        let mut vs = vec![sym("b"), V::Int(10), sym("a"), V::Int(2)];
        vs.sort();
        assert_eq!(vs, [V::Int(2), V::Int(10), sym("a"), sym("b")]);
    }

    #[test]
    fn transitive_closure_of_a_three_cycle_is_complete() {
        let m = model(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            "e(a, b). e(b, c). e(c, a).",
        );
        assert_eq!(m["tc"].len(), 9);
        assert_eq!(m["e"].len(), 3, "the input is part of the model");
    }

    #[test]
    fn example_1_id_relation_numbers_each_group_in_order() {
        // Paper Example 1: r = {(a,c), (a,d), (b,c)} grouped by the first
        // attribute.
        let m = model("s(X, Y, T) :- r[1](X, Y, T).", "r(a, c). r(a, d). r(b, c).");
        assert_eq!(names(&m["s"]), ["a c 0", "a d 1", "b c 0"]);
        let mut perms = Perms::new();
        perms.insert(("r".into(), vec![0]), vec![vec![1, 0], vec![0]]);
        let swapped = perfect_model(
            "s(X, Y, T) :- r[1](X, Y, T).",
            &facts("r(a, c). r(a, d). r(b, c).").unwrap(),
            &perms,
        )
        .unwrap();
        assert_eq!(names(&swapped["s"]), ["a c 1", "a d 0", "b c 0"]);
    }

    #[test]
    fn negated_id_literal_reads_the_id_relation() {
        // Everyone who is not the tid-0 employee of their department.
        let m = model(
            "rest(N, D) :- emp(N, D), not emp[2](N, D, 0).",
            "emp(ann, sales). emp(bob, sales). emp(cay, dev).",
        );
        assert_eq!(names(&m["rest"]), ["bob sales"]);
    }

    #[test]
    fn arithmetic_runs_in_whatever_order_is_safe() {
        let m = model("upto(0). upto(M) :- upto(N), succ(N, M), M <= 5.", "");
        assert_eq!(m["upto"].len(), 6);
        let m = model(
            "split(A, B) :- n(C), plus(A, B, C). low(X) :- X < 3. diff(C) :- n(A), minus(A, 1, C).",
            "n(2). low_seed(0).",
        );
        assert_eq!(names(&m["split"]), ["0 2", "1 1", "2 0"]);
        assert_eq!(names(&m["low"]), ["0", "1", "2"]);
        assert_eq!(names(&m["diff"]), ["1"]);
    }

    #[test]
    fn negation_reads_a_complete_lower_stratum() {
        let m = model(
            "reach(X) :- start(X). reach(Y) :- reach(X), e(X, Y).
             far(X) :- node(X), not reach(X).",
            "start(a). e(a, b). node(a). node(b). node(c).",
        );
        assert_eq!(names(&m["far"]), ["c"]);
    }

    #[test]
    fn refuses_what_is_not_stratified_idlog() {
        let edb = Relations::new();
        let none = Perms::new();
        assert!(perfect_model("p(X) :- q(X), not p(X).", &edb, &none).is_err());
        assert!(perfect_model("p(X) :- p[](X, 0).", &edb, &none).is_err());
        assert!(perfect_model("s(N) :- e(N, D), choice((D), (N)).", &edb, &none).is_err());
        assert!(perfect_model("p(X) :- q(X), !.", &edb, &none).is_err());
        assert!(facts("p(X).").is_err());
    }
}
