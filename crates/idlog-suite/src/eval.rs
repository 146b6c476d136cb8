//! Exhaustive walks of the non-deterministic semantics the paper (§3.2)
//! sets beside IDLOG, each on the [`crate::reference`] matcher:
//!
//! * **DL** and **N-DATALOG** (\[AV88\], \[ASV90\], §3.2.1). "The intended
//!   models of programs are obtained by applying program clauses bottom up,
//!   each clause is instantiated one at a time, and facts are added to the
//!   output until no additional facts can be inferred." Negation reads the
//!   current state, unstratified, and the choice of the next instantiation
//!   is the non-determinism. DL heads may be conjunctions (`a(X) & b(X)`);
//!   N-DATALOG's negated heads delete. Invented values (head variables the
//!   body does not bind) are out of scope: the paper's examples do not use
//!   them, and without them every run is finite-state. [`all_outcomes`]
//!   walks every run, and [`deterministic_inflationary`] fires every
//!   instantiation of a round at once (the contrast of Example 3).
//! * **DATALOG^C**'s intended models (\[KN88\], §3.2.2):
//!   [`intended_models`].
//!
//! Each walk takes its input as [`Relations`] and returns [`Answers`].

use std::collections::{BTreeMap, BTreeSet};

use crate::machine;
use crate::reference::{self, Atom, Clause, Head, Lit, Perms, Relations, Rows, V};

/// Which language a program is read in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// DL: positive (possibly conjunctive) heads, inflationary.
    Dl,
    /// N-DATALOG: negated heads are deletions.
    NDatalog,
}

/// Bounds on a walk.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// The most states (DL, N-DATALOG, DATALOG∨) or functional-subset
    /// selections (DATALOG^C) to visit.
    pub max_states: usize,
    /// The most distinct answers to keep.
    pub max_answers: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_states: 100_000,
            max_answers: 10_000,
        }
    }
}

/// The answers of a non-deterministic query: one relation of the output
/// predicate per answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    /// The distinct answers found.
    pub answers: BTreeSet<Rows>,
    /// False when the budget stopped the walk early.
    pub complete: bool,
}

impl Answers {
    pub(crate) fn new() -> Self {
        Answers {
            answers: BTreeSet::new(),
            complete: true,
        }
    }

    /// Keep `answer`. A new answer past `budget.max_answers` is dropped
    /// instead, marks the walk incomplete and returns false.
    pub(crate) fn add(&mut self, answer: Rows, budget: &Budget) -> bool {
        if !self.answers.contains(&answer) {
            if self.answers.len() >= budget.max_answers {
                self.complete = false;
                return false;
            }
            self.answers.insert(answer);
        }
        true
    }
}

/// Every terminal state's `output` relation, over every order in which the
/// `dialect` program `src` can fire one instantiation at a time from `edb`.
///
/// ```
/// use idlog_suite::eval::{all_outcomes, Budget, Dialect};
/// use idlog_suite::reference::facts;
///
/// // Paper Example 3: the man/woman guess program.
/// let src = "man(X) :- person(X), not woman(X).
///            woman(X) :- person(X), not man(X).";
/// let edb = facts("person(a). person(b).").unwrap();
/// let man = all_outcomes(src, Dialect::Dl, &edb, "man", &Budget::default()).unwrap();
/// assert_eq!(man.answers.len(), 4); // ∅, {a}, {b}, {a,b}
/// ```
pub fn all_outcomes(
    src: &str,
    dialect: Dialect,
    edb: &Relations,
    output: &str,
    budget: &Budget,
) -> Result<Answers, String> {
    let clauses = machine::program(src, dialect)?;
    let mut stack = vec![machine::start(&clauses, edb, output)?];
    let mut visited = BTreeSet::new();
    let mut out = Answers::new();
    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if visited.len() > budget.max_states {
            out.complete = false;
            break;
        }
        let fired = machine::firings(&clauses, &state)?;
        if fired.is_empty() && !out.add(state[output].clone(), budget) {
            break;
        }
        for facts in &fired {
            let mut next = state.clone();
            machine::apply(&mut next, facts);
            stack.push(next);
        }
    }
    Ok(out)
}

/// The deterministic inflationary fixpoint of the DL program `src` over
/// `edb`: every round fires *all* firable instantiations at once.
pub fn deterministic_inflationary(
    src: &str,
    edb: &Relations,
    output: &str,
) -> Result<Rows, String> {
    let clauses = machine::program(src, Dialect::Dl)?;
    let mut state = machine::start(&clauses, edb, output)?;
    loop {
        let fired = machine::firings(&clauses, &state)?;
        if fired.is_empty() {
            return Ok(state.remove(output).unwrap_or_default());
        }
        for facts in &fired {
            machine::apply(&mut state, facts);
        }
    }
}

/// The `output` relation of every intended model of the DATALOG^C program
/// `src` over `edb`, as the paper describes them (§3.2.2):
///
/// 1. the perfect model of `Pᶜ`: each choice clause
///    `h :- body, choice((X̄), (Ȳ))` reads a fresh predicate `c(X̄, Ȳ)`
///    instead, defined by `c(X̄, Ȳ) :- body`, so `c` holds every candidate;
/// 2. a functional subset of each `c`: one tuple per `X̄`-group;
/// 3. the perfect model of `Pᶜ` without the definitions of the `c`s, with
///    the chosen subsets as input.
///
/// Each combination of functional subsets is one intended model. A clause
/// with two choices (C1) is refused; the caller checks C2 and that no choice
/// clause is recursive through its own head
/// (`idlog_choice::check_conditions`).
///
/// ```
/// use idlog_suite::eval::{intended_models, Budget};
/// use idlog_suite::reference::facts;
///
/// let edb = facts("emp(ann, sales). emp(bob, sales).").unwrap();
/// let src = "select_emp(N) :- emp(N, D), choice((D), (N)).";
/// let models = intended_models(src, &edb, "select_emp", &Budget::default()).unwrap();
/// assert_eq!(models.answers.len(), 2); // ann or bob
/// ```
pub fn intended_models(
    src: &str,
    edb: &Relations,
    output: &str,
    budget: &Budget,
) -> Result<Answers, String> {
    // Pᶜ without its choice definitions, the definitions, and per choice
    // predicate its name and the length of X̄.
    let mut program = Vec::new();
    let mut definitions = Vec::new();
    let mut sites = Vec::new();
    for mut clause in reference::clauses(src)? {
        let choices: Vec<&Lit> = clause
            .body
            .iter()
            .filter(|l| matches!(l, Lit::Choice(..)))
            .collect();
        let (grouped, chosen) = match choices.as_slice() {
            [] => {
                program.push(clause);
                continue;
            }
            [Lit::Choice(grouped, chosen)] => (grouped.clone(), chosen.clone()),
            _ => return Err("a clause has at most one choice (C1)".into()),
        };
        let pred = format!("choice#{}", sites.len());
        let atom = Atom {
            pred: pred.clone(),
            grouping: None,
            terms: grouped.iter().chain(&chosen).cloned().collect(),
        };
        clause.body.retain(|l| !matches!(l, Lit::Choice(..)));
        definitions.push(Clause {
            heads: vec![Head {
                negated: false,
                atom: atom.clone(),
            }],
            disjunctive: false,
            body: clause.body.clone(),
        });
        clause.body.push(Lit::Pos(atom));
        program.push(clause);
        sites.push((pred, grouped.len()));
    }
    let candidates = reference::model(
        &[program.as_slice(), &definitions].concat(),
        edb,
        &Perms::new(),
    )?;
    // Every X̄-group of every choice predicate, its members in V order.
    let mut groups: Vec<(&str, Vec<&Vec<V>>)> = Vec::new();
    for (pred, grouped) in &sites {
        let mut by_key: BTreeMap<&[V], Vec<&Vec<V>>> = BTreeMap::new();
        for row in &candidates[pred] {
            by_key.entry(&row[..*grouped]).or_default().push(row);
        }
        groups.extend(by_key.into_values().map(|members| (pred.as_str(), members)));
    }
    // `pick[g]` is the member chosen from group g; the walk is an odometer.
    let mut pick = vec![0; groups.len()];
    let mut out = Answers::new();
    for selections in 1.. {
        if selections > budget.max_states {
            out.complete = false;
            break;
        }
        let mut input = edb.clone();
        for ((pred, members), &k) in groups.iter().zip(&pick) {
            let chosen = members[k].clone();
            input.entry(pred.to_string()).or_default().insert(chosen);
        }
        let model = reference::model(&program, &input, &Perms::new())?;
        let answer = model
            .get(output)
            .ok_or_else(|| format!("output predicate {output} does not occur in the program"))?;
        if !out.add(answer.clone(), budget) {
            break;
        }
        let Some(g) = (0..groups.len()).find(|&g| pick[g] + 1 < groups[g].1.len()) else {
            break;
        };
        pick[g] += 1;
        pick[..g].fill(0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{facts, names};

    fn strings(answers: &Answers) -> Vec<Vec<String>> {
        answers.answers.iter().map(names).collect()
    }

    fn outcomes(src: &str, dialect: Dialect, edb: &str, output: &str) -> Answers {
        let edb = facts(edb).unwrap();
        all_outcomes(src, dialect, &edb, output, &Budget::default()).unwrap()
    }

    fn models(src: &str, edb: &str, output: &str) -> Answers {
        intended_models(src, &facts(edb).unwrap(), output, &Budget::default()).unwrap()
    }

    const EXAMPLE3: &str = "
        man(X) :- person(X), not woman(X).
        woman(X) :- person(X), not man(X).
    ";

    const SUBSETS: [&[&str]; 4] = [&[], &["a"], &["a", "b"], &["b"]];

    #[test]
    fn paper_example3_nondeterministic() {
        // Paper: man(r) = woman(r) = {∅, {a}, {b}, {a,b}} under the
        // non-deterministic inflationary semantics.
        let all = outcomes(EXAMPLE3, Dialect::Dl, "person(a). person(b).", "man");
        assert!(all.complete);
        assert_eq!(strings(&all), SUBSETS);
        let all_w = outcomes(EXAMPLE3, Dialect::Dl, "person(a). person(b).", "woman");
        assert_eq!(strings(&all_w), SUBSETS);
    }

    #[test]
    fn paper_example3_deterministic() {
        // Paper: under the deterministic inflationary semantics,
        // man(r) = woman(r) = {(a), (b)}.
        let edb = facts("person(a). person(b).").unwrap();
        let man = deterministic_inflationary(EXAMPLE3, &edb, "man").unwrap();
        assert_eq!(man.len(), 2);
        let woman = deterministic_inflationary(EXAMPLE3, &edb, "woman").unwrap();
        assert_eq!(woman.len(), 2);
    }

    #[test]
    fn positive_programs_are_deterministic() {
        let all = outcomes(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            Dialect::Dl,
            "e(a, b). e(b, c).",
            "tc",
        );
        assert_eq!(strings(&all), [["a b", "a c", "b c"]]);
    }

    #[test]
    fn conjunctive_heads_fire_together() {
        let a = outcomes("a(X) & b(X) :- c(X).", Dialect::Dl, "c(x).", "a");
        assert_eq!(strings(&a), [["x"]]);
        let b = outcomes("a(X) & b(X) :- c(X).", Dialect::Dl, "c(x).", "b");
        assert_eq!(strings(&b), [["x"]]);
    }

    #[test]
    fn ndatalog_deletion() {
        // Mark unprocessed nodes; processing a red node deletes its mark and
        // records it as processed (so it is never re-marked). Confluent: the
        // unique terminal state has only n2 marked.
        let all = outcomes(
            "mark(X) :- node(X), not processed(X).
             not mark(X) & processed(X) :- mark(X), red(X).",
            Dialect::NDatalog,
            "node(n1). node(n2). red(n1).",
            "mark",
        );
        assert!(all.complete);
        assert_eq!(strings(&all), [["n2"]]);
    }

    #[test]
    fn ndatalog_cycles_do_not_hang_enumeration() {
        // add/remove cycle: p(x) added when absent, removed when present.
        // The visited set makes exploration finite; no terminal state exists.
        let all = outcomes(
            "p(X) :- q(X), not p(X).
             not p(X) :- q(X), p(X).",
            Dialect::NDatalog,
            "q(x).",
            "p",
        );
        assert!(
            all.answers.is_empty(),
            "flip-flop program has no terminal state"
        );
        assert!(all.complete);
    }

    #[test]
    fn unknown_output_is_error() {
        let edb = Relations::new();
        let budget = Budget::default();
        assert!(all_outcomes("p(X) :- q(X).", Dialect::Dl, &edb, "zzz", &budget).is_err());
    }

    #[test]
    fn answer_cap_counts_distinct_answers() {
        // Four terminal states, one answer: a cap of three keeps the walk
        // complete.
        let budget = Budget {
            max_answers: 3,
            ..Budget::default()
        };
        let src = "g(X) :- p(X), not h(X). h(X) :- p(X), not g(X). out(X) :- q(X).";
        let edb = facts("p(a). p(b). q(c).").unwrap();
        let all = all_outcomes(src, Dialect::Dl, &edb, "out", &budget).unwrap();
        assert!(all.complete);
        assert_eq!(strings(&all), [["c"]]);
        // The same for the intended models: four selections, one answer.
        let src = "s(N) :- emp(N, D), choice((D), (N)). out(X) :- q(X).";
        let edb = facts("emp(a, x). emp(b, x). emp(c, y). emp(d, y). q(c).").unwrap();
        let budget = Budget {
            max_answers: 1,
            ..Budget::default()
        };
        let all = intended_models(src, &edb, "out", &budget).unwrap();
        assert!(all.complete);
        assert_eq!(strings(&all), [["c"]]);
        let capped = intended_models(src, &edb, "s", &budget).unwrap();
        assert!(!capped.complete);
        assert_eq!(capped.answers.len(), 1);
    }

    #[test]
    fn paper_select_emp_one_per_dept() {
        let all = models(
            "select_emp(N) :- emp(N, D), choice((D), (N)).",
            "emp(ann, sales). emp(bob, sales). emp(cay, dev).",
            "select_emp",
        );
        assert!(all.complete);
        // 2 (sales) × 1 (dev) = 2 intended models, both with 2 employees.
        assert_eq!(strings(&all), [["ann", "cay"], ["bob", "cay"]]);
    }

    #[test]
    fn paper_sex_guess_choice_program() {
        // Paper §3.2.2: the DATALOG^C program equivalent to Example 2.
        let all = models(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)).
             man(X) :- sex(X, male).
             woman(X) :- sex(X, female).",
            "person(a). person(b).",
            "man",
        );
        assert_eq!(strings(&all), SUBSETS);
    }

    #[test]
    fn empty_input_has_one_empty_model() {
        let all = models("s(N) :- emp(N, D), choice((D), (N)).", "", "s");
        assert_eq!(strings(&all), [[] as [&str; 0]]);
    }

    #[test]
    fn budget_truncation_is_flagged() {
        let emps: String = (0..6).map(|k| format!("emp(e{k}, d). ")).collect();
        let budget = Budget {
            max_states: 3,
            max_answers: 1000,
        };
        let src = "s(N) :- emp(N, D), choice((D), (N)).";
        let all = intended_models(src, &facts(&emps).unwrap(), "s", &budget).unwrap();
        assert!(!all.complete);
        assert!(all.answers.len() <= 3);
    }

    #[test]
    fn global_choice_selects_single_tuple() {
        let all = models(
            "s(N) :- emp(N, D), choice((), (N)).",
            "emp(a, x). emp(b, y).",
            "s",
        );
        assert_eq!(strings(&all), [["a"], ["b"]]);
    }
}
