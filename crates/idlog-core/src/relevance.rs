//! Goal-directed relevance: binding-pattern adornment analysis and the
//! certified magic-sets rewrite.
//!
//! A *point query* asks for a small slice of the perfect model — e.g.
//! `query(Y) :- ancestor(ann, Y).` over a huge `parent` EDB — yet bottom-up
//! evaluation computes the whole model because nothing tells the engine
//! which facts are relevant. The classic remedy is static: *adorn* every
//! reachable predicate with a bound/free binding pattern propagated by a
//! sideways-information-passing strategy (SIPS), then rewrite the program
//! with *magic* predicates so that bottom-up evaluation only derives facts
//! relevant to the query constants.
//!
//! The SIPS is the planner's: each clause body is walked in its safe order
//! ([`ValidatedProgram::clause_order`], the order [`crate::plan`] compiles
//! and the engine joins), and each literal's bound positions are read from
//! the planner's binding pass seeded with the head's bound variables. The
//! safe order binds every negation and meets every builtin's mode with
//! nothing bound on entry, and binding the head only adds bindings, so no
//! goal of a valid program flounders.
//!
//! The analysis *refuses* a query whose reachable region contains an
//! ID-literal — a choice site: magic guards would prune the base relation
//! under a group-wise tid assignment, duplicating or splitting a choice
//! point. The refusal carries a span-addressable witness walk
//! ([`RelevanceStep::Choice`], surfaced as lint `W031`, mirroring the
//! [`crate::taint`] witnesses).
//!
//! Without a choice site, the analysis builds the magic-sets rewrite and
//! validates it; the query is *certified* when the rewrite is a valid
//! program ([`RelevanceAnalysis::magic`]). Otherwise the validator's error
//! is the refusal ([`RelevanceAnalysis::rewrite_error`]): a magic rule reads
//! the prefix its safe order runs first, so a guard can close a cycle
//! through a negation the original program keeps outside its recursion.
//! `idlog lint`, the `explain --analyze` footer, the REPL and
//! [`crate::Query`] all read this one result.
//!
//! The rewrite is a pure `Program → Program` transformation: adorned
//! predicates with bound positions are renamed (`p__bf`),
//! their clauses guarded by `magic_p__bf(bound args)`, and magic rules are
//! derived from prefixes of the safe order — with the query's own constants
//! degenerating into magic *seed facts*. Predicates only ever needed in
//! full (the root, negation targets, all-free occurrences) keep their
//! original name and stay unguarded, so the output predicate of the
//! transformed program is byte-identical to the direct evaluation.

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId, Value};
use idlog_parser::{Atom, Clause, Literal, Program, Term};
use idlog_storage::Database;

use crate::error::CoreError;
use crate::eval::EvalOutput;
use crate::program::ValidatedProgram;

/// Name prefix of the guard predicates the magic rewrite introduces.
pub const MAGIC_PREFIX: &str = "magic_";

/// A predicate together with one reachable binding pattern (`true` =
/// bound). The all-free pattern is tracked separately by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdornedPred {
    /// The predicate.
    pub pred: SymbolId,
    /// Boundness per argument position under the planner's SIPS.
    pub pattern: Vec<bool>,
}

impl AdornedPred {
    /// Render as the classic `p^bf` notation.
    pub fn display(&self, interner: &Interner) -> String {
        format!(
            "{}^{}",
            interner.resolve(self.pred),
            pattern_string(&self.pattern)
        )
    }
}

/// Render a binding pattern as `b`/`f` characters (`bf` = first bound).
pub fn pattern_string(pattern: &[bool]) -> String {
    pattern.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// One step of a refusal witness walk, from the query root down to the
/// choice site. Mirrors the shape of [`crate::taint::TaintStep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelevanceStep {
    /// The literal at `(clause, literal)` passes bindings into `to` with
    /// the given pattern — one sideways hop of the SIPS.
    Goal {
        /// Clause index in the analyzed program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
        /// The predicate the walk enters.
        to: SymbolId,
        /// The binding pattern it is entered with.
        pattern: Vec<bool>,
    },
    /// The literal at `(clause, literal)` is an ID-literal, a choice site
    /// that magic guards must not split.
    Choice {
        /// Clause index in the analyzed program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
    },
}

/// A refusal with its witness walk (never empty: the final step is the
/// [`RelevanceStep::Choice`] site).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelevanceRefusal {
    /// Goal hops from the root, ending at the choice site.
    pub walk: Vec<RelevanceStep>,
}

impl RelevanceRefusal {
    /// The `(clause, literal)` site of the offending (final) step.
    pub fn site(&self) -> (usize, usize) {
        match self.walk.last() {
            Some(
                RelevanceStep::Choice { clause, literal }
                | RelevanceStep::Goal {
                    clause, literal, ..
                },
            ) => (*clause, *literal),
            None => (0, 0),
        }
    }

    /// One-line human rendering of the walk, for error messages.
    pub fn render(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for step in &self.walk {
            match step {
                RelevanceStep::Goal {
                    to,
                    pattern,
                    clause,
                    literal,
                } => {
                    out.push_str(&format!(
                        " -> {}^{} (clause {}, literal {})",
                        interner.resolve(*to),
                        pattern_string(pattern),
                        clause,
                        literal
                    ));
                }
                RelevanceStep::Choice { clause, literal } => {
                    out.push_str(&format!(
                        " -> choice site at clause {clause}, literal {literal} \
                         (magic guards must not split a choice point)"
                    ));
                }
            }
        }
        format!("query root{out}")
    }
}

/// The result of the binding-pattern dataflow for one query root, with
/// the magic rewrite it yields. The default is the identity query's: an
/// output no clause defines has nothing to adorn or rewrite.
#[derive(Debug, Clone, Default)]
pub struct RelevanceAnalysis {
    /// Reachable adorned predicates with at least one bound position, in
    /// deterministic discovery (BFS) order.
    adorned: Vec<AdornedPred>,
    /// Predicates also (or only) needed in full — the root, negation
    /// targets, and all-free occurrences — in discovery order.
    all_free: Vec<SymbolId>,
    /// IDB predicates reachable from the root (denominator of
    /// [`RelevanceAnalysis::pruned_fraction`]).
    related_idb: usize,
    /// The choice site the reachable region contains, if any.
    refusal: Option<RelevanceRefusal>,
    /// Without a choice site: the validated magic rewrite, or the
    /// validator's error on it.
    rewrite: Option<Result<ValidatedProgram, CoreError>>,
}

impl RelevanceAnalysis {
    /// True when the reachable region is choice-free and its magic rewrite
    /// is a valid program: `--strategy magic` runs [`Self::magic`].
    pub fn certified(&self) -> bool {
        self.magic().is_some()
    }

    /// True when this is a certified *point query*: at least one reachable
    /// predicate is entered with a bound position, so magic guards prune.
    pub fn is_point_query(&self) -> bool {
        self.certified() && !self.adorned.is_empty()
    }

    /// The choice-site witness, when the reachable region has one.
    pub fn refusal(&self) -> Option<&RelevanceRefusal> {
        self.refusal.as_ref()
    }

    /// The validated magic-sets rewrite, when certified.
    pub fn magic(&self) -> Option<&ValidatedProgram> {
        self.rewrite.as_ref()?.as_ref().ok()
    }

    /// Why the rewrite of a choice-free region is not a valid program
    /// (for instance, the stratifier's cycle through a magic predicate).
    pub fn rewrite_error(&self) -> Option<&CoreError> {
        self.rewrite.as_ref()?.as_ref().err()
    }

    /// Reachable adorned predicates with at least one bound position.
    pub fn adorned(&self) -> &[AdornedPred] {
        &self.adorned
    }

    /// Predicates needed in full (unguarded in the rewrite).
    pub fn all_free(&self) -> &[SymbolId] {
        &self.all_free
    }

    /// `(guarded, reachable)` IDB predicate counts: `guarded` predicates
    /// are only ever entered with bound positions, so *every* clause of
    /// theirs gets a magic guard — the statically pruned fraction of the
    /// dependency graph.
    pub fn pruned_fraction(&self) -> (usize, usize) {
        let free: FxHashSet<SymbolId> = self.all_free.iter().copied().collect();
        let mut guarded: FxHashSet<SymbolId> = FxHashSet::default();
        for a in &self.adorned {
            if !free.contains(&a.pred) {
                guarded.insert(a.pred);
            }
        }
        (guarded.len(), self.related_idb)
    }

    /// The one-line verdict on a query at `root`, as `idlog explain
    /// --analyze` and the REPL's `:analyze` print it: would
    /// `--strategy magic` prune, and if not, why.
    pub fn verdict(&self, root: SymbolId, interner: &Interner) -> String {
        let name = interner.resolve(root);
        if self.refusal.is_some() {
            return format!("{name} refuses magic: blocked by a choice site (W031)");
        }
        if let Some(e) = self.rewrite_error() {
            return format!("{name} refuses magic: the rewrite is not a valid program ({e})");
        }
        if !self.is_point_query() {
            return format!(
                "{name} has no bound argument positions; goal-directed evaluation \
                 would not prune"
            );
        }
        let adorned: Vec<String> = self.adorned.iter().map(|a| a.display(interner)).collect();
        let (guarded, total) = self.pruned_fraction();
        format!(
            "{name} is a certified point query (H020); reaches {}; magic guards \
             {guarded}/{total} derived predicate(s)",
            adorned.join(", ")
        )
    }
}

/// One positive IDB occurrence discovered while walking a clause, with the
/// binding pattern the planner's SIPS passes into it.
struct Occurrence {
    /// Body literal index.
    literal: usize,
    /// Its step in the clause's safe order.
    step: usize,
    base: SymbolId,
    pattern: Vec<bool>,
}

/// Everything the walk of one clause under one head pattern yields.
struct ClauseWalk {
    occurrences: Vec<Occurrence>,
    /// The first ID-literal, by body literal index.
    choice: Option<usize>,
    plain: Vec<(usize, SymbolId)>,
}

/// Walk clause `ci` under the planner's binding pass with the head
/// positions of `pattern` bound, recording every positive IDB occurrence's
/// adornment, every IDB predicate needed in full, and the first choice
/// site, each in body order.
fn walk_clause(program: &ValidatedProgram, ci: usize, pattern: &[bool]) -> ClauseWalk {
    let body = &program.ast().clauses[ci].body;
    let plan =
        crate::plan::compile_clause(program, ci, pattern).expect("a validated program compiles");
    // Each literal's step in the safe order, and its arguments' boundness
    // when that step runs.
    let mut entry: Vec<(usize, Vec<bool>)> = vec![(0, Vec::new()); body.len()];
    for (step, (&li, s)) in program
        .clause_order(ci)
        .order
        .iter()
        .zip(&plan.steps)
        .enumerate()
    {
        entry[li] = (step, s.bound_on_entry());
    }
    let mut walk = ClauseWalk {
        occurrences: Vec::new(),
        choice: None,
        plain: Vec::new(),
    };
    for (li, lit) in body.iter().enumerate() {
        let Some(atom) = lit.atom() else { continue };
        if atom.pred.is_id_version() {
            walk.choice.get_or_insert(li);
            continue;
        }
        let base = atom.pred.base();
        if !program.idb().contains(&base) {
            continue;
        }
        let (step, bound) = &entry[li];
        if matches!(lit, Literal::Pos(_)) && bound.contains(&true) {
            walk.occurrences.push(Occurrence {
                literal: li,
                step: *step,
                base,
                pattern: bound.clone(),
            });
        } else {
            walk.plain.push((li, base));
        }
    }
    walk
}

type TaskKey = (SymbolId, Vec<bool>);

/// The clause indices of `program` by head predicate.
fn clauses_by_head(program: &ValidatedProgram) -> FxHashMap<SymbolId, Vec<usize>> {
    let mut clauses_of: FxHashMap<SymbolId, Vec<usize>> = FxHashMap::default();
    for (ci, clause) in program.ast().clauses.iter().enumerate() {
        clauses_of
            .entry(clause.single_head().pred.base())
            .or_default()
            .push(ci);
    }
    clauses_of
}

/// The program's query roots — the sinks of its dependency graph, heads no
/// body reads — each with its first defining clause, in clause order.
pub fn query_roots(program: &ValidatedProgram) -> Vec<(SymbolId, usize)> {
    // The sinks are in interning order, which an interner shared with
    // earlier programs or facts can make differ from clause order.
    let sinks = program.stratification().graph().sinks();
    let mut roots: Vec<(SymbolId, usize)> = Vec::new();
    for (ci, clause) in program.ast().clauses.iter().enumerate() {
        let head = clause.single_head().pred.base();
        if sinks.binary_search(&head).is_ok() && roots.iter().all(|&(r, _)| r != head) {
            roots.push((head, ci));
        }
    }
    roots
}

/// Compute the reachable adorned predicates of `program` for a query on
/// `root` with all output positions free (boundness originates from the
/// constants in clause bodies), under the planner's SIPS; without a choice
/// site, build the magic rewrite and validate it.
///
/// The walk is a BFS over `(predicate, pattern)` tasks, so both the
/// discovery order and the refusal witness are deterministic.
pub fn analyze_relevance(program: &ValidatedProgram, root: SymbolId) -> RelevanceAnalysis {
    let clauses_of = clauses_by_head(program);
    let arity = |pred: SymbolId| program.arity(pred).unwrap_or(0);

    let mut analysis = RelevanceAnalysis::default();
    let mut seen: FxHashSet<TaskKey> = FxHashSet::default();
    let mut parent: FxHashMap<TaskKey, (Option<TaskKey>, usize, usize)> = FxHashMap::default();
    let mut queue: std::collections::VecDeque<TaskKey> = std::collections::VecDeque::new();
    let mut reachable_idb: FxHashSet<SymbolId> = FxHashSet::default();

    let root_key: TaskKey = (root, vec![false; arity(root)]);
    seen.insert(root_key.clone());
    parent.insert(root_key.clone(), (None, 0, 0));
    queue.push_back(root_key);
    reachable_idb.insert(root);
    analysis.all_free.push(root);

    while let Some(task) = queue.pop_front() {
        let (pred, pattern) = &task;
        let Some(clauses) = clauses_of.get(pred) else {
            continue;
        };
        for &ci in clauses {
            let walk = walk_clause(program, ci, pattern);
            let mut enqueue = |key: TaskKey, li: usize| {
                if seen.insert(key.clone()) {
                    parent.insert(key.clone(), (Some(task.clone()), ci, li));
                    queue.push_back(key);
                }
            };
            for occ in &walk.occurrences {
                reachable_idb.insert(occ.base);
                if analysis
                    .adorned
                    .iter()
                    .all(|a| a.pred != occ.base || a.pattern != occ.pattern)
                {
                    analysis.adorned.push(AdornedPred {
                        pred: occ.base,
                        pattern: occ.pattern.clone(),
                    });
                }
                enqueue((occ.base, occ.pattern.clone()), occ.literal);
            }
            for &(li, base) in &walk.plain {
                reachable_idb.insert(base);
                if !analysis.all_free.contains(&base) {
                    analysis.all_free.push(base);
                }
                enqueue((base, vec![false; arity(base)]), li);
            }
            if let Some(literal) = walk.choice {
                // Rebuild the Goal chain from the root to this task, then
                // end it at the choice site.
                let mut hops: Vec<RelevanceStep> = Vec::new();
                let mut at = Some(task.clone());
                while let Some(key) = at {
                    let (prev, pci, pli) = parent[&key].clone();
                    if prev.is_some() {
                        hops.push(RelevanceStep::Goal {
                            clause: pci,
                            literal: pli,
                            to: key.0,
                            pattern: key.1.clone(),
                        });
                    }
                    at = prev;
                }
                hops.reverse();
                hops.push(RelevanceStep::Choice {
                    clause: ci,
                    literal,
                });
                analysis.refusal = Some(RelevanceRefusal { walk: hops });
                analysis.related_idb = reachable_idb.len();
                return analysis;
            }
        }
    }
    analysis.related_idb = reachable_idb.len();
    let magic = magic_program(program, root, &analysis);
    analysis.rewrite = Some(ValidatedProgram::new(
        magic,
        std::sync::Arc::clone(program.interner()),
    ));
    analysis
}

/// The renamed predicate for an adorned occurrence, e.g. `ancestor__bf`.
fn adorned_symbol(interner: &Interner, pred: SymbolId, pattern: &[bool]) -> SymbolId {
    interner.intern(&format!(
        "{}__{}",
        interner.resolve(pred),
        pattern_string(pattern)
    ))
}

/// The magic guard predicate for an adorned predicate, e.g.
/// `magic_ancestor__bf` (arity = number of bound positions).
fn magic_symbol(interner: &Interner, pred: SymbolId, pattern: &[bool]) -> SymbolId {
    interner.intern(&format!(
        "{MAGIC_PREFIX}{}__{}",
        interner.resolve(pred),
        pattern_string(pattern)
    ))
}

/// Apply the magic-sets transformation for a query on `root`, guided by
/// the choice-free `analysis`.
///
/// The rewrite is pure `Program → Program`: for every reachable
/// `(predicate, pattern)` pair with bound positions, each clause of the
/// predicate is copied with its head renamed to `p__bf…`, a guard
/// `magic_p__bf…(bound head args)` prepended, and bound positive IDB body
/// occurrences renamed to their adorned versions; a *magic rule* per bound
/// occurrence derives the guard tuples from the literals the safe order
/// runs before it (supplementary predicates are not needed — the prefix
/// literals serve directly). Predicates reached all-free (the root,
/// negation targets) keep their original name and clauses unguarded, and
/// a bound occurrence in a prefix with no guard and no preceding literals
/// degenerates into a magic **seed fact** over the query constants. EDB
/// literals are never renamed or guarded.
fn magic_program(
    program: &ValidatedProgram,
    root: SymbolId,
    analysis: &RelevanceAnalysis,
) -> Program {
    let interner = program.interner();
    let clauses_of = clauses_by_head(program);
    let arity = |pred: SymbolId| program.arity(pred).unwrap_or(0);

    // Tasks in deterministic order: the all-free predicates first (root
    // leading), then every bound adornment in discovery order.
    let mut tasks: Vec<TaskKey> = Vec::new();
    let mut task_set: FxHashSet<TaskKey> = FxHashSet::default();
    let free_tasks = std::iter::once(root)
        .chain(analysis.all_free.iter().copied())
        .map(|p| (p, vec![false; arity(p)]));
    let bound_tasks = analysis.adorned.iter().map(|a| (a.pred, a.pattern.clone()));
    for key in free_tasks.chain(bound_tasks) {
        if task_set.insert(key.clone()) {
            tasks.push(key);
        }
    }

    let bound_terms = |atom: &Atom, pattern: &[bool]| -> Vec<Term> {
        atom.terms
            .iter()
            .zip(pattern)
            .filter(|(_, &b)| b)
            .map(|(t, _)| t.clone())
            .collect()
    };

    let mut rules: Vec<Clause> = Vec::new();
    let mut seeds: Vec<Clause> = Vec::new();
    for (pred, pattern) in &tasks {
        let free = pattern.iter().all(|&b| !b);
        let Some(clauses) = clauses_of.get(pred) else {
            continue;
        };
        for &ci in clauses {
            let clause = &program.ast().clauses[ci];
            let walk = walk_clause(program, ci, pattern);
            debug_assert!(
                walk.choice.is_none(),
                "the rewrite needs a choice-free region"
            );
            let adorned_at: FxHashMap<usize, &Occurrence> =
                walk.occurrences.iter().map(|o| (o.literal, o)).collect();
            // Transformed body: bound positive IDB occurrences renamed.
            let body: Vec<Literal> = clause
                .body
                .iter()
                .enumerate()
                .map(|(li, lit)| match (lit, adorned_at.get(&li)) {
                    (Literal::Pos(a), Some(occ)) => Literal::Pos(Atom::ordinary(
                        adorned_symbol(interner, occ.base, &occ.pattern),
                        a.terms.clone(),
                    )),
                    _ => lit.clone(),
                })
                .collect();
            let head_atom = clause.single_head();
            let guard = (!free).then(|| {
                Literal::Pos(Atom::ordinary(
                    magic_symbol(interner, *pred, pattern),
                    bound_terms(head_atom, pattern),
                ))
            });
            // Magic rules: one per bound occurrence, from the literals the
            // safe order runs before it. A negation there binds nothing, so
            // leaving it out only widens the magic set — and keeps the
            // rewrite stratified: a magic predicate that read a negation
            // could close a cycle through it (the negated predicate may read
            // an adorned predicate this very guard feeds).
            let order = &program.clause_order(ci).order;
            for occ in &walk.occurrences {
                let src = clause.body[occ.literal]
                    .atom()
                    .expect("occurrence indexes a positive atom");
                let magic_head = Atom::ordinary(
                    magic_symbol(interner, occ.base, &occ.pattern),
                    bound_terms(src, &occ.pattern),
                );
                let prefix = order[..occ.step]
                    .iter()
                    .map(|&li| &body[li])
                    .filter(|lit| !matches!(lit, Literal::Neg(_)))
                    .cloned();
                let magic_body: Vec<Literal> = guard.iter().cloned().chain(prefix).collect();
                let rule = Clause::new(magic_head, magic_body);
                if rule.is_fact() {
                    seeds.push(rule);
                } else {
                    rules.push(rule);
                }
            }
            // The rewritten clause itself.
            let new_head = if free {
                Atom::ordinary(head_atom.pred.base(), head_atom.terms.clone())
            } else {
                Atom::ordinary(
                    adorned_symbol(interner, *pred, pattern),
                    head_atom.terms.clone(),
                )
            };
            let new_body: Vec<Literal> = guard.into_iter().chain(body).collect();
            rules.push(Clause::new(new_head, new_body));
        }
    }
    let clauses: Vec<Clause> = seeds.into_iter().chain(rules).collect();
    Program { clauses }
}

/// The *tuples pruned* metric of one magic evaluation: for every EDB atom
/// in a guarded clause of the transformed program, the number of stored
/// tuples the magic guard's bindings (and the atom's constants) rule out of
/// the join. Computed post-hoc from the final relations, so it is
/// byte-identical across thread counts and backends, and `0` when nothing
/// was prunable.
pub fn magic_tuples_pruned(magic: &ValidatedProgram, db: &Database, out: &EvalOutput) -> u64 {
    let interner = magic.interner();
    let mut projections: FxHashMap<(SymbolId, usize), FxHashSet<Value>> = FxHashMap::default();
    let project = |pred: SymbolId, col: usize, out: &EvalOutput| -> FxHashSet<Value> {
        let name = interner.resolve(pred);
        let mut set = FxHashSet::default();
        if let Some(rel) = out.relation(&name) {
            for row in rel.rows() {
                if let Some(&v) = row.get(col) {
                    set.insert(v);
                }
            }
        }
        set
    };
    #[derive(Hash, PartialEq, Eq, Clone)]
    enum Constraint {
        InGuard(SymbolId, usize),
        Equal(Value),
    }
    let mut counted: FxHashSet<(SymbolId, Vec<(usize, Constraint)>)> = FxHashSet::default();
    let mut pruned: u64 = 0;
    for clause in &magic.ast().clauses {
        // A guarded clause starts with its magic guard.
        let Some(Literal::Pos(guard)) = clause.body.first() else {
            continue;
        };
        let guard_pred = guard.pred.base();
        if !interner.resolve(guard_pred).starts_with(MAGIC_PREFIX) {
            continue;
        }
        let mut guard_cols: FxHashMap<&str, usize> = FxHashMap::default();
        for (col, term) in guard.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                guard_cols.entry(v.as_str()).or_insert(col);
            }
        }
        for lit in &clause.body[1..] {
            let Literal::Pos(atom) = lit else { continue };
            let base = atom.pred.base();
            if !magic.inputs().contains(&base) {
                continue;
            }
            let mut constraints: Vec<(usize, Constraint)> = Vec::new();
            let mut restricted = false;
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Var(v) => {
                        if let Some(&gcol) = guard_cols.get(v.as_str()) {
                            constraints.push((col, Constraint::InGuard(guard_pred, gcol)));
                            restricted = true;
                        }
                    }
                    Term::Sym(s) => constraints.push((col, Constraint::Equal(Value::Sym(*s)))),
                    Term::Int(i) => constraints.push((col, Constraint::Equal(Value::Int(*i)))),
                }
            }
            if !restricted || !counted.insert((base, constraints.clone())) {
                continue;
            }
            let Some(rel) = db.relation_by_id(base) else {
                continue;
            };
            for (_, c) in &constraints {
                if let Constraint::InGuard(gp, gc) = c {
                    projections
                        .entry((*gp, *gc))
                        .or_insert_with(|| project(*gp, *gc, out));
                }
            }
            let relevant = rel
                .rows()
                .filter(|row| {
                    constraints.iter().all(|(col, c)| {
                        let Some(&v) = row.get(*col) else {
                            return false;
                        };
                        match c {
                            Constraint::Equal(want) => v == *want,
                            Constraint::InGuard(gp, gc) => projections[&(*gp, *gc)].contains(&v),
                        }
                    })
                })
                .count();
            pruned += (rel.len() - relevant) as u64;
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const ANCESTOR: &str = "
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
        query(Y) :- ancestor(ann, Y).
    ";

    fn analyzed(src: &str, root: &str) -> (RelevanceAnalysis, ValidatedProgram) {
        let interner = Arc::new(Interner::new());
        let program = ValidatedProgram::parse(src, interner).expect("test program is valid");
        let a = analyze_relevance(&program, program.interner().intern(root));
        (a, program)
    }

    #[test]
    fn ancestor_point_query_is_certified() {
        let (a, program) = analyzed(ANCESTOR, "query");
        assert!(a.certified());
        assert!(a.is_point_query());
        let shown: Vec<String> = a
            .adorned()
            .iter()
            .map(|p| p.display(program.interner()))
            .collect();
        assert_eq!(shown, vec!["ancestor^bf"]);
        assert_eq!(a.pruned_fraction(), (1, 2));
    }

    #[test]
    fn all_free_query_is_certified_but_not_point() {
        let (a, _) = analyzed("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).", "tc");
        assert!(a.certified());
        assert!(!a.is_point_query());
        assert!(a.adorned().is_empty());
        assert_eq!(a.pruned_fraction(), (0, 1));
    }

    /// The adorned predicates of a certified point query, as `p^bf`.
    fn certified_adornments(src: &str, root: &str) -> Vec<String> {
        let (a, program) = analyzed(src, root);
        assert!(a.is_point_query(), "{src}");
        assert!(a.magic().is_some(), "the rewrite revalidates: {src}");
        a.adorned()
            .iter()
            .map(|p| p.display(program.interner()))
            .collect()
    }

    #[test]
    fn negation_before_its_binder_is_certified() {
        // Textually `not reach(X, Y)` comes before `node(Y)` binds `Y`; the
        // planner runs `node(Y)` first, and so does the SIPS.
        let src = "
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            unreached(X, Y) :- node(X), not reach(X, Y), node(Y).
            q(Y) :- unreached(a, Y).
        ";
        assert_eq!(certified_adornments(src, "q"), ["unreached^bf"]);
    }

    #[test]
    fn builtin_before_its_binders_is_certified() {
        // `times` needs two bound arguments; textually it comes first, but
        // the planner runs it after `base(X)` and `factor(K)`.
        let src = "
            scaled(X, Y) :- times(X, K, Y), base(X), factor(K).
            q(Y) :- scaled(Y, 42).
        ";
        assert_eq!(certified_adornments(src, "q"), ["scaled^fb"]);
    }

    #[test]
    fn id_literal_blocks_with_choice_witness() {
        let src = "
            picked(X, Y) :- pref[2](X, Y, 0).
            pref(X, Y) :- likes(X, Y).
            q(Y) :- picked(a, Y).
        ";
        let (a, _) = analyzed(src, "q");
        assert!(!a.certified());
        let r = a.refusal().unwrap();
        assert!(matches!(
            r.walk.last(),
            Some(RelevanceStep::Choice {
                clause: 0,
                literal: 0
            })
        ));
    }

    #[test]
    fn magic_rewrite_has_seed_guard_and_magic_rule() {
        let (a, program) = analyzed(ANCESTOR, "query");
        let interner = program.interner();
        let magic = a.magic().expect("certified");
        let rendered = format!("{}", magic.ast().display(interner));
        // Seed fact from the query constant.
        assert!(rendered.contains("magic_ancestor__bf(ann)."), "{rendered}");
        // Guarded adorned clauses.
        assert!(
            rendered.contains("ancestor__bf(X, Y) :- magic_ancestor__bf(X), parent(X, Y)."),
            "{rendered}"
        );
        // The recursive magic rule chases bound arguments forward.
        assert!(
            rendered.contains("magic_ancestor__bf(X) :- magic_ancestor__bf(X)."),
            "{rendered}"
        );
        // The root keeps its name and reads the adorned predicate.
        assert!(
            rendered.contains("query(Y) :- ancestor__bf(ann, Y)."),
            "{rendered}"
        );
        // EDB literals are untouched.
        assert!(!rendered.contains("magic_parent"), "{rendered}");
    }

    #[test]
    fn magic_rewrite_refused_without_certificate() {
        let src = "picked(X) :- pool[](X, 0). q(X) :- picked(X).";
        let (a, _) = analyzed(src, "q");
        assert!(a.magic().is_none());
        assert!(
            a.rewrite_error().is_none(),
            "a choice site refuses before any rewrite"
        );
    }

    #[test]
    fn magic_program_validates_and_agrees_with_direct() {
        let (a, direct) = analyzed(ANCESTOR, "query");
        let interner = Arc::clone(direct.interner());
        let magicked = a.magic().expect("the rewrite validates");

        let mut db = idlog_storage::Database::with_interner(Arc::clone(&interner));
        for (x, y) in [
            ("ann", "bob"),
            ("bob", "cal"),
            ("cal", "dee"),
            ("eve", "fay"),
            ("fay", "gus"),
        ] {
            db.insert_syms("parent", &[x, y]).unwrap();
        }
        let opts = crate::EvalOptions::serial();
        let d =
            crate::eval::evaluate_with_options(&direct, &db, &mut crate::CanonicalOracle, &opts)
                .unwrap();
        let m =
            crate::eval::evaluate_with_options(magicked, &db, &mut crate::CanonicalOracle, &opts)
                .unwrap();
        let dr = d.relation("query").unwrap();
        let mr = m.relation("query").unwrap();
        assert!(dr.set_eq(mr), "magic answers differ from direct");
        assert_eq!(dr.len(), 3);
        // Profit: the magic run derives strictly fewer tuples (it never
        // touches the eve/fay branch).
        assert!(
            m.stats().inserted < d.stats().inserted,
            "magic {} vs direct {}",
            m.stats().inserted,
            d.stats().inserted
        );
        // And the pruned metric sees the irrelevant parent tuples.
        let pruned = magic_tuples_pruned(magicked, &db, &m);
        assert!(pruned > 0, "expected pruned EDB tuples");
    }

    #[test]
    fn negation_target_is_kept_plain_and_answers_agree() {
        let src = "
            good(X) :- cand(X), not bad(X).
            bad(X) :- flag(X).
            q(X) :- good(X).
        ";
        // `good` is reached all-free, `bad` is a negation target: both stay
        // plain and the rewrite degenerates to the original program shape.
        let (a, program) = analyzed(src, "q");
        assert!(a.certified());
        assert!(!a.is_point_query());
        let interner = program.interner();
        let magic = a.magic().expect("certified");
        let rendered = format!("{}", magic.ast().display(interner));
        assert!(!rendered.contains("magic_"), "{rendered}");
    }
}
