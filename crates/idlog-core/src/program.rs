//! Program validation and metadata.
//!
//! [`check`] is the one validator of §2's rules for a valid IDLOG program.
//! It never stops at the first failure: it returns every [`Violation`] at
//! its site, each with one headline. [`ValidatedProgram::new`] turns the
//! first into a [`CoreError`]; `idlog lint` renders them all with spans.
//!
//! A [`ValidatedProgram`] also holds what the analyses certify about it,
//! each computed once when it is built: the tid bounds, the ID-taint
//! analysis and the termination certificate. Every consumer — the engine,
//! `idlog lint`, `idlog check`, `explain --analyze`, the REPL and the
//! optimizer — reads these, so no analysis runs on an unvalidated program.

use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId};
use idlog_parser::{Atom, Builtin, Clause, Literal, PredicateRef, Program};
use idlog_storage::Database;

use crate::columns::ColumnGraph;
use crate::error::{CoreError, CoreResult};
use crate::govern::Limits;
use crate::plan::RulePlan;
use crate::safety::{analyze_clause, ClauseOrder, SafetyViolation};
use crate::sorts::{infer_collect, SortConflict, SortMap};
use crate::stratify::{cycle_names, unstratifiable, DepEdge, DepGraph, Stratification};
use crate::taint::{analyze_taint, TaintAnalysis};
use crate::termination::{analyze_termination, TerminationCert};
use crate::tidbound::{tid_bounds_ast, TidBounds};

/// One occurrence in a clause, by index: `Head(clause, atom)` or
/// `Body(clause, literal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A head atom.
    Head(usize, usize),
    /// A body literal.
    Body(usize, usize),
}

impl Site {
    /// The clause the occurrence lies in.
    fn clause(self) -> usize {
        match self {
            Site::Head(clause, _) | Site::Body(clause, _) => clause,
        }
    }
}

/// One way a program breaks the rules of a valid IDLOG program, at its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A clause, by index, without exactly one head atom (DL syntax).
    HeadCount(usize),
    /// A negated head (N-DATALOG syntax).
    NegatedHead(Site),
    /// An ID-atom as head.
    IdHead(Site),
    /// A head that defines the given arithmetic predicate.
    BuiltinHead(Site, SymbolId),
    /// A choice literal: DATALOG^C, which is translated to IDLOG first.
    Choice(Site),
    /// A cut: only top-down evaluation gives it a meaning.
    Cut(Site),
    /// A predicate used with another arity than at its first occurrence.
    Arity {
        /// The occurrence.
        site: Site,
        /// The predicate.
        pred: SymbolId,
        /// Its arity at the occurrence.
        arity: usize,
        /// Its first occurrence, and its arity there.
        first: (Site, usize),
    },
    /// An ID-literal grouping on an attribute beyond its predicate's arity.
    Grouping {
        /// The ID-literal.
        site: Site,
        /// Its base predicate.
        pred: SymbolId,
        /// The 0-based attribute out of range.
        attribute: usize,
        /// The predicate's arity.
        arity: usize,
    },
    /// Two sorts demanded of one column, variable or constant.
    Sort(SortConflict),
    /// A clause, by index, with no safe evaluation order or an unbound
    /// head variable (§2.2).
    Unsafe(usize, SafetyViolation),
    /// A cycle through negation or an ID-literal, as [`DepGraph`] edges
    /// from the strict one on.
    Unstratifiable(Vec<DepEdge>),
}

impl Violation {
    /// The one-line headline `idlog lint` and the engine both report.
    pub fn headline(&self, interner: &Interner) -> String {
        match self {
            Violation::HeadCount(_) => {
                "IDLOG clauses have exactly one head atom (multi-head clauses belong to DL)".into()
            }
            Violation::NegatedHead(_) => "negated heads belong to N-DATALOG, not IDLOG".into(),
            Violation::IdHead(_) => "the head must be a non-ID-atom ([She90b] clause shape)".into(),
            Violation::BuiltinHead(_, pred) => {
                format!(
                    "cannot define arithmetic predicate {}",
                    interner.resolve(*pred)
                )
            }
            Violation::Choice(_) => {
                "choice literals belong to DATALOG^C; translate them with idlog-choice first".into()
            }
            Violation::Cut(_) => "cut is a top-down construct; only the SLD evaluator \
                                  (idlog-suite::cut) supports it"
                .into(),
            Violation::Arity {
                pred,
                arity,
                first: (_, first_arity),
                ..
            } => format!(
                "predicate {} used with arity {arity} but previously {first_arity}",
                interner.resolve(*pred)
            ),
            Violation::Grouping {
                pred,
                attribute,
                arity,
                ..
            } => format!(
                "grouping attribute {} exceeds arity {arity} of {}",
                attribute + 1,
                interner.resolve(*pred)
            ),
            Violation::Sort(conflict) => conflict.message(interner),
            Violation::Unsafe(_, violation) => violation.message(),
            Violation::Unstratifiable(cycle) => unstratifiable(&cycle_names(cycle, interner)),
        }
    }

    /// The engine's error for this violation: the headline, under the
    /// [`CoreError`] variant of its rule. An unsafe body also names each
    /// stuck literal's binding pattern.
    fn error(&self, interner: &Interner) -> CoreError {
        let clause = match self {
            Violation::Sort(conflict) => return conflict.error(interner),
            Violation::Unsafe(clause, violation) => {
                let mut message = violation.message();
                if let SafetyViolation::NoSafeOrder { stuck } = violation {
                    for (k, (_, reason)) in stuck.iter().enumerate() {
                        message.push_str(if k == 0 { ": " } else { "; " });
                        message.push_str(&reason.message());
                    }
                }
                return CoreError::Safety {
                    clause: *clause,
                    message,
                };
            }
            Violation::Unstratifiable(cycle) => {
                return CoreError::Stratification {
                    cycle: cycle_names(cycle, interner),
                }
            }
            Violation::HeadCount(clause) => *clause,
            Violation::NegatedHead(site)
            | Violation::IdHead(site)
            | Violation::BuiltinHead(site, _)
            | Violation::Choice(site)
            | Violation::Cut(site)
            | Violation::Arity { site, .. }
            | Violation::Grouping { site, .. } => site.clause(),
        };
        CoreError::Validation {
            clause: Some(clause),
            message: self.headline(interner),
        }
    }
}

/// Everything [`check`] finds: the violations, and what a valid program is
/// built from.
#[derive(Debug)]
pub struct Checked {
    /// Every violation, in the order of the checks (clause shape, arities,
    /// grouping, sorts, safety, stratification); empty for a valid program.
    pub violations: Vec<Violation>,
    /// Each predicate's arity at its first occurrence.
    arities: FxHashMap<SymbolId, usize>,
    /// Every `(base predicate, grouping)` pair an ID-literal reads.
    id_uses: FxHashSet<(SymbolId, Vec<usize>)>,
    /// Inferred column sorts (first demand wins on a conflict).
    sorts: SortMap,
    /// Each clause's safe evaluation order; `None` for an unsafe clause.
    orders: Vec<Option<ClauseOrder>>,
    /// The predicate dependency graph.
    pub graph: Arc<DepGraph>,
    /// The strata; `None` when the program is not stratifiable.
    strat: Option<Stratification>,
}

/// Check `program` against every rule of a valid IDLOG program, without
/// stopping at the first violation: clause shape, arity consistency,
/// grouping ranges, sorts, safety, then stratification.
pub fn check(program: &Program, interner: &Interner) -> Checked {
    // Clause shape (one positive ordinary head atom, not arithmetic; no
    // choice literal, no cut), and arity consistency: the first occurrence
    // fixes each predicate's arity.
    let (mut violations, mut arity_violations) = (Vec::new(), Vec::new());
    let mut first: FxHashMap<SymbolId, (Site, usize)> = FxHashMap::default();
    let mut occurs = |site: Site, atom: &Atom| {
        let (pred, arity) = (atom.pred.base(), atom.base_arity());
        let seen = *first.entry(pred).or_insert((site, arity));
        if seen.1 != arity {
            arity_violations.push(Violation::Arity {
                site,
                pred,
                arity,
                first: seen,
            });
        }
    };
    for (ci, clause) in program.clauses.iter().enumerate() {
        if clause.head.len() != 1 {
            violations.push(Violation::HeadCount(ci));
        }
        for (hi, h) in clause.head.iter().enumerate() {
            let site = Site::Head(ci, hi);
            if h.negated {
                violations.push(Violation::NegatedHead(site));
            }
            if h.atom.pred.is_id_version() {
                violations.push(Violation::IdHead(site));
            }
            let pred = h.atom.pred.base();
            if Builtin::from_name(&interner.resolve(pred)).is_some() {
                violations.push(Violation::BuiltinHead(site, pred));
            }
            occurs(site, &h.atom);
        }
        for (li, lit) in clause.body.iter().enumerate() {
            let site = Site::Body(ci, li);
            match lit {
                Literal::Choice { .. } => violations.push(Violation::Choice(site)),
                Literal::Cut => violations.push(Violation::Cut(site)),
                Literal::Pos(atom) | Literal::Neg(atom) => occurs(site, atom),
                Literal::Builtin { .. } => {}
            }
        }
    }
    violations.append(&mut arity_violations);
    let arities: FxHashMap<SymbolId, usize> = first.into_iter().map(|(p, (_, a))| (p, a)).collect();

    // Grouping attributes lie inside the base predicate's arity.
    let mut id_uses = FxHashSet::default();
    for (ci, clause) in program.clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            let Some(PredicateRef::IdVersion { base, grouping }) = lit.atom().map(|a| &a.pred)
            else {
                continue;
            };
            let arity = arities[base];
            if let Some(&attribute) = grouping.iter().find(|&&g| g >= arity) {
                violations.push(Violation::Grouping {
                    site: Site::Body(ci, li),
                    pred: *base,
                    attribute,
                    arity,
                });
            }
            id_uses.insert((*base, grouping.clone()));
        }
    }

    let (sorts, conflicts) = infer_collect(program, &arities, &[]);
    violations.extend(conflicts.into_iter().map(Violation::Sort));

    let mut orders = Vec::with_capacity(program.clauses.len());
    for (ci, clause) in program.clauses.iter().enumerate() {
        let order = analyze_clause(clause)
            .map_err(|v| violations.extend(v.into_iter().map(|v| Violation::Unsafe(ci, v))));
        orders.push(order.ok());
    }

    let graph = Arc::new(DepGraph::new(program));
    let strat = Stratification::of(Arc::clone(&graph))
        .map_err(|cycle| violations.push(Violation::Unstratifiable(cycle)))
        .ok();

    Checked {
        violations,
        arities,
        id_uses,
        sorts,
        orders,
        graph,
        strat,
    }
}

/// A validated IDLOG program: [`check`] found no violation. Arities are
/// consistent, heads are single positive ordinary atoms, sorts are
/// inferred, every clause has a safe evaluation order, and the program
/// stratifies. It carries its analyses, each computed once.
#[derive(Debug, Clone)]
pub struct ValidatedProgram {
    interner: Arc<Interner>,
    ast: Program,
    arities: FxHashMap<SymbolId, usize>,
    sorts: SortMap,
    orders: Vec<ClauseOrder>,
    idb: FxHashSet<SymbolId>,
    inputs: FxHashSet<SymbolId>,
    id_uses: FxHashSet<(SymbolId, Vec<usize>)>,
    tid_bounds: TidBounds,
    // Shared, so that cloning a program (a served query per request) does
    // not copy its analyses.
    taint: Arc<TaintAnalysis>,
    termination: Arc<TerminationCert>,
    strat: Stratification,
    plans: Arc<Vec<RulePlan>>,
}

impl ValidatedProgram {
    /// Validate a parsed program: the first of [`check`]'s violations is
    /// the error.
    pub fn new(ast: Program, interner: Arc<Interner>) -> CoreResult<Self> {
        let checked = check(&ast, &interner);
        Self::from_checked(ast, interner, checked)
    }

    /// The validated program, from `checked` — [`check`]'s result on
    /// `ast` — or the first of its violations as the error. `idlog-analyze`
    /// builds its program this way, so a lint run validates once.
    pub fn from_checked(
        ast: Program,
        interner: Arc<Interner>,
        checked: Checked,
    ) -> CoreResult<Self> {
        if let Some(v) = checked.violations.first() {
            return Err(v.error(&interner));
        }
        let orders = checked
            .orders
            .into_iter()
            .map(|o| o.expect("a valid program orders every clause"))
            .collect();
        let strat = checked.strat.expect("a valid program stratifies");
        let idb = ast.head_predicates();
        let inputs = ast.input_predicates();
        let mut vp = ValidatedProgram {
            interner,
            ast,
            arities: checked.arities,
            sorts: checked.sorts,
            orders,
            idb,
            inputs,
            id_uses: checked.id_uses,
            tid_bounds: TidBounds::default(),
            taint: Arc::default(),
            termination: Arc::default(),
            strat,
            plans: Arc::new(Vec::new()),
        };
        // One column graph, passed to the three analyses that read it.
        let columns = ColumnGraph::new(&vp.ast);
        let tid_bounds = tid_bounds_ast(&columns);
        let taint = analyze_taint(&columns);
        let termination = analyze_termination(&vp, &columns);
        vp.tid_bounds = tid_bounds;
        vp.taint = Arc::new(taint);
        vp.termination = Arc::new(termination);
        let plans = crate::plan::compile(&vp)?;
        vp.plans = Arc::new(plans);
        Ok(vp)
    }

    /// Parse and validate in one step.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use idlog_core::{Interner, ValidatedProgram};
    ///
    /// let program = ValidatedProgram::parse(
    ///     "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
    ///     Arc::new(Interner::new()),
    /// ).unwrap();
    /// assert_eq!(program.idb().len(), 1);
    ///
    /// // The paper's safety discipline rejects under-bound arithmetic:
    /// assert!(ValidatedProgram::parse(
    ///     "p(X, N) :- q(X, N), plus(N, L, M).",
    ///     Arc::new(Interner::new()),
    /// ).is_err());
    /// ```
    pub fn parse(src: &str, interner: Arc<Interner>) -> CoreResult<Self> {
        let ast = idlog_parser::parse_program(src, &interner)?;
        Self::new(ast, interner)
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// The underlying AST.
    pub fn ast(&self) -> &Program {
        &self.ast
    }

    /// Arity of `pred`, if it occurs in the program.
    pub fn arity(&self, pred: SymbolId) -> Option<usize> {
        self.arities.get(&pred).copied()
    }

    /// Inferred column sorts.
    pub fn sorts(&self) -> &SortMap {
        &self.sorts
    }

    /// Safe evaluation order of clause `ci`'s body.
    pub fn clause_order(&self, ci: usize) -> &ClauseOrder {
        &self.orders[ci]
    }

    /// Predicates defined by some clause head.
    pub fn idb(&self) -> &FxHashSet<SymbolId> {
        &self.idb
    }

    /// Input predicates: in bodies (ordinary or ID-version) but never heads.
    pub fn inputs(&self) -> &FxHashSet<SymbolId> {
        &self.inputs
    }

    /// All `(base predicate, grouping)` pairs whose ID-relation the program
    /// reads.
    pub fn id_uses(&self) -> &FxHashSet<(SymbolId, Vec<usize>)> {
        &self.id_uses
    }

    /// For every ID-use whose tid is provably bounded in *all* occurrences,
    /// the number of distinguishable tids `k` (see [`crate::tidbound`]).
    /// Evaluation materializes only tids `0..k` of such an ID-relation,
    /// all-answers enumeration walks k-prefix arrangements, and `explain`
    /// prints the bound — all from this one analysis.
    pub fn tid_bounds(&self) -> &TidBounds {
        &self.tid_bounds
    }

    /// The ID-taint analysis ([`crate::taint`]): which predicates are
    /// certified identical under every ID-function, and which columns can
    /// carry tid-derived values.
    pub fn taint(&self) -> &TaintAnalysis {
        &self.taint
    }

    /// The termination certificate ([`crate::termination`]): recursion
    /// classes, a growth witness when one exists, and the per-database
    /// round bound of a certified program.
    pub fn termination(&self) -> &TerminationCert {
        &self.termination
    }

    /// `limits` with this program's certified [round
    /// bound](TerminationCert::round_bound) over `db` installed as the
    /// `max_rounds` ceiling: tightened, never loosened. A correct
    /// certificate never trips it (the bound over-approximates), and a
    /// wrong one trips deterministically instead of hanging. Each
    /// [`crate::Session`] path and `idlog explain --analyze` evaluate under
    /// these limits.
    pub fn certified_limits(&self, db: &Database, limits: Limits) -> Limits {
        match self.termination.round_bound(db) {
            Some(bound) => limits.tighten_rounds(bound),
            None => limits,
        }
    }

    /// The (cached) stratification.
    pub fn stratification(&self) -> &Stratification {
        &self.strat
    }

    /// The (cached) compiled rule plans, one per clause.
    pub fn plans(&self) -> &Arc<Vec<RulePlan>> {
        &self.plans
    }

    /// The program portion related to `output` — the paper's `P/q`: all
    /// clauses whose head predicate (transitively) contributes to `output`.
    pub fn restrict_to(&self, output: SymbolId) -> CoreResult<ValidatedProgram> {
        let wanted = self.strat.graph().upstream([output]);
        let related = |c: &&Clause| wanted.contains(&c.head[0].atom.pred.base());
        if self.ast.clauses.iter().all(|c| related(&c)) {
            // `P/q` is `P`: validating the same clauses again would only
            // recompute what this program already holds.
            return Ok(self.clone());
        }
        let clauses = self.ast.clauses.iter().filter(related).cloned().collect();
        ValidatedProgram::new(Program { clauses }, Arc::clone(&self.interner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate(src: &str) -> CoreResult<ValidatedProgram> {
        let i = Arc::new(Interner::new());
        ValidatedProgram::parse(src, i)
    }

    #[test]
    fn accepts_paper_example2() {
        let p = validate(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             man(X) :- sex_guess[1](X, male, 1).
             woman(X) :- sex_guess[1](X, female, 1).",
        )
        .unwrap();
        assert_eq!(p.id_uses().len(), 1);
        assert!(p.inputs().contains(&p.interner().get("person").unwrap()));
        assert_eq!(p.idb().len(), 3);
    }

    #[test]
    fn rejects_multi_head() {
        assert!(matches!(
            validate("a(X) & b(X) :- c(X)."),
            Err(CoreError::Validation { .. })
        ));
    }

    #[test]
    fn rejects_negated_head() {
        assert!(validate("not a(X) :- c(X).").is_err());
    }

    #[test]
    fn rejects_id_head() {
        assert!(validate("a[1](X, T) :- c(X), succ(T, T2).").is_err());
    }

    #[test]
    fn rejects_choice_literal() {
        let err = validate("s(N) :- emp(N, D), choice((D), (N)).").unwrap_err();
        match err {
            CoreError::Validation { message, .. } => {
                assert!(message.contains("choice"), "{message}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(validate("p(X) :- q(X). r(X) :- q(X, X).").is_err());
    }

    #[test]
    fn rejects_defining_builtin() {
        assert!(validate("succ(X, X) :- p(X).").is_err());
    }

    #[test]
    fn restrict_to_keeps_related_clauses_only() {
        let p = validate(
            "a(X) :- b(X).
             b(X) :- base(X).
             unrelated(X) :- other(X).",
        )
        .unwrap();
        let a = p.interner().get("a").unwrap();
        let restricted = p.restrict_to(a).unwrap();
        assert_eq!(restricted.ast().clauses.len(), 2);
        assert!(restricted
            .arity(p.interner().get("unrelated").unwrap())
            .is_none());
    }

    #[test]
    fn restrict_follows_id_literals() {
        let p = validate(
            "pick(X) :- cand[](X, 0).
             cand(X) :- pool(X).
             junk(X) :- pool(X).",
        )
        .unwrap();
        let pick = p.interner().get("pick").unwrap();
        let restricted = p.restrict_to(pick).unwrap();
        assert_eq!(restricted.ast().clauses.len(), 2);
    }

    #[test]
    fn safety_error_propagates() {
        assert!(matches!(
            validate("p(X, Y) :- q(X)."),
            Err(CoreError::Safety { .. })
        ));
    }
}
