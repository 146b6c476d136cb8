//! Program validation and metadata.

use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId};
use idlog_parser::{Builtin, Clause, Literal, PredicateRef, Program};

use crate::error::{CoreError, CoreResult};
use crate::plan::RulePlan;
use crate::safety::{order_clause, ClauseOrder};
use crate::sorts::{infer, SortMap};
use crate::stratify::Stratification;
use crate::tidbound::{tid_bounds_ast, TidBounds};

/// A structurally validated IDLOG program: arities are consistent, heads are
/// single positive ordinary atoms, sorts are inferred, and every clause has a
/// safe evaluation order.
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
    strat: Stratification,
    plans: Arc<Vec<RulePlan>>,
}

impl ValidatedProgram {
    /// Validate a parsed program.
    pub fn new(ast: Program, interner: Arc<Interner>) -> CoreResult<Self> {
        // Head shape: exactly one positive ordinary atom, not arithmetic.
        for (ci, clause) in ast.clauses.iter().enumerate() {
            if clause.head.len() != 1 {
                return Err(CoreError::Validation {
                    clause: Some(ci),
                    message: "IDLOG clauses have exactly one head atom \
                              (multi-head clauses belong to DL)"
                        .into(),
                });
            }
            let h = &clause.head[0];
            if h.negated {
                return Err(CoreError::Validation {
                    clause: Some(ci),
                    message: "negated heads belong to N-DATALOG, not IDLOG".into(),
                });
            }
            if h.atom.pred.is_id_version() {
                return Err(CoreError::Validation {
                    clause: Some(ci),
                    message: "the head must be a non-ID-atom ([She90b] clause shape)".into(),
                });
            }
            let head_name = interner.resolve(h.atom.pred.base());
            if Builtin::from_name(&head_name).is_some() {
                return Err(CoreError::Validation {
                    clause: Some(ci),
                    message: format!("cannot define arithmetic predicate {head_name}"),
                });
            }
            for lit in &clause.body {
                if matches!(lit, Literal::Choice { .. }) {
                    return Err(CoreError::Validation {
                        clause: Some(ci),
                        message: "choice literals belong to DATALOG^C; translate them with \
                                  idlog-choice first"
                            .into(),
                    });
                }
                if matches!(lit, Literal::Cut) {
                    return Err(CoreError::Validation {
                        clause: Some(ci),
                        message: "cut is a top-down construct; use the SLD evaluator in \
                                  idlog-choice::cut"
                            .into(),
                    });
                }
            }
        }

        // Arity consistency across all occurrences.
        let mut arities: FxHashMap<SymbolId, usize> = FxHashMap::default();
        let mut check_arity = |pred: SymbolId, arity: usize, ci: usize| -> CoreResult<()> {
            match arities.get(&pred) {
                Some(&a) if a != arity => Err(CoreError::Validation {
                    clause: Some(ci),
                    message: format!(
                        "predicate {} used with arity {arity} but previously {a}",
                        interner.resolve(pred)
                    ),
                }),
                _ => {
                    arities.insert(pred, arity);
                    Ok(())
                }
            }
        };
        for (ci, clause) in ast.clauses.iter().enumerate() {
            check_arity(
                clause.head[0].atom.pred.base(),
                clause.head[0].atom.base_arity(),
                ci,
            )?;
            for lit in &clause.body {
                if let Some(a) = lit.atom() {
                    check_arity(a.pred.base(), a.base_arity(), ci)?;
                }
            }
        }

        // Grouping positions are in range of the (now global) arity.
        let mut id_uses: FxHashSet<(SymbolId, Vec<usize>)> = FxHashSet::default();
        for (ci, clause) in ast.clauses.iter().enumerate() {
            for lit in &clause.body {
                if let Some(a) = lit.atom() {
                    if let PredicateRef::IdVersion { base, grouping } = &a.pred {
                        let arity = arities[base];
                        if let Some(&bad) = grouping.iter().find(|&&g| g >= arity) {
                            return Err(CoreError::Validation {
                                clause: Some(ci),
                                message: format!(
                                    "grouping attribute {} exceeds arity {arity} of {}",
                                    bad + 1,
                                    interner.resolve(*base)
                                ),
                            });
                        }
                        id_uses.insert((*base, grouping.clone()));
                    }
                }
            }
        }

        let sorts = infer(&ast, &arities, &interner)?;

        let mut orders = Vec::with_capacity(ast.clauses.len());
        for (ci, clause) in ast.clauses.iter().enumerate() {
            orders.push(order_clause(clause, ci)?);
        }

        let idb = ast.head_predicates();
        let inputs = ast.input_predicates();

        // Stratification and rule compilation are deterministic per program:
        // compute once here (also surfacing stratification errors at
        // validation time) and reuse across evaluations.
        let strat = crate::stratify::stratify(&ast, &interner)?;
        let tid_bounds = tid_bounds_ast(&ast);
        let mut vp = ValidatedProgram {
            interner,
            ast,
            arities,
            sorts,
            orders,
            idb,
            inputs,
            id_uses,
            tid_bounds,
            strat,
            plans: Arc::new(Vec::new()),
        };
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
