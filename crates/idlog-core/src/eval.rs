//! The evaluation driver: perfect-model computation for one tid choice.
//!
//! Given a validated program, an input database, and a [`TidOracle`], compute
//! the unique perfect model determined by the oracle's ID-function choices:
//! strata are evaluated bottom-up; before a stratum runs, the ID-relations
//! its rules read are materialized from the (now complete) lower-stratum
//! relations.

use std::sync::Arc;

use idlog_common::{FxHashSet, Interner, SymbolId};
use idlog_storage::{BackendKind, Database, Relation};

use crate::config::EvalOptions;
use crate::engine::{eval_stratum, EvalState};
use crate::error::{CoreError, CoreResult};
use crate::govern::{panic_message, CancelToken, EvalError, Governor};
use crate::plan::RulePlan;
use crate::pred::PredKey;
use crate::profile::{IdRelationProfile, Profile, StratumProfile};
use crate::program::ValidatedProgram;
use crate::sorts::{infer_with_seeds, SortMap};
use crate::stats::EvalStats;
use crate::tid::TidOracle;

/// The result of one evaluation: every predicate's relation plus statistics
/// (and, when requested, a per-rule [`Profile`]).
#[derive(Debug, Clone)]
pub struct EvalOutput {
    interner: Arc<Interner>,
    state: EvalState,
    stats: EvalStats,
    profile: Option<Profile>,
}

impl EvalOutput {
    /// The relation computed for `name` (input, IDB, or — via
    /// [`EvalOutput::id_relation`] — an ID-relation). An input relation is
    /// the database's own, shared rather than copied (on the default hash
    /// backend; a columnar evaluation reads a converted copy).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        let id = self.interner.get(name)?;
        self.state.get(&PredKey::Ordinary(id))
    }

    /// Move the relation computed for `name` out of this output (a later
    /// [`EvalOutput::relation`] for it returns `None`). For callers that
    /// own the output and keep one relation: moving skips the copy of the
    /// tuple store and its indexes that cloning would make.
    pub fn take_relation(&mut self, name: &str) -> Option<Relation> {
        let id = self.interner.get(name)?;
        self.state.take(&PredKey::Ordinary(id))
    }

    /// A materialized ID-relation `name[grouping]` (0-based grouping), if the
    /// program used it. When every occurrence of the ID-literal bounds its
    /// tid below some `k` ([`ValidatedProgram::tid_bounds`]), this is the
    /// restriction to `tid < k` — the other tuples were never built.
    pub fn id_relation(&self, name: &str, grouping: &[usize]) -> Option<&Relation> {
        let id = self.interner.get(name)?;
        self.state.get(&PredKey::Id(id, grouping.to_vec()))
    }

    /// Evaluation statistics.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The per-rule profile, when the run was started with
    /// [`EvalOptions::profile`] set.
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_ref()
    }

    /// Take ownership of the profile, leaving `None` behind.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profile.take()
    }

    /// The interner shared with the program and database.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Decompose into the raw evaluation state and statistics (incremental
    /// maintenance seeds a [`crate::maintain::Materialized`] from them).
    pub(crate) fn into_parts(self) -> (Arc<Interner>, EvalState, EvalStats) {
        (self.interner, self.state, self.stats)
    }
}

/// How a query is evaluated. Both strategies run the same delta-driven
/// semi-naive fixpoint per stratum; they differ in the program it runs over.
/// The tests hold that fixpoint to an independent interpreter of the
/// paper's §2 (`idlog-suite`'s `reference` module), not to a second engine
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Evaluate the program as written (the default).
    #[default]
    SemiNaive,
    /// Goal-directed evaluation: [`crate::query::Query`] rewrites the
    /// program with magic sets ([`crate::relevance`]) before evaluation,
    /// which then proceeds semi-naively over the transformed program. At
    /// this layer the fixpoint loop is identical to [`Strategy::SemiNaive`].
    Magic,
}

impl Strategy {
    /// Parse a strategy name as accepted by `idlog run --strategy`, the
    /// REPL `:strategy` command, and the service protocol: `seminaive` or
    /// `magic`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "seminaive" => Some(Strategy::SemiNaive),
            "magic" => Some(Strategy::Magic),
            _ => None,
        }
    }

    /// The canonical name (`"seminaive"` / `"magic"`).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SemiNaive => "seminaive",
            Strategy::Magic => "magic",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The whole-model evaluation: compute the perfect model of `program` on
/// `db` under `oracle`'s tid choices, governed by [`EvalOptions`]
/// (threads, backend, profiling, limits).
///
/// This is what [`crate::Session`] runs once it has restricted a query to
/// its related program `P/q`, installed the certified round ceiling and
/// applied the strategy. To get a query's answers, go through
/// [`crate::Query::session`]; call this directly only to read *every*
/// relation of a model — `idlog explain --analyze` annotates each clause,
/// and the determinism and reference suites compare whole models.
///
/// `db` must share the program's interner (build it with
/// `Database::with_interner(program.interner().clone())`). Neither the
/// thread count nor profiling changes the computed relations or statistics
/// — rounds merge worker output in deterministic work-item order, and the
/// profile (wall time excepted) inherits that determinism.
///
/// A [`Governor`] built from `options.limits` (plus the optional
/// [`CancelToken`]) is checked by every worker, and a limit trip or
/// cancellation returns [`EvalError::Limit`]/[`EvalError::Cancelled`]
/// carrying the **partial output** — relations, [`EvalStats`], and profile
/// as of the last completed round barrier, byte-identical at any thread
/// count for the deterministic ceilings (`max_rounds`, `max_tuples`,
/// `max_bytes`).
pub fn evaluate_governed(
    program: &ValidatedProgram,
    db: &Database,
    oracle: &mut dyn TidOracle,
    options: &EvalOptions,
    cancel: Option<&CancelToken>,
) -> Result<EvalOutput, EvalError> {
    let interner = Arc::clone(program.interner());
    if !Arc::ptr_eq(&interner, db.interner()) {
        return Err(EvalError::Core(CoreError::Input {
            message: "database and program must share one interner \
                      (use Database::with_interner(program.interner().clone()))"
                .into(),
        }));
    }

    let governor = Governor::new(options.limits, cancel.cloned());
    let strat = program.stratification();
    let plans = program.plans();
    let mut stats = EvalStats::default();
    let mut state = EvalState::new();
    let mut profile = options.profile.then(|| Profile::for_program(program));

    install_inputs(program, db, &mut state, options.backend).map_err(EvalError::Core)?;
    install_idb(
        program,
        &refine_sorts(program, db).map_err(EvalError::Core)?,
        db,
        &mut state,
        options.backend,
    )
    .map_err(EvalError::Core)?;

    // Run the strata inside a closure so that on a limit trip or
    // cancellation the accumulated state/stats/profile survive to be
    // packaged as the partial output.
    let threads = options.effective_threads();
    let by_stratum = strat.clauses_by_stratum(program.ast());
    let run = (|| -> CoreResult<()> {
        for (k, stratum_clauses) in by_stratum.iter().enumerate() {
            // Inter-stratum barrier: a stratum that ends at fixpoint skips
            // its final in-stratum check, so re-check cumulative ceilings
            // before committing to the next stratum's work.
            if k > 0 {
                governor.check_barrier(&stats, || state.estimated_bytes())?;
            }
            let stratum_plans: Vec<&RulePlan> =
                stratum_clauses.iter().map(|&ci| &plans[ci]).collect();
            let mut sp = profile.as_ref().map(|_| StratumProfile::new(k));
            let evaluated = materialize_id_relations(
                &stratum_plans,
                program,
                options.backend,
                &mut state,
                oracle,
                &mut stats,
                sp.as_mut(),
            )
            .and_then(|()| {
                let same_stratum: FxHashSet<SymbolId> =
                    stratum_plans.iter().map(|p| p.head_pred).collect();
                eval_stratum(
                    &mut state,
                    &stratum_plans,
                    &same_stratum,
                    &mut stats,
                    threads,
                    &governor,
                    sp.as_mut(),
                )
            });
            // A stratum that trips a limit keeps its rounds in the partial
            // profile, so its per-rule rows still add up to the totals.
            if let (Some(p), Some(sp)) = (profile.as_mut(), sp) {
                p.strata.push(sp);
            }
            evaluated?;
        }
        Ok(())
    })();

    if let Some(p) = profile.as_mut() {
        p.totals = stats;
    }
    let output = EvalOutput {
        interner,
        state,
        stats,
        profile,
    };
    match run {
        Ok(()) => Ok(output),
        Err(CoreError::LimitExceeded { limit }) => Err(EvalError::Limit {
            limit,
            partial: Box::new(output),
        }),
        Err(CoreError::Cancelled) => Err(EvalError::Cancelled {
            partial: Box::new(output),
        }),
        Err(e) => Err(EvalError::Core(e)),
    }
}

/// Set up an [`EvalState`] for enumeration: interner check, input relations
/// shared, IDB relations created empty.
pub(crate) fn install_for_enumeration(
    program: &ValidatedProgram,
    db: &Database,
    state: &mut EvalState,
    backend: BackendKind,
) -> CoreResult<()> {
    if !Arc::ptr_eq(program.interner(), db.interner()) {
        return Err(CoreError::Input {
            message: "database and program must share one interner \
                      (use Database::with_interner(program.interner().clone()))"
                .into(),
        });
    }
    install_inputs(program, db, state, backend)?;
    install_idb(program, &refine_sorts(program, db)?, db, state, backend)?;
    Ok(())
}

/// Re-run sort inference seeded with the database's actual input column
/// sorts, so IDB relations whose sorts the program text leaves open get the
/// types the data implies (e.g. an unconstrained column joined with an
/// integer input column becomes sort `i`).
fn refine_sorts(program: &ValidatedProgram, db: &Database) -> CoreResult<SortMap> {
    let mut seeds = Vec::new();
    for &pred in program.inputs() {
        if let Some(rel) = db.relation_by_id(pred) {
            for col in 0..rel.arity() {
                seeds.push((pred, col, rel.rtype().sort(col)));
            }
        }
    }
    let mut arities = idlog_common::FxHashMap::default();
    for &p in program.inputs().iter().chain(program.idb()) {
        if let Some(a) = program.arity(p) {
            arities.insert(p, a);
        }
    }
    infer_with_seeds(program.ast(), &arities, program.interner(), &seeds).map_err(|e| {
        CoreError::Input {
            message: format!("database sorts conflict with the program: {e}"),
        }
    })
}

/// Share the input relations of the database with `state` (or create empty
/// ones), checking arity and constrained sorts. The evaluation reads the
/// stored relations themselves, and the indexes it readies on them stay
/// there for the next one. An evaluation on another backend reads a copy
/// converted in bulk — the database itself never changes.
fn install_inputs(
    program: &ValidatedProgram,
    db: &Database,
    state: &mut EvalState,
    backend: BackendKind,
) -> CoreResult<()> {
    let interner = program.interner();
    for &pred in program.inputs() {
        let arity = program.arity(pred).expect("input predicate has an arity");
        match db.share(pred) {
            Some(rel) => {
                if rel.arity() != arity {
                    return Err(CoreError::Input {
                        message: format!(
                            "relation {} has arity {} but the program uses arity {arity}",
                            interner.resolve(pred),
                            rel.arity()
                        ),
                    });
                }
                for col in 0..arity {
                    if let Some(want) = program.sorts().constraint(pred, col) {
                        if rel.rtype().sort(col) != want {
                            return Err(CoreError::Input {
                                message: format!(
                                    "column {} of {} must have sort {want}",
                                    col + 1,
                                    interner.resolve(pred)
                                ),
                            });
                        }
                    }
                }
                if rel.backend_kind() == backend {
                    state.share(PredKey::Ordinary(pred), rel);
                } else {
                    let converted = Arc::unwrap_or_clone(rel).to_backend(backend);
                    state.put(PredKey::Ordinary(pred), converted);
                }
            }
            None => {
                let rtype = program
                    .sorts()
                    .rel_type(pred)
                    .expect("arity known implies type known");
                state.put(PredKey::Ordinary(pred), Relation::new_in(rtype, backend));
            }
        }
    }
    Ok(())
}

/// Create empty relations for every IDB predicate, using the
/// database-refined sorts. Rejects databases that store facts under an IDB
/// predicate — they would be silently ignored otherwise (the paper's input
/// predicates never occur in heads; put such facts in the program instead).
fn install_idb(
    program: &ValidatedProgram,
    refined: &SortMap,
    db: &Database,
    state: &mut EvalState,
    backend: BackendKind,
) -> CoreResult<()> {
    for &pred in program.idb() {
        if db.relation_by_id(pred).is_some_and(|r| !r.is_empty()) {
            return Err(CoreError::Input {
                message: format!(
                    "predicate {} is defined by rules but the database also stores facts \
                     for it; move them into the program or rename one of the two",
                    program.interner().resolve(pred)
                ),
            });
        }
        let rtype = refined
            .rel_type(pred)
            .or_else(|| program.sorts().rel_type(pred))
            .expect("IDB predicate has a type");
        state.put(PredKey::Ordinary(pred), Relation::new_in(rtype, backend));
    }
    Ok(())
}

/// Materialize every ID-relation the given plans read that is not yet
/// present. Lower strata are complete, so the base relations are final.
/// An ID-use whose tid the program bounds below `k`
/// ([`ValidatedProgram::tid_bounds`]) is materialized for tids `0..k` only.
///
/// The oracle is consulted in sorted (base name, grouping) order. Iterating
/// the collection map directly would consult it in hash order — fine for
/// [`crate::tid::CanonicalOracle`], but any oracle with call-order-dependent
/// state would then produce different perfect models run-to-run.
#[allow(clippy::too_many_arguments)]
fn materialize_id_relations(
    plans: &[&RulePlan],
    program: &ValidatedProgram,
    backend: BackendKind,
    state: &mut EvalState,
    oracle: &mut dyn TidOracle,
    stats: &mut EvalStats,
    mut prof: Option<&mut StratumProfile>,
) -> CoreResult<()> {
    let interner = program.interner();
    let mut needed: FxHashSet<(SymbolId, Vec<usize>)> = FxHashSet::default();
    for plan in plans {
        for step in &plan.steps {
            if let Some(key @ PredKey::Id(base, grouping)) = step.reads() {
                if !state.has(key) {
                    needed.insert((*base, grouping.clone()));
                }
            }
        }
    }
    let mut needed: Vec<(SymbolId, Vec<usize>)> = needed.into_iter().collect();
    needed.sort_by_cached_key(|(base, grouping)| (interner.resolve(*base), grouping.clone()));
    for (base, grouping) in needed {
        let rel = state
            .get(&PredKey::Ordinary(base))
            .ok_or_else(|| CoreError::Eval {
                message: format!(
                    "ID-relation of {} requested before its base relation exists",
                    interner.resolve(base)
                ),
            })?;
        let bound = program.tid_bounds().get(&(base, grouping.clone())).copied();
        // The oracle is third-party code (trait object); contain its panics.
        // The failpoint sits inside the contained region so an injected
        // `panic` action exercises the same unwind path an oracle bug would.
        let built =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<_, String> {
                #[cfg(feature = "failpoints")]
                idlog_common::failpoint::hit("oracle.assign")?;
                Ok(oracle.id_relation(base, &grouping, rel, interner, bound))
            }))
            .map_err(|payload| CoreError::Internal {
                clause: None,
                message: format!(
                    "ID-oracle panicked for {}: {}",
                    interner.resolve(base),
                    panic_message(payload)
                ),
            })?
            .map_err(|message| CoreError::Internal {
                clause: None,
                message,
            })?
            .map_err(|e| CoreError::Internal {
                clause: None,
                message: format!("ID-oracle assignment for {}: {e}", interner.resolve(base)),
            })?;
        if let Some(p) = prof.as_deref_mut() {
            p.id_relations.push(IdRelationProfile {
                name: interner.resolve(base),
                grouping: grouping.clone(),
                groups: built.groups as u64,
                tuples: rel.len() as u64,
            });
        }
        // The oracles build on the (cheap-to-append) hash backend; convert
        // in bulk so the ID-relation lives where the evaluation's relations do.
        state.put(
            PredKey::Id(base, grouping),
            built.relation.to_backend(backend),
        );
        stats.id_relations += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tid::{CanonicalOracle, ExplicitOracle};
    use idlog_common::{Nat, Tuple, Value};

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    fn setup(src: &str, facts: &[(&str, &[&str])]) -> (ValidatedProgram, Database) {
        let interner = Arc::new(Interner::new());
        let program = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
        let mut db = Database::with_interner(interner);
        for (pred, cols) in facts {
            db.insert_syms(pred, cols).unwrap();
        }
        (program, db)
    }

    fn run(
        program: &ValidatedProgram,
        db: &Database,
        oracle: &mut dyn TidOracle,
    ) -> CoreResult<EvalOutput> {
        evaluate_governed(program, db, oracle, &EvalOptions::default(), None)
            .map_err(EvalError::into_core)
    }

    fn names(out: &EvalOutput, rel: &str) -> Vec<String> {
        let interner = out.interner();
        let mut v: Vec<String> = out
            .relation(rel)
            .map(|r| {
                r.iter()
                    .map(|t| {
                        t.values()
                            .iter()
                            .map(|x| x.display(interner).to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    #[test]
    fn transitive_closure() {
        let (p, db) = setup(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &[("e", &["a", "b"]), ("e", &["b", "c"]), ("e", &["c", "d"])],
        );
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert_eq!(
            names(&out, "tc"),
            ["a,b", "a,c", "a,d", "b,c", "b,d", "c,d"]
        );
    }

    #[test]
    fn stratified_negation() {
        let (p, db) = setup(
            "unreach(X) :- node(X), not reach(X).
             reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).",
            &[
                ("node", &["a"]),
                ("node", &["b"]),
                ("node", &["c"]),
                ("start", &["a"]),
                ("e", &["a", "b"]),
            ],
        );
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert_eq!(names(&out, "reach"), ["a", "b"]);
        assert_eq!(names(&out, "unreach"), ["c"]);
    }

    #[test]
    fn facts_in_program() {
        let (p, db) = setup("p(a). q(X) :- p(X).", &[]);
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert_eq!(names(&out, "q"), ["a"]);
    }

    #[test]
    fn id_literal_selects_one_per_group() {
        // all_depts via emp[2](N, D, 0): one employee per department.
        let (p, db) = setup(
            "one_per_dept(N, D) :- emp[2](N, D, 0).",
            &[
                ("emp", &["ann", "sales"]),
                ("emp", &["bob", "sales"]),
                ("emp", &["cay", "dev"]),
            ],
        );
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        // Canonical order: ann before bob in sales.
        assert_eq!(names(&out, "one_per_dept"), ["ann,sales", "cay,dev"]);
        assert_eq!(out.stats().id_relations, 1);
    }

    #[test]
    fn explicit_oracle_changes_the_answer() {
        let (p, db) = setup(
            "one_per_dept(N, D) :- emp[2](N, D, 0).",
            &[
                ("emp", &["ann", "sales"]),
                ("emp", &["bob", "sales"]),
                ("emp", &["cay", "dev"]),
            ],
        );
        let mut oracle = ExplicitOracle::new();
        // Group "dev" = [cay], group "sales" = [ann, bob] (canonical key
        // order: dev < sales). Swap sales so bob gets tid 0.
        oracle.set("emp", vec![1], vec![vec![0], vec![1, 0]]);
        let out = run(&p, &db, &mut oracle).unwrap();
        assert_eq!(names(&out, "one_per_dept"), ["bob,sales", "cay,dev"]);
    }

    #[test]
    fn arithmetic_chain() {
        let (p, mut db) = setup("double(N, M) :- num(N), plus(N, N, M).", &[]);
        db.insert("num", Tuple::new(vec![int(3)])).unwrap();
        db.insert("num", Tuple::new(vec![int(5)])).unwrap();
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert_eq!(names(&out, "double"), ["3,6", "5,10"]);
    }

    #[test]
    fn missing_input_relation_is_empty() {
        let (p, db) = setup("p(X) :- q(X).", &[]);
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert!(names(&out, "p").is_empty());
    }

    #[test]
    fn arity_mismatch_in_db_is_input_error() {
        let (p, mut db) = setup("p(X) :- q(X).", &[]);
        db.insert_syms("q", &["a", "b"]).unwrap();
        assert!(matches!(
            run(&p, &db, &mut CanonicalOracle),
            Err(CoreError::Input { .. })
        ));
    }

    #[test]
    fn sort_mismatch_in_db_is_input_error() {
        let (p, mut db) = setup("r(N) :- q(N), succ(N, M).", &[]);
        db.insert_syms("q", &["a"]).unwrap();
        assert!(matches!(
            run(&p, &db, &mut CanonicalOracle),
            Err(CoreError::Input { .. })
        ));
    }

    #[test]
    fn different_interner_is_rejected() {
        let interner = Arc::new(Interner::new());
        let program = ValidatedProgram::parse("p(X) :- q(X).", interner).unwrap();
        let db = Database::new();
        assert!(matches!(
            run(&program, &db, &mut CanonicalOracle),
            Err(CoreError::Input { .. })
        ));
    }

    #[test]
    fn idb_facts_in_the_database_are_rejected() {
        let (p, mut db) = setup("p(X) :- q(X).", &[("q", &["a"])]);
        db.insert_syms("p", &["stray"]).unwrap();
        assert!(matches!(
            run(&p, &db, &mut CanonicalOracle),
            Err(CoreError::Input { .. })
        ));
    }

    #[test]
    fn paper_example2_with_canonical_oracle() {
        // sex_guess has two tuples per person (male/female guesses), grouped
        // by person. The canonical oracle gives female tid 0, male tid 1
        // (female < male), so man(X) :- sex_guess[1](X, male, 1) holds for
        // everyone and woman(X) for no one.
        let (p, db) = setup(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             man(X) :- sex_guess[1](X, male, 1).
             woman(X) :- sex_guess[1](X, female, 1).",
            &[("person", &["a"]), ("person", &["b"])],
        );
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert_eq!(names(&out, "man"), ["a", "b"]);
        assert!(names(&out, "woman").is_empty());
    }

    #[test]
    fn profiling_records_strata_rules_and_id_relations() {
        let (p, db) = setup(
            "reach(X) :- start(X).
             reach(Y) :- reach(X), e(X, Y).
             pick(X) :- reach[](X, 0).",
            &[("start", &["a"]), ("e", &["a", "b"]), ("e", &["b", "c"])],
        );
        let plain = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert!(plain.profile().is_none(), "profiling must be opt-in");

        let out = evaluate_governed(
            &p,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::new().profile(true),
            None,
        )
        .unwrap();
        let profile = out.profile().expect("profile requested");
        assert_eq!(profile.totals, out.stats(), "totals mirror EvalStats");
        assert_eq!(out.stats(), plain.stats(), "profiling changes no counters");
        assert!(
            plain
                .relation("pick")
                .unwrap()
                .set_eq(out.relation("pick").unwrap()),
            "profiling changes no relations"
        );
        assert_eq!(profile.rules.len(), 3, "clause text captured");
        // reach[] materialized in the pick stratum: 3 tuples, 1 group.
        let idr: Vec<_> = profile
            .strata
            .iter()
            .flat_map(|s| s.id_relations.iter())
            .collect();
        assert_eq!(idr.len(), 1);
        assert_eq!(idr[0].display_name(), "reach[]");
        assert_eq!(idr[0].tuples, 3);
        assert_eq!(idr[0].groups, 1);
        // Per-rule counters sum to the totals on every attributed field.
        let per_rule = profile.per_rule_totals();
        let summed = per_rule.iter().fold(EvalStats::default(), |mut acc, t| {
            acc += t.stats;
            acc
        });
        assert_eq!(summed.instantiations, profile.totals.instantiations);
        assert_eq!(summed.derived, profile.totals.derived);
        assert_eq!(summed.inserted, profile.totals.inserted);
        assert_eq!(summed.probes, profile.totals.probes);
        assert_eq!(summed.builtin_evals, profile.totals.builtin_evals);
        // Rounds across strata equal the iterations counter.
        let rounds: u64 = profile.strata.iter().map(|s| s.rounds.len() as u64).sum();
        assert_eq!(rounds, profile.totals.iterations);
    }

    #[test]
    fn negated_id_literal() {
        // Everyone who is NOT the tid-0 employee of their department.
        let (p, db) = setup(
            "rest(N, D) :- emp(N, D), not emp[2](N, D, 0).",
            &[
                ("emp", &["ann", "sales"]),
                ("emp", &["bob", "sales"]),
                ("emp", &["cay", "dev"]),
            ],
        );
        let out = run(&p, &db, &mut CanonicalOracle).unwrap();
        assert_eq!(names(&out, "rest"), ["bob,sales"]);
    }
}
