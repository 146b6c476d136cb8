//! The user-facing query API.
//!
//! A [`Query`] couples a validated program with one output predicate. It
//! evaluates the program portion related to the output (the paper's `P/q`),
//! so unrelated clauses neither cost work nor contribute non-determinism.
//! Evaluation runs through a [`Session`]: borrow the query and database,
//! set [`EvalOptions`] with builder calls, then `run()` (one model) or
//! `all_answers()` (every model).
//!
//! ```
//! use idlog_core::Query;
//!
//! let query = Query::parse(
//!     "select_emp(N) :- emp[2](N, D, 0).", // one employee per department
//!     "select_emp",
//! ).unwrap();
//! let mut db = query.new_database();
//! db.insert_syms("emp", &["ann", "sales"]).unwrap();
//! db.insert_syms("emp", &["bob", "sales"]).unwrap();
//!
//! // One non-deterministic answer, resolved canonically:
//! let result = query.session(&db).run().unwrap();
//! assert_eq!(result.relation.len(), 1);
//!
//! // The full answer set: either ann or bob.
//! let all = query.session(&db).all_answers().unwrap();
//! assert_eq!(all.len(), 2);
//! ```

use std::sync::Arc;

use idlog_common::{Interner, SymbolId};
use idlog_storage::{Database, Relation};

use crate::config::EvalOptions;
use crate::enumerate::{enumerate_governed, AnswerSet, EnumBudget};
use crate::error::{CoreError, CoreResult};
use crate::eval::{evaluate_governed, Strategy};
use crate::govern::{CancelToken, EvalError, Limits};
use crate::profile::Profile;
use crate::program::ValidatedProgram;
use crate::stats::EvalStats;
use crate::tid::{CanonicalOracle, TidOracle};

/// A program with a designated output predicate.
#[derive(Debug, Clone)]
pub struct Query {
    /// The full validated program.
    program: ValidatedProgram,
    /// The portion related to `output` (the paper's `P/q`) — what actually
    /// gets evaluated. It holds its own taint analysis and termination
    /// certificate, which the sessions read.
    related: ValidatedProgram,
    output: String,
    output_id: SymbolId,
    /// The goal-directed relevance analysis ([`crate::relevance`]) over
    /// `related`, rooted at the output predicate, with the validated
    /// magic-sets rewrite that [`Strategy::Magic`] sessions evaluate
    /// instead of `related`. Computed once at construction.
    relevance: crate::relevance::RelevanceAnalysis,
}

/// The outcome of one [`Session::run`]: the output relation, the
/// evaluation statistics, and (when requested via
/// [`EvalOptions::profile`]) the per-rule [`Profile`].
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The output predicate's relation in the computed model.
    pub relation: Relation,
    /// Counters accumulated across the whole evaluation.
    pub stats: EvalStats,
    /// The per-rule profile, present iff profiling was enabled.
    pub profile: Option<Profile>,
}

/// One evaluation or enumeration of a [`Query`] over a [`Database`],
/// configured by [`EvalOptions`].
///
/// Built by [`Query::session`]; consumed by [`Session::run`],
/// [`Session::run_with`], or [`Session::all_answers`].
#[derive(Debug, Clone)]
pub struct Session<'q, 'd> {
    query: &'q Query,
    db: &'d Database,
    options: EvalOptions,
    cancel: Option<CancelToken>,
}

impl<'q, 'd> Session<'q, 'd> {
    /// Replace the whole option set.
    pub fn options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Set the worker-thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options = self.options.threads(threads);
        self
    }

    /// Toggle per-rule profiling for [`Session::run`]/[`Session::run_with`].
    pub fn profile(mut self, profile: bool) -> Self {
        self.options = self.options.profile(profile);
        self
    }

    /// Set the fixpoint [`Strategy`].
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.options = self.options.strategy(strategy);
        self
    }

    /// Set the storage backend for materialized relations (see
    /// [`EvalOptions::backend`]).
    pub fn backend(mut self, backend: idlog_storage::BackendKind) -> Self {
        self.options = self.options.backend(backend);
        self
    }

    /// Set the enumeration budget for [`Session::all_answers`].
    pub fn budget(mut self, budget: EnumBudget) -> Self {
        self.options = self.options.budget(budget);
        self
    }

    /// Replace every resource ceiling at once (see
    /// [`EvalOptions::limits`]).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.options = self.options.limits(limits);
        self
    }

    /// Attach a cancellation token: any clone of it can stop this session's
    /// evaluation or enumeration promptly (e.g. from a Ctrl-C handler).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// One answer of the (possibly non-deterministic) query, resolved by
    /// the canonical oracle (tids in first-derivation order).
    pub fn run(self) -> CoreResult<EvalResult> {
        self.run_with(&mut CanonicalOracle)
    }

    /// One answer, with non-determinism resolved by `oracle`.
    pub fn run_with(self, oracle: &mut dyn TidOracle) -> CoreResult<EvalResult> {
        self.try_run_with(oracle).map_err(EvalError::into_core)
    }

    /// Like [`Session::run`], but limit trips and cancellations return the
    /// structured [`EvalError`], which carries the partial output computed
    /// up to the last completed round barrier.
    pub fn try_run(self) -> Result<EvalResult, EvalError> {
        self.try_run_with(&mut CanonicalOracle)
    }

    /// Like [`Session::run_with`], with the structured [`EvalError`].
    pub fn try_run_with(self, oracle: &mut dyn TidOracle) -> Result<EvalResult, EvalError> {
        self.query
            .eval_inner(self.db, oracle, &self.options, self.cancel.as_ref())
    }

    /// Every answer of the query, bounded by the options' budget.
    ///
    /// When the query is [certified deterministic](Query::certified_deterministic)
    /// and [`EvalOptions::det_fastpath`] is on (the default), the answer
    /// set is computed by a single canonical evaluation — no ID-function
    /// enumeration, always complete, `models_explored() == 1`.
    /// Otherwise the walk backtracks over every ID-function of `P/q`, each
    /// branch under the certified round ceiling.
    /// Limit trips and cancellations are reported through
    /// [`AnswerSet::stopped`], not as errors: the walk is bounded by design,
    /// so a stop truncates the set the same way the model budget does.
    ///
    /// ```
    /// use idlog_core::Query;
    ///
    /// // Example 2 of the paper: guessing everyone's sex.
    /// let q = Query::parse(
    ///     "sex_guess(X, male) :- person(X).
    ///      sex_guess(X, female) :- person(X).
    ///      man(X) :- sex_guess[1](X, male, 1).",
    ///     "man",
    /// ).unwrap();
    /// let mut db = q.new_database();
    /// db.insert_syms("person", &["a"]).unwrap();
    /// db.insert_syms("person", &["b"]).unwrap();
    ///
    /// let answers = q.session(&db).all_answers().unwrap();
    /// assert_eq!(answers.len(), 4); // ∅, {a}, {b}, {a, b}
    /// assert!(answers.complete());
    /// ```
    pub fn all_answers(self) -> CoreResult<AnswerSet> {
        let query = self.query;
        if let Some(rel) = query.edb_relation(self.db) {
            return Ok(AnswerSet::collect([rel], true, 1, query.interner()));
        }
        if self.options.det_fastpath && query.certified_deterministic() {
            // A stop mid-evaluation yields no complete perfect model, so the
            // partial relation is *not* an answer — report an empty,
            // stopped set instead.
            return match query.eval_inner(
                self.db,
                &mut CanonicalOracle,
                &self.options,
                self.cancel.as_ref(),
            ) {
                Ok(result) => Ok(AnswerSet::collect(
                    [result.relation],
                    true,
                    1,
                    query.program.interner(),
                )),
                Err(e @ (EvalError::Limit { .. } | EvalError::Cancelled { .. })) => {
                    let stop = match e.into_core() {
                        CoreError::LimitExceeded { limit } => {
                            crate::govern::StopReason::Limit(limit)
                        }
                        _ => crate::govern::StopReason::Cancelled,
                    };
                    Ok(AnswerSet::collect_stopped(
                        [],
                        Some(stop),
                        0,
                        query.program.interner(),
                    ))
                }
                Err(e) => Err(e.into_core()),
            };
        }
        // The enumeration walk ignores the fixpoint strategy, so an
        // uncertified magic request must refuse here too (with the same
        // witness) instead of silently evaluating the full program.
        if self.options.strategy == Strategy::Magic && query.magic_plan().is_none() {
            return Err(query.magic_refusal_error());
        }
        let limits = query.related.certified_limits(self.db, self.options.limits);
        let options = self.options.limits(limits);
        enumerate_governed(
            &query.related,
            self.db,
            query.output_id,
            &options,
            self.cancel.as_ref(),
        )
    }
}

impl Query {
    /// Parse `src` into a fresh interner and designate `output`.
    pub fn parse(src: &str, output: &str) -> CoreResult<Query> {
        Self::parse_with_interner(src, output, Arc::new(Interner::new()))
    }

    /// Parse with an existing interner (to share symbols with other queries
    /// or databases).
    pub fn parse_with_interner(
        src: &str,
        output: &str,
        interner: Arc<Interner>,
    ) -> CoreResult<Query> {
        let program = ValidatedProgram::parse(src, interner)?;
        Self::new(program, output)
    }

    /// Wrap an already validated program.
    pub fn new(program: ValidatedProgram, output: &str) -> CoreResult<Query> {
        let output_id = program
            .interner()
            .get(output)
            .filter(|id| program.arity(*id).is_some());
        let Some(output_id) = output_id else {
            return Err(CoreError::Validation {
                clause: None,
                message: format!("output predicate {output} does not occur in the program"),
            });
        };
        let related = program.restrict_to(output_id)?;
        let relevance = if related.arity(output_id).is_some() {
            crate::relevance::analyze_relevance(&related, output_id)
        } else {
            // Output is an input predicate: the identity query.
            crate::relevance::RelevanceAnalysis::default()
        };
        Ok(Query {
            program,
            related,
            output: output.to_string(),
            output_id,
            relevance,
        })
    }

    /// True when the conservative ID-taint analysis certifies this query's
    /// answer identical under every ID-function (Theorem 3 makes the exact
    /// property undecidable, so `false` means *unknown*, not
    /// non-deterministic). Certified queries have a singleton answer set,
    /// and [`Session::all_answers`] computes it with one canonical
    /// evaluation instead of enumerating ID-functions (unless
    /// [`EvalOptions::det_fastpath`] is off).
    pub fn certified_deterministic(&self) -> bool {
        self.related.taint().deterministic(self.output_id)
    }

    /// The termination certificate for the related portion `P/q`. When it
    /// [certifies boundedness](crate::TerminationCert::bounded), every
    /// session automatically runs under the certified
    /// [round bound](crate::TerminationCert::round_bound) as a `max_rounds`
    /// ceiling (tightening, never loosening, caller-set limits).
    pub fn termination_cert(&self) -> &crate::termination::TerminationCert {
        self.related.termination()
    }

    /// The goal-directed relevance analysis over `P/q`, rooted at the
    /// output predicate (see [`crate::relevance`]). Certification means a
    /// [`Strategy::Magic`] session is semantics-preserving; a refusal
    /// carries the reason every magic session will report.
    pub fn relevance(&self) -> &crate::relevance::RelevanceAnalysis {
        &self.relevance
    }

    /// True when [`Strategy::Magic`] sessions will run the magic-sets
    /// rewrite instead of refusing.
    pub fn magic_certified(&self) -> bool {
        self.magic_plan().is_some()
    }

    /// The validated magic-sets rewrite of `P/q`, when certified.
    pub fn magic_plan(&self) -> Option<&ValidatedProgram> {
        self.relevance.magic()
    }

    /// The output predicate name.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The full program.
    pub fn program(&self) -> &ValidatedProgram {
        &self.program
    }

    /// The related portion `P/q` that evaluation actually runs.
    pub fn related_program(&self) -> &ValidatedProgram {
        &self.related
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        self.program.interner()
    }

    /// A fresh empty database sharing this query's interner.
    pub fn new_database(&self) -> Database {
        Database::with_interner(Arc::clone(self.program.interner()))
    }

    /// Start a [`Session`] over `db` with default [`EvalOptions`].
    pub fn session<'q, 'd>(&'q self, db: &'d Database) -> Session<'q, 'd> {
        Session {
            query: self,
            db,
            options: EvalOptions::default(),
            cancel: None,
        }
    }

    /// The shared implementation behind [`Session::try_run_with`].
    fn eval_inner(
        &self,
        db: &Database,
        oracle: &mut dyn TidOracle,
        options: &EvalOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<EvalResult, EvalError> {
        // An output with no defining clause is an input predicate: the
        // identity query over the stored relation.
        if let Some(relation) = self.edb_relation(db) {
            return Ok(EvalResult {
                relation,
                stats: EvalStats::default(),
                profile: options.profile.then(Profile::empty),
            });
        }
        if options.strategy == Strategy::Magic {
            return self.eval_magic(db, oracle, options, cancel);
        }
        let options = options.limits(self.related.certified_limits(db, options.limits));
        let mut out = evaluate_governed(&self.related, db, oracle, &options, cancel)?;
        let rel = out
            .take_relation(&self.output)
            .expect("output predicate exists in the related program");
        Ok(EvalResult {
            relation: rel,
            stats: out.stats(),
            profile: out.take_profile(),
        })
    }

    /// The [`Strategy::Magic`] evaluation path: run the certified rewrite,
    /// or refuse with the relevance witness. The root predicate keeps its
    /// original name in the rewrite, so output projection — including from
    /// the partial state a limit trip carries — works unchanged.
    fn eval_magic(
        &self,
        db: &Database,
        oracle: &mut dyn TidOracle,
        options: &EvalOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<EvalResult, EvalError> {
        let Some(magic) = self.magic_plan() else {
            return Err(EvalError::Core(self.magic_refusal_error()));
        };
        // The rewrite's round structure differs from `related`'s, so it
        // runs under its own certificate's bound.
        let options = options.limits(magic.certified_limits(db, options.limits));
        let mut out = evaluate_governed(magic, db, oracle, &options, cancel)?;
        let mut stats = out.stats();
        stats.tuples_pruned = crate::relevance::magic_tuples_pruned(magic, db, &out);
        let rel = out
            .take_relation(&self.output)
            .expect("the rewrite keeps the output predicate's name");
        let mut profile = out.take_profile();
        if let Some(p) = profile.as_mut() {
            p.totals.tuples_pruned = stats.tuples_pruned;
        }
        Ok(EvalResult {
            relation: rel,
            stats,
            profile,
        })
    }

    /// The [`CoreError`] explaining why `strategy=magic` is refused for
    /// this query: the relevance witness walk to a choice site, or the
    /// validator's error on the rewrite.
    pub(crate) fn magic_refusal_error(&self) -> CoreError {
        let message = match (self.relevance.refusal(), self.relevance.rewrite_error()) {
            (Some(r), _) => format!(
                "strategy=magic refused: the related region contains a choice site; \
                 witness: {}",
                r.render(self.program.interner())
            ),
            (None, Some(e)) => {
                format!("strategy=magic refused: the magic rewrite is not a valid program: {e}")
            }
            (None, None) => unreachable!("an identity query never reaches the magic path"),
        };
        CoreError::Validation {
            clause: None,
            message,
        }
    }

    /// The stored relation when the output is an input predicate (no
    /// defining clause): the identity query.
    fn edb_relation(&self, db: &Database) -> Option<Relation> {
        if self.related.arity(self.output_id).is_some() {
            return None;
        }
        let arity = self
            .program
            .arity(self.output_id)
            .expect("checked at new()");
        Some(
            db.relation_by_id(self.output_id)
                .cloned()
                .unwrap_or_else(|| Relation::elementary(arity)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tid::SeededOracle;

    #[test]
    fn eval_and_all_answers_agree() {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        let mut db = q.new_database();
        for (n, d) in [("a", "x"), ("b", "x"), ("c", "y")] {
            db.insert_syms("emp", &[n, d]).unwrap();
        }
        let all = q.session(&db).all_answers().unwrap();
        assert!(all.complete());
        // Every oracle-produced answer must be among the enumerated ones.
        for seed in 0..8 {
            let rel = q
                .session(&db)
                .run_with(&mut SeededOracle::new(seed))
                .unwrap()
                .relation;
            let tuples: Vec<_> = rel.iter().cloned().collect();
            assert!(
                all.contains_answer(&tuples),
                "seed {seed} answer not enumerated"
            );
        }
        let rel = q.session(&db).run().unwrap().relation;
        let tuples: Vec<_> = rel.iter().cloned().collect();
        assert!(all.contains_answer(&tuples));
    }

    #[test]
    fn certified_query_skips_enumeration() {
        // `D` ranges over the departments regardless of the ID-function.
        let q = Query::parse("all_depts(D) :- emp[2](N, D, 0).", "all_depts").unwrap();
        assert!(q.certified_deterministic());
        let mut db = q.new_database();
        for (n, d) in [("a", "x"), ("b", "x"), ("c", "y")] {
            db.insert_syms("emp", &[n, d]).unwrap();
        }
        let fast = q.session(&db).all_answers().unwrap();
        assert!(fast.complete());
        assert_eq!(fast.models_explored(), 1);
        assert_eq!(fast.len(), 1);
        // The full enumeration agrees (soundness spot check; the proptest
        // suite covers this at scale).
        let slow = q
            .session(&db)
            .options(EvalOptions::new().det_fastpath(false))
            .all_answers()
            .unwrap();
        assert!(slow.models_explored() > 1);
        assert!(fast.same_answers(&slow, q.interner()));
    }

    #[test]
    fn uncertified_query_still_enumerates() {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        assert!(!q.certified_deterministic());
        let mut db = q.new_database();
        db.insert_syms("emp", &["a", "x"]).unwrap();
        db.insert_syms("emp", &["b", "x"]).unwrap();
        let all = q.session(&db).all_answers().unwrap();
        assert_eq!(all.len(), 2, "fast path must not fire on tainted queries");
    }

    #[test]
    fn unknown_output_rejected_at_construction() {
        assert!(Query::parse("p(X) :- q(X).", "nope").is_err());
    }

    #[test]
    fn unrelated_clauses_do_not_affect_stats() {
        let q1 = Query::parse("out(X) :- base(X).", "out").unwrap();
        let q2 = Query::parse_with_interner(
            "out(X) :- base(X). junk(Y) :- other(Y), other2(Y).",
            "out",
            Arc::clone(q1.interner()),
        )
        .unwrap();
        let mut db = q1.new_database();
        db.insert_syms("base", &["a"]).unwrap();
        db.insert_syms("other", &["b"]).unwrap();
        db.insert_syms("other2", &["b"]).unwrap();
        let s1 = q1.session(&db).run().unwrap().stats;
        let s2 = q2.session(&db).run().unwrap().stats;
        assert_eq!(
            s1.instantiations, s2.instantiations,
            "junk clauses were evaluated"
        );
    }

    #[test]
    fn querying_an_input_predicate_is_the_identity() {
        let q = Query::parse("out(X) :- p(X).", "p").unwrap();
        let mut db = q.new_database();
        db.insert_syms("p", &["a"]).unwrap();
        db.insert_syms("p", &["b"]).unwrap();
        let result = q.session(&db).profile(true).run().unwrap();
        assert_eq!(result.relation.len(), 2);
        // The EDB identity path still honors the profile opt-in (empty).
        let profile = result.profile.expect("profile requested");
        assert!(profile.strata.is_empty());
        let all = q.session(&db).all_answers().unwrap();
        assert_eq!(all.len(), 1);
        assert!(all.complete());
        // With an empty database the answer is the empty relation.
        let empty_db = q.new_database();
        let rel = q.session(&empty_db).run().unwrap().relation;
        assert!(rel.is_empty());
    }

    #[test]
    fn session_profile_toggle_controls_presence() {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        let mut db = q.new_database();
        db.insert_syms("emp", &["a", "x"]).unwrap();
        let plain = q.session(&db).run().unwrap();
        assert!(plain.profile.is_none());
        let profiled = q.session(&db).profile(true).run().unwrap();
        let profile = profiled.profile.expect("profile requested");
        assert_eq!(profile.totals, profiled.stats);
        assert_eq!(plain.relation, profiled.relation);
        assert_eq!(plain.stats, profiled.stats);
    }

    #[test]
    fn try_run_surfaces_limit_with_partial_output() {
        let q = Query::parse("count(0). count(M) :- count(N), plus(N, 1, M).", "count").unwrap();
        let db = q.new_database();
        let err = q
            .session(&db)
            .limits(Limits {
                max_rounds: Some(5),
                ..Limits::none()
            })
            .try_run()
            .unwrap_err();
        match &err {
            EvalError::Limit { limit, partial } => {
                assert_eq!(*limit, crate::govern::LimitKind::Rounds);
                let rel = partial.relation("count").expect("partial carries output");
                assert!(!rel.is_empty(), "partial output should hold derived facts");
            }
            other => panic!("expected Limit, got {other:?}"),
        }
        // The legacy surface flattens the same failure.
        let core = q
            .session(&db)
            .limits(Limits {
                max_rounds: Some(5),
                ..Limits::none()
            })
            .run()
            .unwrap_err();
        assert_eq!(
            core,
            CoreError::LimitExceeded {
                limit: crate::govern::LimitKind::Rounds
            }
        );
    }

    #[test]
    fn certified_bound_becomes_automatic_round_ceiling() {
        let q = Query::parse("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).", "tc").unwrap();
        let cert = q.termination_cert();
        assert!(cert.bounded());
        let mut db = q.new_database();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.insert_syms("e", &[a, b]).unwrap();
        }
        let bound = cert.round_bound(&db).expect("certified");
        // The certified ceiling never trips an honest evaluation …
        let ok = q.session(&db).run().unwrap();
        assert!(ok.stats.iterations <= bound);
        // … and tightening keeps a stricter caller limit intact.
        let err = q
            .session(&db)
            .limits(Limits {
                max_rounds: Some(1),
                ..Limits::none()
            })
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::Limit {
                limit: crate::govern::LimitKind::Rounds,
                ..
            }
        ));
    }

    #[test]
    fn uncertified_query_keeps_no_automatic_ceiling() {
        let q = Query::parse("count(0). count(M) :- count(N), plus(N, 1, M).", "count").unwrap();
        assert!(!q.termination_cert().bounded());
        assert!(q.termination_cert().growth_witness().is_some());
        let db = q.new_database();
        assert!(q.termination_cert().round_bound(&db).is_none());
    }

    #[test]
    fn cancelled_session_reports_cancellation() {
        let q = Query::parse("out(X) :- base(X).", "out").unwrap();
        let mut db = q.new_database();
        db.insert_syms("base", &["a"]).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = q.session(&db).cancel_token(token.clone()).try_run();
        assert!(matches!(err, Err(EvalError::Cancelled { .. })));
        // Reset and the same session setup succeeds.
        token.reset();
        let ok = q.session(&db).cancel_token(token).try_run().unwrap();
        assert_eq!(ok.relation.len(), 1);
    }

    #[test]
    fn all_answers_reports_stop_reason() {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        let mut db = q.new_database();
        db.insert_syms("emp", &["a", "x"]).unwrap();
        db.insert_syms("emp", &["b", "x"]).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let all = q.session(&db).cancel_token(token).all_answers().unwrap();
        assert!(!all.complete());
        assert_eq!(all.stopped(), Some(crate::govern::StopReason::Cancelled));
    }

    #[test]
    fn det_fastpath_stop_yields_empty_stopped_set() {
        // Certified-deterministic query + cancelled token: the canonical
        // evaluation cannot finish, so no perfect model exists yet — the
        // answer set is empty and names the stop.
        let q = Query::parse("all_depts(D) :- emp[2](N, D, 0).", "all_depts").unwrap();
        assert!(q.certified_deterministic());
        let mut db = q.new_database();
        db.insert_syms("emp", &["a", "x"]).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let all = q.session(&db).cancel_token(token).all_answers().unwrap();
        assert!(all.is_empty());
        assert_eq!(all.stopped(), Some(crate::govern::StopReason::Cancelled));
    }

    const ANCESTOR: &str = "
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
        query(Y) :- ancestor(ann, Y).
    ";

    fn family_db(q: &Query) -> Database {
        let mut db = q.new_database();
        for (x, y) in [
            ("ann", "bob"),
            ("bob", "cal"),
            ("cal", "dee"),
            ("eve", "fay"),
            ("fay", "gus"),
            ("gus", "hal"),
        ] {
            db.insert_syms("parent", &[x, y]).unwrap();
        }
        db
    }

    #[test]
    fn magic_strategy_agrees_and_prunes() {
        let q = Query::parse(ANCESTOR, "query").unwrap();
        assert!(q.magic_certified());
        assert!(q.relevance().is_point_query());
        let db = family_db(&q);
        let direct = q.session(&db).run().unwrap();
        let magic = q.session(&db).strategy(Strategy::Magic).run().unwrap();
        assert!(direct.relation.set_eq(&magic.relation));
        assert_eq!(magic.relation.len(), 3);
        // Profit: the eve-branch is never derived, and the pruned counter
        // sees its parent tuples.
        assert!(magic.stats.inserted < direct.stats.inserted);
        assert!(magic.stats.tuples_pruned > 0);
        assert_eq!(direct.stats.tuples_pruned, 0);
        // The counter is part of the deterministic stats contract.
        let again = q
            .session(&db)
            .strategy(Strategy::Magic)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(again.stats, magic.stats);
    }

    #[test]
    fn magic_strategy_refused_with_witness() {
        let q = Query::parse("picked(X) :- pool[](X, 0). q(X) :- picked(X).", "q").unwrap();
        assert!(!q.magic_certified());
        let db = q.new_database();
        let err = q.session(&db).strategy(Strategy::Magic).run().unwrap_err();
        match err {
            CoreError::Validation { message, .. } => {
                assert!(message.contains("choice site"), "{message}");
                assert!(message.contains("witness"), "{message}");
            }
            other => panic!("expected Validation refusal, got {other:?}"),
        }
    }

    #[test]
    fn magic_strategy_refused_when_the_rewrite_does_not_stratify() {
        // Choice-free, but the magic rule for `t__bf` reads `h__bf`, which
        // reads `not r`, which reads `t__bf`.
        let q = Query::parse(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), e(Z, Y). r(X) :- t(a, X).
             h(X, Y) :- e(X, Y), not r(Y). h(X, Y) :- h(X, Z), t(Z, Y).
             q(Y) :- h(c, Y).",
            "q",
        )
        .unwrap();
        assert!(!q.magic_certified());
        assert!(q.relevance().refusal().is_none(), "no choice site");
        assert!(!q.relevance().is_point_query());
        let db = q.new_database();
        let cycle = "program is not stratifiable: cycle r -> h__bf -> magic_t__bf -> t__bf -> r";
        for err in [
            q.session(&db).strategy(Strategy::Magic).run().unwrap_err(),
            q.session(&db)
                .options(
                    EvalOptions::new()
                        .strategy(Strategy::Magic)
                        .det_fastpath(false),
                )
                .all_answers()
                .unwrap_err(),
        ] {
            let message = err.to_string();
            assert!(message.contains(cycle), "{message}");
        }
    }

    #[test]
    fn magic_limit_trip_carries_partial_output() {
        let q = Query::parse(ANCESTOR, "query").unwrap();
        let db = family_db(&q);
        let err = q
            .session(&db)
            .strategy(Strategy::Magic)
            .limits(Limits {
                max_rounds: Some(1),
                ..Limits::none()
            })
            .try_run()
            .unwrap_err();
        match &err {
            EvalError::Limit { limit, partial } => {
                assert_eq!(*limit, crate::govern::LimitKind::Rounds);
                // The rewrite keeps the root name, so partial projection
                // works exactly like the direct strategy's.
                assert!(partial.relation("query").is_some());
            }
            other => panic!("expected Limit, got {other:?}"),
        }
    }

    #[test]
    fn doc_example_runs() {
        let query = Query::parse("select_emp(N) :- emp[2](N, D, 0).", "select_emp").unwrap();
        let mut db = query.new_database();
        db.insert_syms("emp", &["ann", "sales"]).unwrap();
        db.insert_syms("emp", &["bob", "sales"]).unwrap();
        let result = query.session(&db).run().unwrap();
        assert_eq!(result.relation.len(), 1);
        let all = query.session(&db).all_answers().unwrap();
        assert_eq!(all.len(), 2);
    }
}
