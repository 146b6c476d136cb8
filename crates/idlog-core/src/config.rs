//! Evaluation options: the single knob surface of the session API
//! ([`crate::query::Session`]), which evaluates one model or enumerates
//! them all, and of the whole-model evaluation it runs
//! ([`crate::eval::evaluate_governed`]).
//!
//! Determinism contract: neither the thread count nor profiling changes
//! what is computed. Round work lists are built in a fixed (plan, step,
//! shard) order, every worker derives into a local sink, and sinks are
//! merged at the round barrier in work-item order — so answer relations,
//! [`crate::EvalStats`], and [`crate::Profile`] (wall time excepted) are
//! identical for any `threads` value.

use std::num::NonZeroUsize;

use idlog_storage::BackendKind;

use crate::enumerate::EnumBudget;
use crate::eval::Strategy;
use crate::govern::Limits;

/// Environment variable consulted when [`EvalOptions::threads`] is `0`
/// (auto). CI uses it to run the whole test suite under a fixed thread
/// count.
pub const THREADS_ENV_VAR: &str = "IDLOG_THREADS";

/// Builder-style options for one evaluation or enumeration.
///
/// ```
/// use idlog_core::{EvalOptions, Strategy};
///
/// let opts = EvalOptions::new()
///     .strategy(Strategy::SemiNaive)
///     .threads(4)
///     .profile(true);
/// assert_eq!(opts.effective_threads(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Evaluation [`Strategy`].
    pub strategy: Strategy,
    /// Worker threads for fixpoint rounds and enumeration fan-out.
    ///
    /// `0` means *auto*: the `IDLOG_THREADS` environment variable when set
    /// to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Collect a per-rule [`crate::Profile`] alongside the statistics.
    /// Near-zero cost when off; deterministic (wall time excepted) when on.
    pub profile: bool,
    /// Bounds for all-answers enumeration (ignored by single-model
    /// evaluation).
    pub budget: EnumBudget,
    /// Skip ID-function enumeration when the taint analysis certifies the
    /// query deterministic ([`crate::Query::certified_deterministic`]): one
    /// canonical evaluation then yields the complete answer set. On by
    /// default; turn off to force the full enumeration (benchmark
    /// baselines, soundness tests).
    pub det_fastpath: bool,
    /// Resource ceilings enforced by the [`crate::Governor`] (deadline,
    /// rounds, tuples, bytes). Unlimited by default.
    pub limits: Limits,
    /// Storage backend for the relations the evaluation materializes
    /// (IDB relations and ID-relations). Inputs are read from the database
    /// in place when it stores them on this backend, and from a converted
    /// copy otherwise.
    /// Results and statistics are identical across backends; wall time and
    /// memory layout are not.
    pub backend: BackendKind,
}

impl EvalOptions {
    /// Default options: semi-naive, auto threads, profiling off, default
    /// enumeration budget.
    pub fn new() -> Self {
        EvalOptions {
            strategy: Strategy::SemiNaive,
            threads: 0,
            profile: false,
            budget: EnumBudget::default(),
            det_fastpath: true,
            limits: Limits::none(),
            backend: BackendKind::Hash,
        }
    }

    /// Single-threaded evaluation (exactly the pre-parallel behavior).
    pub fn serial() -> Self {
        EvalOptions::new().threads(1)
    }

    /// Set the evaluation [`Strategy`].
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the worker-thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggle per-rule profiling.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Set the enumeration budget.
    pub fn budget(mut self, budget: EnumBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Toggle the certified-deterministic enumeration fast path.
    pub fn det_fastpath(mut self, det_fastpath: bool) -> Self {
        self.det_fastpath = det_fastpath;
        self
    }

    /// Set the storage [`BackendKind`] for materialized relations.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Replace every resource ceiling at once: set the ones wanted and
    /// leave the rest to [`Limits::none`], as in
    /// `Limits { max_rounds: Some(9), ..Limits::none() }`.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Resolve the configured thread count to a concrete positive number.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions::new()
    }
}

fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_threads_win() {
        assert_eq!(EvalOptions::serial().effective_threads(), 1);
        assert_eq!(EvalOptions::new().threads(6).effective_threads(), 6);
    }

    #[test]
    fn auto_is_positive() {
        // Whatever the host/env says, the resolved count is usable.
        assert!(EvalOptions::default().effective_threads() >= 1);
    }

    #[test]
    fn builder_sets_every_field() {
        let limits = Limits {
            deadline: Some(Duration::from_millis(250)),
            max_rounds: Some(9),
            max_tuples: Some(1_000),
            max_bytes: Some(1 << 20),
        };
        let opts = EvalOptions::new()
            .strategy(Strategy::Magic)
            .threads(3)
            .profile(true)
            .budget(EnumBudget {
                max_models: 7,
                max_answers: 5,
            })
            .det_fastpath(false)
            .backend(BackendKind::Columnar)
            .limits(limits);
        assert_eq!(opts.strategy, Strategy::Magic);
        assert_eq!(opts.threads, 3);
        assert!(opts.profile);
        assert_eq!(opts.budget.max_models, 7);
        assert_eq!(opts.budget.max_answers, 5);
        assert!(!opts.det_fastpath);
        assert_eq!(opts.backend, BackendKind::Columnar);
        assert_eq!(EvalOptions::new().backend, BackendKind::Hash);
        assert_eq!(opts.limits, limits);
        assert!(EvalOptions::new().det_fastpath);
        assert!(EvalOptions::new().limits.is_unlimited());
    }

    #[test]
    fn limits_builder_replaces_all_ceilings() {
        let limits = Limits {
            max_rounds: Some(4),
            ..Limits::none()
        };
        let tuples_only = Limits {
            max_tuples: Some(5),
            ..Limits::none()
        };
        // A ceiling left unset by the second call is lifted again.
        let opts = EvalOptions::new().limits(tuples_only).limits(limits);
        assert_eq!(opts.limits, limits);
    }
}
