//! Resource governance: limits, cancellation, and structured failure.
//!
//! Theorem 3 of the paper makes non-termination of IDLOG programs
//! *undecidable*, so a runaway query is a permanent fact of life — the only
//! principled defense is a runtime governor. This module provides the
//! cooperative pieces:
//!
//! - [`Limits`]: caller-imposed ceilings (wall-clock deadline, fixpoint
//!   rounds, derived tuples, estimated bytes), set all at once with
//!   [`EvalOptions::limits`](crate::EvalOptions::limits).
//! - [`CancelToken`]: a cloneable flag for Ctrl-C / embedder shutdown,
//!   attached with [`Session::cancel_token`](crate::Session::cancel_token).
//! - [`Governor`]: the shared checker every evaluation thread consults.
//! - [`EvalError`]: the structured failure returned by
//!   [`Session::try_run`](crate::Session::try_run) and
//!   [`evaluate_governed`](crate::evaluate_governed), carrying the partial
//!   output (relations + [`EvalStats`]) accumulated up to the last completed
//!   round barrier. [`Session::all_answers`](crate::Session::all_answers)
//!   reports the same stops through
//!   [`AnswerSet::stopped`](crate::AnswerSet::stopped) instead.
//!
//! # Determinism
//!
//! The engine promises byte-identical results at any thread count, and the
//! governor must not break that promise. Deterministic limits (`max_rounds`,
//! `max_tuples`, `max_bytes`) are therefore checked **only at round
//! barriers**, where the merged state and stats are identical across thread
//! counts — so *whether* a limit trips, *which* limit trips, and the partial
//! output it carries are all thread-count independent. Timing-dependent
//! stops (deadline, cancellation) are additionally polled between work items
//! for promptness; when one trips mid-round the whole round is discarded, so
//! the partial output is still a barrier-consistent prefix of the fixpoint.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{CoreError, CoreResult};
use crate::eval::EvalOutput;
use crate::stats::EvalStats;

/// Which resource ceiling tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// The wall-clock deadline ([`Limits::deadline`]).
    Deadline,
    /// The fixpoint-round ceiling ([`Limits::max_rounds`]).
    Rounds,
    /// The derived-tuple ceiling ([`Limits::max_tuples`]).
    Tuples,
    /// The estimated-memory ceiling ([`Limits::max_bytes`]).
    Bytes,
    /// The enumeration model budget ([`EnumBudget::max_models`](crate::EnumBudget)).
    Models,
    /// The enumeration answer budget ([`EnumBudget::max_answers`](crate::EnumBudget)).
    Answers,
}

impl LimitKind {
    /// Stable kebab-case name, matching the CLI flag that sets the limit.
    pub fn as_str(self) -> &'static str {
        match self {
            LimitKind::Deadline => "timeout",
            LimitKind::Rounds => "max-rounds",
            LimitKind::Tuples => "max-tuples",
            LimitKind::Bytes => "max-bytes",
            LimitKind::Models => "max-models",
            LimitKind::Answers => "max-answers",
        }
    }
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a bounded walk or evaluation stopped before reaching its natural end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A resource ceiling tripped.
    Limit(LimitKind),
    /// The cancellation token fired.
    Cancelled,
}

impl StopReason {
    /// The stable [`ErrorCode`](crate::ErrorCode) for this stop.
    pub fn code(&self) -> crate::ErrorCode {
        match self {
            StopReason::Limit(k) => crate::ErrorCode::Limit(*k),
            StopReason::Cancelled => crate::ErrorCode::Cancelled,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Limit(k) => write!(f, "{k} budget hit"),
            StopReason::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// Caller-imposed resource ceilings. `Copy` so it rides inside
/// [`EvalOptions`](crate::EvalOptions); all fields default to unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Wall-clock budget for the whole evaluation, measured from the moment
    /// the governor is built. Polled between work items, so trips are prompt
    /// but (unlike the ceilings below) the exact stopping round may vary
    /// run to run.
    pub deadline: Option<Duration>,
    /// Maximum semi-naive rounds (`EvalStats::iterations`), cumulative
    /// across strata. Checked at round barriers; deterministic.
    pub max_rounds: Option<u64>,
    /// Maximum newly derived tuples (`EvalStats::inserted`). Checked at
    /// round barriers; deterministic.
    pub max_tuples: Option<u64>,
    /// Maximum estimated bytes of stored tuples. Checked at round barriers;
    /// deterministic (the estimate is a pure function of relation sizes).
    pub max_bytes: Option<u64>,
}

impl Limits {
    /// No limits — the default.
    pub fn none() -> Self {
        Limits::default()
    }

    /// True when every ceiling is unset.
    pub fn is_unlimited(&self) -> bool {
        *self == Limits::default()
    }

    /// Tighten the round ceiling to at most `bound`, keeping an existing
    /// smaller one. Used to install a statically certified depth bound
    /// ([`crate::TerminationCert::round_bound`]) without loosening limits
    /// the caller already set.
    pub fn tighten_rounds(mut self, bound: u64) -> Limits {
        self.max_rounds = Some(self.max_rounds.map_or(bound, |m| m.min(bound)));
        self
    }
}

/// A cloneable cancellation flag. Cloning shares the flag; any clone can
/// cancel, and every governor polling it observes the cancellation at its
/// next check. `cancel` is a single atomic store, so it is safe to call
/// from a signal handler.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (async-signal-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Re-arm the token (e.g. between REPL queries after a Ctrl-C).
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// The shared resource governor. Built once per evaluation from
/// [`Limits`] (+ an optional [`CancelToken`]) and consulted by every
/// worker thread: [`Governor::poll`] between work items,
/// [`Governor::check_barrier`] at round barriers.
#[derive(Debug, Clone)]
pub struct Governor {
    deadline: Option<Instant>,
    max_rounds: Option<u64>,
    max_tuples: Option<u64>,
    max_bytes: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Governor {
    /// Build a governor; the deadline clock starts now.
    pub fn new(limits: Limits, cancel: Option<CancelToken>) -> Self {
        Governor {
            deadline: limits.deadline.map(|d| Instant::now() + d),
            max_rounds: limits.max_rounds,
            max_tuples: limits.max_tuples,
            max_bytes: limits.max_bytes,
            cancel,
        }
    }

    /// A governor that never trips.
    pub fn unlimited() -> Self {
        Governor::new(Limits::none(), None)
    }

    /// Cheap timing-dependent check (cancellation, deadline), called between
    /// work items. A trip mid-round makes the engine discard the whole
    /// round, keeping the surviving state barrier-consistent.
    pub fn poll(&self) -> CoreResult<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(CoreError::LimitExceeded {
                    limit: LimitKind::Deadline,
                });
            }
        }
        Ok(())
    }

    /// Full check at a deterministic round barrier, where `stats` and the
    /// stored relations are identical across thread counts. `bytes` is
    /// consulted lazily, only when a byte ceiling is set.
    ///
    /// Call this only when the fixpoint still has work to do: an evaluation
    /// that *completes* within its final round is a success even if that
    /// round grazed a ceiling.
    pub fn check_barrier(&self, stats: &EvalStats, bytes: impl FnOnce() -> u64) -> CoreResult<()> {
        self.poll()?;
        if let Some(max) = self.max_rounds {
            if stats.iterations >= max {
                return Err(CoreError::LimitExceeded {
                    limit: LimitKind::Rounds,
                });
            }
        }
        if let Some(max) = self.max_tuples {
            if stats.inserted > max {
                return Err(CoreError::LimitExceeded {
                    limit: LimitKind::Tuples,
                });
            }
        }
        if let Some(max) = self.max_bytes {
            if bytes() > max {
                return Err(CoreError::LimitExceeded {
                    limit: LimitKind::Bytes,
                });
            }
        }
        Ok(())
    }
}

/// Structured evaluation failure, as returned by
/// [`evaluate_governed`](crate::evaluate_governed) and
/// [`Session::try_run`](crate::Session::try_run). Limit trips and
/// cancellations carry the **partial output** — the relations, stats, and
/// profile accumulated up to the last completed round barrier — so a
/// governed caller can show what was derived before the stop.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// A resource ceiling tripped.
    Limit {
        /// Which ceiling.
        limit: LimitKind,
        /// Output as of the last completed round barrier.
        partial: Box<EvalOutput>,
    },
    /// The cancellation token fired.
    Cancelled {
        /// Output as of the last completed round barrier.
        partial: Box<EvalOutput>,
    },
    /// Any other evaluation failure (parse-independent runtime errors,
    /// contained panics, builtin overflow, …). Carries no partial output.
    Core(CoreError),
}

impl EvalError {
    /// Flatten to the payload-light [`CoreError`], dropping any partial
    /// output. This is how the legacy `CoreResult` entry points are derived
    /// from the governed one.
    pub fn into_core(self) -> CoreError {
        match self {
            EvalError::Limit { limit, .. } => CoreError::LimitExceeded { limit },
            EvalError::Cancelled { .. } => CoreError::Cancelled,
            EvalError::Core(e) => e,
        }
    }

    /// The partial output, when this error carries one.
    pub fn partial_output(&self) -> Option<&EvalOutput> {
        match self {
            EvalError::Limit { partial, .. } | EvalError::Cancelled { partial } => Some(partial),
            EvalError::Core(_) => None,
        }
    }

    /// The stable [`ErrorCode`](crate::ErrorCode) for this error — the same
    /// code [`EvalError::into_core`] would yield, without consuming the
    /// partial output.
    pub fn code(&self) -> crate::ErrorCode {
        match self {
            EvalError::Limit { limit, .. } => crate::ErrorCode::Limit(*limit),
            EvalError::Cancelled { .. } => crate::ErrorCode::Cancelled,
            EvalError::Core(e) => e.code(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Limit { limit, .. } => write!(f, "limit exceeded: {limit}"),
            EvalError::Cancelled { .. } => f.write_str("evaluation cancelled"),
            EvalError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EvalError {
    fn from(e: CoreError) -> Self {
        EvalError::Core(e)
    }
}

/// Render a `catch_unwind` payload as the panic message it carried.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let g = Governor::unlimited();
        assert!(g.poll().is_ok());
        let stats = EvalStats {
            iterations: u64::MAX,
            inserted: u64::MAX,
            ..Default::default()
        };
        assert!(g.check_barrier(&stats, || u64::MAX).is_ok());
    }

    #[test]
    fn round_and_tuple_ceilings_trip_at_barriers() {
        let g = Governor::new(
            Limits {
                max_rounds: Some(3),
                max_tuples: Some(10),
                ..Limits::none()
            },
            None,
        );
        let ok = EvalStats {
            iterations: 2,
            inserted: 10,
            ..Default::default()
        };
        assert!(g.check_barrier(&ok, || 0).is_ok());
        let rounds = EvalStats {
            iterations: 3,
            ..Default::default()
        };
        assert_eq!(
            g.check_barrier(&rounds, || 0),
            Err(CoreError::LimitExceeded {
                limit: LimitKind::Rounds
            })
        );
        let tuples = EvalStats {
            inserted: 11,
            ..Default::default()
        };
        assert_eq!(
            g.check_barrier(&tuples, || 0),
            Err(CoreError::LimitExceeded {
                limit: LimitKind::Tuples
            })
        );
    }

    #[test]
    fn byte_ceiling_consults_estimate_lazily() {
        let g = Governor::new(
            Limits {
                max_bytes: Some(100),
                ..Limits::none()
            },
            None,
        );
        assert_eq!(
            g.check_barrier(&EvalStats::default(), || 101),
            Err(CoreError::LimitExceeded {
                limit: LimitKind::Bytes
            })
        );
        // No byte limit set: the closure must not even run.
        let g = Governor::unlimited();
        assert!(g
            .check_barrier(&EvalStats::default(), || panic!("consulted"))
            .is_ok());
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::new(
            Limits {
                deadline: Some(Duration::ZERO),
                ..Limits::none()
            },
            None,
        );
        assert_eq!(
            g.poll(),
            Err(CoreError::LimitExceeded {
                limit: LimitKind::Deadline
            })
        );
    }

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let token = CancelToken::new();
        let g = Governor::new(Limits::none(), Some(token.clone()));
        assert!(g.poll().is_ok());
        token.clone().cancel();
        assert_eq!(g.poll(), Err(CoreError::Cancelled));
        token.reset();
        assert!(g.poll().is_ok());
    }

    #[test]
    fn limit_kind_names_match_cli_flags() {
        assert_eq!(LimitKind::Deadline.to_string(), "timeout");
        assert_eq!(LimitKind::Tuples.to_string(), "max-tuples");
        assert_eq!(LimitKind::Models.to_string(), "max-models");
    }
}
