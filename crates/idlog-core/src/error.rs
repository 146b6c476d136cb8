//! Engine errors and the stable error-code surface.
//!
//! [`ErrorCode`] is the one vocabulary shared by library callers
//! ([`CoreError::code`] / [`EvalError::code`](crate::EvalError)), the CLI
//! (exit codes via [`ErrorCode::exit_code`]), and the service protocol
//! (`code` fields in responses). Codes are stable strings: once shipped
//! they never change meaning, so clients may switch on them.

use std::fmt;

use idlog_common::CommonError;
use idlog_parser::ParseError;

use crate::govern::LimitKind;

/// Stable, serializable error codes.
///
/// One code per failure family; governor trips carry the specific
/// [`LimitKind`] so `limit:timeout` and `limit:max-rounds` stay
/// distinguishable across the wire. `Usage`, `Io`, and `Protocol` belong to
/// the serving/CLI layer (the engine itself never produces them) but live
/// here so every layer agrees on one enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Surface-syntax error.
    Parse,
    /// Structural validation failure.
    Validation,
    /// Conflicting sort inference.
    Sort,
    /// Safety-condition violation.
    Safety,
    /// The program is not stratifiable.
    Stratification,
    /// The input database disagrees with the program.
    Input,
    /// Runtime evaluation failure.
    Eval,
    /// An enumeration budget tripped.
    Budget,
    /// A governor resource ceiling tripped.
    Limit(LimitKind),
    /// The evaluation's cancel token fired.
    Cancelled,
    /// A contained engine invariant failure.
    Internal,
    /// An unclassified failure from a front-end layer (lint counts, missing
    /// profile, …) that maps to plain exit 1.
    Failure,
    /// Bad command-line or request arguments.
    Usage,
    /// An I/O failure outside the engine (file, socket).
    Io,
    /// A malformed service request or response.
    Protocol,
    /// The server shed the request at admission because its bounded queue
    /// was full. Retryable: the response carries a `retry_after_ms` hint.
    Overloaded,
}

impl ErrorCode {
    /// The stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Validation => "validation",
            ErrorCode::Sort => "sort",
            ErrorCode::Safety => "safety",
            ErrorCode::Stratification => "stratification",
            ErrorCode::Input => "input",
            ErrorCode::Eval => "eval",
            ErrorCode::Budget => "budget",
            ErrorCode::Limit(LimitKind::Deadline) => "limit:timeout",
            ErrorCode::Limit(LimitKind::Rounds) => "limit:max-rounds",
            ErrorCode::Limit(LimitKind::Tuples) => "limit:max-tuples",
            ErrorCode::Limit(LimitKind::Bytes) => "limit:max-bytes",
            ErrorCode::Limit(LimitKind::Models) => "limit:max-models",
            ErrorCode::Limit(LimitKind::Answers) => "limit:max-answers",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Internal => "internal",
            ErrorCode::Failure => "failure",
            ErrorCode::Usage => "usage",
            ErrorCode::Io => "io",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Overloaded => "overloaded",
        }
    }

    /// Parse a wire string back into a code (exact match on
    /// [`ErrorCode::as_str`]).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        const ALL: &[ErrorCode] = &[
            ErrorCode::Parse,
            ErrorCode::Validation,
            ErrorCode::Sort,
            ErrorCode::Safety,
            ErrorCode::Stratification,
            ErrorCode::Input,
            ErrorCode::Eval,
            ErrorCode::Budget,
            ErrorCode::Limit(LimitKind::Deadline),
            ErrorCode::Limit(LimitKind::Rounds),
            ErrorCode::Limit(LimitKind::Tuples),
            ErrorCode::Limit(LimitKind::Bytes),
            ErrorCode::Limit(LimitKind::Models),
            ErrorCode::Limit(LimitKind::Answers),
            ErrorCode::Cancelled,
            ErrorCode::Internal,
            ErrorCode::Failure,
            ErrorCode::Usage,
            ErrorCode::Io,
            ErrorCode::Protocol,
            ErrorCode::Overloaded,
        ];
        ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The process exit code the CLI maps this code to: `0` success (never
    /// an `ErrorCode`), `1` failure, `2` usage, `3` resource limit, `130`
    /// interrupt — the convention shells expect. Regression-tested in
    /// `idlog-cli`.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCode::Usage => 2,
            // Overload shedding is a resource trip from the client's point
            // of view: the server refused the work, retrying may succeed —
            // the same script handling as a governor limit.
            ErrorCode::Limit(_) | ErrorCode::Budget | ErrorCode::Overloaded => 3,
            ErrorCode::Cancelled => 130,
            _ => 1,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Any failure from validation through evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Surface-syntax error.
    Parse(ParseError),
    /// Structural validation failure (head shape, arity mismatch, …).
    Validation {
        /// 0-based clause index, when attributable.
        clause: Option<usize>,
        /// What is wrong.
        message: String,
    },
    /// Sort inference found conflicting sorts.
    Sort {
        /// 0-based index of the clause whose occurrence exposed the
        /// conflict, when attributable.
        clause: Option<usize>,
        /// What conflicts.
        message: String,
    },
    /// The paper's safety condition is violated (unbound head variable,
    /// un-orderable arithmetic literal, unbound negation, …).
    Safety {
        /// 0-based clause index.
        clause: usize,
        /// What is wrong.
        message: String,
    },
    /// The program is not stratifiable: a cycle through negation or through
    /// an ID-literal.
    Stratification {
        /// Predicate names on the offending cycle.
        cycle: Vec<String>,
    },
    /// The input database disagrees with the program (missing sort, wrong
    /// arity, …).
    Input {
        /// What is wrong.
        message: String,
    },
    /// A runtime evaluation failure (arithmetic overflow, an arithmetic
    /// instance with infinitely many solutions that the static modes could
    /// not rule out, …).
    Eval {
        /// What went wrong.
        message: String,
    },
    /// Evaluation exceeded a caller-imposed budget (enumeration spaces are
    /// products of factorials; budgets keep them finite in practice).
    BudgetExceeded {
        /// Which budget tripped.
        what: String,
    },
    /// A governor resource ceiling tripped (deadline, rounds, tuples,
    /// bytes). The governed entry points wrap this as
    /// [`EvalError::Limit`](crate::EvalError) with the partial output
    /// attached; this payload-light form is what propagates through the
    /// engine internals and the legacy `CoreResult` API.
    LimitExceeded {
        /// Which ceiling tripped.
        limit: crate::govern::LimitKind,
    },
    /// The evaluation's [`CancelToken`](crate::CancelToken) fired
    /// (Ctrl-C, embedder shutdown).
    Cancelled,
    /// An engine invariant failed at runtime — typically a panic in a
    /// worker, builtin, oracle, or the storage layer, contained by
    /// `catch_unwind` instead of aborting the process.
    Internal {
        /// 0-based clause index of the rule being evaluated, when the
        /// fault is attributable to one.
        clause: Option<usize>,
        /// The contained panic message or broken invariant.
        message: String,
    },
    /// A foundation-layer error surfaced during evaluation.
    Common(CommonError),
}

impl CoreError {
    /// The stable [`ErrorCode`] for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            CoreError::Parse(_) => ErrorCode::Parse,
            CoreError::Validation { .. } => ErrorCode::Validation,
            CoreError::Sort { .. } => ErrorCode::Sort,
            CoreError::Safety { .. } => ErrorCode::Safety,
            CoreError::Stratification { .. } => ErrorCode::Stratification,
            CoreError::Input { .. } => ErrorCode::Input,
            CoreError::Eval { .. } => ErrorCode::Eval,
            CoreError::BudgetExceeded { .. } => ErrorCode::Budget,
            CoreError::LimitExceeded { limit } => ErrorCode::Limit(*limit),
            CoreError::Cancelled => ErrorCode::Cancelled,
            CoreError::Internal { .. } => ErrorCode::Internal,
            CoreError::Common(_) => ErrorCode::Input,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(e) => write!(f, "{e}"),
            CoreError::Validation {
                clause: Some(c),
                message,
            } => {
                write!(f, "invalid clause #{c}: {message}")
            }
            CoreError::Validation {
                clause: None,
                message,
            } => {
                write!(f, "invalid program: {message}")
            }
            CoreError::Sort {
                clause: Some(c),
                message,
            } => write!(f, "sort error in clause #{c}: {message}"),
            CoreError::Sort {
                clause: None,
                message,
            } => write!(f, "sort error: {message}"),
            CoreError::Safety { clause, message } => {
                write!(f, "unsafe clause #{clause}: {message}")
            }
            CoreError::Stratification { cycle } => {
                f.write_str(&crate::stratify::unstratifiable(cycle))
            }
            CoreError::Input { message } => write!(f, "bad input database: {message}"),
            CoreError::Eval { message } => write!(f, "evaluation error: {message}"),
            CoreError::BudgetExceeded { what } => write!(f, "budget exceeded: {what}"),
            CoreError::LimitExceeded { limit } => write!(f, "limit exceeded: {limit}"),
            CoreError::Cancelled => f.write_str("evaluation cancelled"),
            CoreError::Internal {
                clause: Some(c),
                message,
            } => {
                write!(f, "internal error in clause #{c}: {message}")
            }
            CoreError::Internal {
                clause: None,
                message,
            } => {
                write!(f, "internal error: {message}")
            }
            CoreError::Common(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Parse(e) => Some(e),
            CoreError::Common(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

impl From<CommonError> for CoreError {
    fn from(e: CommonError) -> Self {
        CoreError::Common(e)
    }
}

/// Result alias for engine operations.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_round_trip() {
        let cases = [
            (ErrorCode::Parse, "parse", 1),
            (ErrorCode::Validation, "validation", 1),
            (ErrorCode::Sort, "sort", 1),
            (ErrorCode::Safety, "safety", 1),
            (ErrorCode::Stratification, "stratification", 1),
            (ErrorCode::Input, "input", 1),
            (ErrorCode::Eval, "eval", 1),
            (ErrorCode::Budget, "budget", 3),
            (ErrorCode::Limit(LimitKind::Deadline), "limit:timeout", 3),
            (ErrorCode::Limit(LimitKind::Rounds), "limit:max-rounds", 3),
            (ErrorCode::Limit(LimitKind::Tuples), "limit:max-tuples", 3),
            (ErrorCode::Limit(LimitKind::Bytes), "limit:max-bytes", 3),
            (ErrorCode::Limit(LimitKind::Models), "limit:max-models", 3),
            (ErrorCode::Limit(LimitKind::Answers), "limit:max-answers", 3),
            (ErrorCode::Cancelled, "cancelled", 130),
            (ErrorCode::Internal, "internal", 1),
            (ErrorCode::Failure, "failure", 1),
            (ErrorCode::Usage, "usage", 2),
            (ErrorCode::Io, "io", 1),
            (ErrorCode::Protocol, "protocol", 1),
            (ErrorCode::Overloaded, "overloaded", 3),
        ];
        for (code, s, exit) in cases {
            assert_eq!(code.as_str(), s);
            assert_eq!(ErrorCode::parse(s), Some(code), "{s}");
            assert_eq!(code.exit_code(), exit, "{s}");
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn core_errors_carry_their_family_code() {
        assert_eq!(
            CoreError::Eval {
                message: "overflow".into()
            }
            .code(),
            ErrorCode::Eval
        );
        assert_eq!(
            CoreError::LimitExceeded {
                limit: LimitKind::Deadline
            }
            .code(),
            ErrorCode::Limit(LimitKind::Deadline)
        );
        assert_eq!(CoreError::Cancelled.code(), ErrorCode::Cancelled);
    }

    #[test]
    fn display_variants() {
        let e = CoreError::Safety {
            clause: 3,
            message: "unbound head variable X".into(),
        };
        assert!(e.to_string().contains("#3"));
        let e = CoreError::Stratification {
            cycle: vec!["p".into(), "q".into()],
        };
        assert!(e.to_string().contains("p -> q"));
    }
}
