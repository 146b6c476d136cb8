//! Errors for the DATALOG^C layer.

use std::fmt;

/// Failures in checking or translating a DATALOG^C program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChoiceError {
    /// Condition C1 violated: more than one choice operator in a clause.
    C1Violation {
        /// 0-based clause index.
        clause: usize,
    },
    /// Condition C2 violated: a choice clause is related to the head of
    /// another clause containing a choice operator.
    C2Violation {
        /// Head predicate of the first offending clause.
        first: String,
        /// Head predicate of the clause it is related to.
        second: String,
    },
    /// A choice clause is recursive through its own head predicate; the
    /// KN88 semantics (and the Theorem 2 translation) are not defined for it.
    ChoiceRecursion {
        /// The offending head predicate.
        pred: String,
    },
    /// A structural problem (choice variables not in the body, negated
    /// choice, …).
    Invalid {
        /// 0-based clause index.
        clause: usize,
        /// What is wrong.
        message: String,
    },
}

impl fmt::Display for ChoiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChoiceError::C1Violation { clause } => {
                write!(
                    f,
                    "clause #{clause} has more than one choice operator (condition C1)"
                )
            }
            ChoiceError::C2Violation { first, second } => write!(
                f,
                "choice clause for {first} is related to choice clause head {second} \
                 (condition C2)"
            ),
            ChoiceError::ChoiceRecursion { pred } => {
                write!(
                    f,
                    "choice clause for {pred} is recursive through its own head"
                )
            }
            ChoiceError::Invalid { clause, message } => {
                write!(f, "invalid DATALOG^C clause #{clause}: {message}")
            }
        }
    }
}

impl std::error::Error for ChoiceError {}

/// Result alias.
pub type ChoiceResult<T> = Result<T, ChoiceError>;
