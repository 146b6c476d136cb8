//! DATALOG with choice (DATALOG^C, \[KN88\]) — the baseline non-deterministic
//! mechanism the paper compares IDLOG against.
//!
//! A clause `h :- body, choice((X̄), (Ȳ))` non-deterministically restricts the
//! body matches to a *functional subset*: for every value of `X̄`, exactly one
//! `Ȳ` survives. This crate provides:
//!
//! * [`checks`] — the paper's syntactic conditions C1 (at most one choice per
//!   clause) and C2 (no choice clause related to another choice clause's
//!   head);
//! * [`mod@translate`] — the `P → Pᶜ` rewriting (choice literals become
//!   `ext_choice_i` predicates with defining clauses);
//! * [`to_idlog`] — the constructive side of **Theorem 2**: every DATALOG^C
//!   program satisfying C1/C2 (and not recursive through a choice clause's
//!   own head) has a q-equivalent stratified IDLOG program, built by reading
//!   each choice predicate's ID-relation at tid 0.
//!
//! The direct KN88 semantics that Theorem 2 compares the translation with is
//! a test fixture: `idlog_suite::eval::intended_models`, on the reference
//! interpreter's matcher, so that the two sides share nothing but the
//! parser.

#![warn(missing_docs)]

pub mod checks;
pub mod error;
pub mod to_idlog;
pub mod translate;

pub use checks::{check_conditions, collect_violations, ChoiceViolation};
pub use error::{ChoiceError, ChoiceResult};
pub use to_idlog::to_idlog_source;
pub use translate::{translate, ChoiceSite, Translated};
