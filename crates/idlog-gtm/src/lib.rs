//! Generic Turing machines over databases, and the constructive side of the
//! paper's expressiveness results (Theorems 5/6 via \[HS89\]).
//!
//! The paper proves that stratified IDLOG programs define *all* computable
//! non-deterministic queries by simulating (non-deterministic) generic
//! Turing machines. This crate makes that construction executable:
//!
//! * [`machine`]/[`tape`]/[`run`] — a (non-)deterministic TM substrate with
//!   bounded execution and exhaustive branch exploration;
//! * [`encode`] — the \[HS89\]-style encoding of a database onto a tape:
//!   uninterpreted constants become bit-strings under a chosen enumeration
//!   order, tuples and relations are bracketed with the distinguished
//!   symbols `( ) , [ ]`;
//! * [`compile`] — a TM → IDLOG compiler for bounded runs: configurations
//!   become `state/head/cell` facts indexed by time, and **non-deterministic
//!   branching is realized with an ID-literal** — a `coin` relation grouped
//!   by time step whose tid-0 tuple selects the transition, exactly the
//!   mechanism Theorem 6 uses;
//! * [`queries`] — concrete example machines (parity, successor, a
//!   non-deterministic bit-writer) used by the expressiveness tests
//!   (`tests/expressiveness.rs`).

#![warn(missing_docs)]

pub mod compile;
pub mod encode;
pub mod error;
pub mod machine;
pub mod queries;
pub mod run;
pub mod tape;

pub use compile::{compile_tm, CompiledTm};
pub use encode::{decode_unary_relation, encode_database, EncodeOrder};
pub use error::{GtmError, GtmResult};
pub use machine::{Move, Tm, TmBuilder};
pub use run::{explore, run_deterministic, Outcome, RunBudget};
pub use tape::Tape;
