//! Shared foundations for the IDLOG deductive database workspace.
//!
//! IDLOG (\[She90b\], SIGMOD 1991) is a two-sorted deductive database language:
//! values are either *uninterpreted* constants drawn from a universal domain
//! (sort `u`) or natural numbers (sort `i`). This crate provides the value
//! model, string interning for uninterpreted constants, relation types, a
//! fast non-cryptographic hasher, and the shared error type used across the
//! workspace.
//!
//! Nothing here knows about clauses, relations, or evaluation; those live in
//! `idlog-parser`, `idlog-storage`, and `idlog-core` respectively.

#![warn(missing_docs)]

pub mod crc32;
pub mod error;
pub mod failpoint;
pub mod fxhash;
pub mod idtable;
pub mod json;
pub mod sort;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use error::{CommonError, CommonResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use idtable::IdTable;
pub use json::Json;
pub use sort::{RelType, Sort};
pub use symbol::{Interner, InternerGuard, Names, SymbolId};
pub use tuple::Tuple;
pub use value::{Nat, Value};
