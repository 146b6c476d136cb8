//! In-memory relational storage for the IDLOG workspace.
//!
//! Provides typed relations over two-sorted tuples, hash indexes on attribute
//! subsets, databases (named relations sharing an interner), and — the part
//! specific to the paper — **ID-relations**: augmentations of a relation `r`
//! with tuple identifiers assigned per *sub-relation* of `r` grouped by a set
//! of attributes (\[She90b\] §2.1).
//!
//! The non-determinism of IDLOG is exactly the freedom in choosing an
//! ID-function for each sub-relation; [`idrel`] constructs one ID-relation
//! given a choice, and [`enumerate`] iterates over all of them.

#![warn(missing_docs)]
// Storage faults must surface as errors, never panics: a panicking store
// would unwind through the engine's worker threads. Tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod database;
pub mod enumerate;
pub mod group;
pub mod idrel;
pub mod relation;
pub mod rows;
pub mod storage;

pub use database::{Database, ValueSummary};
pub use enumerate::{
    count_bounded_assignments, count_id_functions, BoundedAssignmentIter, IdAssignmentIter,
};
pub use group::{group_by, Grouping};
pub use idrel::TidOrder;
pub use idrel::{
    canonical_id_relation, make_id_relation, random_id_relation, IdAssignment, IdRelationBuild,
};
pub use relation::{CanonicalView, Relation};
pub use rows::{RowBuf, RowIter, Rows};
pub use storage::{
    estimated_tuple_bytes, estimated_value_bytes, BackendKind, ColumnarBackend, HashBackend,
    IndexHandle, Probe, ScanIter, Storage,
};
