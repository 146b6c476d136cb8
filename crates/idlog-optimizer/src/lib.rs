//! Existential-argument analysis and the paper's optimization strategy
//! (§4): rewrite DATALOG programs so that redundant intermediate tuples are
//! never produced.
//!
//! Two different notions of existential argument coexist (paper Example 7
//! shows they are incomparable):
//!
//! * **∀-existential** (Definition 1, from \[RBK88\]): the literal can be
//!   replaced by a projection that *keeps all tuples* but forgets the
//!   column. Detected (soundly, incompletely — detection is undecidable) by
//!   the adornment algorithm in [`adornment`]; eliminated by the
//!   projection-pushing rewrite in [`rewrite_forall`].
//! * **∃-existential** (Definition 2, new in the paper): the literal can be
//!   replaced by an ID-literal that keeps *one tuple per sub-relation*
//!   (`p[s](X̄, Y, 0)`). Theorem 3 shows detection is undecidable; Theorem 4
//!   shows every ∀-existential argument found by the adornment algorithm is
//!   also ∃-existential, so [`rewrite_exists`] may replace input-predicate
//!   literals with tid-0 ID-literals — the paper's four-step strategy.
//!
//! [`equivalence`] provides the bounded q-equivalence checking used to
//! validate the rewrites empirically (the paper proves them; we test them on
//! randomized databases).

#![warn(missing_docs)]

pub mod adornment;
pub mod equivalence;
#[cfg(test)]
mod magic;
pub mod redundancy;
pub mod rewrite_exists;
pub mod rewrite_forall;

pub use adornment::{analyze, ExistentialAnalysis};
pub use equivalence::{q_equivalent_on, random_databases, EquivalenceReport};
pub use redundancy::{suggest_redundant_clauses, RedundancyReport};
pub use rewrite_exists::to_id_program;
pub use rewrite_forall::push_projections;
