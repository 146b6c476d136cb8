//! Tid oracles: where the non-determinism comes from.
//!
//! An IDLOG interpretation assigns to each ID-predicate `p[s]` an ID-relation
//! of `pᴵ` on `s`. Operationally, once the engine has fully computed `p`, it
//! asks a [`TidOracle`] for that ID-relation — one ID-function per
//! sub-relation. Different oracles give different perfect models:
//!
//! * [`CanonicalOracle`] — deterministic: tids follow the canonical
//!   (name-based) tuple order. Reproducible across runs and interners.
//! * [`SeededOracle`] — pseudo-random permutations, reproducible from a seed;
//!   distinct predicates draw from independent streams so adding a predicate
//!   does not perturb the others.
//! * [`ExplicitOracle`] — test fixture: explicit permutations per predicate,
//!   falling back to canonical.
//!
//! Every oracle's choice is an [`IdAssignment`], a tid per row laid out on
//! the base relation's cached group index. An oracle only has to say how it
//! [assigns](TidOracle::assign) tids: the default [`TidOracle::id_relation`]
//! hands that to the one ID-relation builder, and the canonical and seeded
//! oracles override it to hand the builder only what a bounded build keeps.

use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use idlog_common::{CommonResult, FxHashMap, FxHasher, Interner, SymbolId};
use idlog_storage::{
    canonical_id_relation, group_by, random_id_relation, IdAssignment, IdRelationBuild, Relation,
};

/// Chooses ID-functions for materializing ID-relations.
pub trait TidOracle {
    /// Produce the assignment for `pred`'s relation `rel` grouped by
    /// `grouping` (0-based, ascending).
    fn assign(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> IdAssignment;

    /// The ID-relation of `pred`'s relation `rel` on `grouping` under this
    /// oracle's ID-functions, restricted to `tid < bound` when the program
    /// can observe no other tid ([`crate::ValidatedProgram::tid_bounds`];
    /// the paper's footnotes 6–7). This is what evaluation calls, once per
    /// ID-use.
    ///
    /// The default is the definition: [`TidOracle::assign`], then
    /// [`IdAssignment::id_relation`], which leaves out the tids at or above
    /// the bound before it builds, and errors on a choice that is not an
    /// ID-function of `rel`. An override must return the same relation — the
    /// bound may only save work, never change which ID-functions are chosen.
    ///
    /// Every grouping behind it reads `rel`'s group index, which `rel` builds
    /// on the first request and keeps until its next write. On an input
    /// unchanged since an earlier evaluation, the canonical override costs
    /// `O(groups × bound)` and the seeded one a permutation per group:
    /// neither regroups nor re-ranks `rel`.
    fn id_relation(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
        bound: Option<usize>,
    ) -> CommonResult<IdRelationBuild> {
        self.assign(pred, grouping, rel, interner)
            .id_relation(rel, bound)
    }
}

/// Deterministic oracle: canonical tid order.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalOracle;

impl TidOracle for CanonicalOracle {
    fn assign(
        &mut self,
        _pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> IdAssignment {
        IdAssignment::canonical(rel, grouping, interner)
    }

    fn id_relation(
        &mut self,
        _pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
        bound: Option<usize>,
    ) -> CommonResult<IdRelationBuild> {
        canonical_id_relation(rel, grouping, interner, bound)
    }
}

/// Seeded pseudo-random oracle.
#[derive(Debug, Clone, Copy)]
pub struct SeededOracle {
    seed: u64,
}

impl SeededOracle {
    /// Build from a master seed.
    pub fn new(seed: u64) -> Self {
        SeededOracle { seed }
    }

    /// An independent stream per (pred name, grouping), so the permutation
    /// of one predicate does not depend on evaluation order. Hashes the
    /// *name*, not the raw id, for interning-order independence.
    fn stream(&self, pred: SymbolId, grouping: &[usize], interner: &Interner) -> SmallRng {
        let mut h = FxHasher::default();
        interner.with_resolved(pred, |name| name.hash(&mut h));
        grouping.hash(&mut h);
        self.seed.hash(&mut h);
        SmallRng::seed_from_u64(h.finish())
    }
}

impl TidOracle for SeededOracle {
    fn assign(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> IdAssignment {
        let mut rng = self.stream(pred, grouping, interner);
        IdAssignment::random(rel, grouping, interner, &mut rng)
    }

    fn id_relation(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
        bound: Option<usize>,
    ) -> CommonResult<IdRelationBuild> {
        let mut rng = self.stream(pred, grouping, interner);
        random_id_relation(rel, grouping, interner, &mut rng, bound)
    }
}

/// Test oracle with explicit per-predicate permutations.
///
/// Permutations are keyed by `(predicate name, grouping)`; `perms[g][k]` is
/// the tid of the `k`-th canonical member of the `g`-th canonical group,
/// laid onto row ids in one pass ([`IdAssignment::from_permutations`]). A
/// set that is no ID-function of the relation fails the build with an
/// invariant error. Predicates without an entry fall back to the canonical
/// assignment.
#[derive(Debug, Clone, Default)]
pub struct ExplicitOracle {
    perms: FxHashMap<(String, Vec<usize>), Vec<Vec<i64>>>,
}

impl ExplicitOracle {
    /// Empty oracle (pure canonical fallback).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the permutations for one ID-predicate.
    pub fn set(&mut self, pred: &str, grouping: Vec<usize>, perms: Vec<Vec<i64>>) -> &mut Self {
        self.perms.insert((pred.to_string(), grouping), perms);
        self
    }
}

impl TidOracle for ExplicitOracle {
    fn assign(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> IdAssignment {
        let key = (interner.resolve(pred), grouping.to_vec());
        match self.perms.get(&key) {
            Some(perms) => {
                IdAssignment::from_permutations(&group_by(rel, grouping, interner), perms)
            }
            None => IdAssignment::canonical(rel, grouping, interner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Value;

    fn rel(i: &Interner, pairs: &[(&str, &str)]) -> Relation {
        let mut r = Relation::elementary(2);
        for (x, y) in pairs {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    /// The tid the ID-relation of `r` under `a` gives `(x, y)`.
    fn tid(i: &Interner, r: &Relation, a: &IdAssignment, x: &str, y: &str) -> Option<i64> {
        let t = [Value::Sym(i.intern(x)), Value::Sym(i.intern(y))];
        let idr = idlog_storage::make_id_relation(r, a).unwrap();
        let row = idr.rows().find(|row| row[..2] == t)?;
        row[2].as_int()
    }

    #[test]
    fn canonical_oracle_is_deterministic() {
        let i = Interner::new();
        let r = rel(&i, &[("a", "c"), ("a", "d"), ("b", "c")]);
        let p = i.intern("r");
        let a1 = CanonicalOracle.assign(p, &[0], &r, &i);
        let a2 = CanonicalOracle.assign(p, &[0], &r, &i);
        assert_eq!(a1, a2);
        assert_eq!(tid(&i, &r, &a1, "a", "c"), Some(0));
    }

    #[test]
    fn seeded_oracle_reproducible_and_seed_sensitive() {
        let i = Interner::new();
        // A bigger group so permutations actually vary.
        let pairs: Vec<(String, String)> =
            (0..6).map(|k| ("g".to_string(), format!("v{k}"))).collect();
        let pairs_ref: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let r = rel(&i, &pairs_ref);
        let p = i.intern("r");
        let a1 = SeededOracle::new(42).assign(p, &[0], &r, &i);
        let a2 = SeededOracle::new(42).assign(p, &[0], &r, &i);
        assert_eq!(a1, a2);
        let differing = (0..64)
            .filter(|&s| SeededOracle::new(s).assign(p, &[0], &r, &i) != a1)
            .count();
        assert!(differing > 0, "some seed must give a different permutation");
    }

    #[test]
    fn explicit_oracle_uses_perms_and_falls_back() {
        let i = Interner::new();
        let r = rel(&i, &[("a", "c"), ("a", "d"), ("b", "c")]);
        let p = i.intern("emp");
        let mut o = ExplicitOracle::new();
        o.set("emp", vec![0], vec![vec![1, 0], vec![0]]);
        let a = o.assign(p, &[0], &r, &i);
        assert_eq!(tid(&i, &r, &a, "a", "c"), Some(1));
        assert_eq!(tid(&i, &r, &a, "a", "d"), Some(0));
        // Unknown predicate: canonical.
        let q = i.intern("other");
        let a = o.assign(q, &[0], &r, &i);
        assert_eq!(tid(&i, &r, &a, "a", "c"), Some(0));
    }
}
