//! ID-relations: relations augmented with tuple identifiers.
//!
//! An *ID-function* of a relation `g` (here: one sub-relation) is a bijection
//! from `g` to `{0, …, |g|−1}`. An *ID-relation of r on s* pairs every tuple
//! `t ∈ r` with the tid its sub-relation's ID-function assigns it (\[She90b\]
//! §2.1, Example 1). Choosing the ID-functions is the engine's only source of
//! non-determinism.
//!
//! Every construction here — [`canonical_id_relation`],
//! [`random_id_relation`] and the [`IdAssignment`]s — reads the base
//! relation's group index ([`crate::group`]), which the relation builds once
//! per version. What is left per build is the choice itself: the first `k`
//! members of each group for a canonical `tid < k`, one permutation per group
//! for a seeded draw, and the rows that keep a tid.

use std::borrow::Borrow;

use rand::seq::SliceRandom;
use rand::Rng;

use idlog_common::{CommonError, CommonResult, FxHashMap, Interner, Nat, Tuple, Value};

use crate::group::{GroupIndex, Grouping};
use crate::relation::Relation;

/// How tids are drawn within each sub-relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TidOrder {
    /// Tid = rank of the tuple in canonical (name) order within its group.
    /// Deterministic and interning-order independent.
    Canonical,
    /// A uniformly random permutation per group, drawn from the provided RNG.
    Random,
}

/// `(row id, tid)` for every row that keeps a tid.
type RowTids = Vec<(u32, i64)>;

/// The canonical ID-functions: a member's tid is its canonical rank in its
/// group. Only tids below `bound` are kept, and only the members that keep
/// one are visited: `O(groups × bound)`.
fn canonical_tids(index: &GroupIndex, bound: Option<usize>) -> RowTids {
    index
        .groups()
        .flat_map(|members| {
            let keep = bound.map_or(members.len(), |k| k.min(members.len()));
            let ranked = members[..keep].iter().enumerate();
            ranked.map(|(rank, &row)| (row, rank as i64))
        })
        .collect()
}

/// An independent uniform permutation per group, drawn from `rng` in
/// canonical key order: the `k`-th slot of a group's permutation is the tid
/// of its `k`-th canonical member. Every group draws its full permutation
/// whatever the bound, so the stream — and with it a bounded sample — is
/// the unbounded one, with the tids at or above `bound` left out.
fn random_tids<R: Rng>(index: &GroupIndex, rng: &mut R, bound: Option<usize>) -> RowTids {
    let limit = bound.map_or(i64::MAX, |k| i64::try_from(k).unwrap_or(i64::MAX));
    // One buffer for every group, sized once: a build allocates the same
    // whatever the group sizes.
    let largest = index.groups().map(<[u32]>::len).max().unwrap_or(0);
    let mut perm: Vec<i64> = Vec::with_capacity(largest);
    let mut kept = RowTids::new();
    for members in index.groups() {
        perm.clear();
        perm.extend(0..members.len() as i64);
        perm.shuffle(rng);
        let tids = members.iter().zip(&perm).filter(|&(_, &tid)| tid < limit);
        kept.extend(tids.map(|(&row, &tid)| (row, tid)));
    }
    kept
}

/// The rows of `rel` at the row ids of `kept`, with their tids, in scan
/// order: one forward walk of the scan that skips to each row.
fn in_scan_order(rel: &Relation, mut kept: RowTids) -> impl Iterator<Item = (&[Value], i64)> {
    kept.sort_unstable_by_key(|&(row, _)| row);
    let (mut scan, mut next) = (rel.rows(), 0);
    kept.into_iter().filter_map(move |(row, tid)| {
        let t = scan.nth(row as usize - next)?;
        next = row as usize + 1;
        Some((t, tid))
    })
}

/// A concrete choice of ID-functions: a map from each tuple of the base
/// relation to its tid, for one grouping attribute set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    positions: Vec<usize>,
    tids: FxHashMap<Tuple, i64>,
}

impl IdAssignment {
    /// Canonical assignment: within each group, tuples get tids in canonical
    /// order (tid 0 = canonically smallest).
    pub fn canonical(rel: &Relation, positions: &[usize], interner: &Interner) -> Self {
        let (positions, index) = rel.group_index(positions, interner);
        Self::from_row_tids(rel, positions, canonical_tids(index, None))
    }

    /// Random assignment: an independent uniform permutation per group.
    pub fn random<R: Rng>(
        rel: &Relation,
        positions: &[usize],
        interner: &Interner,
        rng: &mut R,
    ) -> Self {
        let (positions, index) = rel.group_index(positions, interner);
        Self::from_row_tids(rel, positions, random_tids(index, rng, None))
    }

    /// Build from an explicit permutation per group: `perms[g][k]` is the tid
    /// of the `k`-th canonical member of group `g`. Panics if a permutation's
    /// length disagrees with its group size (enumeration internals guarantee
    /// consistency).
    pub fn from_permutations(grouping: &Grouping, perms: &[Vec<i64>]) -> Self {
        assert_eq!(
            perms.len(),
            grouping.group_count(),
            "one permutation per group"
        );
        let mut tids = FxHashMap::default();
        for (g, (_, _)) in grouping.iter().enumerate() {
            let members = grouping.group(g);
            assert_eq!(
                perms[g].len(),
                members.len(),
                "permutation matches group size"
            );
            for (k, t) in members.iter().enumerate() {
                tids.insert(t.clone(), perms[g][k]);
            }
        }
        IdAssignment {
            positions: grouping.positions().to_vec(),
            tids,
        }
    }

    fn from_row_tids(rel: &Relation, positions: &[usize], tids: RowTids) -> Self {
        let tids = in_scan_order(rel, tids).map(|(row, tid)| (Tuple::from(row), tid));
        IdAssignment {
            positions: positions.to_vec(),
            tids: tids.collect(),
        }
    }

    /// The grouping positions this assignment was built for.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The tid assigned to `t` — a tuple or a row — if `t` was in the base
    /// relation.
    pub fn tid<T: Borrow<[Value]> + ?Sized>(&self, t: &T) -> Option<i64> {
        self.tids.get(t.borrow()).copied()
    }

    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when the base relation was empty.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }
}

/// Materialize the ID-relation of `rel` under `assignment`: each tuple is
/// extended with its tid as a trailing `i`-sorted column.
///
/// Errors if the assignment does not cover every tuple of `rel` — a buggy
/// oracle must surface as a clean error, not take down the evaluation.
pub fn make_id_relation(rel: &Relation, assignment: &IdAssignment) -> CommonResult<Relation> {
    let mut out = Relation::new(rel.rtype().id_version());
    for t in rel.rows() {
        let tid = assignment.tid(t).ok_or_else(|| CommonError::Invariant {
            detail: format!(
                "ID-assignment covers {} tuple(s) but misses one of the base relation's {}",
                assignment.len(),
                rel.len()
            ),
        })?;
        let tid = Nat::new(tid).ok_or_else(|| CommonError::Invariant {
            detail: format!("ID-assignment gives the negative tid {tid}"),
        })?;
        out.insert_unchecked(with_tid(t, tid));
    }
    Ok(out)
}

/// An ID-relation built in one pass over its base relation, by
/// [`canonical_id_relation`] or [`random_id_relation`].
#[derive(Debug, Clone)]
pub struct IdRelationBuild {
    /// The ID-relation, restricted to `tid < bound` when a bound was given.
    /// Its scan order is the base relation's.
    pub relation: Relation,
    /// Number of sub-relations of the base relation (whatever the bound).
    pub groups: usize,
}

/// The ID-relation of `rel` on `positions` under the canonical ID-functions,
/// restricted to `tid < bound`: [`make_id_relation`] of
/// [`IdAssignment::canonical`] with the rows at or above the bound left out —
/// and never built. Each group keeps its `bound` canonically smallest
/// members, read off the relation's group index: on a relation grouped
/// before, this costs `O(groups × bound)`.
pub fn canonical_id_relation(
    rel: &Relation,
    positions: &[usize],
    interner: &Interner,
    bound: Option<usize>,
) -> IdRelationBuild {
    let (_, index) = rel.group_index(positions, interner);
    build(rel, index, canonical_tids(index, bound))
}

/// [`canonical_id_relation`] under an independent uniform permutation per
/// group. The bound does not change what is drawn: every group, in canonical
/// key order, takes a full permutation of its size from `rng`, exactly as
/// [`IdAssignment::random`] does, and then the tids at or above the bound
/// are dropped — so a bounded sample is the unbounded one, filtered.
pub fn random_id_relation<R: Rng>(
    rel: &Relation,
    positions: &[usize],
    interner: &Interner,
    rng: &mut R,
    bound: Option<usize>,
) -> IdRelationBuild {
    let (_, index) = rel.group_index(positions, interner);
    build(rel, index, random_tids(index, rng, bound))
}

/// The ID-relation tuple of base row `row`: the row, then its tid.
fn with_tid(row: &[Value], tid: Nat) -> Tuple {
    row.iter().copied().chain([Value::Int(tid)]).collect()
}

fn build(rel: &Relation, index: &GroupIndex, tids: RowTids) -> IdRelationBuild {
    let mut relation = Relation::new(rel.rtype().id_version());
    for (t, tid) in in_scan_order(rel, tids) {
        let Some(tid) = Nat::new(tid) else {
            unreachable!("tid {tid} is not a rank in its group")
        };
        relation.insert_unchecked(with_tid(t, tid));
    }
    IdRelationBuild {
        relation,
        groups: index.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_by;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    fn example1_relation(i: &Interner) -> Relation {
        let mut r = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    fn tid_of(i: &Interner, a: &IdAssignment, x: &str, y: &str) -> i64 {
        let t: Tuple = vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into();
        a.tid(&t).unwrap()
    }

    #[test]
    fn canonical_assignment_matches_paper_first_listing() {
        // Paper Example 1 lists {(a,c,1),(a,d,0),(b,c,0)} and
        // {(a,c,0),(a,d,1),(b,c,0)} as the two ID-relations of r on {1}.
        // Canonical order puts (a,c) before (a,d), so the canonical
        // assignment is the second listing.
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        assert_eq!(tid_of(&i, &a, "a", "c"), 0);
        assert_eq!(tid_of(&i, &a, "a", "d"), 1);
        assert_eq!(tid_of(&i, &a, "b", "c"), 0);
    }

    #[test]
    fn tids_are_bijective_within_groups() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = IdAssignment::random(&r, &[0], &i, &mut rng);
        // Group "a" has tids {0,1}; group "b" has {0}.
        let mut tids_a = vec![tid_of(&i, &a, "a", "c"), tid_of(&i, &a, "a", "d")];
        tids_a.sort_unstable();
        assert_eq!(tids_a, vec![0, 1]);
        assert_eq!(tid_of(&i, &a, "b", "c"), 0);
    }

    #[test]
    fn id_relation_has_id_version_type() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let idr = make_id_relation(&r, &a).unwrap();
        assert_eq!(idr.rtype().to_string(), "001");
        assert_eq!(idr.len(), r.len());
    }

    #[test]
    fn empty_grouping_numbers_whole_relation() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[], &i);
        let mut tids: Vec<i64> = r.iter().map(|t| a.tid(t).unwrap()).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2]);
    }

    #[test]
    fn from_permutations_respects_explicit_choice() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0], &i);
        // Swap the "a" group: (a,c)↦1, (a,d)↦0 — the paper's first listing.
        let a = IdAssignment::from_permutations(&g, &[vec![1, 0], vec![0]]);
        assert_eq!(tid_of(&i, &a, "a", "c"), 1);
        assert_eq!(tid_of(&i, &a, "a", "d"), 0);
        assert_eq!(tid_of(&i, &a, "b", "c"), 0);
    }

    #[test]
    fn incomplete_assignment_is_an_error_not_a_panic() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let mut bigger = r.clone();
        bigger
            .insert(vec![Value::Sym(i.intern("x")), Value::Sym(i.intern("y"))].into())
            .unwrap();
        let err = make_id_relation(&bigger, &a).unwrap_err();
        assert!(err.to_string().contains("invariant"), "{err}");
    }

    /// A relation shared copy-on-write keeps the group index a build left
    /// on it. A write through `Arc::make_mut` copies the relation and drops
    /// the copy's index: the old version still answers from its own index,
    /// and the written one groups again and sees the write.
    #[test]
    fn a_write_through_make_mut_regroups_the_copy_only() {
        let i = Interner::new();
        let t = |x: &str, y: &str, tid: i64| -> Tuple {
            vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y)), int(tid)].into()
        };
        let first = |r: &Relation| canonical_id_relation(r, &[0], &i, Some(1)).relation;
        let mut shared = std::sync::Arc::new(example1_relation(&i));
        let old = std::sync::Arc::clone(&shared);
        let before = first(&shared);
        assert!(before.contains(&t("a", "c", 0)));
        let index: *const GroupIndex = old.group_index(&[0], &i).1;

        let ab: Tuple = vec![Value::Sym(i.intern("a")), Value::Sym(i.intern("b"))].into();
        std::sync::Arc::make_mut(&mut shared).insert(ab).unwrap();
        assert!(std::ptr::eq(old.group_index(&[0], &i).1, index));
        assert_eq!(
            first(&old).iter().collect::<Vec<_>>(),
            before.iter().collect::<Vec<_>>()
        );
        let after = first(&shared);
        assert!(!std::ptr::eq(shared.group_index(&[0], &i).1, index));
        assert!(after.contains(&t("a", "b", 0)) && !after.contains(&t("a", "c", 0)));
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn missing_tuple_has_no_tid() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let t: Tuple = vec![Value::Sym(i.intern("x")), Value::Sym(i.intern("y"))].into();
        assert_eq!(a.tid(&t), None);
    }
}
