//! ID-relations: relations augmented with tuple identifiers.
//!
//! An *ID-function* of a relation `g` (here: one sub-relation) is a bijection
//! from `g` to `{0, …, |g|−1}`. An *ID-relation of r on s* pairs every tuple
//! `t ∈ r` with the tid its sub-relation's ID-function assigns it (\[She90b\]
//! §2.1, Example 1). Choosing the ID-functions is the engine's only source of
//! non-determinism.
//!
//! A choice is an [`IdAssignment`]: a tid per row, laid out on the base
//! relation's group index ([`crate::group`]), which the relation builds once
//! per version. One builder turns tids into an ID-relation: from an
//! assignment ([`make_id_relation`]), or from what a bounded build keeps —
//! the first `k` members of each group for a canonical `tid < k`
//! ([`canonical_id_relation`]), one permutation per group for a seeded draw
//! ([`random_id_relation`]).

use rand::seq::SliceRandom;
use rand::Rng;

use idlog_common::{CommonError, CommonResult, Interner, Nat, Tuple, Value};

use crate::group::{group_by, GroupIndex, Grouping};
use crate::relation::Relation;

/// A choice of ID-functions for one relation on one grouping set: one tid
/// per row, listed in the order of the group index's row ids — group by
/// group in canonical key order, each group's members in canonical order —
/// so a group's tids are the permutation its ID-function gives its
/// canonical members. No tuple is stored. The stamp names the index build
/// the layout belongs to: a clone of the relation carries that index, a
/// write drops it, and [`make_id_relation`] refuses an assignment whose
/// index the relation does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    /// `GroupIndex::stamp`; `0`, which no build has, for a choice that
    /// fits no index.
    pub(crate) stamp: u64,
    /// Deduplicated and sorted.
    pub(crate) positions: Vec<usize>,
    pub(crate) tids: Vec<i64>,
}

impl IdAssignment {
    /// Canonical assignment: within each group, tuples get tids in canonical
    /// order (tid 0 = canonically smallest).
    pub fn canonical(rel: &Relation, positions: &[usize], interner: &Interner) -> Self {
        let grouping = group_by(rel, positions, interner);
        let ranks = grouping.group_sizes().flat_map(|n| 0..n as i64);
        Self::laid_out(&grouping, ranks.collect())
    }

    /// Random assignment: an independent uniform permutation per group,
    /// drawn in canonical key order — the stream [`random_id_relation`] draws.
    pub fn random<R: Rng>(
        rel: &Relation,
        positions: &[usize],
        interner: &Interner,
        rng: &mut R,
    ) -> Self {
        let grouping = group_by(rel, positions, interner);
        let mut tids = Vec::with_capacity(rel.len());
        for n in grouping.group_sizes() {
            let start = tids.len();
            tids.extend(0..n as i64);
            tids[start..].shuffle(rng);
        }
        Self::laid_out(&grouping, tids)
    }

    /// Build from an explicit permutation per group: `perms[g][k]` is the tid
    /// of the `k`-th canonical member of group `g`. Not checked here: one
    /// permutation per group, each as long as its group, is laid out on the
    /// grouping's index, any other shape on none, and building the
    /// ID-relation refuses what is not an ID-function.
    pub fn from_permutations(grouping: &Grouping<'_>, perms: &[Vec<i64>]) -> Self {
        let fits = perms.len() == grouping.group_count()
            && grouping.group_sizes().zip(perms).all(|(n, p)| p.len() == n);
        let mut assignment = Self::laid_out(grouping, perms.concat());
        if !fits {
            assignment.stamp = 0;
        }
        assignment
    }

    fn laid_out(grouping: &Grouping<'_>, tids: Vec<i64>) -> Self {
        IdAssignment {
            stamp: grouping.index.stamp,
            positions: grouping.positions().to_vec(),
            tids,
        }
    }

    /// The grouping positions this assignment was built for.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Every member's tid, in the order [`group_by`] lists the members.
    pub fn tids(&self) -> &[i64] {
        &self.tids
    }

    /// The ID-relation of `rel` under this choice, restricted to
    /// `tid < bound` when a bound is given. Errors unless the choice was
    /// made on `rel`'s current group index and is an ID-function of it.
    pub fn id_relation(
        &self,
        rel: &Relation,
        bound: Option<usize>,
    ) -> CommonResult<IdRelationBuild> {
        let index = rel
            .built_group_index(&self.positions)
            .filter(|index| index.stamp == self.stamp)
            .ok_or_else(|| CommonError::Invariant {
                detail: "the ID-assignment does not fit the relation: it was made for \
                         another relation or version, or for other groups"
                    .into(),
            })?;
        let mut build = Builder::new(rel, index, bound);
        let mut rest = self.tids.as_slice();
        for members in index.groups() {
            let (tids, tail) = rest.split_at(members.len());
            build.group(members, tids.iter().copied())?;
            rest = tail;
        }
        Ok(build.finish(index))
    }
}

/// Materialize the ID-relation of `rel` under `assignment`: each tuple is
/// extended with its tid as a trailing `i`-sorted column.
///
/// Errors if the assignment was not made on this version of `rel`, or a
/// group's tids are not a permutation of `0..n` — a buggy oracle must
/// surface as a clean error, not take down the evaluation.
pub fn make_id_relation(rel: &Relation, assignment: &IdAssignment) -> CommonResult<Relation> {
    assignment
        .id_relation(rel, None)
        .map(|build| build.relation)
}

/// An ID-relation built in one pass over its base relation.
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
) -> CommonResult<IdRelationBuild> {
    let (_, index) = rel.group_index(positions, interner);
    let mut build = Builder::new(rel, index, bound);
    for members in index.groups() {
        build.group(members, 0..members.len().min(build.limit) as i64)?;
    }
    Ok(build.finish(index))
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
) -> CommonResult<IdRelationBuild> {
    let (_, index) = rel.group_index(positions, interner);
    let mut build = Builder::new(rel, index, bound);
    // One buffer for every group, sized once: a build allocates the same
    // whatever the group sizes.
    let mut perm: Vec<i64> = Vec::with_capacity(index.largest());
    for members in index.groups() {
        perm.clear();
        perm.extend(0..members.len() as i64);
        perm.shuffle(rng);
        build.group(members, perm.iter().copied())?;
    }
    Ok(build.finish(index))
}

/// The one builder of an ID-relation: each group's tids go in, in member
/// order, through [`Builder::group`], which checks them and keeps the rows
/// whose tids are below the bound; [`Builder::finish`] inserts those in the
/// base's scan order.
struct Builder<'r> {
    rel: &'r Relation,
    /// The bound, or `usize::MAX` for none: then every member needs a tid.
    limit: usize,
    /// `(row id, tid)` for every row that keeps a tid.
    kept: Vec<(u32, i64)>,
    /// `seen[t]`: the group being taken gave a kept member the tid `t`.
    /// Sized once, to the most tids a group can keep.
    seen: Vec<bool>,
}

impl<'r> Builder<'r> {
    fn new(rel: &'r Relation, index: &GroupIndex, bound: Option<usize>) -> Self {
        let limit = bound.unwrap_or(usize::MAX);
        Builder {
            rel,
            limit,
            kept: Vec::new(),
            seen: vec![false; index.largest().min(limit)],
        }
    }

    /// Take one group's tids, given to `members` in order. Each must lie in
    /// `0..n` and the kept ones must be distinct; unbounded, every member
    /// needs one. So an unbounded group's tids are a permutation of `0..n`.
    fn group(&mut self, members: &[u32], tids: impl IntoIterator<Item = i64>) -> CommonResult<()> {
        let (n, start) = (members.len(), self.kept.len());
        let (keep, mut given, mut outside) = (n.min(self.limit) as u64, 0, false);
        // One filtering pass, with no branch more than a build without
        // checks has; checking what it kept then costs O(kept).
        for (&row, tid) in members.iter().zip(tids) {
            given += 1;
            // A negative tid reads as one past every size.
            let t = u64::try_from(tid).unwrap_or(u64::MAX);
            outside |= t >= n as u64;
            if t < keep {
                self.kept.push((row, tid));
            }
        }
        let fault = |what: &str| CommonError::Invariant {
            detail: format!("ID-assignment is not an ID-function: a group of {n} {what}"),
        };
        if outside {
            return Err(fault(&format!("gives a member a tid outside 0..{n}")));
        }
        if self.limit == usize::MAX && given < n {
            return Err(fault(&format!("gives {given} of them a tid")));
        }
        let kept = &self.kept[start..];
        let repeated = kept
            .iter()
            .find(|&&(_, tid)| std::mem::replace(&mut self.seen[tid as usize], true));
        for &(_, tid) in kept {
            self.seen[tid as usize] = false;
        }
        match repeated {
            Some((_, tid)) => Err(fault(&format!("gives the tid {tid} twice"))),
            None => Ok(()),
        }
    }

    /// The kept rows with their tids, in scan order: one forward walk of
    /// the scan that skips to each row.
    fn finish(mut self, index: &GroupIndex) -> IdRelationBuild {
        self.kept.sort_unstable_by_key(|&(row, _)| row);
        let mut relation = Relation::new(self.rel.rtype().id_version());
        let (mut scan, mut next) = (self.rel.rows(), 0);
        for (row, tid) in self.kept {
            let (Some(t), Some(tid)) = (scan.nth(row as usize - next), Nat::new(tid)) else {
                unreachable!("row {row} is in the scan and its tid {tid} a rank")
            };
            next = row as usize + 1;
            relation.insert_unchecked(with_tid(t, tid));
        }
        IdRelationBuild {
            relation,
            groups: index.len(),
        }
    }
}

/// The ID-relation tuple of base row `row`: the row, then its tid.
fn with_tid(row: &[Value], tid: Nat) -> Tuple {
    row.iter().copied().chain([Value::Int(tid)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The tid the ID-relation of `r` under `a` gives `(x, y)`.
    fn tid_of(i: &Interner, r: &Relation, a: &IdAssignment, x: &str, y: &str) -> i64 {
        let t = [Value::Sym(i.intern(x)), Value::Sym(i.intern(y))];
        let idr = make_id_relation(r, a).unwrap();
        let row = idr.rows().find(|row| row[..2] == t).unwrap();
        row[2].as_int().unwrap()
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
        assert_eq!(a.tids(), [0, 1, 0]);
        assert_eq!(tid_of(&i, &r, &a, "a", "c"), 0);
        assert_eq!(tid_of(&i, &r, &a, "a", "d"), 1);
        assert_eq!(tid_of(&i, &r, &a, "b", "c"), 0);
    }

    #[test]
    fn tids_are_bijective_within_groups() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = IdAssignment::random(&r, &[0], &i, &mut rng);
        // Group "a" has tids {0,1}; group "b" has {0}.
        let mut tids_a = vec![tid_of(&i, &r, &a, "a", "c"), tid_of(&i, &r, &a, "a", "d")];
        tids_a.sort_unstable();
        assert_eq!(tids_a, vec![0, 1]);
        assert_eq!(tid_of(&i, &r, &a, "b", "c"), 0);
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
        let idr = make_id_relation(&r, &a).unwrap();
        let mut tids: Vec<i64> = idr.rows().map(|row| row[2].as_int().unwrap()).collect();
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
        assert_eq!(tid_of(&i, &r, &a, "a", "c"), 1);
        assert_eq!(tid_of(&i, &r, &a, "a", "d"), 0);
        assert_eq!(tid_of(&i, &r, &a, "b", "c"), 0);
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
        // Grouped again, the written copy has a new index the old choice
        // was not made on.
        group_by(&bigger, &[0], &i);
        assert!(make_id_relation(&bigger, &a).is_err());
        // An unwritten clone carries the index, and the choice with it.
        assert!(make_id_relation(&r.clone(), &a).is_ok());
    }

    /// A choice that is not an ID-function is refused whatever its shape:
    /// a repeated tid, a tid past its group, too few or too many
    /// permutations, or one of the wrong length.
    #[test]
    fn a_choice_that_is_not_an_id_function_is_an_error() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0], &i);
        for perms in [
            vec![vec![0, 0], vec![0]],
            vec![vec![0, 2], vec![0]],
            vec![vec![-1, 0], vec![0]],
            vec![vec![1, 0]],
            vec![vec![1, 0], vec![0], vec![0]],
            vec![vec![1, 0], vec![0, 1]],
            vec![vec![1], vec![0, 0]],
        ] {
            let a = IdAssignment::from_permutations(&g, &perms);
            let err = make_id_relation(&r, &a).unwrap_err();
            assert!(
                matches!(err, CommonError::Invariant { .. }),
                "{perms:?}: {err}"
            );
        }
        // Under a bound only the kept tids need be distinct: a repeated tid
        // at or above it is still no ID-function, but one below is caught.
        let a = IdAssignment::from_permutations(&g, &[vec![0, 0], vec![0]]);
        assert!(a.id_relation(&r, Some(1)).is_err());
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
        let first = |r: &Relation| {
            canonical_id_relation(r, &[0], &i, Some(1))
                .unwrap()
                .relation
        };
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
    fn assignment_from_another_relation_is_refused() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let other = example1_relation(&i);
        group_by(&other, &[0], &i);
        assert!(make_id_relation(&other, &a).is_err());
    }
}
