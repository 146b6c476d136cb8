//! Sub-relations grouped by an attribute set.
//!
//! The paper (§2.1): "A *sub-relation* of a relation r grouped by a set s of
//! attributes of r is a subset of r that contains all the tuples in r which
//! have the same value on each attribute in s." ID-functions are chosen per
//! sub-relation, so grouping is the first step of every tid assignment.

use std::hash::Hasher;

use idlog_common::{FxHasher, IdTable, Interner, Tuple};

use crate::relation::{RankKeys, Relation};

/// A relation partitioned into sub-relations by a grouping attribute set.
///
/// Groups and the tuples inside each group are kept in canonical order so
/// that group index `g` and member rank `k` are stable, deterministic
/// coordinates for enumeration and for the canonical tid oracle.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// 0-based grouping positions, ascending.
    positions: Vec<usize>,
    /// Groups in canonical key order; each group's tuples in canonical order.
    groups: Vec<(Tuple, Vec<Tuple>)>,
}

impl Grouping {
    /// The grouping positions (0-based, ascending).
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of sub-relations.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Iterate `(key, members)` pairs in canonical key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &[Tuple])> {
        self.groups.iter().map(|(k, ts)| (k, ts.as_slice()))
    }

    /// The members of group `g` (canonical order).
    pub fn group(&self, g: usize) -> &[Tuple] {
        &self.groups[g].1
    }

    /// Sizes of all groups, in group order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|(_, ts)| ts.len()).collect()
    }
}

/// Partition `rel` into sub-relations grouped by `positions` (0-based).
///
/// Positions are deduplicated and sorted; an empty position set yields a
/// single group containing the whole relation (the paper's most primitive
/// ID-predicate `p[∅]`).
pub fn group_by(rel: &Relation, positions: &[usize], interner: &Interner) -> Grouping {
    let mut rows = RowGroups::new(rel, positions, interner);
    let order = rows.canonical_order();
    for &g in &order {
        rows.sort_members(g);
    }
    let tuples = rows.tuples();
    let groups = order
        .into_iter()
        .map(|g| {
            let members = rows.members(g);
            let key = tuples[members[0] as usize].project(&rows.positions);
            let members = members.iter().map(|&r| tuples[r as usize].clone());
            (key, members.collect())
        })
        .collect();
    Grouping {
        positions: rows.positions,
        groups,
    }
}

/// Tid of a row that gets none: its tid would be at or above the bound.
const DROPPED: i64 = -1;

/// The grouping core: a relation's *row ids* (positions in scan order)
/// partitioned into sub-relations. No tuple is cloned, hashed or compared —
/// rows are told apart by the integer keys of [`RankKeys`], the ranking
/// [`crate::CanonicalView`] sorts by.
pub(crate) struct RowGroups<'a> {
    ranked: RankKeys<'a>,
    /// 0-based grouping positions, ascending.
    positions: Vec<usize>,
    /// Row ids bucketed by group; group `g` owns
    /// `rows[starts[g]..starts[g + 1]]`, in scan order until sorted.
    rows: Vec<u32>,
    starts: Vec<u32>,
}

impl<'a> RowGroups<'a> {
    pub(crate) fn new(rel: &'a Relation, positions: &[usize], interner: &Interner) -> Self {
        let mut positions: Vec<usize> = positions.to_vec();
        positions.sort_unstable();
        positions.dedup();
        let ranked = rel.rank_keys(interner);

        // Number the groups in first-seen order: `first[g]` is the row that
        // stands for group `g`'s key.
        let n = ranked.len() as u32;
        let mut groups = IdTable::new();
        let mut first: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(ranked.len());
        for row in 0..n {
            let key = ranked.key(row);
            let mut h = FxHasher::default();
            for &p in &positions {
                h.write_u8(key[p].0);
                h.write_u64(key[p].1 as u64);
            }
            let (g, new) = groups.find_or_push(h.finish(), |g| {
                let other = ranked.key(first[g as usize]);
                positions.iter().all(|&p| other[p] == key[p])
            });
            if new {
                first.push(row);
            }
            group_of.push(g);
        }

        // Counting sort of the row ids by group.
        let mut starts = vec![0u32; first.len() + 1];
        for &g in &group_of {
            starts[g as usize + 1] += 1;
        }
        for g in 0..first.len() {
            starts[g + 1] += starts[g];
        }
        let mut fill = starts.clone();
        let mut rows = vec![0u32; ranked.len()];
        for (row, &g) in group_of.iter().enumerate() {
            rows[fill[g as usize] as usize] = row as u32;
            fill[g as usize] += 1;
        }
        RowGroups {
            ranked,
            positions,
            rows,
            starts,
        }
    }

    /// Number of sub-relations.
    pub(crate) fn group_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The tuples in scan order (index = row id).
    pub(crate) fn tuples(&self) -> &[&'a Tuple] {
        self.ranked.tuples()
    }

    /// The grouping positions (0-based, ascending).
    pub(crate) fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Where group `g`'s members sit in `rows`.
    fn span(&self, g: usize) -> std::ops::Range<usize> {
        self.starts[g] as usize..self.starts[g + 1] as usize
    }

    fn members(&self, g: usize) -> &[u32] {
        &self.rows[self.span(g)]
    }

    /// Put group `g`'s members in canonical order.
    fn sort_members(&mut self, g: usize) {
        let (span, ranked) = (self.span(g), &self.ranked);
        self.rows[span].sort_unstable_by(|&a, &b| ranked.key(a).cmp(ranked.key(b)));
    }

    /// The group indices in canonical order of their keys.
    fn canonical_order(&self) -> Vec<usize> {
        let key_of = |g: usize| {
            let key = self.ranked.key(self.members(g)[0]);
            self.positions.iter().map(move |&p| key[p])
        };
        let mut order: Vec<usize> = (0..self.group_count()).collect();
        order.sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)));
        order
    }

    /// Tid per row id under the canonical ID-functions — a member's tid is
    /// its canonical rank in its group — keeping only tids below `bound`.
    /// A bounded group is not sorted: its `bound` smallest members are
    /// selected (for `bound` 1, a running minimum) and only they are ranked.
    pub(crate) fn canonical_tids(&mut self, bound: Option<usize>) -> Vec<i64> {
        let mut tids = vec![DROPPED; self.rows.len()];
        for g in 0..self.group_count() {
            let (span, ranked) = (self.span(g), &self.ranked);
            let by_key = |a: &u32, b: &u32| ranked.key(*a).cmp(ranked.key(*b));
            let members = &mut self.rows[span];
            let keep = bound.map_or(members.len(), |k| k.min(members.len()));
            if keep == 0 {
                continue;
            }
            if keep < members.len() {
                members.select_nth_unstable_by(keep - 1, by_key);
            }
            members[..keep].sort_unstable_by(by_key);
            for (rank, &row) in members[..keep].iter().enumerate() {
                tids[row as usize] = rank as i64;
            }
        }
        tids
    }

    /// Tid per row id when `perm_of(size)[k]` is the tid of a group's `k`-th
    /// canonical member, keeping only tids below `bound`. `perm_of` is
    /// called once per group in canonical key order, whatever the bound, so
    /// a stateful source (a seeded generator) hands every group the
    /// permutation it would get unbounded.
    pub(crate) fn permuted_tids(
        &mut self,
        mut perm_of: impl FnMut(usize) -> Vec<i64>,
        bound: Option<usize>,
    ) -> Vec<i64> {
        let mut tids = vec![DROPPED; self.rows.len()];
        let limit = bound.map_or(i64::MAX, |k| i64::try_from(k).unwrap_or(i64::MAX));
        for g in self.canonical_order() {
            self.sort_members(g);
            let members = self.members(g);
            let perm = perm_of(members.len());
            debug_assert_eq!(perm.len(), members.len(), "one tid per member");
            for (&row, &tid) in members.iter().zip(&perm) {
                if tid < limit {
                    tids[row as usize] = tid;
                }
            }
        }
        tids
    }
}

/// The rows of `tids` (see [`RowGroups::canonical_tids`]) that kept a tid,
/// in scan order.
pub(crate) fn kept(tids: &[i64]) -> impl Iterator<Item = (usize, i64)> + '_ {
    tids.iter()
        .enumerate()
        .filter(|&(_, &tid)| tid != DROPPED)
        .map(|(row, &tid)| (row, tid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Value;

    fn example1_relation(i: &Interner) -> Relation {
        // Paper Example 1: r = {(a,c), (a,d), (b,c)}.
        let mut r = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    #[test]
    fn example1_groups_by_first_attribute() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0], &i);
        // Paper: sub-relations are {(a,c),(a,d)} and {(b,c)}.
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.group_sizes(), vec![2, 1]);
    }

    #[test]
    fn empty_grouping_is_one_group() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[], &i);
        assert_eq!(g.group_count(), 1);
        assert_eq!(g.group(0).len(), 3);
    }

    #[test]
    fn grouping_by_all_attrs_is_singletons() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0, 1], &i);
        assert_eq!(g.group_count(), 3);
        assert!(g.group_sizes().iter().all(|&n| n == 1));
    }

    #[test]
    fn positions_are_deduped_and_sorted() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[1, 0, 1], &i);
        assert_eq!(g.positions(), &[0, 1]);
    }

    #[test]
    fn groups_and_members_in_canonical_order() {
        let i = Interner::new();
        // Intern "z" before "a" so raw id order disagrees with name order.
        let mut r = Relation::elementary(2);
        for (x, y) in [("z", "q"), ("a", "q"), ("a", "p")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        let g = group_by(&r, &[0], &i);
        let keys: Vec<String> = g
            .iter()
            .map(|(k, _)| i.resolve(k[0].as_sym().unwrap()))
            .collect();
        assert_eq!(keys, ["a", "z"]);
        // Within group "a": (a,p) before (a,q).
        let members = g.group(0);
        assert_eq!(i.resolve(members[0][1].as_sym().unwrap()), "p");
        assert_eq!(i.resolve(members[1][1].as_sym().unwrap()), "q");
    }

    #[test]
    fn empty_relation_has_no_groups() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        let g = group_by(&r, &[0], &i);
        assert_eq!(g.group_count(), 0);
    }
}
