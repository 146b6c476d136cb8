//! Sub-relations grouped by an attribute set.
//!
//! The paper (§2.1): "A *sub-relation* of a relation r grouped by a set s of
//! attributes of r is a subset of r that contains all the tuples in r which
//! have the same value on each attribute in s." ID-functions are chosen per
//! sub-relation, so grouping is the first step of every tid assignment.
//!
//! A relation's grouping on `s` is a `GroupIndex`: the row ids of each
//! sub-relation, in canonical order. It is a function of the relation's
//! content and its symbols' names, which never change once interned, so a
//! relation builds it once per version and keeps it
//! (`Relation::group_index`): every [`group_by`], assignment and ID-relation
//! build on an unchanged relation reads it, and none of them regroups,
//! re-ranks or copies a row. A write drops it.

use std::sync::atomic::{AtomicU64, Ordering};

use idlog_common::{Interner, Value};

use crate::relation::Relation;

/// A relation's sub-relations on one grouping set, borrowed from its
/// `GroupIndex`: groups in canonical key order, each group's members in
/// canonical order, as row ids (positions in [`Relation::rows`]) or rows.
/// Group `g` and member rank `k` are the stable coordinates of enumeration
/// and of the canonical tid oracle. Nothing is copied.
#[derive(Clone, Copy, Debug)]
pub struct Grouping<'a> {
    rel: &'a Relation,
    positions: &'a [usize],
    pub(crate) index: &'a GroupIndex,
}

impl<'a> Grouping<'a> {
    /// The grouping positions (0-based, ascending).
    pub fn positions(&self) -> &'a [usize] {
        self.positions
    }

    /// Number of sub-relations.
    pub fn group_count(&self) -> usize {
        self.index.len()
    }

    /// Sizes of all groups, in group order.
    pub fn group_sizes(&self) -> impl Iterator<Item = usize> + 'a {
        self.index.groups().map(<[u32]>::len)
    }

    /// The row ids of group `g`'s members, in canonical order.
    pub fn members(&self, g: usize) -> &'a [u32] {
        self.index.groups().nth(g).unwrap_or_default()
    }

    /// The rows of group `g`'s members, in canonical order.
    pub fn rows(&self, g: usize) -> impl Iterator<Item = &'a [Value]> + 'a {
        let rel = self.rel;
        self.members(g)
            .iter()
            .filter_map(move |&row| rel.rows().nth(row as usize))
    }
}

/// Partition `rel` into sub-relations grouped by `positions` (0-based).
///
/// Positions are deduplicated and sorted; an empty position set yields a
/// single group containing the whole relation (the paper's most primitive
/// ID-predicate `p[∅]`). Reads the relation's `GroupIndex`, building it on
/// the first request.
pub fn group_by<'a>(rel: &'a Relation, positions: &[usize], interner: &Interner) -> Grouping<'a> {
    let (positions, index) = rel.group_index(positions, interner);
    Grouping {
        rel,
        positions,
        index,
    }
}

/// Numbers every `GroupIndex` build, from 1.
static BUILDS: AtomicU64 = AtomicU64::new(1);

/// A relation's sub-relations on one grouping set, as *row ids* (positions
/// in scan order): groups in canonical key order, each group's members in
/// canonical order. Nothing else is stored — no tuple is cloned, and no
/// name or key is kept once the order is known.
#[derive(Clone, Debug)]
pub(crate) struct GroupIndex {
    /// Row ids bucketed by group; group `g` owns
    /// `rows[starts[g]..starts[g + 1]]`.
    rows: Vec<u32>,
    starts: Vec<u32>,
    /// This build's number. A clone carries it with the rows it numbers,
    /// and a write drops both, so a choice of ID-functions laid out on one
    /// index is read against no other (`crate::IdAssignment`).
    pub(crate) stamp: u64,
}

impl GroupIndex {
    /// Sort the rows on the grouping columns first and then on the others
    /// in column order — the keys' canonical order and, within a key, the
    /// members' — with the packed integer keys of [`crate::CanonicalView`].
    /// A group is then a run of rows with equal grouping columns.
    pub(crate) fn build(rel: &Relation, positions: &[usize], interner: &Interner) -> Self {
        let rest = (0..rel.arity()).filter(|c| !positions.contains(c));
        let columns: Vec<usize> = positions.iter().copied().chain(rest).collect();
        let view = rel.view_by(&columns, interner);
        let mut rows = Vec::with_capacity(view.len());
        let mut starts = Vec::new();
        for pos in 0..view.len() {
            let same_key = pos > 0
                && positions
                    .iter()
                    .all(|&p| view.part(pos, p) == view.part(pos - 1, p));
            if !same_key {
                starts.push(pos as u32);
            }
            rows.push(view.row(pos) as u32);
        }
        starts.push(rows.len() as u32);
        GroupIndex {
            rows,
            starts,
            stamp: BUILDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of sub-relations.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The size of the largest group.
    pub(crate) fn largest(&self) -> usize {
        self.groups().map(<[u32]>::len).max().unwrap_or(0)
    }

    /// Each group's member row ids: groups in canonical key order, members
    /// in canonical order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(g.group_sizes().collect::<Vec<_>>(), [2, 1]);
    }

    #[test]
    fn empty_grouping_is_one_group() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[], &i);
        assert_eq!(g.group_count(), 1);
        assert_eq!(g.members(0).len(), 3);
        assert_eq!(g.rows(0).count(), 3);
    }

    #[test]
    fn grouping_by_all_attrs_is_singletons() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0, 1], &i);
        assert_eq!(g.group_count(), 3);
        assert!(g.group_sizes().all(|n| n == 1));
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
        let name = |row: &[Value], c: usize| i.resolve(row[c].as_sym().unwrap());
        let keys: Vec<String> = (0..g.group_count())
            .map(|k| name(g.rows(k).next().unwrap(), 0))
            .collect();
        assert_eq!(keys, ["a", "z"]);
        // Within group "a": (a,p) before (a,q), at row ids 2 and 1.
        let members: Vec<String> = g.rows(0).map(|row| name(row, 1)).collect();
        assert_eq!(members, ["p", "q"]);
        assert_eq!(g.members(0), [2, 1]);
    }

    #[test]
    fn empty_relation_has_no_groups() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        let g = group_by(&r, &[0], &i);
        assert_eq!(g.group_count(), 0);
    }
}
