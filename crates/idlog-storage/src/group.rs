//! Sub-relations grouped by an attribute set.
//!
//! The paper (§2.1): "A *sub-relation* of a relation r grouped by a set s of
//! attributes of r is a subset of r that contains all the tuples in r which
//! have the same value on each attribute in s." ID-functions are chosen per
//! sub-relation, so grouping is the first step of every tid assignment.
//!
//! A relation's grouping on `s` is a `GroupIndex`. It is a function of the
//! relation's content and its symbols' names, which never change once
//! interned, so a relation builds it once per version and keeps it
//! (`Relation::group_index`): every ID-relation build, canonical or seeded,
//! and every [`group_by`] on an unchanged relation reads the same index,
//! and none of them regroups or re-ranks. A write drops it.

use idlog_common::{Interner, Tuple, Value};

use crate::relation::Relation;

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
/// ID-predicate `p[∅]`). Reads the relation's `GroupIndex`.
pub fn group_by(rel: &Relation, positions: &[usize], interner: &Interner) -> Grouping {
    let (positions, index) = rel.group_index(positions, interner);
    let rows: Vec<&[Value]> = rel.rows().collect();
    let groups = index
        .groups()
        .map(|members| {
            let first = rows[members[0] as usize];
            let key = positions.iter().map(|&p| first[p]).collect();
            let members = members.iter().map(|&r| Tuple::from(rows[r as usize]));
            (key, members.collect())
        })
        .collect();
    Grouping {
        positions: positions.to_vec(),
        groups,
    }
}

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
        GroupIndex { rows, starts }
    }

    /// Number of sub-relations.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
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
