//! Sub-relations grouped by an attribute set.
//!
//! The paper (§2.1): "A *sub-relation* of a relation r grouped by a set s of
//! attributes of r is a subset of r that contains all the tuples in r which
//! have the same value on each attribute in s." ID-functions are chosen per
//! sub-relation, so grouping is the first step of every tid assignment.

use idlog_common::{FxHashMap, Interner, Tuple};

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
/// ID-predicate `p[∅]`).
pub fn group_by(rel: &Relation, positions: &[usize], interner: &Interner) -> Grouping {
    let mut pos: Vec<usize> = positions.to_vec();
    pos.sort_unstable();
    pos.dedup();

    let mut map: FxHashMap<Tuple, Vec<Tuple>> = FxHashMap::default();
    for t in rel.iter() {
        map.entry(t.project(&pos)).or_default().push(t.clone());
    }
    let mut groups: Vec<(Tuple, Vec<Tuple>)> = map.into_iter().collect();
    groups.sort_by(|(a, _), (b, _)| a.cmp_canonical(b, interner));
    for (_, members) in &mut groups {
        members.sort_by(|a, b| a.cmp_canonical(b, interner));
    }
    Grouping {
        positions: pos,
        groups,
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
