//! Enumeration of all ID-functions of a relation on a grouping set.
//!
//! A relation with sub-relation sizes `n₁ … n_k` has `∏ nᵢ!` ID-relations
//! (paper Example 1: sizes 2 and 1 give 2·1 = 2). Enumeration walks the
//! cartesian product of per-group permutations in lexicographic order; the
//! first assignment yielded is the canonical one. Both iterators read the
//! group sizes off the relation's group index once, keep one choice as
//! their state, and yield each [`IdAssignment`] as they reach it, so a walk
//! holds one assignment at a time however many there are.

use idlog_common::Interner;

use crate::group::group_by;
use crate::idrel::IdAssignment;
use crate::relation::Relation;

/// Number of ID-functions of `rel` on `positions`, saturating at `u128::MAX`:
/// the k-prefix arrangements for a `k` no group reaches.
pub fn count_id_functions(rel: &Relation, positions: &[usize], interner: &Interner) -> u128 {
    count_bounded_assignments(rel, positions, usize::MAX, interner)
}

/// Iterator over every [`IdAssignment`] of a relation on a grouping set.
///
/// Yields assignments in lexicographic order of per-group permutations
/// (canonical assignment first). The iterator owns its state — the group
/// sizes and the current choice — so it stays valid after the base
/// relation is dropped.
pub struct IdAssignmentIter {
    sizes: Vec<usize>,
    /// The next choice to yield, or `None` once exhausted.
    next: Option<IdAssignment>,
}

impl IdAssignmentIter {
    /// Enumerate assignments of `rel` grouped by `positions`.
    pub fn new(rel: &Relation, positions: &[usize], interner: &Interner) -> Self {
        let sizes = group_by(rel, positions, interner).group_sizes().collect();
        let next = Some(IdAssignment::canonical(rel, positions, interner));
        IdAssignmentIter { sizes, next }
    }

    /// Advance `perm` to the next lexicographic permutation. Returns false
    /// when `perm` was the last one (it is left unchanged).
    fn next_permutation(perm: &mut [i64]) -> bool {
        if perm.len() < 2 {
            return false;
        }
        // Standard next_permutation: find the rightmost ascent.
        let mut i = perm.len() - 1;
        while i > 0 && perm[i - 1] >= perm[i] {
            i -= 1;
        }
        if i == 0 {
            return false;
        }
        let mut j = perm.len() - 1;
        while perm[j] <= perm[i - 1] {
            j -= 1;
        }
        perm.swap(i - 1, j);
        perm[i..].reverse();
        true
    }
}

impl Iterator for IdAssignmentIter {
    type Item = IdAssignment;

    fn next(&mut self) -> Option<IdAssignment> {
        let assignment = self.next.as_ref()?.clone();
        let tids = &mut self.next.as_mut()?.tids;

        // Odometer across groups: bump the last group; on wrap, reset it and
        // carry into the previous group.
        let mut end = tids.len();
        for &n in self.sizes.iter().rev() {
            let perm = &mut tids[end - n..end];
            if Self::next_permutation(perm) {
                return Some(assignment);
            }
            perm.iter_mut().zip(0..).for_each(|(tid, rank)| *tid = rank);
            end -= n;
        }
        self.next = None;
        Some(assignment)
    }
}

/// Number of *k-prefix arrangements* of `rel` on `positions`: assignments
/// that differ only in tids ≥ k are identified. `∏ m·(m−1)…(m−k+1)` over
/// group sizes `m`, saturating.
///
/// This is the enumeration space when every use of the ID-relation is known
/// to test only tids < k (the paper's footnotes 6–7: `N < 2` "ensures that
/// only two tuples of the relation emp will be used in the evaluation").
pub fn count_bounded_assignments(
    rel: &Relation,
    positions: &[usize],
    k: usize,
    interner: &Interner,
) -> u128 {
    let grouping = group_by(rel, positions, interner);
    grouping.group_sizes().fold(1u128, |acc, m| {
        let take = k.min(m);
        ((m - take + 1)..=m).fold(acc, |a, f| a.saturating_mul(f as u128))
    })
}

/// Iterator over the k-prefix arrangements of a relation on a grouping set:
/// per group, every ordered selection of `min(k, m)` members receives tids
/// `0..`, and the remaining members get the canonical completion (their
/// relative canonical order, shifted past the prefix).
///
/// Sound whenever the consumer only distinguishes tids < k: every full
/// ID-function agrees with exactly one arrangement on those tids.
pub struct BoundedAssignmentIter {
    sizes: Vec<usize>,
    k: usize,
    /// Current selection per group: ordered member indices.
    selections: Vec<Vec<usize>>,
    /// The arrangement of `selections` to yield next, or `None` once
    /// exhausted.
    next: Option<IdAssignment>,
}

impl BoundedAssignmentIter {
    /// Enumerate arrangements of `rel` grouped by `positions`, bounded by
    /// `k` distinguishable tids.
    pub fn new(rel: &Relation, positions: &[usize], k: usize, interner: &Interner) -> Self {
        let sizes: Vec<usize> = group_by(rel, positions, interner).group_sizes().collect();
        let selections = sizes.iter().map(|&m| (0..k.min(m)).collect()).collect();
        // Every group's first selection is its canonical prefix.
        let next = Some(IdAssignment::canonical(rel, positions, interner));
        BoundedAssignmentIter {
            sizes,
            k,
            selections,
            next,
        }
    }

    /// Advance `sel` to the next ordered selection (lexicographic over the
    /// index sequence, skipping repeats). Returns false at the end.
    fn next_selection(sel: &mut [usize], m: usize) -> bool {
        // Odometer over distinct-index sequences of fixed length: bump the
        // last position that can take a larger value unused before it.
        for i in (0..sel.len()).rev() {
            if let Some(v) = (sel[i] + 1..m).find(|v| !sel[..i].contains(v)) {
                sel[i] = v;
                // Reset the tail to the smallest unused values.
                for j in i + 1..sel.len() {
                    sel[j] = (0..m).find(|w| !sel[..j].contains(w)).unwrap_or(m);
                }
                return true;
            }
        }
        false
    }

    /// One group's tids under selection `sel`: selected members get tids
    /// `0..len`, the rest the canonical completion.
    fn arrange(sel: &[usize], tids: &mut [i64]) {
        tids.fill(-1);
        for (tid, &member) in sel.iter().enumerate() {
            tids[member] = tid as i64;
        }
        let unselected = tids.iter_mut().filter(|tid| **tid < 0);
        unselected
            .zip(sel.len() as i64..)
            .for_each(|(tid, next)| *tid = next);
    }
}

impl Iterator for BoundedAssignmentIter {
    type Item = IdAssignment;

    fn next(&mut self) -> Option<IdAssignment> {
        let assignment = self.next.as_ref()?.clone();
        let tids = &mut self.next.as_mut()?.tids;
        // Odometer across groups, rewriting the tids of each group it moves.
        let mut end = tids.len();
        for (&m, sel) in self.sizes.iter().zip(&mut self.selections).rev() {
            let moved = Self::next_selection(sel, m);
            if !moved {
                *sel = (0..self.k.min(m)).collect();
            }
            Self::arrange(sel, &mut tids[end - m..end]);
            if moved {
                return Some(assignment);
            }
            end -= m;
        }
        self.next = None;
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idrel::make_id_relation;
    use idlog_common::Value;

    /// Each row of `r` with the tid `a` gives it, in scan order.
    fn tids(r: &Relation, a: &IdAssignment) -> Vec<(Vec<Value>, i64)> {
        let idr = make_id_relation(r, a).unwrap();
        let arity = r.arity();
        let tid = |row: &[Value]| row[arity].as_int().unwrap();
        idr.rows()
            .map(|row| (row[..arity].to_vec(), tid(row)))
            .collect()
    }

    /// The tid `a` gives `row` of `r`.
    fn tid(r: &Relation, a: &IdAssignment, row: &[Value]) -> i64 {
        let tids = tids(r, a);
        tids.iter().find(|(t, _)| t == row).unwrap().1
    }

    fn example1_relation(i: &Interner) -> Relation {
        let mut r = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    #[test]
    fn example1_count_is_two() {
        let i = Interner::new();
        let r = example1_relation(&i);
        assert_eq!(count_id_functions(&r, &[0], &i), 2);
    }

    #[test]
    fn example1_enumerates_both_listings() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let all: Vec<IdAssignment> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(all.len(), 2);
        let t_ac = [Value::Sym(i.intern("a")), Value::Sym(i.intern("c"))];
        let t_ad = [Value::Sym(i.intern("a")), Value::Sym(i.intern("d"))];
        let t_bc = [Value::Sym(i.intern("b")), Value::Sym(i.intern("c"))];
        // Both paper listings appear, each exactly once.
        let tids: Vec<(i64, i64, i64)> = all
            .iter()
            .map(|a| (tid(&r, a, &t_ac), tid(&r, a, &t_ad), tid(&r, a, &t_bc)))
            .collect();
        assert!(tids.contains(&(0, 1, 0)));
        assert!(tids.contains(&(1, 0, 0)));
    }

    #[test]
    fn count_matches_product_of_factorials() {
        let i = Interner::new();
        // Groups of sizes 3 and 2 → 3!·2! = 12.
        let mut r = Relation::elementary(2);
        for (x, y) in [
            ("g1", "a"),
            ("g1", "b"),
            ("g1", "c"),
            ("g2", "a"),
            ("g2", "b"),
        ] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        assert_eq!(count_id_functions(&r, &[0], &i), 12);
        let all: Vec<_> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(all.len(), 12);
        // All assignments are pairwise distinct.
        for (x, a) in all.iter().enumerate() {
            for b in &all[x + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn empty_relation_has_one_trivial_assignment() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        assert_eq!(count_id_functions(&r, &[0], &i), 1);
        let all: Vec<_> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].tids().is_empty());
    }

    #[test]
    fn grouping_by_all_attrs_is_deterministic() {
        let i = Interner::new();
        let r = example1_relation(&i);
        // All groups singletons → exactly one assignment, all tids 0.
        let all: Vec<_> = IdAssignmentIter::new(&r, &[0, 1], &i).collect();
        assert_eq!(all.len(), 1);
        assert!(tids(&r, &all[0]).iter().all(|&(_, tid)| tid == 0));
    }

    #[test]
    fn first_yielded_assignment_is_canonical() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let first = IdAssignmentIter::new(&r, &[0], &i).next().unwrap();
        let canonical = IdAssignment::canonical(&r, &[0], &i);
        assert_eq!(first, canonical);
    }

    fn one_group_relation(i: &Interner, n: usize) -> Relation {
        let mut r = Relation::elementary(2);
        for k in 0..n {
            r.insert(
                vec![
                    Value::Sym(i.intern("g")),
                    Value::Sym(i.intern(&format!("m{k}"))),
                ]
                .into(),
            )
            .unwrap();
        }
        r
    }

    #[test]
    fn bounded_count_is_falling_factorial() {
        let i = Interner::new();
        let r = one_group_relation(&i, 5);
        // k=1: 5 arrangements; k=2: 5·4 = 20; k=5 (= m): 5! = 120.
        assert_eq!(count_bounded_assignments(&r, &[0], 1, &i), 5);
        assert_eq!(count_bounded_assignments(&r, &[0], 2, &i), 20);
        assert_eq!(count_bounded_assignments(&r, &[0], 5, &i), 120);
        // k larger than the group clamps to m.
        assert_eq!(count_bounded_assignments(&r, &[0], 9, &i), 120);
    }

    #[test]
    fn bounded_iter_k1_enumerates_each_leader_once() {
        let i = Interner::new();
        let r = one_group_relation(&i, 4);
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 1, &i).collect();
        assert_eq!(all.len(), 4);
        // Each member holds tid 0 in exactly one arrangement.
        let mut leaders: Vec<String> = all
            .iter()
            .map(|a| {
                let tids = tids(&r, a);
                let (t, _) = tids
                    .iter()
                    .find(|&&(_, tid)| tid == 0)
                    .expect("every group has a tid-0 tuple");
                i.resolve(t[1].as_sym().unwrap())
            })
            .collect();
        leaders.sort();
        assert_eq!(leaders, ["m0", "m1", "m2", "m3"]);
    }

    #[test]
    fn bounded_iter_k2_enumerates_ordered_pairs() {
        let i = Interner::new();
        let r = one_group_relation(&i, 4);
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 2, &i).collect();
        assert_eq!(all.len(), 12);
        // All (tid0, tid1) leader pairs distinct.
        let mut pairs: Vec<(i64, i64)> = Vec::new();
        for a in &all {
            let tids = tids(&r, a);
            let find = |tid: i64| {
                tids.iter()
                    .position(|&(_, t)| t == tid)
                    .expect("prefix tid present") as i64
            };
            pairs.push((find(0), find(1)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 12);
    }

    #[test]
    fn bounded_iter_k_equals_group_size_is_full_enumeration() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let bounded: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 2, &i).collect();
        let full: Vec<IdAssignment> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(bounded.len(), full.len());
        for a in &full {
            assert!(bounded.contains(a));
        }
    }

    #[test]
    fn bounded_iter_multiple_groups() {
        let i = Interner::new();
        // Groups of 3 and 2 with k=1 → 3 × 2 = 6 arrangements.
        let mut r = Relation::elementary(2);
        for (g, m) in [("a", "x"), ("a", "y"), ("a", "z"), ("b", "x"), ("b", "y")] {
            r.insert(vec![Value::Sym(i.intern(g)), Value::Sym(i.intern(m))].into())
                .unwrap();
        }
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 1, &i).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(count_bounded_assignments(&r, &[0], 1, &i), 6);
    }

    #[test]
    fn bounded_iter_on_empty_relation() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 1, &i).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].tids().is_empty());
    }
}
