//! A hash → dense-id table that stores no keys.
//!
//! The keys live with the caller, addressed by the dense ids this table hands
//! out (`0, 1, 2, …` in first-insert order); the table keeps one `u32` per
//! id and one map entry per distinct hash. Ids whose keys share a 64-bit
//! hash form a chain, and the caller's equality closure picks the right
//! link. The [`crate::Interner`] keeps its names this way (the names sit
//! in one arena, growth rehashes integers instead of strings), and
//! `idlog-storage` partitions relation rows into sub-relations with it and
//! finds a stored tuple's offset with it. A caller that removes a key by
//! moving its last key into the hole tells the table with
//! [`IdTable::swap_remove`], so ids stay dense without a rebuild.

use crate::fxhash::FxHashMap;

const NONE: u32 = u32::MAX;

/// Dense ids indexed by a caller-supplied hash; see the module docs.
#[derive(Debug, Default, Clone)]
pub struct IdTable {
    /// First id of each hash's chain.
    heads: FxHashMap<u64, u32>,
    /// `next[id]`: the next id whose key has the same hash, or `NONE`.
    next: Vec<u32>,
}

/// [`crate::FxHasher`] returns the raw product, whose well-mixed bits are
/// the high ones, and a `HashMap` picks buckets from the low ones: for
/// names of at most eight bytes those are a function of the name's *first
/// characters*, and `n417_23`, `n418_7`, … pile onto a few buckets.
/// Swapping the halves puts the mixed bits where the map looks.
#[inline]
fn spread(hash: u64) -> u64 {
    hash.rotate_left(32)
}

impl IdTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids handed out.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True when no id has been handed out.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The id registered under `hash` whose key `is_key` accepts.
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut id = *self.heads.get(&spread(hash))?;
        while id != NONE {
            if is_key(id) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// [`IdTable::find`], registering the next dense id under `hash` when no
    /// key matches. Returns the id and whether it is new — the caller then
    /// stores the key at that index.
    pub fn find_or_push(&mut self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> (u32, bool) {
        let new = u32::try_from(self.next.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("too many ids for a u32 table");
        let mut id = *self.heads.entry(spread(hash)).or_insert(new);
        while id != new {
            if is_key(id) {
                return (id, false);
            }
            let link = &mut self.next[id as usize];
            if *link == NONE {
                *link = new;
            }
            id = *link;
        }
        self.next.push(NONE);
        (new, true)
    }

    /// Drop `id`, registered under `hash`, and give the last id — registered
    /// under `last_hash` — the number `id`: the table's half of the caller
    /// moving its last key into the hole `id` leaves (`Vec::swap_remove`).
    /// Ids stay dense, and the work is a walk of the two chains.
    pub fn swap_remove(&mut self, id: u32, hash: u64, last_hash: u64) {
        let last = self.next.len().checked_sub(1).expect("a table with ids") as u32;
        assert!(id <= last, "id {id} was never handed out");
        let after = self.next[id as usize];
        let key = spread(hash);
        let head = *self
            .heads
            .get(&key)
            .expect("`id` is registered under `hash`");
        if head != id {
            *self.link_after(head, id) = after;
        } else if after == NONE {
            self.heads.remove(&key);
        } else {
            self.heads.insert(key, after);
        }
        if id != last {
            let key = spread(last_hash);
            let head = *self
                .heads
                .get(&key)
                .expect("the last id is registered under `last_hash`");
            if head == last {
                self.heads.insert(key, id);
            } else {
                *self.link_after(head, last) = id;
            }
            self.next[id as usize] = self.next[last as usize];
        }
        self.next.pop();
    }

    /// The `next` slot that points at `id`, walking its chain from `head`.
    fn link_after(&mut self, head: u32, id: u32) -> &mut u32 {
        let mut at = head;
        while self.next[at as usize] != id {
            at = self.next[at as usize];
            assert_ne!(at, NONE, "id {id} is not on the chain");
        }
        &mut self.next[at as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_insert_order() {
        let keys = [30u64, 10, 20, 10, 30, 40];
        let mut stored: Vec<u64> = Vec::new();
        let mut t = IdTable::new();
        let ids: Vec<u32> = keys
            .iter()
            .map(|&k| {
                let (id, new) = t.find_or_push(k, |id| stored[id as usize] == k);
                if new {
                    stored.push(k);
                }
                id
            })
            .collect();
        assert_eq!(ids, [0, 1, 2, 1, 0, 3]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.find(20, |id| stored[id as usize] == 20), Some(2));
        assert_eq!(t.find(50, |_| true), None);
    }

    #[test]
    fn keys_sharing_a_hash_chain_and_all_resolve() {
        let mut stored: Vec<&str> = Vec::new();
        let mut t = IdTable::new();
        for name in ["a", "b", "c", "b"] {
            // Every key on one hash: the chain does all the work.
            let (id, new) = t.find_or_push(7, |id| stored[id as usize] == name);
            assert_eq!(new, id as usize == stored.len());
            if new {
                stored.push(name);
            }
        }
        assert_eq!(stored, ["a", "b", "c"]);
        for (want, name) in stored.iter().enumerate() {
            assert_eq!(
                t.find(7, |id| stored[id as usize] == *name),
                Some(want as u32)
            );
        }
        assert_eq!(t.find(7, |_| false), None);
    }

    /// Keys stored densely beside a table, removed the way a store does it:
    /// `Vec::swap_remove` plus [`IdTable::swap_remove`].
    struct Dense {
        table: IdTable,
        keys: Vec<u64>,
        hash: fn(u64) -> u64,
    }

    impl Dense {
        fn new(keys: impl IntoIterator<Item = u64>, hash: fn(u64) -> u64) -> Self {
            let mut d = Dense {
                table: IdTable::new(),
                keys: Vec::new(),
                hash,
            };
            for k in keys {
                let (_, new) = d.table.find_or_push(hash(k), |id| d.keys[id as usize] == k);
                assert!(new);
                d.keys.push(k);
            }
            d
        }

        fn find(&self, k: u64) -> Option<u32> {
            self.table
                .find((self.hash)(k), |id| self.keys[id as usize] == k)
        }

        fn remove(&mut self, k: u64) {
            let id = self.find(k).expect("stored");
            let last = *self.keys.last().unwrap();
            self.table
                .swap_remove(id, (self.hash)(k), (self.hash)(last));
            self.keys.swap_remove(id as usize);
        }

        /// Every stored key resolves to its own index, every removed one
        /// to nothing, and the ids are exactly the indexes.
        fn check(&self, removed: &[u64]) {
            assert_eq!(self.table.len(), self.keys.len());
            for (id, &k) in self.keys.iter().enumerate() {
                assert_eq!(self.find(k), Some(id as u32), "key {k}");
            }
            for &k in removed {
                assert_eq!(self.find(k), None, "removed key {k}");
            }
        }
    }

    #[test]
    fn swap_remove_keeps_ids_dense_on_one_chain() {
        // One constant hash: all keys share a chain, so every removal
        // unlinks from it and renames on it. Head, middle, tail, the last
        // id itself, and down to empty.
        for order in [[0u64, 2, 4, 1, 3], [4, 3, 2, 1, 0], [2, 0, 4, 3, 1]] {
            let mut d = Dense::new(0..5, |_| 7);
            let mut removed = Vec::new();
            for k in order {
                d.remove(k);
                removed.push(k);
                d.check(&removed);
            }
            assert!(d.table.is_empty());
            // An emptied chain takes keys again.
            let (id, new) = d.table.find_or_push(7, |_| false);
            assert_eq!((id, new), (0, true));
        }
    }

    #[test]
    fn swap_remove_renames_the_last_id_across_chains() {
        // Hash = key mod 3: three interleaved chains, ids ascending on each.
        let mut d = Dense::new(0..12, |k| k % 3);
        let mut removed = Vec::new();
        // The head of chain 0 (key 0, id 0): key 11 — chain 2's tail —
        // becomes id 0 and heads nothing; its chain's link is renamed.
        d.remove(0);
        removed.push(0);
        d.check(&removed);
        assert_eq!(d.find(11), Some(0));
        // A middle link (key 4 on chain 1), then a tail (key 9 on chain 0).
        for k in [4, 9] {
            d.remove(k);
            removed.push(k);
            d.check(&removed);
        }
        // The last id itself: nothing is renamed.
        let last = *d.keys.last().unwrap();
        d.remove(last);
        removed.push(last);
        d.check(&removed);
        // Removed keys come back as the newest ids.
        for &k in &removed {
            let (id, new) = d.table.find_or_push(k % 3, |id| d.keys[id as usize] == k);
            assert!(new);
            assert_eq!(id as usize, d.keys.len());
            d.keys.push(k);
        }
        d.check(&[]);
    }

    #[test]
    fn swap_remove_of_a_chain_head_whose_successor_is_last() {
        // The removed head's chain goes on; the last id heads a chain of
        // its own and takes the freed number there.
        let mut d = Dense::new([10, 20, 30], |k| if k == 30 { 1 } else { 0 });
        d.remove(10);
        d.check(&[10]);
        assert_eq!(d.find(30), Some(0));
        assert_eq!(d.find(20), Some(1));
        // The removed head's successor is the last id: it becomes the head
        // and is renamed in the same step.
        let mut d = Dense::new([10, 20], |_| 0);
        d.remove(10);
        d.check(&[10]);
        assert_eq!(d.find(20), Some(0));
    }
}
