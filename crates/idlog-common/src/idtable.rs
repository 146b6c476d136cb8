//! A hash → dense-id table that stores no keys.
//!
//! The keys live with the caller, addressed by the dense ids this table hands
//! out (`0, 1, 2, …` in first-insert order); the table keeps one `u32` per
//! id and one map entry per distinct hash. Ids whose keys share a 64-bit
//! hash form a chain, and the caller's equality closure picks the right
//! link. The [`crate::Interner`] keeps its names this way (one allocation
//! per symbol, growth rehashes integers instead of strings), and
//! `idlog-storage` partitions relation rows into sub-relations with it.

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
}
