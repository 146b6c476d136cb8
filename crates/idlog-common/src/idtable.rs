//! A hash → dense-id table that stores no keys.
//!
//! The keys live with the caller, addressed by the dense ids this table hands
//! out (`0, 1, 2, …` in first-insert order). The [`crate::Interner`] keeps
//! its names this way (the names sit in one arena, and the table holds
//! integers, never strings), and `idlog-storage`'s hash backend finds a stored row's
//! offset with it. A caller that removes a key by moving its last key into
//! the hole tells the table with [`IdTable::swap_remove`], so ids stay dense
//! without a rebuild.
//!
//! The table is one open-addressed array of 8-byte slots, a power of two
//! long and at most half full. A full slot holds the high 32 bits of its
//! key's hash (the *tag*) above the key's id. A lookup probes linearly from
//! the tag's *home* slot, the tag's top `log2(slots)` bits, to the first
//! empty slot. A removal shifts the rest of its cluster back instead of
//! leaving a tombstone.
//!
//! **Growth holds one array.** Doubling frees the old slots first, then
//! places ids `0..len` in the new ones by the hash of each id's key, which
//! the caller's `rehash` closure computes from its own store. So at no
//! moment do two arrays exist: a table of 2²⁰ slots grows to 2²¹ with 16 MiB
//! live, not 24. The price is one hash per id per doubling — amortized, one
//! more hash per push.
//!
//! **The tag contract.** The table keeps 32 bits of each hash, so keys whose
//! hashes share their high halves look alike to it, and the caller's
//! `is_key` closure is asked about every id with a matching tag: it must
//! compare the caller's key, never accept on sight. The high bits pick the
//! home slot too, so they must be the hash's well-mixed ones, as
//! [`crate::FxHasher`]'s are; and `rehash` must give the hash the key was
//! registered under.

/// An empty slot: no full slot has an id of `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Ids stay below 2³¹, so a half-full table has at most 2³² slots and a home
/// slot never needs more bits than a tag has.
const MAX_IDS: usize = 1 << 31;

/// Slots allocated by the first push.
const MIN_SLOTS: usize = 8;

/// Dense ids indexed by a caller-supplied hash; see the module docs.
#[derive(Debug, Default, Clone)]
pub struct IdTable {
    /// `tag << 32 | id` in each full slot, [`EMPTY`] elsewhere; no slots
    /// until the first push, a power of two of them after.
    slots: Vec<u64>,
    /// Ids handed out.
    len: usize,
}

/// The part of `hash` the table keeps.
#[inline]
fn tag(hash: u64) -> u64 {
    hash >> 32
}

/// A full slot.
#[inline]
fn slot(tag: u64, id: u32) -> u64 {
    (tag << 32) | u64::from(id)
}

impl IdTable {
    /// An empty table. It allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids handed out.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id has been handed out.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id registered under `hash` whose key `is_key` accepts.
    pub fn find(&self, hash: u64, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let at = self.probe(tag(hash), is_key).ok()?;
        Some(self.slots[at] as u32)
    }

    /// [`IdTable::find`], registering the next dense id under `hash` when no
    /// key matches. Returns the id and whether it is new — the caller then
    /// stores the key at that index. When the push doubles the table,
    /// `rehash(id)` gives the hash of every stored id's key, read from the
    /// caller's store (see the module docs).
    pub fn find_or_push(
        &mut self,
        hash: u64,
        is_key: impl FnMut(u32) -> bool,
        rehash: impl FnMut(u32) -> u64,
    ) -> (u32, bool) {
        let tag = tag(hash);
        let mut at = match self.probe(tag, is_key) {
            Ok(at) => return (self.slots[at] as u32, false),
            Err(vacant) => vacant,
        };
        assert!(self.len < MAX_IDS, "too many ids for a u32 table");
        let id = self.len as u32;
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(rehash);
            at = self.vacant(tag);
        }
        self.slots[at] = slot(tag, id);
        self.len += 1;
        (id, true)
    }

    /// Drop `id`, registered under `hash`, and give the last id — registered
    /// under `last_hash` — the number `id`: the table's half of the caller
    /// moving its last key into the hole `id` leaves (`Vec::swap_remove`).
    /// Ids stay dense, and the work is a walk of the two clusters.
    pub fn swap_remove(&mut self, id: u32, hash: u64, last_hash: u64) {
        let last = self.len.checked_sub(1).expect("a table with ids") as u32;
        assert!(id <= last, "id {id} was never handed out");
        let at = self.slot_of(id, hash);
        self.vacate(at);
        if id != last {
            let at = self.slot_of(last, last_hash);
            self.slots[at] = slot(tag(last_hash), id);
        }
        self.len -= 1;
    }

    /// `log2(slots)` top bits of `tag`: where its probe starts.
    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot of the id under `tag` that `is_key` accepts, or else the
    /// empty slot the probe ended at (`0` when there are no slots).
    #[inline]
    fn probe(&self, tag: u64, mut is_key: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(tag);
        loop {
            match self.slots[at] {
                EMPTY => return Err(at),
                full if full >> 32 == tag && is_key(full as u32) => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Where a slot under `tag`, known to be absent, goes.
    fn vacant(&self, tag: u64) -> usize {
        self.probe(tag, |_| false)
            .expect_err("a table at most half full has an empty slot")
    }

    /// The slot holding `id`, registered under `hash`.
    fn slot_of(&self, id: u32, hash: u64) -> usize {
        self.probe(tag(hash), |found| found == id)
            .unwrap_or_else(|_| panic!("id {id} is not registered under its hash"))
    }

    /// Double the slots — or allocate the first [`MIN_SLOTS`] — and place
    /// ids `0..len` by the hashes `rehash` gives. The old slots are freed
    /// before the new ones are allocated.
    fn grow(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots = Vec::new();
        self.slots = vec![EMPTY; len];
        for id in 0..self.len as u32 {
            let tag = tag(rehash(id));
            let at = self.vacant(tag);
            self.slots[at] = slot(tag, id);
        }
    }

    /// Empty the slot at `hole`, moving back each later slot of its cluster
    /// whose probe would otherwise stop at the gap.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut at = (hole + 1) & mask;
        while self.slots[at] != EMPTY {
            // The slot may fill the hole unless its home lies after the
            // hole on the way to `at`.
            let home = self.home(self.slots[at] >> 32);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at];
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.slots[hole] = EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn ids_are_dense_in_first_insert_order() {
        let keys = [30u64, 10, 20, 10, 30, 40];
        let mut stored: Vec<u64> = Vec::new();
        let mut t = IdTable::new();
        let ids: Vec<u32> = keys
            .iter()
            .map(|&k| {
                let (id, new) =
                    t.find_or_push(k, |id| stored[id as usize] == k, |id| stored[id as usize]);
                if new {
                    stored.push(k);
                }
                id
            })
            .collect();
        assert_eq!(ids, [0, 1, 2, 1, 0, 3]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.find(20, |id| stored[id as usize] == 20), Some(2));
        assert_eq!(t.find(50, |id| stored[id as usize] == 50), None);
    }

    #[test]
    fn keys_sharing_a_hash_chain_and_all_resolve() {
        let mut stored: Vec<&str> = Vec::new();
        let mut t = IdTable::new();
        for name in ["a", "b", "c", "b"] {
            // Every key on one hash: the chain does all the work.
            let (id, new) = t.find_or_push(7, |id| stored[id as usize] == name, |_| 7);
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
                let (_, new) = d.table.find_or_push(
                    hash(k),
                    |id| d.keys[id as usize] == k,
                    |id| hash(d.keys[id as usize]),
                );
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
            let (id, new) = d.table.find_or_push(7, |_| false, |_| 7);
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
            let (id, new) = d.table.find_or_push(
                k % 3,
                |id| d.keys[id as usize] == k,
                |id| d.keys[id as usize] % 3,
            );
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

    /// Hashes that corner the probe: every key on one tag (one cluster from
    /// slot 0), distinct tags on one home slot, clusters from the last slot
    /// that wrap past the end — on one tag and on many — sixteen homes, and
    /// a well-spread hash.
    const HASHES: [fn(u64) -> u64; 6] = [
        |k| k,
        |k| k << 32,
        |k| !k,
        |k| !(k << 32),
        |k| ((k % 16) << 60) | (k << 32),
        |k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ];

    const DOMAIN: u64 = 400;

    /// Every key of the domain resolves as the model says, and the table
    /// stays at most half full.
    fn agree(d: &Dense, model: &HashMap<u64, u32>) {
        assert_eq!(d.table.len(), model.len());
        assert!(2 * d.table.len() <= d.table.slots.len());
        for k in 0..DOMAIN {
            assert_eq!(d.find(k), model.get(&k).copied(), "key {k}");
        }
    }

    proptest! {
        /// Random pushes, lookups and swap-removals agree with a `HashMap`
        /// from key to dense id under every hash of [`HASHES`]. A batch
        /// pushes up to 150 keys — several doublings — before its removals.
        #[test]
        fn agrees_with_a_map_of_dense_ids(
            hash in 0usize..HASHES.len(),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec(0..DOMAIN, 0..150),
                    proptest::collection::vec(0usize..1000, 0..12),
                ),
                1..5,
            ),
        ) {
            let hash = HASHES[hash];
            let mut d = Dense::new([], hash);
            let mut model: HashMap<u64, u32> = HashMap::new();
            for (pushes, removals) in batches {
                for k in pushes {
                    let want = model
                        .get(&k)
                        .map_or((d.keys.len() as u32, true), |&id| (id, false));
                    let got = d.table.find_or_push(
                        hash(k),
                        |id| d.keys[id as usize] == k,
                        |id| hash(d.keys[id as usize]),
                    );
                    prop_assert_eq!(got, want);
                    if got.1 {
                        model.insert(k, got.0);
                        d.keys.push(k);
                    }
                }
                agree(&d, &model);
                for pick in removals {
                    if d.keys.is_empty() {
                        break;
                    }
                    let k = d.keys[pick % d.keys.len()];
                    let last = *d.keys.last().unwrap();
                    let id = model.remove(&k).unwrap();
                    if last != k {
                        model.insert(last, id);
                    }
                    d.remove(k);
                    agree(&d, &model);
                }
            }
        }
    }
}
