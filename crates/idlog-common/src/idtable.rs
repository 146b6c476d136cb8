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
//! The table is one open-addressed array of 4-byte slots, a power of two
//! long and at most half full. In a table of 2^k slots a key's *home* is
//! the top k bits of its hash: a lookup probes linearly from there to the
//! first empty slot. A full slot holds `id + 1` in its low k bits and, above
//! them, a *tag*: the 32 − k hash bits just below the home bits. `0` is the
//! empty slot, so a doubling takes zeroed memory. A removal shifts the rest
//! of its cluster back instead of leaving a tombstone.
//!
//! **A slot does not record its home.** So the table asks the caller for
//! keys' hashes: `rehash(id)` gives the hash of a stored id's key, read from
//! the caller's store. Doubling frees the old slots first, then places ids
//! `0..len` in the new ones by `rehash`, so at no moment do two arrays
//! exist: a table of 2²⁰ slots grows to 2²¹ with 8 MiB live, not 12. The
//! price is one hash per id per doubling — amortized, one more hash per
//! push. A removal rehashes the slots its backward shift walks past.
//!
//! **The tag contract.** The table keeps 32 bits of each hash (home and tag
//! together), so keys whose hashes share their high halves look alike to
//! it, and the caller's `is_key` closure is asked about every id with a
//! matching tag: it must compare the caller's key, never accept on sight.
//! The high bits pick the home slot too, so they must be the hash's
//! well-mixed ones, as [`crate::FxHasher`]'s are; and `rehash` must give the
//! hash the key was registered under.

/// The empty slot: a full slot holds `id + 1`, never `0`, in its id field.
const EMPTY: u32 = 0;

/// Ids stay below 2³¹, so a half-full table has at most 2³² slots, and the
/// k-bit id field of a table of 2^k slots holds every `id + 1`.
const MAX_IDS: usize = 1 << 31;

/// Slots allocated by the first push.
const MIN_SLOTS: usize = 8;

/// Dense ids indexed by a caller-supplied hash; see the module docs.
#[derive(Debug, Default, Clone)]
pub struct IdTable {
    /// [`encode`]d ids in full slots, [`EMPTY`] elsewhere; no slots until
    /// the first push, a power of two of them after.
    slots: Vec<u32>,
    /// Ids handed out.
    len: usize,
}

/// The id field of a slot in a table of 2^k slots, `1 ≤ k ≤ 32`: its low
/// `k` bits.
#[inline]
fn id_field(k: u32) -> u32 {
    (u64::MAX >> (64 - k)) as u32
}

/// The tag `hash` gives in a table of 2^k slots, in place above the id
/// field: the `32 − k` bits below the `k` that pick the home.
#[inline]
fn tag(k: u32, hash: u64) -> u32 {
    ((hash >> 32) << k) as u32
}

/// Where the probe for `hash` starts in a table of 2^k slots.
#[inline]
fn home(k: u32, hash: u64) -> usize {
    (hash >> (64 - k)) as usize
}

/// The full slot of `id`, registered under `hash`, in a table of 2^k
/// slots. A half-full table hands out ids below 2^(k−1).
#[inline]
fn encode(k: u32, hash: u64, id: u32) -> u32 {
    debug_assert!(u64::from(id) < 1 << (k - 1), "id {id} in a table of 2^{k}");
    tag(k, hash) | (id + 1)
}

/// The id a full slot of a table of 2^k slots holds.
#[inline]
fn decode(k: u32, slot: u32) -> u32 {
    (slot & id_field(k)) - 1
}

impl IdTable {
    /// Bytes a slot takes.
    pub const SLOT_BYTES: usize = std::mem::size_of::<u32>();

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

    /// `k` for a table of 2^k slots (`0` before the first push).
    #[inline]
    fn bits(&self) -> u32 {
        self.slots.len().trailing_zeros()
    }

    /// The id registered under `hash` whose key `is_key` accepts.
    pub fn find(&self, hash: u64, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let at = self.probe(hash, is_key).ok()?;
        Some(decode(self.bits(), self.slots[at]))
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
        let mut at = match self.probe(hash, is_key) {
            Ok(at) => return (decode(self.bits(), self.slots[at]), false),
            Err(vacant) => vacant,
        };
        assert!(self.len < MAX_IDS, "too many ids for a u32 table");
        let id = self.len as u32;
        if 2 * (self.len + 1) > self.slots.len() {
            self.resize((2 * self.slots.len()).max(MIN_SLOTS), rehash);
            at = self.vacant(hash);
        }
        self.slots[at] = encode(self.bits(), hash, id);
        self.len += 1;
        (id, true)
    }

    /// Make room for `additional` more ids: the table grows at most once,
    /// to the size pushing them one by one would end at, so no push before
    /// then doubles it. `rehash` gives a stored id's hash, as for
    /// [`IdTable::find_or_push`].
    pub fn reserve(&mut self, additional: usize, rehash: impl FnMut(u32) -> u64) {
        let ids = self.len + additional;
        assert!(ids <= MAX_IDS, "too many ids for a u32 table");
        let slots = (2 * ids).next_power_of_two().max(MIN_SLOTS);
        if additional > 0 && slots > self.slots.len() {
            self.resize(slots, rehash);
        }
    }

    /// Give back the slots a [`IdTable::reserve`] took and no push filled:
    /// shrink to the size pushing the ids one by one would have reached.
    /// True when the table shrank.
    pub fn shrink_to_fit(&mut self, rehash: impl FnMut(u32) -> u64) -> bool {
        let slots = (2 * self.len).next_power_of_two().max(MIN_SLOTS);
        let shrinks = self.len > 0 && slots < self.slots.len();
        if shrinks {
            self.resize(slots, rehash);
        }
        shrinks
    }

    /// Drop `id` and give the last id the number `id`: the table's half of
    /// the caller moving its last key into the hole `id` leaves
    /// (`Vec::swap_remove`), called before the caller moves it. `rehash`
    /// gives a stored id's hash, as for [`IdTable::find_or_push`]. Ids stay
    /// dense, and the work is a walk of the two clusters.
    pub fn swap_remove(&mut self, id: u32, mut rehash: impl FnMut(u32) -> u64) {
        let last = self.len.checked_sub(1).expect("a table with ids") as u32;
        assert!(id <= last, "id {id} was never handed out");
        let at = self.slot_of(id, rehash(id));
        self.vacate(at, &mut rehash);
        if id != last {
            let at = self.slot_of(last, rehash(last));
            self.slots[at] = (self.slots[at] & !id_field(self.bits())) | (id + 1);
        }
        self.len -= 1;
    }

    /// The slot of the id under `hash` that `is_key` accepts, or else the
    /// empty slot the probe ended at (`0` when there are no slots).
    #[inline]
    fn probe(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let k = self.bits();
        let (mask, tag, field) = (self.slots.len() - 1, tag(k, hash), id_field(k));
        let mut at = home(k, hash);
        loop {
            match self.slots[at] {
                EMPTY => return Err(at),
                full if full & !field == tag && is_key(decode(k, full)) => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Where a slot under `hash`, known to be absent, goes.
    fn vacant(&self, hash: u64) -> usize {
        self.probe(hash, |_| false)
            .expect_err("a table at most half full has an empty slot")
    }

    /// The slot holding `id`, registered under `hash`.
    fn slot_of(&self, id: u32, hash: u64) -> usize {
        self.probe(hash, |found| found == id)
            .unwrap_or_else(|_| panic!("id {id} is not registered under its hash"))
    }

    /// Move to `len` slots, a power of two at least twice the ids, and
    /// place ids `0..self.len` by the hashes `rehash` gives. The old slots
    /// are freed before the new, zeroed ones are allocated.
    fn resize(&mut self, len: usize, mut rehash: impl FnMut(u32) -> u64) {
        debug_assert!(len.is_power_of_two() && len >= 2 * self.len);
        self.slots = Vec::new();
        self.slots = vec![EMPTY; len];
        let k = self.bits();
        for id in 0..self.len as u32 {
            let hash = rehash(id);
            let at = self.vacant(hash);
            self.slots[at] = encode(k, hash, id);
        }
    }

    /// Empty the slot at `hole`, moving back each later slot of its cluster
    /// whose probe would otherwise stop at the gap. A slot's home comes
    /// from its id's hash.
    fn vacate(&mut self, mut hole: usize, rehash: &mut impl FnMut(u32) -> u64) {
        let k = self.bits();
        let mask = self.slots.len() - 1;
        let mut at = (hole + 1) & mask;
        while self.slots[at] != EMPTY {
            // The slot may fill the hole unless its home lies after the
            // hole on the way to `at`.
            let home = home(k, rehash(decode(k, self.slots[at])));
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
    fn slots_round_trip_at_every_table_size() {
        for k in 3..=32 {
            let field = id_field(k);
            assert_eq!(u64::from(field), (1 << k) - 1);
            // The largest id a half-full table of 2^k slots hands out, under
            // the all-ones tag, and the smallest under the all-zeros one.
            let top = (1u32 << (k - 1)) - 1;
            for (hash, id) in [(u64::MAX, top), (u64::MAX, 0), (0, top), (0, 0)] {
                let slot = encode(k, hash, id);
                assert_eq!(decode(k, slot), id, "k = {k}");
                assert_eq!(slot & !field, tag(k, hash), "k = {k}");
                assert_ne!(slot, EMPTY, "k = {k}");
            }
            // The tag fills the bits above the id field and holds no home bit.
            assert_eq!(tag(k, u64::MAX), !field, "k = {k}");
            assert_eq!(tag(k, u64::MAX >> k), !field, "k = {k}");
            assert_eq!(tag(k, !(u64::MAX >> k)), 0, "k = {k}");
            assert_eq!(home(k, u64::MAX), (1 << k) - 1, "k = {k}");
        }
    }

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
    fn a_reserved_table_is_the_size_pushing_would_reach_and_never_grows() {
        let hash = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (before, more) in [
            (0usize, 0usize),
            (0, 1),
            (0, 4),
            (0, 5),
            (3, 0),
            (3, 700),
            (9, 1),
        ] {
            let keys: Vec<u64> = (0..(before + more) as u64).collect();
            let (mut pushed, mut reserved) = (IdTable::new(), IdTable::new());
            for &k in &keys {
                pushed.find_or_push(hash(k), |_| false, |id| hash(keys[id as usize]));
            }
            for &k in &keys[..before] {
                reserved.find_or_push(hash(k), |_| false, |id| hash(keys[id as usize]));
            }
            reserved.reserve(more, |id| hash(keys[id as usize]));
            let slots = reserved.slots.len();
            assert!(slots <= pushed.slots.len(), "{before} + {more}");
            for &k in &keys[before..] {
                reserved.find_or_push(hash(k), |_| false, |_| panic!("a reserved table grew"));
            }
            assert_eq!(reserved.slots, pushed.slots, "{before} + {more}");
            assert!(slots == pushed.slots.len() || more == 0);
            assert!(!reserved.shrink_to_fit(|_| unreachable!("a full table")));
        }
        // A reservation nothing filled is given back.
        let keys: Vec<u64> = (0..5).collect();
        let mut t = IdTable::new();
        for &k in &keys {
            t.find_or_push(hash(k), |_| false, |id| hash(keys[id as usize]));
        }
        t.reserve(1000, |id| hash(keys[id as usize]));
        assert_eq!(t.slots.len(), 2048);
        assert!(t.shrink_to_fit(|id| hash(keys[id as usize])));
        assert_eq!(t.slots.len(), 16);
        for (id, &k) in keys.iter().enumerate() {
            assert_eq!(t.find(hash(k), |found| found == id as u32), Some(id as u32));
        }
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
            let (keys, hash) = (&self.keys, self.hash);
            self.table.swap_remove(id, |id| hash(keys[id as usize]));
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
    /// that wrap past the end — on one tag and on many — sixteen homes, a
    /// well-spread hash; and keys that differ only in their top nine bits
    /// (from 2⁹ slots on they share the all-ones tag but not the home), and
    /// keys that differ only in bits 40–48 (they share a home in the middle
    /// of the table but not the tag).
    const HASHES: [fn(u64) -> u64; 8] = [
        |k| k,
        |k| k << 32,
        |k| !k,
        |k| !(k << 32),
        |k| ((k % 16) << 60) | (k << 32),
        |k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        |k| (k << 55) | (u64::MAX >> 9),
        |k| (1 << 63) | (k << 40),
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
