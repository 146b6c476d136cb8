//! Pluggable tuple-storage backends behind the [`Storage`] trait.
//!
//! The evaluator talks to relations through four operations — full `scan`,
//! indexed `probe`, `delta_batch_insert`, and membership — so the concrete
//! representation is swappable. Reads yield rows (`&[Value]`), and a delta
//! batch's fresh rows land in a caller's [`RowBuf`]. Two backends ship:
//!
//! * [`HashBackend`] (the default): a strided row store (one `Vec<Value>`,
//!   `arity` values per row, see [`crate::rows`]) with a hash-based
//!   membership table and **incrementally maintained** hash indexes.
//!   Indexes map projection keys to offsets into the store, so index
//!   maintenance costs one `u32` per (index, new row), and inserts,
//!   membership tests and indexed probes allocate nothing per row. A
//!   removal swap-removes: the last row moves into the hole, and the
//!   membership table and each index are patched at those two offsets, so
//!   removing costs in proportion to what is removed, never to what stays.
//! * [`ColumnarBackend`]: sorted runs with merge-based semi-naive deltas.
//!   Every delta batch becomes one sorted, deduplicated run; probes and
//!   scans merge across runs; runs are compacted into one once too many
//!   accumulate. Ordered probes come from per-run sorted permutations
//!   (an LSM-style layout, kept fully in memory here).
//!
//! **Indexes are built through a shared reference.** A relation may be
//! shared — by a database, its snapshots and every evaluation reading it —
//! so [`Storage::ensure_index`] takes `&self`: it builds the index once, in
//! a slot that is set once and never moves, and returns an [`IndexHandle`]
//! that probes it directly. The index then stays with the relation, and
//! every later write keeps it up to date.
//!
//! Both backends are deterministic: iteration order is a pure function of
//! the *sequence of batches applied*, never of hash-map iteration order or
//! thread count, nor of when an index was built (an index lists a key's
//! rows in store order however it came to exist). Since the engine
//! applies batches in round/work-item order, which is itself
//! thread-count-invariant, results and statistics stay byte-identical at
//! any `--threads` value per backend — and the derived *sets* (and
//! therefore all engine counters) are identical across backends.

use std::sync::OnceLock;

use idlog_common::{FxHashMap, FxHashSet, IdTable, RelType, Sort, Tuple, Value};

use crate::rows::{RowBuf, RowIter, Rows};

/// Which [`Storage`] implementation a relation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Hash membership + incrementally maintained hash indexes (default).
    #[default]
    Hash,
    /// Sorted columnar runs with merge-based probes and compaction.
    Columnar,
}

impl BackendKind {
    /// Parse a backend name as accepted by `idlog run --backend` and the
    /// REPL `:backend` command.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hash" => Some(BackendKind::Hash),
            "columnar" => Some(BackendKind::Columnar),
            _ => None,
        }
    }

    /// The canonical name (`"hash"` / `"columnar"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Hash => "hash",
            BackendKind::Columnar => "columnar",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic per-value size estimate for governor byte accounting.
///
/// A pure function of the declared sort — never of the actual value — so
/// `Limits::max_bytes` trips at the same fixpoint round for any thread
/// count and any backend. Sort `u` values carry an interned symbol and a
/// share of the interner's name storage; sort `i` values are a bare
/// natural. Documented constants (DESIGN.md decision 12), not
/// `size_of::<Value>()`: the round at which `max_bytes` trips must not move
/// when the value layout does.
pub fn estimated_value_bytes(sort: Sort) -> u64 {
    match sort {
        Sort::U => 48,
        Sort::I => 16,
    }
}

/// Per-tuple overhead charged by [`estimated_tuple_bytes`]. A documented
/// constant (DESIGN.md decision 12), not `size_of::<Tuple>()`: the round at
/// which `max_bytes` trips must not move when the tuple layout does.
const TUPLE_HEADER_BYTES: u64 = 16;

/// Deterministic per-tuple size estimate: a 16-byte header plus
/// [`estimated_value_bytes`] per declared column.
pub fn estimated_tuple_bytes(rtype: &RelType) -> u64 {
    TUPLE_HEADER_BYTES
        + rtype
            .sorts()
            .iter()
            .map(|&s| estimated_value_bytes(s))
            .sum::<u64>()
}

/// The storage abstraction the evaluator runs against.
///
/// Implementations must keep iteration ([`Storage::scan`], probe order) a
/// deterministic function of the sequence of inserts applied — the engine's
/// thread-count-invariance proof rests on it. Sort/arity checking is the
/// caller's job ([`crate::Relation`] layers it on top). Reads yield rows
/// (`&[Value]`); tuples appear only as the keys a caller hands in.
pub trait Storage {
    /// Number of stored rows.
    fn len(&self) -> usize;

    /// True when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test for a row.
    fn contains_row(&self, row: &[Value]) -> bool;

    /// Membership test.
    fn contains(&self, t: &Tuple) -> bool {
        self.contains_row(t.values())
    }

    /// Insert one tuple; true when newly added.
    fn insert(&mut self, t: Tuple) -> bool;

    /// Insert a derivation batch, given as consecutive segments of rows.
    /// Every row not stored before — first occurrence wins for intra-batch
    /// duplicates — is appended to `fresh`, in batch order. Returns, per
    /// segment, how many of its rows were fresh.
    fn delta_batch_insert(&mut self, batch: &[Rows<'_>], fresh: &mut RowBuf) -> Vec<usize>;

    /// Remove a batch of rows; `flags[i]` is true when row `i` was present
    /// and removed (first occurrence wins for intra-batch duplicates).
    /// Every index is kept, and a probe still lists exactly what a filtered
    /// scan finds. Determinism contract: the post-removal scan order is a
    /// pure function of the sequence of batches applied, exactly as for
    /// inserts — incremental maintenance relies on it. The survivors need
    /// not keep their relative order: the hash backend moves its last row
    /// into each hole, so a removal costs what it removes.
    fn remove_batch(&mut self, batch: Rows<'_>) -> Vec<bool>;

    /// Iterate every row in the backend's canonical (deterministic) order:
    /// insertion order for hash, run-then-sorted order for columnar.
    fn scan(&self) -> ScanIter<'_>;

    /// The index on `positions`, built on the first request and kept from
    /// then on: later inserts and removals maintain it, and clones carry
    /// it. Works through a shared reference, so a relation shared by a
    /// database and the evaluations reading it gains the index once, for
    /// all of them. [`Storage::probe`] on `positions` is indexed from then
    /// on; without it, probing stays correct but degrades to a filtered
    /// scan.
    fn ensure_index(&self, positions: &[usize]) -> IndexHandle<'_>;

    /// All rows whose projection on `positions` equals `key`.
    fn probe<'a>(&'a self, positions: &[usize], key: &Tuple) -> Probe<'a>;
}

/// Deterministic scanning iterator over a backend's rows.
pub struct ScanIter<'a>(ScanInner<'a>);

enum ScanInner<'a> {
    Strided(RowIter<'a>),
    Runs {
        rest: std::slice::Iter<'a, Run>,
        cur: std::slice::Iter<'a, Tuple>,
    },
}

impl<'a> Iterator for ScanIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        match &mut self.0 {
            ScanInner::Strided(it) => it.next(),
            ScanInner::Runs { rest, cur } => loop {
                if let Some(t) = cur.next() {
                    return Some(t.values());
                }
                match rest.next() {
                    Some(run) => *cur = run.tuples.iter(),
                    None => return None,
                }
            },
        }
    }

    /// Skips whole runs and strides, so walking forward to sparse row ids
    /// costs the rows visited, not the rows passed.
    fn nth(&mut self, mut n: usize) -> Option<&'a [Value]> {
        match &mut self.0 {
            ScanInner::Strided(it) => it.nth(n),
            ScanInner::Runs { rest, cur } => loop {
                if n < cur.len() {
                    return cur.nth(n).map(Tuple::values);
                }
                n -= cur.len();
                *cur = rest.next()?.tuples.iter();
            },
        }
    }
}

/// The result of an indexed [`Storage::probe`]: the matching rows, as up
/// to one segment per physical partition (one for hash, one per run for
/// columnar). Borrowed from the backend; no rows are copied, and a probe
/// that touches one partition allocates nothing.
pub struct Probe<'a> {
    segments: Segments<'a>,
    len: usize,
}

enum Segments<'a> {
    /// At most one segment, held in place.
    One(Option<ProbeSeg<'a>>),
    /// One per matching run of a multi-run columnar relation.
    Many(Vec<ProbeSeg<'a>>),
}

enum ProbeSeg<'a> {
    /// Offsets into a strided store (a maintained hash index).
    Strided { offsets: &'a [u32], store: Rows<'a> },
    /// Offsets into a tuple store (a sorted run permutation's equal range).
    Tuples {
        offsets: &'a [u32],
        store: &'a [Tuple],
    },
    /// Materialized references (the unindexed fallback path).
    Owned(Vec<&'a [Value]>),
}

impl<'a> ProbeSeg<'a> {
    fn len(&self) -> usize {
        match self {
            ProbeSeg::Strided { offsets, .. } | ProbeSeg::Tuples { offsets, .. } => offsets.len(),
            ProbeSeg::Owned(v) => v.len(),
        }
    }

    /// The rows matching `key` on `positions`, by filtered scan.
    fn filtered(rows: impl Iterator<Item = &'a [Value]>, positions: &[usize], key: &Tuple) -> Self {
        ProbeSeg::Owned(rows.filter(|r| proj_matches(r, positions, key)).collect())
    }
}

impl<'a> Probe<'a> {
    /// A probe with no matches.
    pub fn empty() -> Self {
        Probe {
            segments: Segments::One(None),
            len: 0,
        }
    }

    /// A probe over one partition.
    fn single(seg: ProbeSeg<'a>) -> Self {
        Probe {
            len: seg.len(),
            segments: Segments::One(Some(seg)),
        }
    }

    /// Number of matching rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the matches in segment order.
    pub fn iter<'p>(&'p self) -> impl Iterator<Item = &'a [Value]> + 'p {
        let segments = match &self.segments {
            Segments::One(seg) => seg.as_slice(),
            Segments::Many(segs) => segs,
        };
        segments.iter().flat_map(|seg| match seg {
            ProbeSeg::Strided { offsets, store } => SegIter::Strided {
                offsets: offsets.iter(),
                store: *store,
            },
            ProbeSeg::Tuples { offsets, store } => SegIter::Tuples {
                offsets: offsets.iter(),
                store,
            },
            ProbeSeg::Owned(v) => SegIter::Owned(v.iter()),
        })
    }
}

enum SegIter<'a, 'p> {
    Strided {
        offsets: std::slice::Iter<'a, u32>,
        store: Rows<'a>,
    },
    Tuples {
        offsets: std::slice::Iter<'a, u32>,
        store: &'a [Tuple],
    },
    Owned(std::slice::Iter<'p, &'a [Value]>),
}

impl<'a> Iterator for SegIter<'a, '_> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        match self {
            SegIter::Strided { offsets, store } => offsets.next().map(|&o| store.get(o as usize)),
            SegIter::Tuples { offsets, store } => {
                offsets.next().map(|&o| store[o as usize].values())
            }
            SegIter::Owned(it) => it.next().copied(),
        }
    }
}

/// A readied index, resolved: a probe through it goes straight to the
/// index, without searching the relation's indexes by positions. Borrowed
/// from the relation, so no write can happen while it is held.
#[derive(Clone, Copy)]
pub struct IndexHandle<'a>(HandleInner<'a>);

#[derive(Clone, Copy)]
enum HandleInner<'a> {
    Hash {
        map: &'a KeyIndex,
        store: Rows<'a>,
    },
    Columnar {
        backend: &'a ColumnarBackend,
        positions: &'a [usize],
    },
}

impl<'a> IndexHandle<'a> {
    /// All rows whose projection on the index's positions equals `key`
    /// (one value per position, in position order).
    pub fn probe(self, key: &Tuple) -> Probe<'a> {
        match self.0 {
            HandleInner::Hash { map, store } => map.get(key).map_or_else(Probe::empty, |offsets| {
                Probe::single(ProbeSeg::Strided { offsets, store })
            }),
            HandleInner::Columnar { backend, positions } => backend.probe(positions, key),
        }
    }
}

/// Indexes keyed by the positions they project, each built on its first
/// request through a shared reference: an append-only list whose links are
/// set once ([`OnceLock`]), so a built index never moves and a reader holds
/// it without a lock. Two evaluations asking for the same index at once
/// build it once; asking for different ones, they append both. A relation
/// carries a handful of indexes, so a search walks a handful of links.
#[derive(Clone, Debug)]
pub(crate) struct Indexes<T> {
    head: OnceLock<Box<IndexNode<T>>>,
}

#[derive(Clone, Debug)]
pub(crate) struct IndexNode<T> {
    positions: Box<[usize]>,
    index: T,
    next: Indexes<T>,
}

impl<T> Default for Indexes<T> {
    fn default() -> Self {
        Indexes {
            head: OnceLock::new(),
        }
    }
}

impl<T> Indexes<T> {
    /// The nodes in the order they were built.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &IndexNode<T>> {
        std::iter::successors(self.head.get(), |node| node.next.head.get()).map(|b| &**b)
    }

    /// The index on `positions`, if built.
    pub(crate) fn get(&self, positions: &[usize]) -> Option<&T> {
        self.nodes()
            .find(|node| *node.positions == *positions)
            .map(|node| &node.index)
    }

    /// The index on `positions`, built by `build` if no one has yet; with
    /// the positions as the list stores them.
    pub(crate) fn get_or_build(
        &self,
        positions: &[usize],
        build: impl Fn() -> T,
    ) -> (&[usize], &T) {
        let mut link = self;
        loop {
            let node = link.head.get_or_init(|| {
                Box::new(IndexNode {
                    positions: positions.into(),
                    index: build(),
                    next: Indexes::default(),
                })
            });
            if *node.positions == *positions {
                return (&node.positions, &node.index);
            }
            link = &node.next;
        }
    }

    /// Visit every index mutably (writes maintain them).
    fn for_each_mut(&mut self, mut f: impl FnMut(&[usize], &mut T)) {
        let mut link = self;
        while let Some(node) = link.head.get_mut() {
            f(&node.positions, &mut node.index);
            link = &mut node.next;
        }
    }
}

/// Hash a row with the workspace `FxHasher` — the hash its [`Tuple`] has.
#[inline]
fn fx_hash(row: &[Value]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = idlog_common::FxHasher::default();
    row.hash(&mut h);
    h.finish()
}

/// `row`'s projection on `positions`, as an index key.
fn project(row: &[Value], positions: &[usize]) -> Tuple {
    positions.iter().map(|&p| row[p]).collect()
}

/// Compare `row`'s projection on `positions` against `key` (which has one
/// value per position, in position order).
fn cmp_proj(row: &[Value], positions: &[usize], key: &Tuple) -> std::cmp::Ordering {
    for (k, &p) in positions.iter().enumerate() {
        let ord = row[p].cmp(&key[k]);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn proj_matches(row: &[Value], positions: &[usize], key: &Tuple) -> bool {
    cmp_proj(row, positions, key) == std::cmp::Ordering::Equal
}

/// A hash index: projection key → offsets into the store, ascending.
type KeyIndex = FxHashMap<Tuple, Vec<u32>>;

/// The index of `rows` on `positions`: every row under its projection.
fn key_index(positions: &[usize], rows: Rows<'_>) -> KeyIndex {
    let mut map = KeyIndex::default();
    for (off, row) in rows.iter().enumerate() {
        map.entry(project(row, positions))
            .or_default()
            .push(off as u32);
    }
    map
}

/// Strided row store with hash membership and incrementally maintained
/// offset indexes.
///
/// `rows` holds every row exactly once, in insertion order (which the
/// engine makes deterministic) except that a removal moves the last row
/// into the hole it leaves. The rows sit back to back, `arity` values each
/// and nothing else — a binary row is 16 bytes — so cloning the backend
/// copies one block and dropping it frees one. The arity is that of the
/// first row inserted. `seen` finds a row's offset from its hash — offsets
/// are the table's dense ids, membership verifies equality against the
/// store, so collisions are handled, no second copy of any row exists and
/// an insert allocates nothing per row; its 4-byte slots keep no row's
/// home, so when it doubles, or a removal shifts a cluster back, it
/// re-hashes the stored rows. Each index maps a projection
/// key to store offsets, ascending, and is updated on every insert and
/// removal.
#[derive(Clone, Debug, Default)]
pub struct HashBackend {
    rows: RowBuf,
    seen: IdTable,
    indexes: Indexes<KeyIndex>,
}

impl HashBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from rows, dropping duplicates.
    pub fn from_rows<'r>(rows: impl IntoIterator<Item = &'r [Value]>) -> Self {
        let mut b = Self::default();
        for row in rows {
            b.insert_row(row);
        }
        b
    }

    /// The stored rows, in scan order.
    pub(crate) fn rows(&self) -> Rows<'_> {
        self.rows.rows()
    }

    /// Consume into the stored rows, in scan order.
    pub(crate) fn into_rows(self) -> RowBuf {
        self.rows
    }

    /// Offset the row is stored at, when present.
    fn find(&self, row: &[Value]) -> Option<u32> {
        let rows = self.rows.rows();
        self.seen
            .find(fx_hash(row), |off| rows.get(off as usize) == row)
    }

    /// Store `row` unless it is there already (one hash, one table walk
    /// either way); true when it was new.
    #[inline]
    fn insert_row(&mut self, row: &[Value]) -> bool {
        debug_assert!(self.rows.len() < u32::MAX as usize, "store offset overflow");
        let rows = self.rows.rows();
        let (off, new) = self.seen.find_or_push(
            fx_hash(row),
            |off| rows.get(off as usize) == row,
            |off| fx_hash(rows.get(off as usize)),
        );
        if new {
            debug_assert_eq!(off as usize, self.rows.len(), "offsets are dense");
            self.indexes.for_each_mut(|positions, map| {
                map.entry(project(row, positions)).or_default().push(off);
            });
            self.rows.push(row);
        }
        new
    }

    /// Remove the row at `off` by moving the last row into its place,
    /// patching the membership table and, per index, the two offset lists
    /// involved — kept ascending, so a probe still lists a key's rows in
    /// store order. Costs the victim's and the mover's index entries,
    /// whatever the relation's size.
    fn swap_remove(&mut self, off: u32) {
        let last = self.rows.len() as u32 - 1;
        let rows = self.rows.rows();
        let (victim, moved) = (rows.get(off as usize), rows.get(last as usize));
        self.seen
            .swap_remove(off, |off| fx_hash(rows.get(off as usize)));
        self.indexes.for_each_mut(|positions, map| {
            // A stored row is listed under its key, and `last`, the greatest
            // offset, ends its list.
            let key = project(victim, positions);
            if let Some(offsets) = map.get_mut(&key) {
                if let Ok(at) = offsets.binary_search(&off) {
                    offsets.remove(at);
                }
                if offsets.is_empty() {
                    map.remove(&key);
                }
            }
            if off == last {
                return;
            }
            if let Some(offsets) = map.get_mut(&project(moved, positions)) {
                debug_assert_eq!(offsets.last(), Some(&last));
                offsets.pop();
                let at = offsets.partition_point(|&o| o < off);
                offsets.insert(at, off);
            }
        });
        self.rows.swap_remove(off as usize);
    }
}

impl Storage for HashBackend {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn contains_row(&self, row: &[Value]) -> bool {
        self.find(row).is_some()
    }

    fn insert(&mut self, t: Tuple) -> bool {
        self.insert_row(t.values())
    }

    fn delta_batch_insert(&mut self, batch: &[Rows<'_>], fresh: &mut RowBuf) -> Vec<usize> {
        batch
            .iter()
            .map(|segment| {
                let before = fresh.len();
                for row in segment.iter() {
                    if self.insert_row(row) {
                        fresh.push(row);
                    }
                }
                fresh.len() - before
            })
            .collect()
    }

    fn remove_batch(&mut self, batch: Rows<'_>) -> Vec<bool> {
        // In batch order, so the store's order after the batch is a function
        // of the batch sequence; a repeat finds its row already gone.
        batch
            .iter()
            .map(|row| self.find(row).map(|off| self.swap_remove(off)).is_some())
            .collect()
    }

    fn scan(&self) -> ScanIter<'_> {
        ScanIter(ScanInner::Strided(self.rows.rows().iter()))
    }

    fn ensure_index(&self, positions: &[usize]) -> IndexHandle<'_> {
        let (_, map) = self
            .indexes
            .get_or_build(positions, || key_index(positions, self.rows.rows()));
        IndexHandle(HandleInner::Hash {
            map,
            store: self.rows.rows(),
        })
    }

    fn probe<'a>(&'a self, positions: &[usize], key: &Tuple) -> Probe<'a> {
        match self.indexes.get(positions) {
            Some(map) => IndexHandle(HandleInner::Hash {
                map,
                store: self.rows.rows(),
            })
            .probe(key),
            None => Probe::single(ProbeSeg::filtered(self.scan(), positions, key)),
        }
    }
}

/// How many sorted runs may accumulate before they are compacted into one.
/// Small enough that probes stay a handful of binary searches, large enough
/// that compaction is amortized across many delta rounds.
const MAX_RUNS: usize = 8;

/// One sorted, deduplicated batch of tuples plus its per-index sorted
/// permutations. A run's tuples only change by removal, which rebuilds its
/// permutations, so a permutation never goes stale.
#[derive(Clone, Debug)]
struct Run {
    /// Sorted by the derived (interning-order) `Ord` on [`Tuple`].
    tuples: Vec<Tuple>,
    /// For each indexed position set: offsets into `tuples`, ordered by the
    /// tuples' projection on those positions (ties in store order).
    perms: Indexes<Vec<u32>>,
}

/// Offsets into `tuples`, ordered by their projection on `positions`
/// (a stable sort: ties stay in store order).
fn sorted_perm(tuples: &[Tuple], positions: &[usize]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..tuples.len() as u32).collect();
    perm.sort_by(|&a, &b| {
        let (ta, tb) = (&tuples[a as usize], &tuples[b as usize]);
        positions
            .iter()
            .map(|&p| ta[p].cmp(&tb[p]))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

impl Run {
    fn from_sorted(tuples: Vec<Tuple>, indexed: &Indexes<()>) -> Self {
        let run = Run {
            tuples,
            perms: Indexes::default(),
        };
        for node in indexed.nodes() {
            run.perm(&node.positions);
        }
        run
    }

    /// The permutation on `positions`, built on first request.
    fn perm(&self, positions: &[usize]) -> &[u32] {
        self.perms
            .get_or_build(positions, || sorted_perm(&self.tuples, positions))
            .1
    }

    fn contains(&self, row: &[Value]) -> bool {
        self.tuples
            .binary_search_by(|t| t.values().cmp(row))
            .is_ok()
    }
}

/// Sorted columnar runs with merge-based deltas.
///
/// Every delta batch becomes one sorted run disjoint from all earlier runs
/// (already-present tuples are filtered out first), so a scan is a run-order
/// concatenation and membership is one binary search per run. When more than
/// `MAX_RUNS` runs accumulate they are compacted into a single sorted run
/// — deterministic, since compaction is a pure function of the batch
/// sequence. Point inserts degrade to one-tuple runs; bulk construction
/// should go through [`ColumnarBackend::from_tuples`] (which is how
/// [`crate::Relation::to_backend`] builds one).
#[derive(Clone, Debug, Default)]
pub struct ColumnarBackend {
    runs: Vec<Run>,
    len: usize,
    /// The indexed position sets: every run, new ones included, carries a
    /// permutation for each.
    indexed: Indexes<()>,
}

impl ColumnarBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from owned tuples: one sorted, deduplicated run.
    pub fn from_tuples(mut tuples: Vec<Tuple>) -> Self {
        tuples.sort_unstable();
        tuples.dedup();
        let len = tuples.len();
        let mut b = ColumnarBackend::default();
        if len > 0 {
            b.runs.push(Run::from_sorted(tuples, &b.indexed));
            b.len = len;
        }
        b
    }

    /// Consume into the stored tuples, in scan order.
    pub(crate) fn into_tuples(self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len);
        for run in self.runs {
            out.extend(run.tuples);
        }
        out
    }

    /// Append a sorted batch known to be disjoint from every stored tuple.
    fn push_run(&mut self, fresh: Vec<Tuple>) {
        debug_assert!(
            fresh.windows(2).all(|w| w[0] < w[1]),
            "run must be sorted+deduped"
        );
        self.len += fresh.len();
        self.runs.push(Run::from_sorted(fresh, &self.indexed));
        if self.runs.len() > MAX_RUNS {
            self.compact();
        }
    }

    /// Merge every run into one. Runs are mutually disjoint, so a plain
    /// collect-and-sort is a correct k-way merge.
    fn compact(&mut self) {
        let mut all: Vec<Tuple> = Vec::with_capacity(self.len);
        for run in self.runs.drain(..) {
            all.extend(run.tuples);
        }
        all.sort_unstable();
        debug_assert_eq!(all.len(), self.len, "runs must be disjoint");
        self.runs.push(Run::from_sorted(all, &self.indexed));
    }
}

impl Storage for ColumnarBackend {
    fn len(&self) -> usize {
        self.len
    }

    fn contains_row(&self, row: &[Value]) -> bool {
        self.runs.iter().any(|run| run.contains(row))
    }

    fn insert(&mut self, t: Tuple) -> bool {
        if self.contains(&t) {
            return false;
        }
        self.push_run(vec![t]);
        true
    }

    fn delta_batch_insert(&mut self, batch: &[Rows<'_>], fresh: &mut RowBuf) -> Vec<usize> {
        let mut run: Vec<Tuple> = Vec::new();
        let mut seen: FxHashSet<&[Value]> = FxHashSet::default();
        let counts = batch
            .iter()
            .map(|segment| {
                let before = run.len();
                for row in segment.iter() {
                    if !self.contains_row(row) && seen.insert(row) {
                        run.push(Tuple::from(row));
                        fresh.push(row);
                    }
                }
                run.len() - before
            })
            .collect();
        if !run.is_empty() {
            run.sort_unstable();
            self.push_run(run);
        }
        counts
    }

    fn remove_batch(&mut self, batch: Rows<'_>) -> Vec<bool> {
        let mut victims: FxHashSet<&[Value]> = FxHashSet::default();
        let flags: Vec<bool> = batch
            .iter()
            .map(|row| self.contains_row(row) && victims.insert(row))
            .collect();
        if victims.is_empty() {
            return flags;
        }
        let mut removed = 0usize;
        for run in &mut self.runs {
            let before = run.tuples.len();
            run.tuples.retain(|t| !victims.contains(t.values()));
            if run.tuples.len() != before {
                removed += before - run.tuples.len();
                // A run's permutations index into its tuple vector; rebuild
                // them against the surviving (still sorted) tuples.
                let tuples = &run.tuples;
                run.perms
                    .for_each_mut(|positions, perm| *perm = sorted_perm(tuples, positions));
            }
        }
        self.runs.retain(|run| !run.tuples.is_empty());
        self.len -= removed;
        flags
    }

    fn scan(&self) -> ScanIter<'_> {
        ScanIter(ScanInner::Runs {
            rest: self.runs.iter(),
            cur: [].iter(),
        })
    }

    fn ensure_index(&self, positions: &[usize]) -> IndexHandle<'_> {
        let (positions, ()) = self.indexed.get_or_build(positions, || ());
        for run in &self.runs {
            run.perm(positions);
        }
        IndexHandle(HandleInner::Columnar {
            backend: self,
            positions,
        })
    }

    fn probe<'a>(&'a self, positions: &[usize], key: &Tuple) -> Probe<'a> {
        let mut segments = Vec::new();
        let mut len = 0usize;
        for run in &self.runs {
            let seg = if let Some(perm) = run.perms.get(positions) {
                let lo = perm.partition_point(|&i| {
                    cmp_proj(run.tuples[i as usize].values(), positions, key).is_lt()
                });
                let hi = perm.partition_point(|&i| {
                    !cmp_proj(run.tuples[i as usize].values(), positions, key).is_gt()
                });
                ProbeSeg::Tuples {
                    offsets: &perm[lo..hi],
                    store: &run.tuples,
                }
            } else {
                ProbeSeg::filtered(run.tuples.iter().map(Tuple::values), positions, key)
            };
            if seg.len() > 0 {
                len += seg.len();
                segments.push(seg);
            }
        }
        Probe {
            segments: Segments::Many(segments),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Nat, Value};

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&n| int(n)).collect()
    }

    fn buf(tuples: &[&Tuple]) -> RowBuf {
        tuples.iter().copied().collect()
    }

    /// Insert one batch; its fresh rows as tuples.
    fn batch_insert<S: Storage>(s: &mut S, tuples: &[&Tuple]) -> Vec<Tuple> {
        let rows = buf(tuples);
        let mut fresh = RowBuf::new();
        let counts = s.delta_batch_insert(&[rows.rows()], &mut fresh);
        assert_eq!(counts, [fresh.len()]);
        fresh.rows().iter().map(Tuple::from).collect()
    }

    fn remove<S: Storage>(s: &mut S, tuples: &[&Tuple]) -> Vec<bool> {
        s.remove_batch(buf(tuples).rows())
    }

    /// Exercise one backend through the trait, generically.
    fn exercise<S: Storage + Default>() {
        let mut s = S::default();
        assert!(s.is_empty());
        assert!(s.insert(t(&[1, 10])));
        assert!(!s.insert(t(&[1, 10])), "duplicate");
        assert!(s.insert(t(&[1, 20])));
        assert!(s.insert(t(&[2, 10])));
        assert_eq!(s.len(), 3);
        assert!(s.contains(&t(&[1, 20])));
        assert!(!s.contains(&t(&[9, 9])));

        // Batch: one duplicate of stored, one intra-batch duplicate.
        let b1 = t(&[3, 30]);
        let b2 = t(&[1, 10]);
        let b3 = t(&[3, 30]);
        let fresh = batch_insert(&mut s, &[&b1, &b2, &b3]);
        assert_eq!(fresh, vec![b1.clone()]);
        assert_eq!(s.len(), 4);

        // Indexed probe on the first column.
        s.ensure_index(&[0]);
        let key = t(&[1]);
        let probe = s.probe(&[0], &key);
        assert_eq!(probe.len(), 2);
        let mut seconds: Vec<i64> = probe
            .iter()
            .map(|x| match x[1] {
                Value::Int(n) => n.get(),
                _ => unreachable!(),
            })
            .collect();
        seconds.sort_unstable();
        assert_eq!(seconds, vec![10, 20]);

        // Unindexed probe falls back to a filtered scan.
        let probe = s.probe(&[1], &t(&[10]));
        assert_eq!(probe.len(), 2);

        // Scan covers everything exactly once.
        assert_eq!(s.scan().count(), 4);
    }

    /// Exercise removal through the trait, generically.
    fn exercise_removal<S: Storage + Default>() {
        let mut s = S::default();
        let batch: Vec<Tuple> = (0..12).map(|i| t(&[i % 4, i])).collect();
        let refs: Vec<&Tuple> = batch.iter().collect();
        batch_insert(&mut s, &refs);
        s.ensure_index(&[0]);

        // Remove: one present tuple, one absent, one intra-batch duplicate.
        let present = t(&[1, 1]);
        let absent = t(&[9, 9]);
        let flags = remove(&mut s, &[&present, &absent, &present]);
        assert_eq!(flags, vec![true, false, false]);
        assert_eq!(s.len(), 11);
        assert!(!s.contains(&present));

        // Indexes survive removal: the probe sees exactly the survivors.
        let probe = s.probe(&[0], &t(&[1]));
        assert_eq!(probe.len(), 2);
        assert!(probe.iter().all(|x| x != present.values()));
        // Scan agrees with len and membership.
        assert_eq!(s.scan().count(), 11);
        assert!(s.scan().all(|x| s.contains_row(x)));

        // Removed tuples can be re-inserted.
        assert!(s.insert(present.clone()));
        assert_eq!(s.probe(&[0], &t(&[1])).len(), 3);
    }

    #[test]
    fn hash_backend_satisfies_the_trait_contract() {
        exercise::<HashBackend>();
        exercise_removal::<HashBackend>();
    }

    #[test]
    fn columnar_backend_satisfies_the_trait_contract() {
        exercise::<ColumnarBackend>();
        exercise_removal::<ColumnarBackend>();
    }

    /// Swap-removal patches the membership table and every index in place:
    /// after each batch — front, middle and tail offsets, repeats, absent
    /// tuples, down to empty — every index is exactly the one a build over
    /// the store gives (offsets ascending, so probes list a key's tuples in
    /// store order) and every stored tuple is found at its own offset.
    #[test]
    fn hash_removal_keeps_indexes_ascending_and_exact() {
        let tuples: Vec<Tuple> = (0..60).map(|i| t(&[i % 5, i % 7, i])).collect();
        let mut s = HashBackend::new();
        batch_insert(&mut s, &tuples.iter().collect::<Vec<_>>());
        let indexes: [&[usize]; 4] = [&[0], &[1], &[0, 1], &[0, 1, 2]];
        for positions in indexes {
            s.ensure_index(positions);
        }
        let absent = t(&[9, 9, 9]);
        let mut left = tuples.len();
        for stride in [7, 5, 3, 2, 1] {
            let owned: Vec<Tuple> = s.scan().step_by(stride).map(Tuple::from).collect();
            let mut doomed: Vec<&Tuple> = owned.iter().collect();
            doomed.extend([&absent, &owned[0]]);
            let flags = remove(&mut s, &doomed);
            assert_eq!(flags.iter().filter(|&&f| f).count(), owned.len());
            left -= owned.len();
            assert_eq!(s.len(), left);
            for node in s.indexes.nodes() {
                assert_eq!(node.index, key_index(&node.positions, s.rows()));
                assert!(node
                    .index
                    .values()
                    .all(|o| o.windows(2).all(|w| w[0] < w[1])));
            }
            for (off, x) in s.scan().enumerate() {
                assert_eq!(s.find(x), Some(off as u32));
            }
            assert!(owned.iter().all(|x| !s.contains(x)));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn columnar_removal_drops_emptied_runs() {
        let mut s = ColumnarBackend::new();
        let (a, b) = (t(&[1]), t(&[2]));
        batch_insert(&mut s, &[&a]);
        batch_insert(&mut s, &[&b]);
        assert_eq!(s.runs.len(), 2);
        remove(&mut s, &[&a]);
        assert_eq!(s.runs.len(), 1);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&b));
    }

    #[test]
    fn hash_scan_is_insertion_order() {
        let mut s = HashBackend::new();
        for n in [5, 1, 9, 3] {
            s.insert(t(&[n]));
        }
        let got: Vec<Tuple> = s.scan().map(Tuple::from).collect();
        assert_eq!(got, vec![t(&[5]), t(&[1]), t(&[9]), t(&[3])]);
    }

    #[test]
    fn columnar_scan_is_sorted_within_runs_and_deterministic() {
        let mut s = ColumnarBackend::new();
        let (a, b, c) = (t(&[5]), t(&[1]), t(&[9]));
        batch_insert(&mut s, &[&a, &b]);
        batch_insert(&mut s, &[&c]);
        let got: Vec<Tuple> = s.scan().map(Tuple::from).collect();
        assert_eq!(got, vec![t(&[1]), t(&[5]), t(&[9])]);
    }

    #[test]
    fn columnar_compaction_preserves_contents_and_probes() {
        let mut s = ColumnarBackend::new();
        s.ensure_index(&[0]);
        // MAX_RUNS + 2 batches force at least one compaction.
        for i in 0..(MAX_RUNS as i64 + 2) {
            let x = t(&[i % 3, i]);
            batch_insert(&mut s, &[&x]);
        }
        assert!(s.runs.len() <= MAX_RUNS, "{} runs", s.runs.len());
        assert_eq!(s.len(), MAX_RUNS + 2);
        let probe = s.probe(&[0], &t(&[0]));
        let expect = (0..(MAX_RUNS as i64 + 2)).filter(|i| i % 3 == 0).count();
        assert_eq!(probe.len(), expect);
        // Scan agrees with len and holds no duplicates.
        let mut all: Vec<Tuple> = s.scan().map(Tuple::from).collect();
        assert_eq!(all.len(), s.len());
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), s.len());
    }

    #[test]
    fn probe_after_late_ensure_index_matches_fallback() {
        let mut s = ColumnarBackend::new();
        let batch: Vec<Tuple> = (0..20).map(|i| t(&[i % 4, i])).collect();
        let refs: Vec<&Tuple> = batch.iter().collect();
        batch_insert(&mut s, &refs);
        let key = t(&[2]);
        let before: Vec<Tuple> = s.probe(&[0], &key).iter().map(Tuple::from).collect();
        s.ensure_index(&[0]);
        let mut after: Vec<Tuple> = s.probe(&[0], &key).iter().map(Tuple::from).collect();
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    /// Indexes are built through `&self`: threads asking at once for the
    /// same index build it once, for different ones build each, and the
    /// probes agree with a filtered scan. Later writes maintain all of them.
    fn concurrent_ensure_index<S: Storage + Default + Sync>() {
        let mut s = S::default();
        let batch: Vec<Tuple> = (0..200).map(|i| t(&[i % 7, i % 5, i])).collect();
        batch_insert(&mut s, &batch.iter().collect::<Vec<_>>());
        let shared = &s;
        std::thread::scope(|scope| {
            for positions in [&[0usize][..], &[1], &[0], &[0, 1], &[1]] {
                scope.spawn(move || {
                    let key = t(&vec![3; positions.len()]);
                    let indexed = shared.ensure_index(positions).probe(&key).len();
                    let scanned = shared.scan().filter(|x| proj_matches(x, positions, &key));
                    assert_eq!(indexed, scanned.count(), "{positions:?}");
                });
            }
        });
        s.insert(t(&[3, 3, 1000]));
        for positions in [&[0usize][..], &[1], &[0, 1]] {
            let key = t(&vec![3; positions.len()]);
            let scanned = s
                .scan()
                .filter(|x| proj_matches(x, positions, &key))
                .count();
            assert_eq!(s.probe(positions, &key).len(), scanned, "{positions:?}");
        }
    }

    #[test]
    fn indexes_build_once_through_shared_references() {
        concurrent_ensure_index::<HashBackend>();
        concurrent_ensure_index::<ColumnarBackend>();
        let tuples: Vec<Tuple> = (0..10).map(|i| t(&[i % 2])).collect();
        let s = HashBackend::from_rows(tuples.iter().map(Tuple::values));
        s.ensure_index(&[0]);
        s.ensure_index(&[0]);
        assert_eq!(
            s.indexes.nodes().count(),
            1,
            "a second request builds nothing"
        );
    }

    #[test]
    fn hash_collisions_do_not_merge_distinct_tuples() {
        // Not a constructed collision, but the equality check is exercised
        // on every bucket walk; insert enough to make buckets plural.
        let mut s = HashBackend::new();
        for i in 0..1000 {
            assert!(s.insert(t(&[i])));
        }
        for i in 0..1000 {
            assert!(s.contains(&t(&[i])));
            assert!(!s.insert(t(&[i])));
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn estimated_bytes_weigh_symbols_heavier_than_ints() {
        let u2 = RelType::new(vec![Sort::U, Sort::U]);
        let i2 = RelType::new(vec![Sort::I, Sort::I]);
        assert!(estimated_tuple_bytes(&u2) > estimated_tuple_bytes(&i2));
        // Pure function of the type — header 16, `u` 48, `i` 16 — and of
        // nothing else: not of stored data, not of the tuple layout.
        assert_eq!(estimated_tuple_bytes(&u2), 16 + 2 * 48);
        assert_eq!(estimated_tuple_bytes(&i2), 16 + 2 * 16);
        assert_eq!(estimated_tuple_bytes(&RelType::new(Vec::new())), 16);
    }

    #[test]
    fn backend_kind_parses_cli_names() {
        assert_eq!(BackendKind::parse("hash"), Some(BackendKind::Hash));
        assert_eq!(BackendKind::parse("columnar"), Some(BackendKind::Columnar));
        assert_eq!(BackendKind::parse("btree"), None);
        assert_eq!(BackendKind::Hash.name(), "hash");
        assert_eq!(BackendKind::Columnar.to_string(), "columnar");
        assert_eq!(BackendKind::default(), BackendKind::Hash);
    }
}
