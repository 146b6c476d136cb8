//! Typed finite relations over a pluggable storage backend.

use std::fmt::Write as _;
use std::io;
use std::sync::OnceLock;

use idlog_common::{
    CommonError, CommonResult, FxHashSet, Interner, Names, RelType, Sort, SymbolId, Tuple, Value,
};

use crate::group::GroupIndex;
use crate::rows::{RowBuf, Rows};
use crate::storage::{
    estimated_tuple_bytes, BackendKind, ColumnarBackend, HashBackend, IndexHandle, Indexes, Probe,
    ScanIter, Storage,
};

/// Which concrete backend a relation delegates to. Static dispatch: every
/// call goes through one `match` and then straight into the backend.
#[derive(Clone, Debug)]
enum BackendImpl {
    Hash(HashBackend),
    Columnar(ColumnarBackend),
}

macro_rules! dispatch {
    ($self:expr, $b:ident => $e:expr) => {
        match &$self.backend {
            BackendImpl::Hash($b) => $e,
            BackendImpl::Columnar($b) => $e,
        }
    };
}

/// [`dispatch!`] for a write, which drops the group indexes and the tuple
/// copy: neither is maintained.
macro_rules! dispatch_mut {
    ($self:expr, $b:ident => $e:expr) => {{
        $self.groups = Indexes::default();
        $self.tuples = OnceLock::new();
        match &mut $self.backend {
            BackendImpl::Hash($b) => $e,
            BackendImpl::Columnar($b) => $e,
        }
    }};
}

/// A finite relation: a set of equal-arity, sort-consistent tuples.
///
/// The row store is one of the [`crate::storage`] backends (hash by
/// default; see [`Relation::new_in`] / [`Relation::to_backend`]); this type
/// layers the declared [`RelType`] and sort checking on top. Its reads
/// ([`Relation::rows`], [`Relation::probe`]) yield rows, `&[Value]`.
/// [`Relation::canonical_view`] gives a canonical order when one is
/// needed (display, canonical tid assignment).
#[derive(Clone, Debug)]
pub struct Relation {
    rtype: RelType,
    backend: BackendImpl,
    /// The sub-relations on each grouping set asked for so far
    /// ([`Relation::group_index`]); every write drops them.
    groups: Indexes<GroupIndex>,
    /// The rows as tuples, once [`Relation::iter`] asked; every write
    /// drops them.
    tuples: OnceLock<Vec<Tuple>>,
}

impl Relation {
    /// An empty relation of the given type, on the default (hash) backend.
    pub fn new(rtype: RelType) -> Self {
        Relation::new_in(rtype, BackendKind::Hash)
    }

    /// An empty relation of the given type on the given backend.
    pub fn new_in(rtype: RelType, kind: BackendKind) -> Self {
        let backend = match kind {
            BackendKind::Hash => BackendImpl::Hash(HashBackend::new()),
            BackendKind::Columnar => BackendImpl::Columnar(ColumnarBackend::new()),
        };
        Relation {
            rtype,
            backend,
            groups: Indexes::default(),
            tuples: OnceLock::new(),
        }
    }

    /// An empty relation with all-uninterpreted columns.
    pub fn elementary(arity: usize) -> Self {
        Relation::new(RelType::elementary(arity))
    }

    /// Build from tuples, type-checking each.
    pub fn from_tuples(
        rtype: RelType,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> CommonResult<Self> {
        let mut rel = Relation::new(rtype);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The backend this relation stores its tuples in.
    pub fn backend_kind(&self) -> BackendKind {
        match &self.backend {
            BackendImpl::Hash(_) => BackendKind::Hash,
            BackendImpl::Columnar(_) => BackendKind::Columnar,
        }
    }

    /// Move this relation onto `kind`, converting the stored tuples in bulk
    /// when the backend actually changes (a no-op otherwise). Bulk
    /// conversion is how columnar relations should be built from existing
    /// data — point inserts into a columnar relation cost a one-tuple run
    /// each.
    pub fn to_backend(self, kind: BackendKind) -> Relation {
        if self.backend_kind() == kind {
            return self;
        }
        // The scan order changes, so no group index comes along.
        let backend = match (self.backend, kind) {
            (BackendImpl::Hash(b), BackendKind::Columnar) => BackendImpl::Columnar(
                ColumnarBackend::from_tuples(b.rows().iter().map(Tuple::from).collect()),
            ),
            (BackendImpl::Columnar(b), BackendKind::Hash) => {
                BackendImpl::Hash(HashBackend::from_rows(b.scan()))
            }
            (same, _) => same,
        };
        Relation {
            rtype: self.rtype,
            backend,
            groups: Indexes::default(),
            tuples: OnceLock::new(),
        }
    }

    /// The relation's declared type.
    pub fn rtype(&self) -> &RelType {
        &self.rtype
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.rtype.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        dispatch!(self, b => b.len())
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check `t` against this relation's arity and column sorts.
    pub fn check_tuple(&self, t: &Tuple) -> CommonResult<()> {
        self.check_row(t.values())
    }

    /// Check `row` against this relation's arity and column sorts.
    pub fn check_row(&self, row: &[Value]) -> CommonResult<()> {
        if row.len() != self.arity() {
            return Err(CommonError::TypeMismatch {
                detail: format!(
                    "arity {} tuple in arity {} relation",
                    row.len(),
                    self.arity()
                ),
            });
        }
        for (i, v) in row.iter().enumerate() {
            if v.sort() != self.rtype.sort(i) {
                return Err(CommonError::TypeMismatch {
                    detail: format!(
                        "column {} expects sort {} but value has sort {}",
                        i + 1,
                        self.rtype.sort(i),
                        v.sort()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Insert a tuple, type-checking it. Returns `Ok(true)` if newly added.
    pub fn insert(&mut self, t: Tuple) -> CommonResult<bool> {
        self.check_tuple(&t)?;
        Ok(dispatch_mut!(self, b => b.insert(t)))
    }

    /// Start a run of sort-checked inserts ([`AppendRun`]), the way a bulk
    /// loader inserts: the rows go to the end of the store as they come,
    /// and the membership table takes them in when the run ends.
    pub fn append_run(&mut self) -> AppendRun<'_> {
        let start = dispatch_mut!(self, b => b.len());
        AppendRun { rel: self, start }
    }

    /// Insert without a sort check. The caller must guarantee the tuple
    /// matches the relation type; the engine uses this on tuples it has
    /// already sort-checked at program validation time.
    pub fn insert_unchecked(&mut self, t: Tuple) -> bool {
        debug_assert!(self.check_tuple(&t).is_ok(), "ill-typed tuple inserted");
        #[cfg(feature = "failpoints")]
        if let Err(msg) = idlog_common::failpoint::hit("storage.insert") {
            panic!("{msg}");
        }
        dispatch_mut!(self, b => b.insert(t))
    }

    /// Insert one derivation batch, given as consecutive segments of rows:
    /// every row not stored before (first occurrence wins for intra-batch
    /// duplicates) is stored and appended to `fresh`, in batch order.
    /// Returns, per segment, how many of its rows were fresh. Duplicates
    /// cost a membership check and no allocation. The caller must guarantee
    /// the rows match the relation type.
    pub fn delta_batch_insert(&mut self, batch: &[Rows<'_>], fresh: &mut RowBuf) -> Vec<usize> {
        debug_assert!(
            batch
                .iter()
                .flat_map(|segment| segment.iter())
                .all(|row| self.check_row(row).is_ok()),
            "ill-typed row in delta batch"
        );
        #[cfg(feature = "failpoints")]
        for _ in batch.iter().flat_map(|segment| segment.iter()) {
            if let Err(msg) = idlog_common::failpoint::hit("storage.insert") {
                panic!("{msg}");
            }
        }
        dispatch_mut!(self, b => b.delta_batch_insert(batch, fresh))
    }

    /// Remove a batch of rows; `flags[i]` is true when row `i` was present
    /// and removed (first occurrence wins for intra-batch duplicates). Scan
    /// order stays a deterministic function of the batch sequence on both
    /// backends, though survivors may move (hash fills each hole with its
    /// last row), and every index stays in step. Used by incremental
    /// maintenance and database retracts — the engine proper never removes.
    pub fn remove_batch(&mut self, batch: Rows<'_>) -> Vec<bool> {
        debug_assert!(
            batch.iter().all(|row| self.check_row(row).is_ok()),
            "ill-typed row in remove batch"
        );
        dispatch_mut!(self, b => b.remove_batch(batch))
    }

    /// The index on `positions`, built on the first request — through a
    /// shared reference, so a relation a database shares with its
    /// snapshots and evaluations is indexed once for all of them — and kept
    /// from then on: inserts and removals maintain it, clones carry it.
    /// The returned handle probes it directly; [`Relation::probe`] on
    /// `positions` is indexed from then on too.
    pub fn ensure_index(&self, positions: &[usize]) -> IndexHandle<'_> {
        dispatch!(self, b => b.ensure_index(positions))
    }

    /// The sub-relations on `positions` (deduplicated and sorted; returned
    /// as stored) in canonical order, built on the first request through a
    /// shared reference as [`Relation::ensure_index`] builds, and kept until
    /// the next write, which drops it; clones carry it. `interner` must be
    /// the one this relation's symbols come from: the order reads their
    /// names, which never change once interned.
    pub(crate) fn group_index(
        &self,
        positions: &[usize],
        interner: &Interner,
    ) -> (&[usize], &GroupIndex) {
        let mut positions = positions.to_vec();
        positions.sort_unstable();
        positions.dedup();
        self.groups
            .get_or_build(&positions, || GroupIndex::build(self, &positions, interner))
    }

    /// The group index on `positions` (as stored: deduplicated and sorted)
    /// if one was built on this version; never builds.
    pub(crate) fn built_group_index(&self, positions: &[usize]) -> Option<&GroupIndex> {
        self.groups.get(positions)
    }

    /// All rows whose projection on `positions` equals `key` (one value
    /// per position, in position order). Indexed when
    /// [`Relation::ensure_index`] ran for `positions`; a correct (but
    /// linear) filtered scan otherwise.
    pub fn probe<'a>(&'a self, positions: &[usize], key: &Tuple) -> Probe<'a> {
        dispatch!(self, b => b.probe(positions, key))
    }

    /// Deterministic estimate of the bytes held by this relation's tuples:
    /// `len × estimated_tuple_bytes(rtype)`, where per-column cost depends
    /// on the declared sort (symbols weigh more than ints — they carry
    /// interner storage). Deliberately a pure function of `len` and the
    /// relation type so the engine's `max_bytes` ceiling trips at the same
    /// fixpoint round at any thread count, on any backend.
    pub fn estimated_bytes(&self) -> u64 {
        (self.len() as u64) * estimated_tuple_bytes(&self.rtype)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.contains_row(t.values())
    }

    /// Membership test for a row.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        dispatch!(self, b => b.contains_row(row))
    }

    /// Iterate the rows in the backend's deterministic scan order
    /// (insertion order for hash, run-then-sorted order for columnar).
    /// Callers that need an order independent of insert history use
    /// [`Relation::canonical_view`].
    pub fn rows(&self) -> ScanIter<'_> {
        dispatch!(self, b => b.scan())
    }

    /// The rows of [`Relation::rows`] as tuples. The first call copies
    /// every row into a tuple of its own and keeps the copy until the next
    /// write. The store holds rows, not tuples, so this is for callers that
    /// want owned `Tuple`s out of a finished relation (tests, the
    /// benchmark's replay); library code reads [`Relation::rows`].
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples
            .get_or_init(|| self.rows().map(Tuple::from).collect())
            .iter()
    }

    /// A borrowed view of this relation in canonical (name-based) order —
    /// the one ordering every consumer shares. See [`CanonicalView`].
    pub fn canonical_view<'a>(&'a self, interner: &'a Interner) -> CanonicalView<'a> {
        let columns: Vec<usize> = (0..self.arity()).collect();
        self.view_by(&columns, interner)
    }

    /// [`Relation::canonical_view`] with the columns compared in the order
    /// `columns` lists them, a permutation of `0..arity`.
    pub(crate) fn view_by<'a>(
        &'a self,
        columns: &[usize],
        interner: &'a Interner,
    ) -> CanonicalView<'a> {
        CanonicalView::new(self.ranked(interner), columns)
    }

    /// This relation's tuples with their symbols ranked by name.
    fn ranked<'a>(&'a self, interner: &'a Interner) -> Ranked<'a> {
        let rows = match &self.backend {
            BackendImpl::Hash(b) => ViewRows::Strided(b.rows()),
            BackendImpl::Columnar(b) => ViewRows::Gathered(b.scan().collect()),
        };
        Ranked::new(self.arity(), rows, interner)
    }

    /// All tuples in canonical (name-based) order, as owned copies.
    /// Deterministic across runs and interning orders. Callers that only
    /// read or print the tuples should use [`Relation::canonical_view`],
    /// which clones nothing.
    pub fn sorted_canonical(&self, interner: &Interner) -> Vec<Tuple> {
        self.canonical_view(interner)
            .iter()
            .map(Tuple::from)
            .collect()
    }

    /// Set-equality with another relation (types must match too). Works
    /// across backends: contents are compared as sets.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.rtype == other.rtype
            && self.len() == other.len()
            && self.rows().all(|row| other.contains_row(row))
    }

    /// All symbols appearing in a column of declared sort `u`. Columns of
    /// sort `i` are skipped even if (through unchecked inserts) they held a
    /// symbol.
    pub fn u_constants(&self) -> FxHashSet<SymbolId> {
        let mut out = FxHashSet::default();
        for row in self.rows() {
            for (i, v) in row.iter().enumerate() {
                if self.rtype.sort(i) != Sort::U {
                    continue;
                }
                if let Value::Sym(s) = v {
                    out.insert(*s);
                }
            }
        }
        out
    }

    /// Consume into the stored rows, in scan order, dropping the membership
    /// table and every index. [`CanonicalView::of_rows`] orders and renders
    /// them exactly as [`Relation::canonical_view`] would the relation.
    pub fn into_rows(self) -> RowBuf {
        match self.backend {
            BackendImpl::Hash(b) => b.into_rows(),
            BackendImpl::Columnar(b) => b.into_tuples().iter().collect(),
        }
    }
}

/// A run of inserts into one relation ([`Relation::append_run`]). Each
/// row is checked against the relation's type as it comes. On the hash
/// backend it is appended to the store with no membership check, and when
/// the run drops, the membership table grows once and takes the run's rows
/// in order: a row stored before, or earlier in the run, is dropped then,
/// so the result is what inserting the rows one by one gives, scan order
/// included. The columnar backend inserts each row as it comes.
pub struct AppendRun<'r> {
    rel: &'r mut Relation,
    /// The store's length when the run began.
    start: usize,
}

impl AppendRun<'_> {
    /// Check `row` against the relation's arity and sorts, then add it to
    /// the run.
    pub fn push(&mut self, row: &[Value]) -> CommonResult<()> {
        self.rel.check_row(row)?;
        match &mut self.rel.backend {
            BackendImpl::Hash(b) => b.append_row(row),
            BackendImpl::Columnar(b) => {
                b.insert(Tuple::from(row));
            }
        }
        Ok(())
    }
}

impl Drop for AppendRun<'_> {
    fn drop(&mut self) {
        if let BackendImpl::Hash(b) = &mut self.rel.backend {
            b.settle_run(self.start);
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for Relation {}

/// One column of a canonical sort key: integers (tag 0, by value) order
/// before symbols (tag 1, by name rank), matching
/// [`Value::cmp_canonical`].
pub(crate) type KeyPart = (u8, i64);

/// A relation's rows, borrowed in scan order; a row's index here is its
/// *row id*.
enum ViewRows<'a> {
    /// Stored back to back: a hash backend's store, or the rows a consumed
    /// relation left ([`Relation::into_rows`]).
    Strided(Rows<'a>),
    /// Gathered from a columnar backend's runs.
    Gathered(Vec<&'a [Value]>),
}

impl<'a> ViewRows<'a> {
    fn len(&self) -> usize {
        match self {
            ViewRows::Strided(rows) => rows.len(),
            ViewRows::Gathered(rows) => rows.len(),
        }
    }

    /// The values of row id `row`.
    #[inline]
    fn get(&self, row: usize) -> &'a [Value] {
        match self {
            ViewRows::Strided(rows) => rows.get(row),
            ViewRows::Gathered(rows) => rows[row],
        }
    }

    /// The rows in row-id order.
    fn iter(&self) -> impl Iterator<Item = &'a [Value]> + '_ {
        (0..self.len()).map(|row| self.get(row))
    }
}

/// A relation's rows, borrowed in scan order, with what canonical order
/// needs to know about their values: every distinct symbol ranked by name
/// and the integer range of every column. It holds symbol ids only — an id
/// → rank table and a rank → id list — and no copy of any name: a renderer
/// reads the names in place from the interner's arena. Sort keys are built
/// from this in one more pass over the tuples, in whichever shape the
/// consumer sorts: [`Ranked::key_parts`] or the packed keys of
/// [`CanonicalView`].
pub(crate) struct Ranked<'a> {
    arity: usize,
    tuples: ViewRows<'a>,
    /// The interner the relation's symbols come from.
    interner: &'a Interner,
    /// Interner index → the symbol's name rank among this relation's
    /// symbols (meaningless for symbols the relation does not hold).
    rank_of: Vec<u32>,
    /// Name rank → the symbol.
    by_rank: Vec<SymbolId>,
    /// Per column: the least and greatest integer, and whether it holds
    /// any symbol.
    cols: Vec<(Option<(i64, i64)>, bool)>,
}

impl<'a> Ranked<'a> {
    fn new(arity: usize, tuples: ViewRows<'a>, interner: &'a Interner) -> Self {
        assert!(
            u32::try_from(tuples.len()).is_ok(),
            "relation exceeds the u32 offset range of the tuple stores"
        );
        // One pass over the values: number the distinct symbols as they
        // come. Symbol ids are dense indexes into the interner, so a flat
        // table (0 = not seen yet) does for a map.
        let mut numbers: Vec<u32> = vec![0; interner.len()];
        let mut symbols: Vec<SymbolId> = Vec::new();
        let mut cols: Vec<(Option<(i64, i64)>, bool)> = vec![(None, false); arity];
        for t in tuples.iter() {
            debug_assert_eq!(t.len(), arity, "ill-typed row in relation");
            for (v, (ints, has_sym)) in t.iter().zip(&mut cols) {
                match v {
                    Value::Int(n) => {
                        let n = n.get();
                        let (lo, hi) = ints.unwrap_or((n, n));
                        *ints = Some((lo.min(n), hi.max(n)));
                    }
                    Value::Sym(s) => {
                        *has_sym = true;
                        let number = &mut numbers[s.index()];
                        if *number == 0 {
                            symbols.push(*s);
                            *number = symbols.len() as u32;
                        }
                    }
                }
            }
        }

        // Rank the symbols by name under one hold of the interner's lock,
        // reading each name in place in its arena. Most comparisons end at
        // the names' first eight bytes, held as one big-endian integer per
        // symbol number; only names sharing those are read again.
        let mut by_name: Vec<u32> = (0..symbols.len() as u32).collect();
        interner.with_names(|names| {
            let prefixes: Vec<u64> = symbols
                .iter()
                .map(|&s| {
                    let name = names.resolve(s).as_bytes();
                    let mut prefix = [0u8; 8];
                    let n = name.len().min(8);
                    prefix[..n].copy_from_slice(&name[..n]);
                    u64::from_be_bytes(prefix)
                })
                .collect();
            let name = |number: u32| names.resolve(symbols[number as usize]);
            // Distinct symbols have distinct names: no ties to reorder.
            by_name.sort_unstable_by(|&a, &b| {
                prefixes[a as usize]
                    .cmp(&prefixes[b as usize])
                    .then_with(|| name(a).cmp(name(b)))
            });
        });
        // The numbering has served; the table now maps ids to ranks.
        let mut rank_of = numbers;
        let by_rank = (by_name.into_iter().enumerate())
            .map(|(rank, number)| {
                let s = symbols[number as usize];
                rank_of[s.index()] = rank as u32;
                s
            })
            .collect();
        Ranked {
            arity,
            tuples,
            interner,
            rank_of,
            by_rank,
            cols,
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.tuples.len()
    }

    /// One value's key part.
    fn part(&self, v: &Value) -> KeyPart {
        match v {
            Value::Int(n) => (0, n.get()),
            Value::Sym(s) => (1, i64::from(self.rank_of[s.index()])),
        }
    }

    /// Flat sort keys in scan order: row `i` owns `[i * arity..][..arity]`,
    /// and comparing two rows' keys compares the tuples canonically.
    fn key_parts(&self) -> Vec<KeyPart> {
        let mut keys = Vec::with_capacity(self.len() * self.arity);
        for t in self.tuples.iter() {
            keys.extend(t.iter().map(|v| self.part(v)));
        }
        keys
    }

    /// Append the value a key part stands for to `buf`: the integer, or
    /// the name of the symbol of that rank, read from `names`.
    fn push_part(&self, names: Names<'_>, part: KeyPart, buf: &mut String) {
        match part {
            (0, n) => {
                // Writing to a `String` cannot fail.
                let _ = write!(buf, "{n}");
            }
            (_, rank) => buf.push_str(names.resolve(self.by_rank[rank as usize])),
        }
    }
}

/// Bits needed to tell `codes` values apart.
fn width_of(codes: u128) -> u32 {
    128 - codes.saturating_sub(1).leading_zeros()
}

/// A mask of the `bits` lowest bits.
fn low_bits(bits: u32) -> u64 {
    1u64.checked_shl(bits).map_or(u64::MAX, |b| b - 1)
}

/// Where one column sits in a packed key, and how its codes read: the
/// column's integers come first (`n - int_min`), then its symbols
/// (`int_codes + rank`) — integers before symbols, as in [`KeyPart`] order.
struct PackedCol {
    shift: u32,
    mask: u64,
    int_min: i64,
    int_codes: u64,
}

/// The canonical order itself, in one of two shapes.
enum Order {
    /// One integer per row, ascending: `key << row bits | row id`, the key
    /// being the columns' codes side by side, first column highest. Sorting
    /// the integers sorts the relation; each one still names its row and
    /// decodes back into its key parts.
    Packed {
        sorted: Vec<u64>,
        cols: Vec<PackedCol>,
        row_mask: u64,
    },
    /// Keys that do not fit beside a row id in 64 bits: [`KeyPart`] keys
    /// in scan order and a permutation sorted by comparing them.
    Wide { keys: Vec<KeyPart>, perm: Vec<u32> },
}

/// A relation's rows in canonical (name-based) order, borrowed: the order
/// is a permutation over the backend's scan order, so no row is copied and
/// nothing is allocated per row.
///
/// Building the view ranks the relation's distinct symbols by name, reading
/// the names in place in the interner's arena, and keeps only symbol ids;
/// sorting compares integers — whole rows packed into one `u64` each
/// whenever the columns' value ranges allow, which is also all the view
/// then keeps per row. Rendering reads each name from the arena again: the
/// renderers ([`CanonicalView::write_facts`],
/// [`CanonicalView::render_rows`]) take the interner's lock once per chunk
/// of about 64 KiB of rows, never once per row, and never hold it while
/// their output is written, so a slow reader stalls no other thread's
/// interning.
/// Canonical order is a function of relation *content* only — any two
/// relations holding the same set, on either backend, iterate and render
/// identically.
pub struct CanonicalView<'a> {
    ranked: Ranked<'a>,
    order: Order,
}

impl<'a> CanonicalView<'a> {
    /// The view of `rows`, the strided rows of a relation in any order —
    /// as [`Relation::into_rows`] leaves them. It orders and renders exactly
    /// as [`Relation::canonical_view`] on the relation, and needs none of
    /// the relation's membership table or indexes. The rows carry their
    /// count beside the values and the arity: a nullary relation's one row
    /// holds no value.
    pub fn of_rows(rows: Rows<'a>, interner: &'a Interner) -> Self {
        let arity = rows.arity();
        let columns: Vec<usize> = (0..arity).collect();
        CanonicalView::new(
            Ranked::new(arity, ViewRows::Strided(rows), interner),
            &columns,
        )
    }

    /// The view comparing columns in the order `columns` lists them.
    fn new(ranked: Ranked<'a>, columns: &[usize]) -> Self {
        debug_assert!(
            columns.len() == ranked.arity && (0..ranked.arity).all(|c| columns.contains(&c)),
            "columns must permute 0..arity"
        );
        let order = Self::packed(&ranked, columns).unwrap_or_else(|| Self::wide(&ranked, columns));
        CanonicalView { ranked, order }
    }

    /// The packed order, when every row's key fits beside its row id.
    fn packed(ranked: &Ranked<'_>, columns: &[usize]) -> Option<Order> {
        let mut cols = Vec::with_capacity(ranked.arity);
        for &(ints, has_sym) in &ranked.cols {
            let int_codes = ints.map_or(0, |(lo, hi)| hi.abs_diff(lo) as u128 + 1);
            let sym_codes = if has_sym { ranked.by_rank.len() } else { 0 };
            cols.push(PackedCol {
                shift: 0,
                mask: low_bits(width_of(int_codes + sym_codes as u128)),
                int_min: ints.map_or(0, |(lo, _)| lo),
                int_codes: int_codes as u64,
            });
        }
        // Lay the columns out from the last compared (lowest) to the first,
        // above the row id.
        let row_bits = width_of(ranked.len() as u128);
        let mut used = row_bits;
        for &c in columns.iter().rev() {
            let width = cols[c].mask.count_ones();
            // A column of one value takes no bits, wherever it sits.
            if width > 0 {
                cols[c].shift = used;
            }
            used = used.checked_add(width).filter(|&bits| bits <= 64)?;
        }
        let mut sorted: Vec<u64> = Vec::with_capacity(ranked.len());
        for (row, t) in ranked.tuples.iter().enumerate() {
            let mut packed = row as u64;
            for (v, col) in t.iter().zip(&cols) {
                let code = match ranked.part(v) {
                    (0, n) => n.wrapping_sub(col.int_min) as u64,
                    (_, rank) => col.int_codes + rank as u64,
                };
                packed |= code << col.shift;
            }
            sorted.push(packed);
        }
        // A relation is a set: distinct tuples have distinct keys, and the
        // row id below the key never decides.
        sorted.sort_unstable();
        Some(Order::Packed {
            sorted,
            cols,
            row_mask: low_bits(row_bits),
        })
    }

    /// The comparator order: any keys, at 16 bytes per value.
    fn wide(ranked: &Ranked<'_>, columns: &[usize]) -> Order {
        let keys = ranked.key_parts();
        let key = |row: u32| {
            let key = &keys[row as usize * ranked.arity..][..ranked.arity];
            columns.iter().map(move |&c| key[c])
        };
        let mut perm: Vec<u32> = (0..ranked.len() as u32).collect();
        // Distinct keys again: the unstable sort has no ties to reorder.
        perm.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        Order::Wide { keys, perm }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row id of the tuple at canonical position `pos`.
    pub(crate) fn row(&self, pos: usize) -> usize {
        match &self.order {
            Order::Packed {
                sorted, row_mask, ..
            } => (sorted[pos] & row_mask) as usize,
            Order::Wide { perm, .. } => perm[pos] as usize,
        }
    }

    /// Key part of column `col` of the tuple at canonical position `pos`.
    pub(crate) fn part(&self, pos: usize, col: usize) -> KeyPart {
        match &self.order {
            Order::Packed { sorted, cols, .. } => {
                let col = &cols[col];
                let code = (sorted[pos] >> col.shift) & col.mask;
                match code.checked_sub(col.int_codes) {
                    None => (0, col.int_min.wrapping_add(code as i64)),
                    Some(rank) => (1, rank as i64),
                }
            }
            Order::Wide { keys, perm } => keys[perm[pos] as usize * self.ranked.arity + col],
        }
    }

    /// The rows in canonical order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [Value]> + '_ {
        (0..self.len()).map(|pos| self.ranked.tuples.get(self.row(pos)))
    }

    /// Every tuple as its values joined by `sep` (`v1,v2` on the wire), in
    /// canonical order, each in a string of its own. The names are read a
    /// chunk of rows at a time under one hold of the interner's lock.
    pub fn render_rows(&self, sep: &str) -> Vec<String> {
        let mut rows = Vec::with_capacity(self.len());
        let mut row = String::new();
        let mut pos = 0;
        while pos < self.len() {
            self.render_chunk(&mut pos, |names, pos| {
                row.clear();
                self.push_cols(names, pos, 0..self.ranked.arity, sep, &mut row);
                rows.push(row.clone());
                row.len()
            });
        }
        rows
    }

    /// Write every tuple to `out` as one `prefix(v1, v2)` line — `prefix`
    /// followed by [`Tuple::display`] and a newline — in canonical order,
    /// in chunks of about 64 KiB: the cost per row is formatting, never a
    /// system call or a lock, whatever buffering `out` has, and the lock is
    /// released before a chunk is written. Rows sharing their first value
    /// — long runs, in canonical order — share one rendering of their
    /// `prefix(v1` head.
    pub fn write_facts(&self, prefix: &str, out: &mut impl io::Write) -> io::Result<()> {
        let arity = self.ranked.arity;
        let mut buf = String::with_capacity(CHUNK + 256);
        // The head of the run being written, and the first value it renders.
        let mut head = String::new();
        let mut head_of: Option<KeyPart> = None;
        let mut pos = 0;
        while pos < self.len() {
            self.render_chunk(&mut pos, |names, pos| {
                let first = (arity > 0).then(|| self.part(pos, 0));
                if pos == 0 || first != head_of {
                    head.clear();
                    head.push_str(prefix);
                    head.push('(');
                    self.push_cols(names, pos, 0..arity.min(1), ", ", &mut head);
                    head_of = first;
                }
                let start = buf.len();
                buf.push_str(&head);
                self.push_cols(names, pos, 1.min(arity)..arity, ", ", &mut buf);
                buf.push_str(")\n");
                buf.len() - start
            });
            out.write_all(buf.as_bytes())?;
            buf.clear();
        }
        Ok(())
    }

    /// Run `render` on the canonical positions from `*pos` on, under one
    /// hold of the interner's lock, until the rows it renders (it returns
    /// each one's bytes) reach [`CHUNK`] bytes or the rows run out.
    fn render_chunk(&self, pos: &mut usize, mut render: impl FnMut(Names<'_>, usize) -> usize) {
        self.ranked.interner.with_names(|names| {
            let mut bytes = 0;
            while *pos < self.len() && bytes < CHUNK {
                bytes += render(names, *pos);
                *pos += 1;
            }
        });
    }

    /// Append columns `cols` of the tuple at canonical position `pos` to
    /// `buf`, each after `sep` but column 0.
    fn push_cols(
        &self,
        names: Names<'_>,
        pos: usize,
        cols: std::ops::Range<usize>,
        sep: &str,
        buf: &mut String,
    ) {
        for col in cols {
            if col > 0 {
                buf.push_str(sep);
            }
            self.ranked.push_part(names, self.part(pos, col), buf);
        }
    }
}

/// About how many bytes of rows a renderer renders under one hold of the
/// interner's lock.
const CHUNK: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: &Interner, n: &str) -> Value {
        Value::Sym(i.intern(n))
    }

    fn int(n: i64) -> Value {
        Value::Int(idlog_common::Nat::new(n).expect("a natural"))
    }

    #[test]
    fn insert_and_contains() {
        let i = Interner::new();
        let mut r = Relation::elementary(2);
        let t: Tuple = vec![sym(&i, "a"), sym(&i, "b")].into();
        assert!(r.insert(t.clone()).unwrap());
        assert!(!r.insert(t.clone()).unwrap());
        assert!(r.contains(&t));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn an_append_run_stores_what_inserting_one_by_one_stores() {
        let i = Interner::new();
        let row = |n: i64| [sym(&i, &format!("k{}", n % 3)), int(n % 5)];
        let before: Vec<_> = (0..4).map(row).collect();
        let run: Vec<_> = (2..40).map(row).collect();
        for kind in [BackendKind::Hash, BackendKind::Columnar] {
            let rtype = || RelType::new(vec![Sort::U, Sort::I]);
            let (mut one_by_one, mut appended) = (
                Relation::new_in(rtype(), kind),
                Relation::new_in(rtype(), kind),
            );
            for r in &before {
                one_by_one.insert(r.iter().copied().collect()).unwrap();
                appended.insert(r.iter().copied().collect()).unwrap();
            }
            // An index built before the run is kept up to date by it.
            one_by_one.ensure_index(&[1]);
            appended.ensure_index(&[1]);
            for r in &run {
                one_by_one.insert(r.iter().copied().collect()).unwrap();
            }
            {
                let mut rows = appended.append_run();
                for r in &run {
                    rows.push(r).unwrap();
                }
                // A row of the wrong sort is refused, and the run goes on.
                assert!(rows.push(&[int(1), int(1)]).is_err());
                assert!(rows.push(&[sym(&i, "k0")]).is_err());
            }
            assert!(appended.iter().eq(one_by_one.iter()), "{kind:?}");
            for n in 0..50 {
                let t: Tuple = row(n).into_iter().collect();
                assert_eq!(appended.contains(&t), one_by_one.contains(&t));
                let key: Tuple = vec![int(n % 5)].into();
                let (got, want) = (appended.probe(&[1], &key), one_by_one.probe(&[1], &key));
                assert!(got.iter().eq(want.iter()), "{kind:?} {n}");
            }
        }
    }

    #[test]
    fn rejects_wrong_arity() {
        let i = Interner::new();
        let mut r = Relation::elementary(2);
        let t: Tuple = vec![sym(&i, "a")].into();
        assert!(r.insert(t).is_err());
    }

    #[test]
    fn rejects_wrong_sort() {
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        let bad: Tuple = vec![sym(&i, "a"), sym(&i, "b")].into();
        assert!(r.insert(bad).is_err());
        let good: Tuple = vec![sym(&i, "a"), int(3)].into();
        assert!(r.insert(good).is_ok());
    }

    #[test]
    fn sorted_canonical_is_name_order() {
        let i = Interner::new();
        let mut r = Relation::elementary(1);
        // Intern in an order that disagrees with name order.
        for n in ["zoo", "ant", "mid"] {
            r.insert(vec![sym(&i, n)].into()).unwrap();
        }
        let sorted = r.sorted_canonical(&i);
        let names: Vec<String> = sorted
            .iter()
            .map(|t| t[0].as_sym().map(|s| i.resolve(s)).unwrap())
            .collect();
        assert_eq!(names, ["ant", "mid", "zoo"]);
    }

    #[test]
    fn write_facts_chunks_large_outputs_without_losing_rows() {
        /// Records each `write` call's size.
        struct Chunks(Vec<u8>, Vec<usize>);
        impl io::Write for Chunks {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::I, Sort::U]));
        for n in (0..9000).rev() {
            r.insert(vec![int(n), sym(&i, "row")].into()).unwrap();
        }
        let view = r.canonical_view(&i);
        let mut out = Chunks(Vec::new(), Vec::new());
        view.write_facts("p", &mut out).unwrap();
        let expected: String = (0..9000).map(|n| format!("p({n}, row)\n")).collect();
        assert_eq!(String::from_utf8(out.0).unwrap(), expected);
        // ~120 KB leaves in a few large writes, not one per row.
        assert!((2..=4).contains(&out.1.len()), "{:?}", out.1);
    }

    /// The two shapes of the canonical order — packed integers, and the
    /// key comparator they fall back to — agree on every relation both can
    /// sort, whichever column is compared first: same permutation, same
    /// rendered rows. Arity 0–4, both sorts per column, small and extreme
    /// naturals; a column spanning all of `0..=i64::MAX` (63 bits) beside
    /// the row ids of three rows or more is too wide to pack and must say so.
    mod packed_order {
        use super::*;
        use proptest::prelude::*;

        const INTS: [i64; 8] = [0, 1, 3, 7, 10, 100, 1000, i64::MAX];

        fn rendered(view: &CanonicalView<'_>) -> (Vec<Tuple>, String) {
            let mut facts: Vec<u8> = Vec::new();
            view.write_facts("p", &mut facts).unwrap();
            let facts = String::from_utf8(facts).unwrap();
            (view.iter().map(Tuple::from).collect(), facts)
        }

        proptest! {
            #[test]
            fn packed_keys_sort_like_the_comparator(
                arity in 0usize..5,
                int_column in proptest::collection::vec(any::<bool>(), 4),
                rows in proptest::collection::vec(proptest::collection::vec(0usize..8, 4), 0..20),
                narrow in any::<bool>(),
                rotation in 0usize..4,
            ) {
                let i = Interner::new();
                for name in ["zz", "b0", "b", "ab", "a_1", "a", "B", ""] {
                    i.intern(name);
                }
                let sorts: Vec<Sort> =
                    int_column[..arity].iter().map(|&int| if int { Sort::I } else { Sort::U }).collect();
                let mut rel = Relation::new(RelType::new(sorts.clone()));
                for row in rows {
                    let t: Tuple = sorts
                        .iter()
                        .zip(row)
                        .map(|(sort, k)| match sort {
                            // Half the cases keep clear of the extremes: a
                            // few bits per column, which must pack.
                            Sort::I => int(INTS[if narrow { 1 + k % 6 } else { k }]),
                            Sort::U => Value::Sym(SymbolId(k as u32)),
                        })
                        .collect();
                    rel.insert(t).unwrap();
                }
                let spans_all = |col: usize| {
                    let has = |n: i64| rel.iter().any(|t| t[col] == int(n));
                    has(0) && has(i64::MAX)
                };
                let too_wide = rel.len() >= 3 && (0..arity).any(spans_all);
                // The columns compared in a rotated order: a group index
                // compares its grouping columns first.
                let columns: Vec<usize> = (0..arity).map(|c| (c + rotation) % arity.max(1)).collect();

                let ranked = rel.ranked(&i);
                let order = CanonicalView::wide(&ranked, &columns);
                let wide = CanonicalView { ranked, order };
                let mut expected: Vec<Tuple> = rel.iter().cloned().collect();
                expected.sort_by(|a, b| a.project(&columns).cmp_canonical(&b.project(&columns), &i));
                prop_assert_eq!(&rendered(&wide).0, &expected);

                let ranked = rel.ranked(&i);
                match CanonicalView::packed(&ranked, &columns) {
                    Some(order) => {
                        prop_assert!(!too_wide, "64-bit column packed");
                        let packed = CanonicalView { ranked, order };
                        prop_assert_eq!(rendered(&packed), rendered(&wide));
                    }
                    // Two wide columns, or fewer rows beside other
                    // columns, overflow too.
                    None => prop_assert!(!narrow, "narrow key not packed"),
                }
            }
        }
    }

    /// Threads asking for the same group index at once, through a shared
    /// reference, build it once and all read that one; a write drops it.
    #[test]
    fn threads_asking_at_once_build_one_group_index() {
        let i = Interner::new();
        let mut r = Relation::elementary(2);
        for n in 0..2_000 {
            r.insert(vec![sym(&i, &format!("g{}", n % 20)), sym(&i, &format!("m{n}"))].into())
                .unwrap();
        }
        let start = std::sync::Barrier::new(4);
        let built: Vec<usize> = std::thread::scope(|scope| {
            let asks: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let (_, index) = r.group_index(&[0], &i);
                        assert_eq!(index.len(), 20);
                        index as *const GroupIndex as usize
                    })
                })
                .collect();
            asks.into_iter().map(|a| a.join().unwrap()).collect()
        });
        assert!(built.windows(2).all(|w| w[0] == w[1]), "{built:?}");
        assert_eq!(r.groups.nodes().count(), 1, "one index built");
        r.insert(vec![sym(&i, "g0"), sym(&i, "late")].into())
            .unwrap();
        assert_eq!(r.groups.nodes().count(), 0, "the write dropped it");
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let i = Interner::new();
        let mut r1 = Relation::elementary(1);
        let mut r2 = Relation::elementary(1);
        r1.insert(vec![sym(&i, "a")].into()).unwrap();
        r1.insert(vec![sym(&i, "b")].into()).unwrap();
        r2.insert(vec![sym(&i, "b")].into()).unwrap();
        r2.insert(vec![sym(&i, "a")].into()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn set_equality_crosses_backends() {
        let i = Interner::new();
        let mut hash = Relation::elementary(1);
        for n in ["a", "b", "c"] {
            hash.insert(vec![sym(&i, n)].into()).unwrap();
        }
        let columnar = hash.clone().to_backend(BackendKind::Columnar);
        assert_eq!(columnar.backend_kind(), BackendKind::Columnar);
        assert_eq!(hash, columnar);
        assert_eq!(columnar, hash);
        // And back again.
        let round_trip = columnar.clone().to_backend(BackendKind::Hash);
        assert_eq!(round_trip.backend_kind(), BackendKind::Hash);
        assert_eq!(round_trip, hash);
        // Divergence is detected in either direction.
        let mut bigger = columnar;
        bigger.insert(vec![sym(&i, "d")].into()).unwrap();
        assert_ne!(hash, bigger);
        assert_ne!(bigger, hash);
    }

    #[test]
    fn u_constants_collects_symbols_only() {
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        r.insert(vec![sym(&i, "a"), int(7)].into()).unwrap();
        let cs = r.u_constants();
        assert_eq!(cs.len(), 1);
        assert!(cs.contains(&i.intern("a")));
    }

    #[test]
    fn u_constants_skips_non_u_columns() {
        // Regression: the doc promises "symbols in columns of sort u", but
        // the old implementation collected `Value::Sym` from every column.
        // An unchecked insert can place a symbol in an `i` column; it must
        // not leak into the u-domain.
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        r.insert(vec![sym(&i, "a"), int(7)].into()).unwrap();
        let smuggled: Tuple = vec![sym(&i, "b"), sym(&i, "rogue")].into();
        // Bypass the sort check the way a buggy caller would.
        if !cfg!(debug_assertions) {
            r.insert_unchecked(smuggled);
            let cs = r.u_constants();
            assert!(cs.contains(&i.intern("b")));
            assert!(
                !cs.contains(&i.intern("rogue")),
                "sort-i column contributed to u_constants"
            );
        } else {
            // Under debug assertions the unchecked insert itself trips; the
            // filter is still exercised via the well-typed rows.
            let cs = r.u_constants();
            assert_eq!(cs.len(), 1);
        }
    }

    #[test]
    fn estimated_bytes_is_type_driven_and_symbol_heavy() {
        let i = Interner::new();
        let mut syms = Relation::new(RelType::new(vec![Sort::U]));
        let mut ints = Relation::new(RelType::new(vec![Sort::I]));
        for k in 0..10 {
            syms.insert(vec![sym(&i, &format!("s{k}"))].into()).unwrap();
            ints.insert(vec![int(k)].into()).unwrap();
        }
        assert!(
            syms.estimated_bytes() > ints.estimated_bytes(),
            "symbol columns must weigh more: {} vs {}",
            syms.estimated_bytes(),
            ints.estimated_bytes()
        );
        // Pure function of len and type: identical across backends.
        let syms_col = syms.clone().to_backend(BackendKind::Columnar);
        assert_eq!(syms.estimated_bytes(), syms_col.estimated_bytes());
    }

    #[test]
    fn probe_agrees_across_backends() {
        let i = Interner::new();
        let mut hash = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("a", "e")] {
            hash.insert(vec![sym(&i, x), sym(&i, y)].into()).unwrap();
        }
        let columnar = hash.clone().to_backend(BackendKind::Columnar);
        hash.ensure_index(&[0]);
        columnar.ensure_index(&[0]);
        let key: Tuple = vec![sym(&i, "a")].into();
        let mut from_hash: Vec<Tuple> = hash.probe(&[0], &key).iter().map(Tuple::from).collect();
        let mut from_col: Vec<Tuple> = columnar.probe(&[0], &key).iter().map(Tuple::from).collect();
        assert_eq!(from_hash.len(), 3);
        from_hash.sort_unstable();
        from_col.sort_unstable();
        assert_eq!(from_hash, from_col);
    }

    #[test]
    fn delta_batches_keep_backends_in_lockstep() {
        let i = Interner::new();
        let mut hash = Relation::elementary(1);
        let mut col = Relation::new_in(RelType::elementary(1), BackendKind::Columnar);
        let batches: Vec<Vec<Tuple>> = vec![
            ["a", "b", "a"]
                .iter()
                .map(|n| vec![sym(&i, n)].into())
                .collect(),
            ["b", "c"].iter().map(|n| vec![sym(&i, n)].into()).collect(),
        ];
        for batch in &batches {
            let rows: RowBuf = batch.iter().collect();
            let (mut fresh_h, mut fresh_c) = (RowBuf::new(), RowBuf::new());
            let fh = hash.delta_batch_insert(&[rows.rows()], &mut fresh_h);
            let fc = col.delta_batch_insert(&[rows.rows()], &mut fresh_c);
            assert_eq!(fh, fc, "counts must agree across backends");
            assert_eq!(fresh_h, fresh_c, "fresh rows must agree across backends");
        }
        assert!(hash.set_eq(&col));
        assert_eq!(hash.len(), 3);
    }
}
