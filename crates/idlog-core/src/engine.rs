//! Semi-naive bottom-up execution of rule plans.
//!
//! [`EvalState`] holds one [`Relation`] per [`PredKey`]: the input
//! relations, shared with the database they come from, and the IDB
//! relations and materialized ID-relations the evaluation owns. Each
//! relation carries its own pluggable storage backend
//! ([`idlog_storage::Storage`]): the engine talks to it only through scan /
//! indexed probe / `delta_batch_insert`, so hash and columnar relations
//! evaluate through identical code. A stratum is evaluated by running every
//! rule once in full, then delta rounds until no new facts appear: each
//! positive same-stratum atom step with new tuples drives the rule's
//! variant with that step first (`RulePlan::driven_by`), which reads the
//! new tuples and probes the rest of the body on what they bind.
//!
//! **One executor, three views.** `run_rule` is the only code that
//! executes a [`Step`]: generic (monomorphised, no `dyn`) over a
//! `ReadView`, with a `Drive` saying whether the first step reads the view
//! or a change set. [`EvalState`] is the view that hides nothing and adds
//! nothing — the fixpoint rounds, the model checker and DRed's insert phase
//! read it; DRed's overdeletion reads the *old* state through
//! `maintain::OldView`, and its rederivation the surviving state through
//! `maintain::Surviving`. The paper gives a rule body one meaning, and
//! "incremental ≡ recompute" holds because that meaning is coded in one
//! place.
//!
//! **Sources resolved per round.** Before a round, `Resolved` looks up the
//! relation every atom step reads and readies the index it probes
//! ([`Relation::ensure_index`], through a shared reference: an index built
//! on an input stays with the database's relation for every later
//! evaluation). A step then reads its `Source` directly — no predicate
//! lookup and no search for the index per probe — and the round itself is
//! pure reads. A step whose every position is bound tests membership
//! instead of building an index keyed by whole tuples, and a delta round
//! resolves only the variants its delta drives.
//!
//! Rounds execute shared-nothing parallel: the work list (one item per rule
//! in round 0; one item per (plan, delta step, delta shard) afterwards) is
//! built in a deterministic order, fanned out over a [`std::thread::scope`]
//! pool against the read-only state, and each worker's local `out` sink and
//! local [`EvalStats`] are merged at the round barrier **in work-item
//! order**. Delta shards are a function of the delta size only — never of
//! the thread count — so answer relations and statistics are identical for
//! any `threads` value. And because every engine counter is a function of
//! relation *contents* (never of scan order), they are identical across
//! backends too.

use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Nat, SymbolId, Tuple, Value};
use idlog_parser::Builtin;
use idlog_storage::{IndexHandle, Relation, RowBuf, Rows};

use crate::builtins;
use crate::error::{CoreError, CoreResult};
use crate::govern::{panic_message, Governor};
use crate::plan::{AtomStep, RulePlan, Step, TermPat};
use crate::pred::PredKey;
use crate::profile::{ItemRec, RoundProfile, StratumProfile};
use crate::stats::EvalStats;

/// All relations (EDB, IDB, and materialized ID-relations) during one
/// evaluation.
///
/// Every relation sits behind an [`Arc`]. An input relation is the
/// database's own, shared rather than copied; the others start owned. A write
/// goes through [`Arc::make_mut`], so the first write to a relation someone
/// else still holds copies it once, and later writes change it in place.
/// Cloning the state (once per enumeration branch) copies pointers, and
/// indexes live inside each relation's backend, so branches share both the
/// tuples and the indexes of everything they have not written.
#[derive(Debug, Default, Clone)]
pub struct EvalState {
    rels: FxHashMap<PredKey, Arc<Relation>>,
}

impl EvalState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a relation.
    pub fn put(&mut self, key: PredKey, rel: Relation) {
        self.rels.insert(key, Arc::new(rel));
    }

    /// Install (or replace) a relation shared with its owner, not copied.
    pub(crate) fn share(&mut self, key: PredKey, rel: Arc<Relation>) {
        self.rels.insert(key, rel);
    }

    /// Read a relation.
    pub fn get(&self, key: &PredKey) -> Option<&Relation> {
        self.rels.get(key).map(|r| &**r)
    }

    /// Remove a relation, handing it to the caller: moved out when no one
    /// else holds it, copied otherwise.
    pub(crate) fn take(&mut self, key: &PredKey) -> Option<Relation> {
        self.rels.remove(key).map(Arc::unwrap_or_clone)
    }

    /// True when the key has been installed (even if empty).
    pub fn has(&self, key: &PredKey) -> bool {
        self.rels.contains_key(key)
    }

    /// Mutable access to a relation (incremental maintenance applies
    /// inserts and removals in place), copying it first if it is shared.
    pub(crate) fn get_mut(&mut self, key: &PredKey) -> Option<&mut Relation> {
        self.rels.get_mut(key).map(Arc::make_mut)
    }

    /// Rough, deterministic estimate of the bytes held by every stored
    /// relation, shared inputs included (indexes are derived data and
    /// excluded). A pure function of relation sizes and types, so the
    /// governor's `max_bytes` ceiling trips at the same round at any thread
    /// count, on any backend.
    pub fn estimated_bytes(&self) -> u64 {
        self.rels.values().map(|r| r.estimated_bytes()).sum()
    }
}

/// Where an atom step reads its stored matches, resolved once per round.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// No relation is installed under the step's predicate, the step is not
    /// an atom step, or it is a driven variant's first step (which reads
    /// its change set).
    Absent,
    /// Every stored row of the relation, scanned.
    Scan(&'a Relation),
    /// The readied index on the step's bound positions, probed.
    Probe(IndexHandle<'a>),
    /// Every position is bound: a membership test through the view, which
    /// counts a hit as one probe, as a one-candidate index probe does.
    Member,
}

/// A rule plan with the [`Source`] of each of its steps (same indexes).
#[derive(Clone, Copy)]
pub(crate) struct Rule<'a> {
    pub(crate) plan: &'a RulePlan,
    sources: &'a [Source<'a>],
}

/// Plans with their steps' sources resolved against one view: built before
/// a round (or a maintenance pass) and dropped before the state is written
/// again — the borrow checker holds every caller to that.
pub(crate) struct Resolved<'a> {
    plans: Vec<&'a RulePlan>,
    /// Every plan's step sources, back to back in plan order.
    sources: Vec<Source<'a>>,
}

impl<'a> Resolved<'a> {
    /// Look up the relation of every atom step of `plans` in `view`,
    /// readying the index each probing step needs: for rules run in full.
    pub(crate) fn new<V: ReadView>(
        view: &'a V,
        plans: impl IntoIterator<Item = &'a RulePlan>,
    ) -> Self {
        Self::resolve(view, plans, 0)
    }

    /// [`Resolved::new`] for driven variants ([`RulePlan::driven_by`],
    /// [`RulePlan::head_bound`]): their first step reads a change set, so
    /// no index is built over the relation it stands for.
    pub(crate) fn driven<V: ReadView>(
        view: &'a V,
        variants: impl IntoIterator<Item = &'a RulePlan>,
    ) -> Self {
        Self::resolve(view, variants, 1)
    }

    /// Resolve every step from step `from` of each plan on.
    fn resolve<V: ReadView>(
        view: &'a V,
        plans: impl IntoIterator<Item = &'a RulePlan>,
        from: usize,
    ) -> Self {
        let plans: Vec<&RulePlan> = plans.into_iter().collect();
        let sources = plans
            .iter()
            .flat_map(|plan| plan.steps.iter().enumerate())
            .map(|(si, step)| match step {
                Step::Atom(a) if si >= from => match view.relation(&a.key) {
                    None => Source::Absent,
                    Some(rel) if a.probe.is_empty() => Source::Scan(rel),
                    Some(_) if a.fully_bound() => Source::Member,
                    Some(rel) => Source::Probe(rel.ensure_index(a.probe_positions())),
                },
                _ => Source::Absent,
            })
            .collect();
        Resolved { plans, sources }
    }

    /// The plans, in order, each with its sources.
    pub(crate) fn rules(&self) -> impl Iterator<Item = Rule<'_>> {
        let mut start = 0;
        self.plans.iter().map(move |&plan| {
            let end = start + plan.steps.len();
            let sources = &self.sources[start..end];
            start = end;
            Rule { plan, sources }
        })
    }
}

/// What an executing rule body sees of the stored relations: the viewed
/// contents of `key` are the stored rows that are not hidden plus the
/// extras (disjoint parts). "Which state does a read see" is decided by the
/// implementor and nowhere else.
pub(crate) trait ReadView {
    /// The stored relation behind `key` (scanned or probed by atom steps).
    fn relation(&self, key: &PredKey) -> Option<&Relation>;

    /// True when a stored row is not part of the viewed state.
    fn hides(&self, key: &PredKey, row: &[Value]) -> bool;

    /// Viewed rows that are not stored. Atom steps replay them after the
    /// stored matches, verifying probe positions per row.
    fn extras(&self, key: &PredKey) -> Rows<'_>;

    /// Membership in the viewed state (negation steps).
    fn contains(&self, key: &PredKey, row: &[Value]) -> bool;
}

/// The state as stored: nothing hidden, nothing extra — monomorphised, the
/// executor over an `EvalState` is the plain scan/probe loop.
impl ReadView for EvalState {
    fn relation(&self, key: &PredKey) -> Option<&Relation> {
        self.get(key)
    }

    fn hides(&self, _: &PredKey, _: &[Value]) -> bool {
        false
    }

    fn extras(&self, _: &PredKey) -> Rows<'_> {
        Rows::default()
    }

    fn contains(&self, key: &PredKey, row: &[Value]) -> bool {
        self.get(key).is_some_and(|rel| rel.contains_row(row))
    }
}

/// Whether a rule body's first step reads the view or a change set.
#[derive(Clone, Copy)]
pub(crate) enum Drive<'a> {
    /// Every step reads the view.
    Full,
    /// The first step replays these rows instead — a semi-naive delta
    /// shard, a maintenance net change, the rows whose negated membership
    /// flipped, or the head rows to rederive — checking its constants and
    /// repeated variables per row. Only variants are run this way
    /// ([`RulePlan::driven_by`], [`RulePlan::head_bound`]): their first step
    /// stands for the literal the change drives, so nothing before it runs
    /// once per changed row, and no step past the first is ever driven.
    First(Rows<'a>),
}

/// One unit of round work: a rule and what drives it.
struct WorkItem<'a> {
    rule: Rule<'a>,
    drive: Drive<'a>,
}

impl WorkItem<'_> {
    /// Rows this item feeds through its rule body: the delta shard it
    /// replays, or — for a full (round 0, naive) item — the relation its
    /// first step scans. A function of the round's input sizes only, never
    /// of the thread count.
    fn estimated_work(&self, state: &EvalState) -> usize {
        match (self.drive, self.rule.plan.steps.first()) {
            (Drive::First(shard), _) => shard.len(),
            (_, Some(Step::Atom(first))) => state.get(&first.key).map_or(0, Relation::len),
            _ => 1,
        }
    }

    /// The profile record for this item's execution.
    fn record(&self, stats: EvalStats, wall_nanos: u64) -> ItemRec {
        let (delta_step, delta_tuples) = match self.drive {
            Drive::First(shard) => (Some(self.rule.plan.driven_step()), shard.len() as u64),
            Drive::Full => (None, 0),
        };
        ItemRec {
            clause: self.rule.plan.clause_idx,
            delta_step,
            delta_tuples,
            stats,
            wall_nanos,
        }
    }
}

/// Upper bound on shards per (plan, step, predicate) delta. A small constant:
/// enough slack for an 8-way host, while keeping the per-round item count —
/// and therefore the merge cost — bounded.
const MAX_DELTA_SHARDS: usize = 8;

/// A delta is not split below this many tuples per shard; sharding a tiny
/// delta only buys scheduling overhead.
const SHARD_MIN_TUPLES: usize = 64;

/// Estimated round work (in tuples fed to rule bodies, see
/// [`WorkItem::estimated_work`]) below which the round runs on the calling
/// thread. Thread-count-independent, so it only affects scheduling, never
/// results. Measured (EXPERIMENTS.md, "fan-out threshold"): spawning and
/// joining a round's workers costs about 70 µs and a delta tuple about
/// 0.3–0.5 µs of join and insert work, so from 4096 tuples up the fan-out
/// overhead stays under ~5 % of the round; at the former 256, the 1001
/// rounds of a 1000-edge chain (≤ 999 tuples each) all paid it and ran
/// 40 % slower than on one thread.
const PARALLEL_MIN_WORK: usize = 4096;

/// Number of shards for a delta of `n` tuples.
///
/// A function of `n` only, so the work list — and with it the profile's
/// items — is the same at every `--threads` value. A delta item runs its
/// driven variant, whose first step reads the shard, so the work a delta
/// tuple causes does not depend on which shard it lands in.
fn shard_count(n: usize) -> usize {
    (n / SHARD_MIN_TUPLES).clamp(1, MAX_DELTA_SHARDS)
}

/// The head rows a sequence of rule runs derived, back to back in run
/// order, in one strided value buffer. A rule has one head, so a run's
/// output is rows of one predicate and one arity: nothing is tagged, hashed
/// or grouped per row. The buffers (and the executor's binding scratch)
/// keep their capacity across [`Derived::clear`], so a fixpoint reuses its
/// buffers — one, plus one per pool worker — for all its rounds.
///
/// A run does not buffer a head row equal to the one it emitted just
/// before; it counts it in its run's `suppressed`. That row would have
/// been a duplicate within the run, and [`absorb`] keeps the first
/// occurrence of a row in run order, so relations, deltas and `inserted`
/// are what buffering it gave. `absorb` counts `derived` as the run's rows
/// plus its suppressed ones. This is what keeps an existential tail (paper
/// §4's `p(X) :- q(X, Z), z(Z, Y), y(W).`, whose innermost steps bind no
/// head variable) from buffering one row per instantiation. Every other
/// reader of the runs takes them as sets and counts nothing.
#[derive(Debug, Default)]
pub(crate) struct Derived {
    values: Vec<Value>,
    /// Per run, in run order.
    runs: Vec<Run>,
    /// Variable bindings of the run in flight.
    bindings: Vec<Option<Value>>,
}

/// One run of a [`Derived`].
#[derive(Debug)]
struct Run {
    /// The head predicate.
    pred: SymbolId,
    /// The head's arity: values per row.
    arity: usize,
    /// Where the run's values end in `values`; they start where the
    /// previous run's end.
    end: usize,
    /// Rows the run buffered.
    rows: usize,
    /// Head rows the run emitted but did not buffer, each equal to the one
    /// before it.
    suppressed: u64,
}

impl Derived {
    /// Execute one rule body over `view` — whose sources `rule` was
    /// [resolved](Resolved) against — `drive` saying whether its first step
    /// reads a change set, and append the derived head rows as one run.
    /// The only interpreter of a [`Step`] in the workspace: the fixpoint
    /// rounds, the model checker and every DRed phase come through here,
    /// differing only in the view they read and the variant they drive.
    pub(crate) fn run_rule<V: ReadView>(
        &mut self,
        view: &V,
        rule: Rule<'_>,
        drive: Drive<'_>,
        stats: &mut EvalStats,
    ) -> CoreResult<()> {
        let plan = rule.plan;
        self.bindings.clear();
        self.bindings.resize(plan.n_vars, None);
        let mut run = RuleRun {
            view,
            plan,
            sources: rule.sources,
            drive,
            bindings: &mut self.bindings,
            out: &mut self.values,
            rows: 0,
            suppressed: 0,
            stats,
        };
        run.exec(0)?;
        let (rows, suppressed) = (run.rows, run.suppressed);
        self.runs.push(Run {
            pred: plan.head_pred,
            arity: plan.head.len(),
            end: self.values.len(),
            rows,
            suppressed,
        });
        Ok(())
    }

    /// True when no run derived anything.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.iter().all(|run| run.rows == 0)
    }

    /// Forget every run, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.runs.clear();
    }

    /// Run `ri`'s rows.
    fn rows(&self, ri: usize) -> Rows<'_> {
        let start = ri.checked_sub(1).map_or(0, |prev| self.runs[prev].end);
        let run = &self.runs[ri];
        Rows::new(&self.values[start..run.end], run.arity, run.rows)
    }

    /// The non-empty runs in run order: head predicate and rows.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (SymbolId, Rows<'_>)> {
        (0..self.runs.len())
            .map(|ri| (self.runs[ri].pred, self.rows(ri)))
            .filter(|(_, rows)| !rows.is_empty())
    }

    /// Keep only the derivations `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(SymbolId, &[Value]) -> bool) {
        let Derived { values, runs, .. } = self;
        let (mut read, mut write) = (0usize, 0usize);
        for run in runs {
            let mut kept = 0;
            for _ in 0..run.rows {
                let row = read..read + run.arity;
                if keep(run.pred, &values[row.clone()]) {
                    values.copy_within(row, write);
                    write += run.arity;
                    kept += 1;
                }
                read += run.arity;
            }
            run.rows = kept;
            run.end = write;
        }
        values.truncate(write);
    }
}

/// Run one work item with panic containment: a panic inside rule execution
/// (a buggy builtin, a storage fault, an injected failpoint) surfaces as
/// [`CoreError::Internal`] carrying the rule's clause index instead of
/// unwinding across the scoped-thread boundary and aborting the process.
/// Unwind safety: on any error the caller discards `out`, `stats`, and the
/// whole round, so partially mutated locals are never observed.
fn run_item(
    state: &EvalState,
    item: &WorkItem<'_>,
    out: &mut Derived,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The failpoint sits inside the contained region so an injected
        // `panic`/`oom` action exercises the same unwind path a real rule
        // fault would.
        #[cfg(feature = "failpoints")]
        idlog_common::failpoint::hit("eval.worker").map_err(|message| CoreError::Internal {
            clause: Some(item.rule.plan.clause_idx),
            message,
        })?;
        out.run_rule(state, item.rule, item.drive, stats)
    }))
    .unwrap_or_else(|payload| {
        Err(CoreError::Internal {
            clause: Some(item.rule.plan.clause_idx),
            message: format!("rule evaluation panicked: {}", panic_message(payload)),
        })
    })
}

/// Execute one round's work items, serially or over a scoped thread pool,
/// leaving one run per item in `bufs` **in work-item order**: the serial
/// path fills `bufs[0]`, the pool one buffer per worker, each its chunk of
/// the work list. The buffers are grown on demand and must come in empty.
/// Read back to back, they and the statistics are identical for every
/// `threads` value.
///
/// The governor is polled between work items on every path, so a deadline
/// or cancellation stops all workers promptly; the caller discards the
/// round on any error, keeping the surviving state barrier-consistent.
/// Failures (governor trips, rule errors, contained panics) surface as the
/// first failing item in work-item order — the same error the serial path
/// reports, except for the inherently timing-dependent deadline/cancel
/// trips.
///
/// When `recs` is provided, one [`ItemRec`] per work item is appended — in
/// work-item order, so profiles inherit the determinism of the merge. The
/// `recs: None` path is exactly the unprofiled code.
fn run_round(
    state: &EvalState,
    items: &[WorkItem<'_>],
    threads: usize,
    governor: &Governor,
    stats: &mut EvalStats,
    recs: Option<&mut Vec<ItemRec>>,
    bufs: &mut Vec<Derived>,
) -> CoreResult<()> {
    // Estimate the round's work to skip thread spawn for small rounds. The
    // estimate uses no thread-dependent input, so the serial/parallel
    // decision is the same for a given round regardless of `threads` — and
    // either path computes the same result.
    let est: usize = items.iter().map(|it| it.estimated_work(state)).sum();
    let workers = if est < PARALLEL_MIN_WORK { 1 } else { threads };
    run_items(state, items, workers, governor, stats, recs, bufs)
}

/// [`run_round`] after the scheduling decision: `workers <= 1` (or a single
/// item) runs on the calling thread, anything else on a scoped pool of at
/// most `workers` threads.
fn run_items(
    state: &EvalState,
    items: &[WorkItem<'_>],
    workers: usize,
    governor: &Governor,
    stats: &mut EvalStats,
    mut recs: Option<&mut Vec<ItemRec>>,
    bufs: &mut Vec<Derived>,
) -> CoreResult<()> {
    let chunk = match workers.min(items.len()) {
        0 | 1 => items.len().max(1),
        pool => items.len().div_ceil(pool),
    };
    let chunks = items.len().div_ceil(chunk).max(1);
    if bufs.len() < chunks {
        bufs.resize_with(chunks, Derived::default);
    }
    if chunks == 1 {
        let out = &mut bufs[0];
        for item in items {
            governor.poll()?;
            let Some(recs) = recs.as_deref_mut() else {
                run_item(state, item, out, stats)?;
                continue;
            };
            // Profiled: per-item local stats so counters can be attributed,
            // merged into `stats` exactly as the parallel path does.
            let started = std::time::Instant::now();
            let mut local = EvalStats::default();
            run_item(state, item, out, &mut local)?;
            let nanos = started.elapsed().as_nanos() as u64;
            recs.push(item.record(local, nanos));
            *stats += local;
        }
        return Ok(());
    }

    // One output buffer per worker (its chunk's runs back to back), one
    // slot per item for what is attributed per item.
    type Slot = Option<CoreResult<(EvalStats, u64)>>;
    let profiling = recs.is_some();
    let mut slots: Vec<Slot> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let chunks = items.chunks(chunk).zip(slots.chunks_mut(chunk));
        for ((item_chunk, slot_chunk), out) in chunks.zip(bufs.iter_mut()) {
            scope.spawn(move || {
                for (item, slot) in item_chunk.iter().zip(slot_chunk.iter_mut()) {
                    let started = profiling.then(std::time::Instant::now);
                    let mut local = EvalStats::default();
                    let res = governor
                        .poll()
                        .and_then(|()| run_item(state, item, out, &mut local));
                    let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    let failed = res.is_err();
                    *slot = Some(res.map(|()| (local, nanos)));
                    if failed {
                        // The round is doomed; don't burn time on the rest
                        // of the chunk. Later slots stay `None`.
                        break;
                    }
                }
            });
        }
    });

    // A worker stops at its first failing item, leaving later slots in its
    // chunk empty — so in work-item order every `None` is preceded by that
    // chunk's `Err`, and the first non-Ok slot overall is the error the
    // serial path would have reported.
    if slots.iter().any(|s| !matches!(s, Some(Ok(_)))) {
        for slot in slots {
            if let Some(Err(e)) = slot {
                return Err(e);
            }
        }
        return Err(CoreError::Internal {
            clause: None,
            message: "round worker left no result and no error".to_string(),
        });
    }
    for (item, slot) in items.iter().zip(slots) {
        let Some(Ok((local, nanos))) = slot else {
            continue; // unreachable: the all-Ok scan above returned otherwise
        };
        if let Some(recs) = recs.as_deref_mut() {
            recs.push(item.record(local, nanos));
        }
        *stats += local;
    }
    Ok(())
}

/// One full (undriven) item per rule: a stratum's round 0.
fn full_work_list<'a>(resolved: &'a Resolved<'_>) -> Vec<WorkItem<'a>> {
    resolved
        .rules()
        .map(|rule| WorkItem {
            rule,
            drive: Drive::Full,
        })
        .collect()
}

/// A driven variant and the change set its first step reads.
pub(crate) type Driven<'a> = (&'a RulePlan, Rows<'a>);

/// What a delta round drives, in deterministic (plan, step) order: every
/// positive ordinary atom step on a same-stratum predicate with a non-empty
/// delta, as the variant with that step first. Only these variants are
/// resolved, so a round builds no index that only an undriven variant
/// would probe.
pub(crate) fn delta_drives<'a>(
    plans: &[&'a RulePlan],
    same_stratum: &FxHashSet<SymbolId>,
    delta: &'a Delta,
) -> Vec<Driven<'a>> {
    let mut drives = Vec::new();
    for plan in plans {
        for (si, step) in plan.steps.iter().enumerate() {
            let Step::Atom(astep) = step else { continue };
            let PredKey::Ordinary(pred) = &astep.key else {
                continue;
            };
            if !same_stratum.contains(pred) {
                continue;
            }
            // A reused delta map keeps predicates that gained nothing.
            if let Some(d) = delta.get(pred).filter(|d| !d.is_empty()) {
                drives.push((plan.driven_by(si), d.rows()));
            }
        }
    }
    drives
}

/// The delta round's work list: each driven variant (resolved in
/// [`delta_drives`] order) once per shard of its delta.
fn delta_work_list<'a>(resolved: &'a Resolved<'_>, drives: &[Driven<'a>]) -> Vec<WorkItem<'a>> {
    let mut items: Vec<WorkItem<'a>> = Vec::new();
    for (rule, &(_, d)) in resolved.rules().zip(drives) {
        let per_shard = d.len().div_ceil(shard_count(d.len()));
        for shard in d.chunks(per_shard) {
            items.push(WorkItem {
                rule,
                drive: Drive::First(shard),
            });
        }
    }
    items
}

/// The new facts of one round per head predicate, in derivation order, as
/// strided rows. The map and its buffers are reused from round to round, so
/// a predicate that gained nothing this round may linger with an empty
/// buffer.
pub(crate) type Delta = FxHashMap<SymbolId, RowBuf>;

/// Evaluate one stratum to fixpoint.
///
/// `plans` are the rules whose head is in this stratum; `same_stratum` is the
/// set of head predicates of the stratum (used to pick delta steps). Head
/// relations must already be installed in `state`. `threads` bounds the
/// round's worker pool; results and statistics do not depend on it.
pub fn eval_stratum(
    state: &mut EvalState,
    plans: &[&RulePlan],
    same_stratum: &FxHashSet<SymbolId>,
    stats: &mut EvalStats,
    threads: usize,
    governor: &Governor,
    mut prof: Option<&mut StratumProfile>,
) -> CoreResult<()> {
    // The same output buffers and delta map serve every round.
    let (mut bufs, mut delta) = (Vec::new(), Delta::default());
    let mut round = 0usize;
    loop {
        // Round 0: full evaluation of every rule; then delta rounds, each
        // running the variants its delta drives.
        let drives = (round > 0).then(|| delta_drives(plans, same_stratum, &delta));
        let resolved = match &drives {
            None => Resolved::new(&*state, plans.iter().copied()),
            Some(drives) => Resolved::driven(&*state, drives.iter().map(|d| d.0)),
        };
        let items = match &drives {
            None => full_work_list(&resolved),
            Some(drives) => delta_work_list(&resolved, drives),
        };
        let mut recs = prof.as_ref().map(|_| Vec::new());
        run_round(
            state,
            &items,
            threads,
            governor,
            stats,
            recs.as_mut(),
            &mut bufs,
        )?;
        drop(items);
        drop(resolved);
        drop(drives);
        let grew = absorb_contained(state, &mut bufs, stats, recs.as_mut(), &mut delta)?;
        if let (Some(p), Some(recs)) = (prof.as_deref_mut(), recs) {
            p.rounds.push(RoundProfile::from_items(round, recs));
        }
        stats.iterations += 1;
        round += 1;
        if !grew {
            return Ok(());
        }
        // Deterministic barrier: merged state and stats are identical at
        // any thread count here, so *whether* and *which* ceiling trips —
        // and the partial output it leaves behind — are too. An evaluation
        // that reaches fixpoint never gets here, so completing runs are
        // never reported as tripped.
        governor.check_barrier(stats, || state.estimated_bytes())?;
    }
}

/// Run [`absorb`] with panic containment: a fault in the storage layer
/// (e.g. an injected `storage.insert` failpoint) becomes a clean
/// [`CoreError::Internal`]. On error the evaluation is abandoned wholesale,
/// so the partially absorbed round is never observed as a barrier state.
fn absorb_contained(
    state: &mut EvalState,
    outs: &mut [Derived],
    stats: &mut EvalStats,
    recs: Option<&mut Vec<ItemRec>>,
    delta: &mut Delta,
) -> CoreResult<bool> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        absorb(state, outs, stats, recs, delta)
    }))
    .map_err(|payload| CoreError::Internal {
        clause: None,
        message: format!("tuple store panicked: {}", panic_message(payload)),
    })
}

/// Insert the derived rows of `outs` — the round's runs, read buffer after
/// buffer; all left empty — as **one batch per head predicate** through
/// [`Relation::delta_batch_insert`], which appends each new fact to the
/// predicate's `delta` buffer, in derivation order; true when there are
/// any. A duplicate costs one membership check; a new fact is copied into
/// the stored relation and into the delta, and nowhere else. Batching is
/// what lets the columnar backend turn a round's derivations into one
/// sorted run.
///
/// The work per row is the insert: predicates are looked up once per run,
/// never per row, and a round allocates the run list plus a segment list
/// and its counts per predicate, whatever it derives.
///
/// With `recs` — one record per run, in run order — `derived` and
/// `inserted` are also attributed to the work item that produced each row.
/// First occurrence wins within a predicate's batch, which is in run order,
/// so the attribution is that of row-at-a-time insertion.
pub(crate) fn absorb(
    state: &mut EvalState,
    outs: &mut [Derived],
    stats: &mut EvalStats,
    mut recs: Option<&mut Vec<ItemRec>>,
    delta: &mut Delta,
) -> bool {
    for fresh in delta.values_mut() {
        fresh.clear();
    }
    let inserted_before = stats.inserted;
    // Every run in work-item order: its predicate, rows and suppressed rows.
    let runs: Vec<(SymbolId, Rows<'_>, u64)> = outs
        .iter()
        .flat_map(|out| {
            (out.runs.iter().enumerate())
                .map(move |(ri, run)| (run.pred, out.rows(ri), run.suppressed))
        })
        .collect();
    // Head predicates in first-seen order; a stratum has a handful.
    let mut batched: Vec<SymbolId> = Vec::new();
    for (first, &(pred, rows, _)) in runs.iter().enumerate() {
        if rows.is_empty() || batched.contains(&pred) {
            continue;
        }
        batched.push(pred);
        let of_pred = || {
            runs.iter()
                .enumerate()
                .skip(first)
                .filter(move |(_, run)| run.0 == pred)
        };
        let batch: Vec<Rows<'_>> = of_pred().map(|(_, &(_, rows, _))| rows).collect();
        let rel = state
            .get_mut(&PredKey::Ordinary(pred))
            .expect("IDB relation installed before evaluation");
        let counts = rel.delta_batch_insert(&batch, delta.entry(pred).or_default());
        for ((ri, &(_, rows, suppressed)), inserted) in of_pred().zip(counts) {
            let derived = rows.len() as u64 + suppressed;
            let inserted = inserted as u64;
            stats.derived += derived;
            stats.inserted += inserted;
            if let Some(recs) = recs.as_deref_mut() {
                recs[ri].stats.derived += derived;
                recs[ri].stats.inserted += inserted;
            }
        }
    }
    drop(runs);
    outs.iter_mut().for_each(Derived::clear);
    stats.inserted != inserted_before
}

fn resolve(pat: TermPat, bindings: &[Option<Value>]) -> Value {
    match pat {
        TermPat::Const(c) => c,
        TermPat::Var(v) => bindings[v].expect("variable bound by plan order"),
    }
}

/// One rule execution in flight: what every level of the recursion shares.
struct RuleRun<'a, V> {
    view: &'a V,
    plan: &'a RulePlan,
    sources: &'a [Source<'a>],
    drive: Drive<'a>,
    bindings: &'a mut [Option<Value>],
    /// The buffer this run appends its head rows to, after earlier runs'.
    out: &'a mut Vec<Value>,
    /// Head rows this run appended.
    rows: usize,
    /// Head rows emitted but not buffered (see [`Derived`]).
    suppressed: u64,
    stats: &'a mut EvalStats,
}

impl<V: ReadView> RuleRun<'_, V> {
    /// Execute the body from step `si` on under the current bindings.
    fn exec(&mut self, si: usize) -> CoreResult<()> {
        let (view, plan) = (self.view, self.plan);
        let Some(step) = plan.steps.get(si) else {
            self.stats.instantiations += 1;
            let (head, bindings) = (&plan.head, &*self.bindings);
            let last = &self.out[self.out.len() - if self.rows > 0 { head.len() } else { 0 }..];
            let repeats = self.rows > 0
                && head
                    .iter()
                    .zip(last)
                    .all(|(&p, v)| resolve(p, bindings) == *v);
            if repeats {
                self.suppressed += 1;
            } else {
                self.out.extend(head.iter().map(|&p| resolve(p, bindings)));
                self.rows += 1;
            }
            return Ok(());
        };
        match step {
            Step::Atom(astep) => {
                if let (0, Drive::First(changed)) = (si, self.drive) {
                    // Scan the (small) change set, checking its constants.
                    for row in changed {
                        self.try_row(si, astep, row, true)?;
                    }
                    return Ok(());
                }
                match self.sources[si] {
                    // No relation installed → no stored matches.
                    Source::Absent => {}
                    Source::Scan(rel) => {
                        for row in rel.rows() {
                            if !view.hides(&astep.key, row) {
                                self.try_row(si, astep, row, false)?;
                            }
                        }
                    }
                    Source::Probe(index) => {
                        for row in index.probe(&self.probe_key(astep)).iter() {
                            // Probe positions already match; only bind/check remain.
                            if !view.hides(&astep.key, row) {
                                self.try_row(si, astep, row, false)?;
                            }
                        }
                    }
                    Source::Member => {
                        // The key is the whole row; the view's membership
                        // covers what it hides and adds.
                        let t = self.probe_key(astep);
                        if view.contains(&astep.key, t.values()) {
                            self.try_row(si, astep, t.values(), false)?;
                        }
                        return Ok(());
                    }
                }
                for row in view.extras(&astep.key) {
                    self.try_row(si, astep, row, true)?;
                }
                Ok(())
            }
            Step::Negation { key, terms } => {
                let t: Tuple = terms.iter().map(|&p| resolve(p, self.bindings)).collect();
                self.stats.probes += 1;
                if !view.contains(key, t.values()) {
                    self.exec(si + 1)?;
                }
                Ok(())
            }
            Step::Builtin { op, args, bound } => {
                self.stats.builtin_evals += 1;
                self.exec_builtin(si, *op, args, bound)
            }
        }
    }

    /// The values of `astep`'s bound positions under the current bindings.
    fn probe_key(&self, astep: &AtomStep) -> Tuple {
        astep
            .probe
            .iter()
            .map(|&(_, pat)| resolve(pat, self.bindings))
            .collect()
    }

    /// Match one candidate row against an atom step: verify probe positions
    /// (needed for change-set and extras scans), bind new variables, check
    /// repeats, recurse.
    fn try_row(
        &mut self,
        si: usize,
        astep: &AtomStep,
        t: &[Value],
        verify_probe: bool,
    ) -> CoreResult<()> {
        self.stats.probes += 1;
        if verify_probe {
            for &(pos, pat) in &astep.probe {
                if t[pos] != resolve(pat, self.bindings) {
                    return Ok(());
                }
            }
        }
        for &(pos, v) in &astep.bind {
            self.bindings[v] = Some(t[pos]);
        }
        let checks_ok = astep
            .check
            .iter()
            .all(|&(pos, v)| self.bindings[v].expect("bound earlier in step") == t[pos]);
        if checks_ok {
            self.exec(si + 1)?;
        }
        for &(_, v) in &astep.bind {
            self.bindings[v] = None;
        }
        Ok(())
    }

    fn exec_builtin(
        &mut self,
        si: usize,
        op: Builtin,
        args: &[TermPat],
        bound: &[bool],
    ) -> CoreResult<()> {
        // `=` and `!=` work on both sorts; handle them on Values directly.
        if matches!(op, Builtin::Eq | Builtin::Ne) {
            let val = |k: usize| bound[k].then(|| resolve(args[k], self.bindings));
            match (val(0), val(1)) {
                (Some(a), Some(b)) => {
                    if builtins::eq_check(op, a, b) {
                        self.exec(si + 1)?;
                    }
                }
                (Some(known), None) | (None, Some(known)) => {
                    debug_assert_eq!(op, Builtin::Eq, "Ne requires both sides bound");
                    let free = if bound[0] { args[1] } else { args[0] };
                    let TermPat::Var(v) = free else {
                        unreachable!("free side is a variable")
                    };
                    self.bindings[v] = Some(known);
                    self.exec(si + 1)?;
                    self.bindings[v] = None;
                }
                (None, None) => unreachable!("mode table requires one bound side"),
            }
            return Ok(());
        }

        // Arithmetic: integer-only.
        let mut ints: Vec<Option<i64>> = Vec::with_capacity(args.len());
        for (&a, &b) in args.iter().zip(bound) {
            if b {
                match resolve(a, self.bindings) {
                    Value::Int(n) => ints.push(Some(n.get())),
                    Value::Sym(_) => return Ok(()), // wrong sort: no solutions
                }
            } else {
                ints.push(None);
            }
        }
        for sol in builtins::solve(op, &ints)? {
            // Walk arguments: bind free vars, check everything else.
            let mut newly: Vec<usize> = Vec::new();
            let mut ok = true;
            for (k, &a) in args.iter().enumerate() {
                let want = Value::Int(Nat::new(sol[k]).expect("builtins map ℕ into ℕ"));
                match a {
                    TermPat::Const(c) => {
                        if c != want {
                            ok = false;
                            break;
                        }
                    }
                    TermPat::Var(v) => match self.bindings[v] {
                        Some(cur) => {
                            if cur != want {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            self.bindings[v] = Some(want);
                            newly.push(v);
                        }
                    },
                }
            }
            if ok {
                self.exec(si + 1)?;
            }
            for v in newly {
                self.bindings[v] = None;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Interner, Value};

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    fn rel(i: &Interner, names: &[&str]) -> Relation {
        let mut r = Relation::elementary(1);
        for n in names {
            r.insert(vec![Value::Sym(i.intern(n))].into()).unwrap();
        }
        r
    }

    #[test]
    fn put_get_has_roundtrip() {
        let i = Interner::new();
        let p = i.intern("p");
        let mut state = EvalState::new();
        assert!(!state.has(&PredKey::Ordinary(p)));
        state.put(PredKey::Ordinary(p), rel(&i, &["a"]));
        assert!(state.has(&PredKey::Ordinary(p)));
        assert_eq!(state.get(&PredKey::Ordinary(p)).unwrap().len(), 1);
        // Replacing swaps the relation.
        state.put(PredKey::Ordinary(p), rel(&i, &["a", "b"]));
        assert_eq!(state.get(&PredKey::Ordinary(p)).unwrap().len(), 2);
    }

    #[test]
    fn ordinary_and_id_keys_are_distinct() {
        let i = Interner::new();
        let p = i.intern("p");
        let mut state = EvalState::new();
        state.put(PredKey::Ordinary(p), rel(&i, &["a"]));
        assert!(!state.has(&PredKey::Id(p, vec![0])));
        let mut idr = Relation::new(idlog_common::RelType::new(vec![
            idlog_common::Sort::U,
            idlog_common::Sort::I,
        ]));
        idr.insert(vec![Value::Sym(i.intern("a")), int(0)].into())
            .unwrap();
        state.put(PredKey::Id(p, vec![0]), idr);
        assert!(state.has(&PredKey::Id(p, vec![0])));
        assert_ne!(
            state.get(&PredKey::Ordinary(p)).unwrap().arity(),
            state.get(&PredKey::Id(p, vec![0])).unwrap().arity()
        );
    }

    #[test]
    fn clone_keeps_relations_and_their_indexes() {
        let i = Interner::new();
        let key = PredKey::Ordinary(i.intern("p"));
        let mut state = EvalState::new();
        state.put(key.clone(), rel(&i, &["a", "b"]));
        // Indexes live inside each relation's backend, and a clone shares
        // the relation: enumeration branches reuse both, copying nothing.
        state.get(&key).unwrap().ensure_index(&[0]);
        let mut cloned = state.clone();
        assert!(std::ptr::eq(
            state.get(&key).unwrap(),
            cloned.get(&key).unwrap()
        ));
        let a: Tuple = vec![Value::Sym(i.intern("a"))].into();
        assert_eq!(cloned.get(&key).unwrap().probe(&[0], &a).len(), 1);
        // The first write copies the relation, index and all; the original
        // keeps its contents.
        let c: Tuple = vec![Value::Sym(i.intern("c"))].into();
        cloned.get_mut(&key).unwrap().insert(c.clone()).unwrap();
        assert!(!std::ptr::eq(
            state.get(&key).unwrap(),
            cloned.get(&key).unwrap()
        ));
        assert_eq!(cloned.get(&key).unwrap().probe(&[0], &c).len(), 1);
        assert_eq!(state.get(&key).unwrap().probe(&[0], &c).len(), 0);
        assert_eq!(state.get(&key).unwrap().len(), 2);
    }

    /// A small multi-rule program over a 40-edge ring with chords, its
    /// installed state, and (via the returned program) its plans.
    fn ring_fixture() -> (crate::ValidatedProgram, EvalState) {
        let program = crate::ValidatedProgram::parse(
            "tc(X, Y) :- e(X, Y).
             tc(X, Z) :- e(X, Y), e(Y, Z).
             hop(X, Z) :- e(X, Y), e(Y, Z), not e(X, Z).
             far(X, M) :- e(X, Y), d(Y, N), plus(N, 1, M).",
            std::sync::Arc::new(Interner::new()),
        )
        .unwrap();
        let mut db = idlog_storage::Database::with_interner(program.interner().clone());
        let mut facts = String::new();
        for n in 0..40 {
            facts.push_str(&format!("e(v{n}, v{}). d(v{n}, {n}).\n", (n + 1) % 40));
            if n % 3 == 0 {
                facts.push_str(&format!("e(v{n}, v{}).\n", (n + 7) % 40));
            }
        }
        crate::load_facts(&facts, &mut db).unwrap();
        let mut state = EvalState::new();
        crate::eval::install_for_enumeration(&program, &db, &mut state, Default::default())
            .unwrap();
        (program, state)
    }

    /// The scoped pool merges worker output in work-item order, so at any
    /// worker count the derivations, statistics and profile records equal
    /// the serial path's. Driven through [`run_items`] because rounds this
    /// small never reach the pool through [`run_round`]'s threshold.
    #[test]
    fn pooled_rounds_merge_exactly_like_the_serial_path() {
        let (program, state) = ring_fixture();
        let resolved = Resolved::new(&state, program.plans().iter());
        let e = program.interner().get("e").unwrap();
        let edges: Vec<Tuple> = state
            .get(&PredKey::Ordinary(e))
            .unwrap()
            .iter()
            .cloned()
            .collect();
        let shards: Vec<RowBuf> = [&edges[..5], &edges[5..6], &edges[6..30], &edges[30..]]
            .map(|shard| shard.iter().collect())
            .into();
        // Full items for every plan, then the variant of every e-step of
        // every plan driven by four uneven shards of the edge list.
        let variants = program.plans().iter().flat_map(|plan| {
            plan.atom_steps_on(e)
                .into_iter()
                .map(|si| plan.driven_by(si))
        });
        let driven = Resolved::driven(&state, variants);
        let mut items = full_work_list(&resolved);
        for rule in driven.rules() {
            for shard in &shards {
                items.push(WorkItem {
                    rule,
                    drive: Drive::First(shard.rows()),
                });
            }
        }
        let governor = Governor::new(crate::govern::Limits::none(), None);
        let run = |workers: usize, profiled: bool| {
            let mut stats = EvalStats::default();
            let mut recs = Vec::new();
            let mut bufs = Vec::new();
            run_items(
                &state,
                &items,
                workers,
                &governor,
                &mut stats,
                profiled.then_some(&mut recs),
                &mut bufs,
            )
            .unwrap();
            // The buffers read back to back: every run's predicate, rows and
            // suppressed count.
            let out: Vec<(SymbolId, Vec<Tuple>, u64)> = bufs
                .iter()
                .flat_map(|out| out.runs.iter().enumerate().map(move |ri| (out, ri)))
                .map(|(out, (ri, run))| {
                    let rows = out.rows(ri).iter().map(Tuple::from).collect();
                    (run.pred, rows, run.suppressed)
                })
                .collect();
            let recs: Vec<_> = recs
                .iter()
                .map(|r| (r.clause, r.delta_step, r.delta_tuples, r.stats))
                .collect();
            (out, stats, recs)
        };
        let serial = run(1, true);
        let derived: usize = serial.0.iter().map(|(_, tuples, _)| tuples.len()).sum();
        assert!(derived > 100, "fixture derives too little");
        assert_eq!(serial.0.len(), items.len(), "one run per item");
        for workers in [2usize, 3, 7, 64] {
            assert_eq!(run(workers, true), serial, "{workers} workers");
        }
        // The unprofiled pool agrees too.
        let (out, stats, _) = run(3, false);
        assert_eq!((out, stats), (serial.0, serial.1));
    }

    /// A round's work estimate is the tuples it feeds to rule bodies: a full
    /// item counts the relation its first step scans, a delta item its shard.
    #[test]
    fn work_estimate_follows_input_sizes() {
        let (program, state) = ring_fixture();
        let e = program.interner().get("e").unwrap();
        let edges = state.get(&PredKey::Ordinary(e)).unwrap().len();
        let resolved = Resolved::new(&state, [&program.plans()[0]]);
        let rule = resolved.rules().next().unwrap();
        let full = WorkItem {
            rule,
            drive: Drive::Full,
        };
        assert_eq!(full.estimated_work(&state), edges);
        let delta = WorkItem {
            rule,
            drive: Drive::First(Rows::new(&[], 0, 3)),
        };
        assert_eq!(delta.estimated_work(&state), 3);
    }
}
