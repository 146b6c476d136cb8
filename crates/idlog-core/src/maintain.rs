//! Incremental view maintenance: keep a computed perfect model up to date
//! under EDB fact inserts and retracts without recomputing it from scratch.
//!
//! [`Materialized`] wraps the post-fixpoint [`EvalState`] of one canonical
//! evaluation. [`Materialized::apply`] re-drives the semi-naive delta
//! machinery from a batch of EDB changes, one stratum at a time, using the
//! classic **DRed** (delete-and-rederive) discipline for stratified
//! negation:
//!
//! 1. **Overdelete** — derive every tuple that loses at least one
//!    derivation, evaluating rule bodies under *old-state* semantics (a
//!    deleted body fact still counts present, an inserted one absent);
//!    within a stratum this iterates to fixpoint, since deleting a head
//!    tuple can unsupport further tuples of the same stratum.
//! 2. **Rederive over the surviving view** — while the overdeleted tuples
//!    are still stored, each rule runs with its head bound to them
//!    (`RulePlan::head_bound`), reading a view that hides whatever is still
//!    overdeleted; a tuple that fires leaves the overdeleted set, iterated
//!    so a rederived tuple can resupport another.
//! 3. **Remove net deletions** — only what stayed overdeleted is
//!    physically retracted, so nothing rederived is removed and stored
//!    again, and each removal costs what it removes (the hash backend
//!    swap-removes).
//! 4. **Insert** — semi-naive insertion rounds: positive deltas replay
//!    inserted tuples; a negated literal whose relation lost tuples is
//!    driven by the net-deleted set (sound because net deletions are, by
//!    construction, absent from the new relation, so each pass is exactly
//!    an instantiation where the negation newly holds).
//!
//! The net per-predicate insert/delete sets of each stratum seed the next,
//! so changes propagate bottom-up exactly as the original evaluation did.
//!
//! **One executor, three views.** No phase interprets a rule body itself:
//! all of them call [`crate::engine`]'s `run_rule`, the executor the
//! fixpoint uses, and differ only in the read view and the change set the
//! first step reads. Phase 1 reads the old state through `OldView` (stored
//! − net inserts + net deletes), phase 2 the surviving state through
//! `Surviving` (stored − still overdeleted), phase 4 the [`EvalState`] as
//! stored. Phases 1 and 4 are mirror images: a positive literal is driven
//! by the net deletes (inserts) of the relation it reads, a negated one by
//! the net inserts (deletes) of the relation it tests. Every change drives
//! the rule's variant with the changed literal first
//! (`RulePlan::driven_by`), so a write's work is what it changes: nothing
//! scans a relation to reach the step a change binds.
//!
//! **Inputs are shared.** The view's input relations are the database's
//! own (see [`crate::engine::EvalState`]): the first change a batch applies
//! to one copies it once — the database already holds the new version —
//! and later changes apply in place.
//!
//! **Applicability.** ID-relations are materialized from a *complete* base
//! relation through a [`crate::tid::TidOracle`]; there is no meaningful
//! incremental update of an ID-assignment (tids may shuffle arbitrarily
//! when the base changes). [`Materialized::apply`] therefore falls back to
//! a full canonical recomputation whenever a changed predicate can reach an
//! ID-literal's base relation — ID-literals over *unaffected* bases keep
//! their materialization, which stays valid because [`CanonicalOracle`] is
//! a pure function of relation content. The fallback also covers ill-typed
//! or otherwise suspicious deltas; the database handed to `apply` is the
//! source of truth either way.

use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId, Tuple, Value};
use idlog_storage::{Database, Relation, RowBuf, Rows};

use crate::config::EvalOptions;
use crate::engine::{
    absorb, delta_drives, Delta, Derived, Drive, Driven, EvalState, ReadView, Resolved,
};
use crate::error::CoreResult;
use crate::eval::evaluate_governed;
use crate::govern::EvalError;
use crate::plan::{RulePlan, Step};
use crate::pred::PredKey;
use crate::program::ValidatedProgram;
use crate::stats::EvalStats;
use crate::tid::CanonicalOracle;

/// How [`Materialized::apply`] satisfied a change batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainOutcome {
    /// The batch was a no-op (every insert already present, every retract
    /// already absent, or no touched predicate feeds this view).
    Unchanged,
    /// The model was updated in place by delta propagation.
    Incremental,
    /// The change reached an ID-literal's base (or the delta was otherwise
    /// unsuitable), so the model was recomputed from the database.
    Recomputed,
}

/// A batch of EDB changes, as (predicate, tuple) pairs. Inserts are applied
/// before retracts; a tuple appearing in both nets out to no change.
#[derive(Debug, Clone, Default)]
pub struct FactDelta {
    /// Facts to add.
    pub inserts: Vec<(SymbolId, Tuple)>,
    /// Facts to remove.
    pub retracts: Vec<(SymbolId, Tuple)>,
}

impl FactDelta {
    /// A single-fact insertion.
    pub fn insert(pred: SymbolId, tuple: Tuple) -> Self {
        FactDelta {
            inserts: vec![(pred, tuple)],
            retracts: Vec::new(),
        }
    }

    /// A single-fact retraction.
    pub fn retract(pred: SymbolId, tuple: Tuple) -> Self {
        FactDelta {
            inserts: Vec::new(),
            retracts: vec![(pred, tuple)],
        }
    }

    /// True when both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }
}

/// A materialized perfect model (canonical oracle) that can be maintained
/// incrementally as the fact database changes.
///
/// Built from a program's *related portion* (what [`crate::Query`]
/// evaluates) and a database; thereafter [`Materialized::apply`] keeps the
/// relations identical to what a fresh canonical evaluation over the
/// updated database would produce — the equivalence the service layer's
/// byte-identical-responses guarantee rests on.
#[derive(Debug, Clone)]
pub struct Materialized {
    program: ValidatedProgram,
    options: EvalOptions,
    state: EvalState,
    build_stats: EvalStats,
}

/// An ordered, deduplicated set of changed rows for one predicate.
/// The order is first-change order, so replay work lists are deterministic.
///
/// `set` is the truth; it is asked about rows directly, as a tuple borrows
/// as its values. `order` holds one row per successful [`add`] and is *not*
/// touched by [`remove`] — rederivation removes most of an
/// overdeleted closure one tuple at a time, and a `retain` per removal made
/// that quadratic — so after removals it must be [`compact`]ed before
/// [`order`] reads it.
///
/// [`add`]: NetChange::add
/// [`remove`]: NetChange::remove
/// [`compact`]: NetChange::compact
/// [`order`]: NetChange::order
#[derive(Debug, Default, Clone)]
struct NetChange {
    order: RowBuf,
    set: FxHashSet<Tuple>,
}

impl NetChange {
    fn add(&mut self, row: &[Value]) -> bool {
        let new = self.set.insert(Tuple::from(row));
        if new {
            self.order.push(row);
        }
        new
    }

    fn remove(&mut self, row: &[Value]) -> bool {
        self.set.remove(row)
    }

    fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Drop the entries of removed tuples from `order`. A tuple re-added
    /// after a removal has several entries; the last is the live one — it
    /// orders by the change that survived.
    fn compact(&mut self) {
        if self.order.len() == self.set.len() {
            return;
        }
        let order = self.order.rows();
        let mut live: FxHashSet<&[Value]> = FxHashSet::default();
        let mut keep: Vec<bool> = (0..order.len())
            .rev()
            .map(|i| order.get(i))
            .map(|row| self.set.contains(row) && live.insert(row))
            .collect();
        drop(live);
        self.order
            .retain(|_| keep.pop().expect("one flag per entry"));
    }

    /// The changed rows in first-change order.
    fn order(&self) -> Rows<'_> {
        debug_assert_eq!(self.order.len(), self.set.len(), "compact() first");
        self.order.rows()
    }
}

type NetMap = FxHashMap<SymbolId, NetChange>;

/// The recorded, non-empty net change of the relation behind `key`.
/// ID-relations never have one: the applicability gate keeps every change
/// away from their bases.
fn net_of<'a>(nets: &'a NetMap, key: &PredKey) -> Option<&'a NetChange> {
    let PredKey::Ordinary(p) = key else {
        return None;
    };
    nets.get(p).filter(|n| !n.is_empty())
}

/// Fold one stratum's net change into the cumulative map the strata above
/// read.
fn publish(into: &mut NetMap, from: NetMap) {
    for (p, mut nc) in from {
        nc.compact();
        if nc.is_empty() {
            continue;
        }
        let slot = into.entry(p).or_default();
        for row in nc.order.rows() {
            slot.add(row);
        }
    }
}

impl Materialized {
    /// Evaluate `program` over `db` with the [`CanonicalOracle`] and keep
    /// the full fixpoint state for maintenance. Pass the *related* program
    /// of a query (see [`crate::Query::related_program`]) so unrelated
    /// clauses neither cost work nor block incrementality.
    pub fn build(
        program: &ValidatedProgram,
        db: &Database,
        options: &EvalOptions,
    ) -> CoreResult<Materialized> {
        let out = evaluate_governed(program, db, &mut CanonicalOracle, options, None)
            .map_err(EvalError::into_core)?;
        let (_, state, stats) = out.into_parts();
        Ok(Materialized {
            program: program.clone(),
            options: *options,
            state,
            build_stats: stats,
        })
    }

    /// The interner shared with the program and database.
    pub fn interner(&self) -> &Arc<Interner> {
        self.program.interner()
    }

    /// The current relation for `name` (input or IDB), if the program
    /// mentions it.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        let id = self.program.interner().get(name)?;
        self.state.get(&PredKey::Ordinary(id))
    }

    /// Statistics of the most recent *full* evaluation (the build, or the
    /// last recompute fallback). Incremental maintenance does not update
    /// them — counters are defined per evaluation, not per lifetime.
    pub fn build_stats(&self) -> EvalStats {
        self.build_stats
    }

    /// Recompute the model from `db` wholesale (also the fallback path of
    /// [`Materialized::apply`]).
    pub fn rebuild(&mut self, db: &Database) -> CoreResult<()> {
        let out = evaluate_governed(&self.program, db, &mut CanonicalOracle, &self.options, None)
            .map_err(EvalError::into_core)?;
        let (_, state, stats) = out.into_parts();
        self.state = state;
        self.build_stats = stats;
        Ok(())
    }

    /// Apply an EDB change batch. `db` must be the tenant database *after*
    /// the changes (it is read only on the recompute fallback) and must
    /// share the program's interner.
    pub fn apply(&mut self, db: &Database, delta: &FactDelta) -> CoreResult<MaintainOutcome> {
        self.apply_counted(db, delta).map(|(outcome, _)| outcome)
    }

    /// [`Materialized::apply`] plus the work the propagation did (zero
    /// unless the outcome is `Incremental`). The counters are a function of
    /// the view and the batch only, so tests can bound maintenance work
    /// deterministically.
    fn apply_counted(
        &mut self,
        db: &Database,
        delta: &FactDelta,
    ) -> CoreResult<(MaintainOutcome, EvalStats)> {
        let untouched = |outcome| Ok((outcome, EvalStats::default()));
        // 1. Apply the EDB delta to the view's input relations, recording the
        //    per-predicate net change. Flags from the storage layer filter
        //    no-ops (re-inserting a present fact, retracting an absent one).
        let mut net_ins: NetMap = NetMap::default();
        let mut net_del: NetMap = NetMap::default();
        let inserts = delta.inserts.iter().map(|c| (c, true));
        let retracts = delta.retracts.iter().map(|c| (c, false));
        for ((pred, t), inserting) in inserts.chain(retracts) {
            match self.classify(*pred, t) {
                EdbFate::Apply => {}
                EdbFate::Ignore => continue,
                EdbFate::Fallback => return untouched(self.recompute(db)?),
            }
            let rel = self
                .state
                .get_mut(&PredKey::Ordinary(*pred))
                .expect("classify checked presence");
            if inserting {
                if rel.insert_unchecked(t.clone()) {
                    net_ins.entry(*pred).or_default().add(t.values());
                }
            } else if rel.remove_batch(Rows::one(t.values()))[0] {
                // An insert-then-retract of the same tuple nets out.
                let was_fresh_insert = net_ins.get_mut(pred).is_some_and(|n| n.remove(t.values()));
                if !was_fresh_insert {
                    net_del.entry(*pred).or_default().add(t.values());
                }
            }
        }
        net_ins.retain(|_, n| {
            n.compact();
            !n.is_empty()
        });
        if net_ins.is_empty() && net_del.is_empty() {
            return untouched(MaintainOutcome::Unchanged);
        }

        // 2. Applicability gate: no changed predicate may reach an
        //    ID-literal's base relation.
        let plans = Arc::clone(self.program.plans());
        let changed: FxHashSet<SymbolId> = net_ins.keys().chain(net_del.keys()).copied().collect();
        let affected = self
            .program
            .stratification()
            .graph()
            .downstream(changed.iter().copied());
        let id_reachable = plans.iter().any(|plan| {
            plan.steps.iter().any(|s| match s.reads() {
                Some(PredKey::Id(base, _)) => affected.contains(base),
                _ => false,
            })
        });
        if id_reachable {
            return untouched(self.recompute(db)?);
        }

        // 3. Propagate stratum by stratum.
        let by_stratum = self
            .program
            .stratification()
            .clauses_by_stratum(self.program.ast());
        let mut stats = EvalStats::default();
        for clauses in &by_stratum {
            let splans: Vec<&RulePlan> = clauses.iter().map(|&ci| &plans[ci]).collect();
            let touched = splans.iter().any(|p| affected.contains(&p.head_pred));
            if !touched {
                continue;
            }
            self.maintain_stratum(&splans, &mut net_ins, &mut net_del, &mut stats)?;
        }
        Ok((MaintainOutcome::Incremental, stats))
    }

    fn recompute(&mut self, db: &Database) -> CoreResult<MaintainOutcome> {
        self.rebuild(db)?;
        Ok(MaintainOutcome::Recomputed)
    }

    /// Decide what to do with one EDB change pair.
    fn classify(&self, pred: SymbolId, t: &Tuple) -> EdbFate {
        if self.program.idb().contains(&pred) {
            // Facts stored under an IDB predicate: let the full evaluation
            // path produce its canonical Input error.
            return EdbFate::Fallback;
        }
        if !self.program.inputs().contains(&pred) {
            return EdbFate::Ignore; // not part of this view
        }
        match self.state.get(&PredKey::Ordinary(pred)) {
            Some(rel) if rel.check_tuple(t).is_ok() => EdbFate::Apply,
            // Arity/sort mismatch against the view's input (e.g. a relation
            // first populated after the build refined different sorts):
            // recompute from the database, the source of truth.
            _ => EdbFate::Fallback,
        }
    }

    /// DRed phases for one stratum. `net_ins`/`net_del` hold the cumulative
    /// net changes of the EDB and all lower strata on entry, and gain this
    /// stratum's head-predicate nets on exit.
    fn maintain_stratum(
        &mut self,
        splans: &[&RulePlan],
        net_ins: &mut NetMap,
        net_del: &mut NetMap,
        stats: &mut EvalStats,
    ) -> CoreResult<()> {
        // Every round inside a phase changes the stratum's own relations.
        let heads: FxHashSet<SymbolId> = splans.iter().map(|p| p.head_pred).collect();
        // Phase 1 — overdelete, under old-state semantics. `deleted` holds
        // the overdeleted set; tuples stay physically present so old reads
        // of this stratum see them.
        let mut deleted: NetMap = NetMap::default();
        let mut cand = Derived::default();
        let view = OldView {
            state: &self.state,
            net_ins,
            net_del,
        };
        run_drives(
            &view,
            &net_drives(splans, net_del, net_ins),
            &mut cand,
            stats,
        )?;
        loop {
            let mut next = Delta::default();
            for (p, rows) in cand.runs() {
                let gone = deleted.entry(p).or_default();
                for row in rows {
                    if gone.add(row) {
                        next.entry(p).or_default().push(row);
                    }
                }
            }
            cand.clear();
            if next.is_empty() {
                break;
            }
            run_drives(
                &view,
                &delta_drives(splans, &heads, &next),
                &mut cand,
                stats,
            )?;
        }

        // Phase 2 — rederive, before anything is removed: each overdeleted
        // tuple whose head-bound rule still fires over the surviving state
        // leaves `deleted`, iterated so a rederived tuple can resupport
        // another. It never left storage, so nothing is stored again.
        if !deleted.is_empty() {
            let (mut out, mut rederived) = (Derived::default(), Delta::default());
            let bound: Vec<Driven<'_>> = splans
                .iter()
                .filter_map(|plan| {
                    let gone = deleted.get(&plan.head_pred)?;
                    Some((plan.head_bound(), gone.order()))
                })
                .collect();
            let view = Surviving {
                state: &self.state,
                overdeleted: &deleted,
            };
            run_drives(&view, &bound, &mut out, stats)?;
            loop {
                // A tuple leaves `deleted` at most once, so what survives
                // the filter is distinct.
                out.retain(|p, t| deleted.get_mut(&p).is_some_and(|n| n.remove(t)));
                if out.is_empty() {
                    break;
                }
                for fresh in rederived.values_mut() {
                    fresh.clear();
                }
                for (p, rows) in out.runs() {
                    rederived.entry(p).or_default().extend(rows);
                }
                out.clear();
                let view = Surviving {
                    state: &self.state,
                    overdeleted: &deleted,
                };
                run_drives(
                    &view,
                    &delta_drives(splans, &heads, &rederived),
                    &mut out,
                    stats,
                )?;
            }
        }

        // Phase 3 — remove what stayed overdeleted: the net deletions.
        for (p, nc) in &mut deleted {
            nc.compact();
            if !nc.is_empty() {
                self.state
                    .get_mut(&PredKey::Ordinary(*p))
                    .expect("stratum head installed")
                    .remove_batch(nc.order());
            }
        }

        // Phase 4 — insert: semi-naive rounds seeded by the lower strata's
        // net inserts (positive atoms) and net deletes (negated literals).
        let mut stratum_ins: NetMap = NetMap::default();
        let (mut out, mut fresh) = (Derived::default(), Delta::default());
        run_drives(
            &self.state,
            &net_drives(splans, net_ins, net_del),
            &mut out,
            stats,
        )?;
        loop {
            let outs = std::slice::from_mut(&mut out);
            if !absorb(&mut self.state, outs, stats, None, &mut fresh) {
                break;
            }
            for (p, rows) in &fresh {
                for row in rows.rows() {
                    // A row deleted above that reappears through new
                    // support nets out: physically back, no net change.
                    let was_deleted = deleted.get_mut(p).is_some_and(|n| n.remove(row));
                    if !was_deleted {
                        stratum_ins.entry(*p).or_default().add(row);
                    }
                }
            }
            run_drives(
                &self.state,
                &delta_drives(splans, &heads, &fresh),
                &mut out,
                stats,
            )?;
        }

        // Publish this stratum's nets for the strata above.
        publish(net_del, deleted);
        publish(net_ins, stratum_ins);
        Ok(())
    }
}

enum EdbFate {
    Apply,
    Ignore,
    Fallback,
}

/// What seeds a phase from the changes below this stratum: every positive
/// atom step over a relation with a net change in `atoms` drives its
/// variant with those tuples, every negated literal over a relation with a
/// net change in `flips` drives its variant with that set. Overdeletion
/// passes (deletes, inserts) and reads the old view; insertion passes
/// (inserts, deletes) and reads the state.
fn net_drives<'a>(
    splans: &[&'a RulePlan],
    atoms: &'a NetMap,
    flips: &'a NetMap,
) -> Vec<Driven<'a>> {
    let mut drives = Vec::new();
    for plan in splans {
        for (si, step) in plan.steps.iter().enumerate() {
            let net = match step {
                Step::Atom(a) => net_of(atoms, &a.key),
                Step::Negation { key, .. } => net_of(flips, key),
                Step::Builtin { .. } => None,
            };
            if let Some(net) = net {
                drives.push((plan.driven_by(si), net.order()));
            }
        }
    }
    drives
}

/// Run each variant once over `view`, its first step reading its change
/// set; the variants are resolved once for the list.
fn run_drives<V: ReadView>(
    view: &V,
    drives: &[Driven<'_>],
    out: &mut Derived,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    let resolved = Resolved::driven(view, drives.iter().map(|d| d.0));
    for (rule, &(_, changed)) in resolved.rules().zip(drives) {
        out.run_rule(view, rule, Drive::First(changed), stats)?;
    }
    Ok(())
}

/// Old-state reads over the partially updated [`EvalState`]: the current
/// contents minus recorded net inserts plus recorded net deletes (disjoint
/// by construction: net inserts are physically present, net deletes
/// physically absent). Predicates of the stratum being overdeleted have no
/// recorded nets yet and are physically untouched, so they read as old
/// automatically.
struct OldView<'a> {
    state: &'a EvalState,
    net_ins: &'a NetMap,
    net_del: &'a NetMap,
}

impl ReadView for OldView<'_> {
    fn relation(&self, key: &PredKey) -> Option<&Relation> {
        self.state.get(key)
    }

    fn hides(&self, key: &PredKey, row: &[Value]) -> bool {
        net_of(self.net_ins, key).is_some_and(|n| n.set.contains(row))
    }

    fn extras(&self, key: &PredKey) -> Rows<'_> {
        net_of(self.net_del, key).map_or_else(Rows::default, NetChange::order)
    }

    fn contains(&self, key: &PredKey, row: &[Value]) -> bool {
        (self.state.contains(key, row) && !self.hides(key, row))
            || net_of(self.net_del, key).is_some_and(|n| n.set.contains(row))
    }
}

/// The state with the tuples still overdeleted hidden: what rederivation
/// reads. Lower strata are stored as they now are, and this stratum's
/// tuples stay stored until rederivation ends, so each one it brings back
/// only has to leave `overdeleted`.
struct Surviving<'a> {
    state: &'a EvalState,
    overdeleted: &'a NetMap,
}

impl ReadView for Surviving<'_> {
    fn relation(&self, key: &PredKey) -> Option<&Relation> {
        self.state.get(key)
    }

    fn hides(&self, key: &PredKey, row: &[Value]) -> bool {
        net_of(self.overdeleted, key).is_some_and(|n| n.set.contains(row))
    }

    fn extras(&self, _: &PredKey) -> Rows<'_> {
        Rows::default()
    }

    fn contains(&self, key: &PredKey, row: &[Value]) -> bool {
        self.state.contains(key, row) && !self.hides(key, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use idlog_common::{Nat, Value};
    use idlog_storage::BackendKind;

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    /// Drive a program through a change script, asserting after every step
    /// that the maintained state matches a fresh canonical evaluation on
    /// both comparison axes: set equality per predicate and the canonical
    /// string rendering (what the service serves).
    fn check_equivalence(
        src: &str,
        output: &str,
        initial: &[(&str, &[&str])],
        script: &[(Op, &str, &[&str])],
        backend: BackendKind,
    ) -> Vec<MaintainOutcome> {
        let q = Query::parse(src, output).unwrap();
        let mut db = q.new_database();
        for (pred, cols) in initial {
            db.insert_syms(pred, cols).unwrap();
        }
        let options = EvalOptions::new().backend(backend);
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        let mut outcomes = Vec::new();
        for (op, pred, cols) in script {
            let interner = Arc::clone(q.interner());
            let tuple: Tuple = cols
                .iter()
                .map(|c| Value::Sym(interner.intern(c)))
                .collect();
            let pred_id = interner.intern(pred);
            let delta = match op {
                Op::Ins => {
                    db.insert(pred, tuple.clone()).unwrap();
                    FactDelta::insert(pred_id, tuple)
                }
                Op::Del => {
                    db.retract(pred, &tuple).unwrap();
                    FactDelta::retract(pred_id, tuple)
                }
            };
            outcomes.push(mat.apply(&db, &delta).unwrap());
            // Ground truth: fresh evaluation over the updated database.
            let fresh = evaluate_governed(
                q.related_program(),
                &db,
                &mut CanonicalOracle,
                &options,
                None,
            )
            .unwrap();
            for pred_name in db.predicate_names() {
                let (Some(a), Some(b)) = (mat.relation(&pred_name), fresh.relation(&pred_name))
                else {
                    continue;
                };
                assert!(
                    a.set_eq(b),
                    "{pred_name} diverged after {op:?} {pred}({cols:?}):\n maintained {:?}\n fresh {:?}",
                    a.sorted_canonical(&interner),
                    b.sorted_canonical(&interner),
                );
                assert_eq!(
                    a.sorted_canonical(&interner),
                    b.sorted_canonical(&interner),
                    "canonical rendering diverged for {pred_name}"
                );
            }
            let (a, b) = (
                mat.relation(output).unwrap(),
                fresh.relation(output).unwrap(),
            );
            assert!(a.set_eq(b), "output diverged after {op:?} {pred}({cols:?})");
        }
        outcomes
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Ins,
        Del,
    }

    const TC: &str = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";

    #[test]
    fn transitive_closure_inserts_are_incremental() {
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            let outcomes = check_equivalence(
                TC,
                "tc",
                &[("e", &["a", "b"])],
                &[
                    (Op::Ins, "e", &["b", "c"]),
                    (Op::Ins, "e", &["c", "d"]),
                    (Op::Ins, "e", &["d", "a"]), // closes a cycle
                    (Op::Ins, "e", &["a", "b"]), // duplicate: no-op
                ],
                backend,
            );
            assert_eq!(
                outcomes,
                [
                    MaintainOutcome::Incremental,
                    MaintainOutcome::Incremental,
                    MaintainOutcome::Incremental,
                    MaintainOutcome::Unchanged,
                ],
                "{backend:?}"
            );
        }
    }

    #[test]
    fn transitive_closure_deletes_rederive() {
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            // A diamond: a→b→d and a→c→d; deleting a→b must keep tc(a,d)
            // through the other path (the rederivation case DRed exists for).
            let outcomes = check_equivalence(
                TC,
                "tc",
                &[
                    ("e", &["a", "b"]),
                    ("e", &["b", "d"]),
                    ("e", &["a", "c"]),
                    ("e", &["c", "d"]),
                    ("e", &["d", "e"]),
                ],
                &[
                    (Op::Del, "e", &["a", "b"]),
                    (Op::Del, "e", &["c", "d"]), // now tc(a,d) really dies
                    (Op::Del, "e", &["x", "y"]), // absent: no-op
                    (Op::Ins, "e", &["a", "d"]), // resurrect directly
                ],
                backend,
            );
            assert_eq!(
                outcomes,
                [
                    MaintainOutcome::Incremental,
                    MaintainOutcome::Incremental,
                    MaintainOutcome::Unchanged,
                    MaintainOutcome::Incremental,
                ],
                "{backend:?}"
            );
        }
    }

    #[test]
    fn stratified_negation_flips_both_ways() {
        let src = "reach(X) :- start(X).
                   reach(Y) :- reach(X), e(X, Y).
                   far(X) :- node(X), not reach(X).";
        let outcomes = check_equivalence(
            src,
            "far",
            &[
                ("node", &["a"]),
                ("node", &["b"]),
                ("node", &["c"]),
                ("start", &["a"]),
                ("e", &["a", "b"]),
            ],
            &[
                (Op::Ins, "e", &["b", "c"]), // c becomes reachable → far loses c
                (Op::Del, "e", &["a", "b"]), // b, c unreachable → far gains both
                (Op::Ins, "node", &["d"]),   // unreachable node → far gains d
                (Op::Del, "start", &["a"]),  // nothing reachable at all
            ],
            BackendKind::Hash,
        );
        assert!(outcomes.iter().all(|o| *o == MaintainOutcome::Incremental));
    }

    /// Stratified negation over a graph *with a cycle* (a→b→c→a, tail c→d):
    /// retracting a cycle edge overdeletes all of `reach` through the cycle
    /// and phase 3 rederives `a`; `far` then gains nodes because `reach`
    /// lost them (phase 4 drives the negation with the net deletes), and
    /// re-inserting the edge takes them away again (phase 1 drives it with
    /// the net inserts).
    #[test]
    fn negation_below_a_cycle_flips_through_the_shared_executor() {
        let src = "reach(X) :- start(X).
                   reach(Y) :- reach(X), e(X, Y).
                   far(X) :- node(X), not reach(X).";
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            let outcomes = check_equivalence(
                src,
                "far",
                &[
                    ("node", &["a"]),
                    ("node", &["b"]),
                    ("node", &["c"]),
                    ("node", &["d"]),
                    ("start", &["a"]),
                    ("e", &["a", "b"]),
                    ("e", &["b", "c"]),
                    ("e", &["c", "a"]),
                    ("e", &["c", "d"]),
                ],
                &[
                    (Op::Del, "e", &["b", "c"]), // far gains c, d
                    (Op::Ins, "e", &["b", "c"]), // and loses them again
                    (Op::Del, "e", &["c", "a"]), // only a's own support: nothing flips
                ],
                backend,
            );
            assert!(
                outcomes.iter().all(|o| *o == MaintainOutcome::Incremental),
                "{backend:?}: {outcomes:?}"
            );
        }
    }

    /// ROADMAP 5(a)'s regression: one retract on a cyclic graph overdeletes
    /// and rederives the whole closure. Ring of 150 nodes with a chord
    /// `i → i+7` on every third node: 200 edges, closure 150² = 22 500.
    #[test]
    fn cyclic_retract_is_incremental_and_work_bounded() {
        const N: usize = 150;
        let src = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            let q = Query::parse(src, "t").unwrap();
            let interner = Arc::clone(q.interner());
            let mut db = q.new_database();
            let node = |i: usize| format!("v{}", i % N);
            for i in 0..N {
                db.insert_syms("e", &[&node(i), &node(i + 1)]).unwrap();
                if i % 3 == 0 {
                    db.insert_syms("e", &[&node(i), &node(i + 7)]).unwrap();
                }
            }
            let options = EvalOptions::new().backend(backend);
            let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
            assert_eq!(mat.relation("e").unwrap().len(), 200);
            assert_eq!(mat.relation("t").unwrap().len(), N * N);

            let edge: Tuple = ["v1", "v2"]
                .iter()
                .map(|s| Value::Sym(interner.intern(s)))
                .collect();
            db.retract("e", &edge).unwrap();
            let delta = FactDelta::retract(interner.intern("e"), edge);
            let (outcome, stats) = mat.apply_counted(&db, &delta).unwrap();
            assert_eq!(outcome, MaintainOutcome::Incremental, "{backend:?}");

            let fresh = evaluate_governed(
                q.related_program(),
                &db,
                &mut CanonicalOracle,
                &options,
                None,
            )
            .unwrap();
            for pred in ["e", "t"] {
                let (a, b) = (mat.relation(pred).unwrap(), fresh.relation(pred).unwrap());
                assert!(a.set_eq(b), "{backend:?}: {pred} diverged");
                assert_eq!(
                    a.sorted_canonical(&interner),
                    b.sorted_canonical(&interner),
                    "{backend:?}: canonical rendering diverged for {pred}"
                );
            }
            // v1 → v2 was v1's only way out and v2's only way in.
            assert_eq!(mat.relation("t").unwrap().len(), N * N - 447);

            // Deterministic work bound, pinned from the measured 201 310
            // probes (8.9 × the closure, identical on both backends). The
            // retract overdeletes all 22 500 tuples: phase 1 replays each
            // through `e` on its bound column (75 002, ≈ 3.3 each, the old
            // view's one extra included); rederivation binds each one's
            // head (2 rules × 22 500) and probes `e` on the head's second
            // column (75 049 with that), then replays the 22 053 it brings
            // back forward (51 259). When overdeletion scanned instead of
            // probing, phase 1 alone needed more than
            // |overdeleted| × |e| = 22 500 × 200 ≈ 4 × 10⁶.
            assert!(
                stats.probes < 9 * (N * N) as u64,
                "{backend:?}: {} probes for a closure of {}",
                stats.probes,
                N * N
            );
        }
    }

    /// A write costs what it changes, held by a counter rather than a
    /// clock: on a chain `v0 → v1 → … → v(n−1)` with a pendant edge
    /// `v0 → p`, only `t(v0, p)` depends on the pendant edge, and
    /// retracting it — or inserting it back — makes the same number of
    /// probes at 300 nodes as at 600, and on columnar. (When the
    /// `e`-driven replay of the recursive rule ran in the written order,
    /// it scanned all of `t` before reaching `e`: the count grew with the
    /// closure.)
    #[test]
    fn pendant_edge_writes_cost_the_same_on_any_chain() {
        let src = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
        let probes = |n: usize, backend: BackendKind| {
            let q = Query::parse(src, "t").unwrap();
            let interner = Arc::clone(q.interner());
            let mut db = q.new_database();
            for i in 1..n {
                db.insert_syms("e", &[&format!("v{}", i - 1), &format!("v{i}")])
                    .unwrap();
            }
            db.insert_syms("e", &["v0", "p"]).unwrap();
            let options = EvalOptions::new().backend(backend);
            let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
            assert_eq!(mat.relation("t").unwrap().len(), n * (n - 1) / 2 + 1);
            let pendant: Tuple = ["v0", "p"]
                .iter()
                .map(|s| Value::Sym(interner.intern(s)))
                .collect();
            let e = interner.intern("e");
            db.retract("e", &pendant).unwrap();
            let (outcome, retract) = mat
                .apply_counted(&db, &FactDelta::retract(e, pendant.clone()))
                .unwrap();
            assert_eq!(outcome, MaintainOutcome::Incremental);
            assert_eq!(mat.relation("t").unwrap().len(), n * (n - 1) / 2);
            db.insert("e", pendant.clone()).unwrap();
            let (outcome, insert) = mat
                .apply_counted(&db, &FactDelta::insert(e, pendant))
                .unwrap();
            assert_eq!(outcome, MaintainOutcome::Incremental);
            assert_eq!(mat.relation("t").unwrap().len(), n * (n - 1) / 2 + 1);
            (retract.probes, insert.probes)
        };
        let hash = probes(300, BackendKind::Hash);
        assert_eq!(probes(600, BackendKind::Hash), hash);
        // Columnar builds a long chain slowly in a debug build: shorter ones.
        assert_eq!(probes(100, BackendKind::Columnar), hash);
        assert_eq!(probes(200, BackendKind::Columnar), hash);
    }

    #[test]
    fn net_change_keeps_first_surviving_order() {
        let t = |n: i64| vec![int(n)];
        let mut nc = NetChange::default();
        assert!(nc.add(&t(1)));
        assert!(nc.add(&t(2)));
        assert!(nc.add(&t(3)));
        assert!(!nc.add(&t(2)), "duplicates are not changes");
        assert!(nc.remove(&t(1)));
        assert!(!nc.remove(&t(1)), "already gone");
        assert!(nc.add(&t(1)), "a removed tuple can change again");
        let order = |nc: &NetChange| nc.order().iter().map(<[Value]>::to_vec).collect::<Vec<_>>();
        nc.compact();
        // One entry each; 1 now orders by its surviving (second) add.
        assert_eq!(order(&nc), [t(2), t(3), t(1)]);
        assert!(nc.remove(&t(3)));
        nc.compact();
        assert_eq!(order(&nc), [t(2), t(1)]);
        nc.compact(); // idempotent
        assert_eq!(order(&nc), [t(2), t(1)]);
    }

    #[test]
    fn net_change_is_empty_once_everything_is_removed() {
        let t = |n: i64| vec![int(n)];
        let mut nc = NetChange::default();
        assert!(nc.is_empty());
        for n in 0..100 {
            nc.add(&t(n));
        }
        for n in 0..100 {
            assert!(!nc.is_empty());
            assert!(nc.remove(&t(n)));
        }
        assert!(nc.is_empty(), "emptiness asks the set, not the stale order");
        nc.compact();
        assert!(nc.order().is_empty());
    }

    #[test]
    fn affected_id_literal_falls_back_to_recompute() {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        let mut db = q.new_database();
        db.insert_syms("emp", &["ann", "sales"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        db.insert_syms("emp", &["bob", "sales"]).unwrap();
        let bob: Tuple = ["bob", "sales"]
            .iter()
            .map(|s| Value::Sym(q.interner().intern(s)))
            .collect();
        let outcome = mat
            .apply(&db, &FactDelta::insert(q.interner().intern("emp"), bob))
            .unwrap();
        assert_eq!(outcome, MaintainOutcome::Recomputed);
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("pick").unwrap().set_eq(&fresh.relation));
    }

    #[test]
    fn unaffected_id_literal_stays_incremental() {
        // The ID-literal reads `emp`; the change touches only `bonus`, which
        // cannot reach emp — the materialized ID-relation stays valid.
        let src = "lead(N, D) :- emp[2](N, D, 0).
                   paid(N) :- lead(N, D), bonus(D).";
        let q = Query::parse(src, "paid").unwrap();
        let mut db = q.new_database();
        db.insert_syms("emp", &["ann", "sales"]).unwrap();
        db.insert_syms("emp", &["bob", "sales"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        db.insert_syms("bonus", &["sales"]).unwrap();
        let t: Tuple = vec![Value::Sym(q.interner().intern("sales"))].into();
        let outcome = mat
            .apply(&db, &FactDelta::insert(q.interner().intern("bonus"), t))
            .unwrap();
        assert_eq!(outcome, MaintainOutcome::Incremental);
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("paid").unwrap().set_eq(&fresh.relation));
    }

    #[test]
    fn irrelevant_predicate_changes_are_unchanged() {
        let q = Query::parse(TC, "tc").unwrap();
        let mut db = q.new_database();
        db.insert_syms("e", &["a", "b"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        // A predicate the program never mentions.
        db.insert_syms("noise", &["z"]).unwrap();
        let t: Tuple = vec![Value::Sym(q.interner().intern("z"))].into();
        let outcome = mat
            .apply(&db, &FactDelta::insert(q.interner().intern("noise"), t))
            .unwrap();
        assert_eq!(outcome, MaintainOutcome::Unchanged);
    }

    #[test]
    fn arithmetic_bodies_maintain() {
        let src = "big(M) :- num(N), plus(N, N, M).";
        let q = Query::parse(src, "big").unwrap();
        let mut db = q.new_database();
        db.insert("num", Tuple::new(vec![int(3)])).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        let num = q.interner().intern("num");

        let five = Tuple::new(vec![int(5)]);
        db.insert("num", five.clone()).unwrap();
        assert_eq!(
            mat.apply(&db, &FactDelta::insert(num, five)).unwrap(),
            MaintainOutcome::Incremental
        );
        let three = Tuple::new(vec![int(3)]);
        db.retract("num", &three).unwrap();
        assert_eq!(
            mat.apply(&db, &FactDelta::retract(num, three)).unwrap(),
            MaintainOutcome::Incremental
        );
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("big").unwrap().set_eq(&fresh.relation));
        assert_eq!(fresh.relation.len(), 1); // only 10 remains
    }

    #[test]
    fn insert_then_retract_nets_out() {
        let q = Query::parse(TC, "tc").unwrap();
        let mut db = q.new_database();
        db.insert_syms("e", &["a", "b"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        let t: Tuple = ["b", "c"]
            .iter()
            .map(|s| Value::Sym(q.interner().intern(s)))
            .collect();
        let e = q.interner().intern("e");
        let delta = FactDelta {
            inserts: vec![(e, t.clone())],
            retracts: vec![(e, t)],
        };
        // db is unchanged overall, and so is the view.
        assert_eq!(mat.apply(&db, &delta).unwrap(), MaintainOutcome::Unchanged);
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("tc").unwrap().set_eq(&fresh.relation));
    }

    /// A view over paper §4's existential tail, recursive so that the
    /// insert and the retract both run phases that buffer derivations:
    /// each write reports the counters full buffering gave, pinned.
    #[test]
    fn existential_tails_maintain_with_the_same_counters() {
        let src = "p(X) :- q(X, Z), z(Z, Y), y(W). p(X) :- p(V), e(V, X), y(W).";
        let q = Query::parse(src, "p").unwrap();
        let mut db = q.new_database();
        for k in 0..20 {
            let (x, zk) = (format!("x{k}"), format!("zk{k}"));
            db.insert_syms("q", &[&x, &zk]).unwrap();
            for f in 0..3 {
                db.insert_syms("z", &[&zk, &format!("y{f}")]).unwrap();
            }
            db.insert_syms("e", &[&x, "c0"]).unwrap();
        }
        for c in 0..6 {
            db.insert_syms("e", &[&format!("c{c}"), &format!("c{}", c + 1)])
                .unwrap();
        }
        for w in 0..30 {
            db.insert_syms("y", &[&format!("w{w}")]).unwrap();
        }
        let mut mat = Materialized::build(q.related_program(), &db, &EvalOptions::new()).unwrap();
        let tuple = |cols: [&str; 2]| -> Tuple {
            cols.iter()
                .map(|s| Value::Sym(q.interner().intern(s)))
                .collect()
        };
        let pred = q.interner().intern("q");
        let counters = |instantiations, derived, inserted, probes| EvalStats {
            instantiations,
            derived,
            inserted,
            probes,
            ..EvalStats::default()
        };

        db.insert_syms("q", &["x20", "zk0"]).unwrap();
        let insert = FactDelta::insert(pred, tuple(["x20", "zk0"]));
        let (outcome, stats) = mat.apply_counted(&db, &insert).unwrap();
        assert_eq!(outcome, MaintainOutcome::Incremental);
        assert_eq!(stats, counters(90, 90, 1, 95), "insert");

        db.retract("q", &tuple(["x0", "zk0"])).unwrap();
        let retract = FactDelta::retract(pred, tuple(["x0", "zk0"]));
        let (outcome, stats) = mat.apply_counted(&db, &retract).unwrap();
        assert_eq!(outcome, MaintainOutcome::Incremental);
        assert_eq!(stats, counters(1050, 0, 0, 1904), "retract");

        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("p").unwrap().set_eq(&fresh.relation));
    }
}
