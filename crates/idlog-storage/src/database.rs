//! Databases: named relations sharing one interner.

use std::sync::{Arc, OnceLock};

use idlog_common::{
    CommonError, CommonResult, FxHashMap, FxHashSet, Interner, RelType, SymbolId, Tuple, Value,
};

use crate::relation::Relation;
use crate::rows::Rows;

/// A database: a u-domain plus a finite relation per predicate name
/// (\[She90b\] §2.1: `(u-domain=D; r₁, …, r_n)`).
///
/// The u-domain is the union of all uninterpreted constants appearing in the
/// stored relations plus any explicitly declared domain elements (the paper
/// allows domain elements that appear in no tuple).
///
/// **Copy-on-write.** Each relation sits behind an [`Arc`], so a clone —
/// a server's per-request snapshot — copies one pointer per predicate and
/// no tuple. Every write goes through [`Arc::make_mut`]: the first write to
/// a relation some clone or evaluation still shares copies it once (with
/// its indexes), and later writes change the copy in place. Evaluations
/// read the stored relations themselves ([`Database::share`]); an index
/// one of them builds stays with the relation for every later reader.
#[derive(Clone, Debug)]
pub struct Database {
    interner: Arc<Interner>,
    relations: FxHashMap<SymbolId, Arc<Relation>>,
    extra_domain: FxHashSet<SymbolId>,
    /// [`Database::value_summary`] of this version, once computed. Clones
    /// share the cell, so a value one of them computes serves all of them
    /// until each one's next write, which gives that one a fresh cell.
    summary: Arc<OnceLock<ValueSummary>>,
}

/// What one pass over every stored value yields, and nothing a program
/// adds: the inputs of a termination round bound that depend on the data
/// (see `TerminationCert::round_bound` in `idlog-core`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValueSummary {
    /// The largest natural stored (0 when there is none).
    pub max_natural: u64,
    /// How many distinct values — symbols and integers — are stored.
    pub distinct: u64,
}

impl Database {
    /// An empty database over a fresh interner.
    pub fn new() -> Self {
        Self::with_interner(Arc::new(Interner::new()))
    }

    /// An empty database over a shared interner.
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        Database {
            interner,
            relations: FxHashMap::default(),
            extra_domain: FxHashSet::default(),
            summary: Arc::default(),
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// This database is about to change: forget the cached summary. A cell
    /// no clone shares is emptied in place; a shared one is left to the
    /// clones.
    fn invalidate(&mut self) {
        match Arc::get_mut(&mut self.summary) {
            Some(cell) => {
                cell.take();
            }
            None => self.summary = Arc::default(),
        }
    }

    /// Declare an (initially empty) relation. Overwrites nothing: returns an
    /// error if the predicate already exists with a different type.
    pub fn declare(&mut self, name: &str, rtype: RelType) -> CommonResult<SymbolId> {
        let id = self.interner.intern(name);
        if let Some(existing) = self.relations.get(&id) {
            if existing.rtype() != &rtype {
                return Err(CommonError::TypeMismatch {
                    detail: format!(
                        "relation {name} already declared with type {} (got {})",
                        existing.rtype(),
                        rtype
                    ),
                });
            }
        } else {
            self.invalidate();
            self.relations.insert(id, Arc::new(Relation::new(rtype)));
        }
        Ok(id)
    }

    /// Insert a fact, declaring the relation on first use by inferring its
    /// type from the tuple's sorts.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> CommonResult<()> {
        let id = self.interner.intern(name);
        self.relation_for_insert(id, tuple.values()).insert(tuple)?;
        Ok(())
    }

    /// The relation of predicate `pred`, declared on first use with the
    /// type `first`'s sorts imply: the handle a bulk loader keeps while the
    /// predicate repeats, instead of a lookup by name per fact.
    /// [`Relation::insert`] still checks every tuple against that type.
    /// A relation a clone still shares is copied first.
    pub fn relation_for_insert(&mut self, pred: SymbolId, first: &[Value]) -> &mut Relation {
        self.invalidate();
        let rel = self.relations.entry(pred).or_insert_with(|| {
            Arc::new(Relation::new(RelType::new(
                first.iter().map(|v| v.sort()).collect(),
            )))
        });
        Arc::make_mut(rel)
    }

    /// Convenience: insert a fact whose columns are all uninterpreted
    /// constants, given by name.
    pub fn insert_syms(&mut self, name: &str, cols: &[&str]) -> CommonResult<()> {
        let tuple: Tuple = cols
            .iter()
            .map(|c| Value::Sym(self.interner.intern(c)))
            .collect();
        self.insert(name, tuple)
    }

    /// Retract a fact. Returns `Ok(true)` when the tuple was present and
    /// removed, `Ok(false)` when the relation exists but lacked the tuple,
    /// and an error when the predicate is undeclared or the tuple is
    /// ill-typed for it. The (now possibly empty) relation stays declared:
    /// programs referencing it keep validating.
    pub fn retract(&mut self, name: &str, tuple: &Tuple) -> CommonResult<bool> {
        let undeclared = || CommonError::TypeMismatch {
            detail: format!("cannot retract from undeclared relation {name}"),
        };
        let id = self.interner.get(name).ok_or_else(undeclared)?;
        let rel = self.relations.get(&id).ok_or_else(undeclared)?;
        rel.check_tuple(tuple)?;
        // An absent fact changes nothing, so it copies no shared relation.
        if !rel.contains(tuple) {
            return Ok(false);
        }
        self.invalidate();
        let rel = self.relations.get_mut(&id).ok_or_else(undeclared)?;
        Ok(Arc::make_mut(rel).remove_batch(Rows::one(tuple.values()))[0])
    }

    /// Convenience: retract a fact whose columns are all uninterpreted
    /// constants, given by name.
    pub fn retract_syms(&mut self, name: &str, cols: &[&str]) -> CommonResult<bool> {
        let tuple: Tuple = cols
            .iter()
            .map(|c| Value::Sym(self.interner.intern(c)))
            .collect();
        self.retract(name, &tuple)
    }

    /// Add a u-domain element that need not appear in any tuple.
    pub fn add_domain_element(&mut self, name: &str) -> SymbolId {
        self.invalidate();
        let id = self.interner.intern(name);
        self.extra_domain.insert(id);
        id
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        let id = self.interner.get(name)?;
        self.relation_by_id(id)
    }

    /// Look up a relation by predicate symbol.
    pub fn relation_by_id(&self, id: SymbolId) -> Option<&Relation> {
        self.relations.get(&id).map(|r| &**r)
    }

    /// Share the relation of predicate `id`: another reference to the
    /// stored relation, not a copy. A later write to this database copies
    /// the relation first, so the reference keeps reading the version it
    /// was taken from.
    pub fn share(&self, id: SymbolId) -> Option<Arc<Relation>> {
        self.relations.get(&id).cloned()
    }

    /// Iterate `(predicate, relation)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, &Relation)> {
        self.relations.iter().map(|(&id, r)| (id, &**r))
    }

    /// Predicate names present, in canonical (name) order.
    pub fn predicate_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .relations
            .keys()
            .map(|&id| self.interner.resolve(id))
            .collect();
        names.sort();
        names
    }

    /// The u-domain: every uninterpreted constant in any stored tuple, plus
    /// explicitly added domain elements.
    pub fn u_domain(&self) -> FxHashSet<SymbolId> {
        let mut dom = self.extra_domain.clone();
        for rel in self.relations.values() {
            dom.extend(rel.u_constants());
        }
        dom
    }

    /// Total number of stored facts.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The largest stored natural and the number of distinct stored values,
    /// computed by one pass over every tuple the first time a version of
    /// the database is asked, and answered from the cache — without
    /// allocating — until the next write. Symbols are ticked off in a
    /// bitmap over the interner's dense ids; only integers are hashed.
    pub fn value_summary(&self) -> ValueSummary {
        *self.summary.get_or_init(|| {
            let mut summary = ValueSummary::default();
            let mut sym_seen = vec![0u64; self.interner.len().div_ceil(64)];
            let mut ints: FxHashSet<i64> = FxHashSet::default();
            for rel in self.relations.values() {
                for row in rel.rows() {
                    for v in row {
                        let new = match v {
                            Value::Int(n) => {
                                summary.max_natural = summary.max_natural.max(n.get() as u64);
                                ints.insert(n.get())
                            }
                            Value::Sym(s) => {
                                let (word, bit) =
                                    (&mut sym_seen[s.index() / 64], 1 << (s.index() % 64));
                                let new = *word & bit == 0;
                                *word |= bit;
                                new
                            }
                        };
                        summary.distinct += u64::from(new);
                    }
                }
            }
            summary
        })
    }

    /// Materialize the paper's `udom` relation: one unary fact per u-domain
    /// element (\[She90b\] §3.1's database program includes `udom(dᵢ)` for
    /// every domain element, realizing the domain-closure axiom). Call after
    /// all other facts are loaded; re-calling refreshes the relation.
    pub fn materialize_udom(&mut self, name: &str) -> CommonResult<()> {
        let id = self.interner.intern(name);
        let mut dom: Vec<SymbolId> = self.u_domain().into_iter().collect();
        // Exclude the udom relation's own previous contents from the domain
        // it encodes (they are re-derived from everything else).
        dom.retain(|&s| s != id);
        let mut rel = Relation::elementary(1);
        for s in dom {
            rel.insert(vec![Value::Sym(s)].into())?;
        }
        self.invalidate();
        self.relations.insert(id, Arc::new(rel));
        Ok(())
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: i64) -> Value {
        Value::Int(idlog_common::Nat::new(n).expect("a natural"))
    }

    #[test]
    fn insert_infers_type() {
        let mut db = Database::new();
        db.insert_syms("emp", &["alice", "sales"]).unwrap();
        let r = db.relation("emp").unwrap();
        assert_eq!(r.rtype().to_string(), "00");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn mixed_sort_insert_rejected_after_inference() {
        let mut db = Database::new();
        db.insert_syms("p", &["a"]).unwrap();
        let bad: Tuple = vec![int(3)].into();
        assert!(db.insert("p", bad).is_err());
    }

    #[test]
    fn declare_conflicting_type_errors() {
        let mut db = Database::new();
        db.declare("p", RelType::elementary(2)).unwrap();
        assert!(db.declare("p", RelType::elementary(3)).is_err());
        assert!(db.declare("p", RelType::elementary(2)).is_ok());
    }

    #[test]
    fn u_domain_includes_extra_elements() {
        let mut db = Database::new();
        db.insert_syms("person", &["a"]).unwrap();
        db.add_domain_element("ghost");
        let dom = db.u_domain();
        assert_eq!(dom.len(), 2);
        assert!(dom.contains(&db.interner().get("ghost").unwrap()));
    }

    #[test]
    fn fact_count_sums_relations() {
        let mut db = Database::new();
        db.insert_syms("p", &["a"]).unwrap();
        db.insert_syms("p", &["b"]).unwrap();
        db.insert_syms("q", &["a", "b"]).unwrap();
        assert_eq!(db.fact_count(), 3);
        assert_eq!(db.predicate_names(), vec!["p".to_string(), "q".to_string()]);
    }

    #[test]
    fn materialize_udom_covers_the_domain() {
        let mut db = Database::new();
        db.insert_syms("e", &["a", "b"]).unwrap();
        db.add_domain_element("ghost");
        db.materialize_udom("udom").unwrap();
        let udom = db.relation("udom").unwrap();
        assert_eq!(udom.len(), 3);
        // Refreshing after new facts picks them up.
        db.insert_syms("e", &["c", "a"]).unwrap();
        db.materialize_udom("udom").unwrap();
        assert_eq!(db.relation("udom").unwrap().len(), 4);
    }

    #[test]
    fn retract_removes_and_keeps_relation_declared() {
        let mut db = Database::new();
        db.insert_syms("p", &["a"]).unwrap();
        db.insert_syms("p", &["b"]).unwrap();
        assert_eq!(db.retract_syms("p", &["a"]), Ok(true));
        assert_eq!(db.retract_syms("p", &["a"]), Ok(false));
        assert_eq!(db.relation("p").unwrap().len(), 1);
        // Retracting the last fact keeps the (empty) relation declared.
        assert_eq!(db.retract_syms("p", &["b"]), Ok(true));
        assert!(db.relation("p").unwrap().is_empty());
        // Undeclared predicate and ill-typed tuple both error.
        assert!(db.retract_syms("q", &["a"]).is_err());
        let bad: Tuple = vec![int(1)].into();
        assert!(db.retract("p", &bad).is_err());
    }

    /// A snapshot copies no relation. The first write to a relation it
    /// shares copies that relation once — with its indexes — and leaves
    /// the others shared; later writes change the copy in place.
    #[test]
    fn a_write_to_a_shared_relation_copies_it_exactly_once() {
        let mut db = Database::new();
        for n in 0..100 {
            db.insert_syms("p", &[&format!("a{n}"), "x"]).unwrap();
        }
        db.insert_syms("q", &["b"]).unwrap();
        db.relation("p").unwrap().ensure_index(&[1]);
        let snapshot = db.clone();
        let addr = |db: &Database, name: &str| db.relation(name).unwrap() as *const Relation;
        assert_eq!(addr(&db, "p"), addr(&snapshot, "p"));

        db.insert_syms("p", &["new", "x"]).unwrap();
        let copy = addr(&db, "p");
        assert_ne!(copy, addr(&snapshot, "p"), "the write copied p");
        assert_eq!(addr(&db, "q"), addr(&snapshot, "q"), "q stays shared");
        for n in 0..10 {
            db.insert_syms("p", &[&format!("more{n}"), "x"]).unwrap();
        }
        db.retract_syms("p", &["a0", "x"]).unwrap();
        assert_eq!(
            addr(&db, "p"),
            copy,
            "later writes change the copy in place"
        );

        // The copy kept the index, and writes maintain it; the snapshot
        // still reads its own version.
        let x: Tuple = vec![Value::Sym(db.interner().intern("x"))].into();
        assert_eq!(db.relation("p").unwrap().probe(&[1], &x).len(), 110);
        assert_eq!(snapshot.relation("p").unwrap().probe(&[1], &x).len(), 100);
        // Retracting an absent fact writes nothing, so copies nothing.
        let other = db.clone();
        assert_eq!(db.retract_syms("q", &["zz"]), Ok(false));
        assert_eq!(addr(&db, "q"), addr(&other, "q"));
    }

    #[test]
    fn the_value_summary_is_cached_per_version_and_shared_by_clones() {
        let mut db = Database::new();
        db.insert("n", vec![int(7), int(3)].into()).unwrap();
        db.insert_syms("s", &["a", "b"]).unwrap();
        let first = db.value_summary();
        assert_eq!(
            first,
            ValueSummary {
                max_natural: 7,
                distinct: 4
            }
        );
        // A clone shares the cache: what one computes, the other reads.
        let snapshot = db.clone();
        assert!(Arc::ptr_eq(&db.summary, &snapshot.summary));
        // A write leaves the snapshot's value and recomputes its own.
        db.insert("n", vec![int(40), int(7)].into()).unwrap();
        assert_eq!(snapshot.value_summary(), first);
        assert_eq!(db.value_summary().max_natural, 40);
        assert_eq!(db.value_summary().distinct, 5);
        db.retract("n", &vec![int(40), int(7)].into()).unwrap();
        assert_eq!(db.value_summary(), first);
    }

    #[test]
    fn missing_relation_is_none() {
        let db = Database::new();
        assert!(db.relation("nope").is_none());
    }
}
