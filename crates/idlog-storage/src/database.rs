//! Databases: named relations sharing one interner.

use std::sync::Arc;

use idlog_common::{
    CommonError, CommonResult, FxHashMap, FxHashSet, Interner, RelType, SymbolId, Tuple, Value,
};

use crate::relation::Relation;

/// A database: a u-domain plus a finite relation per predicate name
/// (\[She90b\] §2.1: `(u-domain=D; r₁, …, r_n)`).
///
/// The u-domain is the union of all uninterpreted constants appearing in the
/// stored relations plus any explicitly declared domain elements (the paper
/// allows domain elements that appear in no tuple).
#[derive(Clone, Debug)]
pub struct Database {
    interner: Arc<Interner>,
    relations: FxHashMap<SymbolId, Relation>,
    extra_domain: FxHashSet<SymbolId>,
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
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
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
            self.relations.insert(id, Relation::new(rtype));
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
    pub fn relation_for_insert(&mut self, pred: SymbolId, first: &[Value]) -> &mut Relation {
        self.relations.entry(pred).or_insert_with(|| {
            Relation::new(RelType::new(first.iter().map(|v| v.sort()).collect()))
        })
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
        let rel = self
            .interner
            .get(name)
            .and_then(|id| self.relations.get_mut(&id))
            .ok_or_else(|| CommonError::TypeMismatch {
                detail: format!("cannot retract from undeclared relation {name}"),
            })?;
        rel.check_tuple(tuple)?;
        Ok(rel.remove_batch(&[tuple])[0])
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
        let id = self.interner.intern(name);
        self.extra_domain.insert(id);
        id
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        let id = self.interner.get(name)?;
        self.relations.get(&id)
    }

    /// Look up a relation by predicate symbol.
    pub fn relation_by_id(&self, id: SymbolId) -> Option<&Relation> {
        self.relations.get(&id)
    }

    /// Iterate `(predicate, relation)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, &Relation)> {
        self.relations.iter().map(|(&id, r)| (id, r))
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
        self.relations.values().map(Relation::len).sum()
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
        self.relations.insert(id, rel);
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
        let bad: Tuple = vec![Value::Int(3)].into();
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
        let bad: Tuple = vec![Value::Int(1)].into();
        assert!(db.retract("p", &bad).is_err());
    }

    #[test]
    fn missing_relation_is_none() {
        let db = Database::new();
        assert!(db.relation("nope").is_none());
    }
}
