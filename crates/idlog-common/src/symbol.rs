//! String interning for uninterpreted constants and predicate names.
//!
//! The paper's universal domain `U` is countably infinite; concrete programs
//! and databases only ever mention finitely many uninterpreted constants, so
//! we intern their names once and pass around 4-byte [`SymbolId`]s. The
//! interner is shared (`&self` interning behind a mutex) so that parsed
//! programs, databases, and answers can all reference one symbol table.

use std::fmt;
use std::hash::Hasher;
use std::sync::Mutex;

use crate::fxhash::FxHasher;
use crate::idtable::IdTable;

/// An interned string: an index into an [`Interner`].
///
/// Ordering on `SymbolId` is *interning order*, which is arbitrary from the
/// caller's perspective. Code that needs a canonical order over symbols (for
/// example the canonical tid oracle) must order by resolved string, not by
/// raw id — genericity of queries demands independence from interning order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// The raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Each name is stored once, in `names`; `ids` finds a name's index from
/// its hash and never holds the string.
#[derive(Default)]
struct InternerState {
    names: Vec<Box<str>>,
    ids: IdTable,
}

fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

/// A shared string interner.
///
/// Interning and resolution take `&self`; the interner can sit in an `Arc`
/// and be shared between the parser, the engine, and report printers.
#[derive(Default)]
pub struct Interner {
    state: Mutex<InternerState>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id. Idempotent.
    pub fn intern(&self, name: &str) -> SymbolId {
        self.intern_hashed(name, hash_name(name))
    }

    /// Look up a previously interned name without interning it.
    pub fn get(&self, name: &str) -> Option<SymbolId> {
        self.get_hashed(name, hash_name(name))
    }

    fn intern_hashed(&self, name: &str, hash: u64) -> SymbolId {
        let mut st = self.state.lock().expect("interner poisoned");
        let InternerState { names, ids } = &mut *st;
        let (id, new) = ids.find_or_push(hash, |id| &*names[id as usize] == name);
        if new {
            names.push(name.into());
        }
        SymbolId(id)
    }

    fn get_hashed(&self, name: &str, hash: u64) -> Option<SymbolId> {
        let st = self.state.lock().expect("interner poisoned");
        st.ids
            .find(hash, |id| &*st.names[id as usize] == name)
            .map(SymbolId)
    }

    /// Resolve `id` to its string. Panics if `id` came from another interner.
    pub fn resolve(&self, id: SymbolId) -> String {
        self.state.lock().expect("interner poisoned").names[id.index()].to_string()
    }

    /// Run `f` on the resolved string without allocating a copy.
    pub fn with_resolved<R>(&self, id: SymbolId, f: impl FnOnce(&str) -> R) -> R {
        let st = self.state.lock().expect("interner poisoned");
        f(&st.names[id.index()])
    }

    /// Run `f` with every interned name readable through [`Names`], under
    /// one hold of the lock: what a caller resolving many symbols at once
    /// uses instead of one [`Interner::with_resolved`] per symbol.
    pub fn with_names<R>(&self, f: impl FnOnce(Names<'_>) -> R) -> R {
        let st = self.state.lock().expect("interner poisoned");
        f(Names(&st.names))
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.state.lock().expect("interner poisoned").names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compare two symbols by their resolved names (canonical, interning-order
    /// independent ordering).
    pub fn cmp_by_name(&self, a: SymbolId, b: SymbolId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let st = self.state.lock().expect("interner poisoned");
        st.names[a.index()].cmp(&st.names[b.index()])
    }
}

/// An [`Interner`]'s names, borrowed while its lock is held
/// ([`Interner::with_names`]).
#[derive(Clone, Copy)]
pub struct Names<'a>(&'a [Box<str>]);

impl<'a> Names<'a> {
    /// The name of `id`. Panics if `id` came from another interner.
    pub fn resolve(self, id: SymbolId) -> &'a str {
        &self.0[id.index()]
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} symbols)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("alice");
        let b = i.intern("bob");
        assert_ne!(a, b);
        assert_eq!(i.intern("alice"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let i = Interner::new();
        let id = i.intern("engineering");
        assert_eq!(i.resolve(id), "engineering");
        i.with_resolved(id, |s| assert_eq!(s, "engineering"));
        let other = i.intern("sales");
        i.with_names(|names| {
            assert_eq!(names.resolve(id), "engineering");
            assert_eq!(names.resolve(other), "sales");
        });
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.len(), 0);
        let id = i.intern("present");
        assert_eq!(i.get("present"), Some(id));
    }

    #[test]
    fn cmp_by_name_is_lexicographic() {
        let i = Interner::new();
        // Intern in reverse lexicographic order to make raw-id order disagree
        // with name order.
        let z = i.intern("zebra");
        let a = i.intern("ant");
        assert!(z.0 < a.0); // raw interning order: zebra first
        assert_eq!(i.cmp_by_name(a, z), std::cmp::Ordering::Less);
        assert_eq!(i.cmp_by_name(z, a), std::cmp::Ordering::Greater);
        assert_eq!(i.cmp_by_name(a, a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn many_short_sequential_names_get_dense_ids_and_resolve_back() {
        // The shape of a generated fact file: names that differ only in
        // their last characters.
        let i = Interner::new();
        for n in 0..200_000u32 {
            assert_eq!(i.intern(&format!("n{n}")), SymbolId(n));
        }
        assert_eq!(i.len(), 200_000);
        for n in (0..200_000u32).step_by(997) {
            assert_eq!(i.resolve(SymbolId(n)), format!("n{n}"));
            assert_eq!(i.get(&format!("n{n}")), Some(SymbolId(n)));
            assert_eq!(i.intern(&format!("n{n}")), SymbolId(n));
        }
    }

    #[test]
    fn names_forced_onto_one_key_both_resolve() {
        let i = Interner::new();
        let a = i.intern_hashed("left", 42);
        let b = i.intern_hashed("right", 42);
        assert_ne!(a, b);
        assert_eq!(i.intern_hashed("left", 42), a);
        assert_eq!(i.intern_hashed("right", 42), b);
        assert_eq!(i.get_hashed("right", 42), Some(b));
        assert_eq!(i.get_hashed("absent", 42), None);
        assert_eq!(
            (i.resolve(a), i.resolve(b)),
            ("left".into(), "right".into())
        );
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let i = Arc::new(Interner::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || i.intern(&format!("sym{}", t % 2)))
            })
            .collect();
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(i.len(), 2);
        for id in ids {
            assert!(i.resolve(id).starts_with("sym"));
        }
    }
}
