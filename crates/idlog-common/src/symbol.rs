//! String interning for uninterpreted constants and predicate names.
//!
//! The paper's universal domain `U` is countably infinite; concrete programs
//! and databases only ever mention finitely many uninterpreted constants, so
//! we intern their names once and pass around 4-byte [`SymbolId`]s. The
//! interner is shared (`&self` interning behind a mutex) so that parsed
//! programs, databases, and answers can all reference one symbol table.
//!
//! The names live in one append-only arena: a `String` holding every name
//! back to back and a `u32` end offset per id. Interning a new name appends
//! its bytes; a symbol costs no allocation of its own, and dropping the
//! interner frees two buffers and the hash table. Ids are dense in
//! first-intern order, as they were when each name had its own box.

use std::fmt;
use std::hash::Hasher;
use std::sync::{Mutex, MutexGuard};

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

/// Each name is stored once, back to back with the others in `bytes`:
/// name `id` ends at `ends[id]` and starts where name `id - 1` ends. `ids`
/// finds a name's id from its hash and never holds the string.
#[derive(Default)]
struct InternerState {
    bytes: String,
    ends: Vec<u32>,
    ids: IdTable,
}

impl InternerState {
    fn names(&self) -> Names<'_> {
        Names {
            bytes: &self.bytes,
            ends: &self.ends,
        }
    }

    fn intern(&mut self, name: &str, hash: u64) -> SymbolId {
        let InternerState { bytes, ends, ids } = self;
        let names = Names { bytes, ends };
        let (id, new) = ids.find_or_push(
            hash,
            |id| names.resolve(SymbolId(id)) == name,
            |id| hash_name(names.resolve(SymbolId(id))),
        );
        if new {
            let end = u32::try_from(bytes.len() + name.len())
                .expect("symbol arena exceeds u32::MAX bytes");
            bytes.push_str(name);
            ends.push(end);
        }
        SymbolId(id)
    }
}

fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

/// A shared string interner.
///
/// Interning and resolution take `&self`; the interner can sit in an `Arc`
/// and be shared between the parser, the engine, and report printers. A
/// caller interning many names in a row holds the lock once through
/// [`Interner::lock`].
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
        self.lock().intern(name)
    }

    /// Look up a previously interned name without interning it.
    pub fn get(&self, name: &str) -> Option<SymbolId> {
        self.get_hashed(name, hash_name(name))
    }

    /// Hold the lock until the guard drops, interning through it without
    /// taking the lock per name. Every other method of this interner
    /// blocks — on this thread, deadlocks — while the guard lives.
    pub fn lock(&self) -> InternerGuard<'_> {
        InternerGuard(self.state.lock().expect("interner poisoned"))
    }

    fn get_hashed(&self, name: &str, hash: u64) -> Option<SymbolId> {
        let st = self.state.lock().expect("interner poisoned");
        let names = st.names();
        st.ids
            .find(hash, |id| names.resolve(SymbolId(id)) == name)
            .map(SymbolId)
    }

    /// Resolve `id` to its string. Panics if `id` came from another interner.
    pub fn resolve(&self, id: SymbolId) -> String {
        self.with_resolved(id, str::to_string)
    }

    /// Run `f` on the resolved string without allocating a copy.
    pub fn with_resolved<R>(&self, id: SymbolId, f: impl FnOnce(&str) -> R) -> R {
        self.with_names(|names| f(names.resolve(id)))
    }

    /// Run `f` with every interned name readable through [`Names`], under
    /// one hold of the lock: what a caller resolving many symbols at once
    /// uses instead of one [`Interner::with_resolved`] per symbol.
    pub fn with_names<R>(&self, f: impl FnOnce(Names<'_>) -> R) -> R {
        let st = self.state.lock().expect("interner poisoned");
        f(st.names())
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.state.lock().expect("interner poisoned").ends.len()
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
        self.with_names(|names| names.resolve(a).cmp(names.resolve(b)))
    }
}

/// An [`Interner`] held locked ([`Interner::lock`]).
pub struct InternerGuard<'a>(MutexGuard<'a, InternerState>);

impl InternerGuard<'_> {
    /// [`Interner::intern`] under the lock this guard holds.
    pub fn intern(&mut self, name: &str) -> SymbolId {
        self.0.intern(name, hash_name(name))
    }
}

/// An [`Interner`]'s names, borrowed while its lock is held
/// ([`Interner::with_names`]).
#[derive(Clone, Copy)]
pub struct Names<'a> {
    bytes: &'a str,
    ends: &'a [u32],
}

impl<'a> Names<'a> {
    /// The name of `id`. Panics if `id` came from another interner.
    pub fn resolve(self, id: SymbolId) -> &'a str {
        let start = id.index().checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.bytes[start as usize..self.ends[id.index()] as usize]
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
    fn a_held_lock_interns_like_intern() {
        let (one, held) = (Interner::new(), Interner::new());
        let names = ["b", "a", "", "b", "Ω", "a", "ab"];
        let want: Vec<_> = names.iter().map(|n| one.intern(n)).collect();
        let mut guard = held.lock();
        let got: Vec<_> = names.iter().map(|n| guard.intern(n)).collect();
        drop(guard);
        assert_eq!(got, want);
        assert_eq!(held.len(), 5);
        for (name, id) in names.iter().zip(got) {
            assert_eq!(held.resolve(id), *name);
        }
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
        let intern = |name| i.lock().0.intern(name, 42);
        let a = intern("left");
        let b = intern("right");
        assert_ne!(a, b);
        assert_eq!(intern("left"), a);
        assert_eq!(intern("right"), b);
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
