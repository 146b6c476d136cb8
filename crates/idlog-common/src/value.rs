//! The two-sorted value model.
//!
//! A [`Value`] is 8 bytes. The sort-`i` payload is a [`Nat`], a natural in
//! `0..=i64::MAX` held as two `u32` halves with the high half stored plus
//! one in a `NonZeroU32`; rustc uses that half's forbidden zero as the tag
//! of [`Value::Sym`], whose `u32` sits beside it. The layout is pinned by a
//! compile-time assertion below, so a compiler that stopped filling the
//! niche would fail the build rather than silently double every stored
//! tuple's values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;

use crate::sort::Sort;
use crate::symbol::{Interner, SymbolId};

/// A natural number of the interpreted sort `i`: `0..=i64::MAX`.
///
/// The paper's interpreted domain is ℕ, and every builtin's checked
/// arithmetic on naturals stays in this range, so 63 bits hold every
/// integer the engine can derive. [`Nat::new`] is the one (checked)
/// constructor; it refuses negatives.
///
/// Equality and order are numeric (the derived order compares the high
/// half first). `Hash` writes [`Nat::get`] as an `i64`, exactly what an
/// `i64` payload writes, so [`Value`]'s hash — and with it the iteration
/// order of every hash map keyed by values — is the one an enum with an
/// `i64` payload derives.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Nat {
    /// Bits 32..63, plus one: never zero.
    hi: NonZeroU32,
    /// Bits 0..32.
    lo: u32,
}

impl Nat {
    /// Zero.
    pub const ZERO: Nat = Nat {
        hi: NonZeroU32::MIN,
        lo: 0,
    };

    /// The natural `n`, or `None` when `n` is negative.
    #[inline]
    pub const fn new(n: i64) -> Option<Nat> {
        if n < 0 {
            return None;
        }
        let n = n as u64;
        match NonZeroU32::new((n >> 32) as u32 + 1) {
            Some(hi) => Some(Nat { hi, lo: n as u32 }),
            None => None,
        }
    }

    /// The number, in `0..=i64::MAX`.
    #[inline]
    pub const fn get(self) -> i64 {
        (((self.hi.get() - 1) as u64) << 32 | self.lo as u64) as i64
    }
}

impl Hash for Nat {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.get().hash(state);
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.get(), f)
    }
}

/// A ground value: an uninterpreted constant (interned symbol) or a natural
/// number.
///
/// Equality, order and hash are those the enum would derive with an `i64`
/// payload: the order puts every symbol before every natural, follows
/// interning order among symbols and numeric order among naturals. The
/// order is intended for *intra-run* canonicalization (state dedup keys);
/// use [`Value::cmp_canonical`] when the order must be stable across
/// interners.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Sort-`u` constant.
    Sym(SymbolId),
    /// Sort-`i` natural number.
    Int(Nat),
}

const _: () = assert!(std::mem::size_of::<Value>() == 8);

impl Value {
    /// One integer that compares as the value does: a symbol's id, or
    /// `2³² + n` for the natural `n` — which is `Nat`'s two halves read as
    /// one word. Equality and order on it take one comparison where the
    /// derived ones decode both niche tags first.
    #[inline]
    fn key(self) -> u64 {
        match self {
            Value::Sym(s) => u64::from(s.0),
            Value::Int(n) => u64::from(n.hi.get()) << 32 | u64::from(n.lo),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl Hash for Value {
    /// The derived formula: the variant's index as an `isize`, then the
    /// payload.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Sym(s) => {
                state.write_isize(0);
                s.hash(state);
            }
            Value::Int(n) => {
                state.write_isize(1);
                n.hash(state);
            }
        }
    }
}

impl Value {
    /// The sort of this value.
    #[inline]
    pub fn sort(self) -> Sort {
        match self {
            Value::Sym(_) => Sort::U,
            Value::Int(_) => Sort::I,
        }
    }

    /// The integer payload, if sort `i`.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(n.get()),
            Value::Sym(_) => None,
        }
    }

    /// The symbol payload, if sort `u`.
    #[inline]
    pub fn as_sym(self) -> Option<SymbolId> {
        match self {
            Value::Sym(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// Render using `interner` for symbol names.
    pub fn display<'a>(self, interner: &'a Interner) -> ValueDisplay<'a> {
        ValueDisplay {
            value: self,
            interner,
        }
    }

    /// Canonical ordering: integers before symbols, symbols by *name* (so the
    /// order is independent of interning order — required for genericity of
    /// the canonical tid oracle).
    pub fn cmp_canonical(self, other: Value, interner: &Interner) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(&b),
            (Value::Int(_), Value::Sym(_)) => Ordering::Less,
            (Value::Sym(_), Value::Int(_)) => Ordering::Greater,
            (Value::Sym(a), Value::Sym(b)) => interner.cmp_by_name(a, b),
        }
    }
}

impl From<SymbolId> for Value {
    fn from(s: SymbolId) -> Self {
        Value::Sym(s)
    }
}

/// Helper returned by [`Value::display`].
pub struct ValueDisplay<'a> {
    value: Value,
    interner: &'a Interner,
}

impl fmt::Display for ValueDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Value::Int(n) => write!(f, "{n}"),
            Value::Sym(s) => self.interner.with_resolved(s, |name| write!(f, "{name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    #[test]
    fn sorts() {
        let i = Interner::new();
        let a = Value::Sym(i.intern("a"));
        assert_eq!(a.sort(), Sort::U);
        assert_eq!(int(3).sort(), Sort::I);
    }

    #[test]
    fn accessors() {
        let i = Interner::new();
        let s = i.intern("x");
        assert_eq!(Value::Sym(s).as_sym(), Some(s));
        assert_eq!(Value::Sym(s).as_int(), None);
        assert_eq!(int(7).as_int(), Some(7));
        assert_eq!(int(7).as_sym(), None);
    }

    #[test]
    fn display_uses_interner() {
        let i = Interner::new();
        let v = Value::Sym(i.intern("sales"));
        assert_eq!(v.display(&i).to_string(), "sales");
        assert_eq!(int(42).display(&i).to_string(), "42");
    }

    #[test]
    fn canonical_order_ignores_interning_order() {
        use std::cmp::Ordering;
        let i = Interner::new();
        let z = Value::Sym(i.intern("zoo"));
        let a = Value::Sym(i.intern("ape"));
        assert_eq!(a.cmp_canonical(z, &i), Ordering::Less);
        assert_eq!(int(1).cmp_canonical(a, &i), Ordering::Less);
        assert_eq!(z.cmp_canonical(int(9), &i), Ordering::Greater);
        assert_eq!(int(3).cmp_canonical(int(3), &i), Ordering::Equal);
    }
}
