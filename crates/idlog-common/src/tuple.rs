//! Ground tuples.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

use crate::symbol::Interner;
use crate::value::{Nat, Value};

/// Widest tuple stored inline. Three covers every relation the shipped
/// `programs/` and the benchmark workloads build (binary edges and closures,
/// `emp[2]`'s name–department–tid rows). With 8-byte [`Value`]s a tuple is
/// 32 bytes: the three values, the length and the enum tag, rounded up to
/// the boxed slice's 8-byte alignment. A fourth inline value would cost
/// every binary tuple another 8 bytes.
const INLINE: usize = 3;

/// Fills the unused slots of an inline tuple; never observable.
const PAD: Value = Value::Int(Nat::ZERO);

/// An immutable ground tuple of [`Value`]s.
///
/// Tuples of up to three columns live inline — no heap allocation, so a
/// `Vec<Tuple>` of them is one flat block that clones with one copy and
/// drops with one `free`. Wider tuples are a boxed slice.
/// Equality, order and hash are those of [`Tuple::values`], whatever the
/// representation. `Ord` (like [`Value`]'s) follows interning order and is
/// meant for intra-run canonicalization; use [`Tuple::cmp_canonical`] for
/// interner-independent ordering.
#[derive(Clone, Debug)]
pub struct Tuple(Repr);

#[derive(Clone, Debug)]
enum Repr {
    /// `vals[..len]` are the columns, the rest is [`PAD`].
    Inline { len: u8, vals: [Value; INLINE] },
    /// More than [`INLINE`] columns.
    Boxed(Box<[Value]>),
}

const _: () = assert!(std::mem::size_of::<Tuple>() == 32);

impl Tuple {
    /// Build from values.
    pub fn new(values: impl Into<Box<[Value]>>) -> Self {
        let values: Box<[Value]> = values.into();
        if values.len() <= INLINE {
            values.iter().copied().collect()
        } else {
            Tuple(Repr::Boxed(values))
        }
    }

    /// The empty (0-ary) tuple — used for propositional predicates.
    pub fn empty() -> Self {
        Tuple(Repr::Inline {
            len: 0,
            vals: [PAD; INLINE],
        })
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Column values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..usize::from(*len)],
            Repr::Boxed(values) => values,
        }
    }

    /// Value at 0-based position `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Value> {
        self.values().get(i).copied()
    }

    /// Project onto the given 0-based positions (in the order given).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let values = self.values();
        positions.iter().map(|&i| values[i]).collect()
    }

    /// This tuple extended with one extra trailing value (used to build
    /// ID-relation tuples: base tuple + tid).
    pub fn with_appended(&self, v: Value) -> Tuple {
        self.values().iter().copied().chain([v]).collect()
    }

    /// Canonical (interner-name-based) ordering between equal-arity tuples.
    pub fn cmp_canonical(&self, other: &Tuple, interner: &Interner) -> std::cmp::Ordering {
        for (a, b) in self.values().iter().zip(other.values()) {
            let ord = a.cmp_canonical(*b, interner);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.arity().cmp(&other.arity())
    }

    /// Render using `interner` for symbol names, as `(v1, v2, ...)`.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> TupleDisplay<'a> {
        TupleDisplay {
            tuple: self,
            interner,
        }
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

/// A tuple borrows as its values: equality, order and hash agree, so a set
/// or map keyed by tuples can be asked about a stored row (`&[Value]`)
/// without building a tuple for it.
impl Borrow<[Value]> for Tuple {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    #[inline]
    fn index(&self, i: usize) -> &Value {
        &self.values()[i]
    }
}

impl FromIterator<Value> for Tuple {
    /// Collects without allocating while the tuple stays within the inline
    /// width (the join kernel builds every head and probe key this way).
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut vals = [PAD; INLINE];
        let mut len = 0usize;
        for v in iter.by_ref() {
            if len == INLINE {
                let mut wide = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
                wide.extend_from_slice(&vals);
                wide.push(v);
                wide.extend(iter);
                return Tuple(Repr::Boxed(wide.into()));
            }
            vals[len] = v;
            len += 1;
        }
        Tuple(Repr::Inline {
            len: len as u8,
            vals,
        })
    }
}

impl From<&[Value]> for Tuple {
    fn from(row: &[Value]) -> Self {
        row.iter().copied().collect()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        if v.len() <= INLINE {
            // No detour through a right-sized box.
            v.into_iter().collect()
        } else {
            Tuple(Repr::Boxed(v.into()))
        }
    }
}

/// Helper returned by [`Tuple::display`].
pub struct TupleDisplay<'a> {
    tuple: &'a Tuple,
    interner: &'a Interner,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.tuple.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v.display(self.interner))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }

    fn syms(i: &Interner, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| Value::Sym(i.intern(n))).collect()
    }

    #[test]
    fn basic_accessors() {
        let i = Interner::new();
        let t: Tuple = syms(&i, &["a", "b"]).into();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), Some(t[0]));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        let i = Interner::new();
        assert_eq!(t.display(&i).to_string(), "()");
    }

    #[test]
    fn projection_reorders() {
        let i = Interner::new();
        let t: Tuple = syms(&i, &["a", "b", "c"]).into();
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[t[2], t[0]]);
    }

    #[test]
    fn with_appended_adds_tid() {
        let i = Interner::new();
        let t: Tuple = syms(&i, &["a"]).into();
        let t2 = t.with_appended(int(0));
        assert_eq!(t2.arity(), 2);
        assert_eq!(t2[1], int(0));
    }

    #[test]
    fn display_format() {
        let i = Interner::new();
        let mut vals = syms(&i, &["alice", "sales"]);
        vals.push(int(1));
        let t: Tuple = vals.into();
        assert_eq!(t.display(&i).to_string(), "(alice, sales, 1)");
    }

    #[test]
    fn canonical_order_by_name_then_length() {
        use std::cmp::Ordering;
        let i = Interner::new();
        let tz: Tuple = syms(&i, &["z"]).into();
        let ta: Tuple = syms(&i, &["a"]).into();
        assert_eq!(ta.cmp_canonical(&tz, &i), Ordering::Less);
        let ta2: Tuple = syms(&i, &["a", "a"]).into();
        assert_eq!(ta.cmp_canonical(&ta2, &i), Ordering::Less);
    }
}
