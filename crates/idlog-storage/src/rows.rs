//! Rows of one arity, stored back to back.
//!
//! A relation's rows, a round's delta and a rule run's derivations are
//! strided value buffers: row `i` of arity `a` is `values[i * a..][..a]`, so
//! a binary row takes two 8-byte values and nothing else — no length, no
//! padding, no per-row allocation. [`Rows`] borrows such a buffer and
//! [`RowBuf`] owns one. Both carry their row count, because the rows of a
//! nullary relation hold no values to count.

use idlog_common::{Tuple, Value};

/// Rows of one arity, borrowed from a strided value buffer. The default is
/// no rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rows<'a> {
    values: &'a [Value],
    arity: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// `len` rows of `arity` values each, back to back in `values`.
    /// Panics when the sizes disagree.
    pub fn new(values: &'a [Value], arity: usize, len: usize) -> Self {
        assert_eq!(values.len(), arity * len, "{len} rows of arity {arity}");
        Rows { values, arity, len }
    }

    /// The single row `row`.
    pub fn one(row: &'a [Value]) -> Self {
        Rows::new(row, row.len(), 1)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row `i`. Panics when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &'a [Value] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.values[i * self.arity..][..self.arity]
    }

    /// The rows in order.
    #[inline]
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            rest: self.values,
            arity: self.arity,
            left: self.len,
        }
    }

    /// Consecutive pieces of at most `per` rows each (`per > 0`), in order.
    pub fn chunks(self, per: usize) -> impl Iterator<Item = Rows<'a>> {
        assert!(per > 0, "chunks of no rows");
        (0..self.len).step_by(per).map(move |start| {
            let len = per.min(self.len - start);
            Rows::new(
                &self.values[start * self.arity..][..len * self.arity],
                self.arity,
                len,
            )
        })
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of a [`Rows`].
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    rest: &'a [Value],
    arity: usize,
    left: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        self.left = self.left.checked_sub(1)?;
        let (row, rest) = self.rest.split_at(self.arity);
        self.rest = rest;
        Some(row)
    }

    /// Skips without visiting the rows passed.
    #[inline]
    fn nth(&mut self, n: usize) -> Option<&'a [Value]> {
        if n >= self.left {
            self.left = 0;
            self.rest = &[];
            return None;
        }
        self.left -= n;
        self.rest = &self.rest[n * self.arity..];
        self.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// An owned, growable [`Rows`]. An empty buffer takes the arity of the
/// first row pushed into it; every later row must have that arity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowBuf {
    values: Vec<Value>,
    arity: usize,
    len: usize,
}

impl RowBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rows, borrowed.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            values: &self.values,
            arity: self.arity,
            len: self.len,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`. Panics when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &[Value] {
        self.rows().get(i)
    }

    /// Append `row`.
    #[inline]
    pub fn push(&mut self, row: &[Value]) {
        if self.len == 0 {
            self.arity = row.len();
        }
        debug_assert_eq!(row.len(), self.arity, "row of another arity");
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Append every row of `rows`.
    pub fn extend(&mut self, rows: Rows<'_>) {
        if self.len == 0 {
            self.arity = rows.arity;
        }
        assert!(
            rows.is_empty() || rows.arity == self.arity,
            "rows of another arity"
        );
        self.values.extend_from_slice(rows.values);
        self.len += rows.len;
    }

    /// Remove every row, keeping the allocation.
    pub fn clear(&mut self) {
        self.values.clear();
        self.len = 0;
    }

    /// Copy row `from` over row `to`.
    pub(crate) fn copy_row(&mut self, from: usize, to: usize) {
        let a = self.arity;
        self.values.copy_within(from * a..(from + 1) * a, to * a);
    }

    /// Keep the first `len` rows.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.values.truncate(len * self.arity);
        self.len = self.len.min(len);
    }

    /// Remove row `i` by moving the last row into its place.
    pub fn swap_remove(&mut self, i: usize) {
        assert!(i < self.len, "row {i} of {}", self.len);
        let last = self.len - 1;
        let a = self.arity;
        self.values.copy_within(last * a..(last + 1) * a, i * a);
        self.values.truncate(last * a);
        self.len = last;
    }

    /// Keep only the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let a = self.arity;
        let mut kept = 0;
        for row in 0..self.len {
            if keep(&self.values[row * a..][..a]) {
                self.values.copy_within(row * a..(row + 1) * a, kept * a);
                kept += 1;
            }
        }
        self.values.truncate(kept * a);
        self.len = kept;
    }
}

impl<'t> FromIterator<&'t Tuple> for RowBuf {
    fn from_iter<I: IntoIterator<Item = &'t Tuple>>(iter: I) -> Self {
        let mut buf = RowBuf::new();
        for t in iter {
            buf.push(t.values());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Nat;

    fn row(ns: &[i64]) -> Vec<Value> {
        ns.iter()
            .map(|&n| Value::Int(Nat::new(n).expect("a natural")))
            .collect()
    }

    #[test]
    fn rows_of_every_arity_iterate_skip_and_chunk() {
        for arity in 0..4usize {
            let mut buf = RowBuf::new();
            for i in 0..7i64 {
                buf.push(&row(&vec![i; arity]));
            }
            let rows = buf.rows();
            assert_eq!((rows.len(), rows.arity()), (7, arity));
            let all: Vec<&[Value]> = rows.iter().collect();
            assert_eq!(all.len(), 7);
            for (i, r) in all.iter().enumerate() {
                assert_eq!(*r, rows.get(i));
                assert_eq!(r.to_vec(), row(&vec![i as i64; arity]));
            }
            assert_eq!(rows.iter().nth(5), Some(rows.get(5)));
            assert_eq!(rows.iter().nth(7), None);
            let mut it = rows.iter();
            assert_eq!(it.nth(2), Some(rows.get(2)));
            assert_eq!(it.next(), Some(rows.get(3)));
            let pieces: Vec<usize> = rows.chunks(3).map(|c| c.len()).collect();
            assert_eq!(pieces, [3, 3, 1]);
            let rejoined: Vec<&[Value]> = rows.chunks(3).flat_map(|c| c.iter()).collect();
            assert_eq!(rejoined, all);
        }
    }

    #[test]
    fn swap_remove_and_retain_keep_the_stride() {
        let mut buf = RowBuf::new();
        for i in 0..6 {
            buf.push(&row(&[i, 10 * i]));
        }
        buf.swap_remove(1);
        assert_eq!(buf.get(1), row(&[5, 50]).as_slice());
        buf.swap_remove(4);
        assert_eq!(buf.len(), 4);
        buf.retain(|r| r[0] != Value::Int(Nat::ZERO));
        let firsts: Vec<Value> = buf.rows().iter().map(|r| r[0]).collect();
        assert_eq!(firsts, row(&[5, 2, 3]));
        let mut nullary = RowBuf::new();
        nullary.push(&[]);
        nullary.retain(|_| true);
        assert_eq!(nullary.len(), 1);
        nullary.swap_remove(0);
        assert!(nullary.is_empty());
    }
}
