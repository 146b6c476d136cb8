//! Database ↔ tape encodings, following the scheme sketched in \[HS89\] and
//! the paper (§3.1): the input database is "placed into an ordered list,
//! where each uninterpreted constant is encoded as a string of 0s and 1s",
//! with the distinguished symbols `0 1 , ( ) [ ]` in the tape alphabet.
//!
//! Tape symbol assignment (symbol 0 is the blank):
//!
//! | symbol | meaning |
//! |--------|---------|
//! | 1      | bit `0` |
//! | 2      | bit `1` |
//! | 3      | `,`     |
//! | 4      | `(`     |
//! | 5      | `)`     |
//! | 6      | `[`     |
//! | 7      | `]`     |
//!
//! A *generic* machine's behaviour must not depend on the enumeration order
//! of the constants; [`EncodeOrder`] makes the order an explicit input so
//! genericity can be tested by permuting it.

use idlog_common::{FxHashMap, Interner, SymbolId};
use idlog_storage::Database;

use crate::error::{GtmError, GtmResult};

/// Tape symbol for bit 0.
pub const SYM_BIT0: u8 = 1;
/// Tape symbol for bit 1.
pub const SYM_BIT1: u8 = 2;
/// Tape symbol for `,`.
pub const SYM_COMMA: u8 = 3;
/// Tape symbol for `(`.
pub const SYM_LPAREN: u8 = 4;
/// Tape symbol for `)`.
pub const SYM_RPAREN: u8 = 5;
/// Tape symbol for `[`.
pub const SYM_LBRACKET: u8 = 6;
/// Tape symbol for `]`.
pub const SYM_RBRACKET: u8 = 7;
/// Alphabet size for encoded databases (0 = blank plus the seven above).
pub const ENCODING_ALPHABET: usize = 8;

/// An enumeration order of the u-domain.
#[derive(Debug, Clone)]
pub struct EncodeOrder {
    order: Vec<SymbolId>,
    index: FxHashMap<SymbolId, usize>,
    width: usize,
}

impl EncodeOrder {
    /// Build from an explicit constant order.
    pub fn new(order: Vec<SymbolId>) -> Self {
        let index = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let width = bits_needed(order.len());
        EncodeOrder {
            order,
            index,
            width,
        }
    }

    /// Canonical (name-sorted) order of a database's u-domain.
    pub fn canonical(db: &Database) -> Self {
        let interner = db.interner();
        let mut order: Vec<SymbolId> = db.u_domain().into_iter().collect();
        order.sort_by(|&a, &b| interner.cmp_by_name(a, b));
        Self::new(order)
    }

    /// Bits per constant.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of constants.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The constant at `index`.
    pub fn constant(&self, index: usize) -> Option<SymbolId> {
        self.order.get(index).copied()
    }

    fn encode_constant(&self, s: SymbolId, out: &mut Vec<u8>) -> GtmResult<()> {
        let &i = self.index.get(&s).ok_or_else(|| GtmError::BadInput {
            message: "constant not in the enumeration order".into(),
        })?;
        for bit in (0..self.width).rev() {
            out.push(if (i >> bit) & 1 == 1 {
                SYM_BIT1
            } else {
                SYM_BIT0
            });
        }
        Ok(())
    }

    fn decode_constant(&self, bits: &[u8]) -> GtmResult<SymbolId> {
        let mut i = 0usize;
        for &b in bits {
            i = (i << 1)
                | match b {
                    SYM_BIT0 => 0,
                    SYM_BIT1 => 1,
                    other => {
                        return Err(GtmError::BadInput {
                            message: format!("expected a bit, found symbol {other}"),
                        })
                    }
                };
        }
        self.constant(i).ok_or_else(|| GtmError::BadInput {
            message: format!("constant index {i} out of range"),
        })
    }
}

fn bits_needed(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Encode the named relations of `db` (in the given order) onto a tape:
/// `[(c,c),(c,c)][...]` — one bracketed group per relation, tuples in
/// canonical order under `order`'s interner.
pub fn encode_database(
    db: &Database,
    order: &EncodeOrder,
    relations: &[&str],
) -> GtmResult<Vec<u8>> {
    let interner = db.interner();
    let mut out = Vec::new();
    for &name in relations {
        out.push(SYM_LBRACKET);
        if let Some(rel) = db.relation(name) {
            if !rel.rtype().is_elementary() {
                return Err(GtmError::BadInput {
                    message: format!("relation {name} is not elementary"),
                });
            }
            for (ti, t) in rel.sorted_canonical(interner).iter().enumerate() {
                if ti > 0 {
                    out.push(SYM_COMMA);
                }
                out.push(SYM_LPAREN);
                for (ci, v) in t.values().iter().enumerate() {
                    if ci > 0 {
                        out.push(SYM_COMMA);
                    }
                    let s = v.as_sym().expect("elementary relation");
                    order.encode_constant(s, &mut out)?;
                }
                out.push(SYM_RPAREN);
            }
        }
        out.push(SYM_RBRACKET);
    }
    Ok(out)
}

/// Decode one bracketed unary relation `[(c),(c),…]` from the start of a
/// tape back into constants.
pub fn decode_unary_relation(tape: &[u8], order: &EncodeOrder) -> GtmResult<Vec<SymbolId>> {
    let mut out = Vec::new();
    let mut at = 0usize;
    let expect = |at: &mut usize, want: u8| -> GtmResult<()> {
        if tape.get(*at) == Some(&want) {
            *at += 1;
            Ok(())
        } else {
            Err(GtmError::BadInput {
                message: format!("expected symbol {want} at {at:?}", at = *at),
            })
        }
    };
    expect(&mut at, SYM_LBRACKET)?;
    while tape.get(at) != Some(&SYM_RBRACKET) {
        if !out.is_empty() {
            expect(&mut at, SYM_COMMA)?;
        }
        expect(&mut at, SYM_LPAREN)?;
        let start = at;
        while matches!(tape.get(at), Some(&SYM_BIT0) | Some(&SYM_BIT1)) {
            at += 1;
        }
        out.push(order.decode_constant(&tape[start..at])?);
        expect(&mut at, SYM_RPAREN)?;
    }
    Ok(out)
}

/// The interner-aware rendering of a tape, for debugging.
pub fn render_tape(tape: &[u8]) -> String {
    tape.iter()
        .map(|&s| match s {
            0 => '·',
            SYM_BIT0 => '0',
            SYM_BIT1 => '1',
            SYM_COMMA => ',',
            SYM_LPAREN => '(',
            SYM_RPAREN => ')',
            SYM_LBRACKET => '[',
            SYM_RBRACKET => ']',
            _ => '?',
        })
        .collect()
}

// Silence the unused-import lint for Interner, which only appears in docs.
#[allow(unused)]
fn _doc_only(_: &Interner) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with(facts: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (pred, cols) in facts {
            db.insert_syms(pred, cols).unwrap();
        }
        db
    }

    #[test]
    fn bits_needed_matches_log2() {
        assert_eq!(bits_needed(0), 1);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 1);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 2);
        assert_eq!(bits_needed(5), 3);
    }

    #[test]
    fn encode_unary_and_render() {
        let db = db_with(&[("p", &["a"]), ("p", &["b"])]);
        let order = EncodeOrder::canonical(&db);
        let tape = encode_database(&db, &order, &["p"]).unwrap();
        assert_eq!(render_tape(&tape), "[(0),(1)]");
    }

    #[test]
    fn encode_binary_relation() {
        let db = db_with(&[("e", &["a", "b"])]);
        let order = EncodeOrder::canonical(&db);
        let tape = encode_database(&db, &order, &["e"]).unwrap();
        assert_eq!(render_tape(&tape), "[(0,1)]");
    }

    #[test]
    fn decode_roundtrip() {
        let db = db_with(&[("p", &["x"]), ("p", &["y"]), ("p", &["z"])]);
        let order = EncodeOrder::canonical(&db);
        let tape = encode_database(&db, &order, &["p"]).unwrap();
        let decoded = decode_unary_relation(&tape, &order).unwrap();
        let names: Vec<String> = decoded.iter().map(|&s| db.interner().resolve(s)).collect();
        assert_eq!(names, ["x", "y", "z"]);
    }

    #[test]
    fn empty_relation_is_brackets() {
        let mut db = Database::new();
        db.declare("p", idlog_common::RelType::elementary(1))
            .unwrap();
        let order = EncodeOrder::canonical(&db);
        let tape = encode_database(&db, &order, &["p"]).unwrap();
        assert_eq!(render_tape(&tape), "[]");
        assert!(decode_unary_relation(&tape, &order).unwrap().is_empty());
    }

    #[test]
    fn multiple_relations_in_order() {
        let db = db_with(&[("p", &["a"]), ("q", &["b"])]);
        let order = EncodeOrder::canonical(&db);
        let tape = encode_database(&db, &order, &["q", "p"]).unwrap();
        assert_eq!(render_tape(&tape), "[(1)][(0)]");
    }

    #[test]
    fn unknown_constant_is_error() {
        let db = db_with(&[("p", &["a"])]);
        let order = EncodeOrder::canonical(&db);
        let mut other = Database::with_interner(db.interner().clone());
        other.insert_syms("p", &["zzz"]).unwrap();
        assert!(encode_database(&other, &order, &["p"]).is_err());
    }
}
