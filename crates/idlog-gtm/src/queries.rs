//! Concrete machines used by the expressiveness tests (E13,
//! `tests/expressiveness.rs`).

use crate::encode::{SYM_LPAREN, SYM_RBRACKET};
use crate::machine::{Move, Tm, TmBuilder};

/// Deterministic: accepts iff the tape holds an even number of `1` symbols
/// (symbol 2), terminated by a blank. Leaves the tape unchanged.
///
/// States: 0 = even-so-far (start), 1 = odd-so-far, 2 = accept.
pub fn parity() -> Tm {
    TmBuilder::new(3, 3, 0, 2)
        .on(0, 1, 1, Move::Right, 0) // skip 0-bits
        .on(1, 1, 1, Move::Right, 1)
        .on(0, 2, 2, Move::Right, 1) // 1-bit flips parity
        .on(1, 2, 2, Move::Right, 0)
        .on(0, 0, 0, Move::Stay, 2) // blank: accept iff even
        .build()
        .expect("parity machine is well-formed")
}

/// Deterministic: binary increment, least-significant bit first (symbol 1 =
/// bit 0, symbol 2 = bit 1). Accepts with the incremented number on tape.
pub fn successor() -> Tm {
    TmBuilder::new(2, 3, 0, 1)
        .on(0, 2, 1, Move::Right, 0) // carry through 1-bits
        .on(0, 1, 2, Move::Stay, 1) // flip the first 0-bit, done
        .on(0, 0, 2, Move::Stay, 1) // carry past the end: append a 1-bit
        .build()
        .expect("successor machine is well-formed")
}

/// Non-deterministic: writes symbol 1 **or** symbol 2 at the head, then
/// accepts — the minimal machine whose outcome *set* has two elements.
pub fn coin_writer() -> Tm {
    TmBuilder::new(2, 3, 0, 1)
        .on(0, 0, 1, Move::Stay, 1)
        .on(0, 0, 2, Move::Stay, 1)
        .build()
        .expect("coin machine is well-formed")
}

/// Deterministic, over the database-encoding alphabet: accepts iff the
/// (first) encoded relation is non-empty — it scans for a `(` before the
/// closing `]`. Exercises the \[HS89\] encoding end-to-end.
pub fn nonempty_scanner() -> Tm {
    // States: 0 scan, 1 accept.
    let mut b = TmBuilder::new(2, crate::encode::ENCODING_ALPHABET, 0, 1);
    b = b.on(0, SYM_LPAREN, SYM_LPAREN, Move::Stay, 1);
    for s in 0..crate::encode::ENCODING_ALPHABET as u8 {
        if s != SYM_LPAREN && s != SYM_RBRACKET && s != 0 {
            b = b.on(0, s, s, Move::Right, 0);
        }
    }
    // `]` and blank: no transition — halt without accepting.
    b.build().expect("scanner machine is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{explore, run_deterministic, Outcome, RunBudget};

    #[test]
    fn parity_accepts_even_rejects_odd() {
        let b = RunBudget::default();
        assert!(matches!(
            run_deterministic(&parity(), &[2, 1, 2], &b).unwrap(),
            Outcome::Accepted(_)
        ));
        assert!(matches!(
            run_deterministic(&parity(), &[2, 1], &b).unwrap(),
            Outcome::Halted(_)
        ));
        assert!(matches!(
            run_deterministic(&parity(), &[], &b).unwrap(),
            Outcome::Accepted(_)
        ));
    }

    #[test]
    fn successor_increments() {
        let b = RunBudget::default();
        // 3 = [2,2] (LSB first) → 4 = [1,1,2].
        let Outcome::Accepted(tape) = run_deterministic(&successor(), &[2, 2], &b).unwrap() else {
            panic!("expected acceptance");
        };
        assert_eq!(tape, vec![1, 1, 2]);
        // 0 = [1] → 1 = [2].
        let Outcome::Accepted(tape) = run_deterministic(&successor(), &[1], &b).unwrap() else {
            panic!("expected acceptance");
        };
        assert_eq!(tape, vec![2]);
    }

    #[test]
    fn coin_writer_has_two_outcomes() {
        let outs = explore(&coin_writer(), &[], &RunBudget::default()).unwrap();
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn scanner_detects_nonempty_encoding() {
        use crate::encode::{encode_database, EncodeOrder};
        use idlog_storage::Database;
        let b = RunBudget::default();

        let mut db = Database::new();
        db.insert_syms("p", &["a"]).unwrap();
        let order = EncodeOrder::canonical(&db);
        let tape = encode_database(&db, &order, &["p"]).unwrap();
        assert!(matches!(
            run_deterministic(&nonempty_scanner(), &tape, &b).unwrap(),
            Outcome::Accepted(_)
        ));

        let mut empty = Database::new();
        empty
            .declare("p", idlog_common::RelType::elementary(1))
            .unwrap();
        let order = EncodeOrder::canonical(&empty);
        let tape = encode_database(&empty, &order, &["p"]).unwrap();
        assert!(matches!(
            run_deterministic(&nonempty_scanner(), &tape, &b).unwrap(),
            Outcome::Halted(_)
        ));
    }
}
