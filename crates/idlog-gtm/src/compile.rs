//! TM → IDLOG: the executable core of Theorem 6.
//!
//! A bounded run of a (non-deterministic) Turing machine becomes a
//! stratified IDLOG program over configurations indexed by time:
//!
//! * `cell(T, P, S)`, `head(T, P)`, `state(T, Q)` hold the configuration;
//! * `coin(T, K) :- tm_time(T), K < kmax` lists the branch options at every
//!   step, and `flip(T, K) :- coin[1](T, K, 0)` **chooses one option per
//!   time step through an ID-literal** — one ID-function of `coin` grouped
//!   by `T` corresponds to one resolution of all the machine's choices,
//!   which is exactly how the paper's simulation obtains non-determinism;
//! * per-transition clauses advance the configuration, and a frame clause
//!   copies untouched cells.
//!
//! The tape is half-infinite with `max_space` usable cells; a head move off
//! either edge kills the branch, mirroring [`crate::run`].

use std::fmt::Write as _;
use std::sync::Arc;

use idlog_common::{Interner, Nat, Tuple, Value};
use idlog_core::{CoreResult, EnumBudget, Query};
use idlog_storage::Database;

use crate::machine::{Move, Tm};

/// A machine compiled to IDLOG source for a bounded run.
#[derive(Debug, Clone)]
pub struct CompiledTm {
    source: String,
    accept_state: usize,
    max_steps: usize,
    max_space: usize,
}

/// Compile `tm` for runs of at most `max_steps` steps over `max_space` tape
/// cells.
///
/// ```
/// use idlog_core::EnumBudget;
/// use idlog_gtm::{compile_tm, queries};
///
/// // A machine that writes 1 or 2 and accepts: two outcomes.
/// let compiled = compile_tm(&queries::coin_writer(), 2, 2);
/// let tapes = compiled.accepting_tapes(&[], &EnumBudget::default()).unwrap();
/// assert_eq!(tapes, vec![vec![(0, 1)], vec![(0, 2)]]);
/// ```
pub fn compile_tm(tm: &Tm, max_steps: usize, max_space: usize) -> CompiledTm {
    let kmax = tm.max_branching().max(1);
    let mut src = String::new();

    // Initial configuration.
    let _ = writeln!(src, "has_input(P) :- input_cell(P, S).");
    let _ = writeln!(src, "cell(0, P, S) :- input_cell(P, S).");
    let _ = writeln!(src, "cell(0, P, 0) :- tm_pos(P), not has_input(P).");
    let _ = writeln!(src, "head(0, 0).");
    let _ = writeln!(src, "state(0, {}).", tm.start());
    let _ = writeln!(
        src,
        "confp(T, P, Q, S) :- state(T, Q), head(T, P), cell(T, P, S)."
    );

    // The choice mechanism: one coin option per (time, branch index); the
    // ID-literal grouped by time picks one.
    let _ = writeln!(src, "coin(T, K) :- tm_time(T), K < {kmax}.");
    let _ = writeln!(src, "flip(T, K) :- coin[1](T, K, 0).");

    // Transitions. Entries are emitted in a deterministic order for
    // reproducible source output.
    let mut entries: Vec<(usize, u8)> = tm.delta_entries().map(|(q, s, _)| (q, s)).collect();
    entries.sort_unstable();
    for (q, s) in entries {
        let ts = tm.transitions(q, s);
        let l = ts.len();
        let sel = format!("sel_{q}_{s}");
        // Map the global coin value K onto a transition index R < l.
        if l == 1 {
            let _ = writeln!(src, "{sel}(T, 0) :- flip(T, K).");
        } else if l == kmax {
            let _ = writeln!(src, "{sel}(T, K) :- flip(T, K).");
        } else {
            // R = K mod l, computed with the safe binding patterns
            // plus(nbb) and times(bnb).
            let _ = writeln!(
                src,
                "{sel}(T, R) :- flip(T, K), R < {l}, plus(P1, R, K), times({l}, Q2, P1)."
            );
        }
        for (k, t) in ts.iter().enumerate() {
            // The guard includes the move's feasibility: a transition whose
            // move would leave the tape does not fire at all (matching the
            // native semantics in `run`).
            let (guard, head_var) = match t.mv {
                Move::Stay => (
                    format!("confp(T, P, {q}, {s}), {sel}(T, {k}), succ(T, T2)"),
                    "P",
                ),
                Move::Right => (
                    format!(
                        "confp(T, P, {q}, {s}), {sel}(T, {k}), succ(T, T2),                          succ(P, P2), tm_pos(P2)"
                    ),
                    "P2",
                ),
                Move::Left => (
                    format!(
                        "confp(T, P, {q}, {s}), {sel}(T, {k}), succ(T, T2), succ(P2, P)"
                    ),
                    "P2",
                ),
            };
            let _ = writeln!(src, "state(T2, {}) :- {guard}.", t.next);
            let _ = writeln!(src, "cell(T2, P, {}) :- {guard}.", t.write);
            let _ = writeln!(src, "cell(T2, PC, S) :- {guard}, cell(T, PC, S), PC != P.");
            let _ = writeln!(src, "head(T2, {head_var}) :- {guard}.");
        }
    }

    // Outcome extraction.
    let accept = tm.accept();
    let _ = writeln!(src, "accepted :- state(T, {accept}).");
    let _ = writeln!(
        src,
        "result(P, S) :- state(T, {accept}), cell(T, P, S), S != 0."
    );

    CompiledTm {
        source: src,
        accept_state: accept,
        max_steps,
        max_space,
    }
}

impl CompiledTm {
    /// The generated IDLOG source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The accepting state the outcome predicates refer to.
    pub fn accept_state(&self) -> usize {
        self.accept_state
    }

    /// Build the query for one of the outcome predicates (`"accepted"` or
    /// `"result"`).
    pub fn query(&self, output: &str) -> CoreResult<Query> {
        Query::parse(&self.source, output)
    }

    /// The input database for a run on `input`: time and position ranges
    /// plus the initial tape.
    pub fn database(&self, interner: &Arc<Interner>, input: &[u8]) -> Database {
        let nat = |n: usize| {
            let n = i64::try_from(n).ok().and_then(Nat::new);
            Value::Int(n.expect("a step, cell or symbol number fits in i64"))
        };
        let mut db = Database::with_interner(Arc::clone(interner));
        for t in 0..=self.max_steps {
            db.insert("tm_time", Tuple::new(vec![nat(t)]))
                .expect("i-typed");
        }
        for p in 0..self.max_space {
            db.insert("tm_pos", Tuple::new(vec![nat(p)]))
                .expect("i-typed");
        }
        db.declare("input_cell", "11".parse().expect("literal type"))
            .expect("fresh relation");
        for (p, &s) in input.iter().enumerate() {
            if s != 0 {
                db.insert("input_cell", Tuple::new(vec![nat(p), nat(usize::from(s))]))
                    .expect("i-typed");
            }
        }
        db
    }

    /// Every distinct accepting final tape, as sorted `(position, symbol)`
    /// lists of the non-blank cells. Non-accepting branches contribute an
    /// empty `result` relation, which is filtered out.
    pub fn accepting_tapes(
        &self,
        input: &[u8],
        budget: &EnumBudget,
    ) -> CoreResult<Vec<Vec<(usize, u8)>>> {
        let query = self.query("result")?;
        let db = self.database(query.interner(), input);
        let answers = query.session(&db).budget(*budget).all_answers()?;
        let mut tapes: Vec<Vec<(usize, u8)>> = answers
            .iter()
            .filter(|rel| !rel.is_empty())
            .map(|rel| {
                let mut cells: Vec<(usize, u8)> = rel
                    .rows()
                    .map(|t| {
                        let p = t[0].as_int().expect("position") as usize;
                        let s = t[1].as_int().expect("symbol") as u8;
                        (p, s)
                    })
                    .collect();
                cells.sort_unstable();
                cells
            })
            .collect();
        tapes.sort();
        tapes.dedup();
        Ok(tapes)
    }

    /// Whether some branch accepts / every branch accepts, from the answer
    /// set of the 0-ary `accepted` predicate.
    pub fn acceptance(&self, input: &[u8], budget: &EnumBudget) -> CoreResult<(bool, bool)> {
        let query = self.query("accepted")?;
        let db = self.database(query.interner(), input);
        let answers = query.session(&db).budget(*budget).all_answers()?;
        let mut some = false;
        let mut all = true;
        for rel in answers.iter() {
            if rel.is_empty() {
                all = false;
            } else {
                some = true;
            }
        }
        Ok((some, all && some))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{coin_writer, parity, successor};
    use crate::run::{explore, Outcome, RunBudget};

    /// Non-blank cells of a native outcome tape.
    fn nonblank(tape: &[u8]) -> Vec<(usize, u8)> {
        tape.iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(p, &s)| (p, s))
            .collect()
    }

    #[test]
    fn compiled_successor_matches_native() {
        let tm = successor();
        let compiled = compile_tm(&tm, 6, 6);
        let budget = EnumBudget::default();
        for input in [vec![1u8], vec![2], vec![2, 2], vec![1, 2]] {
            let native = explore(&tm, &input, &RunBudget::default()).unwrap();
            let mut native_tapes: Vec<Vec<(usize, u8)>> = native
                .iter()
                .filter_map(|o| match o {
                    Outcome::Accepted(t) => Some(nonblank(t)),
                    Outcome::Halted(_) => None,
                })
                .collect();
            native_tapes.sort();
            let idlog_tapes = compiled.accepting_tapes(&input, &budget).unwrap();
            assert_eq!(idlog_tapes, native_tapes, "input {input:?}");
        }
    }

    #[test]
    fn compiled_parity_accepts_even() {
        let tm = parity();
        let compiled = compile_tm(&tm, 6, 6);
        let budget = EnumBudget::default();
        let (some, all) = compiled.acceptance(&[2, 2], &budget).unwrap();
        assert!(some && all, "even input accepted on the only branch");
        let (some, _) = compiled.acceptance(&[2], &budget).unwrap();
        assert!(!some, "odd input never accepts");
    }

    #[test]
    fn compiled_coin_writer_has_two_tapes() {
        let tm = coin_writer();
        let compiled = compile_tm(&tm, 2, 2);
        let budget = EnumBudget::default();
        let tapes = compiled.accepting_tapes(&[], &budget).unwrap();
        assert_eq!(tapes, vec![vec![(0, 1)], vec![(0, 2)]]);
        let (some, all) = compiled.acceptance(&[], &budget).unwrap();
        assert!(some && all, "both branches accept");
    }

    #[test]
    fn generated_source_is_valid_idlog() {
        let compiled = compile_tm(&coin_writer(), 3, 3);
        assert!(compiled
            .source()
            .contains("flip(T, K) :- coin[1](T, K, 0)."));
        compiled.query("result").unwrap();
    }
}
