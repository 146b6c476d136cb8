//! Shared workload generators and experiment plumbing for the IDLOG
//! reproduction's `experiments` report.
//!
//! The paper (SIGMOD 1991) is a language paper without an empirical
//! section; the workloads here are synthesized from its quantitative
//! *claims* (see `DESIGN.md`'s experiment index E1–E14): employee/department
//! grouping for the sampling queries, key/fanout/witness joins for the
//! existential-argument optimization, grids for the recursive engine
//! baselines.

#![warn(missing_docs)]

use std::sync::Arc;

use idlog_core::{EvalStats, Interner, Query, Relation};
use idlog_storage::Database;

/// D departments × E employees per department (`emp(name, dept)`).
pub fn emp_db(interner: &Arc<Interner>, depts: usize, emps_per_dept: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for d in 0..depts {
        for e in 0..emps_per_dept {
            db.insert_syms("emp", &[&format!("n{d}_{e}"), &format!("dept{d}")])
                .expect("elementary facts");
        }
    }
    db
}

/// The §4 join workload: `q(key, zkey)` × `z(zkey, fanout)` × `y(witness)`.
pub fn zy_db(interner: &Arc<Interner>, keys: usize, fanout: usize, witnesses: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for k in 0..keys {
        db.insert_syms("q", &[&format!("x{k}"), &format!("zk{k}")])
            .expect("facts");
        for f in 0..fanout {
            db.insert_syms("z", &[&format!("zk{k}"), &format!("y{f}")])
                .expect("facts");
        }
    }
    for w in 0..witnesses {
        db.insert_syms("y", &[&format!("w{w}")]).expect("facts");
    }
    db
}

/// A `w × h` grid graph. Node `(i, j)` gets `e` edges to `(i+1, j)` and
/// `(i, j+1)`, matching `par(child, parent)` edges pointing back toward the
/// origin, and a `person` fact. Unlike a chain, transitive closure and
/// same-generation on a grid produce wide per-round deltas (hundreds of
/// tuples), which is what the parallel round executor shards.
pub fn grid_db(interner: &Arc<Interner>, w: usize, h: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    let name = |i: usize, j: usize| format!("g{i}_{j}");
    for i in 0..w {
        for j in 0..h {
            db.insert_syms("person", &[&name(i, j)]).expect("facts");
            if i + 1 < w {
                db.insert_syms("e", &[&name(i, j), &name(i + 1, j)])
                    .expect("facts");
                db.insert_syms("par", &[&name(i + 1, j), &name(i, j)])
                    .expect("facts");
            }
            if j + 1 < h {
                db.insert_syms("e", &[&name(i, j), &name(i, j + 1)])
                    .expect("facts");
                db.insert_syms("par", &[&name(i, j + 1), &name(i, j)])
                    .expect("facts");
            }
        }
    }
    db
}

/// Evaluate `src`'s `output` against `db` with the canonical oracle,
/// returning the answer and statistics. Panics on invalid programs — bench
/// programs are fixtures.
pub fn run_canonical(src: &str, output: &str, db: &Database) -> (Relation, EvalStats) {
    let q = Query::parse_with_interner(src, output, Arc::clone(db.interner()))
        .expect("bench program is valid");
    let result = q.session(db).run().expect("bench evaluation succeeds");
    (result.relation, result.stats)
}

/// The paper's choice-emulated n-sampling program (Example 5 generalized):
/// n independent choices plus n(n−1)/2 pairwise disequalities.
pub fn choice_sampling_src(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("emp{i}(N, D) :- emp(N, D), choice((D), (N)).\n"));
    }
    let mut body: Vec<String> = (0..n).map(|i| format!("emp{i}(N{i}, D)")).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            body.push(format!("N{i} != N{j}"));
        }
    }
    src.push_str(&format!("select_n(N0) :- {}.\n", body.join(", ")));
    src
}

/// The IDLOG n-sampling program: one literal.
pub fn idlog_sampling_src(n: usize) -> String {
    format!("select_n(N) :- emp[2](N, D, T), T < {n}.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_have_expected_sizes() {
        let i = Arc::new(Interner::new());
        assert_eq!(emp_db(&i, 3, 4).relation("emp").unwrap().len(), 12);
        let g = grid_db(&i, 3, 4);
        assert_eq!(g.relation("person").unwrap().len(), 12);
        // (w-1)·h right edges + w·(h-1) down edges.
        assert_eq!(g.relation("e").unwrap().len(), 2 * 4 + 3 * 3);
        assert_eq!(g.relation("par").unwrap().len(), 2 * 4 + 3 * 3);
        let z = zy_db(&i, 2, 3, 4);
        assert_eq!(z.relation("q").unwrap().len(), 2);
        assert_eq!(z.relation("z").unwrap().len(), 6);
        assert_eq!(z.relation("y").unwrap().len(), 4);
    }

    #[test]
    fn sampling_sources_parse() {
        let i = Arc::new(Interner::new());
        for n in 1..=4 {
            idlog_core::parse_program(&choice_sampling_src(n), &i).unwrap();
            idlog_core::parse_program(&idlog_sampling_src(n), &i).unwrap();
        }
        // n=3 has 3 choices and 3 disequalities.
        let src = choice_sampling_src(3);
        assert_eq!(src.matches("choice").count(), 3);
        assert_eq!(src.matches("!=").count(), 3);
    }

    #[test]
    fn run_canonical_works() {
        let i = Arc::new(Interner::new());
        let db = emp_db(&i, 2, 3);
        let (rel, stats) = run_canonical("all_depts(D) :- emp[2](N, D, 0).", "all_depts", &db);
        assert_eq!(rel.len(), 2);
        assert_eq!(stats.instantiations, 2);
    }
}
