//! Property-based Theorem 4 testing: for randomly generated join programs,
//! the ID-rewrite of adornment-identified existential arguments preserves
//! the query on random databases. The adornment itself matches, on
//! generated programs and their mutants, the clause walk the column graph
//! replaced, kept below in [`reference`].

use std::sync::Arc;

use proptest::prelude::*;

use idlog_core::{EnumBudget, Interner};
use idlog_optimizer::{
    analyze, push_projections, q_equivalent_on, random_databases, to_id_program,
};
use idlog_suite::gen::{self, Fragment, Ids};

/// The adornment on the column graph gives the ∃ marks the clause walk it
/// replaced gave, predicate-level and per occurrence, with every head
/// predicate as the output, on a program and on its mutant.
#[test]
fn adornment_matches_the_walk_it_replaced() {
    let wide = Fragment {
        ids: Ids::Any,
        point_query: false,
        growth: false,
    };
    let source = |p: &gen::Program| Ok::<_, String>([p.to_string(), p.mutant().to_string()]);
    gen::check("adornment", 512, wide, source, |_, sources| {
        for src in sources {
            let interner = Interner::new();
            let program = idlog_core::parse_program(&src, &interner).map_err(gen::fail)?;
            for output in program.head_predicates() {
                let got = analyze(&program, output);
                let (preds, occurrences) = reference::analyze(&program, output);
                for (&p, &arity) in &reference::arities(&program) {
                    for j in 0..arity {
                        let want = preds.contains(&(p, j));
                        prop_assert_eq!(got.pred_existential(p, j), want, "\n{}", src);
                    }
                }
                for (ci, clause) in program.clauses.iter().enumerate() {
                    for li in 0..clause.body.len() {
                        let want = occurrences.get(&(ci, li)).map_or(&[][..], |v| v);
                        let marks = got.occurrence_positions(ci, li);
                        prop_assert_eq!(marks, want, "\n{}", src);
                    }
                }
            }
        }
        Ok(())
    });
}

/// The adornment's clause walk that the column graph replaced.
mod reference {
    use idlog_common::{FxHashMap, FxHashSet, SymbolId};
    use idlog_parser::{Clause, Literal, Program, Term};

    /// Every predicate's base arity.
    pub fn arities(program: &Program) -> FxHashMap<SymbolId, usize> {
        let mut arities = FxHashMap::default();
        for clause in &program.clauses {
            for h in &clause.head {
                arities.insert(h.atom.pred.base(), h.atom.base_arity());
            }
            for l in &clause.body {
                if let Some(a) = l.atom() {
                    arities.insert(a.pred.base(), a.base_arity());
                }
            }
        }
        arities
    }

    /// The predicate-level and occurrence-level ∃ marks.
    #[allow(clippy::type_complexity)]
    pub fn analyze(
        program: &Program,
        output: SymbolId,
    ) -> (
        FxHashSet<(SymbolId, usize)>,
        FxHashMap<(usize, usize), Vec<usize>>,
    ) {
        let mut pred_level: FxHashSet<(SymbolId, usize)> = arities(program)
            .iter()
            .filter(|&(&p, _)| p != output)
            .flat_map(|(&p, &n)| (0..n).map(move |j| (p, j)))
            .collect();
        loop {
            let mut changed = false;
            for clause in &program.clauses {
                for li in 0..clause.body.len() {
                    let Some(positions) = local_existential(clause, li, &pred_level) else {
                        continue;
                    };
                    let atom = clause.body[li].atom().expect("local_existential checked");
                    if atom.pred.is_id_version() {
                        continue;
                    }
                    let p = atom.pred.base();
                    for j in 0..atom.terms.len() {
                        if !positions.contains(&j) && pred_level.remove(&(p, j)) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut occurrence = FxHashMap::default();
        for (ci, clause) in program.clauses.iter().enumerate() {
            for li in 0..clause.body.len() {
                if let Some(positions) = local_existential(clause, li, &pred_level) {
                    if !positions.is_empty() {
                        occurrence.insert((ci, li), positions);
                    }
                }
            }
        }
        (pred_level, occurrence)
    }

    fn local_existential(
        clause: &Clause,
        li: usize,
        pred_level: &FxHashSet<(SymbolId, usize)>,
    ) -> Option<Vec<usize>> {
        let Literal::Pos(atom) = &clause.body[li] else {
            return None;
        };
        let mut out = Vec::new();
        'pos: for (j, term) in atom.terms.iter().enumerate() {
            let Term::Var(y) = term else { continue };
            if atom.terms.iter().filter(|t| t.as_var() == Some(y)).count() != 1 {
                continue;
            }
            for (lj, other) in clause.body.iter().enumerate() {
                if lj != li && other.variables().contains(&y.as_str()) {
                    continue 'pos;
                }
            }
            for h in &clause.head {
                let hp = h.atom.pred.base();
                for (i, ht) in h.atom.terms.iter().enumerate() {
                    if ht.as_var() == Some(y) && !pred_level.contains(&(hp, i)) {
                        continue 'pos;
                    }
                }
            }
            out.push(j);
        }
        Some(out)
    }
}

/// A random "star join" program:
/// `out(X) :- base(X, J1), r1(J1, E1), r2(J2?), …` — each auxiliary relation
/// either joins on a shared variable or dangles with fresh existential
/// variables.
fn star_program(joins: &[bool]) -> (String, Vec<(&'static str, usize)>) {
    const NAMES: [&str; 4] = ["r0", "r1", "r2", "r3"];
    let mut body = vec!["base(X, J)".to_string()];
    let mut schema: Vec<(&str, usize)> = vec![("base", 2)];
    for (k, &joined) in joins.iter().enumerate() {
        let name = NAMES[k];
        if joined {
            body.push(format!("{name}(J, E{k})"));
        } else {
            body.push(format!("{name}(F{k}, E{k})"));
        }
        schema.push((name, 2));
    }
    (format!("out(X) :- {}.", body.join(", ")), schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 4 over the star-join family: original ≡ ID-rewrite on random
    /// databases.
    #[test]
    fn theorem4_star_joins(
        joins in proptest::collection::vec(any::<bool>(), 1..4),
        seed in any::<u64>(),
    ) {
        let (src, schema) = star_program(&joins);
        let interner = Arc::new(Interner::new());
        let ast = idlog_core::parse_program(&src, &interner).unwrap();
        let out = interner.intern("out");
        let rewritten = to_id_program(&ast, out);
        let dbs = random_databases(&interner, &schema, &["a", "b"], 5, seed);
        let rep = q_equivalent_on(&ast, &rewritten, &interner, &dbs, "out", &EnumBudget::default())
            .unwrap();
        prop_assert!(
            rep.equivalent,
            "counterexample db #{:?}\nprogram: {src}\nrewritten: {}",
            rep.counterexample,
            rewritten.display(&interner)
        );
    }

    /// The ∀-rewrite (projection pushing) preserves the query on chain
    /// programs of random depth.
    #[test]
    fn projection_pushing_on_chains(depth in 1usize..4, seed in any::<u64>()) {
        // out(X) :- l0(X, Y0). l0(X, Y) :- l1(X, Y). … l_last(X, Y) :- base(X, Y).
        let mut src = String::from("out(X) :- l0(X, Y).\n");
        for k in 0..depth {
            let next = if k + 1 == depth { "base".to_string() } else { format!("l{}", k + 1) };
            src.push_str(&format!("l{k}(X, Y) :- {next}(X, Y).\n"));
        }
        let interner = Arc::new(Interner::new());
        let ast = idlog_core::parse_program(&src, &interner).unwrap();
        let out = interner.intern("out");
        let projected = push_projections(&ast, out);
        let dbs = random_databases(&interner, &[("base", 2)], &["a", "b", "c"], 5, seed);
        let rep =
            q_equivalent_on(&ast, &projected, &interner, &dbs, "out", &EnumBudget::default())
                .unwrap();
        prop_assert!(rep.equivalent, "src:\n{src}\nprojected:\n{}", projected.display(&interner));
        // The rewrite really dropped the intermediate columns.
        let l0 = interner.intern("l0");
        let projected_validated =
            idlog_core::ValidatedProgram::new(projected, Arc::clone(&interner)).unwrap();
        prop_assert_eq!(projected_validated.arity(l0), Some(1));
    }

    /// Rewrites never turn a valid program invalid.
    #[test]
    fn rewrites_preserve_validity(joins in proptest::collection::vec(any::<bool>(), 1..4)) {
        let (src, _) = star_program(&joins);
        let interner = Arc::new(Interner::new());
        let ast = idlog_core::parse_program(&src, &interner).unwrap();
        let out = interner.intern("out");
        let rewritten = to_id_program(&ast, out);
        idlog_core::ValidatedProgram::new(rewritten, interner).unwrap();
    }
}
