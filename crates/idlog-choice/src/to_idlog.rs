//! The constructive side of **Theorem 2**: every DATALOG^C program
//! satisfying C1 and C2 has a q-equivalent stratified (four-stratum) IDLOG
//! program.
//!
//! Construction, per choice site `h :- body, choice((X̄), (Ȳ))`:
//!
//! ```text
//! ext_choice_i(X̄, Ȳ) :- body.                       % candidate pool
//! chosen_i(X̄, Ȳ)     :- ext_choice_i[X̄](X̄, Ȳ, 0).   % one Ȳ per X̄-group
//! h                  :- body, chosen_i(X̄, Ȳ).        % original clause
//! ```
//!
//! Reading the ID-relation of the pool grouped by `X̄` at tid 0 is precisely
//! "a functional subset of the pool w.r.t. X̄ → Ȳ": every group contributes
//! exactly one tuple, and every functional subset arises under some
//! ID-function. The resulting strata are: inputs (0), pools (1), chosen via
//! ID-literal (2), outputs (3) — the paper's four strata.

use std::sync::Arc;

use idlog_common::{Interner, Nat};
use idlog_parser::{Atom, Clause, Literal, PredicateRef, Program, Term};

use crate::checks::check_conditions;
use crate::error::ChoiceResult;
use crate::translate::translate;

/// Translate a DATALOG^C program into a q-equivalent IDLOG program (AST).
pub fn to_idlog(program: &Program, interner: &Arc<Interner>) -> ChoiceResult<Program> {
    check_conditions(program, interner)?;
    let translated = translate(program, interner)?;
    let mut clauses = translated.program.clauses.clone();

    for (k, site) in translated.sites.iter().enumerate() {
        let chosen_name = format!("chosen_{k}");
        let chosen_pred = interner.intern(&chosen_name);

        // Fresh variable names that cannot clash with source variables
        // (source variables never contain `#`... the lexer forbids it, so
        // use generated uppercase names with a reserved suffix instead).
        let vars: Vec<Term> = (0..site.grouped + site.chosen)
            .map(|i| Term::Var(format!("Vc{k}_{i}")))
            .collect();

        // chosen_k(V…) :- ext_choice_k[grouping](V…, 0).
        let mut id_terms = vars.clone();
        id_terms.push(Term::Int(Nat::ZERO));
        let grouping: Vec<usize> = (0..site.grouped).collect();
        let id_atom = Atom::id_version(site.pred, grouping, id_terms);
        let chosen_clause = Clause::new(
            Atom::ordinary(chosen_pred, vars.clone()),
            vec![Literal::Pos(id_atom)],
        );

        // In the use clause, retarget the ext_choice literal to chosen_k
        // (same argument terms as the original occurrence).
        let use_clause = &mut clauses[site.use_clause];
        for lit in &mut use_clause.body {
            if let Literal::Pos(atom) = lit {
                if atom.pred == PredicateRef::Ordinary(site.pred) {
                    atom.pred = PredicateRef::Ordinary(chosen_pred);
                }
            }
        }

        clauses.push(chosen_clause);
    }

    Ok(Program { clauses })
}

/// Like [`to_idlog`], returning the printed IDLOG source (useful for docs
/// and for feeding other tools).
pub fn to_idlog_source(program: &Program, interner: &Arc<Interner>) -> ChoiceResult<String> {
    let p = to_idlog(program, interner)?;
    Ok(p.display(interner).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_core::{EnumBudget, Query, ValidatedProgram};
    use idlog_parser::parse_program;
    use idlog_storage::Database;
    use idlog_suite::eval::{intended_models, Budget};
    use idlog_suite::reference::{answer_set, symbol_facts};

    fn setup(src: &str, facts: &[(&str, &[&str])]) -> (Program, Arc<Interner>, Database) {
        let interner = Arc::new(Interner::new());
        let program = parse_program(src, &interner).unwrap();
        let mut db = Database::with_interner(Arc::clone(&interner));
        for (pred, cols) in facts {
            db.insert_syms(pred, cols).unwrap();
        }
        (program, interner, db)
    }

    /// The heart of Theorem 2: same answer sets under both semantics, the
    /// direct one on the reference interpreter's matcher.
    fn assert_q_equivalent(src: &str, facts: &[(&str, &[&str])], output: &str) {
        let (program, interner, db) = setup(src, facts);
        let direct =
            intended_models(src, &symbol_facts(facts), output, &Budget::default()).unwrap();
        assert!(direct.complete);

        let idlog_ast = to_idlog(&program, &interner).unwrap();
        let validated = ValidatedProgram::new(idlog_ast, Arc::clone(&interner)).unwrap();
        let q = Query::new(validated, output).unwrap();
        let budget = EnumBudget::default();
        let translated = q.session(&db).budget(budget).all_answers().unwrap();
        assert!(translated.complete());
        let translated = answer_set(translated.iter().map(|r| r.iter()), &interner);

        assert_eq!(direct.answers, translated, "answer sets differ");
    }

    #[test]
    fn theorem2_select_emp() {
        assert_q_equivalent(
            "select_emp(N) :- emp(N, D), choice((D), (N)).",
            &[
                ("emp", &["ann", "sales"]),
                ("emp", &["bob", "sales"]),
                ("emp", &["cay", "dev"]),
                ("emp", &["dan", "dev"]),
            ],
            "select_emp",
        );
    }

    #[test]
    fn theorem2_sex_guess() {
        assert_q_equivalent(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)).
             man(X) :- sex(X, male).",
            &[("person", &["a"]), ("person", &["b"])],
            "man",
        );
    }

    #[test]
    fn theorem2_two_independent_choices() {
        assert_q_equivalent(
            "left(N) :- emp(N, D), choice((D), (N)).
             right(P) :- proj(P, T), choice((T), (P)).
             pair(N, P) :- left(N), right(P).",
            &[
                ("emp", &["a", "x"]),
                ("emp", &["b", "x"]),
                ("proj", &["p1", "t"]),
                ("proj", &["p2", "t"]),
            ],
            "pair",
        );
    }

    #[test]
    fn theorem2_global_choice() {
        assert_q_equivalent(
            "s(N) :- item(N, K), choice((), (N)).",
            &[
                ("item", &["a", "k1"]),
                ("item", &["b", "k2"]),
                ("item", &["c", "k1"]),
            ],
            "s",
        );
    }

    #[test]
    fn theorem2_choice_over_recursion() {
        // Choice applied to a recursively-defined relation (tc), which is
        // legal: the recursion does not pass through the choice clause.
        assert_q_equivalent(
            "tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).
             next(X, Y) :- tc(X, Y), choice((X), (Y)).",
            &[("e", &["a", "b"]), ("e", &["b", "c"])],
            "next",
        );
    }

    #[test]
    fn translated_source_is_stratified_idlog() {
        let (program, interner, _) = setup("select_emp(N) :- emp(N, D), choice((D), (N)).", &[]);
        let src = to_idlog_source(&program, &interner).unwrap();
        assert!(src.contains("ext_choice_0"), "{src}");
        assert!(src.contains("chosen_0"), "{src}");
        assert!(src.contains("[1]"), "grouping preserved: {src}");
        // And it validates as IDLOG.
        ValidatedProgram::parse(&src, interner).unwrap();
    }

    #[test]
    fn condition_violation_blocks_translation() {
        let (program, interner, _) = setup("p(X) :- p(Y), e(Y, X), choice((Y), (X)).", &[]);
        assert!(to_idlog(&program, &interner).is_err());
    }
}
