//! DATALOG^C and its translation into IDLOG (Theorem 2): print the
//! four-stratum translation of a choice program and verify q-equivalence by
//! exhaustive enumeration.
//!
//! Run with: `cargo run -p idlog-suite --example choice_vs_idlog`

use std::sync::Arc;

use idlog_core::{EnumBudget, Interner, Query, ValidatedProgram};
use idlog_storage::Database;
use idlog_suite::eval::{intended_models, Budget};
use idlog_suite::reference::{answer_set, Relations, V};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let interner = Arc::new(Interner::new());

    // The paper's §3.2.2 translation example: guessing everyone's sex with
    // one choice per person.
    let src = "\
sex_guess(X, male) :- person(X).
sex_guess(X, female) :- person(X).
sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)).
man(X) :- sex(X, male).
woman(X) :- sex(X, female).";
    println!("DATALOG^C program:\n{}\n", indent(src));

    let ast = idlog_core::parse_program(src, &interner)?;
    idlog_choice::check_conditions(&ast, &interner)?;
    println!("conditions C1 and C2: satisfied ✓\n");

    let translated_src = idlog_choice::to_idlog_source(&ast, &interner)?;
    println!(
        "Theorem 2 translation into stratified IDLOG:\n{}",
        indent(&translated_src)
    );

    let mut db = Database::with_interner(Arc::clone(&interner));
    let mut edb = Relations::new();
    for p in ["ann", "bob", "cay"] {
        db.insert_syms("person", &[p])?;
        let person = edb.entry("person".to_string()).or_default();
        person.insert(vec![V::Sym(p.to_string())]);
    }

    // The direct semantics runs on the reference interpreter's matcher.
    let direct = intended_models(src, &edb, "man", &Budget::default())?;
    let translated_ast = idlog_choice::to_idlog::to_idlog(&ast, &interner)?;
    let validated = ValidatedProgram::new(translated_ast, Arc::clone(&interner))?;
    let q = Query::new(validated, "man")?;
    let via_idlog = q.session(&db).budget(EnumBudget::default()).all_answers()?;

    println!("answers for `man` on person = {{ann, bob, cay}}:");
    println!(
        "  direct KN88 semantics:   {} answers",
        direct.answers.len()
    );
    println!("  translated IDLOG:        {} answers", via_idlog.len());
    assert_eq!(
        direct.answers,
        answer_set(via_idlog.iter().map(|r| r.iter()), &interner)
    );
    println!("  ✓ identical answer sets (all 2³ = 8 subsets):");
    for answer in via_idlog.to_sorted_strings(&interner) {
        println!("    {{{}}}", answer.join(", "));
    }
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}
