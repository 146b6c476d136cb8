//! Sampling queries (paper §3.3): why multi-sample queries are easy in
//! IDLOG and awkward with the choice operator.
//!
//! Run with: `cargo run -p idlog-suite --example sampling`

use std::sync::Arc;

use idlog_core::{EnumBudget, Interner, Query};
use idlog_storage::Database;
use idlog_suite::eval::{intended_models, Budget};
use idlog_suite::reference::{answer_set, Relations, V};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let interner = Arc::new(Interner::new());
    let mut db = Database::with_interner(Arc::clone(&interner));
    // The same facts for the DATALOG^C semantics, which runs on the
    // reference interpreter's matcher.
    let mut edb = Relations::new();
    for (name, dept) in [
        ("ann", "sales"),
        ("bob", "sales"),
        ("cay", "sales"),
        ("dan", "dev"),
        ("eve", "dev"),
    ] {
        db.insert_syms("emp", &[name, dept])?;
        let row = vec![V::Sym(name.to_string()), V::Sym(dept.to_string())];
        edb.entry("emp".to_string()).or_default().insert(row);
    }
    let budget = EnumBudget::default();

    // --- One sample per department: both languages handle this well. -----
    let choice_src = "select_emp(N) :- emp(N, D), choice((D), (N)).";
    let choice_answers = intended_models(choice_src, &edb, "select_emp", &Budget::default())?;

    let idlog_one = Query::parse_with_interner(
        "select_emp(N) :- emp[2](N, D, 0).",
        "select_emp",
        Arc::clone(&interner),
    )?;
    let idlog_answers = idlog_one.session(&db).budget(budget).all_answers()?;

    println!("one-per-department (Example 4):");
    println!("  DATALOG^C answers: {}", choice_answers.answers.len());
    println!("  IDLOG answers:     {}", idlog_answers.len());
    assert_eq!(
        choice_answers.answers,
        answer_set(idlog_answers.iter().map(|r| r.iter()), &interner)
    );
    println!("  ✓ the two semantics agree (Theorem 2 instance)\n");

    // --- Two samples per department (Example 5). -------------------------
    // The naive DATALOG^C attempt: choose twice, then require the choices
    // to differ. Its flaw: the two choices are independent, so they can
    // agree, and then a department contributes nothing.
    let naive = "emp1(N, D) :- emp(N, D), choice((D), (N)).
                 emp2(N, D) :- emp(N, D), choice((D), (N)).
                 select_two_emp(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.";
    let naive_answers = intended_models(naive, &edb, "select_two_emp", &Budget::default())?;
    let deficient = naive_answers
        .answers
        .iter()
        .filter(|rel| rel.len() < 4)
        .count();
    println!("two-per-department (Example 5):");
    println!(
        "  naive DATALOG^C: {} answers, {} of them deficient (a department \
         contributes < 2 samples)",
        naive_answers.answers.len(),
        deficient
    );

    // The IDLOG program: a single literal with `T < 2`.
    let idlog_two = Query::parse_with_interner(
        "select_two_emp(N) :- emp[2](N, D, T), T < 2.",
        "select_two_emp",
        Arc::clone(&interner),
    )?;
    let two_answers = idlog_two.session(&db).budget(budget).all_answers()?;
    println!(
        "  IDLOG `T < 2`:   {} answers, every one with exactly 4 samples",
        two_answers.len()
    );
    for rel in two_answers.iter() {
        assert_eq!(rel.len(), 4);
    }

    println!("\nall IDLOG two-sample answers:");
    for answer in two_answers.to_sorted_strings(&interner) {
        println!("  {{{}}}", answer.join(", "));
    }
    Ok(())
}
