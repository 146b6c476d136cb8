//! The PR 3 `#[deprecated]` entry-point shims are gone; `Query::parse` →
//! [`idlog_core::Session`] with [`idlog_core::EvalOptions`] is the one
//! blessed path. This test keeps them gone:
//!
//! 1. an **absence scan** over `idlog-core/src` asserts no `#[deprecated]`
//!    attribute and no removed-shim name reappears in the public surface;
//! 2. a **blessed-path exercise** shows the supported API covers everything
//!    the shims used to do (one answer, stats, explicit options, seeded
//!    oracle, all answers).

use idlog_core::{EnumBudget, EvalOptions, Query, SeededOracle, Strategy};

/// Declarations of the deleted shims. Any of these reappearing as `pub` in
/// idlog-core source is a regression — the blessed API must not regrow them.
const REMOVED: &[&str] = &[
    "fn eval(",
    "fn eval_with_stats(",
    "fn eval_configured(",
    "fn all_answers_parallel(",
    "fn all_answers_configured(",
    "struct EvalConfig",
    "fn evaluate(",
    "fn evaluate_with_strategy(",
    "fn evaluate_with_config(",
    "fn enumerate_answers(",
    "fn enumerate_answers_parallel(",
    "fn enumerate_answers_with(",
    // The free evaluation functions beside `Session`: `evaluate_governed`
    // stays as the whole-model evaluation, and the enumeration walk is
    // crate-private behind `Session::all_answers`.
    "fn evaluate_with_options(",
    "fn enumerate_with_options(",
    "fn enumerate_governed(",
];

fn core_src_files() -> Vec<std::path::PathBuf> {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable src dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(!files.is_empty(), "found no source files under src/");
    files
}

#[test]
fn no_deprecated_items_remain_in_core() {
    for path in core_src_files() {
        let text = std::fs::read_to_string(&path).expect("readable source file");
        assert!(
            !text.contains("#[deprecated"),
            "{} still carries a #[deprecated] attribute",
            path.display()
        );
        for name in REMOVED {
            for (lineno, line) in text.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                assert!(
                    !(line.contains(name) && line.contains("pub ")),
                    "{}:{}: removed shim `{name}` reappeared: {line}",
                    path.display(),
                    lineno + 1
                );
            }
        }
    }
}

#[test]
fn blessed_path_covers_the_old_shims() {
    let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
    let mut db = q.new_database();
    db.insert_syms("emp", &["a", "x"]).unwrap();
    db.insert_syms("emp", &["b", "x"]).unwrap();

    // `Query::eval` → session().run().
    let one = q.session(&db).run().unwrap();
    assert_eq!(one.relation.len(), 1);

    // `eval_with_stats` → the result carries stats.
    assert!(one.stats.inserted > 0);

    // `eval_configured` / `evaluate_with_config` → options()/threads().
    let configured = q
        .session(&db)
        .options(EvalOptions::new().strategy(Strategy::SemiNaive))
        .threads(2)
        .run()
        .unwrap();
    assert_eq!(configured.relation, one.relation);
    assert_eq!(configured.stats, one.stats);

    // `eval` with an explicit oracle → run_with().
    let mut oracle = SeededOracle::new(7);
    let seeded = q.session(&db).run_with(&mut oracle).unwrap();
    assert_eq!(seeded.relation.len(), 1);

    // `all_answers` / `all_answers_parallel` / `all_answers_configured`
    // → budget()/threads() on the same session builder.
    let all = q
        .session(&db)
        .budget(EnumBudget::default())
        .all_answers()
        .unwrap();
    assert_eq!(all.len(), 2);
    let all_parallel = q
        .session(&db)
        .budget(EnumBudget::default())
        .threads(4)
        .all_answers()
        .unwrap();
    assert!(all.same_answers(&all_parallel, q.interner()));
}
