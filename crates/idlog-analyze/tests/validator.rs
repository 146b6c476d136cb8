//! The engine and `idlog lint` on generated choice-free programs: the
//! engine rejects a program exactly when the analysis reports an error, and
//! says so in one of the analysis' headlines.
//!
//! A program is one to four clauses, each a template over the predicates
//! `p`, `q`, `r` and the inputs `e` (unary), `f` (binary) and `n` (unary,
//! numbers). Some templates are valid on their own and some break one rule;
//! clauses sharing a predicate break further ones together (a column given
//! two sorts, a cycle through negation or an ID-literal).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use idlog_analyze::{analyze, Analysis, Options, Severity};
use idlog_common::Interner;

mod common;

/// The clause templates, with the error code each one reports on its own
/// (`None`: valid alone). `{A}` and `{B}` stand for two program predicates.
const TEMPLATES: &[(&str, Option<&str>)] = &[
    ("{A}(X) :- e(X).", None),
    ("{A}(X) :- {B}(X), e(X).", None),
    ("{A}(X) :- e(X), not {B}(X).", None),
    ("{A}(X) :- {B}[](X, T), T < 2.", None),
    ("{A}(N) :- n(N), succ(N, M), n(M).", None),
    ("{A}(a).", None),
    ("{A}(1).", None),
    ("{A}(X) :- f(X, Y), e(Y).", None),
    ("{A}(X) & {B}(X) :- e(X).", Some("E002")),
    ("not {A}(X) :- e(X).", Some("E003")),
    ("{A}[1](X, T) :- e(X), n(T).", Some("E004")),
    ("succ(X, Y) :- f(X, Y).", Some("E005")),
    ("{A}(X, Y) :- f(X, Y), {A}(X).", Some("E006")),
    ("{B}(a). {A}(X) :- {B}[2](X, _Y, T).", Some("E007")),
    ("{A}(X) :- e(X), n(N), plus(N, L, M).", Some("E009")),
    ("{A}(Y) :- e(X).", Some("E010")),
    ("{A}(X) :- e(X), not {A}(X).", Some("E011")),
    ("{A}(X) :- e(X), !.", Some("E015")),
    ("{A}(a). {A}(X) :- {A}(X), succ(X, _Y).", Some("E020")),
    ("{A}(N) :- succ(N, M), n(M), M = a.", Some("E021")),
    ("{A}(X) :- e(X), a = 1.", Some("E022")),
    ("{A}(Z) :- n(Z), plus(Z, one, Z).", Some("E022")),
];

const PREDICATES: [&str; 3] = ["p", "q", "r"];

/// The program of `clauses`, each `(template, A, B)`.
fn program(clauses: &[(usize, usize, usize)]) -> String {
    clauses
        .iter()
        .map(|&(t, a, b)| {
            TEMPLATES[t]
                .0
                .replace("{A}", PREDICATES[a % 3])
                .replace("{B}", PREDICATES[b % 3])
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn analysis(src: &str) -> Analysis {
    let options = Options {
        lints: false,
        redundancy: false,
    };
    analyze(src, &Arc::new(Interner::new()), &options)
}

fn error_codes(analysis: &Analysis) -> BTreeSet<&'static str> {
    analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

/// The generator reaches every error code a choice-free program can have
/// (E002–E022 but the choice dialect's E012–E014), and valid programs.
#[test]
fn templates_reach_every_choice_free_code() {
    let mut reached = BTreeSet::new();
    for (t, (template, code)) in TEMPLATES.iter().enumerate() {
        // `q` for `{A}` and `p` for `{B}`: two predicates, no cycle.
        let src = program(&[(t, 1, 0)]);
        let codes = error_codes(&analysis(&src));
        match code {
            None => assert!(codes.is_empty(), "{template}: {codes:?}"),
            Some(code) => assert!(codes.contains(code), "{template}: {codes:?}"),
        }
        common::engine_agrees(&src, &analysis(&src)).unwrap();
        reached.extend(codes);
    }
    let want = [
        "E002", "E003", "E004", "E005", "E006", "E007", "E009", "E010", "E011", "E015", "E020",
        "E021", "E022",
    ];
    assert_eq!(reached, want.into_iter().collect());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On any generated program the engine and the analysis give one
    /// verdict, in one text.
    #[test]
    fn engine_and_lint_agree_on_random_programs(
        clauses in proptest::collection::vec((0usize..40, 0usize..3, 0usize..3), 1..5),
    ) {
        // Indices past the templates fall back on the valid ones, so about
        // a third of the programs are valid.
        let clauses: Vec<_> = clauses
            .into_iter()
            .map(|(t, a, b)| (if t < TEMPLATES.len() { t } else { t % 8 }, a, b))
            .collect();
        let src = program(&clauses);
        let verdict = common::engine_agrees(&src, &analysis(&src));
        prop_assert!(verdict.is_ok(), "{}\n{}", src, verdict.unwrap_err());
    }
}
