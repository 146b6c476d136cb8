//! `idlog-analyze` — span-carrying diagnostics and lints for IDLOG programs.
//!
//! The engine's one validator, [`idlog_core::program::check`], never stops
//! at the first problem: it returns every violation with its site and
//! headline. The engine reports the first and stops, which is right for
//! execution; this crate reports them all, which is right for authoring.
//! It adds only what authoring needs — each violation's code, its span in
//! the source (through the parser's [`idlog_parser::SpanMap`] side-table)
//! and notes at the other sites involved — plus the DATALOG^C conditions
//! ([`idlog_choice::collect_violations`]) and the lints. So a program with
//! three independent mistakes reports all three, each with a rustc-style
//! caret excerpt, and `idlog run` names the first in the same words.
//!
//! ```
//! use std::sync::Arc;
//! use idlog_analyze::{analyze, Options, Severity};
//!
//! let interner = Arc::new(idlog_common::Interner::new());
//! let analysis = analyze("p(X, Y) :- q(X).", &interner, &Options::default());
//! assert_eq!(analysis.error_count(), 1); // E010: Y unbound
//! assert_eq!(analysis.diagnostics[0].code, "E010");
//! assert_eq!(analysis.diagnostics[0].severity, Severity::Error);
//! ```
//!
//! Diagnostic codes are stable and documented in the repository's
//! `LANGUAGE.md` (section *Diagnostics*): `E001`–`E007` and `E009`–`E015`
//! are structural errors, `E020`–`E022` sort conflicts (splitting the
//! retired clause-level `E008`), `W001`–`W005` syntactic warnings,
//! `W010`/`W011` determinism warnings backed by the ID-taint dataflow in
//! [`idlog_core::taint`], `W020`/`W021` termination warnings backed by the
//! argument-flow analysis in [`idlog_core::termination`],
//! the `W031` goal-directed-relevance refusal backed by the
//! binding-pattern adornment analysis in [`idlog_core::relevance`], and
//! `H001`/`H010`/`H020` optimization, bounded-depth, and point-query hints.
//!
//! The predicate-level questions come from the engine's one dependency
//! graph, [`idlog_core::stratify::DepGraph`], which the validator builds
//! once per run and [`analyze`] hands to every pass that asks one: E011's cycle is its
//! witness walk, E013/E014 read its `P/q` cones, W001 is its output cone
//! (a multi-head clause feeds every head), and the program's sinks, where
//! W010 reports, W005 compares and W031/H020 root their queries, are its
//! sinks.
//!
//! The lints that judge a valid program compute no analysis of their
//! own: W010/W011, W020/W021/H010 and H001 read the taint analysis, the
//! termination certificate and the tid bounds that the
//! [`idlog_core::ValidatedProgram`] computed once when it was built, the
//! ones the engine reads too.

#![warn(missing_docs)]

pub mod analyzer;
mod determinism;
pub mod diagnostic;
pub mod lints;
mod relevance;
pub mod render;
mod termination;

pub use analyzer::{analyze, Analysis, Dialect, Options};
pub use diagnostic::{Diagnostic, Note, Severity};
pub use render::{render, render_all, render_json};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use idlog_common::Interner;

    fn run(src: &str) -> Analysis {
        analyze(src, &Arc::new(Interner::new()), &Options::default())
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn three_independent_errors_all_reported() {
        // Clause 1: unbound head variable (E010).
        // Clause 2: sort conflict — u-constant in an i position (E022).
        // Clauses 3-4: stratification cycle through negation (E011).
        let a = run("p(X, Y) :- q(X).
                     r(Z) :- q(Z), plus(Z, one, Z).
                     s(X) :- q(X), not t(X).
                     t(X) :- q(X), not s(X).");
        let cs = codes(&a);
        assert!(cs.contains(&"E010"), "{cs:?}");
        assert!(cs.contains(&"E022"), "{cs:?}");
        assert!(cs.contains(&"E011"), "{cs:?}");
        assert!(a.error_count() >= 3, "{cs:?}");
    }

    #[test]
    fn sort_conflicts_get_specific_codes_and_sites() {
        // Column conflict: q's column is u (constant a) then i (via succ).
        let a = run("q(a). p(X) :- q(X), succ(X, Y).");
        let e020 = a.diagnostics.iter().find(|d| d.code == "E020").unwrap();
        assert!(e020.message.contains("column 1 of `q`"), "{e020:?}");
        assert!(e020.span.is_known());

        // Variable conflict: M is i via succ, u via `= a`.
        let b = run("p(N) :- succ(N, M), q(M), M = a.");
        let cs: Vec<_> = b.diagnostics.iter().map(|d| d.code).collect();
        assert!(cs.contains(&"E021") || cs.contains(&"E020"), "{cs:?}");

        // Ground mismatch.
        let c = run("p(X) :- q(X), a != 3.");
        assert!(
            c.diagnostics.iter().any(|d| d.code == "E022"),
            "{:?}",
            codes(&c)
        );
    }

    #[test]
    fn nondeterministic_output_warns_with_witness() {
        // N escapes the ID-literal into the head: classic sampling query.
        let a = run("pick(N) :- emp[2](N, D, 0).");
        let w010 = a.diagnostics.iter().find(|d| d.code == "W010").unwrap();
        assert!(w010.message.contains("`pick`"), "{w010:?}");
        assert!(
            w010.notes
                .iter()
                .any(|n| n.message.contains("choice is introduced here")),
            "{w010:?}"
        );
        // The tainted head column also gets W011.
        assert!(
            a.diagnostics.iter().any(|d| d.code == "W011"),
            "{:?}",
            codes(&a)
        );
        // Taint is transitive: the witness path names the intermediate.
        let b = run("picked(N) :- emp[2](N, D, 0).
                     out(X) :- picked(X).");
        let w010 = b.diagnostics.iter().find(|d| d.code == "W010").unwrap();
        assert!(w010.message.contains("`out`"), "{w010:?}");
        assert!(
            w010.notes.iter().any(|n| n.message.contains("`picked`")),
            "{w010:?}"
        );
    }

    #[test]
    fn certified_deterministic_output_is_clean() {
        // Pure existential member variable + constant tid: certified.
        let a = run("all_depts(D) :- emp[2](N, D, 0).");
        let cs = codes(&a);
        assert!(!cs.contains(&"W010"), "{cs:?}");
        assert!(!cs.contains(&"W011"), "{cs:?}");
        // Group-size test through a comparison stays certified.
        let b = run("has_two(D) :- emp[2](N, D, T), T = 1.");
        assert!(!codes(&b).contains(&"W010"), "{:?}", codes(&b));
    }

    #[test]
    fn parse_error_is_fatal_and_sole() {
        let a = run("p(X :- q(X).");
        assert_eq!(codes(&a), vec!["E001"]);
        assert!(a.diagnostics[0].span.is_known());
    }

    #[test]
    fn every_diagnostic_carries_a_span() {
        let a = run("p(X, Y) :- q(X).
                     r(X) :- q(X, X).
                     s(X) :- s[](X, 0).");
        assert!(a.error_count() >= 3);
        for d in &a.diagnostics {
            assert!(d.span.is_known(), "{} has no span", d.code);
        }
    }

    #[test]
    fn arity_conflict_points_at_both_occurrences() {
        let a = run("p(X) :- q(X). r(X) :- q(X, X).");
        let e006 = a.diagnostics.iter().find(|d| d.code == "E006").unwrap();
        assert!(e006.message.contains("arity 2 but previously 1"));
        assert_eq!(e006.notes.len(), 1);
        assert!(e006.notes[0].span.unwrap().is_known());
    }

    #[test]
    fn safety_notes_show_mode_table_rows() {
        let a = run("p(X, N) :- q(X, N), plus(N, L, M).");
        let e009 = a.diagnostics.iter().find(|d| d.code == "E009").unwrap();
        let note = &e009.notes[0];
        assert!(note.message.contains("mode table allows only"), "{note:?}");
        assert!(note.message.contains("bnn"), "{note:?}");
    }

    #[test]
    fn stratification_cycle_is_spelled_out() {
        let a = run("p(X) :- q(X), not p(X).");
        let e011 = a.diagnostics.iter().find(|d| d.code == "E011").unwrap();
        assert!(e011.message.contains("cycle p -> p"), "{}", e011.message);
        assert!(!e011.notes.is_empty());
    }

    #[test]
    fn choice_dialect_gets_c1_c2_not_rejection() {
        let a = run("s(N) :- emp(N, D), choice((D), (N)), choice((N), (D)).
                     p(X) :- a(X, Y), choice((X), (Y)).
                     p(X) :- b(X, Y), choice((X), (Y)).");
        assert_eq!(a.dialect, Dialect::Choice);
        let cs = codes(&a);
        assert!(cs.contains(&"E012"), "{cs:?}");
        assert!(cs.contains(&"E013"), "{cs:?}");
    }

    #[test]
    fn clean_choice_program_is_clean() {
        let a = run("select_emp(Name) :- emp(Name, Dept), choice((Dept), (Name)).");
        assert_eq!(a.dialect, Dialect::Choice);
        assert_eq!(a.error_count(), 0, "{:?}", codes(&a));
        assert_eq!(a.warning_count(), 0, "{:?}", codes(&a));
    }

    #[test]
    fn singleton_and_unused_warnings() {
        // `orphan`/`orphan2` feed only each other, so neither is an output
        // (a sink) nor reaches one — both are unused.
        let a = run("out(D) :- emp(N, D, Junk).
                     orphan(X) :- orphan2(X).
                     orphan2(X) :- orphan(X).");
        let cs = codes(&a);
        assert!(cs.iter().filter(|c| **c == "W003").count() >= 2, "{cs:?}");
        assert!(cs.iter().filter(|c| **c == "W001").count() == 2, "{cs:?}");
        assert_eq!(a.error_count(), 0, "{cs:?}");
    }

    #[test]
    fn underscore_prefix_suppresses_and_inverts_w003() {
        // Underscore-prefixed singletons are intentional: no warning.
        let a = run("all_depts(D) :- emp(_Name, D).");
        assert!(!codes(&a).contains(&"W003"), "{:?}", codes(&a));
        // The inverse: an underscore-marked variable used as a join.
        let b = run("out(D) :- emp(_N, D), male(_N).");
        let w003: Vec<_> = b.diagnostics.iter().filter(|d| d.code == "W003").collect();
        assert_eq!(w003.len(), 1, "{:?}", codes(&b));
        assert!(
            w003[0]
                .message
                .contains("marks it as an intentional singleton"),
            "{:?}",
            w003[0]
        );
    }

    #[test]
    fn underivable_only_fires_with_inline_facts() {
        let with_facts = run("emp(ann, sales).
                              out(N) :- emp(N, N), ghost(N).");
        assert!(
            codes(&with_facts).contains(&"W002"),
            "{:?}",
            codes(&with_facts)
        );
        let without = run("out(N) :- emp(N, N), ghost(N).");
        assert!(!codes(&without).contains(&"W002"), "{:?}", codes(&without));
    }

    #[test]
    fn degenerate_grouping_and_tid_hint() {
        let a = run("pick(N) :- emp[1,2](N, D, 1), d(D).");
        let cs = codes(&a);
        assert!(cs.contains(&"W004"), "{cs:?}");
        let w004 = a.diagnostics.iter().find(|d| d.code == "W004").unwrap();
        assert!(w004.notes[0].message.contains("never match"), "{w004:?}");

        let b = run("two(N) :- emp[2](N, D, T), T < 2, d(D).");
        assert!(codes(&b).contains(&"H001"), "{:?}", codes(&b));
        // H001 stays a hint; the nondeterministic sampling shape now also
        // draws the W010/W011 determinism warnings (N escapes to the head).
        assert!(codes(&b).contains(&"W010"), "{:?}", codes(&b));
        let hints: Vec<_> = b
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Hint)
            .collect();
        // H010 (bounded depth) also fires: the program is nonrecursive.
        assert!(
            hints.iter().all(|d| d.code == "H001" || d.code == "H010"),
            "{:?}",
            codes(&b)
        );
        assert!(codes(&b).contains(&"H001"), "{:?}", codes(&b));
    }

    #[test]
    fn example8_redundancy_is_suggested() {
        // q = a ∪ (a ∩ b) = a: the second clause is removable.
        let a = run("q(X) :- a(X). q(X) :- a(X), b(X).");
        let w005: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "W005").collect();
        assert_eq!(w005.len(), 1, "{:?}", codes(&a));
        assert_eq!(w005[0].span.start.line, 1);
        assert!(w005[0].span.start.col > 10, "points at the second clause");
    }

    #[test]
    fn check_options_skip_lints() {
        let opts = Options {
            lints: false,
            redundancy: false,
        };
        let a = analyze(
            "q(X) :- a(X). q(X) :- a(X), b(X), junk(J).",
            &Arc::new(Interner::new()),
            &opts,
        );
        assert!(a.diagnostics.is_empty(), "{:?}", codes(&a));
    }

    #[test]
    fn growing_recursion_draws_w020_with_witness_walk() {
        let a = run("count(0).
                     count(M) :- count(N), succ(N, M).
                     out(N) :- count(N).");
        let w020 = a.diagnostics.iter().find(|d| d.code == "W020").unwrap();
        assert!(w020.message.contains("`count`"), "{w020:?}");
        assert!(w020.message.contains("succ"), "{w020:?}");
        // Witness walk: at least the expanding edge plus the closing note.
        assert!(w020.notes.len() >= 2, "{w020:?}");
        assert!(
            w020.notes.iter().any(|n| n.message.contains("grows")),
            "{w020:?}"
        );
        assert!(
            w020.notes
                .iter()
                .any(|n| n.message.contains("--allow W020")),
            "{w020:?}"
        );
        // A diverging program is not certified bounded.
        assert!(!codes(&a).contains(&"H010"), "{:?}", codes(&a));
    }

    #[test]
    fn growth_capped_by_a_constant_draws_no_w020() {
        let a = run("n(0). n(V) :- n(A), succ(A, V), V < 5.");
        let cs = codes(&a);
        assert!(!cs.contains(&"W020"), "{cs:?}");
        assert!(cs.contains(&"H010"), "{cs:?}");
    }

    #[test]
    fn growth_capped_at_its_inputs_draws_no_w020() {
        let a = run("n(0). n(V) :- n(A), A < 4, succ(A, V).");
        let cs = codes(&a);
        assert!(!cs.contains(&"W020"), "{cs:?}");
        assert!(cs.contains(&"H010"), "{cs:?}");
        let a = run("n(0). n(V) :- n(A), n(B), A < 4, B < 4, plus(A, B, V).");
        assert!(!codes(&a).contains(&"W020"), "{:?}", codes(&a));
        // One `plus` input left uncapped can still grow without end.
        let a = run("n(0). n(V) :- n(A), n(B), A < 4, plus(A, B, V).");
        assert!(codes(&a).contains(&"W020"), "{:?}", codes(&a));
    }

    #[test]
    fn recursive_choice_over_growing_base_draws_w021() {
        let a = run("n(0).
                     n(M) :- n(N), plus(N, 1, M).
                     pick(N) :- n[1](N, T).");
        let cs = codes(&a);
        assert!(cs.contains(&"W020"), "{cs:?}");
        let w021 = a.diagnostics.iter().find(|d| d.code == "W021").unwrap();
        assert!(w021.message.contains("`n`"), "{w021:?}");
        assert!(
            w021.notes
                .iter()
                .any(|n| n.message.contains("never completes")),
            "{w021:?}"
        );
    }

    #[test]
    fn bounded_recursion_earns_h010_certificate() {
        let a = run("tc(X, Y) :- edge(X, Y).
                     tc(X, Z) :- tc(X, Y), edge(Y, Z).");
        let h010 = a.diagnostics.iter().find(|d| d.code == "H010").unwrap();
        assert!(h010.message.contains("statically bounded"), "{h010:?}");
        assert!(h010.message.contains("degree <= 2"), "{h010:?}");
        assert!(
            h010.notes.iter().any(|n| n.message.contains("1 recursive")),
            "{h010:?}"
        );
        assert!(!codes(&a).contains(&"W020"), "{:?}", codes(&a));
    }

    #[test]
    fn termination_lints_respect_error_gate_and_dialect() {
        // Errors suppress the termination pass entirely.
        let a = run("count(M) :- count(N), succ(N, M). p(X :- q(X).");
        assert!(!codes(&a).contains(&"W020"), "{:?}", codes(&a));
        // Choice dialect is outside the certified fragment: no H010.
        let b = run("s(N) :- emp(N, D), choice((D), (N)).");
        assert_eq!(b.dialect, Dialect::Choice);
        assert!(!codes(&b).contains(&"H010"), "{:?}", codes(&b));
    }

    #[test]
    fn point_query_earns_h020_certificate() {
        let a = run("ancestor(X, Y) :- parent(X, Y).
                     ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
                     query(Y) :- ancestor(ann, Y).");
        let h020 = a.diagnostics.iter().find(|d| d.code == "H020").unwrap();
        assert!(h020.message.contains("ancestor^bf"), "{h020:?}");
        assert!(h020.message.contains("`query`"), "{h020:?}");
        assert!(
            h020.notes
                .iter()
                .any(|n| n.message.contains("--strategy magic")),
            "{h020:?}"
        );
    }

    #[test]
    fn negation_before_its_binder_earns_h020() {
        // `not reach(X, Y)` comes before `node(Y)` binds `Y`, but the
        // planner runs `node(Y)` first, and relevance adorns along the
        // planner's order.
        let a = run("reach(X, Y) :- edge(X, Y).
                     reach(X, Z) :- reach(X, Y), edge(Y, Z).
                     unreached(X, Y) :- node(X), not reach(X, Y), node(Y).
                     q(Y) :- unreached(a, Y).");
        let h020 = a.diagnostics.iter().find(|d| d.code == "H020").unwrap();
        assert!(h020.message.contains("`q`"), "{h020:?}");
        assert!(h020.message.contains("unreached^bf"), "{h020:?}");
        assert!(a.program.is_some());
    }

    #[test]
    fn choice_blocked_point_query_draws_w031() {
        let a = run("picked(X, Y) :- pref[2](X, Y, 0).
                     pref(X, Y) :- likes(X, Y).
                     q(Y) :- picked(ann, Y).");
        let w031 = a.diagnostics.iter().find(|d| d.code == "W031").unwrap();
        assert!(w031.message.contains("choice site"), "{w031:?}");
        assert!(
            w031.notes
                .iter()
                .any(|n| n.message.contains("choice point")),
            "{w031:?}"
        );
        assert!(!codes(&a).contains(&"H020"), "{:?}", codes(&a));
    }

    #[test]
    fn all_free_queries_stay_silent_on_relevance() {
        // No bound position anywhere: magic gains nothing, so neither a
        // cert nor a refusal is reported.
        let a = run("tc(X, Y) :- edge(X, Y).
                     out(X, Y) :- tc(X, Y).");
        let cs = codes(&a);
        for code in ["W031", "H020"] {
            assert!(!cs.contains(&code), "{cs:?}");
        }
    }

    #[test]
    fn diagnostics_sorted_by_position() {
        let a = run("p(X, Y) :- q(X).
                     r(Z, W) :- q(Z).");
        let positions: Vec<(u32, u32)> = a
            .diagnostics
            .iter()
            .map(|d| (d.span.start.line, d.span.start.col))
            .collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted);
    }
}
