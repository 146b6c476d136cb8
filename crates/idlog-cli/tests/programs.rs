//! The shipped example programs in `programs/` must keep working through
//! the CLI command layer.

use std::path::PathBuf;

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs")
}

fn path(name: &str) -> String {
    programs_dir().join(name).to_string_lossy().into_owned()
}

#[test]
fn shipped_programs_validate() {
    for program in [
        "sampling.idl",
        "all_depts.idl",
        "coloring.idl",
        "parity.idl",
        "dept_sizes.idl",
    ] {
        idlog_cli::commands::check(&path(program)).unwrap_or_else(|e| panic!("{program}: {e}"));
    }
}

#[test]
fn sampling_program_runs() {
    let mut one = idlog_cli::RunOpts::new(path("sampling.idl"), "select_two_emp");
    one.facts = Some(path("company.facts"));
    idlog_cli::commands::run_query(&one, &mut std::io::sink()).unwrap();
    let mut all = idlog_cli::RunOpts::new(path("sampling.idl"), "select_two_emp");
    all.facts = Some(path("company.facts"));
    all.all = true;
    all.max_models = Some(10_000);
    all.threads = Some(2);
    idlog_cli::commands::run_query(&all, &mut std::io::sink()).unwrap();
}

#[test]
fn coloring_program_enumerates() {
    let loaded = idlog_cli::load(
        &path("coloring.idl"),
        Some(&path("cycle.facts")),
        "proper_color",
    )
    .unwrap();
    let answers = loaded.query.session(&loaded.db).all_answers().unwrap();
    // A 4-cycle: two proper 2-colorings plus the empty answer from improper
    // guesses.
    assert_eq!(answers.len(), 3);
    assert_eq!(answers.iter().filter(|rel| !rel.is_empty()).count(), 2);
}

#[test]
fn parity_program_is_deterministic() {
    let loaded = idlog_cli::load(
        &path("parity.idl"),
        Some(&path("people.facts")),
        "even_card",
    )
    .unwrap();
    let answers = loaded.query.session(&loaded.db).all_answers().unwrap();
    assert_eq!(answers.len(), 1, "parity is tid-independent");
    assert!(
        !answers.iter().next().unwrap().is_empty(),
        "4 people = even"
    );
}

#[test]
fn choice_program_translates() {
    idlog_cli::commands::translate_choice(&path("choice_select.idl")).unwrap();
}

/// The shipped programs exercise both sides of the determinism analysis:
/// the choice-free queries are certified (and skip enumeration on `--all`),
/// the genuinely non-deterministic ones are not.
#[test]
fn shipped_programs_certification() {
    for (program, facts, output, certified) in [
        ("all_depts.idl", "company.facts", "all_depts", true),
        ("dept_sizes.idl", "company.facts", "has_two", true),
        ("dept_sizes.idl", "company.facts", "singleton", true),
        ("sampling.idl", "company.facts", "select_two_emp", false),
        ("coloring.idl", "cycle.facts", "proper_color", false),
        // parity is deterministic by design but beyond the conservative
        // analysis (Theorem 3: certification is sound, not complete).
        ("parity.idl", "people.facts", "even_card", false),
    ] {
        let loaded = idlog_cli::load(&path(program), Some(&path(facts)), output).unwrap();
        assert_eq!(
            loaded.query.certified_deterministic(),
            certified,
            "{program} --output {output}"
        );
    }
}

#[test]
fn certified_programs_skip_enumeration() {
    let loaded = idlog_cli::load(
        &path("dept_sizes.idl"),
        Some(&path("company.facts")),
        "singleton",
    )
    .unwrap();
    let answers = loaded.query.session(&loaded.db).all_answers().unwrap();
    assert_eq!(answers.models_explored(), 1, "fast path: no enumeration");
    assert!(answers.complete());
    assert_eq!(answers.len(), 1, "certified: a single answer");
}

#[test]
fn diverge_program_lints_clean_and_trips_limits() {
    // The linter's redundancy pass evaluates candidate programs on test
    // databases; the diverging example must be skipped via the optimizer's
    // probe ceilings — terminating cleanly — not hang the lint sweep.
    idlog_cli::commands::lint(
        &[path("diverge.idl")],
        true,
        false,
        &["W010".into(), "W011".into(), "W020".into()],
    )
    .unwrap();
    // Without the W020 allowance the termination pass flags the growth
    // statically, so the deny-warnings sweep rejects the file.
    let lint_err = idlog_cli::commands::lint(
        &[path("diverge.idl")],
        true,
        false,
        &["W010".into(), "W011".into()],
    )
    .unwrap_err();
    assert!(lint_err.contains("warning"), "{lint_err}");
    // And `idlog run` on it under a round ceiling exits via the limit
    // class (exit code 3), carrying the partial result to stdout.
    let mut opts = idlog_cli::RunOpts::new(path("diverge.idl"), "count");
    opts.max_rounds = Some(50);
    let err = idlog_cli::commands::run_query(&opts, &mut std::io::sink()).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err:?}");
    assert!(err.message().contains("max-rounds"), "{err:?}");
}

/// The seeded oracle's stream is part of the interface: `--seed 7` must keep
/// printing these bytes, recorded from the build before tid-bounded
/// materialization. A bounded ID-relation draws every group's *full*
/// permutation and then drops tids — a cheaper partial shuffle would move
/// every sample here.
#[test]
fn seeded_samples_are_pinned_in_every_configuration() {
    let two_id_literals =
        std::env::temp_dir().join(format!("idlog-seeded-pin-{}.idl", std::process::id()));
    std::fs::write(
        &two_id_literals,
        "mix(N, M) :- emp[2](N, _D, 0), emp[](M, _E, T), T < 3.\n",
    )
    .unwrap();
    let cases = [
        (
            path("sampling.idl"),
            "select_two_emp",
            "select_two_emp(ann)\nselect_two_emp(bob)\nselect_two_emp(eve)\n\
             select_two_emp(fred)\nselect_two_emp(gil)\nselect_two_emp(hana)\n",
        ),
        (
            two_id_literals.to_string_lossy().into_owned(),
            "mix",
            "mix(bob, ann)\nmix(bob, eve)\nmix(bob, gil)\nmix(eve, ann)\nmix(eve, eve)\n\
             mix(eve, gil)\nmix(gil, ann)\nmix(gil, eve)\nmix(gil, gil)\n",
        ),
    ];
    for (program, output, pinned) in &cases {
        for backend in [
            idlog_core::BackendKind::Hash,
            idlog_core::BackendKind::Columnar,
        ] {
            for threads in [1usize, 4] {
                let mut opts = idlog_cli::RunOpts::new(program.clone(), *output);
                opts.facts = Some(path("company.facts"));
                opts.seed = Some(7);
                opts.threads = Some(threads);
                opts.backend = Some(backend);
                let mut printed: Vec<u8> = Vec::new();
                idlog_cli::commands::run_query(&opts, &mut printed).unwrap();
                assert_eq!(
                    String::from_utf8(printed).unwrap(),
                    *pinned,
                    "{output} --seed 7 --threads {threads} --backend {backend}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&two_id_literals);
}

/// What `idlog run` prints for every derived predicate of a shipped
/// program, each under a `% --output <pred>` header, predicates in name
/// order. Diverging programs run under `--max-rounds 50` and print the
/// partial result.
fn corpus_output(
    case: &idlog_suite::Case,
    threads: usize,
    backend: idlog_core::BackendKind,
) -> Option<String> {
    let src = std::fs::read_to_string(path(&case.program)).unwrap();
    let interner = std::sync::Arc::new(idlog_core::Interner::new());
    // DATALOG^C programs are translated, not run.
    let options = idlog_analyze::Options {
        lints: false,
        redundancy: false,
    };
    if idlog_analyze::analyze(&src, &interner, &options).dialect == idlog_analyze::Dialect::Choice {
        return None;
    }
    let program = idlog_core::ValidatedProgram::parse(&src, interner.clone()).unwrap();
    let diverges = idlog_core::analyze_termination(program.ast())
        .growth_witness()
        .is_some();
    let mut outputs: Vec<String> = program.idb().iter().map(|&p| interner.resolve(p)).collect();
    outputs.sort();
    let mut printed: Vec<u8> = Vec::new();
    for output in outputs {
        printed.extend_from_slice(format!("% --output {output}\n").as_bytes());
        let mut opts = idlog_cli::RunOpts::new(path(&case.program), &output);
        opts.facts = case.facts.as_deref().map(path);
        opts.threads = Some(threads);
        opts.backend = Some(backend);
        opts.max_rounds = diverges.then_some(50);
        let result = idlog_cli::commands::run_query(&opts, &mut printed);
        match (diverges, result) {
            (false, Ok(())) => {}
            (true, Err(e)) if e.exit_code() == 3 => {}
            (_, other) => panic!("{} --output {output}: {other:?}", case.program),
        }
    }
    Some(String::from_utf8(printed).unwrap())
}

/// Golden outputs (`programs/golden/<stem>.out`, first written by the
/// pre-view `sorted_canonical` + `println!` path): the result path's bytes
/// depend on neither the thread count nor the storage backend, and changing
/// them is a deliberate act — a mismatch leaves the new bytes in the temp
/// dir for review.
#[test]
fn shipped_programs_print_their_golden_output_in_every_configuration() {
    let mut checked = 0;
    for case in idlog_suite::corpus(&programs_dir()).unwrap() {
        let stem = case.program.trim_end_matches(".idl");
        let golden_path = programs_dir().join("golden").join(format!("{stem}.out"));
        for backend in [
            idlog_core::BackendKind::Hash,
            idlog_core::BackendKind::Columnar,
        ] {
            for threads in [1usize, 2, 4] {
                let Some(printed) = corpus_output(&case, threads, backend) else {
                    assert!(!golden_path.exists(), "{stem}: golden without a run");
                    continue;
                };
                let golden = std::fs::read_to_string(&golden_path)
                    .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
                if printed != golden {
                    let actual = std::env::temp_dir().join(format!("{stem}.out.actual"));
                    std::fs::write(&actual, &printed).unwrap();
                    panic!(
                        "{stem} at --threads {threads} --backend {backend} differs from {}; \
                         the new output is in {}",
                        golden_path.display(),
                        actual.display()
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 7 * 6, "corpus shrank: {checked} comparisons");
}
