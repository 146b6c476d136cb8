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

/// The round ceiling the corpus's diverging programs (`diverge.idl`) run
/// under.
const DIVERGING_ROUNDS: u64 = 50;

/// A shipped program parsed for evaluation, with its termination
/// certificate; `None` for DATALOG^C programs, which are translated, not
/// run.
fn corpus_program(
    case: &idlog_suite::Case,
) -> Option<(idlog_core::ValidatedProgram, idlog_core::TerminationCert)> {
    let src = std::fs::read_to_string(path(&case.program)).unwrap();
    let interner = std::sync::Arc::new(idlog_core::Interner::new());
    let options = idlog_analyze::Options {
        lints: false,
        redundancy: false,
    };
    if idlog_analyze::analyze(&src, &interner, &options).dialect == idlog_analyze::Dialect::Choice {
        return None;
    }
    let program = idlog_core::ValidatedProgram::parse(&src, interner).unwrap();
    let cert = idlog_core::analyze_termination(program.ast());
    Some((program, cert))
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
    let (program, cert) = corpus_program(case)?;
    let diverges = cert.growth_witness().is_some();
    let mut outputs: Vec<String> = program
        .idb()
        .iter()
        .map(|&p| program.interner().resolve(p))
        .collect();
    outputs.sort();
    let mut printed: Vec<u8> = Vec::new();
    for output in outputs {
        printed.extend_from_slice(format!("% --output {output}\n").as_bytes());
        let mut opts = idlog_cli::RunOpts::new(path(&case.program), &output);
        opts.facts = case.facts.as_deref().map(path);
        opts.threads = Some(threads);
        opts.backend = Some(backend);
        opts.max_rounds = diverges.then_some(DIVERGING_ROUNDS);
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

/// `(iterations, inserted)` of each shipped program's canonical evaluation
/// of all its rules. Diverging programs have no entry: they trip.
const CORPUS_COUNTERS: [(&str, u64, u64); 7] = [
    ("all_depts.idl", 3, 3),
    ("ancestor.idl", 21, 589),
    ("coloring.idl", 7, 17),
    ("existential.idl", 2, 5),
    ("dept_sizes.idl", 4, 3),
    ("parity.idl", 12, 15),
    ("sampling.idl", 3, 6),
];

/// The engine's counters are functions of the database contents, never of
/// the thread count, the storage backend or the strategy: every shipped
/// program derives the same `(iterations, inserted)` in every
/// configuration, within its certified round bound, and the diverging one
/// trips its round ceiling in every configuration.
#[test]
fn corpus_counters_agree_across_threads_backends_and_strategies() {
    use idlog_core::{BackendKind, CoreError, EvalOptions, LimitKind, Strategy};

    let mut checked = 0;
    for case in idlog_suite::corpus(&programs_dir()).unwrap() {
        let Some((program, cert)) = corpus_program(&case) else {
            continue;
        };
        let mut db = idlog_core::Database::with_interner(program.interner().clone());
        if let Some(facts) = &case.facts {
            idlog_core::load_facts(&std::fs::read_to_string(path(facts)).unwrap(), &mut db)
                .unwrap();
        }
        let diverges = cert.growth_witness().is_some();
        let bound = cert.round_bound(&db);
        let pinned = CORPUS_COUNTERS
            .iter()
            .find(|(p, ..)| *p == case.program)
            .map(|&(_, iterations, inserted)| (iterations, inserted));
        assert_eq!(
            pinned.is_none(),
            diverges,
            "{}: pin its counters in CORPUS_COUNTERS",
            case.program
        );
        for backend in [BackendKind::Hash, BackendKind::Columnar] {
            for strategy in [Strategy::SemiNaive, Strategy::Naive] {
                for threads in [1usize, 2, 4] {
                    let mut options = EvalOptions::new()
                        .backend(backend)
                        .strategy(strategy)
                        .threads(threads);
                    if diverges {
                        options = options.max_rounds(DIVERGING_ROUNDS);
                    }
                    let config = format!(
                        "{} --threads {threads} --backend {backend} --strategy {strategy}",
                        case.program
                    );
                    let outcome = idlog_core::evaluate_with_options(
                        &program,
                        &db,
                        &mut idlog_core::CanonicalOracle,
                        &options,
                    );
                    match (pinned, outcome) {
                        (Some(want), Ok(out)) => {
                            let stats = out.stats();
                            assert_eq!((stats.iterations, stats.inserted), want, "{config}");
                            if let Some(bound) = bound {
                                assert!(stats.iterations <= bound, "{config}: bound {bound}");
                            }
                        }
                        (
                            None,
                            Err(CoreError::LimitExceeded {
                                limit: LimitKind::Rounds,
                            }),
                        ) => {}
                        (_, other) => panic!("{config}: {other:?}"),
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 7 * 12, "corpus shrank: {checked} runs");
}
