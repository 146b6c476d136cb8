//! Subcommand implementations.

use std::io::{self, Write};
use std::sync::Arc;

use idlog_analyze::{analyze, render_all, render_json, Options};
use idlog_core::tid::TidOracle;
use idlog_core::{
    EvalError, EvalOptions, EvalOutput, Interner, LimitKind, StopReason, ValidatedProgram,
};
use idlog_storage::Database;

use crate::args::{EvalFlags, RunOpts};
use crate::{load, output_result, signal, CliError};

/// `idlog check`: validate and report predicates, sorts, and strata.
///
/// Validation runs once, through the `idlog-analyze` collect-all driver: a
/// broken program reports *every* error (with source excerpts) instead of
/// just the first one the engine happens to hit, and a valid one is
/// reported from the validated program the driver returns.
pub fn check(program_path: &str) -> Result<(), String> {
    let interner = Arc::new(Interner::new());
    let src = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let analysis = analyze(
        &src,
        &interner,
        &Options {
            lints: false,
            redundancy: false,
        },
    );
    if analysis.error_count() > 0 {
        eprint!("{}", render_all(&analysis.diagnostics, &src, program_path));
        return Err(format!(
            "{program_path}: {} error(s)",
            analysis.error_count()
        ));
    }
    // An error-free program the analysis did not validate is DATALOG^C.
    let Some(program) = analysis.program else {
        println!("{program_path}: valid DATALOG^C program (C1/C2 hold)");
        println!("  translate it with: idlog translate-choice {program_path}");
        return Ok(());
    };
    let strat = program.stratification();

    println!("{program_path}: valid IDLOG program");
    println!("  clauses: {}", program.ast().clauses.len());
    println!("  strata:  {}", strat.count());

    let mut idb: Vec<String> = program.idb().iter().map(|&p| interner.resolve(p)).collect();
    idb.sort();
    let mut inputs: Vec<String> = program
        .inputs()
        .iter()
        .map(|&p| interner.resolve(p))
        .collect();
    inputs.sort();
    println!("  inputs:  {}", inputs.join(", "));
    println!("  derived:");
    for name in idb {
        let Some(id) = interner.get(&name) else {
            continue;
        };
        let Some(rtype) = program.sorts().rel_type(id) else {
            continue;
        };
        println!(
            "    {name}/{arity} type {rtype} stratum {stratum}",
            arity = rtype.arity(),
            stratum = strat.stratum(id)
        );
    }
    println!("  determinism:");
    let taint = program.taint();
    let mut derived: Vec<String> = program.idb().iter().map(|&p| interner.resolve(p)).collect();
    derived.sort();
    for name in &derived {
        let Some(id) = interner.get(name) else {
            continue;
        };
        if taint.deterministic(id) {
            println!("    {name}: certified deterministic");
        } else {
            println!("    {name}: possibly non-deterministic (depends on the ID-function)");
        }
    }
    println!("  termination:");
    let cert = program.termination();
    if cert.bounded() {
        println!(
            "    certified bounded: derivation depth polynomial (degree <= {}) in EDB size",
            cert.degree()
        );
    } else {
        println!("    possibly diverging: value growth through arithmetic (see idlog lint, W020)");
    }
    for name in &derived {
        let Some(id) = interner.get(name) else {
            continue;
        };
        let kind = cert.recursion_kind(id);
        if kind != idlog_core::RecursionKind::Nonrecursive {
            println!(
                "    {name}: {} recursion{}",
                kind.as_str(),
                if cert.pred_bounded(id) {
                    ""
                } else {
                    ", possibly unbounded"
                }
            );
        }
    }
    println!("  plan:");
    let plan = idlog_core::explain(&program).map_err(|e| e.to_string())?;
    for line in plan.lines() {
        println!("    {line}");
    }
    Ok(())
}

/// `idlog lint`: the full diagnostics suite (errors, warnings, hints) over
/// one or more programs. Fails on errors, and on warnings too when
/// `deny_warnings` is set. `allow` suppresses codes (case-insensitive);
/// `json` switches stdout to one machine-readable JSON array covering all
/// files (the human summary moves to stderr).
pub fn lint(
    program_paths: &[String],
    deny_warnings: bool,
    json: bool,
    allow: &[String],
) -> Result<(), String> {
    let allowed: Vec<String> = allow.iter().map(|c| c.to_ascii_uppercase()).collect();
    let mut errors = 0;
    let mut warnings = 0;
    let mut hints = 0;
    // In JSON mode, per-file arrays are merged into one top-level array.
    let mut json_items: Vec<String> = Vec::new();
    for path in program_paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let interner = Arc::new(Interner::new());
        let mut analysis = analyze(&src, &interner, &Options::default());
        analysis
            .diagnostics
            .retain(|d| !allowed.iter().any(|a| a == d.code));
        if json {
            let rendered = render_json(&analysis.diagnostics, path);
            let inner = &rendered[1..rendered.len() - 1];
            if !inner.is_empty() {
                json_items.push(inner.to_string());
            }
        } else if !analysis.diagnostics.is_empty() {
            print!("{}", render_all(&analysis.diagnostics, &src, path));
        }
        errors += analysis.error_count();
        warnings += analysis.warning_count();
        hints += analysis.hint_count();
    }
    let summary = format!(
        "checked {} file(s): {errors} error(s), {warnings} warning(s), {hints} hint(s)",
        program_paths.len()
    );
    if json {
        println!("[{}]", json_items.join(","));
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if errors > 0 {
        Err(format!("lint failed with {errors} error(s)"))
    } else if deny_warnings && warnings > 0 {
        Err(format!(
            "lint failed with {warnings} warning(s) (--deny-warnings)"
        ))
    } else {
        Ok(())
    }
}

/// `idlog translate-choice`: print the Theorem 2 translation.
pub fn translate_choice(program_path: &str) -> Result<(), String> {
    let interner = Arc::new(Interner::new());
    let src = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let ast =
        idlog_core::parse_program(&src, &interner).map_err(|e| format!("{program_path}: {e}"))?;
    let translated = idlog_choice::to_idlog_source(&ast, &interner)
        .map_err(|e| format!("{program_path}: {e}"))?;
    print!("{translated}");
    Ok(())
}

/// `idlog optimize`: print the paper's §4 ID-rewrite; with
/// `--suggest-prune`, also run the bounded redundant-clause analysis
/// (Example 8's footnote) on randomized test databases.
pub fn optimize(program_path: &str, output: &str, suggest_prune: bool) -> Result<(), String> {
    let interner = Arc::new(Interner::new());
    let src = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let ast =
        idlog_core::parse_program(&src, &interner).map_err(|e| format!("{program_path}: {e}"))?;
    let out = interner
        .get(output)
        .ok_or_else(|| format!("output predicate {output} does not occur in the program"))?;
    let rewritten = idlog_optimizer::to_id_program(&ast, out);
    print!("{}", rewritten.display(&interner));

    if suggest_prune {
        // Randomized schema-matching databases over the rewritten program's
        // elementary input predicates.
        let validated = idlog_core::ValidatedProgram::new(rewritten.clone(), Arc::clone(&interner))
            .map_err(|e| e.to_string())?;
        let mut schema: Vec<(String, usize)> = Vec::new();
        for &pred in validated.inputs() {
            let (Some(arity), Some(rtype)) =
                (validated.arity(pred), validated.sorts().rel_type(pred))
            else {
                continue;
            };
            if rtype.is_elementary() {
                schema.push((interner.resolve(pred), arity));
            }
        }
        let schema_refs: Vec<(&str, usize)> =
            schema.iter().map(|(n, a)| (n.as_str(), *a)).collect();
        let dbs = idlog_optimizer::random_databases(
            &interner,
            &schema_refs,
            &["d1", "d2", "d3"],
            8,
            0xD1CE,
        );
        let rep = idlog_optimizer::suggest_redundant_clauses(
            &rewritten,
            &interner,
            &dbs,
            output,
            &idlog_core::EnumBudget::default(),
        )
        .map_err(|e| e.to_string())?;
        if rep.removable.is_empty() {
            eprintln!(
                "% no clause looks redundant on {} test databases",
                rep.databases_checked
            );
        } else {
            for ci in rep.removable {
                eprintln!(
                    "% clause #{ci} `{}` looks redundant on {} test databases (bounded check)",
                    rewritten.clauses[ci].display(&interner),
                    rep.databases_checked
                );
            }
        }
    }
    Ok(())
}

/// `idlog explain`: print the evaluation plan for the *whole* program;
/// with `--analyze`, evaluate it first (profiling on) and annotate every
/// clause with measured counters.
///
/// `--timeout`/`--max-rounds`/`--max-tuples` bound the evaluation as they
/// do `idlog run`'s, and Ctrl-C stops it: either way the plan is annotated
/// with the counters up to the last completed round, the footers print,
/// and the result is [`CliError::limit`] (exit 3) or
/// [`CliError::cancelled`] (exit 130).
pub fn explain(
    program_path: &str,
    facts_path: Option<&str>,
    analyze: bool,
    eval: &EvalFlags,
) -> Result<(), CliError> {
    let interner = Arc::new(Interner::new());
    let src = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let program = ValidatedProgram::parse(&src, Arc::clone(&interner))
        .map_err(|e| format!("{program_path}: {e}"))?;

    if !analyze {
        let text = idlog_core::explain(&program).map_err(|e| e.to_string())?;
        print!("{text}");
        return Ok(());
    }

    let mut db = Database::with_interner(Arc::clone(&interner));
    if let Some(path) = facts_path {
        let facts_src =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        idlog_core::load_facts(&facts_src, &mut db).map_err(|e| format!("{path}: {e}"))?;
    }
    let (options, mut oracle) = analyze_options(&program, &db, eval);
    let outcome = idlog_core::evaluate_governed(
        &program,
        &db,
        oracle.as_mut(),
        &options,
        Some(&signal::token()),
    );
    let (out, stop) = match outcome {
        Ok(out) => (out, None),
        Err(e) => {
            let (partial, stop) = partial_and_stop(e)?;
            (partial, Some(stop))
        }
    };
    let profile = out.profile().ok_or_else(|| {
        CliError::failure("internal error: profiling was enabled but produced no profile")
    })?;
    let text = idlog_core::explain_analyze(&program, profile).map_err(|e| e.to_string())?;
    print!("{text}");

    // Determinism footer: which derived predicates are certified independent
    // of the chosen ID-function (the engine's enumeration fast path).
    let taint = program.taint();
    let mut derived: Vec<String> = program.idb().iter().map(|&p| interner.resolve(p)).collect();
    derived.sort();
    let certified: Vec<&String> = derived
        .iter()
        .filter(|n| interner.get(n).is_some_and(|id| taint.deterministic(id)))
        .collect();
    println!(
        "-- determinism: {}/{} derived predicate(s) certified deterministic",
        certified.len(),
        derived.len()
    );
    let uncertified: Vec<String> = derived
        .iter()
        .filter(|n| !certified.contains(n))
        .cloned()
        .collect();
    if !uncertified.is_empty() {
        println!(
            "--   possibly non-deterministic: {}",
            uncertified.join(", ")
        );
    }
    // Termination footer: whether the run above was protected by an
    // automatic round ceiling derived from the certificate.
    let cert = program.termination();
    if let Some(bound) = cert.round_bound(&db) {
        println!(
            "-- termination: certified bounded; automatic round ceiling {bound} for this database"
        );
    } else {
        let unbounded: Vec<String> = cert
            .unbounded_predicates()
            .iter()
            .map(|&p| interner.resolve(p))
            .collect();
        println!(
            "-- termination: possibly diverging (W020); unbounded: {}",
            unbounded.join(", ")
        );
    }
    // Relevance footer: which query roots the goal-directed strategy
    // (`idlog run --strategy magic`) would accept, and why the rest refuse.
    let lines: Vec<String> = idlog_core::query_roots(&program)
        .into_iter()
        .map(|(root, _)| idlog_core::analyze_relevance(&program, root).verdict(root, &interner))
        .collect();
    if !lines.is_empty() {
        println!("-- relevance (strategy=magic):");
        for line in lines {
            println!("--   {line}");
        }
    }
    match stop {
        Some(stop) => {
            eprintln!(
                "-- counters up to the last completed round ({})",
                stop.message()
            );
            Err(stop)
        }
        None => Ok(()),
    }
}

/// The options and oracle `explain --analyze` evaluates `program` over `db`
/// with: the flags', under the certified round ceiling its footer names.
fn analyze_options(
    program: &ValidatedProgram,
    db: &Database,
    eval: &EvalFlags,
) -> (EvalOptions, Box<dyn TidOracle>) {
    let (options, oracle) = eval.options(true);
    (
        options.limits(program.certified_limits(db, options.limits)),
        oracle,
    )
}

/// `idlog run`: evaluate one answer or enumerate them all.
///
/// Resource governance: `--timeout`/`--max-rounds`/`--max-tuples` bound the
/// evaluation; a trip prints the partial result (up to the last completed
/// round barrier) and returns [`CliError::limit`] (exit 3). Ctrl-C returns
/// [`CliError::cancelled`] (exit 130). With `--all`, the enumeration
/// budgets (`--max-models`) merely truncate the walk — still exit 0 — while
/// governor ceilings exit 3.
///
/// Everything meant for standard output — answer rows, the `--profile`
/// table, `--profile-json -` — goes to `out` in that order and is flushed
/// before returning; `main` passes the locked, buffered stdout. A reader
/// that closes the pipe ends the output quietly; any other write error is
/// an [`idlog_core::ErrorCode::Io`] failure (see [`output_result`]).
pub fn run_query(opts: &RunOpts, out: &mut impl Write) -> Result<(), CliError> {
    let loaded = load(&opts.program, opts.facts.as_deref(), &opts.output)?;
    let interner = loaded.query.interner().clone();
    let want_profile = opts.profile || opts.profile_json.is_some() || opts.stats;
    let (options, mut oracle) = opts.eval.options(want_profile);
    // Not reset, unlike in the REPL, which serves many queries: a Ctrl-C
    // that arrived while the program and facts loaded must stop this run.
    let token = signal::token();

    if opts.all {
        if opts.profile || opts.profile_json.is_some() {
            eprintln!("-- profiling does not apply to --all enumeration; ignoring");
        }
        let answers = loaded
            .query
            .session(&loaded.db)
            .options(options)
            .cancel_token(token)
            .all_answers()
            .map_err(CliError::from)?;
        let note = match answers.stopped() {
            None => String::new(),
            Some(reason) => format!(" ({reason}; incomplete)"),
        };
        let mut emit = || -> io::Result<()> {
            writeln!(
                out,
                "{} distinct answer(s) from {} perfect model(s){note}:",
                answers.len(),
                answers.models_explored(),
            )?;
            for (i, answer) in answers.to_sorted_strings(&interner).iter().enumerate() {
                writeln!(out, "answer #{i}: {{{}}}", answer.join(", "))?;
            }
            out.flush()
        };
        output_result(emit())?;
        // Enumeration budgets bound an intentionally bounded walk — exit 0.
        // Governor ceilings and Ctrl-C are real stops — exit 3 / 130.
        return match answers.stopped() {
            None | Some(StopReason::Limit(LimitKind::Models | LimitKind::Answers)) => Ok(()),
            Some(StopReason::Limit(kind)) => Err(CliError::limit(
                kind,
                format!("enumeration stopped: {kind} budget hit"),
            )),
            Some(StopReason::Cancelled) => Err(CliError::cancelled("interrupted")),
        };
    }

    let result = loaded
        .query
        .session(&loaded.db)
        .options(options)
        .cancel_token(token)
        .try_run_with(oracle.as_mut());
    let (result, stop) = match result {
        Ok(result) => (result, None),
        Err(e) => {
            let (partial, stop) = partial_and_stop(e)?;
            let partial = partial_result(&partial, &opts.output, want_profile);
            (partial, Some(stop))
        }
    };
    if let Some(stop) = &stop {
        eprintln!(
            "-- partial result up to the last completed round ({})",
            stop.message()
        );
    }
    let table = if opts.profile {
        Some(require_profile(&result)?.render_table(opts.profile_time))
    } else {
        None
    };
    let mut json_to_stdout = None;
    if let Some(path) = &opts.profile_json {
        let json = require_profile(&result)?.to_json(opts.profile_time);
        if path == "-" {
            json_to_stdout = Some(json);
        } else {
            std::fs::write(path, json.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    // Render from the rows alone: the relation's membership table and
    // indexes are dropped before the view is built.
    let rows = result.relation.into_rows();
    let mut emit = || -> io::Result<()> {
        idlog_storage::CanonicalView::of_rows(rows.rows(), &interner)
            .write_facts(&opts.output, out)?;
        if let Some(table) = &table {
            out.write_all(table.as_bytes())?;
        }
        if let Some(json) = &json_to_stdout {
            writeln!(out, "{json}")?;
        }
        out.flush()
    };
    output_result(emit())?;
    if opts.stats {
        eprintln!("-- {}", result.stats.display_with(result.profile.as_ref()));
    }
    match stop {
        Some(stop) => Err(stop),
        None => Ok(()),
    }
}

/// `idlog serve`: run the multi-tenant query service until a `shutdown`
/// request arrives.
pub fn serve(
    listen: &str,
    workers: usize,
    data_dir: Option<&str>,
    sync: idlog_server::SyncPolicy,
    checkpoint_every: u64,
    queue_depth: usize,
) -> Result<(), CliError> {
    let config = idlog_server::ServerConfig {
        data_dir: data_dir.map(std::path::PathBuf::from),
        sync,
        checkpoint_every,
        queue_depth,
    };
    let durable = config.data_dir.is_some();
    let server = idlog_server::Server::bind_with(listen, config).map_err(|e| {
        CliError::new(
            idlog_core::ErrorCode::Io,
            format!("cannot bind {listen}: {e}"),
        )
    })?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::new(idlog_core::ErrorCode::Io, e.to_string()))?;
    eprintln!(
        "idlog service ({}) listening on {addr} ({})",
        idlog_core::service::SERVICE_SCHEMA,
        if durable {
            format!("durable, fsync {}", sync.name())
        } else {
            "in-memory".to_string()
        }
    );
    server
        .run(workers)
        .map_err(|e| CliError::new(idlog_core::ErrorCode::Io, e.to_string()))
}

/// The sleep before retry attempt `attempt` (0-based): exponential in the
/// base with deterministic jitter, unless the server sent an explicit
/// `retry_after_ms` hint, which takes precedence.
///
/// The jitter is a pure function of the attempt number (a small LCG), so
/// retry schedules are reproducible run to run — this is a determinism-
/// first engine even in its failure handling — while still decorrelating
/// the exponential steps enough to avoid lockstep thundering herds.
fn retry_delay_ms(attempt: u32, backoff_ms: u64, hint: Option<u64>) -> u64 {
    if let Some(hint) = hint {
        return hint;
    }
    let base = backoff_ms.saturating_mul(1u64 << attempt.min(16));
    let jitter_seed = (attempt as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    base.saturating_add(jitter_seed % (base / 2 + 1))
}

/// `idlog client`: send one raw request line and print the response line.
///
/// The process exit code mirrors the response's `exit` field, so shell
/// scripts can treat a served failure exactly like a local `idlog run`
/// failure (same 0/1/2/3/130 convention). With `--retries`, connection
/// refusals and `overloaded` responses are retried with exponential
/// backoff (honouring the server's `retry_after_ms` hint); every other
/// outcome is final on the first attempt.
pub fn client(addr: &str, request: &str, retries: u32, backoff_ms: u64) -> Result<(), CliError> {
    let mut attempt = 0u32;
    loop {
        let outcome = client_once(addr, request);
        let transient = match &outcome {
            // A refused/unreachable connection: the server may be
            // restarting; worth a retry.
            Err(e) if e.code == idlog_core::ErrorCode::Io && e.message.contains("connect") => None,
            // Shed at admission: retry after the server's hint.
            Err(e) if e.code == idlog_core::ErrorCode::Overloaded => Some(e.retry_after_ms),
            _ => return outcome,
        };
        if attempt >= retries {
            return outcome;
        }
        let delay = retry_delay_ms(attempt, backoff_ms, transient.flatten());
        eprintln!(
            "idlog client: attempt {} failed; retrying in {delay}ms",
            attempt + 1
        );
        std::thread::sleep(std::time::Duration::from_millis(delay));
        attempt += 1;
    }
}

/// One request/response exchange against the service.
fn client_once(addr: &str, request: &str) -> Result<(), CliError> {
    let mut client = idlog_server::Client::connect(addr).map_err(|e| {
        CliError::new(
            idlog_core::ErrorCode::Io,
            format!("cannot connect to {addr}: {e}"),
        )
    })?;
    let line = client
        .request_raw(request)
        .map_err(|e| CliError::new(idlog_core::ErrorCode::Io, e.to_string()))?;
    println!("{line}");
    let response = idlog_core::service::Response::parse(&line)
        .map_err(|e| CliError::new(idlog_core::ErrorCode::Protocol, e))?;
    match response.code {
        Some(code) => Err(CliError::new(
            code,
            response
                .error
                .unwrap_or_else(|| "request failed".to_string()),
        )
        .with_retry_after(response.retry_after_ms)),
        None => Ok(()),
    }
}

/// Split a governed evaluation's failure into the partial output a limit
/// trip or Ctrl-C carries and the error the command then ends with (exit 3
/// or 130). Any other failure keeps its [`idlog_core::ErrorCode`] and is
/// returned as the `Err`.
fn partial_and_stop(e: EvalError) -> Result<(EvalOutput, CliError), CliError> {
    match e {
        EvalError::Limit { limit, partial } => Ok((
            *partial,
            CliError::limit(limit, format!("limit exceeded: {limit}")),
        )),
        EvalError::Cancelled { partial } => Ok((*partial, CliError::cancelled("interrupted"))),
        EvalError::Core(e) => Err(CliError::from(e)),
    }
}

/// Project the partial [`EvalOutput`] carried by a limit trip or Ctrl-C
/// onto the shape `run_query` prints.
fn partial_result(
    partial: &EvalOutput,
    output: &str,
    want_profile: bool,
) -> idlog_core::EvalResult {
    idlog_core::EvalResult {
        relation: partial
            .relation(output)
            .cloned()
            .unwrap_or_else(|| idlog_core::Relation::elementary(0)),
        stats: partial.stats(),
        profile: want_profile.then(|| partial.profile().cloned().unwrap_or_default()),
    }
}

fn require_profile(result: &idlog_core::EvalResult) -> Result<&idlog_core::Profile, CliError> {
    result.profile.as_ref().ok_or_else(|| {
        CliError::failure("internal error: profiling was enabled but produced no profile")
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use idlog_core::{Interner, ValidatedProgram};
    use idlog_storage::Database;

    use super::{analyze_options, retry_delay_ms};
    use crate::args::EvalFlags;

    /// `explain --analyze` runs under the certified round ceiling that its
    /// termination footer prints, as every `Session` does.
    #[test]
    fn explain_analyze_runs_under_the_certified_round_ceiling() {
        let src = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n";
        let program = ValidatedProgram::parse(src, Arc::new(Interner::new())).unwrap();
        let mut db = Database::with_interner(Arc::clone(program.interner()));
        idlog_core::load_facts("e(a, b).\ne(b, c).\n", &mut db).unwrap();
        let bound = program.termination().round_bound(&db).expect("certified");
        let (options, _) = analyze_options(&program, &db, &EvalFlags::default());
        assert_eq!(options.limits.max_rounds, Some(bound));
    }

    /// The retry schedule doubles from the base, the jitter stays within
    /// half the base step, and the whole schedule is deterministic.
    #[test]
    fn retry_backoff_grows_exponentially_with_bounded_jitter() {
        for attempt in 0..6u32 {
            let base = 50u64 << attempt;
            let d = retry_delay_ms(attempt, 50, None);
            assert!(
                (base..=base + base / 2).contains(&d),
                "attempt {attempt}: delay {d} outside [{base}, {}]",
                base + base / 2
            );
            // Deterministic: same inputs, same delay.
            assert_eq!(d, retry_delay_ms(attempt, 50, None));
        }
        // Consecutive attempts never shrink the wait.
        let delays: Vec<u64> = (0..6).map(|a| retry_delay_ms(a, 50, None)).collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
    }

    /// A server `retry_after_ms` hint overrides the local schedule, and the
    /// exponent saturates instead of overflowing on absurd attempt counts.
    #[test]
    fn retry_hint_wins_and_the_exponent_saturates() {
        assert_eq!(retry_delay_ms(3, 50, Some(7)), 7);
        assert_eq!(retry_delay_ms(0, 50, Some(0)), 0);
        let huge = retry_delay_ms(u32::MAX, u64::MAX, None);
        assert_eq!(huge, u64::MAX); // saturated, not wrapped
    }
}
