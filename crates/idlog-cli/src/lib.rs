//! Library internals of the `idlog` CLI: argument parsing, command
//! implementations, and the interactive REPL. Split from the binary so the
//! integration tests can drive commands directly.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use idlog_core::{CoreError, ErrorCode, Interner, LimitKind, Query, ValidatedProgram};
use idlog_storage::Database;

pub mod args;
pub mod commands;
pub mod repl;
pub mod signal;

pub use args::{Args, Command, EvalFlags, RunOpts, USAGE};

/// A command failure: a stable [`ErrorCode`] plus a human-readable message.
///
/// The process exit code is the code's [`ErrorCode::exit_code`] — ordinary
/// failures exit 1, usage errors 2, resource limit trips 3, interruptions
/// the conventional 130 (128 + SIGINT). The same codes travel in `idlog
/// serve` responses, so scripts driving either surface can switch on one
/// vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    code: ErrorCode,
    message: String,
    retry_after_ms: Option<u64>,
}

impl CliError {
    /// A failure with an explicit [`ErrorCode`].
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        CliError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attach the server's retry hint (carried on `overloaded` responses).
    pub fn with_retry_after(mut self, ms: Option<u64>) -> Self {
        self.retry_after_ms = ms;
        self
    }

    /// The server's retry hint, if one was sent.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.retry_after_ms
    }

    /// An unclassified ordinary failure (exit 1).
    pub fn failure(message: impl Into<String>) -> Self {
        CliError::new(ErrorCode::Failure, message)
    }

    /// A bad-arguments failure (exit 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError::new(ErrorCode::Usage, message)
    }

    /// A governor limit trip (exit 3).
    pub fn limit(kind: LimitKind, message: impl Into<String>) -> Self {
        CliError::new(ErrorCode::Limit(kind), message)
    }

    /// An interruption (exit 130).
    pub fn cancelled(message: impl Into<String>) -> Self {
        CliError::new(ErrorCode::Cancelled, message)
    }

    /// The stable error code.
    pub fn code(&self) -> ErrorCode {
        self.code
    }

    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> u8 {
        self.code.exit_code()
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::failure(m)
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::new(e.code(), e.to_string())
    }
}

/// Run a parsed invocation (everything except `main`'s exit-code mapping).
pub fn run(args: Args) -> Result<(), CliError> {
    match args.command {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Check { program } => commands::check(&program).map_err(CliError::from),
        Command::Explain {
            program,
            facts,
            analyze,
            eval,
        } => commands::explain(&program, facts.as_deref(), analyze, &eval),
        Command::Lint {
            programs,
            deny_warnings,
            json,
            allow,
        } => commands::lint(&programs, deny_warnings, json, &allow).map_err(CliError::from),
        Command::TranslateChoice { program } => {
            commands::translate_choice(&program).map_err(CliError::from)
        }
        Command::Optimize {
            program,
            output,
            suggest_prune,
        } => commands::optimize(&program, &output, suggest_prune).map_err(CliError::from),
        Command::Repl => repl::run(&mut std::io::stdin().lock(), &mut std::io::stdout()),
        Command::Run(opts) => commands::run_query(
            &opts,
            &mut std::io::BufWriter::new(std::io::stdout().lock()),
        ),
        Command::Serve {
            listen,
            workers,
            data_dir,
            sync,
            checkpoint_every,
            queue_depth,
        } => commands::serve(
            &listen,
            workers,
            data_dir.as_deref(),
            sync,
            checkpoint_every,
            queue_depth,
        ),
        Command::Client {
            addr,
            request,
            retries,
            backoff_ms,
        } => commands::client(&addr, &request, retries, backoff_ms),
    }
}

/// What a finished (written and flushed) output stream means for the exit
/// code. A closed pipe (`idlog run … | head`) is the reader saying it has
/// seen enough: the output simply ends, with success. Any other write error
/// (a full disk) is an [`ErrorCode::Io`] failure — never a panic.
pub fn output_result(written: std::io::Result<()>) -> Result<(), CliError> {
    match written {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(CliError::new(
            ErrorCode::Io,
            format!("cannot write output: {e}"),
        )),
        Ok(()) => Ok(()),
    }
}

/// A loaded program + database pair.
pub struct Loaded {
    /// The query (program portion related to the output).
    pub query: Query,
    /// The fact database.
    pub db: Database,
}

/// Read and validate a program file, optionally loading a fact file.
/// Failures carry the engine's [`ErrorCode`] (I/O problems map to
/// [`ErrorCode::Io`]) instead of flattening everything to a string.
pub fn load(
    program_path: &str,
    facts_path: Option<&str>,
    output: &str,
) -> Result<Loaded, CliError> {
    let interner = Arc::new(Interner::new());
    let src = std::fs::read_to_string(program_path)
        .map_err(|e| CliError::new(ErrorCode::Io, format!("cannot read {program_path}: {e}")))?;
    let program = ValidatedProgram::parse(&src, Arc::clone(&interner))
        .map_err(|e| CliError::new(e.code(), format!("{program_path}: {e}")))?;
    let query = Query::new(program, output).map_err(CliError::from)?;

    let mut db = Database::with_interner(interner);
    if let Some(path) = facts_path {
        let facts_src = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(ErrorCode::Io, format!("cannot read {path}: {e}")))?;
        idlog_core::load_facts(&facts_src, &mut db)
            .map_err(|e| CliError::new(e.code(), format!("{path}: {e}")))?;
    }
    Ok(Loaded { query, db })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 0/1/2/3/130 exit-code convention, regression-tested: scripts
    /// depend on these values, so they may never drift.
    #[test]
    fn exit_code_convention_is_stable() {
        assert_eq!(CliError::failure("x").exit_code(), 1);
        assert_eq!(CliError::usage("x").exit_code(), 2);
        for kind in [
            LimitKind::Deadline,
            LimitKind::Rounds,
            LimitKind::Tuples,
            LimitKind::Bytes,
        ] {
            assert_eq!(CliError::limit(kind, "x").exit_code(), 3, "{kind}");
        }
        assert_eq!(CliError::cancelled("x").exit_code(), 130);
        // Engine errors keep their family code through the conversion.
        let err = CliError::from(CoreError::Cancelled);
        assert_eq!(err.code(), ErrorCode::Cancelled);
        assert_eq!(err.exit_code(), 130);
        let err = CliError::from(CoreError::Eval {
            message: "overflow".into(),
        });
        assert_eq!(err.code(), ErrorCode::Eval);
        assert_eq!(err.exit_code(), 1);
    }
}
