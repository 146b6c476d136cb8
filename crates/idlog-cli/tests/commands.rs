//! Integration tests for the CLI command layer, driving the library entry
//! points against real files in a temp directory.

use std::path::PathBuf;

use idlog_cli::{commands, load, Args, Command, EvalFlags, RunOpts};

/// A per-test scratch directory (cleaned up on drop).
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("idlog-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn file(&self, name: &str, content: &str) -> String {
        let path = self.dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn load_reads_program_and_facts() {
    let s = Scratch::new("load");
    let program = s.file("p.idl", "pick(N) :- emp[2](N, D, 0).");
    let facts = s.file("f.idl", "emp(ann, sales). emp(bob, sales).");
    let loaded = load(&program, Some(&facts), "pick").unwrap();
    assert_eq!(loaded.db.relation("emp").unwrap().len(), 2);
    let result = loaded.query.session(&loaded.db).run().unwrap();
    assert_eq!(result.relation.len(), 1);
}

#[test]
fn load_reports_missing_files_and_bad_programs() {
    let s = Scratch::new("errors");
    assert!(load("/nonexistent/x.idl", None, "p").is_err());
    let bad = s.file("bad.idl", "p(X, Y) :- q(X).");
    let err = match load(&bad, None, "p") {
        Err(e) => e,
        Ok(_) => panic!("unsafe program must be rejected"),
    };
    assert!(
        err.message().contains("unsafe") || err.message().contains("head variable"),
        "{err}"
    );
    assert_eq!(err.code(), idlog_core::ErrorCode::Safety, "{err:?}");
    let good = s.file("good.idl", "p(X) :- q(X).");
    assert!(
        load(&good, None, "nope").is_err(),
        "unknown output must fail"
    );
}

#[test]
fn check_command_accepts_valid_program() {
    let s = Scratch::new("check");
    let program = s.file("p.idl", "pick(N) :- emp[2](N, D, 0).");
    commands::check(&program).unwrap();
    assert!(commands::check("/nonexistent/x.idl").is_err());
}

#[test]
fn run_query_end_to_end() {
    let s = Scratch::new("run");
    let program = s.file("p.idl", "two(N) :- emp[2](N, D, T), T < 2.");
    let facts = s.file("f.idl", "emp(a, d). emp(b, d). emp(c, d).");
    // One answer, canonical, with statistics.
    let mut one = RunOpts::new(&program, "two");
    one.facts = Some(facts.clone());
    one.stats = true;
    commands::run_query(&one, &mut std::io::sink()).unwrap();
    // All answers.
    let mut all = RunOpts::new(&program, "two");
    all.facts = Some(facts.clone());
    all.all = true;
    all.eval.budget.max_models = 100;
    all.eval.threads = Some(2);
    commands::run_query(&all, &mut std::io::sink()).unwrap();
    // Seeded, with the profile table.
    let mut seeded = RunOpts::new(&program, "two");
    seeded.facts = Some(facts.clone());
    seeded.eval.seed = Some(7);
    seeded.eval.threads = Some(1);
    seeded.profile = true;
    commands::run_query(&seeded, &mut std::io::sink()).unwrap();
}

#[test]
fn run_query_limit_trip_maps_to_limit_exit_class() {
    let s = Scratch::new("limits");
    let program = s.file("p.idl", "count(0). count(M) :- count(N), plus(N, 1, M).");

    // A round ceiling on a diverging program: the error is classified as a
    // limit trip (exit 3), not an ordinary failure, and names the flag.
    let mut rounds = RunOpts::new(&program, "count");
    rounds.eval.limits.max_rounds = Some(5);
    let err = commands::run_query(&rounds, &mut std::io::sink()).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err:?}");
    assert!(err.message().contains("max-rounds"), "{err:?}");

    // Same for a tuple ceiling.
    let mut tuples = RunOpts::new(&program, "count");
    tuples.eval.limits.max_tuples = Some(10);
    let err = commands::run_query(&tuples, &mut std::io::sink()).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err:?}");
    assert!(err.message().contains("max-tuples"), "{err:?}");

    // A generous ceiling on a terminating program does not trip.
    let fine = s.file("ok.idl", "two(N) :- emp[2](N, D, T), T < 2.");
    let facts = s.file("f.idl", "emp(a, d). emp(b, d).");
    let mut ok = RunOpts::new(&fine, "two");
    ok.facts = Some(facts);
    ok.eval.limits.max_rounds = Some(1_000);
    ok.eval.limits.max_tuples = Some(1_000_000);
    ok.eval.limits.deadline = Some(std::time::Duration::from_secs(60));
    commands::run_query(&ok, &mut std::io::sink()).unwrap();
}

#[test]
fn run_query_strategy_magic_succeeds_and_refuses() {
    let s = Scratch::new("magic");
    let program = s.file(
        "p.idl",
        "anc(X, Y) :- parent(X, Y).
         anc(X, Z) :- anc(X, Y), parent(Y, Z).
         q(Y) :- anc(ann, Y).",
    );
    let facts = s.file(
        "f.idl",
        "parent(ann, bob). parent(bob, cal). parent(eve, fay).",
    );

    // Certified point query: magic evaluates and agrees with direct.
    let mut opts = RunOpts::new(&program, "q");
    opts.facts = Some(facts.clone());
    opts.eval.strategy = idlog_core::Strategy::Magic;
    commands::run_query(&opts, &mut std::io::sink()).unwrap();

    // A choice site in the related region refuses with a witness (exit 1).
    let blocked = s.file(
        "b.idl",
        "pick(X, Y) :- likes[1](X, Y, 0).
         q(Y) :- pick(ann, Y).",
    );
    let likes = s.file("l.idl", "likes(ann, tea).");
    let mut opts = RunOpts::new(&blocked, "q");
    opts.facts = Some(likes);
    opts.eval.strategy = idlog_core::Strategy::Magic;
    let err = commands::run_query(&opts, &mut std::io::sink()).unwrap_err();
    assert_eq!(err.exit_code(), 1, "{err:?}");
    assert!(err.message().contains("choice site"), "{err:?}");
    assert!(err.message().contains("witness"), "{err:?}");

    // A governor trip under magic still maps to the limit exit class (3).
    let mut tripped = RunOpts::new(&program, "q");
    tripped.facts = Some(facts);
    tripped.eval.strategy = idlog_core::Strategy::Magic;
    tripped.eval.limits.max_rounds = Some(1);
    let err = commands::run_query(&tripped, &mut std::io::sink()).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err:?}");
    assert!(err.message().contains("max-rounds"), "{err:?}");
}

#[test]
fn run_query_writes_profile_json() {
    let s = Scratch::new("profile-json");
    let program = s.file("p.idl", "two(N) :- emp[2](N, D, T), T < 2.");
    let facts = s.file("f.idl", "emp(a, d). emp(b, d). emp(c, d).");
    let json_path = s.dir.join("profile.json").to_string_lossy().into_owned();
    let mut opts = RunOpts::new(&program, "two");
    opts.facts = Some(facts);
    opts.profile_json = Some(json_path.clone());
    commands::run_query(&opts, &mut std::io::sink()).unwrap();
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"schema\":\"idlog-profile/1\""), "{json}");
    assert!(json.contains("\"rules\":["), "{json}");
    assert!(json.contains("\"strata\":["), "{json}");
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
}

#[test]
fn explain_command_plain_and_analyze() {
    let s = Scratch::new("explain");
    let program = s.file(
        "p.idl",
        "reach(X) :- start(X).
         reach(Y) :- reach(X), e(X, Y).
         pick(X) :- reach[](X, 0).",
    );
    let facts = s.file("f.idl", "start(a). e(a, b).");
    let none = EvalFlags::default();
    let serial = EvalFlags {
        threads: Some(1),
        ..EvalFlags::default()
    };
    commands::explain(&program, None, false, &none).unwrap();
    commands::explain(&program, Some(&facts), true, &serial).unwrap();
    assert!(commands::explain("/nonexistent/x.idl", None, false, &none).is_err());
}

/// `explain --analyze` takes `run`'s governor flags: on a diverging
/// program a round ceiling or a timeout trips, the plan and footers still
/// print, and the exit code is 3.
#[test]
fn explain_analyze_stops_a_diverging_program_at_its_limits() {
    let diverge = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/diverge.idl");
    let rounds = EvalFlags {
        threads: Some(1),
        limits: idlog_core::Limits {
            max_rounds: Some(5),
            ..idlog_core::Limits::none()
        },
        ..EvalFlags::default()
    };
    let err = commands::explain(diverge, None, true, &rounds).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err:?}");
    assert_eq!(err.message(), "limit exceeded: max-rounds");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_idlog"))
        .args(["explain", diverge, "--analyze", "--timeout", "1s"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.contains("limit exceeded: timeout"), "{stderr}");
    assert!(
        stdout.contains("-- termination: possibly diverging (W020)"),
        "{stdout}"
    );
}

/// Ctrl-C stops `run` and `explain --analyze` alike on a program that
/// never ends on its own, whenever it arrives after the handler is
/// installed (even while the program loads): what was derived up to the
/// last completed round still prints, and the exit code is 130.
#[cfg(unix)]
#[test]
fn sigint_stops_run_and_explain_with_exit_130() {
    use std::process::{Command as Process, Stdio};
    use std::time::{Duration, Instant};

    let s = Scratch::new("sigint");
    let diverge = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/diverge.idl");
    let interrupt = |args: &[&str]| -> (String, String) {
        let (out_path, err_path) = (s.dir.join("out"), s.dir.join("err"));
        let mut child = Process::new(env!("CARGO_BIN_EXE_idlog"))
            .args(args)
            .stdout(Stdio::from(std::fs::File::create(&out_path).unwrap()))
            .stderr(Stdio::from(std::fs::File::create(&err_path).unwrap()))
            .spawn()
            .unwrap();
        // Signal once the handler is installed: Linux lists SIGINT (bit 1)
        // among the caught signals in /proc; elsewhere, allow a second.
        let status = format!("/proc/{}/status", child.id());
        let started = Instant::now();
        loop {
            let Ok(text) = std::fs::read_to_string(&status) else {
                std::thread::sleep(Duration::from_secs(1));
                break;
            };
            let caught = text
                .lines()
                .find_map(|l| l.strip_prefix("SigCgt:"))
                .and_then(|mask| u64::from_str_radix(mask.trim(), 16).ok());
            if caught.is_some_and(|mask| mask & 0b10 != 0) {
                break;
            }
            assert!(started.elapsed() < Duration::from_secs(10), "no handler");
            std::thread::sleep(Duration::from_millis(5));
        }
        let sent = Process::new("kill")
            .args(["-INT", &child.id().to_string()])
            .status()
            .unwrap();
        assert!(sent.success(), "{args:?}");
        let deadline = Instant::now() + Duration::from_secs(30);
        let code = loop {
            if let Some(exit) = child.try_wait().unwrap() {
                break exit.code();
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?} ignored SIGINT");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let stderr = std::fs::read_to_string(&err_path).unwrap();
        assert_eq!(code, Some(130), "{args:?}: {stderr}");
        (std::fs::read_to_string(&out_path).unwrap(), stderr)
    };

    let (stdout, stderr) = interrupt(&["run", diverge, "--output", "count"]);
    // The partial result: `count(0)` … up to the last completed round.
    for (i, line) in stdout.lines().enumerate() {
        assert_eq!(line, format!("count({i})"));
    }
    assert!(
        stderr.contains("-- partial result up to the last completed round (interrupted)"),
        "{stderr}"
    );

    let (stdout, stderr) = interrupt(&["explain", diverge, "--analyze"]);
    assert!(
        stdout.contains("-- termination: possibly diverging (W020)"),
        "{stdout}"
    );
    assert!(
        stderr.contains("-- counters up to the last completed round (interrupted)"),
        "{stderr}"
    );
}

#[test]
fn translate_and_optimize_commands() {
    let s = Scratch::new("xlate");
    let choice = s.file("c.idl", "s(N) :- emp(N, D), choice((D), (N)).");
    commands::translate_choice(&choice).unwrap();

    let plain = s.file("o.idl", "p(X) :- q(X, Z), z(Z, Y), y(W).");
    commands::optimize(&plain, "p", false).unwrap();
    assert!(commands::optimize(&plain, "zzz", false).is_err());
}

#[test]
fn lint_command_allow_and_json() {
    let s = Scratch::new("lint");
    // Partial grouping with a non-grouping base variable escaping to the
    // head: W010 (non-deterministic output) + W011 (tid-derived column).
    let warny = s.file("w.idl", "pick(N) :- emp[2](N, _D, T), T < 2.");
    let files = std::slice::from_ref(&warny);
    assert!(commands::lint(files, true, false, &[]).is_err());
    let allow = ["W010".to_string(), "w011".to_string()];
    commands::lint(files, true, false, &allow).unwrap();
    // JSON mode reports the same verdicts.
    assert!(commands::lint(files, true, true, &[]).is_err());
    commands::lint(files, true, true, &allow).unwrap();
    assert!(commands::lint(&["/nonexistent/x.idl".to_string()], false, false, &[]).is_err());
}

#[test]
fn full_arg_to_run_path() {
    let s = Scratch::new("args");
    let program = s.file("p.idl", "pick(N) :- emp[2](N, D, 0).");
    let facts = s.file("f.idl", "emp(ann, sales).");
    let args = Args::parse(
        ["run", &program, "--facts", &facts, "--output", "pick"]
            .iter()
            .map(|s| s.to_string()),
    )
    .unwrap();
    assert!(matches!(args.command, Command::Run { .. }));
    idlog_cli::run(args).unwrap();
}

#[test]
fn client_command_against_a_live_service() {
    let server = idlog_server::Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run(2).unwrap());

    // A ping succeeds and prints the response line.
    commands::client(&addr, r#"{"op":"ping"}"#, 0, 50).unwrap();

    // Inserts and a run round-trip through the raw client surface.
    commands::client(
        &addr,
        r#"{"op":"insert","tenant":"t","pred":"e","tuple":["a","b"]}"#,
        0,
        50,
    )
    .unwrap();
    commands::client(
        &addr,
        r#"{"op":"run","tenant":"t","program":"p(X, Y) :- e(X, Y).","output":"p"}"#,
        0,
        50,
    )
    .unwrap();

    // A served failure maps onto the CLI's stable exit-code convention.
    let err = commands::client(&addr, "not json", 0, 50).unwrap_err();
    assert_eq!(err.code(), idlog_core::ErrorCode::Protocol);
    assert_eq!(err.exit_code(), 1);
    let err = commands::client(
        &addr,
        r#"{"op":"run","tenant":"t","program":"p(X :-","output":"p"}"#,
        0,
        50,
    )
    .unwrap_err();
    assert_eq!(err.code(), idlog_core::ErrorCode::Parse);

    commands::client(&addr, r#"{"op":"shutdown"}"#, 0, 50).unwrap();
    handle.join().unwrap();

    // Connecting to a dead service is an I/O failure.
    let err = commands::client(&addr, r#"{"op":"ping"}"#, 0, 50).unwrap_err();
    assert_eq!(err.code(), idlog_core::ErrorCode::Io);
}

/// `--retries` turns a refused connection into a wait-and-retry: the
/// service comes up shortly after the first attempt, and the client's
/// bounded retry loop lands the request without surfacing the refusal.
#[test]
fn client_retries_until_the_service_appears() {
    // Reserve a port, then free it so the first connect is refused.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap().to_string();
    drop(placeholder);

    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(150));
        let server = idlog_server::Server::bind(&server_addr).unwrap();
        server.run(1).unwrap();
    });

    // Without retries the refusal is immediate and final.
    let err = commands::client(&addr, r#"{"op":"ping"}"#, 0, 10).unwrap_err();
    assert_eq!(err.code(), idlog_core::ErrorCode::Io);

    // With retries the client outlasts the startup gap.
    commands::client(&addr, r#"{"op":"ping"}"#, 8, 40).unwrap();
    commands::client(&addr, r#"{"op":"shutdown"}"#, 0, 10).unwrap();
    handle.join().unwrap();
}

/// `run_query` with its standard output captured.
fn run_captured(opts: &RunOpts) -> (Result<(), idlog_cli::CliError>, String) {
    let mut out: Vec<u8> = Vec::new();
    let result = commands::run_query(opts, &mut out);
    (result, String::from_utf8(out).unwrap())
}

#[test]
fn run_query_stdout_is_exact_canonical_rows_then_profile() {
    let s = Scratch::new("stdout");
    let program = s.file("p.idl", "r(X, N) :- e(X, N).\nz :- e(zoe, 7).");
    // Names interned in reverse lexicographic order, ints out of order.
    let facts = s.file("f.idl", "e(zoe, 7). e(zoe, 10). e(bob, 9). e(amy, 30).");
    let mut opts = RunOpts::new(&program, "r");
    opts.facts = Some(facts.clone());
    let rows = "r(amy, 30)\nr(bob, 9)\nr(zoe, 7)\nr(zoe, 10)\n";
    let (result, out) = run_captured(&opts);
    result.unwrap();
    assert_eq!(out, rows);

    // A 0-ary answer is one `z()` row.
    let mut unit = RunOpts::new(&program, "z");
    unit.facts = Some(facts);
    let (result, out) = run_captured(&unit);
    result.unwrap();
    assert_eq!(out, "z()\n");

    // Rows, then the profile table, then the `--profile-json -` object: one
    // stream, in that order.
    opts.profile = true;
    opts.profile_json = Some("-".into());
    let (result, out) = run_captured(&opts);
    result.unwrap();
    let rest = out.strip_prefix(rows).expect("rows come first");
    assert!(
        rest.starts_with("evaluation profile (worst rules first)\n"),
        "{rest}"
    );
    let json = rest.lines().last().unwrap();
    assert!(
        json.starts_with("{\"schema\":\"idlog-profile/1\""),
        "{json}"
    );
}

#[test]
fn run_query_limit_trip_still_writes_the_partial_rows() {
    let s = Scratch::new("partial");
    let program = s.file("p.idl", "count(0). count(M) :- count(N), plus(N, 1, M).");
    let mut opts = RunOpts::new(&program, "count");
    opts.eval.limits.max_rounds = Some(4);
    let (result, out) = run_captured(&opts);
    assert_eq!(result.unwrap_err().exit_code(), 3);
    // Four completed rounds: the fact plus three increments, in int order.
    assert_eq!(out, "count(0)\ncount(1)\ncount(2)\ncount(3)\n");
}

/// A writer whose every write fails with the given error kind.
struct FailingWriter(std::io::ErrorKind);

impl std::io::Write for FailingWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(self.0, "injected"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn run_query_write_errors_never_panic() {
    let s = Scratch::new("write-errors");
    let program = s.file("p.idl", "r(X) :- e(X).");
    let facts = s.file("f.idl", "e(a). e(b).");
    let mut opts = RunOpts::new(&program, "r");
    opts.facts = Some(facts);
    for all in [false, true] {
        opts.all = all;
        // A reader that went away is not a failure of the query.
        commands::run_query(&opts, &mut FailingWriter(std::io::ErrorKind::BrokenPipe)).unwrap();
        // Anything else (a full disk) is an i/o failure: exit 1.
        let err =
            commands::run_query(&opts, &mut FailingWriter(std::io::ErrorKind::Other)).unwrap_err();
        assert_eq!(err.code(), idlog_core::ErrorCode::Io, "{err:?}");
        assert_eq!(err.exit_code(), 1);
        assert!(err.message().contains("cannot write output"), "{err:?}");
    }
}

/// There is no naive strategy: `--strategy naive` is a usage error (exit 2)
/// naming what is accepted.
#[test]
fn run_strategy_naive_is_a_usage_error() {
    let s = Scratch::new("strategy-naive");
    let program = s.file("p.idl", "q(a).");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_idlog"))
        .args(["run", &program, "--output", "q", "--strategy", "naive"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.starts_with("error: unknown strategy \"naive\" (expected seminaive or magic)\n"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

/// `idlog run … | head -1`: the reader takes one line and closes the pipe
/// while the child still has megabytes to write. The child must stop
/// quietly with exit 0 — no panic, nothing on stderr.
#[test]
fn closed_pipe_ends_output_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    let s = Scratch::new("closed-pipe");
    let program = s.file(
        "anc.idl",
        "ancestor(X, Y) :- parent(X, Y).\nancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).",
    );
    // 400 edges -> 80 200 rows, ~1.7 MB: far past the 64 KiB pipe buffer, so
    // the child is still writing when the reader goes away.
    let chain: String = (0..400)
        .map(|n| format!("parent(n{n}, n{}).\n", n + 1))
        .collect();
    let facts = s.file("chain.facts", &chain);
    let mut child = Command::new(env!("CARGO_BIN_EXE_idlog"))
        .args(["run", &program, "--facts", &facts, "--output", "ancestor"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "ancestor(n0, n1)\n");
    drop(stdout);
    let status = child.wait().unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(stderr, "");
}
