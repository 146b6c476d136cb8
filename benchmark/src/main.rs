//! The repo benchmark. See `benchmark/README.md` for the workloads, the
//! metrics and how to read the trace.
//!
//! ```text
//! idlog-benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! idlog-benchmark --smoke
//! idlog-benchmark --compare <a.json> <b.json>
//! ```
//!
//! Run from the root of a checkout. Progress goes to standard error; the
//! last line of standard output is the result object.

mod batch;
mod child;
mod gen;
mod harness;
mod reference;
mod report;
mod rng;
mod serve;
mod serve_fresh;
mod serve_maintain;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{Env, WorkDir};
use report::{Outcome, WORKLOADS};
use trace::Tracer;

/// The inputs never depend on anything but the seed; this one is used when
/// none is given.
const DEFAULT_SEED: u64 = 1991;
const DEFAULT_SECONDS: u64 = 15;
/// The contract allows a run 180 s after the build.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: idlog-benchmark --workload <tc-batch|idlog-batch|serve-maintain|serve-fresh> \
[--seed <n>] [--seconds <n>] [--trace <0|1>]\n       idlog-benchmark --smoke\n       \
idlog-benchmark --compare <a.json> <b.json>";

enum Mode {
    Run {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Smoke,
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut i = 0;
    let value = |i: usize| {
        args.get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => return Ok(Mode::Smoke),
            "--compare" => return Ok(Mode::Compare(value(i)?.clone(), value(i + 1)?.clone())),
            "--workload" => workload = Some(value(i)?.clone()),
            "--seed" => seed = value(i)?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                seconds = value(i)?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".to_string());
    }
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload, traced or not.
fn run_workload(env: &Env, workload: &str, trace: bool) -> Result<Outcome, String> {
    if !trace {
        return match workload {
            "serve-maintain" => serve_maintain::end_to_end(env),
            "serve-fresh" => serve_fresh::end_to_end(env),
            batch => batch::end_to_end(env, batch),
        };
    }
    let mut tr = Tracer::new();
    let mut o = match workload {
        "serve-maintain" => serve_maintain::traced(env, &mut tr),
        "serve-fresh" => serve_fresh::traced(env, &mut tr),
        batch => batch::traced(env, batch, &mut tr),
    }?;
    // The spans sit in the benchmark, not the program, so their cost is what
    // recording them takes: spans × calibrated cost ÷ traced time.
    let overhead =
        tr.span_count() as f64 * Tracer::calibrate() / 1e9 / tr.traced_seconds().max(1e-9);
    o.value("trace.overhead_share", overhead);
    o.counters
        .insert("trace.spans".to_string(), tr.span_count() as u64);
    if !env.smoke {
        let path = Path::new("benchmark/out/trace.json");
        std::fs::write(path, tr.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        print_breakdown(workload, &o);
    }
    Ok(o)
}

/// Per op type: layer self times and the explicit remainder, summing to the
/// untraced end-to-end median.
fn print_breakdown(workload: &str, o: &Outcome) {
    eprintln!("-- {workload}: where the end-to-end median goes (ms)");
    for (op, parts) in &o.breakdown {
        eprintln!("   {op}");
        for (name, ms) in parts {
            if name != "end_to_end" {
                eprintln!("     {name:<36} {ms:>12.4}");
            }
        }
        eprintln!("     {:<36} {:>12.4}", "= end_to_end", parts["end_to_end"]);
    }
    eprintln!(
        "   trace.overhead_share {:.6} over {} spans",
        o.median_of("trace.overhead_share"),
        o.counters["trace.spans"]
    );
}

fn prepare(root: &Path, tag: &str) -> Result<(std::path::PathBuf, WorkDir), String> {
    let idlog = child::build_idlog(root)?;
    let work = WorkDir::create(&root.join(format!("benchmark/out/work-{tag}")))?;
    Ok((idlog, work))
}

fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (idlog, work) = prepare(&root, &format!("{workload}-{}", u8::from(trace)))?;
    eprintln!("-- idlog built in {:.1}s", started.elapsed().as_secs_f64());
    harness::start_watchdog(RUN_LIMIT);
    let env = Env {
        idlog,
        work: work.0.clone(),
        seed,
        seconds: seconds as f64,
        smoke: false,
    };
    let o = run_workload(&env, workload, trace)?;
    for failure in &o.failures {
        eprintln!("FAILED {failure}");
    }
    let (section, defs) = if trace {
        (format!("{workload}/trace"), report::per_layer())
    } else {
        (format!("{workload}/end-to-end"), report::end_to_end())
    };
    o.merge_into(
        Path::new("benchmark/out/results.json"),
        &section,
        &defs,
        seed,
        seconds,
    )?;
    eprintln!(
        "-- {workload}: {} ops attempted, {} failed, {:.1}s",
        o.attempted,
        o.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", o.result_line(&defs));
    Ok(o.failed == 0)
}

/// All four workloads at 1/50 size, untraced and traced: checks only.
fn smoke() -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let (idlog, work) = prepare(&root, &format!("smoke-{}", std::process::id()))?;
    harness::start_watchdog(RUN_LIMIT);
    let env = Env {
        idlog,
        work: work.0.clone(),
        seed: DEFAULT_SEED,
        seconds: 1.0,
        smoke: true,
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let o = run_workload(&env, workload, trace)?;
            for failure in &o.failures {
                eprintln!("FAILED {failure}");
            }
            println!(
                "smoke {workload} trace={}: {} ops, {} failed",
                u8::from(trace),
                o.attempted,
                o.failed
            );
            ok &= o.failed == 0 && o.attempted > 0;
        }
    }
    println!("{}", if ok { "smoke: ok" } else { "smoke: FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::Smoke) => smoke(),
        Ok(Mode::Compare(a, b)) => report::compare(&a, &b, "BENCHMARK.json"),
        Ok(Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => run(&workload, seed, seconds, trace),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
