//! The two `idlog run` workloads: `tc-batch` (recursive, join-heavy) and
//! `idlog-batch` (the paper's own constructs over a large `emp`).

use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use idlog_core::{
    load_facts, BackendKind, CanonicalOracle, Database, EvalOptions, EvalStats, Interner, Query,
    SeededOracle, TidOracle, Tuple, ValidatedProgram,
};
use idlog_storage::{group_by, make_id_relation, HashBackend, IdAssignment, Storage};

use crate::child::{run_to_files, Usage};
use crate::gen::{self, Emp, Graph, Zy};
use crate::harness::{repeat_setup, Env};
use crate::reference::{self, PairDigest};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// The generated inputs of one batch workload.
enum Inputs {
    Tc { graph: Graph, chain: Graph },
    Idlog { emp: Emp, zy: Zy },
}

/// Judges what a child printed.
type Check<'a> = Box<dyn Fn(&str) -> Result<(), String> + 'a>;

/// One `idlog run` invocation and its independent check.
struct Case<'a> {
    name: &'static str,
    /// Root span name in the trace.
    op: &'static str,
    program: &'static str,
    facts: &'static str,
    output: &'static str,
    /// Pass `--seed <iteration>`.
    seeded: bool,
    check: Check<'a>,
}

impl Inputs {
    fn generate(env: &Env, workload: &str) -> Inputs {
        match workload {
            "tc-batch" => Inputs::Tc {
                graph: gen::random_digraph(env.seed, env.size(1000, 20) as u32, env.size(1500, 30)),
                chain: gen::chain(env.seed, env.size(1000, 20) as u32),
            },
            _ => Inputs::Idlog {
                emp: Emp::generate(
                    env.seed,
                    env.size(1000, 20) as u32,
                    env.size(100_000, 2000) as u32,
                ),
                zy: Zy::generate(
                    env.seed,
                    env.size(200, 4) as u32,
                    env.size(50, 2) as u32,
                    env.size(50, 2) as u32,
                ),
            },
        }
    }

    /// Every file the children read: `(name, content)`.
    fn files(&self) -> Vec<(&'static str, String)> {
        match self {
            Inputs::Tc { graph, chain } => vec![
                ("tc.idl", gen::TC_PROGRAM.to_string()),
                ("graph.facts", graph.facts()),
                ("chain.facts", chain.facts()),
            ],
            Inputs::Idlog { emp, zy } => vec![
                ("sample.idl", gen::SAMPLE_PROGRAM.to_string()),
                ("dept_sizes.idl", gen::DEPT_SIZES_PROGRAM.to_string()),
                ("all_depts.idl", gen::ALL_DEPTS_PROGRAM.to_string()),
                ("zy_orig.idl", gen::ZY_ORIG_PROGRAM.to_string()),
                ("zy_id.idl", gen::ZY_ID_PROGRAM.to_string()),
                ("emp.facts", emp.facts()),
                ("zy.facts", zy.facts()),
            ],
        }
    }

    fn cases(&self) -> Vec<Case<'_>> {
        match self {
            Inputs::Tc { graph, chain } => {
                let closure =
                    |g: &Graph| -> PairDigest { reference::closure_digest(g.n, &g.edges) };
                let (want_graph, want_chain) = (closure(graph), closure(chain));
                let tc = |name, op, facts, want| Case {
                    name,
                    op,
                    program: "tc.idl",
                    facts,
                    output: "t",
                    seeded: false,
                    check: Box::new(move |out: &str| reference::check_closure_output(out, want)),
                };
                vec![
                    tc("graph", "case.graph", "graph.facts", want_graph),
                    tc("chain", "case.chain", "chain.facts", want_chain),
                ]
            }
            Inputs::Idlog { emp, zy } => {
                let set = |pred: &'static str, want: Vec<String>| {
                    move |out: &str| {
                        let rows = reference::unary_rows(out, pred)?;
                        reference::check_set(rows.into_iter(), want.iter().cloned(), pred)
                    }
                };
                vec![
                    Case {
                        name: "sample2-seeded",
                        op: "case.sample2-seeded",
                        program: "sample.idl",
                        facts: "emp.facts",
                        output: "select_two_emp",
                        seeded: true,
                        check: Box::new(move |out: &str| {
                            let rows = reference::unary_rows(out, "select_two_emp")?;
                            reference::check_sample(rows.into_iter(), emp)
                        }),
                    },
                    Case {
                        name: "dept-sizes",
                        op: "case.dept-sizes",
                        program: "dept_sizes.idl",
                        facts: "emp.facts",
                        output: "singleton",
                        seeded: false,
                        check: Box::new(set(
                            "singleton",
                            reference::singleton_depts(emp).collect(),
                        )),
                    },
                    Case {
                        name: "all-depts-id",
                        op: "case.all-depts-id",
                        program: "all_depts.idl",
                        facts: "emp.facts",
                        output: "all_depts",
                        seeded: false,
                        check: Box::new(set("all_depts", reference::all_depts(emp).collect())),
                    },
                    Case {
                        name: "zy-orig",
                        op: "case.zy-orig",
                        program: "zy_orig.idl",
                        facts: "zy.facts",
                        output: "p",
                        seeded: false,
                        check: Box::new(set("p", reference::zy_answers(zy).collect())),
                    },
                    Case {
                        name: "zy-id",
                        op: "case.zy-id",
                        program: "zy_id.idl",
                        facts: "zy.facts",
                        output: "p",
                        seeded: false,
                        check: Box::new(set("p", reference::zy_answers(zy).collect())),
                    },
                ]
            }
        }
    }
}

/// Generate the inputs and write them out, several times; keep the last.
fn set_up(env: &Env, workload: &str) -> Result<(Inputs, Vec<f64>), String> {
    repeat_setup(env.smoke, || {
        let inputs = Inputs::generate(env, workload);
        for (name, content) in inputs.files() {
            std::fs::write(env.path(name), content)
                .map_err(|e| format!("cannot write {name}: {e}"))?;
        }
        // Building the references is set-up work too.
        drop(inputs.cases());
        Ok(inputs)
    })
}

/// Spawn one `idlog run` child with default options and its output printed
/// in full (into a file), wait for it, then check what it printed.
fn run_child(
    env: &Env,
    case: &Case,
    iteration: usize,
) -> Result<(Usage, Result<(), String>), String> {
    let (out, err) = (env.path("child.out"), env.path("child.err"));
    let mut cmd = Command::new(&env.idlog);
    cmd.arg("run")
        .arg(env.path(case.program))
        .arg("--facts")
        .arg(env.path(case.facts))
        .args(["--output", case.output]);
    if case.seeded {
        cmd.args(["--seed", &iteration.to_string()]);
    }
    let usage = run_to_files(&mut cmd, &out, &err)
        .map_err(|e| format!("cannot run idlog for {}: {e}", case.name))?;
    if usage.code != Some(0) {
        let stderr = std::fs::read_to_string(&err).unwrap_or_default();
        let verdict = Err(format!("exit {:?}: {}", usage.code, stderr.trim()));
        return Ok((usage, verdict));
    }
    let printed = std::fs::read_to_string(&out).map_err(|e| format!("child output: {e}"))?;
    Ok((usage, (case.check)(&printed)))
}

/// Iterations of every case until `--seconds` have passed (at least three),
/// each output checked. Per-case counters do not depend on how many
/// iterations fit, so they repeat exactly on any machine.
pub fn end_to_end(env: &Env, workload: &str) -> Result<Outcome, String> {
    let (inputs, setup_times) = set_up(env, workload)?;
    let cases = inputs.cases();
    let mut o = Outcome::default();
    let (mut iter_wall, mut iter_cpu) = (Vec::new(), Vec::new());
    let (mut total_wall, mut correct, mut peak_kb) = (0.0f64, 0u64, 0u64);
    let started = Instant::now();
    let min_iterations = if env.smoke { 1 } else { 3 };
    while iter_wall.len() < min_iterations
        || (!env.smoke && started.elapsed().as_secs_f64() < env.seconds)
    {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for case in &cases {
            let (usage, verdict) = run_child(env, case, iter_wall.len())?;
            wall += usage.wall.as_secs_f64();
            cpu += usage.cpu_s;
            peak_kb = peak_kb.max(usage.max_rss_kb);
            correct += u64::from(verdict.is_ok());
            o.op(case.name, verdict);
        }
        total_wall += wall;
        iter_wall.push(wall);
        iter_cpu.push(cpu);
    }
    o.samples("setup_s", &setup_times);
    o.samples("run_wall_s", &iter_wall);
    o.samples("cpu_s", &iter_cpu);
    o.value("ops_per_s", correct as f64 / total_wall);
    o.value("peak_rss_mb", peak_kb as f64 / 1024.0);
    Ok(o)
}

/// What the in-process replay of one case found (its timings are the
/// trace's spans).
struct Replay {
    facts: usize,
    stats: EvalStats,
    rows: Vec<Tuple>,
}

fn oracle_for(seed: Option<u64>) -> Box<dyn TidOracle> {
    match seed {
        Some(s) => Box::new(SeededOracle::new(s)),
        None => Box::new(CanonicalOracle),
    }
}

/// What `idlog run` does for one case, through each layer's public
/// functions, one span per layer.
fn replay_case(
    tr: &mut Tracer,
    env: &Env,
    case: &Case,
    seed: Option<u64>,
    options: EvalOptions,
) -> Result<Replay, String> {
    let root = tr.begin(case.op);
    let read = |name: &str| {
        std::fs::read_to_string(env.path(name)).map_err(|e| format!("cannot read {name}: {e}"))
    };
    let (src, facts_src) = tr.time("cli.read_files", || (read(case.program), read(case.facts)));
    let (src, facts_src) = (src?, facts_src?);
    let interner = Arc::new(Interner::new());
    let ast = tr
        .time("parser", || idlog_parser::parse_program(&src, &interner))
        .map_err(|e| e.to_string())?;
    let query = tr
        .time("core.compile", || {
            ValidatedProgram::new(ast, Arc::clone(&interner))
                .and_then(|p| Query::new(p, case.output))
        })
        .map_err(|e| e.to_string())?;
    let mut db = Database::with_interner(interner);
    tr.time("core.facts", || load_facts(&facts_src, &mut db))
        .map_err(|e| e.to_string())?;
    let mut oracle = oracle_for(seed);
    let result = tr
        .time("core.eval", || {
            query
                .session(&db)
                .options(options)
                .run_with(oracle.as_mut())
        })
        .map_err(|e| e.to_string())?;
    tr.exit(root);
    Ok(Replay {
        facts: db.fact_count(),
        stats: result.stats,
        rows: result.relation.iter().cloned().collect(),
    })
}

/// Seconds of every `layer` span recorded for `case`.
fn seconds(tr: &Tracer, layer: &str, case: &Case) -> Vec<f64> {
    tr.durations(layer, Some(case.op), 1e-3)
}

/// One evaluation outside the trace, for the threads and backend ratios.
fn eval_wall(env: &Env, case: &Case, options: EvalOptions) -> Result<f64, String> {
    let mut scratch = Tracer::new();
    replay_case(&mut scratch, env, case, None, options)?;
    Ok(seconds(&scratch, "core.eval", case)[0])
}

/// `HashBackend` through the `Storage` trait, replaying a case's derived
/// tuples: ns per insert, per membership test, per indexed probe.
fn storage_micro(o: &mut Outcome, rows: &[Tuple]) {
    if rows.is_empty() {
        return;
    }
    let n = rows.len() as f64;
    let owned = rows.to_vec();
    let mut backend = HashBackend::new();
    let started = Instant::now();
    for t in owned {
        black_box(Storage::insert(&mut backend, t));
    }
    o.value("storage.insert_ns", started.elapsed().as_nanos() as f64 / n);
    let started = Instant::now();
    for t in rows {
        black_box(backend.contains(t));
    }
    o.value(
        "storage.contains_ns",
        started.elapsed().as_nanos() as f64 / n,
    );
    backend.ensure_index(&[0]);
    let keys: Vec<Tuple> = rows
        .iter()
        .map(|t| t.project(&[0]))
        .collect::<std::collections::HashSet<Tuple>>()
        .into_iter()
        .collect();
    let started = Instant::now();
    let mut matched = 0usize;
    for key in &keys {
        matched += black_box(backend.probe(&[0], key).len());
    }
    o.value(
        "storage.probe_ns",
        started.elapsed().as_nanos() as f64 / keys.len() as f64,
    );
    debug_assert!(matched >= rows.len());
}

/// Grouping plus tid assignment plus ID-relation construction on `emp[2]`,
/// canonical and seeded — what every ID-literal evaluation pays first.
pub fn idrel_micro(o: &mut Outcome, db: &Database) -> Result<(), String> {
    let rel = db.relation("emp").ok_or("no emp relation")?;
    let pred = db.interner().intern("emp");
    let mut times = Vec::new();
    for seed in [None, Some(1u64), None, Some(2), None, Some(3)] {
        let started = Instant::now();
        black_box(group_by(rel, &[1], db.interner()).group_count());
        let assignment: IdAssignment = match seed {
            None => IdAssignment::canonical(rel, &[1], db.interner()),
            Some(s) => SeededOracle::new(s).assign(pred, &[1], rel, db.interner()),
        };
        let id_rel = make_id_relation(rel, &assignment).map_err(|e| e.to_string())?;
        black_box(id_rel.len());
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    o.samples("storage.idrel.build_ms", &times);
    o.value(
        "storage.idrel.ns_per_tuple",
        median(&times) * 1e6 / rel.len() as f64,
    );
    Ok(())
}

/// The traced run: one pass of real children for the end-to-end side, then
/// the same cases in-process with a span per layer, then the layer
/// micro-measurements. `cli.render.<case>_s` is the explicit remainder:
/// child wall minus everything the replay attributes.
pub fn traced(env: &Env, workload: &str, tr: &mut Tracer) -> Result<Outcome, String> {
    let (inputs, _) = set_up(env, workload)?;
    let cases = inputs.cases();
    let mut o = Outcome::default();
    let passes = if env.smoke { 1 } else { 2 };

    let mut spawn_ms = Vec::new();
    for _ in 0..5 {
        let mut cmd = Command::new(&env.idlog);
        cmd.arg("help");
        let usage = run_to_files(&mut cmd, &env.path("child.out"), &env.path("child.err"))
            .map_err(|e| format!("cannot run idlog help: {e}"))?;
        spawn_ms.push(usage.wall.as_secs_f64() * 1e3);
    }
    o.samples("cli.spawn_ms", &spawn_ms);

    let (mut eval_total_s, mut inserted_total) = (0.0, 0u64);
    let (mut load_s, mut facts_loaded) = (Vec::new(), 0usize);
    let (mut parse_us, mut compile_us) = (Vec::new(), Vec::new());
    for case in &cases {
        let mut child_s = Vec::new();
        let mut printed_rows = 0usize;
        for pass in 0..passes {
            let (usage, verdict) = run_child(env, case, pass)?;
            o.op(case.name, verdict);
            child_s.push(usage.wall.as_secs_f64());
            let printed = std::fs::read_to_string(env.path("child.out")).unwrap_or_default();
            printed_rows = printed.lines().count();
        }
        let mut last = None;
        for pass in 0..passes {
            let seed = case.seeded.then_some(pass as u64);
            last = Some(replay_case(
                tr,
                env,
                case,
                seed,
                EvalOptions::new().threads(0),
            )?);
        }
        let replay = last.expect("at least one pass");
        let evals = seconds(tr, "core.eval", case);
        load_s.extend(seconds(tr, "core.facts", case));
        facts_loaded = facts_loaded.max(replay.facts);
        o.op(
            case.name,
            if replay.rows.len() == printed_rows {
                Ok(())
            } else {
                Err(format!(
                    "in-process replay derived {} rows, the child printed {printed_rows}",
                    replay.rows.len()
                ))
            },
        );
        eval_total_s += median(&evals);
        inserted_total += replay.stats.inserted;
        o.samples(format!("cli.case.{}_s", case.name), &child_s);
        o.samples(format!("core.eval.{}_s", case.name), &evals);
        let s = replay.stats;
        for (k, v) in [
            ("iterations", s.iterations),
            ("instantiations", s.instantiations),
            ("inserted", s.inserted),
            ("probes", s.probes),
        ] {
            o.count(format!("core.eval.{}.{k}", case.name), v);
        }
        for (k, v) in [
            ("derived", s.derived),
            ("builtin_evals", s.builtin_evals),
            ("id_relations", s.id_relations),
            ("tuples_pruned", s.tuples_pruned),
        ] {
            o.counters.insert(format!("core.eval.{}.{k}", case.name), v);
        }
        o.counters
            .insert(format!("rows.{}", case.name), printed_rows as u64);

        if matches!(inputs, Inputs::Tc { .. }) && !env.smoke {
            let t1 = eval_wall(env, case, EvalOptions::new().threads(1))?;
            o.value(
                format!("core.eval.t1_over_default.{}", case.name),
                t1 / median(&evals),
            );
            if case.name == "graph" {
                let columnar =
                    eval_wall(env, case, EvalOptions::new().backend(BackendKind::Columnar))?;
                o.value("core.eval.columnar_over_hash", columnar / median(&evals));
                storage_micro(&mut o, &replay.rows);
            }
        }

        // Program texts are tiny, so parse and compile repeat for a median.
        let src = std::fs::read_to_string(env.path(case.program)).map_err(|e| e.to_string())?;
        for _ in 0..20 {
            let interner = Arc::new(Interner::new());
            let started = Instant::now();
            let ast = idlog_parser::parse_program(&src, &interner).map_err(|e| e.to_string())?;
            parse_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            black_box(
                ValidatedProgram::new(ast, interner)
                    .and_then(|p| Query::new(p, case.output))
                    .map_err(|e| e.to_string())?,
            );
            compile_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    o.samples("parser.program_us", &parse_us);
    o.samples("core.compile_us", &compile_us);
    o.samples("core.facts.load_s", &load_s);
    o.value(
        "core.facts.ns_per_fact",
        median(&load_s) * 1e9 / facts_loaded.max(1) as f64,
    );
    o.value(
        "core.eval.ns_per_inserted",
        eval_total_s * 1e9 / inserted_total.max(1) as f64,
    );

    match &inputs {
        Inputs::Tc { graph, .. } => {
            let started = Instant::now();
            black_box(reference::closure_digest(graph.n, &graph.edges));
            o.value("reference.tc_bfs_s", started.elapsed().as_secs_f64());
        }
        Inputs::Idlog { .. } => {
            let facts =
                std::fs::read_to_string(env.path("emp.facts")).map_err(|e| e.to_string())?;
            let mut db = Database::new();
            load_facts(&facts, &mut db).map_err(|e| e.to_string())?;
            idrel_micro(&mut o, &db)?;
        }
    }

    // Per case: layer self times plus the explicit remainder add up to the
    // child's wall.
    for (op, b) in tr.breakdown() {
        let Some(case) = cases.iter().find(|c| c.op == op) else {
            continue;
        };
        let child_ms = o.median_of(&format!("cli.case.{}_s", case.name)) * 1e3;
        let mut parts: std::collections::BTreeMap<String, f64> = b
            .layer_medians()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let render_ms = child_ms - b.attributed_ms();
        o.value(format!("cli.render.{}_s", case.name), render_ms / 1e3);
        parts.insert("cli.render (remainder)".to_string(), render_ms);
        parts.insert("end_to_end".to_string(), child_ms);
        o.breakdown.insert(op.to_string(), parts);
    }
    Ok(o)
}
