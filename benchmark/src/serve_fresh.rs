//! `serve-fresh`: an in-memory server, one tenant shared by two closed-loop
//! clients, read-only after the preload — seeded sampling, magic point
//! queries and materialized hits. Bypasses the WAL and view maintenance.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use idlog_core::service::{render_answers, Request, Response, RunRequest};
use idlog_core::{
    Database, EvalOptions, Interner, Materialized, Query, SeededOracle, Strategy, ValidatedProgram,
};

use crate::gen::{
    ancestor_program, fresh_stream, Chains, Emp, FreshOp, ALL_DEPTS_PROGRAM, FRESH_CYCLE_OPS,
    SAMPLE_PROGRAM,
};
use crate::harness::{repeat_setup, Env};
use crate::reference::{all_depts, chain_descendants, check_sample, check_set};
use crate::report::Outcome;
use crate::serve::{
    answers_of, attribute, check_ack, fact_line, op_index, per_client, ping_rtt_us, run_line,
    Client, ClientLog, Server,
};
use crate::trace::Tracer;

const TENANT: &str = "shared";
const CLIENTS: usize = 2;

/// Cycles per client per second of `--seconds`, sized on the reference
/// sandbox so the cycle phase takes about `--seconds`.
const CYCLES_PER_SECOND: f64 = 12.0;

/// The generated tenant and request streams.
struct Plan {
    emp: Emp,
    chains: Chains,
    /// One stream per client.
    streams: Vec<Vec<FreshOp>>,
}

impl Plan {
    fn generate(env: &Env, cycles: usize) -> Plan {
        let emp = Emp::generate(
            env.seed,
            env.size(200, 4) as u32,
            env.size(20_000, 400) as u32,
        );
        let chains = Chains::generate(
            env.seed,
            env.size(200, 4) as u32,
            env.size(20_000, 400) as u32,
            env.size(48, 3),
        );
        let streams = (0..CLIENTS)
            .map(|c| fresh_stream(env.seed, c, cycles, &chains.heads))
            .collect();
        Plan {
            emp,
            chains,
            streams,
        }
    }

    /// The preload as `(pred, args)` rows: `emp` first, then `parent`.
    fn facts(&self) -> Vec<(&'static str, [String; 2])> {
        let emp = self
            .emp
            .rows
            .iter()
            .map(|&(d, e)| ("emp", [Emp::name(d, e), Emp::dept(d)]));
        let parent = self
            .chains
            .rows
            .iter()
            .map(|&(c, j)| ("parent", [Chains::node(c, j), Chains::node(c, j + 1)]));
        emp.chain(parent).collect()
    }

    fn request(&self, op: &FreshOp) -> RunRequest {
        match *op {
            FreshOp::Sample(seed) => {
                let mut r = RunRequest::new(TENANT, SAMPLE_PROGRAM, "select_two_emp");
                r.seed = Some(seed);
                r
            }
            FreshOp::Magic(chain) => {
                let program = ancestor_program(&Chains::node(chain, 0));
                let mut r = RunRequest::new(TENANT, &program, "query");
                r.strategy = Some(Strategy::Magic);
                r
            }
            FreshOp::Hit => RunRequest::new(TENANT, ALL_DEPTS_PROGRAM, "all_depts"),
        }
    }

    fn check(&self, op: &FreshOp, answers: &[String]) -> Result<(), String> {
        let got = answers.iter().map(String::as_str);
        match *op {
            FreshOp::Sample(_) => check_sample(got, &self.emp),
            FreshOp::Magic(chain) => {
                check_set(got, chain_descendants(&self.chains, chain), "magic")
            }
            FreshOp::Hit => check_set(got, all_depts(&self.emp), "all_depts"),
        }
    }
}

fn op_name(op: &FreshOp) -> &'static str {
    match op {
        FreshOp::Sample(_) => "read_fresh",
        FreshOp::Magic(_) => "read_magic",
        FreshOp::Hit => "read_hit",
    }
}

struct Live {
    server: Server,
    clients: Vec<Client>,
    preload_s: f64,
}

/// Spawn, preload the shared tenant through both clients (half the facts
/// each, in parallel), and build the materialized `all_depts` view.
fn set_up(env: &Env, plan: &Plan, facts: &[(&'static str, [String; 2])]) -> Result<Live, String> {
    let server = Server::spawn(env, None)?;
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&server.addr))
        .collect::<Result<_, _>>()?;
    let halves: Vec<&[(&str, [String; 2])]> = facts.chunks(facts.len().div_ceil(CLIENTS)).collect();
    let started = Instant::now();
    per_client(&mut clients, &halves, |_, client, rows| {
        for (pred, args) in rows.iter() {
            let (r, _) = client.call(&fact_line(true, TENANT, pred, args))?;
            check_ack(&r)?;
        }
        Ok(())
    })?;
    let preload_s = started.elapsed().as_secs_f64();
    let (r, _) = clients[0].call(&run_line(plan.request(&FreshOp::Hit)))?;
    plan.check(&FreshOp::Hit, answers_of(&r)?)
        .map_err(|e| format!("view build: {e}"))?;
    Ok(Live {
        server,
        clients,
        preload_s,
    })
}

/// Both clients' cycle phases in parallel, merged.
fn cycle_phase(live: &mut Live, plan: &Plan) -> Result<ClientLog, String> {
    let logs = per_client(&mut live.clients, &plan.streams, |_, client, stream| {
        let lines: Vec<String> = stream.iter().map(|op| run_line(plan.request(op))).collect();
        let mut log = ClientLog::default();
        let started = Instant::now();
        for (ops, lines) in stream
            .chunks(FRESH_CYCLE_OPS)
            .zip(lines.chunks(FRESH_CYCLE_OPS))
        {
            let cycle_started = Instant::now();
            for (op, line) in ops.iter().zip(lines) {
                let (r, ms) = client.call(line)?;
                let verdict = answers_of(&r).and_then(|a| plan.check(op, a));
                log.record(op_index(op_name(op)), ms, &r, verdict);
            }
            log.cycle_s.push(cycle_started.elapsed().as_secs_f64());
        }
        Ok(log.finish(started.elapsed().as_secs_f64()))
    })?;
    Ok(ClientLog::merge(logs))
}

pub fn end_to_end(env: &Env) -> Result<Outcome, String> {
    let plan = Plan::generate(env, env.count(CYCLES_PER_SECOND, 6));
    let facts = plan.facts();
    let (mut live, setup_times) = repeat_setup(env.smoke, || set_up(env, &plan, &facts))?;
    let cpu_before = live.server.cpu_seconds()?;
    let log = cycle_phase(&mut live, &plan)?;
    let cpu = live.server.cpu_seconds()? - cpu_before;
    let usage = live.server.kill()?;
    let mut o = log.end_to_end(cpu);
    o.samples("setup_s", &setup_times);
    o.value("peak_rss_mb", usage.max_rss_kb as f64 / 1024.0);
    Ok(o)
}

/// The shared tenant as the server holds it: database, prepared queries,
/// the materialized `all_depts` view.
struct Replica {
    interner: Arc<Interner>,
    db: Database,
    prepared: HashMap<String, Query>,
    view: Materialized,
    answers: u64,
}

impl Replica {
    fn build(plan: &Plan, facts: &[(&'static str, [String; 2])]) -> Result<Replica, String> {
        let interner = Arc::new(Interner::new());
        let mut db = Database::with_interner(Arc::clone(&interner));
        for (pred, args) in facts {
            db.insert_syms(pred, &[&args[0], &args[1]])
                .map_err(|e| e.to_string())?;
        }
        let hit = plan.request(&FreshOp::Hit);
        let query = Query::parse_with_interner(&hit.program, &hit.output, Arc::clone(&interner))
            .map_err(|e| e.to_string())?;
        let view = Materialized::build(query.related_program(), &db, &EvalOptions::new())
            .map_err(|e| e.to_string())?;
        Ok(Replica {
            interner,
            db,
            prepared: HashMap::new(),
            view,
            answers: 0,
        })
    }

    /// One `run`, in the server's order: parse the request, find or compile
    /// the query, then either render the view (a hit) or snapshot the
    /// database, evaluate fresh and render.
    fn run(&mut self, tr: &mut Tracer, op: &FreshOp, line: &str) -> Result<Vec<String>, String> {
        let root = tr.begin(op_name(op));
        let Request::Run(r) = tr.time("core.service.parse", || Request::parse(line))? else {
            return Err(format!("not a run: {line}"));
        };
        let relation = if matches!(op, FreshOp::Hit) {
            None
        } else {
            if !self.prepared.contains_key(&r.program) {
                let ast = tr
                    .time("parser", || {
                        idlog_parser::parse_program(&r.program, &self.interner)
                    })
                    .map_err(|e| e.to_string())?;
                let query = tr
                    .time("core.compile", || {
                        ValidatedProgram::new(ast, Arc::clone(&self.interner))
                            .and_then(|p| Query::new(p, &r.output))
                    })
                    .map_err(|e| e.to_string())?;
                self.prepared.insert(r.program.clone(), query);
            }
            let query = &self.prepared[&r.program];
            let snapshot = tr.time("storage.db_clone", || self.db.clone());
            let mut session = query.session(&snapshot).limits(r.limits());
            if let Some(strategy) = r.strategy {
                session = session.strategy(strategy);
            }
            let result = tr.time("core.eval", || match r.seed {
                Some(seed) => session.run_with(&mut SeededOracle::new(seed)),
                None => session.run(),
            });
            tr.time("storage.db_drop", || drop(snapshot));
            Some(result.map_err(|e| e.to_string())?.relation)
        };
        let render = tr.enter("core.service.render");
        let answers = match &relation {
            Some(rel) => render_answers(rel, &self.interner),
            None => self
                .view
                .relation(&r.output)
                .map(|rel| render_answers(rel, &self.interner))
                .unwrap_or_default(),
        };
        self.answers += answers.len() as u64;
        let response = Response {
            answers: Some(answers),
            complete: Some(true),
            ..Response::ok()
        };
        std::hint::black_box(response.to_json());
        tr.exit(render);
        tr.exit(root);
        Ok(response.answers.unwrap_or_default())
    }
}

/// The traced run: a real pass over the first quarter of each client's
/// stream, then the same requests in-process with a span per layer.
pub fn traced(env: &Env, tr: &mut Tracer) -> Result<Outcome, String> {
    let cycles = (env.count(CYCLES_PER_SECOND, 6) / 4).max(6);
    let plan = Plan::generate(env, cycles);
    let facts = plan.facts();
    let mut live = set_up(env, &plan, &facts)?;
    let ping_us = ping_rtt_us(&mut live.clients[0])?;
    let log = cycle_phase(&mut live, &plan)?;
    live.server.kill()?;
    let mut o = log.per_layer();
    o.samples("server.ping_rtt_us", &ping_us);
    o.value(
        "server.preload_inserts_per_s",
        facts.len() as f64 / live.preload_s,
    );

    let mut replica = Replica::build(&plan, &facts)?;
    for stream in &plan.streams {
        for op in stream {
            let line = run_line(plan.request(op));
            let answers = replica.run(tr, op, &line)?;
            o.op("in-process replay", plan.check(op, &answers));
        }
    }
    let spans = |name: &str, per_ms: f64| tr.durations(name, None, per_ms);
    o.samples(
        "core.service.request_parse_us",
        &spans("core.service.parse", 1e3),
    );
    let render_us = spans("core.service.render", 1e3);
    o.samples("core.service.response_render_us", &render_us);
    o.value(
        "core.service.render_ns_per_answer",
        render_us.iter().sum::<f64>() * 1e3 / replica.answers.max(1) as f64,
    );
    o.samples("storage.db_clone_ms", &spans("storage.db_clone", 1.0));
    o.samples("parser.program_us", &spans("parser", 1e3));
    o.samples("core.compile_us", &spans("core.compile", 1e3));
    crate::batch::idrel_micro(&mut o, &replica.db)?;
    o.counters.insert(
        "prepared.programs".to_string(),
        replica.prepared.len() as u64,
    );
    attribute(&mut o, tr);
    Ok(o)
}
