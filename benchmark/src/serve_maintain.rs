//! `serve-maintain`: a durable server (`--sync always`), two tenants with
//! one closed-loop client each, inserts and retracts against a maintained
//! reach view, then kill -9 restarts on the same data directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use idlog_core::service::{render_answers, FactValue, Request, Response, RunRequest};
use idlog_core::{
    Database, EvalOptions, FactDelta, Interner, MaintainOutcome, Materialized, Query, SymbolId,
    Tuple,
};
use idlog_server::durability::encode_record;
use idlog_server::{SyncPolicy, TenantStore, WalRecord};

use crate::gen::{reach_program, MaintainOp, MaintainStream, MAINTAIN_CYCLE_OPS};
use crate::harness::{repeat_setup, Env};
use crate::reference::check_reach_answers;
use crate::report::Outcome;
use crate::serve::{
    answers_of, attribute, check_ack, disk_bytes, edge_line, op_index, per_client, ping_rtt_us,
    run_line, Client, ClientLog, Server, CHECKPOINT_EVERY,
};
use crate::stats::median;
use crate::trace::Tracer;

const TENANTS: usize = 2;

/// Cycles per tenant per second of `--seconds`, sized on the reference
/// sandbox so the cycle phase fills about two thirds of the run and the
/// restarts the rest.
const CYCLES_PER_SECOND: f64 = 3.5;
const RESTARTS: usize = 10;

fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

fn reach_line(tenant: &str, stream: &MaintainStream) -> String {
    run_line(RunRequest::new(
        tenant,
        &reach_program(&stream.sources),
        "reach",
    ))
}

/// The generated request streams, one per tenant.
struct Plan {
    streams: Vec<MaintainStream>,
}

impl Plan {
    fn generate(env: &Env, cycles: usize, restarts: usize) -> Plan {
        let n = env.size(2000, 40) as u32;
        let m = env.size(3000, 60);
        let streams = (0..TENANTS)
            .map(|t| MaintainStream::generate(env.seed, t, n, m, 4, cycles, restarts))
            .collect();
        Plan { streams }
    }
}

/// A set-up server: both tenants preloaded, both views built and checked.
struct Live {
    server: Server,
    clients: Vec<Client>,
    data_dir: PathBuf,
}

fn connect_all(server: &Server) -> Result<Vec<Client>, String> {
    (0..TENANTS)
        .map(|_| Client::connect(&server.addr))
        .collect()
}

/// Spawn on an empty data directory, preload each tenant's DAG through its
/// own client (in parallel), then build each view with one checked `run`.
fn set_up(env: &Env, plan: &Plan) -> Result<(Live, f64), String> {
    // A fresh directory per set-up, all removed with the work directory at
    // the end: deleting files just before timing fsyncs would have the
    // file system's own clean-up (journal, discard) in the measurement.
    let data_dir = (0..)
        .map(|i| env.path(&format!("data-{i}")))
        .find(|dir| !dir.exists())
        .expect("an unused directory name");
    let server = Server::spawn(env, Some(&data_dir))?;
    let mut clients = connect_all(&server)?;
    let started = Instant::now();
    per_client(&mut clients, &plan.streams, |t, client, stream| {
        let tenant = tenant_name(t);
        for &(a, b) in &stream.preload {
            let (r, _) = client.call(&edge_line(true, &tenant, a, b))?;
            check_ack(&r)?;
        }
        Ok(())
    })?;
    let preload_s = started.elapsed().as_secs_f64();
    for (t, (client, stream)) in clients.iter_mut().zip(&plan.streams).enumerate() {
        let (r, _) = client.call(&reach_line(&tenant_name(t), stream))?;
        check_reach_answers(answers_of(&r)?, &stream.expected_after_preload)
            .map_err(|e| format!("view build on tenant{t}: {e}"))?;
    }
    let live = Live {
        server,
        clients,
        data_dir,
    };
    Ok((live, preload_s))
}

/// One tenant's cycle phase: the stream in order, every reply checked
/// against the reference kept from the acknowledged edge set.
fn run_cycles(
    client: &mut Client,
    tenant: &str,
    stream: &MaintainStream,
) -> Result<ClientLog, String> {
    let (write, read_inc, read_dred, read_hit) = (
        op_index("write"),
        op_index("read_inc"),
        op_index("read_dred"),
        op_index("read_hit"),
    );
    let run = reach_line(tenant, stream);
    let lines: Vec<Option<String>> = stream
        .cycle_ops
        .iter()
        .map(|op| match *op {
            MaintainOp::Insert(a, b) => Some(edge_line(true, tenant, a, b)),
            MaintainOp::Retract(a, b) => Some(edge_line(false, tenant, a, b)),
            MaintainOp::Run(_) => None,
        })
        .collect();
    let mut log = ClientLog::default();
    let mut next_read = read_hit;
    let started = Instant::now();
    for (cycle_ops, cycle_lines) in stream
        .cycle_ops
        .chunks(MAINTAIN_CYCLE_OPS)
        .zip(lines.chunks(MAINTAIN_CYCLE_OPS))
    {
        let cycle_started = Instant::now();
        for (op, line) in cycle_ops.iter().zip(cycle_lines) {
            match op {
                MaintainOp::Insert(..) | MaintainOp::Retract(..) => {
                    let (r, ms) = client.call(line.as_deref().expect("rendered above"))?;
                    log.record(write, ms, &r, check_ack(&r));
                    next_read = if matches!(op, MaintainOp::Insert(..)) {
                        read_inc
                    } else {
                        read_dred
                    };
                }
                MaintainOp::Run(i) => {
                    let (r, ms) = client.call(&run)?;
                    let verdict =
                        answers_of(&r).and_then(|a| check_reach_answers(a, &stream.expected[*i]));
                    log.record(next_read, ms, &r, verdict);
                    next_read = read_hit;
                }
            }
        }
        log.cycle_s.push(cycle_started.elapsed().as_secs_f64());
    }
    Ok(log.finish(started.elapsed().as_secs_f64()))
}

/// Both tenants' cycle phases in parallel, merged.
fn cycle_phase(live: &mut Live, plan: &Plan) -> Result<ClientLog, String> {
    let logs = per_client(&mut live.clients, &plan.streams, |t, client, stream| {
        run_cycles(client, &tenant_name(t), stream)
    })?;
    Ok(ClientLog::merge(logs))
}

/// Bytes of the live facts rendered as `e(va, vb).\n` lines.
fn user_bytes(plan: &Plan) -> u64 {
    plan.streams
        .iter()
        .flat_map(|s| &s.edges_after_cycles)
        .map(|(a, b)| format!("e(v{a}, v{b}).\n").len() as u64)
        .sum()
}

/// The kill -9 restarts: acknowledge a few more writes, SIGKILL, respawn on
/// the same directory, and require every tenant's `stats.facts` and answer
/// to equal the acknowledged prefix. Returns spawn → last verified answer
/// per restart, and the largest peak RSS of the killed servers.
///
/// kill -9 cannot discard the OS page cache, so this checks the recovery
/// path, not fsync; torn and unflushed writes are tier-1's failpoint tests.
fn restart_phase(
    env: &Env,
    live: Live,
    plan: &Plan,
    o: &mut Outcome,
) -> Result<(Vec<f64>, u64), String> {
    let Live {
        mut server,
        mut clients,
        data_dir,
    } = live;
    let restarts = plan.streams[0].restarts.len();
    let mut restart_s = Vec::with_capacity(restarts);
    let mut peak_kb = 0;
    for k in 0..restarts {
        for (t, (client, stream)) in clients.iter_mut().zip(&plan.streams).enumerate() {
            let tenant = tenant_name(t);
            for op in &stream.restarts[k].0 {
                let line = match *op {
                    MaintainOp::Insert(a, b) => edge_line(true, &tenant, a, b),
                    MaintainOp::Retract(a, b) => edge_line(false, &tenant, a, b),
                    MaintainOp::Run(_) => continue,
                };
                let (r, _) = client.call(&line)?;
                o.op("write before kill", check_ack(&r));
            }
        }
        drop(clients);
        peak_kb = peak_kb.max(server.kill()?.max_rss_kb);
        let started = Instant::now();
        server = Server::spawn(env, Some(&data_dir))?;
        clients = connect_all(&server)?;
        for (t, (client, stream)) in clients.iter_mut().zip(&plan.streams).enumerate() {
            let tenant = tenant_name(t);
            let (_, want_facts, want_answers) = &stream.restarts[k];
            let stats = Request::Stats {
                tenant: tenant.clone(),
            };
            let (r, _) = client.call(&stats.to_json())?;
            o.op(
                "stats after kill -9",
                if r.facts == Some(*want_facts) {
                    Ok(())
                } else {
                    Err(format!(
                        "{tenant} recovered {:?} facts, acknowledged {want_facts}",
                        r.facts
                    ))
                },
            );
            let (r, _) = client.call(&reach_line(&tenant, stream))?;
            o.op(
                "run after kill -9",
                answers_of(&r).and_then(|a| check_reach_answers(a, want_answers)),
            );
        }
        restart_s.push(started.elapsed().as_secs_f64());
    }
    peak_kb = peak_kb.max(server.kill()?.max_rss_kb);
    Ok((restart_s, peak_kb))
}

pub fn end_to_end(env: &Env) -> Result<Outcome, String> {
    let cycles = env.count(CYCLES_PER_SECOND, 8);
    let plan = Plan::generate(env, cycles, if env.smoke { 2 } else { RESTARTS });
    let ((mut live, _), setup_times) = repeat_setup(env.smoke, || set_up(env, &plan))?;
    let cpu_before = live.server.cpu_seconds()?;
    let log = cycle_phase(&mut live, &plan)?;
    let cpu = live.server.cpu_seconds()? - cpu_before;
    let mut o = log.end_to_end(cpu);
    o.samples("setup_s", &setup_times);
    let (_, peak_kb) = restart_phase(env, live, &plan, &mut o)?;
    o.value("peak_rss_mb", peak_kb as f64 / 1024.0);
    Ok(o)
}

/// One tenant as the server holds it, rebuilt from the crates' public
/// items so each layer can be timed on its own.
struct Replica {
    interner: Arc<Interner>,
    db: Database,
    store: TenantStore,
    dir: PathBuf,
    view: Materialized,
    /// Changes the view has not seen yet.
    pending: Vec<(SymbolId, Tuple)>,
    build_ms: f64,
    /// Exact counts over the tenant's whole life, preload included.
    records: u64,
    wal_bytes: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    /// Every checkpoint's duration; most happen during the preload.
    checkpoint_ms: Vec<f64>,
    applies: u64,
    recomputed: u64,
    answers: u64,
}

impl Replica {
    /// Open an empty durable tenant, preload it untraced (the server's
    /// write path, checkpoints included), and build the view.
    fn open(dir: &Path, tenant: &str, stream: &MaintainStream) -> Result<Replica, String> {
        let _ = std::fs::remove_dir_all(dir);
        let (store, _) =
            TenantStore::open(dir, SyncPolicy::Always).map_err(|e| format!("store open: {e}"))?;
        let interner = Arc::new(Interner::new());
        let db = Database::with_interner(Arc::clone(&interner));
        let query = Query::parse_with_interner(
            &reach_program(&stream.sources),
            "reach",
            Arc::clone(&interner),
        )
        .map_err(|e| e.to_string())?;
        let build = |db: &Database| {
            Materialized::build(query.related_program(), db, &EvalOptions::new())
                .map_err(|e| e.to_string())
        };
        let mut r = Replica {
            view: build(&db)?,
            interner,
            db,
            store,
            dir: dir.to_path_buf(),
            pending: Vec::new(),
            build_ms: 0.0,
            records: 0,
            wal_bytes: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            checkpoint_ms: Vec::new(),
            applies: 0,
            recomputed: 0,
            answers: 0,
        };
        let mut untraced = Tracer::new();
        for &(a, b) in &stream.preload {
            r.write(&mut untraced, &edge_line(true, tenant, a, b))?;
        }
        let started = Instant::now();
        r.view = build(&r.db)?;
        r.build_ms = started.elapsed().as_secs_f64() * 1e3;
        r.pending.clear();
        Ok(r)
    }

    /// An insert or retract, in the server's order: parse, change the
    /// database, append to the WAL (fsync), checkpoint when due, render.
    fn write(&mut self, tr: &mut Tracer, line: &str) -> Result<(), String> {
        let root = tr.begin("write");
        let (insert, pred, tuple) = match tr.time("core.service.parse", || Request::parse(line))? {
            Request::Insert { pred, tuple, .. } => (true, pred, tuple),
            Request::Retract { pred, tuple, .. } => (false, pred, tuple),
            other => return Err(format!("not a write: {other:?}")),
        };
        let values: Tuple = tuple.iter().map(|v| v.to_value(&self.interner)).collect();
        let changed = tr.time("storage.db_insert", || {
            if insert {
                self.db.insert(&pred, values.clone()).map(|()| true)
            } else {
                self.db.retract(&pred, &values)
            }
        });
        if !changed.map_err(|e| e.to_string())? {
            return Err(format!("replayed write changed nothing: {line}"));
        }
        let record = if insert {
            WalRecord::Insert {
                pred: pred.clone(),
                tuple,
            }
        } else {
            WalRecord::Retract {
                pred: pred.clone(),
                tuple,
            }
        };
        self.wal_bytes += encode_record(self.store.version() + 1, &record).len() as u64;
        tr.time("server.durability.append", || self.store.append(&record))
            .map_err(|e| e.message)?;
        self.records += 1;
        self.pending.push((self.interner.intern(&pred), values));
        if self.store.since_checkpoint() >= CHECKPOINT_EVERY {
            tr.time("server.durability.checkpoint", || self.checkpoint())?;
        }
        let response = Response {
            changed: Some(true),
            facts: Some(self.db.fact_count() as u64),
            version: Some(self.store.version()),
            ..Response::ok()
        };
        std::hint::black_box(tr.time("core.service.render", || response.to_json()));
        tr.exit(root);
        Ok(())
    }

    /// Snapshot every fact in canonical order and hand it to the store, as
    /// the server does under the tenant lock.
    fn checkpoint(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let mut preds: Vec<(String, &idlog_core::Relation)> = self
            .db
            .iter()
            .map(|(id, rel)| (self.interner.resolve(id), rel))
            .collect();
        preds.sort_by(|a, b| a.0.cmp(&b.0));
        let mut facts = Vec::new();
        for (name, rel) in preds {
            for tuple in rel.sorted_canonical(&self.interner) {
                let values = tuple
                    .values()
                    .iter()
                    .map(|v| match v {
                        idlog_core::Value::Sym(id) => FactValue::Sym(self.interner.resolve(*id)),
                        idlog_core::Value::Int(n) => FactValue::Int(*n),
                    })
                    .collect();
                facts.push((name.clone(), values));
            }
        }
        let version = self.store.version();
        self.store
            .checkpoint(version, &facts)
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.checkpoint_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        self.checkpoints += 1;
        self.checkpoint_bytes += std::fs::metadata(self.dir.join("checkpoint.snap"))
            .map(|m| m.len())
            .unwrap_or(0);
        Ok(())
    }

    /// A `run` of the view: parse, bring the view up to date with the net
    /// change since it last synced, render the answers.
    fn run(
        &mut self,
        tr: &mut Tracer,
        op: &'static str,
        line: &str,
    ) -> Result<Vec<String>, String> {
        let root = tr.begin(op);
        tr.time("core.service.parse", || Request::parse(line))?;
        let mut delta = FactDelta::default();
        for (pred, tuple) in self.pending.drain(..) {
            let present = self
                .db
                .relation_by_id(pred)
                .is_some_and(|r| r.contains(&tuple));
            if present {
                delta.inserts.push((pred, tuple));
            } else {
                delta.retracts.push((pred, tuple));
            }
        }
        if !delta.is_empty() {
            let outcome = tr
                .time("core.maintain.apply", || self.view.apply(&self.db, &delta))
                .map_err(|e| e.to_string())?;
            self.applies += 1;
            self.recomputed += u64::from(outcome == MaintainOutcome::Recomputed);
        }
        let render = tr.enter("core.service.render");
        let answers = self
            .view
            .relation("reach")
            .map(|rel| render_answers(rel, &self.interner))
            .unwrap_or_default();
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

/// The same records under `--sync never`, for the fsync share.
fn append_nosync_us(dir: &Path, tenant: &str, stream: &MaintainStream) -> Result<Vec<f64>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _) =
        TenantStore::open(dir, SyncPolicy::Never).map_err(|e| format!("store open: {e}"))?;
    let mut us = Vec::new();
    for &(a, b) in stream.preload.iter().take(CHECKPOINT_EVERY as usize) {
        let Request::Insert { pred, tuple, .. } = Request::parse(&edge_line(true, tenant, a, b))?
        else {
            unreachable!("edge_line renders an insert");
        };
        let record = WalRecord::Insert { pred, tuple };
        let started = Instant::now();
        store.append(&record).map_err(|e| e.message)?;
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(us)
}

/// The traced run: a real pass over the first quarter of the op stream for
/// the end-to-end side, then the same requests in-process, one span per
/// layer, plus the durability layer's own numbers.
pub fn traced(env: &Env, tr: &mut Tracer) -> Result<Outcome, String> {
    let cycles = (env.count(CYCLES_PER_SECOND, 8) / 4).max(8);
    let plan = Plan::generate(env, cycles, if env.smoke { 2 } else { 3 });
    let (mut live, preload_s) = set_up(env, &plan)?;
    let ping_us = ping_rtt_us(&mut live.clients[0])?;
    let mut o = cycle_phase(&mut live, &plan)?.per_layer();
    o.samples("server.ping_rtt_us", &ping_us);
    let preloaded: usize = plan.streams.iter().map(|s| s.preload.len()).sum();
    o.value("server.preload_inserts_per_s", preloaded as f64 / preload_s);
    o.value(
        "server.durability.disk_bytes_per_user_byte",
        disk_bytes(&live.data_dir) as f64 / user_bytes(&plan) as f64,
    );
    let (restart_s, _) = restart_phase(env, live, &plan, &mut o)?;
    o.samples("server.restart_s", &restart_s);

    let mut replicas = Vec::new();
    for (t, stream) in plan.streams.iter().enumerate() {
        let tenant = tenant_name(t);
        let run = reach_line(&tenant, stream);
        let mut r = Replica::open(&env.path(&format!("replica{t}")), &tenant, stream)?;
        let mut next_read = "read_hit";
        for op in &stream.cycle_ops {
            match *op {
                MaintainOp::Insert(a, b) => {
                    r.write(tr, &edge_line(true, &tenant, a, b))?;
                    next_read = "read_inc";
                }
                MaintainOp::Retract(a, b) => {
                    r.write(tr, &edge_line(false, &tenant, a, b))?;
                    next_read = "read_dred";
                }
                MaintainOp::Run(i) => {
                    let answers = r.run(tr, next_read, &run)?;
                    o.op(
                        "in-process replay",
                        check_reach_answers(&answers, &stream.expected[i]),
                    );
                    next_read = "read_hit";
                }
            }
        }
        replicas.push(r);
    }

    let sum = |f: fn(&Replica) -> u64| -> u64 { replicas.iter().map(f).sum() };
    let spans = |name: &str, op: Option<&str>, per_ms: f64| tr.durations(name, op, per_ms);
    let build_ms = median(&replicas.iter().map(|r| r.build_ms).collect::<Vec<_>>());
    o.value("core.maintain.build_ms", build_ms);
    let apply = |op| spans("core.maintain.apply", Some(op), 1.0);
    o.samples("core.maintain.apply_insert_ms", &apply("read_inc"));
    o.samples("core.maintain.apply_retract_ms", &apply("read_dred"));
    o.value(
        "core.maintain.retract_over_rebuild",
        o.median_of("core.maintain.apply_retract_ms") / build_ms,
    );
    o.value(
        "core.maintain.recompute_share",
        sum(|r| r.recomputed) as f64 / sum(|r| r.applies).max(1) as f64,
    );
    o.samples(
        "core.service.request_parse_us",
        &spans("core.service.parse", None, 1e3),
    );
    o.samples(
        "core.service.response_render_us",
        &spans("core.service.render", None, 1e3),
    );
    let run_render_ns: f64 = ["read_inc", "read_dred", "read_hit"]
        .iter()
        .flat_map(|op| spans("core.service.render", Some(op), 1e6))
        .sum();
    o.value(
        "core.service.render_ns_per_answer",
        run_render_ns / sum(|r| r.answers).max(1) as f64,
    );
    o.samples(
        "server.durability.append_sync_us",
        &spans("server.durability.append", None, 1e3),
    );
    let nosync = append_nosync_us(&env.path("replica-nosync"), "tenant0", &plan.streams[0])?;
    o.samples("server.durability.append_nosync_us", &nosync);
    o.value(
        "server.durability.fsync_share",
        1.0 - median(&nosync) / o.median_of("server.durability.append_sync_us"),
    );
    let checkpoint_ms: Vec<f64> = replicas
        .iter()
        .flat_map(|r| r.checkpoint_ms.iter().copied())
        .collect();
    o.samples("server.durability.checkpoint_ms", &checkpoint_ms);
    o.count("server.durability.checkpoints", sum(|r| r.checkpoints));
    o.count("server.durability.wal_bytes", sum(|r| r.wal_bytes));
    o.count(
        "server.durability.checkpoint_bytes",
        sum(|r| r.checkpoint_bytes),
    );
    o.value(
        "server.durability.wal_bytes_per_record",
        sum(|r| r.wal_bytes) as f64 / sum(|r| r.records).max(1) as f64,
    );
    let (mut recover_ms, mut recovered) = (Vec::new(), 0u64);
    for r in replicas {
        let dir = r.dir.clone();
        drop(r);
        for pass in 0..5 {
            let started = Instant::now();
            let (_, recovery) = TenantStore::open(&dir, SyncPolicy::Always)
                .map_err(|e| format!("recovery: {e}"))?;
            recover_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if pass == 0 {
                recovered += recovery.ops.len() as u64;
            }
        }
    }
    o.samples("server.durability.recover_ms", &recover_ms);
    o.count("server.durability.recovered_records", recovered);
    attribute(&mut o, tr);
    Ok(o)
}
