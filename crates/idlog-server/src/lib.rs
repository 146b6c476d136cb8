//! The IDLOG service: a thread-pooled TCP line-protocol server holding
//! per-tenant databases resident across requests.
//!
//! Each connection speaks the [`idlog_core::service`] protocol: one JSON
//! request per line in, one JSON response per line out. The server keeps,
//! per tenant, a [`Database`], a shared [`Interner`], and a prepared-query
//! cache; plain `run` requests are served from an incrementally maintained
//! [`Materialized`] model (DRed-style delete-and-rederive on `retract`,
//! semi-naive delta rounds on `insert`), while seeded, enumerating, or
//! resource-limited requests evaluate fresh over a snapshot — off the
//! tenant lock, so slow queries don't block the tenant's writers.
//!
//! Started with a data directory ([`ServerConfig::data_dir`]), every
//! tenant is **crash-safe**: each acknowledged insert/retract is appended
//! to a per-tenant write-ahead log (and fsynced per the
//! [`SyncPolicy`]) *before* the acknowledgement, periodic [checkpoint
//! snapshots](durability::TenantStore::checkpoint) bound recovery work,
//! and reopening the same directory replays the log — truncating any torn
//! tail a crash left behind — to exactly the acknowledged prefix.
//!
//! The accept loop applies **admission control**: connections beyond the
//! worker pool queue up to [`ServerConfig::queue_depth`]; past that they
//! are shed immediately with an `overloaded` error carrying a
//! `retry_after_ms` hint, rather than letting latency grow without bound.
//!
//! Answers are rendered from relation *content* only
//! ([`idlog_core::service::render_answers`]), so a served response is
//! byte-identical to what a direct single-threaded [`idlog_core::Session`]
//! evaluation
//! of the same program over the same facts would print, whichever path —
//! materialized, incremental, recomputed, or fresh — produced it.

#![warn(missing_docs)]

pub mod durability;

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use idlog_core::service::{
    negotiate_schema, render_answers, FactValue, Request, Response, RunRequest, ServeMode,
};
use idlog_core::{
    EnumBudget, ErrorCode, EvalOptions, FactDelta, Interner, MaintainOutcome, Materialized, Query,
    SeededOracle, SymbolId, Tuple, Value,
};
use idlog_storage::{Database, Relation};

pub use durability::{SyncPolicy, TenantStore, WalRecord};

/// Default worker-thread count for [`Server::run`].
pub const DEFAULT_WORKERS: usize = 16;

/// Default bound on connections waiting for a worker; beyond it new
/// connections are shed with an `overloaded` error.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Default WAL-records-per-checkpoint interval.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// The `retry_after_ms` hint sent with a shed connection's `overloaded`
/// error: long enough for a queued request to drain, short enough that a
/// retrying client converges quickly.
pub const RETRY_AFTER_MS: u64 = 100;

/// Change-log ceiling per tenant. A cached view that falls further behind
/// than this is evicted (it rebuilds from the database on next use) so the
/// log can compact — otherwise one never-requeried view would pin every
/// `(pred, tuple)` change a long-running tenant ever makes.
const MAX_LOG: usize = 1 << 12;

/// Prepared-query cache ceiling per tenant; beyond it the least-recently
/// used entry is evicted. Bounds server memory against clients that submit
/// unbounded distinct program texts.
const MAX_PREPARED: usize = 64;

/// Server construction options beyond the bind address.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root directory for durable tenant state. `None` serves in-memory
    /// only (tenant state dies with the process).
    pub data_dir: Option<PathBuf>,
    /// When the WAL is fsynced, for servers with a `data_dir`.
    pub sync: SyncPolicy,
    /// Connections allowed to wait for a worker before new arrivals are
    /// shed with `overloaded`.
    pub queue_depth: usize,
    /// WAL records between checkpoint snapshots.
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            data_dir: None,
            sync: SyncPolicy::default(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// A compiled query cached for a tenant, optionally with a maintained
/// materialized model.
struct Prepared {
    /// The compiled query, with the certificates it was compiled under.
    /// Its termination certificate decides the serving strategy: only a
    /// termination-certified entry is admitted to resident materialization
    /// (an uncertified query could hold the tenant lock indefinitely, since
    /// cached serving carries no per-request deadline).
    query: Query,
    view: Option<Materialized>,
    /// Change-log version the view reflects.
    synced: u64,
    /// Tenant clock value of the last request that used this entry; the
    /// eviction order of the prepared cache.
    last_used: u64,
}

/// One tenant: a database, its interner, the prepared-query cache, a
/// change log driving incremental view maintenance, and (on durable
/// servers) the WAL/checkpoint store.
struct Tenant {
    interner: Arc<Interner>,
    db: Database,
    prepared: HashMap<(String, String), Prepared>,
    /// Touched `(predicate, tuple)` pairs since `log_base`, in change
    /// order. Views sync by replaying their unseen suffix; the current
    /// database decides each pair's net direction, so interleaved
    /// insert/retract sequences collapse correctly.
    log: Vec<(SymbolId, Tuple)>,
    /// Version number of `log[0]`.
    log_base: u64,
    /// Version after the latest change.
    version: u64,
    /// Monotonic request counter driving prepared-cache LRU eviction.
    clock: u64,
    /// The WAL/checkpoint store, on durable servers.
    store: Option<TenantStore>,
    /// Where (and how) this tenant persists — kept so a poison repair can
    /// re-run recovery from scratch.
    durable: Option<(PathBuf, SyncPolicy)>,
    /// When set, the tenant's disk state may not match memory (a
    /// durability double-fault): every change/run is refused with this
    /// reason until a restart re-runs recovery.
    quarantined: Option<String>,
}

impl Tenant {
    /// Build a tenant, recovering durable state when a directory is given.
    /// A failure to open or replay quarantines the tenant (clean wire
    /// errors) instead of panicking a worker.
    fn open(durable: Option<(PathBuf, SyncPolicy)>) -> Tenant {
        let interner = Arc::new(Interner::new());
        let mut tenant = Tenant {
            db: Database::with_interner(interner.clone()),
            interner,
            prepared: HashMap::new(),
            log: Vec::new(),
            log_base: 0,
            version: 0,
            clock: 0,
            store: None,
            durable: durable.clone(),
            quarantined: None,
        };
        if let Some((dir, policy)) = durable {
            match TenantStore::open(&dir, policy) {
                Ok((store, recovery)) => match tenant.replay(&recovery.ops) {
                    Ok(()) => tenant.store = Some(store),
                    Err(e) => tenant.quarantined = Some(format!("recovery replay failed: {e}")),
                },
                Err(e) => tenant.quarantined = Some(format!("durable store open failed: {e}")),
            }
        }
        tenant
    }

    /// Apply recovered records, in original order, to the empty database.
    fn replay(&mut self, ops: &[WalRecord]) -> Result<(), String> {
        for op in ops {
            match op {
                WalRecord::Insert { pred, tuple } => {
                    let values: Tuple = tuple.iter().map(|v| v.to_value(&self.interner)).collect();
                    if self.db.relation(pred).is_some_and(|r| r.contains(&values)) {
                        continue;
                    }
                    self.db.insert(pred, values).map_err(|e| e.to_string())?;
                }
                WalRecord::Retract { pred, tuple } => {
                    let values: Tuple = tuple.iter().map(|v| v.to_value(&self.interner)).collect();
                    self.db.retract(pred, &values).map_err(|e| e.to_string())?;
                }
                // No durable-program surface yet; the kind exists so the
                // WAL encoding doesn't change when one lands.
                WalRecord::SetProgram { .. } => {}
            }
        }
        Ok(())
    }

    /// Put a tenant whose mutex was poisoned back into a coherent state.
    ///
    /// On a durable server the WAL is the source of truth: every acked
    /// change is on disk (WAL-before-ack) and the interrupted one is not,
    /// so re-running recovery rebuilds exactly the acknowledged state.
    /// In-memory tenants keep their database (storage mutations are
    /// complete-or-absent) and drop the derived state — views and the
    /// change log — which the interrupted request may have left stale.
    fn repair(&mut self) {
        match self.durable.clone() {
            Some(durable) => *self = Tenant::open(Some(durable)),
            None => {
                self.prepared.clear();
                self.log.clear();
                self.log_base = self.version;
            }
        }
    }

    /// The version reported on the wire: the WAL sequence on durable
    /// servers, the in-memory change counter otherwise.
    fn durable_version(&self) -> u64 {
        self.store
            .as_ref()
            .map(|s| s.version())
            .unwrap_or(self.version)
    }

    fn fact_value(&self, v: &Value) -> FactValue {
        match v {
            Value::Sym(id) => FactValue::Sym(self.interner.resolve(*id)),
            Value::Int(n) => FactValue::Int(*n),
        }
    }

    /// Every EDB fact, predicate-sorted and canonically ordered — the
    /// checkpoint payload.
    fn snapshot_facts(&self) -> Vec<(String, Vec<FactValue>)> {
        let mut preds: Vec<(String, &Relation)> = self
            .db
            .iter()
            .map(|(id, rel)| (self.interner.resolve(id), rel))
            .collect();
        preds.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        for (name, rel) in preds {
            for tuple in rel.sorted_canonical(&self.interner) {
                out.push((
                    name.clone(),
                    tuple.values().iter().map(|v| self.fact_value(v)).collect(),
                ));
            }
        }
        out
    }

    fn record_change(&mut self, pred: SymbolId, tuple: Tuple) {
        self.log.push((pred, tuple));
        self.version += 1;
    }

    /// Drop log entries every live view has already replayed. With no live
    /// view the whole log goes; a view lagging more than [`MAX_LOG`]
    /// changes behind is evicted rather than allowed to pin the log.
    fn compact_log(&mut self) {
        loop {
            let min_synced = self
                .prepared
                .values()
                .filter(|p| p.view.is_some())
                .map(|p| p.synced)
                .min()
                .unwrap_or(self.version);
            let drop = (min_synced - self.log_base) as usize;
            if drop > 0 {
                self.log.drain(..drop);
                self.log_base = min_synced;
            }
            if self.log.len() <= MAX_LOG {
                return;
            }
            // The log only stays over the ceiling while some stale view
            // pins it; dropping the stalest views lets the next pass
            // compact further (they rebuild from the database on next use).
            for p in self.prepared.values_mut() {
                if p.view.is_some() && p.synced == min_synced {
                    p.view = None;
                }
            }
        }
    }

    /// The net [`FactDelta`] between log version `from` and the current
    /// database: each touched pair becomes an insert if the database holds
    /// it now, a retract otherwise. The storage-layer change flags inside
    /// [`Materialized::apply`] make replay idempotent, so pairs the view
    /// already agrees on are no-ops.
    fn delta_since(&self, from: u64) -> FactDelta {
        let mut delta = FactDelta::default();
        let mut seen: std::collections::HashSet<(SymbolId, Tuple)> =
            std::collections::HashSet::new();
        let start = (from - self.log_base) as usize;
        for (pred, tuple) in &self.log[start..] {
            if !seen.insert((*pred, tuple.clone())) {
                continue;
            }
            let name = self.interner.resolve(*pred);
            let present = self.db.relation(&name).is_some_and(|r| r.contains(tuple));
            if present {
                delta.inserts.push((*pred, tuple.clone()));
            } else {
                delta.retracts.push((*pred, tuple.clone()));
            }
        }
        delta
    }

    /// Serve a materializable `run` from the cached view, building or
    /// syncing it first.
    fn serve_materialized(&mut self, key: &(String, String), r: &RunRequest) -> Response {
        let version = self.version;
        let delta = {
            let entry = self.prepared.get(key).expect("entry inserted by caller");
            match &entry.view {
                Some(_) if entry.synced < version => Some(self.delta_since(entry.synced)),
                _ => None,
            }
        };
        let entry = self
            .prepared
            .get_mut(key)
            .expect("entry inserted by caller");
        let mode = match &mut entry.view {
            None => {
                let mut opts = EvalOptions::new();
                if let Some(t) = r.threads {
                    opts = opts.threads(t);
                }
                if let Some(b) = r.backend {
                    opts = opts.backend(b);
                }
                match Materialized::build(entry.query.related_program(), &self.db, &opts) {
                    Ok(view) => {
                        entry.view = Some(view);
                        entry.synced = version;
                        ServeMode::Recomputed
                    }
                    Err(e) => return Response::error(e.code(), e.to_string()),
                }
            }
            Some(view) => match delta {
                None => ServeMode::Materialized,
                Some(delta) => match view.apply(&self.db, &delta) {
                    Ok(outcome) => {
                        entry.synced = version;
                        match outcome {
                            MaintainOutcome::Unchanged => ServeMode::Materialized,
                            MaintainOutcome::Incremental => ServeMode::Incremental,
                            MaintainOutcome::Recomputed => ServeMode::Recomputed,
                        }
                    }
                    Err(e) => {
                        // apply() may have mutated the view's own inputs
                        // before failing (e.g. builtin overflow mid-
                        // propagation); keeping it would make the next
                        // delta replay a no-op against stale IDB state and
                        // serve silently wrong answers. Drop the view — the
                        // next materializable request rebuilds it from the
                        // database, the source of truth.
                        entry.view = None;
                        return Response::error(e.code(), e.to_string());
                    }
                },
            },
        };
        let answers = entry
            .view
            .as_ref()
            .expect("view built above")
            .relation(&r.output)
            .map(|rel| render_answers(rel, &self.interner))
            .unwrap_or_default();
        self.compact_log();
        // Cached serving runs to fixpoint with no request limits, so the
        // answer is always the complete relation.
        Response {
            answers: Some(answers),
            complete: Some(true),
            mode: Some(mode),
            ..Response::ok()
        }
    }
}

/// Lock a tenant, repairing it first if a previous holder panicked: the
/// poison flag is cleared and [`Tenant::repair`] restores coherence
/// (durable tenants re-run recovery; in-memory tenants drop derived
/// state). No request ever sees a half-updated tenant.
fn lock_tenant(arc: &Arc<Mutex<Tenant>>) -> MutexGuard<'_, Tenant> {
    match arc.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            arc.clear_poison();
            let mut t = poisoned.into_inner();
            t.repair();
            t
        }
    }
}

/// The tenant registry plus the shutdown flag — the state every worker
/// thread shares.
struct Registry {
    tenants: Mutex<HashMap<String, Arc<Mutex<Tenant>>>>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Registry {
    #[cfg(test)]
    fn new() -> Registry {
        Registry::with_config(ServerConfig::default())
    }

    fn with_config(config: ServerConfig) -> Registry {
        Registry {
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    fn tenant(&self, name: &str) -> Arc<Mutex<Tenant>> {
        // The registry map is insert-only and each operation is atomic, so
        // a panic elsewhere under this lock cannot leave it incoherent.
        let mut tenants = match self.tenants.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.tenants.clear_poison();
                poisoned.into_inner()
            }
        };
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        let durable = self
            .config
            .data_dir
            .as_ref()
            .map(|d| (durability::tenant_dir(d, name), self.config.sync));
        let tenant = Arc::new(Mutex::new(Tenant::open(durable)));
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        tenant
    }

    fn handle(&self, req: Request) -> Response {
        match req {
            Request::Ping { schema } => match negotiate_schema(schema.as_deref()) {
                Ok(agreed) => Response {
                    schema: Some(agreed.to_string()),
                    ..Response::ok()
                },
                Err(e) => Response::error(ErrorCode::Protocol, e),
            },
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ok()
            }
            Request::Stats { tenant } => {
                let tenant = self.tenant(&tenant);
                let t = lock_tenant(&tenant);
                Response {
                    facts: Some(t.db.fact_count() as u64),
                    queries: Some(t.prepared.len() as u64),
                    version: Some(t.durable_version()),
                    ..Response::ok()
                }
            }
            Request::Insert {
                tenant,
                pred,
                tuple,
            } => self.change(&tenant, &pred, &tuple, true),
            Request::Retract {
                tenant,
                pred,
                tuple,
            } => self.change(&tenant, &pred, &tuple, false),
            Request::Run(r) => self.run(r),
        }
    }

    fn quarantined(reason: &str) -> Response {
        Response::error(
            ErrorCode::Internal,
            format!("tenant quarantined: {reason}; restart the server to run recovery"),
        )
    }

    fn change(&self, tenant: &str, pred: &str, tuple: &[FactValue], insert: bool) -> Response {
        let tenant = self.tenant(tenant);
        let mut t = lock_tenant(&tenant);
        if let Some(reason) = t.quarantined.clone() {
            return Self::quarantined(&reason);
        }
        let values: Tuple = tuple.iter().map(|v| v.to_value(&t.interner)).collect();
        let changed = if insert {
            if t.db.relation(pred).is_some_and(|r| r.contains(&values)) {
                false
            } else if let Err(e) = t.db.insert(pred, values.clone()) {
                return Response::error(ErrorCode::Input, e.to_string());
            } else {
                true
            }
        } else {
            match t.db.retract(pred, &values) {
                Ok(changed) => changed,
                Err(e) => return Response::error(ErrorCode::Input, e.to_string()),
            }
        };
        if changed {
            // WAL-before-ack: the change only becomes visible (and the
            // response only acknowledges it) once the record is durable.
            if t.store.is_some() {
                let record = if insert {
                    WalRecord::Insert {
                        pred: pred.to_string(),
                        tuple: tuple.to_vec(),
                    }
                } else {
                    WalRecord::Retract {
                        pred: pred.to_string(),
                        tuple: tuple.to_vec(),
                    }
                };
                if let Err(e) = t.store.as_mut().expect("checked above").append(&record) {
                    if e.quarantine {
                        // Disk state is unknown (e.g. a torn write or a
                        // failed truncate-back): refuse further traffic
                        // until a restart re-runs recovery.
                        t.quarantined = Some(e.message.clone());
                        return Self::quarantined(&e.message);
                    }
                    // The append was cleanly undone on disk; undo it in
                    // memory too and report an unacknowledged write.
                    if insert {
                        let _ = t.db.retract(pred, &values);
                    } else {
                        let _ = t.db.insert(pred, values.clone());
                    }
                    return Response::error(
                        ErrorCode::Io,
                        format!("write not durable: {}", e.message),
                    );
                }
            }
            let sym = t.interner.intern(pred);
            t.record_change(sym, values);
            // Compact here too: a tenant that only ever writes (or only
            // runs fresh-mode queries) must not accumulate its entire
            // change history.
            t.compact_log();
            self.maybe_checkpoint(&mut t);
        }
        Response {
            changed: Some(changed),
            facts: Some(t.db.fact_count() as u64),
            version: Some(t.durable_version()),
            ..Response::ok()
        }
    }

    /// Checkpoint when enough WAL records accumulated. Failure is benign —
    /// the WAL stays intact and recovery replays it — so the request that
    /// happened to trigger the checkpoint still succeeds.
    fn maybe_checkpoint(&self, t: &mut Tenant) {
        let due = t
            .store
            .as_ref()
            .is_some_and(|s| s.since_checkpoint() >= self.config.checkpoint_every.max(1));
        if !due {
            return;
        }
        let facts = t.snapshot_facts();
        let store = t.store.as_mut().expect("due implies store");
        let version = store.version();
        let _ = store.checkpoint(version, &facts);
    }

    fn run(&self, r: RunRequest) -> Response {
        let tenant = self.tenant(&r.tenant);
        let mut t = lock_tenant(&tenant);
        if let Some(reason) = t.quarantined.clone() {
            return Self::quarantined(&reason);
        }
        let key = (r.program.clone(), r.output.clone());
        t.clock += 1;
        let now = t.clock;
        let (cache_hit, query) = match t.prepared.get_mut(&key) {
            Some(p) => {
                p.last_used = now;
                (true, p.query.clone())
            }
            None => {
                let interner = t.interner.clone();
                match Query::parse_with_interner(&r.program, &r.output, interner) {
                    Ok(q) => {
                        if t.prepared.len() >= MAX_PREPARED {
                            // Evict the least-recently-used entry; if it
                            // held the stalest view, the log can compact.
                            if let Some(evict) = t
                                .prepared
                                .iter()
                                .min_by_key(|(_, p)| p.last_used)
                                .map(|(k, _)| k.clone())
                            {
                                t.prepared.remove(&evict);
                            }
                            t.compact_log();
                        }
                        t.prepared.insert(
                            key.clone(),
                            Prepared {
                                query: q.clone(),
                                view: None,
                                synced: 0,
                                last_used: now,
                            },
                        );
                        (false, q)
                    }
                    Err(e) => return Response::error(e.code(), e.to_string()),
                }
            }
        };
        let materializable = t
            .prepared
            .get(&key)
            .is_some_and(|p| p.query.termination_cert().bounded());
        if r.wants_materialized() && materializable {
            let mut resp = t.serve_materialized(&key, &r);
            resp.cache_hit = Some(cache_hit);
            return resp;
        }
        // Fresh evaluation: snapshot the database and release the tenant so
        // a slow or deadline-bound request can't block writers or other
        // readers of this tenant. The snapshot shares every relation (one
        // pointer per predicate); a write copies one only while it is held.
        let db = t.db.clone();
        drop(t);
        let mut resp = Self::run_fresh(&query, &db, &r);
        resp.cache_hit = Some(cache_hit);
        resp
    }

    fn run_fresh(query: &Query, db: &Database, r: &RunRequest) -> Response {
        let mut session = query.session(db).limits(r.limits());
        if let Some(threads) = r.threads {
            session = session.threads(threads);
        }
        if let Some(backend) = r.backend {
            session = session.backend(backend);
        }
        if let Some(strategy) = r.strategy {
            // A `magic` request on an uncertified query fails here with the
            // relevance witness; the cached `Query` already carries the
            // compiled magic plan for certified ones, so repeat magic
            // requests on the same `(program, output)` entry reuse it.
            session = session.strategy(strategy);
        }
        if r.all {
            if let Some(max_models) = r.max_models {
                session = session.budget(EnumBudget {
                    max_models,
                    ..EnumBudget::default()
                });
            }
            return match session.all_answers() {
                Ok(set) => Response {
                    models: Some(set.to_sorted_strings(query.interner())),
                    complete: Some(set.complete()),
                    mode: Some(ServeMode::Fresh),
                    ..Response::ok()
                },
                Err(e) => Response::error(e.code(), e.to_string()),
            };
        }
        let result = match r.seed {
            Some(seed) => session.try_run_with(&mut SeededOracle::new(seed)),
            None => session.try_run(),
        };
        match result {
            Ok(out) => Response {
                answers: Some(render_answers(&out.relation, query.interner())),
                complete: Some(true),
                mode: Some(ServeMode::Fresh),
                ..Response::ok()
            },
            Err(e) => {
                // A tripped limit still reports what was derived up to the
                // last completed round barrier — partial answers, flagged
                // by the non-zero exit and `complete: false`.
                let partial = e.partial_output().map(|out| {
                    out.relation(&r.output)
                        .map(|rel| render_answers(rel, query.interner()))
                        .unwrap_or_default()
                });
                let code = e.code();
                Response {
                    answers: partial,
                    complete: Some(false),
                    mode: Some(ServeMode::Fresh),
                    ..Response::error(code, e.to_string())
                }
            }
        }
    }
}

/// A running IDLOG service bound to a TCP address.
///
/// ```no_run
/// use idlog_server::Server;
/// let server = Server::bind("127.0.0.1:0").unwrap();
/// let addr = server.local_addr().unwrap();
/// std::thread::spawn(move || server.run(idlog_server::DEFAULT_WORKERS));
/// // ... connect Clients to `addr`, finish with Request::Shutdown ...
/// ```
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
}

impl Server {
    /// Bind the listening socket (`"127.0.0.1:0"` picks an ephemeral port)
    /// with default (in-memory, unpersisted) configuration.
    pub fn bind(addr: &str) -> io::Result<Server> {
        Server::bind_with(addr, ServerConfig::default())
    }

    /// Bind with explicit configuration. With
    /// [`ServerConfig::data_dir`] set, tenants recover their durable state
    /// lazily on first access.
    pub fn bind_with(addr: &str, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            registry: Arc::new(Registry::with_config(config)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request arrives. Connections are handed to
    /// a pool of `workers` threads through a queue bounded at
    /// [`ServerConfig::queue_depth`]; when every worker is busy and the
    /// queue is full, new connections are shed immediately with an
    /// `overloaded` error and a `retry_after_ms` hint instead of queuing
    /// without bound.
    pub fn run(self, workers: usize) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(self.registry.config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::new();
        for _ in 0..workers.max(1) {
            let rx = Arc::clone(&rx);
            let registry = Arc::clone(&self.registry);
            pool.push(thread::spawn(move || loop {
                // A worker that died while holding this lock cannot have
                // left partial state in it (recv is atomic); recover the
                // receiver and keep serving.
                let next = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                match next {
                    Ok(stream) => serve_connection(stream, &registry, addr),
                    Err(_) => break,
                }
            }));
        }
        for stream in self.listener.incoming() {
            if self.registry.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                match tx.try_send(stream) {
                    Ok(()) => {}
                    // Admission control: every worker busy and the queue
                    // full. Shed at accept — before any parsing or tenant
                    // work — so overload cost stays constant.
                    Err(mpsc::TrySendError::Full(stream)) => shed(stream),
                    // Every worker died; nothing can serve.
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Refuse a connection at admission: one `overloaded` response line with a
/// retry hint, then close.
///
/// Runs on its own short-lived thread so the accept loop stays responsive,
/// and drains whatever request bytes the client already sent before
/// closing — dropping a socket with unread data raises an RST that can
/// discard the response line the client is about to read.
fn shed(stream: TcpStream) {
    thread::spawn(move || {
        use std::io::Read;
        let _ = stream.set_nodelay(true);
        let resp = Response {
            retry_after_ms: Some(RETRY_AFTER_MS),
            ..Response::error(
                ErrorCode::Overloaded,
                "admission queue full; retry after the hinted backoff",
            )
        };
        let mut writer = BufWriter::new(&stream);
        if writeln!(writer, "{}", resp.to_json()).is_err() || writer.flush().is_err() {
            return;
        }
        drop(writer);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
        let mut sink = [0u8; 256];
        let mut stream = stream;
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });
}

/// Answer one connection's requests until EOF or shutdown.
///
/// Reads run under a short timeout so a worker parked on an idle keep-alive
/// connection still observes a shutdown within a beat and lets
/// [`Server::run`] join the pool.
fn serve_connection(stream: TcpStream, registry: &Registry, addr: SocketAddr) {
    // Request/response lines are tiny; without TCP_NODELAY, Nagle batching
    // against the peer's delayed ACK adds tens of milliseconds per round
    // trip even on loopback.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            // A timeout leaves any partial read appended to `line`; poll
            // the shutdown flag and resume mid-line.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if registry.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let request = line.trim().to_string();
        line.clear();
        if request.is_empty() {
            continue;
        }
        let response = match Request::parse(&request) {
            // A panicking handler (engine invariant failure, injected
            // fault) must cost its own request, not the worker thread:
            // contain it, answer with a clean internal error, and let
            // `lock_tenant` repair the poisoned tenant on next access.
            Ok(request) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    registry.handle(request)
                })) {
                    Ok(resp) => resp,
                    Err(_) => Response::error(
                        ErrorCode::Internal,
                        "request handler panicked; tenant state repairs on next access",
                    ),
                }
            }
            Err(e) => Response::error(ErrorCode::Protocol, e),
        };
        if writeln!(writer, "{}", response.to_json()).is_err() || writer.flush().is_err() {
            break;
        }
        if registry.shutdown.load(Ordering::SeqCst) {
            // Wake the accept loop so it observes the flag and drains.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
}

/// A blocking protocol client: sends one request line, reads one response
/// line. Used by `idlog client` and the integration tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a served address.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send `request` and wait for its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        writeln!(self.writer, "{}", request.to_json())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Send a raw line (protocol-error testing) and read the response line.
    pub fn request_raw(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(out.trim().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nonrecursive (hence termination-certified and materializable), but
    /// `plus` overflows once `a` holds a large enough value.
    const SUM: &str = "sum(M) :- a(X), b(Y), plus(X, Y, M).";

    fn int_change(reg: &Registry, pred: &str, n: i64, insert: bool) -> Response {
        let req = |tenant, pred, tuple| {
            if insert {
                Request::Insert {
                    tenant,
                    pred,
                    tuple,
                }
            } else {
                Request::Retract {
                    tenant,
                    pred,
                    tuple,
                }
            }
        };
        let resp = reg.handle(req(
            "t".into(),
            pred.into(),
            vec![FactValue::Int(idlog_core::Nat::new(n).unwrap())],
        ));
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        resp
    }

    fn run(reg: &Registry, program: &str, output: &str) -> Response {
        reg.handle(Request::Run(RunRequest::new("t", program, output)))
    }

    #[test]
    fn failed_apply_invalidates_the_view_instead_of_serving_stale_answers() {
        let reg = Registry::new();
        int_change(&reg, "a", 1, true);
        int_change(&reg, "b", 2, true);
        let first = run(&reg, SUM, "sum");
        assert_eq!(first.exit, 0, "{:?}", first.error);
        assert_eq!(first.answers.as_deref(), Some(&["3".to_string()][..]));
        assert_eq!(first.mode, Some(ServeMode::Recomputed));

        // i64::MAX + 2 overflows `plus` during incremental propagation;
        // apply() fails after already mutating the view's own inputs.
        int_change(&reg, "a", i64::MAX, true);
        let failed = run(&reg, SUM, "sum");
        assert_ne!(failed.exit, 0, "overflow must surface as an error");

        // The poisoned view must not linger: while the bad fact is present
        // every request keeps erroring (a stale view would instead replay
        // the delta as a no-op and serve the old answers as complete).
        let failed_again = run(&reg, SUM, "sum");
        assert_ne!(failed_again.exit, 0, "second request must also error");
        assert!(failed_again.answers.is_none());

        // Retracting the poison fact heals the tenant: the next request
        // rebuilds from the database and serves complete answers again.
        int_change(&reg, "a", i64::MAX, false);
        let healed = run(&reg, SUM, "sum");
        assert_eq!(healed.exit, 0, "{:?}", healed.error);
        assert_eq!(healed.answers.as_deref(), Some(&["3".to_string()][..]));
        assert_eq!(healed.complete, Some(true));
        assert_eq!(healed.mode, Some(ServeMode::Recomputed));
    }

    /// A recursive point query: certified for the magic-sets strategy.
    const ANC: &str = "anc(X, Y) :- parent(X, Y).\n\
                       anc(X, Z) :- anc(X, Y), parent(Y, Z).\n\
                       q(Y) :- anc(ann, Y).";

    fn sym_insert(reg: &Registry, pred: &str, tuple: &[&str]) {
        let resp = reg.handle(Request::Insert {
            tenant: "t".into(),
            pred: pred.into(),
            tuple: tuple
                .iter()
                .map(|s| FactValue::Sym(s.to_string()))
                .collect(),
        });
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
    }

    #[test]
    fn magic_strategy_serves_fresh_and_agrees_with_the_cached_model() {
        let reg = Registry::new();
        for edge in [["ann", "bob"], ["bob", "cal"], ["eve", "fay"]] {
            sym_insert(&reg, "parent", &edge);
        }
        // Plain request: materialized serving of the full model.
        let plain = run(&reg, ANC, "q");
        assert_eq!(plain.exit, 0, "{:?}", plain.error);
        assert_eq!(plain.mode, Some(ServeMode::Recomputed));
        let full = plain.answers.clone().unwrap();
        assert_eq!(full, vec!["bob".to_string(), "cal".to_string()]);

        // The same program under strategy=magic: fresh goal-directed
        // evaluation, byte-identical answers, served from the cached entry.
        let mut r = RunRequest::new("t", ANC, "q");
        r.strategy = Some(idlog_core::Strategy::Magic);
        let magic = reg.handle(Request::Run(r));
        assert_eq!(magic.exit, 0, "{:?}", magic.error);
        assert_eq!(magic.mode, Some(ServeMode::Fresh));
        assert_eq!(magic.cache_hit, Some(true), "compiled plan is reused");
        assert_eq!(magic.answers.unwrap(), full);

        // The prepared entry's query holds the certified relevance verdict.
        let tenant = reg.tenant("t");
        let t = tenant.lock().unwrap();
        let entry = t.prepared.get(&(ANC.to_string(), "q".to_string())).unwrap();
        assert!(entry.query.relevance().certified());
        assert!(entry.query.relevance().is_point_query());
    }

    #[test]
    fn magic_refusal_reports_the_witness_over_the_wire() {
        let reg = Registry::new();
        sym_insert(&reg, "likes", &["ann", "tea"]);
        let program = "pick(X, Y) :- likes[1](X, Y, 0).\nq(Y) :- pick(ann, Y).";
        let mut r = RunRequest::new("t", program, "q");
        r.strategy = Some(idlog_core::Strategy::Magic);
        let resp = reg.handle(Request::Run(r));
        assert_eq!(resp.exit, 1, "{:?}", resp.error);
        let err = resp.error.unwrap();
        assert!(err.contains("choice site"), "{err}");
        assert!(err.contains("witness"), "{err}");

        // The refusal does not poison the entry: a plain request on the
        // same program still serves the full (non-pruned) answer.
        let plain = run(&reg, program, "q");
        assert_eq!(plain.exit, 0, "{:?}", plain.error);
        assert_eq!(plain.cache_hit, Some(true));
        assert_eq!(plain.answers.unwrap(), vec!["tea".to_string()]);
    }

    #[test]
    fn magic_limit_trip_returns_partial_without_poisoning_the_cache() {
        let reg = Registry::new();
        for edge in [["ann", "bob"], ["bob", "cal"], ["cal", "dee"]] {
            sym_insert(&reg, "parent", &edge);
        }
        // A one-round ceiling under strategy=magic: exit 3 (limit class)
        // with the partial answer derived up to the round barrier.
        let mut r = RunRequest::new("t", ANC, "q");
        r.strategy = Some(idlog_core::Strategy::Magic);
        r.max_rounds = Some(1);
        let tripped = reg.handle(Request::Run(r));
        assert_eq!(tripped.exit, 3, "{:?}", tripped.error);
        assert_eq!(tripped.complete, Some(false));
        let partial = tripped.answers.expect("partial answers travel");
        assert!(partial.len() < 3, "one round cannot finish: {partial:?}");

        // The trip happened off the tenant lock on a fresh evaluation; the
        // prepared entry and its view are untouched, so the next plain
        // request serves the complete relation.
        let healed = run(&reg, ANC, "q");
        assert_eq!(healed.exit, 0, "{:?}", healed.error);
        assert_eq!(healed.complete, Some(true));
        assert_eq!(
            healed.answers.unwrap(),
            vec!["bob".to_string(), "cal".to_string(), "dee".to_string()]
        );
    }

    #[test]
    fn change_only_traffic_does_not_accumulate_a_log() {
        let reg = Registry::new();
        for i in 0..100 {
            int_change(&reg, "p", i, true);
        }
        let tenant = reg.tenant("t");
        let t = tenant.lock().unwrap();
        assert_eq!(t.log.len(), 0, "no live views: every change compacts");
        assert_eq!(t.log_base, t.version);
    }

    #[test]
    fn a_view_lagging_past_max_log_is_evicted_rather_than_pinning_the_log() {
        let reg = Registry::new();
        int_change(&reg, "a", 1, true);
        int_change(&reg, "b", 2, true);
        assert_eq!(run(&reg, SUM, "sum").exit, 0);

        // Write-only traffic while the view is never re-queried: the log
        // may buffer up to MAX_LOG changes, then the stale view goes.
        for i in 0..(MAX_LOG as i64 + 10) {
            int_change(&reg, "p", i, true);
        }
        {
            let tenant = reg.tenant("t");
            let t = tenant.lock().unwrap();
            assert!(t.log.len() <= MAX_LOG, "log over ceiling: {}", t.log.len());
            assert!(
                t.prepared.values().all(|p| p.view.is_none()),
                "stale view must have been evicted"
            );
        }

        // The query is still served correctly — by rebuilding.
        let again = run(&reg, SUM, "sum");
        assert_eq!(again.exit, 0, "{:?}", again.error);
        assert_eq!(again.answers.as_deref(), Some(&["3".to_string()][..]));
        assert_eq!(again.mode, Some(ServeMode::Recomputed));
        assert_eq!(
            again.cache_hit,
            Some(true),
            "eviction dropped the view, not the entry"
        );
    }

    #[test]
    fn the_prepared_cache_is_lru_bounded() {
        let reg = Registry::new();
        int_change(&reg, "e", 1, true);
        for i in 0..(MAX_PREPARED + 8) {
            let program = format!("q{i}(X) :- e(X).");
            let resp = run(&reg, &program, &format!("q{i}"));
            assert_eq!(resp.exit, 0, "{:?}", resp.error);
        }
        let tenant = reg.tenant("t");
        let t = tenant.lock().unwrap();
        assert_eq!(t.prepared.len(), MAX_PREPARED);
        // The oldest entries were evicted, the newest kept.
        assert!(!t
            .prepared
            .contains_key(&("q0(X) :- e(X).".to_string(), "q0".to_string())));
        let last = MAX_PREPARED + 7;
        assert!(t
            .prepared
            .contains_key(&(format!("q{last}(X) :- e(X)."), format!("q{last}"))));
    }

    fn durable_registry(dir: &std::path::Path) -> Registry {
        Registry::with_config(ServerConfig {
            data_dir: Some(dir.to_path_buf()),
            sync: SyncPolicy::Always,
            ..ServerConfig::default()
        })
    }

    fn temp_data_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "idlog-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn acked_changes_survive_a_registry_restart() {
        let dir = temp_data_dir("restart");
        let before = {
            let reg = durable_registry(&dir);
            for edge in [["ann", "bob"], ["bob", "cal"]] {
                sym_insert(&reg, "parent", &edge);
            }
            sym_insert(&reg, "parent", &["cal", "dee"]);
            // Retract one fact so recovery replays a retract too.
            let resp = reg.handle(Request::Retract {
                tenant: "t".into(),
                pred: "parent".into(),
                tuple: vec![FactValue::Sym("cal".into()), FactValue::Sym("dee".into())],
            });
            assert_eq!(resp.exit, 0, "{:?}", resp.error);
            assert_eq!(resp.version, Some(4), "WAL sequence acked on the wire");
            run(&reg, ANC, "q").answers.unwrap()
        };
        // A fresh registry over the same directory recovers the exact
        // acknowledged state and serves identical answers.
        let reg = durable_registry(&dir);
        let stats = reg.handle(Request::Stats { tenant: "t".into() });
        assert_eq!(stats.facts, Some(2), "{stats:?}");
        assert_eq!(stats.version, Some(4), "recovered WAL version");
        assert_eq!(run(&reg, ANC, "q").answers.unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_bound_the_wal_and_keep_answers_identical() {
        let dir = temp_data_dir("checkpoint");
        {
            let reg = Registry::with_config(ServerConfig {
                data_dir: Some(dir.to_path_buf()),
                sync: SyncPolicy::Always,
                checkpoint_every: 8,
                ..ServerConfig::default()
            });
            for i in 0..20 {
                int_change(&reg, "p", i, true);
            }
        }
        // 20 appends with a checkpoint every 8: the WAL on disk holds at
        // most 8 records, the rest live in the snapshot.
        let wal = durability::tenant_dir(&dir, "t").join("wal.log");
        let (records, torn) = durability::scan_wal(&wal).unwrap();
        assert!(torn.is_none(), "{torn:?}");
        assert!(records.len() <= 8, "WAL not truncated: {}", records.len());
        let reg = durable_registry(&dir);
        let resp = run(&reg, "q(X) :- p(X).", "q");
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert_eq!(resp.answers.unwrap().len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_quarantined_tenant_refuses_traffic_with_a_clean_error() {
        let reg = Registry::new();
        {
            let tenant = reg.tenant("t");
            let mut t = tenant.lock().unwrap();
            t.quarantined = Some("test fault".into());
        }
        let resp = int_change_raw(&reg, "p", 1);
        assert_eq!(resp.exit, ErrorCode::Internal.exit_code());
        let err = resp.error.unwrap();
        assert!(err.contains("quarantined"), "{err}");
        assert!(err.contains("restart"), "{err}");
        let run_resp = run(&reg, "q(X) :- p(X).", "q");
        assert!(run_resp.error.unwrap().contains("quarantined"));
    }

    fn int_change_raw(reg: &Registry, pred: &str, n: i64) -> Response {
        reg.handle(Request::Insert {
            tenant: "t".into(),
            pred: pred.into(),
            tuple: vec![FactValue::Int(idlog_core::Nat::new(n).unwrap())],
        })
    }

    #[test]
    fn ping_negotiates_the_schema() {
        let reg = Registry::new();
        let ok = reg.handle(Request::Ping { schema: None });
        assert_eq!(ok.schema.as_deref(), Some("idlog-service/2"));
        for retired in ["idlog-service/1", "idlog-service/99"] {
            let bad = reg.handle(Request::Ping {
                schema: Some(retired.into()),
            });
            assert_eq!(bad.code, Some(ErrorCode::Protocol), "{retired}");
            assert!(bad.error.unwrap().contains("idlog-service/2"));
        }
    }
}
