//! The IDLOG service protocol: serializable request/response types for
//! `idlog serve`.
//!
//! The wire format is a line protocol: one JSON object per line, request in,
//! response out, over a plain TCP stream. Hand-rolled JSON
//! ([`idlog_common::Json`]) keeps the engine dependency-free; the schema is
//! small enough that a grammar-complete parser is overkill.
//!
//! Responses reuse the library's stable [`ErrorCode`] vocabulary and its
//! exit-code convention — `"exit"` in a response equals what the `idlog`
//! CLI would have exited with for the same failure, so scripts can switch
//! on one code set across both surfaces. See `LANGUAGE.md` §Service for
//! the full field reference.

use std::time::Duration;

use idlog_common::{Interner, Json, Nat, Value};
use idlog_storage::{BackendKind, Relation};

use crate::error::ErrorCode;
use crate::eval::Strategy;
use crate::govern::Limits;

/// Current protocol schema identifier, reported by `ping`.
///
/// Schema 2 added the `overloaded` error code with its `retry_after_ms`
/// hint, the optional `schema` field on `ping` for version negotiation,
/// and the `version` field on `stats` responses.
pub const SERVICE_SCHEMA: &str = "idlog-service/2";

/// Every schema this server speaks, newest last. A `ping` carrying one of
/// these is answered with the same identifier; anything else — including
/// the retired `idlog-service/1` — is a protocol error naming the
/// supported set.
pub const SUPPORTED_SCHEMAS: &[&str] = &["idlog-service/2"];

/// Negotiate a protocol schema: `None` (a bare `ping`) selects the newest,
/// a supported identifier selects itself, anything else is refused with a
/// message listing [`SUPPORTED_SCHEMAS`].
pub fn negotiate_schema(requested: Option<&str>) -> Result<&'static str, String> {
    match requested {
        None => Ok(SERVICE_SCHEMA),
        Some(r) => SUPPORTED_SCHEMAS
            .iter()
            .find(|s| **s == r)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unsupported schema {r:?}; this server speaks: {}",
                    SUPPORTED_SCHEMAS.join(", ")
                )
            }),
    }
}

/// One fact argument on the wire: JSON strings are symbols, JSON integers
/// are sort-`i` values — naturals, so a negative integer is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactValue {
    /// An uninterpreted symbol.
    Sym(String),
    /// A natural number.
    Int(Nat),
}

impl FactValue {
    /// Intern into an engine [`Value`].
    pub fn to_value(&self, interner: &Interner) -> Value {
        match self {
            FactValue::Sym(s) => Value::Sym(interner.intern(s)),
            FactValue::Int(n) => Value::Int(*n),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            FactValue::Sym(s) => Json::str(s.clone()),
            FactValue::Int(n) => Json::int(n.get()),
        }
    }

    fn parse(j: &Json) -> Result<FactValue, String> {
        if let Some(s) = j.as_str() {
            return Ok(FactValue::Sym(s.to_string()));
        }
        if let Some(n) = j.as_i64() {
            return Nat::new(n)
                .map(FactValue::Int)
                .ok_or_else(|| format!("fact value {n} is negative: integers are naturals"));
        }
        if let Some(n) = j.as_f64() {
            return Err(format!("fact value {n} is not an i64"));
        }
        Err("fact values must be strings or integers".to_string())
    }
}

/// A `run` request: evaluate `program`'s `output` under per-request options
/// and limits.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Tenant whose database the query runs against.
    pub tenant: String,
    /// IDLOG program text.
    pub program: String,
    /// Output predicate name.
    pub output: String,
    /// Enumerate the full answer set instead of one canonical answer.
    pub all: bool,
    /// Resolve non-determinism with a seeded oracle instead of the
    /// canonical one (forces a fresh evaluation; materialized models are
    /// canonical).
    pub seed: Option<u64>,
    /// Worker-thread count (`None`/`0` = auto).
    pub threads: Option<usize>,
    /// Storage backend override for materialized relations.
    pub backend: Option<BackendKind>,
    /// Evaluation strategy override. `magic` asks for goal-directed
    /// evaluation and is refused (with the relevance witness) when the
    /// query is not a certified point query.
    pub strategy: Option<Strategy>,
    /// Wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Semi-naive round ceiling.
    pub max_rounds: Option<u64>,
    /// Derived-tuple ceiling.
    pub max_tuples: Option<u64>,
    /// Stored-bytes ceiling.
    pub max_bytes: Option<u64>,
    /// Model ceiling for `all` enumeration.
    pub max_models: Option<u64>,
}

impl RunRequest {
    /// A minimal run request with every option defaulted.
    pub fn new(tenant: &str, program: &str, output: &str) -> RunRequest {
        RunRequest {
            tenant: tenant.to_string(),
            program: program.to_string(),
            output: output.to_string(),
            all: false,
            seed: None,
            threads: None,
            backend: None,
            strategy: None,
            timeout_ms: None,
            max_rounds: None,
            max_tuples: None,
            max_bytes: None,
            max_models: None,
        }
    }

    /// The [`Limits`] this request's ceiling fields map to.
    pub fn limits(&self) -> Limits {
        Limits {
            deadline: self.timeout_ms.map(Duration::from_millis),
            max_rounds: self.max_rounds,
            max_tuples: self.max_tuples,
            max_bytes: self.max_bytes,
        }
    }

    /// True when the request can be served from (and maintained in) a
    /// canonical materialized model: one canonical answer, no per-request
    /// resource ceilings that a cached read could misreport, and no
    /// evaluation-strategy override (a `magic` request asks for a specific
    /// evaluation, so it runs fresh — where a refusal surfaces with its
    /// witness instead of being papered over by a cached full model).
    pub fn wants_materialized(&self) -> bool {
        !self.all
            && self.seed.is_none()
            && self.limits() == Limits::default()
            && self.strategy.unwrap_or_default() == Strategy::SemiNaive
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate a query.
    Run(RunRequest),
    /// Add one fact to a tenant's database.
    Insert {
        /// Target tenant.
        tenant: String,
        /// Predicate name.
        pred: String,
        /// Fact arguments.
        tuple: Vec<FactValue>,
    },
    /// Remove one fact from a tenant's database.
    Retract {
        /// Target tenant.
        tenant: String,
        /// Predicate name.
        pred: String,
        /// Fact arguments.
        tuple: Vec<FactValue>,
    },
    /// Liveness probe; the response carries the negotiated schema.
    Ping {
        /// Requested protocol schema (`None` = newest). See
        /// [`negotiate_schema`].
        schema: Option<String>,
    },
    /// Per-tenant counters (facts, cached queries).
    Stats {
        /// Target tenant.
        tenant: String,
    },
    /// Orderly server shutdown.
    Shutdown,
}

impl Request {
    /// Parse one request line. Errors are human-readable and map to
    /// [`ErrorCode::Protocol`].
    pub fn parse(line: &str) -> Result<Request, String> {
        let j = Json::parse(line)?;
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request object needs a string \"op\" field")?;
        let tenant = |j: &Json| -> Result<String, String> {
            Ok(j.get("tenant")
                .and_then(Json::as_str)
                .ok_or("request needs a string \"tenant\" field")?
                .to_string())
        };
        let fact = |j: &Json| -> Result<(String, Vec<FactValue>), String> {
            let pred = j
                .get("pred")
                .and_then(Json::as_str)
                .ok_or("fact request needs a string \"pred\" field")?
                .to_string();
            let tuple = j
                .get("tuple")
                .and_then(Json::as_array)
                .ok_or("fact request needs an array \"tuple\" field")?
                .iter()
                .map(FactValue::parse)
                .collect::<Result<Vec<_>, _>>()?;
            Ok((pred, tuple))
        };
        match op {
            "run" => {
                let field = |k: &str| -> Result<String, String> {
                    Ok(j.get(k)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("run request needs a string \"{k}\" field"))?
                        .to_string())
                };
                let backend = match j.get("backend").and_then(Json::as_str) {
                    None => None,
                    Some(name) => Some(
                        BackendKind::parse(name)
                            .ok_or_else(|| format!("unknown backend {name:?}"))?,
                    ),
                };
                let strategy = match j.get("strategy").and_then(Json::as_str) {
                    None => None,
                    Some(name) => Some(
                        Strategy::parse(name)
                            .ok_or_else(|| format!("unknown strategy {name:?}"))?,
                    ),
                };
                Ok(Request::Run(RunRequest {
                    tenant: tenant(&j)?,
                    program: field("program")?,
                    output: field("output")?,
                    all: j.get("all").and_then(Json::as_bool).unwrap_or(false),
                    seed: j.get("seed").and_then(Json::as_u64),
                    threads: j.get("threads").and_then(Json::as_u64).map(|n| n as usize),
                    backend,
                    strategy,
                    timeout_ms: j.get("timeout_ms").and_then(Json::as_u64),
                    max_rounds: j.get("max_rounds").and_then(Json::as_u64),
                    max_tuples: j.get("max_tuples").and_then(Json::as_u64),
                    max_bytes: j.get("max_bytes").and_then(Json::as_u64),
                    max_models: j.get("max_models").and_then(Json::as_u64),
                }))
            }
            "insert" => {
                let (pred, tuple) = fact(&j)?;
                Ok(Request::Insert {
                    tenant: tenant(&j)?,
                    pred,
                    tuple,
                })
            }
            "retract" => {
                let (pred, tuple) = fact(&j)?;
                Ok(Request::Retract {
                    tenant: tenant(&j)?,
                    pred,
                    tuple,
                })
            }
            "ping" => Ok(Request::Ping {
                schema: j.get("schema").and_then(Json::as_str).map(str::to_string),
            }),
            "stats" => Ok(Request::Stats {
                tenant: tenant(&j)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Render as one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut put = |k: &str, v: Json| fields.push((k.to_string(), v));
        match self {
            Request::Run(r) => {
                put("op", Json::str("run"));
                put("tenant", Json::str(r.tenant.clone()));
                put("program", Json::str(r.program.clone()));
                put("output", Json::str(r.output.clone()));
                if r.all {
                    put("all", Json::Bool(true));
                }
                let nums = [
                    ("seed", r.seed),
                    ("timeout_ms", r.timeout_ms),
                    ("max_rounds", r.max_rounds),
                    ("max_tuples", r.max_tuples),
                    ("max_bytes", r.max_bytes),
                    ("max_models", r.max_models),
                ];
                for (k, v) in nums {
                    if let Some(n) = v {
                        // Exact integers: a u64 seed must not round through
                        // f64 (the server would silently evaluate under a
                        // different seed than the client asked for).
                        put(k, Json::int(n));
                    }
                }
                if let Some(t) = r.threads {
                    put("threads", Json::int(t as u64));
                }
                if let Some(b) = r.backend {
                    put("backend", Json::str(b.name()));
                }
                if let Some(s) = r.strategy {
                    put("strategy", Json::str(s.name()));
                }
            }
            Request::Insert {
                tenant,
                pred,
                tuple,
            }
            | Request::Retract {
                tenant,
                pred,
                tuple,
            } => {
                let op = if matches!(self, Request::Insert { .. }) {
                    "insert"
                } else {
                    "retract"
                };
                put("op", Json::str(op));
                put("tenant", Json::str(tenant.clone()));
                put("pred", Json::str(pred.clone()));
                put(
                    "tuple",
                    Json::Array(tuple.iter().map(FactValue::to_json).collect()),
                );
            }
            Request::Ping { schema } => {
                put("op", Json::str("ping"));
                if let Some(s) = schema {
                    put("schema", Json::str(s.clone()));
                }
            }
            Request::Stats { tenant } => {
                put("op", Json::str("stats"));
                put("tenant", Json::str(tenant.clone()));
            }
            Request::Shutdown => put("op", Json::str("shutdown")),
        }
        Json::Object(fields).render()
    }
}

/// How a `run` request was satisfied (diagnostic; not part of the
/// byte-identical answer surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Served straight from a maintained materialized model.
    Materialized,
    /// The model was updated by delta propagation before serving.
    Incremental,
    /// The model was recomputed in full before serving.
    Recomputed,
    /// Evaluated from scratch for this request (seeded, limited, or `all`).
    Fresh,
}

impl ServeMode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeMode::Materialized => "materialized",
            ServeMode::Incremental => "incremental",
            ServeMode::Recomputed => "recomputed",
            ServeMode::Fresh => "fresh",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<ServeMode> {
        Some(match s {
            "materialized" => ServeMode::Materialized,
            "incremental" => ServeMode::Incremental,
            "recomputed" => ServeMode::Recomputed,
            "fresh" => ServeMode::Fresh,
            _ => return None,
        })
    }
}

/// One response line. `exit` mirrors the CLI exit-code convention (0 ok,
/// 1 failure, 2 usage, 3 limit, 130 cancelled); `code` is the stable
/// [`ErrorCode`] string when the request failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Exit-code-style status.
    pub exit: u8,
    /// Stable error code on failure.
    pub code: Option<ErrorCode>,
    /// Human-readable message on failure.
    pub error: Option<String>,
    /// Canonically ordered answer tuples (`run`): each tuple rendered as
    /// comma-joined values. Also carries partial results on a limit trip.
    pub answers: Option<Vec<String>>,
    /// All distinct answers of a non-deterministic query (`run` with
    /// `all`): each inner list one answer's tuples, canonically sorted.
    pub models: Option<Vec<Vec<String>>>,
    /// Whether an `all` enumeration completed within its budget.
    pub complete: Option<bool>,
    /// Prepared-query cache: `true` = hit.
    pub cache_hit: Option<bool>,
    /// How the request was satisfied.
    pub mode: Option<ServeMode>,
    /// Whether a fact change altered the database (`insert`/`retract`).
    pub changed: Option<bool>,
    /// Tenant fact count (`stats`, `insert`, `retract`).
    pub facts: Option<u64>,
    /// Cached prepared queries for the tenant (`stats`).
    pub queries: Option<u64>,
    /// Durable change-log version of the tenant (`stats`, when the server
    /// runs with a data directory).
    pub version: Option<u64>,
    /// Schema identifier (`ping`).
    pub schema: Option<String>,
    /// Backoff hint in milliseconds, set with the `overloaded` error: the
    /// client should wait at least this long before retrying.
    pub retry_after_ms: Option<u64>,
}

impl Response {
    /// A success with no payload.
    pub fn ok() -> Response {
        Response {
            exit: 0,
            code: None,
            error: None,
            answers: None,
            models: None,
            complete: None,
            cache_hit: None,
            mode: None,
            changed: None,
            facts: None,
            queries: None,
            version: None,
            schema: None,
            retry_after_ms: None,
        }
    }

    /// A failure carrying `code` and a message; `exit` follows
    /// [`ErrorCode::exit_code`].
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response {
            exit: code.exit_code(),
            code: Some(code),
            error: Some(message.into()),
            ..Response::ok()
        }
    }

    /// Render as one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = vec![("exit".to_string(), Json::int(self.exit))];
        let mut put = |k: &str, v: Json| fields.push((k.to_string(), v));
        if let Some(code) = self.code {
            put("code", Json::str(code.as_str()));
        }
        if let Some(e) = &self.error {
            put("error", Json::str(e.clone()));
        }
        if let Some(a) = &self.answers {
            put(
                "answers",
                Json::Array(a.iter().map(|s| Json::str(s.clone())).collect()),
            );
        }
        if let Some(m) = &self.models {
            put(
                "models",
                Json::Array(
                    m.iter()
                        .map(|rows| {
                            Json::Array(rows.iter().map(|s| Json::str(s.clone())).collect())
                        })
                        .collect(),
                ),
            );
        }
        if let Some(c) = self.complete {
            put("complete", Json::Bool(c));
        }
        if let Some(h) = self.cache_hit {
            put("cache_hit", Json::Bool(h));
        }
        if let Some(m) = self.mode {
            put("mode", Json::str(m.as_str()));
        }
        if let Some(c) = self.changed {
            put("changed", Json::Bool(c));
        }
        if let Some(f) = self.facts {
            put("facts", Json::int(f));
        }
        if let Some(q) = self.queries {
            put("queries", Json::int(q));
        }
        if let Some(v) = self.version {
            put("version", Json::int(v));
        }
        if let Some(s) = &self.schema {
            put("schema", Json::str(s.clone()));
        }
        if let Some(ms) = self.retry_after_ms {
            put("retry_after_ms", Json::int(ms));
        }
        Json::Object(fields).render()
    }

    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let j = Json::parse(line)?;
        let exit = j
            .get("exit")
            .and_then(Json::as_u64)
            .ok_or("response needs a numeric \"exit\" field")?;
        let code = match j.get("code").and_then(Json::as_str) {
            None => None,
            Some(s) => Some(ErrorCode::parse(s).ok_or_else(|| format!("unknown code {s:?}"))?),
        };
        let answers = match j.get("answers").and_then(Json::as_array) {
            None => None,
            Some(items) => Some(
                items
                    .iter()
                    .map(|i| {
                        i.as_str()
                            .map(str::to_string)
                            .ok_or("answers must be strings")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        let models = match j.get("models").and_then(Json::as_array) {
            None => None,
            Some(items) => Some(
                items
                    .iter()
                    .map(|m| {
                        m.as_array()
                            .ok_or("models must be arrays of strings")?
                            .iter()
                            .map(|i| {
                                i.as_str()
                                    .map(str::to_string)
                                    .ok_or("models must be arrays of strings")
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        let mode = match j.get("mode").and_then(Json::as_str) {
            None => None,
            Some(s) => Some(ServeMode::parse(s).ok_or_else(|| format!("unknown mode {s:?}"))?),
        };
        Ok(Response {
            exit: exit as u8,
            code,
            error: j.get("error").and_then(Json::as_str).map(str::to_string),
            answers,
            models,
            complete: j.get("complete").and_then(Json::as_bool),
            cache_hit: j.get("cache_hit").and_then(Json::as_bool),
            mode,
            changed: j.get("changed").and_then(Json::as_bool),
            facts: j.get("facts").and_then(Json::as_u64),
            queries: j.get("queries").and_then(Json::as_u64),
            version: j.get("version").and_then(Json::as_u64),
            schema: j.get("schema").and_then(Json::as_str).map(str::to_string),
            retry_after_ms: j.get("retry_after_ms").and_then(Json::as_u64),
        })
    }
}

/// Render a relation as the protocol's canonical answer strings: tuples in
/// canonical (name-based) order, each value displayed and comma-joined.
/// A pure function of relation *content*, so any two states holding the
/// same relation — materialized, incrementally maintained, or freshly
/// evaluated, on either backend, at any thread count — render byte-
/// identically.
pub fn render_answers(rel: &Relation, interner: &Interner) -> Vec<String> {
    rel.canonical_view(interner).render_rows(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::LimitKind;

    #[test]
    fn run_request_round_trips() {
        let mut r = RunRequest::new("acme", "p(X) :- q(X).", "p");
        r.all = true;
        r.seed = Some(7);
        r.threads = Some(2);
        r.backend = Some(BackendKind::Columnar);
        r.timeout_ms = Some(250);
        r.max_rounds = Some(10);
        r.max_tuples = Some(1000);
        r.max_bytes = Some(1 << 20);
        r.max_models = Some(64);
        r.strategy = Some(Strategy::Magic);
        let line = Request::Run(r.clone()).to_json();
        assert!(line.contains("\"strategy\":\"magic\""), "{line}");
        assert_eq!(Request::parse(&line).unwrap(), Request::Run(r.clone()));
        // The ceiling fields map onto Limits.
        let limits = r.limits();
        assert_eq!(limits.deadline, Some(Duration::from_millis(250)));
        assert_eq!(limits.max_rounds, Some(10));
        assert_eq!(limits.max_tuples, Some(1000));
        assert_eq!(limits.max_bytes, Some(1 << 20));
        assert!(
            !r.wants_materialized(),
            "limited request bypasses the cache"
        );
        assert!(
            RunRequest::new("acme", "p(X) :- q(X).", "p").wants_materialized(),
            "plain request is materializable"
        );
    }

    #[test]
    fn u64_fields_round_trip_exactly_beyond_f64_precision() {
        // A seed that f64 cannot represent must reach the server bit-for-bit
        // — seeded evaluation promises byte-identity with a local run.
        let mut r = RunRequest::new("acme", "p(X) :- q(X).", "p");
        r.seed = Some(u64::MAX);
        r.max_tuples = Some((1 << 53) + 1);
        let line = Request::Run(r.clone()).to_json();
        assert!(line.contains(&format!("\"seed\":{}", u64::MAX)), "{line}");
        match Request::parse(&line).unwrap() {
            Request::Run(parsed) => {
                assert_eq!(parsed.seed, Some(u64::MAX));
                assert_eq!(parsed.max_tuples, Some((1 << 53) + 1));
                assert_eq!(parsed, r);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn fact_requests_round_trip_with_mixed_sorts() {
        let req = Request::Insert {
            tenant: "t".into(),
            pred: "num".into(),
            tuple: vec![FactValue::Sym("a".into()), FactValue::Int(nat(42))],
        };
        let parsed = Request::parse(&req.to_json()).unwrap();
        assert_eq!(parsed, req);
        let ret = Request::Retract {
            tenant: "t".into(),
            pred: "num".into(),
            tuple: vec![FactValue::Int(nat(i64::MAX))],
        };
        assert_eq!(Request::parse(&ret.to_json()).unwrap(), ret);
        for control in [
            Request::Ping { schema: None },
            Request::Ping {
                schema: Some(SERVICE_SCHEMA.to_string()),
            },
            Request::Stats { tenant: "t".into() },
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&control.to_json()).unwrap(), control);
        }
    }

    fn nat(n: i64) -> Nat {
        Nat::new(n).expect("a natural")
    }

    #[test]
    fn negative_fact_values_are_refused() {
        for op in ["insert", "retract"] {
            let line = format!(r#"{{"op":"{op}","tenant":"t","pred":"n","tuple":[2,-3]}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err, "fact value -3 is negative: integers are naturals");
        }
        let line = format!(
            r#"{{"op":"insert","tenant":"t","pred":"n","tuple":[{}]}}"#,
            i64::MIN
        );
        assert!(Request::parse(&line).unwrap_err().contains("is negative"));
    }

    #[test]
    fn schema_negotiation_accepts_supported_and_refuses_unknown() {
        assert_eq!(negotiate_schema(None), Ok(SERVICE_SCHEMA));
        assert_eq!(SUPPORTED_SCHEMAS, [SERVICE_SCHEMA]);
        assert_eq!(negotiate_schema(Some(SERVICE_SCHEMA)), Ok(SERVICE_SCHEMA));
        for refused in ["idlog-service/1", "idlog-service/99"] {
            let err = negotiate_schema(Some(refused)).unwrap_err();
            assert!(err.contains(refused), "{err}");
            assert!(
                err.ends_with("this server speaks: idlog-service/2"),
                "{err}"
            );
        }
    }

    #[test]
    fn overloaded_responses_carry_the_retry_hint_and_limit_class_exit() {
        let mut shed = Response::error(ErrorCode::Overloaded, "admission queue full");
        shed.retry_after_ms = Some(150);
        assert_eq!(shed.exit, 3, "overload maps to the limit-trip exit");
        let line = shed.to_json();
        assert!(line.contains("\"retry_after_ms\":150"), "{line}");
        let parsed = Response::parse(&line).unwrap();
        assert_eq!(parsed.code, Some(ErrorCode::Overloaded));
        assert_eq!(parsed.retry_after_ms, Some(150));
        assert_eq!(parsed, shed);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"op":"run","tenant":"t"}"#).is_err());
        assert!(Request::parse(r#"{"op":"insert","tenant":"t","pred":"p"}"#).is_err());
        assert!(
            Request::parse(r#"{"op":"insert","tenant":"t","pred":"p","tuple":[1.5]}"#).is_err(),
            "non-integer numbers are not fact values"
        );
        assert!(Request::parse(
            r#"{"op":"run","tenant":"t","program":"p(a).","output":"p","backend":"flash"}"#
        )
        .is_err());
        assert!(Request::parse(
            r#"{"op":"run","tenant":"t","program":"p(a).","output":"p","strategy":"earley"}"#
        )
        .is_err());
    }

    #[test]
    fn strategy_overrides_opt_out_of_materialized_serving() {
        let plain = RunRequest::new("t", "p(X) :- q(X).", "p");
        assert!(plain.wants_materialized());
        let mut seminaive = plain.clone();
        seminaive.strategy = Some(Strategy::SemiNaive);
        assert!(
            seminaive.wants_materialized(),
            "an explicit seminaive request is the default evaluation"
        );
        let mut magic = plain.clone();
        magic.strategy = Some(Strategy::Magic);
        assert!(!magic.wants_materialized(), "magic must evaluate fresh");
    }

    #[test]
    fn responses_round_trip_and_follow_the_exit_convention() {
        let ok = Response {
            answers: Some(vec!["a,b".into(), "b,c".into()]),
            models: Some(vec![vec!["a,b".into()], vec!["b,c".into()]]),
            complete: Some(true),
            cache_hit: Some(false),
            mode: Some(ServeMode::Incremental),
            ..Response::ok()
        };
        assert_eq!(Response::parse(&ok.to_json()).unwrap(), ok);
        assert_eq!(ok.exit, 0);

        let limit = Response::error(ErrorCode::Limit(LimitKind::Deadline), "deadline exceeded");
        assert_eq!(limit.exit, 3);
        let parsed = Response::parse(&limit.to_json()).unwrap();
        assert_eq!(parsed.code, Some(ErrorCode::Limit(LimitKind::Deadline)));
        assert_eq!(parsed.exit, 3);

        assert_eq!(Response::error(ErrorCode::Usage, "x").exit, 2);
        assert_eq!(Response::error(ErrorCode::Cancelled, "x").exit, 130);
        assert_eq!(Response::error(ErrorCode::Parse, "x").exit, 1);
        assert_eq!(Response::error(ErrorCode::Protocol, "x").exit, 1);
    }

    #[test]
    fn render_answers_is_canonical() {
        let q = crate::Query::parse("p(X, Y) :- e(X, Y).", "p").unwrap();
        let mut db = q.new_database();
        // Insert out of name order; rendering must sort canonically.
        db.insert_syms("e", &["zoo", "b"]).unwrap();
        db.insert_syms("e", &["ant", "b"]).unwrap();
        let out = q.session(&db).run().unwrap();
        let rendered = render_answers(&out.relation, q.interner());
        assert_eq!(rendered, ["ant,b", "zoo,b"]);
    }
}
