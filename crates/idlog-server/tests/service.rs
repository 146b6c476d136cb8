//! End-to-end tests of the served protocol: concurrency across tenants,
//! byte-identical answers against direct sessions, cache behaviour, limit
//! handling, and error codes.

use std::net::SocketAddr;
use std::thread;

use idlog_core::service::{render_answers, FactValue, Request, Response, RunRequest, ServeMode};
use idlog_core::{ErrorCode, LimitKind, Query, SeededOracle, Strategy, Tuple, Value};
use idlog_server::{Client, Server, DEFAULT_WORKERS};
use idlog_storage::{BackendKind, Database};

const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).";

fn start() -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run(DEFAULT_WORKERS).expect("serve"));
    (addr, handle)
}

fn client(addr: SocketAddr) -> Client {
    Client::connect(&addr.to_string()).expect("connect")
}

fn shutdown(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let resp = client(addr).request(&Request::Shutdown).expect("shutdown");
    assert_eq!(resp.exit, 0);
    handle.join().expect("server thread");
}

fn insert(c: &mut Client, tenant: &str, pred: &str, cols: &[&str]) -> Response {
    c.request(&Request::Insert {
        tenant: tenant.into(),
        pred: pred.into(),
        tuple: cols.iter().map(|s| FactValue::Sym(s.to_string())).collect(),
    })
    .expect("insert")
}

fn retract(c: &mut Client, tenant: &str, pred: &str, cols: &[&str]) -> Response {
    c.request(&Request::Retract {
        tenant: tenant.into(),
        pred: pred.into(),
        tuple: cols.iter().map(|s| FactValue::Sym(s.to_string())).collect(),
    })
    .expect("retract")
}

/// What a fresh, single-threaded, direct [`idlog_core::Session`] renders
/// for `program`/`output` over `edges` — the reference the served answers
/// must equal byte for byte.
fn direct_answers(program: &str, output: &str, edges: &[(String, String)]) -> Vec<String> {
    let query = Query::parse(program, output).expect("parse");
    let mut db = Database::with_interner(query.interner().clone());
    for (a, b) in edges {
        db.insert_syms("e", &[a, b]).expect("insert");
    }
    let out = query.session(&db).threads(1).run().expect("run");
    render_answers(&out.relation, query.interner())
}

#[test]
fn served_answers_match_direct_sessions_for_concurrent_tenants() {
    let (addr, handle) = start();
    const CLIENTS: usize = 8;
    const TENANTS: usize = 2;

    // Each client owns a disjoint slice of the node space, so the final
    // database per tenant is deterministic whatever the interleaving:
    // edges n{i}_0 → … → n{i}_9 minus the two retracted mid-stream.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            thread::spawn(move || {
                let tenant = format!("t{}", i % TENANTS);
                let mut c = client(addr);
                for j in 0..9 {
                    let resp = insert(
                        &mut c,
                        &tenant,
                        "e",
                        &[&format!("n{i}_{j}"), &format!("n{i}_{}", j + 1)],
                    );
                    assert_eq!(resp.exit, 0, "insert failed: {:?}", resp.error);
                    assert_eq!(resp.changed, Some(true));
                    // Interleave queries with the writes; every response
                    // must be a clean success.
                    let run = c
                        .request(&Request::Run(RunRequest::new(&tenant, TC, "t")))
                        .expect("run");
                    assert_eq!(run.exit, 0, "run failed: {:?}", run.error);
                    assert!(run.answers.is_some());
                }
                for j in [6, 7] {
                    let resp = retract(
                        &mut c,
                        &tenant,
                        "e",
                        &[&format!("n{i}_{j}"), &format!("n{i}_{}", j + 1)],
                    );
                    assert_eq!(resp.exit, 0);
                    assert_eq!(resp.changed, Some(true));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    for tenant_idx in 0..TENANTS {
        let tenant = format!("t{tenant_idx}");
        let mut edges = Vec::new();
        for i in (0..CLIENTS).filter(|i| i % TENANTS == tenant_idx) {
            for j in (0..9).filter(|j| ![6, 7].contains(j)) {
                edges.push((format!("n{i}_{j}"), format!("n{i}_{}", j + 1)));
            }
        }
        let expected = direct_answers(TC, "t", &edges);
        let mut c = client(addr);
        let served = c
            .request(&Request::Run(RunRequest::new(&tenant, TC, "t")))
            .expect("run");
        assert_eq!(served.exit, 0);
        assert_eq!(served.answers.as_deref(), Some(&expected[..]));
        // The served state survived the mixed run/insert/retract traffic.
        let stats = c
            .request(&Request::Stats {
                tenant: tenant.clone(),
            })
            .expect("stats");
        assert_eq!(stats.facts, Some(edges.len() as u64));
    }
    shutdown(addr, handle);
}

#[test]
fn cache_miss_then_hit_then_incremental_maintenance() {
    let (addr, handle) = start();
    let mut c = client(addr);
    insert(&mut c, "acme", "e", &["a", "b"]);
    insert(&mut c, "acme", "e", &["b", "c"]);

    let run = |c: &mut Client| {
        c.request(&Request::Run(RunRequest::new("acme", TC, "t")))
            .expect("run")
    };
    let first = run(&mut c);
    assert_eq!(first.exit, 0);
    assert_eq!(first.cache_hit, Some(false));
    assert_eq!(first.mode, Some(ServeMode::Recomputed));
    assert_eq!(
        first.answers.as_deref(),
        Some(&["a,b".to_string(), "a,c".into(), "b,c".into()][..])
    );

    let second = run(&mut c);
    assert_eq!(second.cache_hit, Some(true));
    assert_eq!(second.mode, Some(ServeMode::Materialized));
    assert_eq!(second.answers, first.answers);

    // A fact change re-drives the delta machinery instead of recomputing.
    insert(&mut c, "acme", "e", &["c", "d"]);
    let third = run(&mut c);
    assert_eq!(third.cache_hit, Some(true));
    assert_eq!(third.mode, Some(ServeMode::Incremental));
    assert_eq!(
        third.answers.as_deref(),
        Some(
            &direct_answers(
                TC,
                "t",
                &[
                    ("a".into(), "b".into()),
                    ("b".into(), "c".into()),
                    ("c".into(), "d".into()),
                ],
            )[..]
        )
    );

    // Deletion: DRed removes the no-longer-derivable closure.
    let ret = retract(&mut c, "acme", "e", &["b", "c"]);
    assert_eq!(ret.changed, Some(true));
    let fourth = run(&mut c);
    assert_eq!(fourth.mode, Some(ServeMode::Incremental));
    assert_eq!(
        fourth.answers.as_deref(),
        Some(
            &direct_answers(
                TC,
                "t",
                &[("a".into(), "b".into()), ("c".into(), "d".into())]
            )[..]
        )
    );
    shutdown(addr, handle);
}

#[test]
fn served_answers_are_identical_across_backends_and_thread_counts() {
    let (addr, handle) = start();
    let mut c = client(addr);
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")] {
        insert(&mut c, "x", "e", &[a, b]);
    }
    let expected = direct_answers(
        TC,
        "t",
        &[
            ("a".into(), "b".into()),
            ("b".into(), "c".into()),
            ("c".into(), "a".into()),
            ("c".into(), "d".into()),
        ],
    );
    for backend in [BackendKind::Hash, BackendKind::Columnar] {
        for threads in [1, 4] {
            // Materialized path (fresh tenant-equivalent query text per
            // combination keeps each request a clean build).
            let mut req = RunRequest::new("x", TC, "t");
            req.backend = Some(backend);
            req.threads = Some(threads);
            let served = c.request(&Request::Run(req.clone())).expect("run");
            assert_eq!(served.exit, 0);
            assert_eq!(
                served.answers.as_deref(),
                Some(&expected[..]),
                "materialized, backend={backend:?} threads={threads}"
            );
            // Fresh path: the same request with a (generous) limit skips
            // the cache and evaluates from a snapshot.
            req.max_rounds = Some(1_000_000);
            let fresh = c.request(&Request::Run(req)).expect("run");
            assert_eq!(fresh.exit, 0);
            assert_eq!(fresh.mode, Some(ServeMode::Fresh));
            assert_eq!(
                fresh.answers.as_deref(),
                Some(&expected[..]),
                "fresh, backend={backend:?} threads={threads}"
            );
        }
    }
    shutdown(addr, handle);
}

#[test]
fn deadline_trip_returns_partial_results_without_poisoning_the_tenant() {
    let (addr, handle) = start();
    let mut c = client(addr);
    // A chain long enough that its transitive closure cannot finish in a
    // microsecond-scale deadline.
    for j in 0..400 {
        let resp = insert(
            &mut c,
            "slow",
            "e",
            &[&format!("v{j}"), &format!("v{}", j + 1)],
        );
        assert_eq!(resp.exit, 0);
    }
    let mut limited = RunRequest::new("slow", TC, "t");
    limited.timeout_ms = Some(1);
    let tripped = c.request(&Request::Run(limited)).expect("run");
    assert_eq!(tripped.exit, 3, "deadline must trip: {:?}", tripped.error);
    assert_eq!(tripped.code, Some(ErrorCode::Limit(LimitKind::Deadline)));
    assert_eq!(tripped.complete, Some(false));
    assert!(
        tripped.answers.is_some(),
        "a tripped run still reports the partial prefix"
    );

    // The tenant is not poisoned: a bounded-but-roomy request still
    // completes correctly afterwards.
    let mut roomy = RunRequest::new("slow", TC, "t");
    roomy.timeout_ms = Some(60_000);
    let after = c.request(&Request::Run(roomy)).expect("run");
    assert_eq!(after.exit, 0, "tenant poisoned: {:?}", after.error);
    let expected_len = 400 * 401 / 2;
    assert_eq!(after.answers.map(|a| a.len()), Some(expected_len));
    shutdown(addr, handle);
}

#[test]
fn limit_kinds_map_to_stable_codes_over_the_wire() {
    let (addr, handle) = start();
    let mut c = client(addr);
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")] {
        insert(&mut c, "lim", "e", &[a, b]);
    }
    let mut req = RunRequest::new("lim", TC, "t");
    req.max_rounds = Some(1);
    let resp = c.request(&Request::Run(req)).expect("run");
    assert_eq!(resp.exit, 3);
    assert_eq!(resp.code, Some(ErrorCode::Limit(LimitKind::Rounds)));
    assert_eq!(resp.complete, Some(false));
    shutdown(addr, handle);
}

#[test]
fn error_codes_cover_protocol_compile_and_input_failures() {
    let (addr, handle) = start();
    let mut c = client(addr);

    let raw = c.request_raw("this is not json").expect("raw");
    let resp = Response::parse(&raw).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));
    assert_eq!(resp.exit, 1);

    let raw = c.request_raw(r#"{"op":"warp"}"#).expect("raw");
    let resp = Response::parse(&raw).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));

    // The wire names two strategies, seminaive and magic; anything else is
    // a protocol error.
    let raw = c
        .request_raw(
            r#"{"op":"run","tenant":"err","program":"t(a).","output":"t","strategy":"naive"}"#,
        )
        .expect("raw");
    let resp = Response::parse(&raw).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("unknown strategy"),
        "{:?}",
        resp.error
    );

    // A malformed program reports the library's parse code.
    let bad = c
        .request(&Request::Run(RunRequest::new("err", "t(X :-", "t")))
        .expect("run");
    assert_eq!(bad.code, Some(ErrorCode::Parse));
    assert_eq!(bad.exit, 1);

    // Retracting from an undeclared relation is an input error.
    let missing = retract(&mut c, "err", "ghost", &["a"]);
    assert_eq!(missing.code, Some(ErrorCode::Input));
    assert_eq!(missing.exit, 1);

    // An ill-typed fact is an input error too.
    insert(&mut c, "err", "p", &["a"]);
    let bad_fact = c
        .request(&Request::Insert {
            tenant: "err".into(),
            pred: "p".into(),
            tuple: vec![FactValue::Int(idlog_core::Nat::new(3).unwrap())],
        })
        .expect("insert");
    assert_eq!(bad_fact.code, Some(ErrorCode::Input));

    let ping = c.request(&Request::Ping { schema: None }).expect("ping");
    assert_eq!(ping.exit, 0);
    assert_eq!(ping.schema.as_deref(), Some("idlog-service/2"));
    shutdown(addr, handle);
}

/// A request line of a million `[`s parses to a protocol error on the
/// worker's ordinary stack instead of overflowing it, and the same
/// connection keeps answering.
#[test]
fn a_deeply_nested_request_is_refused_and_the_connection_survives() {
    let (addr, handle) = start();
    let mut c = client(addr);
    let raw = c.request_raw(&"[".repeat(1_000_000)).expect("raw");
    let resp = Response::parse(&raw).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));
    assert!(
        resp.error.as_deref().unwrap_or("").contains("nesting"),
        "{:?}",
        resp.error
    );
    let ping = c.request(&Request::Ping { schema: None }).expect("ping");
    assert_eq!(ping.exit, 0);
    shutdown(addr, handle);
}

#[test]
fn seeded_and_enumerating_requests_take_the_fresh_path() {
    let (addr, handle) = start();
    let mut c = client(addr);
    insert(&mut c, "nd", "e", &["a", "b"]);
    insert(&mut c, "nd", "e", &["b", "c"]);

    let mut seeded = RunRequest::new("nd", TC, "t");
    seeded.seed = Some(7);
    let resp = c.request(&Request::Run(seeded)).expect("run");
    assert_eq!(resp.exit, 0);
    assert_eq!(resp.mode, Some(ServeMode::Fresh));

    let mut all = RunRequest::new("nd", TC, "t");
    all.all = true;
    let resp = c.request(&Request::Run(all)).expect("run");
    assert_eq!(resp.exit, 0);
    assert_eq!(resp.complete, Some(true));
    // TC is deterministic: exactly one answer, equal to the canonical one.
    let models = resp.models.expect("models");
    assert_eq!(models.len(), 1);
    shutdown(addr, handle);
}

/// A fresh request snapshots the tenant database (`Database::clone`: one
/// pointer per predicate, no tuple copied) and evaluates the snapshot after
/// releasing the tenant. Writes that land meanwhile copy the relation they
/// change and leave the snapshot reading the version it was taken from: its
/// scans, its probes — through the index an earlier query readied on the
/// shared relation — and its answers. The database answers the new state.
#[test]
fn a_fresh_snapshot_answers_from_its_version_while_writes_land() {
    const ANC: &str = "anc(X, Y) :- parent(X, Y).\n\
                       anc(X, Z) :- anc(X, Y), parent(Y, Z).\n\
                       q(Y) :- anc(p0, Y).";
    let query = Query::parse(ANC, "q").expect("parse");
    let node = |n: usize| format!("p{n}");
    let mut db = Database::with_interner(query.interner().clone());
    for n in 0..50 {
        db.insert_syms("parent", &[&node(n), &node(n + 1)])
            .expect("insert");
    }
    let answers = |db: &Database, strategy: Strategy| {
        let out = query.session(db).threads(1).strategy(strategy).run();
        render_answers(&out.expect("run").relation, query.interner())
    };
    let descendants = |last: usize| -> Vec<String> {
        let mut names: Vec<String> = (1..=last).map(node).collect();
        names.sort();
        names
    };
    // The magic query probes `parent` on its first column: the index it
    // readies stays with the stored relation the snapshot then shares.
    let before = answers(&db, Strategy::Magic);
    assert_eq!(before, descendants(50));
    let snapshot = db.clone();
    let parent = |db: &Database| -> Vec<Tuple> {
        db.relation("parent")
            .expect("parent")
            .iter()
            .cloned()
            .collect()
    };
    let scanned = parent(&snapshot);

    thread::scope(|scope| {
        let reader = scope.spawn(|| {
            for _ in 0..10 {
                assert_eq!(answers(&snapshot, Strategy::Magic), before);
                assert_eq!(answers(&snapshot, Strategy::SemiNaive), before);
            }
        });
        for n in 50..60 {
            db.insert_syms("parent", &[&node(n), &node(n + 1)])
                .expect("insert");
        }
        db.retract_syms("parent", &[&node(59), &node(60)])
            .expect("retract");
        reader.join().expect("reader");
    });

    assert_eq!(parent(&snapshot), scanned, "the snapshot's scan moved");
    let key = |n: usize| -> Tuple {
        [Value::Sym(query.interner().intern(&node(n)))]
            .into_iter()
            .collect()
    };
    let probe = |db: &Database, n: usize| {
        let rel = db.relation("parent").expect("parent");
        rel.ensure_index(&[0]).probe(&key(n)).len()
    };
    assert_eq!((probe(&snapshot, 49), probe(&snapshot, 50)), (1, 0));
    assert_eq!((probe(&db, 50), probe(&db, 59)), (1, 0));
    assert_eq!(answers(&snapshot, Strategy::Magic), before);
    assert_eq!(answers(&db, Strategy::Magic), descendants(59));
    assert_eq!(answers(&db, Strategy::SemiNaive), descendants(59));
}

/// A seeded sample reads the group index the tenant's stored `emp` keeps
/// between requests. An insert that lands while samples are answered copies
/// the relation, and only the copy groups again: every answer is the sample
/// of one version — before the insert or after it, never a mix — and the
/// first request after the insert's ack answers the new version.
#[test]
fn a_seeded_sample_answers_one_version_while_an_emp_insert_lands() {
    const SAMPLE: &str = "pick(N) :- emp[2](N, D, T), T < 2.";
    let emp: Vec<[String; 2]> = (0..60)
        .map(|n| [format!("e{n}"), format!("d{}", n % 6)])
        .collect();
    let late = ["late".to_string(), "dnew".to_string()];
    let direct = |rows: &[[String; 2]]| {
        let query = Query::parse(SAMPLE, "pick").expect("parse");
        let mut db = Database::with_interner(query.interner().clone());
        for [name, dept] in rows {
            db.insert_syms("emp", &[name, dept]).expect("insert");
        }
        let out = query
            .session(&db)
            .threads(1)
            .run_with(&mut SeededOracle::new(7));
        render_answers(&out.expect("run").relation, query.interner())
    };
    let before = direct(&emp);
    let after = direct(&[emp.clone(), vec![late.clone()]].concat());
    // `late` is alone in its department, so every sample picks it.
    assert!(!before.contains(&late[0]) && after.contains(&late[0]));

    let (addr, handle) = start();
    let mut c = client(addr);
    for [name, dept] in &emp {
        assert_eq!(insert(&mut c, "s", "emp", &[name, dept]).exit, 0);
    }
    let sample = |c: &mut Client| {
        let mut r = RunRequest::new("s", SAMPLE, "pick");
        r.seed = Some(7);
        let resp = c.request(&Request::Run(r)).expect("run");
        assert_eq!(resp.mode, Some(ServeMode::Fresh));
        resp.answers.expect("answers")
    };
    assert_eq!(sample(&mut c), before);
    let started = std::sync::Barrier::new(2);
    thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut c = client(addr);
            started.wait();
            for _ in 0..20 {
                let got = sample(&mut c);
                assert!(got == before || got == after, "a mixed sample: {got:?}");
            }
        });
        started.wait();
        assert_eq!(insert(&mut c, "s", "emp", &[&late[0], &late[1]]).exit, 0);
        reader.join().expect("reader");
    });
    assert_eq!(sample(&mut c), after);
    shutdown(addr, handle);
}
