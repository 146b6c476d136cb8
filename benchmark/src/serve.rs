//! What the two served workloads share: the `idlog serve` child, a line
//! client with a per-request timeout, and per-client measurement logs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use idlog_core::service::{FactValue, Request, Response, RunRequest, ServeMode};

use crate::child::{Proc, Usage};
use crate::harness::Env;
use crate::report::{Outcome, SERVE_OPS};
use crate::stats::Summary;
use crate::trace::Tracer;

/// A reply later than this is a failed op and aborts the workload.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Durable serving: flush policy and checkpoint interval are part of the
/// workload definition, the same on every commit. The interval is the
/// default 1024 scaled to the shortened cycle phase, so that several
/// checkpoints still land inside it.
pub const SYNC_POLICY: &str = "always";
pub const CHECKPOINT_EVERY: u64 = 256;

/// A running `idlog serve --workers 2` child on an ephemeral port.
pub struct Server {
    proc: Option<Proc>,
    stderr: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Server {
    /// Spawn and wait for the listening line. With a data directory the
    /// server is durable (`--sync always`); without, in-memory.
    pub fn spawn(env: &Env, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(&env.idlog);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir")
                .arg(dir)
                .args(["--sync", SYNC_POLICY])
                .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut proc =
            Proc::spawn(&mut cmd).map_err(|e| format!("cannot spawn idlog serve: {e}"))?;
        let pipe = proc.take_stderr().ok_or("no stderr pipe")?;
        let (tx, rx) = mpsc::channel();
        // Keeps draining after the address arrived, so the server never
        // blocks on a full pipe; ends at EOF when the server dies.
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = Server {
            proc: Some(proc),
            stderr: Some(stderr),
            addr: String::new(),
        };
        server.addr = rx
            .recv_timeout(REQUEST_TIMEOUT)
            .map_err(|_| "idlog serve did not report a listening address".to_string())?;
        Ok(server)
    }

    pub fn cpu_seconds(&self) -> Result<f64, String> {
        self.proc
            .as_ref()
            .expect("present until kill or drop")
            .cpu_seconds()
            .map_err(|e| format!("server cpu: {e}"))
    }

    /// kill -9, reap, and report what the process cost.
    pub fn kill(mut self) -> Result<Usage, String> {
        let proc = self.proc.take().expect("present until kill or drop");
        let usage = proc
            .kill()
            .map_err(|e| format!("cannot kill server: {e}"))?;
        self.join_stderr();
        Ok(usage)
    }

    fn join_stderr(&mut self) {
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropping the process kills and reaps it, which closes the pipe the
        // reader thread is blocked on.
        drop(self.proc.take());
        self.join_stderr();
    }
}

/// One closed-loop connection: the next request goes out when the previous
/// reply has arrived.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let configured = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REQUEST_TIMEOUT)))
            .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .and_then(|()| stream.try_clone());
        let reader = configured.map_err(|e| format!("socket set-up: {e}"))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one request line; returns the reply and the send → reply
    /// latency in milliseconds. The reply is parsed after the clock stops.
    pub fn call(&mut self, request: &str) -> Result<(Response, f64), String> {
        let started = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("no reply within {REQUEST_TIMEOUT:?}: {e}"))?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        let response = Response::parse(self.line.trim()).map_err(|e| format!("bad reply: {e}"))?;
        Ok((response, ms))
    }
}

/// Run `work` once per client, each on its own thread with its own input,
/// and wait for all of them: the two closed-loop clients of a served phase.
pub fn per_client<S: Sync, T: Send>(
    clients: &mut [Client],
    inputs: &[S],
    work: impl Fn(usize, &mut Client, &S) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(inputs)
            .enumerate()
            .map(|(i, (client, input))| scope.spawn(move || work(i, client, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    })
}

pub fn fact_line(insert: bool, tenant: &str, pred: &str, args: &[String]) -> String {
    let tuple = args.iter().cloned().map(FactValue::Sym).collect();
    let (tenant, pred) = (tenant.to_string(), pred.to_string());
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
    .to_json()
}

pub fn edge_line(insert: bool, tenant: &str, a: u32, b: u32) -> String {
    fact_line(insert, tenant, "e", &[format!("v{a}"), format!("v{b}")])
}

pub fn run_line(request: RunRequest) -> String {
    Request::Run(request).to_json()
}

/// A write must be acknowledged as a change.
pub fn check_ack(r: &Response) -> Result<(), String> {
    match (r.exit, r.changed) {
        (0, Some(true)) => Ok(()),
        _ => Err(format!(
            "write not acknowledged as a change: {}",
            r.to_json()
        )),
    }
}

/// A `run` must succeed completely; returns its answers.
pub fn answers_of(r: &Response) -> Result<&[String], String> {
    match (&r.answers, r.exit, r.complete) {
        (Some(a), 0, Some(true)) => Ok(a),
        _ => Err(format!("run failed: exit {} {:?}", r.exit, r.error)),
    }
}

/// What one client measured: per-request latency by op type, per-cycle
/// wall, the ops' verdicts, and the serve modes the replies named.
#[derive(Default)]
pub struct ClientLog {
    pub latency_ms: [Vec<f64>; SERVE_OPS.len()],
    pub cycle_s: Vec<f64>,
    pub outcome: Outcome,
    pub modes: [u64; 4],
    pub runs: u64,
    pub cache_hits: u64,
    /// Correct requests per second of this client's own phase; merged logs
    /// hold the sum over clients. (Requests ÷ the wall of the slower client
    /// would charge the faster one's idle tail to the server.)
    pub ops_per_s: f64,
}

pub fn op_index(op: &str) -> usize {
    SERVE_OPS
        .iter()
        .position(|o| *o == op)
        .expect("a declared op type")
}

impl ClientLog {
    pub fn record(&mut self, op: usize, ms: f64, response: &Response, verdict: Result<(), String>) {
        self.latency_ms[op].push(ms);
        self.outcome.op(SERVE_OPS[op], verdict);
        if let Some(mode) = response.mode {
            self.runs += 1;
            self.cache_hits += u64::from(response.cache_hit == Some(true));
            self.modes[match mode {
                ServeMode::Materialized => 0,
                ServeMode::Incremental => 1,
                ServeMode::Recomputed => 2,
                ServeMode::Fresh => 3,
            }] += 1;
        }
    }

    /// Close a client's log after `wall_s` seconds of closed-loop requests.
    pub fn finish(mut self, wall_s: f64) -> ClientLog {
        self.ops_per_s = (self.outcome.attempted - self.outcome.failed) as f64 / wall_s;
        self
    }

    /// The clients' logs as one: samples pooled, counts and rates summed.
    pub fn merge(logs: Vec<ClientLog>) -> ClientLog {
        let mut all = ClientLog::default();
        for log in logs {
            all.ops_per_s += log.ops_per_s;
            for (mine, theirs) in all.latency_ms.iter_mut().zip(log.latency_ms) {
                mine.extend(theirs);
            }
            all.cycle_s.extend(log.cycle_s);
            all.outcome.attempted += log.outcome.attempted;
            all.outcome.failed += log.outcome.failed;
            all.outcome.failures.extend(log.outcome.failures);
            for (mine, theirs) in all.modes.iter_mut().zip(log.modes) {
                *mine += theirs;
            }
            all.runs += log.runs;
            all.cache_hits += log.cache_hits;
        }
        all
    }

    /// The ops' verdicts plus the end-to-end metrics the cycle phase gives;
    /// `server_cpu_s` is what the server burnt over it.
    pub fn end_to_end(self, server_cpu_s: f64) -> Outcome {
        let mut o = self.outcome;
        o.samples("run_wall_s", &self.cycle_s);
        o.value("ops_per_s", self.ops_per_s);
        o.value("cpu_s", server_cpu_s / self.cycle_s.len() as f64);
        o
    }

    /// The ops' verdicts plus the served per-layer metrics of a traced run:
    /// op-type medians and tails, serve-mode counts, prepared-cache hit
    /// share.
    pub fn per_layer(self) -> Outcome {
        let mut o = self.outcome;
        for (op, samples) in SERVE_OPS.iter().zip(&self.latency_ms) {
            if samples.is_empty() {
                continue;
            }
            let s = Summary::of(samples);
            o.metrics.insert(format!("server.{op}_p50_ms"), s);
            if ["write", "read_inc", "read_dred", "read_fresh"].contains(op) {
                o.value(format!("server.{op}_p99_ms"), s.p99);
            }
            if *op == "write" {
                o.value("server.write_max_ms", s.max);
            }
        }
        for (mode, n) in ["materialized", "incremental", "recomputed", "fresh"]
            .iter()
            .zip(self.modes)
        {
            o.count(format!("server.mode.{mode}"), n);
        }
        if self.runs > 0 {
            o.value(
                "server.prepared_hit_share",
                self.cache_hits as f64 / self.runs as f64,
            );
        }
        o
    }
}

/// Median round trip of a `ping`: transport plus worker hand-off, the floor
/// under every served latency.
pub fn ping_rtt_us(client: &mut Client) -> Result<Vec<f64>, String> {
    let line = Request::Ping { schema: None }.to_json();
    (0..200)
        .map(|_| client.call(&line).map(|(_, ms)| ms * 1e3))
        .collect()
}

/// Bytes in regular files under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Join the layer self times of the in-process replay with the end-to-end
/// medians of the real pass: per op type, layers + unattributed = end to
/// end, the remainder being socket, queue, worker hand-off and tenant lock.
pub fn attribute(o: &mut Outcome, tr: &Tracer) {
    for (op, b) in tr.breakdown() {
        let Some(e2e) = o
            .metrics
            .get(&format!("server.{op}_p50_ms"))
            .map(|s| s.median)
        else {
            continue;
        };
        let mut parts: std::collections::BTreeMap<String, f64> = b
            .layer_medians()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let unattributed = e2e - b.attributed_ms();
        o.value(format!("server.unattributed_ms.{op}"), unattributed);
        parts.insert("server.unattributed (remainder)".to_string(), unattributed);
        parts.insert("end_to_end".to_string(), e2e);
        o.breakdown.insert(op.to_string(), parts);
    }
}
