//! Metric names, the result line the driver reads, the accumulated results
//! file, and `--compare`.

use std::collections::BTreeMap;
use std::path::Path;

use idlog_core::Json;

use crate::stats::Summary;

/// One metric as `BENCHMARK.json` declares it. Bounds live only in
/// `BENCHMARK.json`; a unit test keeps the names, units and directions here
/// and there identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

pub const WORKLOADS: [&str; 4] = ["tc-batch", "idlog-batch", "serve-maintain", "serve-fresh"];

/// The `idlog run` cases of the two batch workloads.
pub const TC_CASES: [&str; 2] = ["graph", "chain"];
pub const IDLOG_CASES: [&str; 5] = [
    "sample2-seeded",
    "dept-sizes",
    "all-depts-id",
    "zy-orig",
    "zy-id",
];

/// The served op types whose latency is reported separately.
pub const SERVE_OPS: [&str; 6] = [
    "write",
    "read_inc",
    "read_dred",
    "read_hit",
    "read_fresh",
    "read_magic",
];

/// The `EvalStats` counters kept as per-layer metrics (the rest are in the
/// results file's counter block).
pub const EVAL_COUNTERS: [&str; 4] = ["iterations", "instantiations", "inserted", "probes"];

/// Metrics a user of the system sees; every workload reports every one.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("run_wall_s", "s", "lower"),
        def("ops_per_s", "1/s", "higher"),
        def("cpu_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// Metrics of single layers, from the traced run. A workload that bypasses
/// a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![def("cli.spawn_ms", "ms", "lower")];
    let cases = || TC_CASES.iter().chain(IDLOG_CASES.iter());
    for c in cases() {
        m.push(def(format!("cli.case.{c}_s"), "s", "lower"));
    }
    for c in cases() {
        m.push(def(format!("cli.render.{c}_s"), "s", "lower"));
    }
    m.push(def("parser.program_us", "us", "lower"));
    m.push(def("core.compile_us", "us", "lower"));
    m.push(def("core.facts.load_s", "s", "lower"));
    m.push(def("core.facts.ns_per_fact", "ns", "lower"));
    for c in cases() {
        m.push(def(format!("core.eval.{c}_s"), "s", "lower"));
    }
    m.push(def("core.eval.ns_per_inserted", "ns", "lower"));
    for c in cases() {
        for k in EVAL_COUNTERS {
            m.push(def(format!("core.eval.{c}.{k}"), "count", "lower"));
        }
    }
    for c in TC_CASES {
        m.push(def(
            format!("core.eval.t1_over_default.{c}"),
            "ratio",
            "higher",
        ));
    }
    m.push(def("core.eval.columnar_over_hash", "ratio", "lower"));
    for k in ["insert_ns", "probe_ns", "contains_ns"] {
        m.push(def(format!("storage.{k}"), "ns", "lower"));
    }
    m.push(def("storage.db_clone_ms", "ms", "lower"));
    m.push(def("storage.idrel.build_ms", "ms", "lower"));
    m.push(def("storage.idrel.ns_per_tuple", "ns", "lower"));
    for k in ["build_ms", "apply_insert_ms", "apply_retract_ms"] {
        m.push(def(format!("core.maintain.{k}"), "ms", "lower"));
    }
    m.push(def("core.maintain.retract_over_rebuild", "ratio", "lower"));
    m.push(def("core.maintain.recompute_share", "ratio", "lower"));
    m.push(def("core.service.request_parse_us", "us", "lower"));
    m.push(def("core.service.response_render_us", "us", "lower"));
    m.push(def("core.service.render_ns_per_answer", "ns", "lower"));
    m.push(def("server.ping_rtt_us", "us", "lower"));
    for op in SERVE_OPS {
        m.push(def(format!("server.{op}_p50_ms"), "ms", "lower"));
    }
    for op in ["write", "read_inc", "read_dred", "read_fresh"] {
        m.push(def(format!("server.{op}_p99_ms"), "ms", "lower"));
    }
    m.push(def("server.write_max_ms", "ms", "lower"));
    for op in SERVE_OPS {
        m.push(def(format!("server.unattributed_ms.{op}"), "ms", "lower"));
    }
    for mode in ["materialized", "incremental", "recomputed", "fresh"] {
        m.push(def(format!("server.mode.{mode}"), "count", "higher"));
    }
    m.push(def("server.prepared_hit_share", "ratio", "higher"));
    m.push(def("server.preload_inserts_per_s", "1/s", "higher"));
    m.push(def("server.restart_s", "s", "lower"));
    for k in ["append_sync_us", "append_nosync_us"] {
        m.push(def(format!("server.durability.{k}"), "us", "lower"));
    }
    m.push(def("server.durability.fsync_share", "ratio", "lower"));
    m.push(def("server.durability.checkpoint_ms", "ms", "lower"));
    m.push(def("server.durability.checkpoints", "count", "lower"));
    for k in ["wal_bytes", "checkpoint_bytes", "wal_bytes_per_record"] {
        m.push(def(format!("server.durability.{k}"), "bytes", "lower"));
    }
    m.push(def("server.durability.recover_ms", "ms", "lower"));
    m.push(def("server.durability.recovered_records", "count", "lower"));
    m.push(def(
        "server.durability.disk_bytes_per_user_byte",
        "ratio",
        "lower",
    ));
    m.push(def("reference.tc_bfs_s", "s", "lower"));
    m.push(def("trace.overhead_share", "ratio", "lower"));
    m
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Summary>,
    /// Counts that must repeat exactly between runs of one commit.
    pub counters: BTreeMap<String, u64>,
    /// Traced runs: per op type, the end-to-end median, each layer's median
    /// self time and the explicit remainder, all in ms.
    pub breakdown: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Outcome {
    /// Count one operation; a failed one is kept (the first few) and fails
    /// the run's `correct` flag.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn samples(&mut self, name: impl Into<String>, values: &[f64]) {
        self.metrics.insert(name.into(), Summary::of(values));
    }

    pub fn value(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), Summary::single(value));
    }

    /// An exact count: a metric and a counter that `--compare` pins.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        self.metrics
            .insert(name.clone(), Summary::single(value as f64));
        self.counters.insert(name, value);
    }

    pub fn median_of(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |s| s.median)
    }

    /// The last line of standard output: exactly the declared metrics, a
    /// layer the workload bypasses at 0.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics = defs
            .iter()
            .map(|d| {
                let value = self.median_of(&d.name);
                let entry = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::str(d.unit)),
                ];
                (d.name.clone(), Json::Object(entry))
            })
            .collect();
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::int(self.attempted)),
            ("failed".to_string(), Json::int(self.failed)),
            ("metrics".to_string(), Json::Object(metrics)),
        ])
        .render()
    }

    fn section(&self, defs: &[MetricDef], seed: u64, seconds: u64) -> Json {
        let metrics = defs
            .iter()
            .filter_map(|d| self.metrics.get(&d.name).map(|s| (d, s)))
            .map(|(d, s)| {
                let entry = vec![
                    ("unit".to_string(), Json::str(d.unit)),
                    ("n".to_string(), Json::int(s.n as u64)),
                    ("median".to_string(), Json::Num(s.median)),
                    ("p10".to_string(), Json::Num(s.p10)),
                    ("p90".to_string(), Json::Num(s.p90)),
                ];
                (d.name.clone(), Json::Object(entry))
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::int(*v)))
            .collect();
        let breakdown = self
            .breakdown
            .iter()
            .map(|(op, parts)| {
                let parts = parts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect();
                (op.clone(), Json::Object(parts))
            })
            .collect();
        Json::Object(vec![
            ("seed".to_string(), Json::int(seed)),
            ("seconds".to_string(), Json::int(seconds)),
            ("attempted".to_string(), Json::int(self.attempted)),
            ("failed".to_string(), Json::int(self.failed)),
            ("metrics".to_string(), Json::Object(metrics)),
            ("counters".to_string(), Json::Object(counters)),
            ("breakdown_ms".to_string(), Json::Object(breakdown)),
        ])
    }

    /// Replace this run's section in the results file, keeping the others:
    /// eight runs (four workloads × traced or not) make a complete set.
    pub fn merge_into(
        &self,
        path: &Path,
        section: &str,
        defs: &[MetricDef],
        seed: u64,
        seconds: u64,
    ) -> Result<(), String> {
        let mut sections = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(Json::Object(members)) => members,
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        };
        sections.retain(|(k, _)| k != section);
        sections.push((section.to_string(), self.section(defs, seed, seconds)));
        sections.sort_by(|a, b| a.0.cmp(&b.0));
        let mut text = String::from("{\n");
        for (i, (k, v)) in sections.iter().enumerate() {
            let comma = if i + 1 < sections.len() { "," } else { "" };
            text.push_str(&format!("\"{k}\":{}{comma}\n", v.render()));
        }
        text.push_str("}\n");
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn members(j: Option<&Json>) -> &[(String, Json)] {
    match j {
        Some(Json::Object(m)) => m,
        _ => &[],
    }
}

/// `--compare a.json b.json`: per section and metric, the relative
/// difference of `b`'s median against `a`'s, judged against the bound
/// `BENCHMARK.json` fixes; any exact counter that differs fails. Returns
/// whether everything held.
pub fn compare(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let spec = load(benchmark_json)?;
    let mut bounds: BTreeMap<String, (f64, bool)> = BTreeMap::new();
    for m in spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        if let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
            m.get("better").and_then(Json::as_str),
        ) {
            bounds.insert(name.to_string(), (bound, better == "higher"));
        }
    }
    let mut ok = true;
    let mut compared = 0usize;
    for (section, sa) in members(Some(&a)) {
        let Some(sb) = b.get(section) else {
            println!("{section}: only in {a_path}");
            continue;
        };
        println!("== {section}");
        for (name, ma) in members(sa.get("metrics")) {
            let (Some(va), Some(vb)) = (
                ma.get("median").and_then(Json::as_f64),
                sb.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("median"))
                    .and_then(Json::as_f64),
            ) else {
                continue;
            };
            compared += 1;
            let rel = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let verdict = match bounds.get(name) {
                Some(&(bound, higher_is_better)) => {
                    let worse = if higher_is_better { -rel } else { rel };
                    if worse > bound {
                        ok = false;
                        format!("WORSE than bound {:.1}%", bound * 100.0)
                    } else {
                        format!("within bound {:.1}%", bound * 100.0)
                    }
                }
                None => String::new(),
            };
            println!(
                "  {name:<44} {va:>14.6} {vb:>14.6} {:>+8.2}%  {verdict}",
                rel * 100.0
            );
        }
        for (name, ca) in members(sa.get("counters")) {
            let cb = sb.get("counters").and_then(|c| c.get(name));
            if cb != Some(ca) {
                ok = false;
                println!(
                    "  counter {name}: {} vs {} DIFFERS",
                    ca.render(),
                    cb.map_or("absent".to_string(), Json::render)
                );
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no metric".to_string());
    }
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        for d in &all {
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }

    /// `BENCHMARK.json` must declare exactly what the command prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = load(path).expect("BENCHMARK.json at the repository root");
        let declared = |key: &str| -> Vec<MetricDef> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    MetricDef {
                        name: field("name"),
                        unit: Box::leak(field("unit").into_boxed_str()),
                        better: Box::leak(field("better").into_boxed_str()),
                    }
                })
                .collect()
        };
        let render = |defs: &[MetricDef]| {
            defs.iter()
                .map(|d| {
                    format!(
                        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                        d.name, d.unit, d.better
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        assert_eq!(declared("end_to_end"), end_to_end(), "end_to_end differs");
        assert!(
            declared("per_layer") == per_layer(),
            "per_layer differs; the registry says:\n{}",
            render(&per_layer())
        );
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_reports_every_declared_metric_and_zero_for_bypassed_layers() {
        let mut o = Outcome::default();
        o.op("x", Ok(()));
        o.value("setup_s", 0.25);
        let line = o.result_line(&end_to_end());
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(1));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            m.get("cpu_s")
                .and_then(|s| s.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        o.op("y", Err("boom".into()));
        assert!(o
            .result_line(&end_to_end())
            .starts_with("{\"correct\":false"));
    }
}
