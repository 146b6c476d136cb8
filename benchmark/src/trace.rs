//! Outside-in tracing: spans recorded by the benchmark around its own calls
//! into each layer's public functions (spans inside the program are a later
//! change). Kept in memory, written to `out/trace.json` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// One timed interval. `request` groups the spans of one request or case;
/// `parent` is the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    requests: u32,
}

/// Per op type: the root span's duration and each layer's self time, one
/// sample per request, in milliseconds.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub total_ms: Vec<f64>,
    pub layers_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Breakdown {
    /// Median self time of every layer; together with the remainder they
    /// account for `end_to_end_ms` exactly.
    pub fn layer_medians(&self) -> BTreeMap<&'static str, f64> {
        self.layers_ms
            .iter()
            .map(|(name, samples)| (*name, median(samples)))
            .collect()
    }

    pub fn attributed_ms(&self) -> f64 {
        self.layer_medians().values().sum()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new request or case.
    pub fn begin(&mut self, op: &'static str) -> u32 {
        debug_assert!(self.open.is_empty(), "request opened inside another");
        self.requests += 1;
        self.enter(op)
    }

    /// Open a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request: self.requests,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping lands in the parent.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The op type (root span name) of every request.
    fn ops(&self) -> BTreeMap<u32, &'static str> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.request, s.name))
            .collect()
    }

    /// Durations of every span called `name` — all of them, or only those
    /// inside requests of type `op` — in the unit of which `per_ms` make a
    /// millisecond (1e3 for µs, 1e-3 for s).
    pub fn durations(&self, name: &str, op: Option<&str>, per_ms: f64) -> Vec<f64> {
        let ops = self.ops();
        self.spans
            .iter()
            .filter(|s| s.name == name && op.is_none_or(|op| ops.get(&s.request) == Some(&op)))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6 * per_ms)
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Wall time covered by root spans, in seconds.
    pub fn traced_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time = a span's duration minus the part its children cover.
    /// Grouped by the root span's name (the op type), one sample per request
    /// and layer; a root's own self time is the benchmark's glue and is
    /// reported under the op's own name.
    pub fn breakdown(&self) -> BTreeMap<&'static str, Breakdown> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let root_of_request = self.ops();
        let mut per_request: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            *per_request
                .entry(s.request)
                .or_default()
                .entry(s.name)
                .or_default() += own;
        }
        let mut out: BTreeMap<&'static str, Breakdown> = BTreeMap::new();
        for (request, layers) in per_request {
            let op = root_of_request[&request];
            let b = out.entry(op).or_default();
            b.total_ms.push(layers.values().sum());
            for (name, ms) in layers {
                b.layers_ms.entry(name).or_default().push(ms);
            }
        }
        // A layer absent from some requests of an op contributed 0 there.
        for b in out.values_mut() {
            let n = b.total_ms.len();
            for samples in b.layers_ms.values_mut() {
                samples.resize(n, 0.0);
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start\":{},\"end\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// What recording one span costs, in nanoseconds: the tracing overhead
    /// is this times the span count (the spans sit in the benchmark, so
    /// there is no traced build of the program to difference against).
    pub fn calibrate() -> f64 {
        const N: u32 = 200_000;
        let mut t = Tracer::new();
        let started = Instant::now();
        for _ in 0..N {
            let id = t.enter("calibrate");
            t.exit(id);
            if t.spans.len() >= 1024 {
                t.spans.clear();
            }
        }
        started.elapsed().as_nanos() as f64 / f64::from(N)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::new();
        let root = t.begin("op.x");
        let a = t.enter("layer.a");
        let b = t.enter("layer.b");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let root2 = t.begin("op.x");
        t.exit(root2);
        let bd = t.breakdown();
        let x = &bd["op.x"];
        assert_eq!(x.total_ms.len(), 2);
        let sum: f64 = x.layers_ms.values().map(|v| v[0]).sum();
        assert!((sum - x.total_ms[0]).abs() < 1e-9);
        assert!(x.layers_ms["layer.b"][0] >= 2.0);
        assert!(x.layers_ms["layer.a"][0] < 1.0);
        assert_eq!(x.layers_ms["layer.b"][1], 0.0);
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.durations("layer.b", None, 1.0).len(), 1);
        assert_eq!(t.durations("op.x", Some("op.x"), 1.0).len(), 2);
        assert!(t.durations("layer.b", Some("op.y"), 1.0).is_empty());
        assert!(t.to_json().contains("\"parent\":null"));
    }
}
