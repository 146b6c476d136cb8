//! Input generators. Every function is a pure function of its seed: the
//! same seed gives byte-identical fact files and request streams, and the
//! program under test only ever sees what is generated here.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::reference::Adjacency;
use crate::rng::Rng;

/// The recursive program of `tc-batch` and `serve-maintain`.
pub const TC_PROGRAM: &str = "t(X,Y):-e(X,Y).\nt(X,Z):-t(X,Y),e(Y,Z).\n";
/// `serve-maintain`'s view: everything reachable from the given source
/// nodes ([`VIEW_SOURCES`] of them, spread evenly over the graph). One
/// source sees a neighbourhood of a few dozen nodes which hardly any write
/// touches; eight see enough of the graph for the answer to move every few
/// writes, and are still a small response.
pub fn reach_program(sources: &[u32]) -> String {
    let mut program = TC_PROGRAM.to_string();
    for source in sources {
        let _ = writeln!(program, "reach(Y):-t(v{source},Y).");
    }
    program
}

pub const VIEW_SOURCES: u32 = 8;

/// Where the structure of the two random graphs comes from. A random
/// digraph at `tc-batch`'s density and a band DAG at `serve-maintain`'s are
/// both close to critical: drawn per seed, the closure swings by ±20 % and
/// 44 000–126 000 tuples respectively, and what a retract makes DRed redo
/// by far more — a workload whose size did that could not tell a regression
/// from a lucky seed. So, like the chain, each graph has one structure
/// (these constants pick a typical one) and the seed decides how it is
/// presented: node names, line order, and every request made against it.
const GRAPH_STRUCTURE: u64 = 52;
const DAG_STRUCTURE: u64 = 39;

/// A seeded renaming of nodes `0..n`.
fn labels(rng: &mut Rng, n: u32) -> Vec<u32> {
    let mut label: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut label);
    label
}
/// The paper's §1 sampling query (`programs/sampling.idl`).
pub const SAMPLE_PROGRAM: &str = "select_two_emp(Name) :- emp[2](Name, _Dept, T), T < 2.\n";
/// ID-literal plus stratified negation (`programs/dept_sizes.idl`).
pub const DEPT_SIZES_PROGRAM: &str = "has_two(Dept) :- emp[2](_Name, Dept, T), T = 1.\n\
     singleton(Dept) :- emp[2](_Name, Dept, 0), not has_two(Dept).\n";
/// The §4 ID version of the department list (`programs/all_depts.idl`).
pub const ALL_DEPTS_PROGRAM: &str = "all_depts(Dept) :- emp[2](_Name, Dept, 0).\n";
/// The §4 existential join and its ID-literal rewrite.
pub const ZY_ORIG_PROGRAM: &str = "p(X) :- q(X, Z), z(Z, Y), y(W).\n";
pub const ZY_ID_PROGRAM: &str = "p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).\n";

/// The magic point query of `serve-fresh`; the chain head is part of the
/// program text, so each head is its own prepared-cache entry.
pub fn ancestor_program(head: &str) -> String {
    format!(
        "ancestor(X, Y) :- parent(X, Y).\nancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).\n\
         query(Y) :- ancestor({head}, Y).\n"
    )
}

/// A directed graph over nodes `v0..v{n-1}`, edges in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub n: u32,
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// The fact file: one `e(va, vb).` line per edge.
    pub fn facts(&self) -> String {
        let mut out = String::with_capacity(self.edges.len() * 16);
        for (a, b) in &self.edges {
            let _ = writeln!(out, "e(v{a}, v{b}).");
        }
        out
    }
}

/// `m` distinct non-loop edges over `n` nodes, cycles allowed: one fixed
/// structure (see [`GRAPH_STRUCTURE`]), nodes renamed and lines shuffled by
/// the seed.
pub fn random_digraph(seed: u64, n: u32, m: usize) -> Graph {
    let mut structure = Rng::new(GRAPH_STRUCTURE, "random-digraph");
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let a = structure.below(u64::from(n)) as u32;
        let b = structure.below(u64::from(n)) as u32;
        if a != b && seen.insert((a, b)) {
            edges.push((a, b));
        }
    }
    let mut rng = Rng::new(seed, "random-digraph");
    let label = labels(&mut rng, n);
    for edge in &mut edges {
        *edge = (label[edge.0 as usize], label[edge.1 as usize]);
    }
    rng.shuffle(&mut edges);
    Graph { n, edges }
}

/// A `len`-edge path through a seeded relabelling of `len + 1` nodes, lines
/// shuffled: the closure is always `len·(len+1)/2` tuples in `len` rounds,
/// but which tuple arrives when depends on the seed.
pub fn chain(seed: u64, len: u32) -> Graph {
    let mut rng = Rng::new(seed, "chain");
    let label = labels(&mut rng, len + 1);
    let mut edges: Vec<(u32, u32)> = label.windows(2).map(|w| (w[0], w[1])).collect();
    rng.shuffle(&mut edges);
    Graph { n: len + 1, edges }
}

/// `m` distinct edges `a → b` with `a < b ≤ a + span`: acyclic, so DRed
/// over its closure terminates quickly (see the README's sizing evidence for
/// what a cyclic served graph does). One fixed structure per `label` (see
/// [`DAG_STRUCTURE`]), in structural node numbers: the seed's renaming is
/// applied by the caller, who needs the band to draw further edges.
fn band_dag(label: &str, n: u32, m: usize, span: u32) -> Graph {
    let mut structure = Rng::new(DAG_STRUCTURE, label);
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let a = structure.below(u64::from(n - 1)) as u32;
        let b = (a + 1 + structure.below(u64::from(span)) as u32).min(n - 1);
        if seen.insert((a, b)) {
            edges.push((a, b));
        }
    }
    Graph { n, edges }
}

/// `emp(name, dept)` over `depts` departments and exactly `total` employees.
/// A seeded 2–4 % of departments are singletons (so `singleton` has a
/// non-empty answer and sampling must cope with a one-member group); the
/// rest get seeded sizes of at least two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emp {
    pub dept_sizes: Vec<u32>,
    /// `(dept, member)` in file order.
    pub rows: Vec<(u32, u32)>,
}

impl Emp {
    pub fn generate(seed: u64, depts: u32, total: u32) -> Emp {
        assert!(total >= 2 * depts, "emp needs room for two per department");
        let mut rng = Rng::new(seed, "emp");
        let base = (depts / 50).max(1);
        let singles = (base + rng.below(u64::from(base) + 1) as u32) as usize;
        let mut order: Vec<u32> = (0..depts).collect();
        rng.shuffle(&mut order);
        let mut sizes = vec![0u32; depts as usize];
        let (single_depts, big_depts) = order.split_at(singles);
        for &d in single_depts {
            sizes[d as usize] = 1;
        }
        // Two each, then the remainder in proportion to seeded weights.
        let spare = total - singles as u32 - 2 * big_depts.len() as u32;
        let weights: Vec<u64> = big_depts.iter().map(|_| 50 + rng.below(101)).collect();
        let weight_sum: u64 = weights.iter().sum();
        let mut given = 0u32;
        for (&d, w) in big_depts.iter().zip(&weights) {
            let share = (u64::from(spare) * w / weight_sum) as u32;
            sizes[d as usize] = 2 + share;
            given += share;
        }
        for &d in big_depts.iter().cycle().take((spare - given) as usize) {
            sizes[d as usize] += 1;
        }
        let mut rows: Vec<(u32, u32)> = sizes
            .iter()
            .enumerate()
            .flat_map(|(d, &size)| (0..size).map(move |e| (d as u32, e)))
            .collect();
        rng.shuffle(&mut rows);
        Emp {
            dept_sizes: sizes,
            rows,
        }
    }

    pub fn name(dept: u32, member: u32) -> String {
        format!("n{dept}_{member}")
    }

    pub fn dept(dept: u32) -> String {
        format!("dept{dept}")
    }

    pub fn facts(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 24);
        for &(d, e) in &self.rows {
            let _ = writeln!(out, "emp(n{d}_{e}, dept{d}).");
        }
        out
    }
}

/// The §4 family `q(key, zkey)`, `z(zkey, y)`, `y(witness)`. A seeded tenth
/// of the keys dangle (no `z` rows), so the answer is not simply every key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zy {
    pub fanout: u32,
    pub witnesses: u32,
    pub dangling: Vec<bool>,
}

impl Zy {
    pub fn generate(seed: u64, keys: u32, fanout: u32, witnesses: u32) -> Zy {
        let mut rng = Rng::new(seed, "zy");
        let dangling = (0..keys).map(|_| rng.below(10) == 0).collect();
        Zy {
            fanout,
            witnesses,
            dangling,
        }
    }

    pub fn facts(&self) -> String {
        let mut out = String::new();
        for (k, &dangling) in self.dangling.iter().enumerate() {
            let _ = writeln!(out, "q(x{k}, zk{k}).");
            if !dangling {
                for f in 0..self.fanout {
                    let _ = writeln!(out, "z(zk{k}, y{f}).");
                }
            }
        }
        for w in 0..self.witnesses {
            let _ = writeln!(out, "y(w{w}).");
        }
        out
    }
}

/// A forest of `parent` chains: chain `i` is `c{i}_0 → c{i}_1 → …`, seeded
/// lengths summing to exactly `total` facts, and a seeded choice of chains
/// whose heads the magic point queries ask about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chains {
    pub lens: Vec<u32>,
    /// `(chain, position)` of each `parent` fact in insertion order.
    pub rows: Vec<(u32, u32)>,
    pub heads: Vec<u32>,
}

impl Chains {
    pub fn generate(seed: u64, chains: u32, total: u32, heads: usize) -> Chains {
        let mut rng = Rng::new(seed, "chains");
        let weights: Vec<u64> = (0..chains).map(|_| 50 + rng.below(101)).collect();
        let weight_sum: u64 = weights.iter().sum();
        let spare = total - chains;
        let mut lens: Vec<u32> = weights
            .iter()
            .map(|w| 1 + (u64::from(spare) * w / weight_sum) as u32)
            .collect();
        let given: u32 = lens.iter().sum();
        for i in 0..(total - given) as usize {
            lens[i % chains as usize] += 1;
        }
        let mut rows: Vec<(u32, u32)> = lens
            .iter()
            .enumerate()
            .flat_map(|(c, &len)| (0..len).map(move |j| (c as u32, j)))
            .collect();
        rng.shuffle(&mut rows);
        let mut ids: Vec<u32> = (0..chains).collect();
        rng.shuffle(&mut ids);
        ids.truncate(heads.min(chains as usize));
        Chains {
            lens,
            rows,
            heads: ids,
        }
    }

    pub fn node(chain: u32, pos: u32) -> String {
        format!("c{chain}_{pos}")
    }
}

/// One request of a `serve-maintain` client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainOp {
    Insert(u32, u32),
    Retract(u32, u32),
    /// A `run` of the reach view; the payload indexes
    /// [`MaintainStream::expected`].
    Run(usize),
}

/// One tenant's whole life in `serve-maintain`: the preloaded band DAG, the
/// cycle phase, and the write batches between the kill -9 restarts — each
/// `Run` paired with the answer an independent BFS over the acknowledged
/// edge set gives. Node numbers are the seed's names (`v<number>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintainStream {
    /// The nodes the view asks about.
    pub sources: Vec<u32>,
    pub preload: Vec<(u32, u32)>,
    pub expected_after_preload: Vec<u32>,
    /// `cycles` × (4×(insert, run), retract, run, run).
    pub cycle_ops: Vec<MaintainOp>,
    /// Per restart: the writes acknowledged just before the kill, then the
    /// fact count and answer the recovered server must report.
    pub restarts: Vec<(Vec<MaintainOp>, u64, Vec<u32>)>,
    pub expected: Vec<Vec<u32>>,
    /// Live edges after the cycle phase.
    pub edges_after_cycles: Vec<(u32, u32)>,
}

/// Requests per cycle: 4 inserts, 1 retract, 6 runs.
pub const MAINTAIN_CYCLE_OPS: usize = 11;

/// The live edge set in structural node numbers (where the band is), with
/// the seed's names applied to everything that leaves it.
struct EdgeState {
    n: u32,
    span: u32,
    live: Vec<(u32, u32)>,
    set: HashSet<(u32, u32)>,
    adj: Adjacency,
    label: Vec<u32>,
}

impl EdgeState {
    fn named(&self, (a, b): (u32, u32)) -> (u32, u32) {
        (self.label[a as usize], self.label[b as usize])
    }

    /// The view's sources: [`VIEW_SOURCES`] nodes spread over the band.
    fn sources(&self) -> impl Iterator<Item = u32> + '_ {
        (0..VIEW_SOURCES).map(|k| k * self.n / VIEW_SOURCES)
    }

    /// The view's answer: everything the sources reach.
    fn answer(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .sources()
            .flat_map(|source| self.adj.reach(source))
            .map(|v| self.label[v as usize])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// A not-yet-present band edge, anywhere.
    fn absent_edge(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let a = rng.below(u64::from(self.n - 1)) as u32;
            let b = (a + 1 + rng.below(u64::from(self.span)) as u32).min(self.n - 1);
            if !self.set.contains(&(a, b)) {
                return (a, b);
            }
        }
    }

    fn insert(&mut self, (a, b): (u32, u32)) -> (u32, u32) {
        self.set.insert((a, b));
        self.live.push((a, b));
        self.adj.insert(a, b);
        self.named((a, b))
    }

    fn remove_at(&mut self, at: usize) -> (u32, u32) {
        let (a, b) = self.live.swap_remove(at);
        self.set.remove(&(a, b));
        self.adj.remove(a, b);
        self.named((a, b))
    }

    /// Per edge `a → b`, how much of the closure runs through it:
    /// (ancestors of `a` + 1) × (descendants of `b` + 1) — what maintenance
    /// has to add when the edge appears, or delete and rederive when it
    /// goes. The family is close to critical, so this is heavy-tailed.
    fn load(&self) -> impl Fn((u32, u32)) -> u64 {
        let ancestors = band_closure_sizes(self.n, &self.live, true);
        let descendants = band_closure_sizes(self.n, &self.live, false);
        move |(a, b)| ancestors[a as usize] * descendants[b as usize]
    }

    /// Insert the edge at quantile `q` of [`INSERT_POOL`] random absent
    /// edges ordered by load.
    fn insert_at_quantile(&mut self, rng: &mut Rng, q: f64) -> (u32, u32) {
        let load = self.load();
        let mut pool: Vec<(u32, u32)> = (0..INSERT_POOL).map(|_| self.absent_edge(rng)).collect();
        pool.sort_by_key(|&e| (load(e), e));
        self.insert(pool[rank(q, pool.len())])
    }

    /// Retract the live edge at quantile `q` of the live edges ordered by
    /// load.
    fn retract_at_quantile(&mut self, q: f64) -> (u32, u32) {
        let load = self.load();
        let mut order: Vec<usize> = (0..self.live.len()).collect();
        order.sort_by_key(|&i| (load(self.live[i]), self.live[i]));
        self.remove_at(order[rank(q, order.len())])
    }
}

/// For every node of a graph whose edges all go from a lower to a higher
/// number: 1 + how many nodes it reaches (`upstream`: that reach it). One
/// bitset sweep in dependency order instead of a search per node — the
/// stream generator asks before every write.
fn band_closure_sizes(n: u32, edges: &[(u32, u32)], upstream: bool) -> Vec<u64> {
    let words = (n as usize).div_ceil(64);
    let mut sets = vec![0u64; n as usize * words];
    let mut steps: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(a, b)| if upstream { (b, a) } else { (a, b) })
        .map(|(from, to)| (from as usize, to as usize))
        .collect();
    // A node's set is complete once every step out of it has been taken:
    // downstream sets fill from the highest node down, upstream ones from
    // the lowest up.
    steps.sort_unstable_by_key(|&(from, _)| if upstream { from } else { usize::MAX - from });
    for (from, to) in steps {
        for w in 0..words {
            sets[from * words + w] |= sets[to * words + w];
        }
        sets[from * words + to / 64] |= 1 << (to % 64);
    }
    sets.chunks(words)
        .map(|set| 1 + set.iter().map(|w| u64::from(w.count_ones())).sum::<u64>())
        .collect()
}

const INSERT_POOL: usize = 32;
const TOP_QUANTILE: f64 = 0.9;

fn rank(q: f64, len: usize) -> usize {
    ((q * len as f64) as usize).min(len - 1)
}

/// The `i`-th point of the base-2 van der Corput sequence: any prefix covers
/// `[0, 1)` evenly.
fn van_der_corput(mut i: u64) -> f64 {
    let (mut q, mut step) = (0.0, 0.5);
    while i > 0 {
        if i & 1 == 1 {
            q += step;
        }
        step /= 2.0;
        i >>= 1;
    }
    q
}

impl MaintainStream {
    pub fn generate(
        seed: u64,
        tenant: usize,
        n: u32,
        m: usize,
        span: u32,
        cycles: usize,
        restarts: usize,
    ) -> MaintainStream {
        let graph = band_dag(&format!("maintain-{tenant}"), n, m, span);
        let mut rng = Rng::new(seed, &format!("maintain-{tenant}"));
        let mut state = EdgeState {
            n,
            span,
            set: graph.edges.iter().copied().collect(),
            adj: Adjacency::from_edges(n, &graph.edges),
            live: graph.edges,
            label: labels(&mut rng, n),
        };
        let mut preload: Vec<(u32, u32)> = state.live.iter().map(|&e| state.named(e)).collect();
        rng.shuffle(&mut preload);
        let expected_after_preload = state.answer();
        let mut expected = Vec::new();
        let run = |state: &EdgeState, expected: &mut Vec<Vec<u32>>| {
            expected.push(state.answer());
            MaintainOp::Run(expected.len() - 1)
        };
        let mut cycle_ops = Vec::with_capacity(cycles * MAINTAIN_CYCLE_OPS);
        // What a write costs the view is heavy-tailed, and random writes
        // compound: one unlucky insert joins two large regions and every
        // later retract pays for it. So each write is a stratified sample of
        // the load distribution rather than a random one — every run pays
        // for the cheap, the typical and the expensive in the same mix, and
        // the closure grows at the same rate on every seed. The top tenth is
        // left out: up there one retract costs twenty times the median
        // (over a second), and whether a run meets one or two of them would
        // decide its throughput.
        let mut quantiles = (1..).map(|i| TOP_QUANTILE * van_der_corput(i));
        let mut next_quantile = move || quantiles.next().expect("endless");
        for _ in 0..cycles {
            for _ in 0..4 {
                let (a, b) = state.insert_at_quantile(&mut rng, next_quantile());
                cycle_ops.push(MaintainOp::Insert(a, b));
                cycle_ops.push(run(&state, &mut expected));
            }
            let (a, b) = state.retract_at_quantile(next_quantile());
            cycle_ops.push(MaintainOp::Retract(a, b));
            cycle_ops.push(run(&state, &mut expected));
            cycle_ops.push(run(&state, &mut expected));
        }
        let edges_after_cycles = state.live.iter().map(|&e| state.named(e)).collect();
        let restarts = (0..restarts)
            .map(|_| {
                let mut writes = Vec::with_capacity(5);
                for _ in 0..4 {
                    let edge = state.absent_edge(&mut rng);
                    let (a, b) = state.insert(edge);
                    writes.push(MaintainOp::Insert(a, b));
                }
                let victim = rng.below(state.live.len() as u64) as usize;
                let (a, b) = state.remove_at(victim);
                writes.push(MaintainOp::Retract(a, b));
                (writes, state.live.len() as u64, state.answer())
            })
            .collect();
        MaintainStream {
            sources: state.sources().map(|s| state.label[s as usize]).collect(),
            preload,
            expected_after_preload,
            cycle_ops,
            restarts,
            expected,
            edges_after_cycles,
        }
    }
}

/// One request of a `serve-fresh` client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreshOp {
    /// Seeded `select_two_emp`; the seed is a per-request counter.
    Sample(u64),
    /// Magic ancestor point query on this chain's head.
    Magic(u32),
    /// Plain `all_depts`: a materialized hit.
    Hit,
}

/// Requests per `serve-fresh` cycle: sample, magic, hit, hit.
pub const FRESH_CYCLE_OPS: usize = 4;

pub fn fresh_stream(seed: u64, client: usize, cycles: usize, heads: &[u32]) -> Vec<FreshOp> {
    let mut rng = Rng::new(seed, &format!("fresh-{client}"));
    let mut ops = Vec::with_capacity(cycles * FRESH_CYCLE_OPS);
    for i in 0..cycles {
        ops.push(FreshOp::Sample((client as u64) << 32 | i as u64));
        ops.push(FreshOp::Magic(
            heads[rng.below(heads.len() as u64) as usize],
        ));
        ops.push(FreshOp::Hit);
        ops.push(FreshOp::Hit);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            random_digraph(5, 50, 80).facts(),
            random_digraph(5, 50, 80).facts()
        );
        assert_ne!(
            random_digraph(5, 50, 80).facts(),
            random_digraph(6, 50, 80).facts()
        );
        assert_eq!(chain(5, 40).facts(), chain(5, 40).facts());
        assert_ne!(chain(5, 40).facts(), chain(6, 40).facts());
        assert_eq!(
            Emp::generate(5, 40, 400).facts(),
            Emp::generate(5, 40, 400).facts()
        );
        assert_ne!(
            Emp::generate(5, 40, 400).facts(),
            Emp::generate(6, 40, 400).facts()
        );
        assert_eq!(
            Zy::generate(5, 30, 4, 4).facts(),
            Zy::generate(5, 30, 4, 4).facts()
        );
        assert_eq!(
            Chains::generate(5, 10, 200, 4),
            Chains::generate(5, 10, 200, 4)
        );
        assert_eq!(
            MaintainStream::generate(5, 0, 60, 90, 4, 6, 2),
            MaintainStream::generate(5, 0, 60, 90, 4, 6, 2)
        );
        assert_ne!(
            MaintainStream::generate(5, 0, 60, 90, 4, 6, 2),
            MaintainStream::generate(5, 1, 60, 90, 4, 6, 2)
        );
        assert_eq!(
            fresh_stream(5, 1, 9, &[3, 4]),
            fresh_stream(5, 1, 9, &[3, 4])
        );
    }

    #[test]
    fn sizes_are_exact() {
        let g = random_digraph(1, 100, 150);
        assert_eq!(g.edges.len(), 150);
        assert!(g.edges.iter().all(|(a, b)| a != b && *a < 100 && *b < 100));
        let c = chain(1, 30);
        assert_eq!((c.n, c.edges.len()), (31, 30));
        let d = band_dag("t", 100, 150, 4);
        assert!(d
            .edges
            .iter()
            .all(|(a, b)| a < b && *b <= a + 4 && *b < 100));
        let emp = Emp::generate(1, 200, 20_000);
        assert_eq!(emp.rows.len(), 20_000);
        assert_eq!(emp.dept_sizes.iter().sum::<u32>(), 20_000);
        assert!(emp.dept_sizes.contains(&1));
        assert!(emp.dept_sizes.iter().all(|s| *s >= 1));
        let chains = Chains::generate(1, 200, 20_000, 48);
        assert_eq!(chains.lens.iter().sum::<u32>(), 20_000);
        assert_eq!(chains.rows.len(), 20_000);
        assert_eq!(chains.heads.len(), 48);
        let zy = Zy::generate(1, 200, 50, 50);
        let live = zy.dangling.iter().filter(|d| !**d).count();
        assert_eq!(zy.facts().lines().count(), 200 + live * 50 + 50);
    }

    /// The structure constants pick typical instances: the sizing
    /// evidence's 345 654-tuple closure, and band DAGs at their family's
    /// median (61 000 tuples). The seed must not move either.
    #[test]
    fn full_size_structures_have_the_documented_closures() {
        use crate::reference::closure_digest;
        for seed in [1, 2] {
            let g = random_digraph(seed, 1000, 1500);
            assert_eq!(closure_digest(g.n, &g.edges).rows, 345_956);
            let s = MaintainStream::generate(seed, 0, 2000, 3000, 4, 1, 0);
            assert_eq!(closure_digest(2000, &s.preload).rows, 62_200);
            let s = MaintainStream::generate(seed, 1, 2000, 3000, 4, 1, 0);
            assert_eq!(closure_digest(2000, &s.preload).rows, 60_468);
        }
    }

    #[test]
    fn bitset_sweep_agrees_with_a_search_per_node() {
        let g = band_dag("t", 150, 260, 4);
        let reversed: Vec<(u32, u32)> = g.edges.iter().map(|&(a, b)| (b, a)).collect();
        let by_search = |edges: &[(u32, u32)]| -> Vec<u64> {
            let adj = Adjacency::from_edges(150, edges);
            (0..150).map(|v| adj.reach(v).len() as u64 + 1).collect()
        };
        assert_eq!(
            band_closure_sizes(150, &g.edges, false),
            by_search(&g.edges)
        );
        assert_eq!(
            band_closure_sizes(150, &g.edges, true),
            by_search(&reversed)
        );
    }

    #[test]
    fn maintain_stream_has_the_documented_shape_and_never_repeats_a_live_edge() {
        let s = MaintainStream::generate(3, 0, 80, 120, 4, 5, 3);
        assert_eq!(s.cycle_ops.len(), 5 * MAINTAIN_CYCLE_OPS);
        assert_eq!(s.restarts.len(), 3);
        let mut live: HashSet<(u32, u32)> = s.preload.iter().copied().collect();
        let writes = s
            .cycle_ops
            .iter()
            .chain(s.restarts.iter().flat_map(|(w, _, _)| w.iter()));
        for op in writes {
            match *op {
                MaintainOp::Insert(a, b) => assert!(live.insert((a, b)), "insert of a live edge"),
                MaintainOp::Retract(a, b) => {
                    assert!(live.remove(&(a, b)), "retract of a dead edge")
                }
                MaintainOp::Run(i) => assert!(i < s.expected.len()),
            }
        }
        assert_eq!(live.len() as u64, s.restarts.last().unwrap().1);
        // The stream must actually move the answer.
        let distinct: HashSet<&Vec<u32>> = s.expected.iter().collect();
        assert!(distinct.len() > 1);
    }
}
