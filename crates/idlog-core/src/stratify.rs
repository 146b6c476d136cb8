//! The predicate dependency graph, and stratification over it.
//!
//! [`DepGraph`] has an edge `p → h` for every clause with head predicate
//! `h` and body occurrence of `p`. The edge is *strict* when the occurrence
//! is negated **or** is an ID-literal `p[s]`: an ID-relation can only be
//! materialized after `p` is completely evaluated, exactly like the
//! complement of a negated predicate. A program is stratifiable when no
//! cycle contains a strict edge; [`Stratification::of`] assigns each
//! predicate the smallest stratum compatible with
//! `stratum(h) ≥ stratum(p) + strictness`.
//!
//! The graph is built once per program and answers every predicate-level
//! question the analyses ask: its components ([`DepGraph::sccs`], from the
//! one Tarjan pass, run when the graph is built), the
//! paper's program related to `q`, `P/q` ([`DepGraph::upstream`], and
//! [`DepGraph::output_cone`] for the W001 lint), what a change can reach
//! ([`DepGraph::downstream`]), and a witness cycle through a marked edge
//! (`witness_cycle`, which also walks the termination analysis's
//! argument-flow graph).

use std::hash::Hash;
use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId};
use idlog_parser::{Literal, Program};

/// Result of stratification.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// The graph the strata were computed from.
    graph: Arc<DepGraph>,
    /// Stratum per predicate, by position in the graph (inputs are 0).
    stratum_of: Vec<usize>,
    /// Number of strata (at least 1).
    count: usize,
}

impl Stratification {
    /// Stratify over `graph`, or return the edges of a cycle through a
    /// strict edge (see [`stratify_check`]).
    pub fn of(graph: Arc<DepGraph>) -> Result<Stratification, Vec<DepEdge>> {
        let Some(level) = graph.levels() else {
            return Err(witness_cycle(&graph.edges, |e| e.strict));
        };
        let stratum_of: Vec<usize> = graph.component_of.iter().map(|&c| level[c]).collect();
        let count = stratum_of.iter().copied().max().unwrap_or(0) + 1;
        Ok(Stratification {
            graph,
            stratum_of,
            count,
        })
    }

    /// The stratum of `pred` (predicates unknown to the program get 0).
    pub fn stratum(&self, pred: SymbolId) -> usize {
        self.graph.pos(pred).map_or(0, |p| self.stratum_of[p])
    }

    /// Number of strata.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The dependency graph the strata were computed from.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Clause indices grouped by the stratum of their head predicate, in
    /// stratum order.
    pub fn clauses_by_stratum(&self, program: &Program) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.count];
        for (ci, clause) in program.clauses.iter().enumerate() {
            let head = clause.head[0].atom.pred.base();
            out[self.stratum(head)].push(ci);
        }
        out
    }
}

/// An edge in the predicate dependency graph, with the clause and body
/// literal that induced it (for span-carrying diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Body predicate the head depends on.
    pub from: SymbolId,
    /// Head predicate.
    pub to: SymbolId,
    /// Strict: the occurrence is negated or an ID-literal.
    pub strict: bool,
    /// Index of the inducing clause.
    pub clause: usize,
    /// Index of the inducing body literal within that clause.
    pub literal: usize,
}

/// A directed edge the graph walks of this module follow: [`DepEdge`]
/// here, and the termination analysis's argument-flow edges.
pub(crate) trait GraphEdge: Copy {
    /// The node type the edge connects.
    type Node: Copy + Eq + Hash;
    /// The node the edge leaves.
    fn from(&self) -> Self::Node;
    /// The node the edge enters.
    fn to(&self) -> Self::Node;
}

impl GraphEdge for DepEdge {
    type Node = SymbolId;
    fn from(&self) -> SymbolId {
        self.from
    }
    fn to(&self) -> SymbolId {
        self.to
    }
}

/// The predicate dependency graph of one program.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Every predicate a head or body atom names, in interning order.
    preds: Vec<SymbolId>,
    /// The edges into each clause's first head (one per ordinary, ID or
    /// negated body occurrence), in clause then body-literal order.
    /// Stratification, recursion classes, `P/q` and DRed read these.
    edges: Vec<DepEdge>,
    /// The edges into the second and later heads of multi-head clauses
    /// (DL syntax that IDLOG rejects). Only [`DepGraph::output_cone`]
    /// follows them.
    later_heads: Vec<DepEdge>,
    /// Head predicates no body reads (the program's outputs), in interning
    /// order.
    sinks: Vec<SymbolId>,
    /// The strongly connected component of each predicate (by position in
    /// `preds`), numbered dependencies first: an edge between two
    /// components runs from the lower number to the higher.
    component_of: Vec<usize>,
    /// Number of components.
    components: usize,
}

impl DepGraph {
    /// Build the graph of `program`.
    pub fn new(program: &Program) -> DepGraph {
        let mut edges = Vec::new();
        let mut later_heads = Vec::new();
        let mut heads = Vec::new();
        let mut read = Vec::new();
        for (ci, clause) in program.clauses.iter().enumerate() {
            for (li, lit) in clause.body.iter().enumerate() {
                let Some(a) = lit.atom() else { continue };
                read.push(a.pred.base());
                for (hi, h) in clause.head.iter().enumerate() {
                    let edge = DepEdge {
                        from: a.pred.base(),
                        to: h.atom.pred.base(),
                        strict: matches!(lit, Literal::Neg(_)) || a.pred.is_id_version(),
                        clause: ci,
                        literal: li,
                    };
                    if hi == 0 {
                        edges.push(edge);
                    } else {
                        later_heads.push(edge);
                    }
                }
            }
            heads.extend(clause.head.iter().map(|h| h.atom.pred.base()));
        }
        heads.sort_unstable();
        heads.dedup();
        read.sort_unstable();
        read.dedup();
        let sinks: Vec<SymbolId> = heads
            .iter()
            .copied()
            .filter(|p| read.binary_search(p).is_err())
            .collect();
        let mut preds = heads;
        preds.append(&mut read);
        preds.sort_unstable();
        preds.dedup();
        let pos = |p: SymbolId| preds.binary_search(&p).expect("graph node");
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
        for e in &edges {
            adj[pos(e.from)].push(pos(e.to));
        }
        let (component_of, components) = tarjan(&adj);
        DepGraph {
            preds,
            edges,
            later_heads,
            sinks,
            component_of,
            components,
        }
    }

    /// The edges into each clause's first head, in clause then
    /// body-literal order.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Head predicates no body reads — the program's outputs — in
    /// interning order.
    pub fn sinks(&self) -> &[SymbolId] {
        &self.sinks
    }

    /// The strongly connected components, dependencies first (topological
    /// order of the condensation), each with its members in interning
    /// order.
    pub fn sccs(&self) -> Vec<Vec<SymbolId>> {
        let mut out = vec![Vec::new(); self.components];
        for (&p, &c) in self.preds.iter().zip(&self.component_of) {
            out[c].push(p);
        }
        out
    }

    /// The paper's `P/q` for every `q` in `seeds`: the seeds and every
    /// predicate that transitively feeds one.
    pub fn upstream(&self, seeds: impl IntoIterator<Item = SymbolId>) -> FxHashSet<SymbolId> {
        reach(&adjacency(self.edges.iter().copied(), false), seeds)
    }

    /// The seeds and every predicate they transitively feed.
    pub fn downstream(&self, seeds: impl IntoIterator<Item = SymbolId>) -> FxHashSet<SymbolId> {
        reach(&adjacency(self.edges.iter().copied(), true), seeds)
    }

    /// The predicates that contribute to some output: the upstream cone of
    /// the sinks, where a multi-head clause feeds *every* one of its heads.
    pub fn output_cone(&self) -> FxHashSet<SymbolId> {
        let edges = self.edges.iter().chain(&self.later_heads).copied();
        reach(&adjacency(edges, false), self.sinks.iter().copied())
    }

    /// The stratum of each component, or `None` when a strict edge lies
    /// inside one (a cycle through it).
    ///
    /// Components are visited dependencies first, so each one's stratum is
    /// final before its outgoing edges raise the components they feed.
    pub(crate) fn levels(&self) -> Option<Vec<usize>> {
        let component = |p: SymbolId| self.component_of[self.pos(p).expect("graph node")];
        let mut by_source: Vec<(usize, usize, bool)> = self
            .edges
            .iter()
            .map(|e| (component(e.from), component(e.to), e.strict))
            .collect();
        by_source.sort_unstable();
        let mut level = vec![0; self.components];
        for (from, to, strict) in by_source {
            if from == to && strict {
                return None;
            }
            level[to] = level[to].max(level[from] + usize::from(strict));
        }
        Some(level)
    }

    /// The position of `pred` in `preds`.
    fn pos(&self, pred: SymbolId) -> Option<usize> {
        self.preds.binary_search(&pred).ok()
    }
}

/// Each node's successors along `edges`, in edge order; `forward` follows
/// each edge `from → to`, otherwise `to → from`.
pub(crate) fn adjacency<E: GraphEdge>(
    edges: impl IntoIterator<Item = E>,
    forward: bool,
) -> FxHashMap<E::Node, Vec<E::Node>> {
    let mut next: FxHashMap<E::Node, Vec<E::Node>> = FxHashMap::default();
    for e in edges {
        let (a, b) = if forward {
            (e.from(), e.to())
        } else {
            (e.to(), e.from())
        };
        next.entry(a).or_default().push(b);
    }
    next
}

/// Every node reachable from `seeds` in `next` (an [`adjacency`]), seeds
/// included.
pub(crate) fn reach<N: Copy + Eq + Hash>(
    next: &FxHashMap<N, Vec<N>>,
    seeds: impl IntoIterator<Item = N>,
) -> FxHashSet<N> {
    let mut seen: FxHashSet<N> = FxHashSet::default();
    let mut stack: Vec<N> = seeds.into_iter().collect();
    seen.extend(stack.iter().copied());
    while let Some(u) = stack.pop() {
        for &v in next.get(&u).into_iter().flatten() {
            if seen.insert(v) {
                stack.push(v);
            }
        }
    }
    seen
}

/// Some cycle through a marked edge: `cycle[0]` is the first marked edge,
/// in edge order, that lies on a cycle, and each edge's `to` is the next
/// edge's `from`, closing back at `cycle[0].from`. Empty when no marked
/// edge lies on a cycle.
///
/// The path back is the one a depth-first walk from `cycle[0].to` finds,
/// with an explicit stack and each node's edges in insertion order; the
/// E011 and W020 witnesses are pinned to it.
pub(crate) fn witness_cycle<E: GraphEdge>(edges: &[E], marked: impl Fn(&E) -> bool) -> Vec<E> {
    let mut adj: FxHashMap<E::Node, Vec<E>> = FxHashMap::default();
    for &e in edges {
        adj.entry(e.from()).or_default().push(e);
    }
    for &e in edges.iter().filter(|e| marked(e)) {
        if e.from() == e.to() {
            return vec![e];
        }
        let mut stack = vec![e.to()];
        let mut visited: FxHashSet<E::Node> = FxHashSet::default();
        // The edge that discovered each node during the walk from `e.to`.
        let mut parent: FxHashMap<E::Node, E> = FxHashMap::default();
        visited.insert(e.to());
        while let Some(u) = stack.pop() {
            if u == e.from() {
                // Walk parent edges back from u to e.to, then prepend e.
                let mut path = Vec::new();
                let mut at = u;
                while at != e.to() {
                    let pe = parent[&at];
                    path.push(pe);
                    at = pe.from();
                }
                path.push(e);
                path.reverse();
                return path;
            }
            for &edge in adj.get(&u).into_iter().flatten() {
                if visited.insert(edge.to()) {
                    parent.insert(edge.to(), edge);
                    stack.push(edge.to());
                }
            }
        }
    }
    Vec::new()
}

/// Iterative Tarjan SCC over positions: each node's component and the
/// number of components, numbered dependencies first (topological order of
/// the condensation).
fn tarjan(adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    // Components in the order Tarjan emits them: each one after every
    // component it reaches.
    let mut emitted = vec![0; n];
    let mut count = 0;

    // Explicit DFS stack: (node, next child position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        emitted[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    for c in &mut emitted {
        *c = count - 1 - *c;
    }
    (emitted, count)
}

/// Stratify `program`, or return the edges of a cycle through a strict
/// edge: `cycle[0]` is the strict edge, and each edge's `to` is the next
/// edge's `from`, closing back at `cycle[0].from`.
pub fn stratify_check(program: &Program) -> Result<Stratification, Vec<DepEdge>> {
    Stratification::of(Arc::new(DepGraph::new(program)))
}

/// The predicates along `cycle` (as produced by [`stratify_check`]),
/// starting and ending at the same predicate: `[p, q, …, p]`.
pub fn cycle_names(cycle: &[DepEdge], interner: &Interner) -> Vec<String> {
    match cycle.first() {
        None => vec!["<unknown>".into()],
        Some(first) => {
            let mut names = vec![interner.resolve(first.from)];
            for e in cycle {
                names.push(interner.resolve(e.to));
            }
            names
        }
    }
}

/// The headline for a cycle through a strict edge, given as its
/// [`cycle_names`]: `idlog lint`'s E011 and the engine's stratification
/// error both read it.
pub(crate) fn unstratifiable(names: &[String]) -> String {
    format!("program is not stratifiable: cycle {}", names.join(" -> "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_parser::parse_program;

    fn strat(src: &str) -> Result<(Stratification, Interner, Program), Vec<String>> {
        let i = Interner::new();
        let p = parse_program(src, &i).unwrap();
        match stratify_check(&p) {
            Ok(s) => Ok((s, i, p)),
            Err(cycle) => Err(cycle_names(&cycle, &i)),
        }
    }

    #[test]
    fn positive_recursion_is_one_stratum() {
        let (s, i, _) = strat("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).").unwrap();
        assert_eq!(s.count(), 1);
        assert_eq!(s.stratum(i.get("tc").unwrap()), 0);
        assert_eq!(s.stratum(i.get("e").unwrap()), 0);
    }

    #[test]
    fn negation_lifts_stratum() {
        let (s, i, _) = strat("p(X) :- q(X), not r(X). r(X) :- b(X).").unwrap();
        assert_eq!(s.stratum(i.get("r").unwrap()), 0);
        assert_eq!(s.stratum(i.get("p").unwrap()), 1);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn id_literal_lifts_stratum_like_negation() {
        // Paper Example 2: man reads sex_guess[1], so man is strictly above.
        let (s, i, _) = strat(
            "sex_guess(X, male) :- person(X).
             man(X) :- sex_guess[1](X, male, 1).",
        )
        .unwrap();
        assert_eq!(s.stratum(i.get("sex_guess").unwrap()), 0);
        assert_eq!(s.stratum(i.get("man").unwrap()), 1);
    }

    #[test]
    fn negative_cycle_is_rejected() {
        let cycle = strat("p(X) :- q(X), not p(X).").unwrap_err();
        assert_eq!(cycle.first().map(String::as_str), Some("p"));
        assert_eq!(cycle.last().map(String::as_str), Some("p"));
        assert_eq!(
            unstratifiable(&cycle),
            "program is not stratifiable: cycle p -> p"
        );
    }

    #[test]
    fn id_cycle_is_rejected() {
        // p reads its own ID-relation: not stratifiable.
        assert!(strat("p(X) :- q(X). p(X) :- p[](X, 0).").is_err());
    }

    #[test]
    fn longer_strict_chain_counts_strata() {
        let (s, i, _) = strat(
            "a(X) :- base(X).
             b(X) :- a[](X, 0).
             c(X) :- b(X), not a(X).
             d(X) :- c[](X, 0).",
        )
        .unwrap();
        assert_eq!(s.stratum(i.get("a").unwrap()), 0);
        assert_eq!(s.stratum(i.get("b").unwrap()), 1);
        assert_eq!(
            s.stratum(i.get("c").unwrap()),
            1.max(s.stratum(i.get("b").unwrap()))
        );
        assert_eq!(
            s.stratum(i.get("d").unwrap()),
            s.stratum(i.get("c").unwrap()) + 1
        );
        assert_eq!(s.count(), s.stratum(i.get("d").unwrap()) + 1);
    }

    #[test]
    fn clauses_grouped_by_stratum() {
        let (s, _, p) = strat("r(X) :- b(X). p(X) :- q(X), not r(X).").unwrap();
        let by = s.clauses_by_stratum(&p);
        assert_eq!(by.len(), 2);
        assert_eq!(by[0], vec![0]);
        assert_eq!(by[1], vec![1]);
    }

    #[test]
    fn mutual_negative_cycle_reported() {
        let cycle = strat("p(X) :- a(X), not q(X). q(X) :- a(X), not p(X).").unwrap_err();
        assert!(cycle.len() >= 2);
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn cycle_edges_carry_clause_anchors_and_chain() {
        let i = Interner::new();
        let p = parse_program("p(X) :- a(X), not q(X). q(X) :- a(X), not p(X).", &i).unwrap();
        let cycle = stratify_check(&p).unwrap_err();
        assert!(!cycle.is_empty());
        assert!(cycle[0].strict, "cycle starts with the strict edge");
        for pair in cycle.windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "edges chain head-to-tail");
        }
        assert_eq!(cycle.last().unwrap().to, cycle[0].from, "cycle closes");
        // Anchors point at the clause/literal inducing each edge.
        let qp = cycle.iter().find(|e| i.resolve(e.from) == "q").unwrap();
        assert_eq!((qp.clause, qp.literal), (0, 1));
        let names = cycle_names(&cycle, &i);
        assert_eq!(names.first(), names.last());
    }
}
