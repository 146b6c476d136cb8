//! Static termination and boundedness certification.
//!
//! The paper's Theorem 3 makes exact termination undecidable, so — like the
//! ID-taint analysis in [`crate::taint`] — this pass is *sound but
//! incomplete*: every program it certifies genuinely reaches a fixpoint in a
//! bounded number of rounds, but some terminating programs stay uncertified.
//!
//! The certificate is a fact of a valid program: each
//! [`crate::ValidatedProgram`] computes it once and holds it
//! ([`crate::ValidatedProgram::termination`]). A valid program stratifies
//! and has no `choice` or `!`, so no recursion runs through negation or an
//! ID-literal, and every valid program is in the analyzed fragment.
//!
//! The analysis has three layers:
//!
//! 1. **Recursion classification.** The components of the predicate
//!    dependency graph ([`crate::stratify::DepGraph::sccs`]) are each
//!    classified as nonrecursive, linear or nonlinear (see
//!    [`RecursionKind`]).
//! 2. **Argument flow.** A graph over `(predicate, column)` nodes records
//!    how values move between columns, through joins and through builtins,
//!    read from each clause's use lists ([`crate::columns`]). Arithmetic
//!    over ℕ is the only way IDLOG can *invent* values, so an edge is
//!    **expanding** when it passes through a builtin output position that
//!    can exceed every input (`succ`'s successor, `plus`/`times` results,
//!    `minus`/`div` first arguments) and the clause caps by a constant
//!    neither that value nor every input of its `succ` or `plus`. A cycle
//!    through an expanding edge is the divergence engine of
//!    `programs/diverge.idl`: the fixpoint derives an ever-larger value
//!    forever. Such a cycle is returned as a [`FlowEdge`] witness (found by
//!    `stratify::witness_cycle`, the walker behind E011's too); predicates
//!    fed by one are cardinality-unbounded.
//! 3. **Round bound.** When no expanding cycle exists, every derivable
//!    value lives in a finite
//!    pool: database values, program constants, and builtin-generated
//!    naturals up to a ceiling `V*` obtained by applying each expanding
//!    builtin occurrence at most once (an acyclic flow graph cannot reuse
//!    one). [`TerminationCert::round_bound`] turns that pool into a concrete
//!    per-database ceiling on fixpoint rounds — polynomial in the EDB size —
//!    which the engine installs as an automatic `max_rounds` limit, so even
//!    a buggy certificate trips deterministically instead of hanging.

use idlog_common::{FxHashMap, FxHashSet, SymbolId};
use idlog_parser::{Builtin, Literal, Program, Term};
use idlog_storage::Database;

use crate::columns::{ClauseColumns, ColumnGraph, Role};
use crate::program::ValidatedProgram;
use crate::stratify::{adjacency, reach, witness_cycle, DepGraph, GraphEdge};

/// A node of the argument-flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowNode {
    /// Column `.1` (0-based) of predicate `.0`.
    Col(SymbolId, usize),
    /// The tid source of predicate `.0`: tids enumerate group members, so
    /// their values are bounded by the base relation's cardinality.
    Card(SymbolId),
}

impl FlowNode {
    /// The predicate this node belongs to.
    pub fn pred(&self) -> SymbolId {
        match self {
            FlowNode::Col(p, _) | FlowNode::Card(p) => *p,
        }
    }
}

/// One edge of the argument-flow graph: a value read from `from` can reach
/// `to` through clause `clause`. Carries provenance for witness rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// Source node (a body occurrence).
    pub from: FlowNode,
    /// Target node (a head column).
    pub to: FlowNode,
    /// Index of the inducing clause.
    pub clause: usize,
    /// Body literal where the value is read.
    pub literal: usize,
    /// Body literal of the builtin that grows the value, when the edge is
    /// expanding.
    pub grew_at: Option<usize>,
    /// The growing builtin, when the edge is expanding.
    pub op: Option<Builtin>,
}

impl FlowEdge {
    /// True when the value can strictly exceed every value read at `from`.
    pub fn is_expanding(&self) -> bool {
        self.grew_at.is_some()
    }
}

impl GraphEdge for FlowEdge {
    type Node = FlowNode;
    fn from(&self) -> FlowNode {
        self.from
    }
    fn to(&self) -> FlowNode {
        self.to
    }
}

/// How a dependency SCC recurses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecursionKind {
    /// The component has no cycle (a single predicate without a self-edge).
    Nonrecursive,
    /// Every clause of the component reads at most one component predicate.
    Linear,
    /// Some clause reads two or more component predicates.
    Nonlinear,
}

impl RecursionKind {
    /// Stable lower-case rendering for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecursionKind::Nonrecursive => "nonrecursive",
            RecursionKind::Linear => "linear",
            RecursionKind::Nonlinear => "nonlinear",
        }
    }
}

/// One SCC of the predicate dependency graph.
#[derive(Debug, Clone)]
pub struct SccSummary {
    /// Member predicates, in interning order.
    pub preds: Vec<SymbolId>,
    /// Recursion classification.
    pub kind: RecursionKind,
}

/// An ID-literal occurrence whose base predicate is not certified
/// cardinality-bounded (the W021 lint's raw material).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnboundedIdSite {
    /// Clause index of the occurrence.
    pub clause: usize,
    /// Body literal index of the occurrence.
    pub literal: usize,
    /// The base predicate of the ID-literal.
    pub base: SymbolId,
}

/// The result of the termination analysis over one valid program.
///
/// Held by its [`ValidatedProgram`] ([`ValidatedProgram::termination`]) and
/// read by the governor wiring, `idlog check`, `explain --analyze`, the
/// REPL and the `idlog-analyze` lints (W020/W021/H010).
#[derive(Debug, Clone, Default)]
pub struct TerminationCert {
    /// An expanding flow cycle, when one exists: `witness[0]` is the
    /// expanding edge, and each edge's `to` is the next edge's `from`,
    /// closing back at `witness[0].from`.
    witness: Vec<FlowEdge>,
    /// Predicates whose cardinality the analysis cannot bound (fed by an
    /// expanding cycle).
    unbounded: FxHashSet<SymbolId>,
    /// Dependency SCCs with their recursion classification.
    sccs: Vec<SccSummary>,
    /// Per entry of `sccs`: the predicates outside the component that some
    /// clause of the component reads.
    feeding: Vec<Vec<SymbolId>>,
    /// ID-literal occurrences over unbounded bases.
    id_sites: Vec<UnboundedIdSite>,
    /// Derived predicates with their arities (the tuples the fixpoint can
    /// insert), in first-definition order.
    idb: Vec<(SymbolId, usize)>,
    /// Input predicates (read but never defined), with arities.
    edb: Vec<(SymbolId, usize)>,
    /// Largest integer constant in the program (for the value ceiling).
    max_const: u64,
    /// Number of distinct constant terms in the program.
    const_count: u64,
    /// One entry per body occurrence of a builtin with an expanding output
    /// position and an uncapped input (bounds the depth of acyclic growth
    /// chains).
    expanding_ops: Vec<Builtin>,
    /// The most an input-capped growing occurrence can make
    /// ([`input_capped_ceiling`]): where the value ceiling starts, beside
    /// `max_const`.
    capped_ceiling: u64,
    /// Number of strata.
    strata: u64,
    /// Pre-extracted clause shapes for the instantiation products.
    nonrec_clauses: Vec<ClauseShape>,
}

impl TerminationCert {
    /// True when the analysis certifies that every fixpoint evaluation of
    /// the program reaches its fixpoint in finitely many rounds, on every
    /// database ([`TerminationCert::round_bound`] then yields a concrete
    /// ceiling). `false` means *unknown*, not divergent — Theorem 3 makes
    /// the exact property undecidable. The one reason a valid program goes
    /// uncertified is an expanding flow cycle, so this is
    /// `growth_witness().is_none()`.
    pub fn bounded(&self) -> bool {
        self.witness.is_empty()
    }

    /// True when the analysis bounds the cardinality of `pred` (its set of
    /// derivable tuples is finite on every database). Predicates never fed
    /// by an expanding cycle — including all EDB inputs — are bounded.
    pub fn pred_bounded(&self, pred: SymbolId) -> bool {
        !self.unbounded.contains(&pred)
    }

    /// The expanding flow cycle proving why no bound exists, if one was
    /// found: `witness()[0]` is the expanding edge and consecutive edges
    /// chain `to → from`, closing the cycle.
    pub fn growth_witness(&self) -> Option<&[FlowEdge]> {
        if self.witness.is_empty() {
            None
        } else {
            Some(&self.witness)
        }
    }

    /// Predicates whose cardinality the analysis cannot bound, in
    /// interning order.
    pub fn unbounded_predicates(&self) -> Vec<SymbolId> {
        let mut v: Vec<SymbolId> = self.unbounded.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The dependency SCCs with their recursion classification, in
    /// condensation (evaluation) order.
    pub fn recursion(&self) -> &[SccSummary] {
        &self.sccs
    }

    /// The recursion classification of `pred`'s component
    /// ([`RecursionKind::Nonrecursive`] for unknown predicates).
    pub fn recursion_kind(&self, pred: SymbolId) -> RecursionKind {
        self.sccs
            .iter()
            .find(|s| s.preds.contains(&pred))
            .map(|s| s.kind)
            .unwrap_or(RecursionKind::Nonrecursive)
    }

    /// ID-literal occurrences whose base predicate is not certified
    /// cardinality-bounded — materializing such an ID-relation can never
    /// complete (the W021 lint).
    pub fn unbounded_id_sites(&self) -> &[UnboundedIdSite] {
        &self.id_sites
    }

    /// The maximum arity over derived predicates: the degree of the
    /// polynomial (in the active-domain size) bounding every derived
    /// relation's cardinality. `0` for fact-only programs.
    pub fn degree(&self) -> usize {
        self.idb.iter().map(|&(_, a)| a).max().unwrap_or(0)
    }

    /// A concrete ceiling on fixpoint rounds (`EvalStats::iterations`) for
    /// evaluating the program over `db`, or `None` when the program is not
    /// certified bounded.
    ///
    /// The bound is a deliberate over-approximation: every non-final round
    /// inserts at least one tuple, so rounds ≤ total derivable tuples +
    /// one fixpoint-detection round per stratum. Derivable tuples per
    /// predicate are bounded by `D^arity` where `D` is the size of the
    /// derivable-value pool (database values, program constants, naturals
    /// up to the ceiling `V*`, and — for recursive components — the
    /// cardinalities of the components they read, which also bound tid
    /// values). All arithmetic saturates; a saturated bound is still sound,
    /// merely useless as a governor ceiling.
    pub fn round_bound(&self, db: &Database) -> Option<u64> {
        if !self.bounded() {
            return None;
        }
        // What the data contributes — the largest natural stored and how
        // many distinct values there are — is one pass over the database,
        // made once per database version and cached there.
        let data = db.value_summary();
        let mut vstar: u64 = self
            .max_const
            .max(data.max_natural)
            .max(self.capped_ceiling);
        let pool = data.distinct;
        // Value ceiling: the largest natural any evaluation can derive.
        // In a certified (acyclic) flow graph a derivation chain passes
        // each expanding occurrence at most once, so iterating them all
        // `len` times dominates every chain.
        for _ in 0..self.expanding_ops.len() + 1 {
            for op in &self.expanding_ops {
                vstar = match op {
                    Builtin::Succ => vstar.saturating_add(1),
                    Builtin::Plus | Builtin::Minus => vstar.saturating_add(vstar).max(1),
                    Builtin::Times | Builtin::Div => vstar.saturating_mul(vstar).max(vstar),
                    _ => vstar,
                };
            }
        }
        let base_domain = pool
            .saturating_add(self.const_count)
            .saturating_add(vstar)
            .saturating_add(1);

        // Tuple bounds per predicate, over the dependency condensation in
        // evaluation order: nonrecursive predicates get the sum over their
        // clauses of instantiation products; recursive components get
        // `D^arity` over the pool enlarged by everything the component
        // reads (which also covers tid values: a tid of `q` is below
        // `q`'s cardinality).
        let mut tuples: FxHashMap<SymbolId, u64> = FxHashMap::default();
        for &(p, _) in &self.edb {
            let n = db.relation_by_id(p).map(|r| r.len() as u64).unwrap_or(0);
            tuples.insert(p, n);
        }
        let arity: FxHashMap<SymbolId, usize> = self
            .idb
            .iter()
            .chain(self.edb.iter())
            .map(|&(p, a)| (p, a))
            .collect();
        for (scc, feeding) in self.sccs.iter().zip(&self.feeding) {
            if scc.kind == RecursionKind::Nonrecursive {
                let p = scc.preds[0];
                if tuples.contains_key(&p) {
                    continue; // EDB input
                }
                let mut total: u64 = 0;
                for clauses in self.clause_products(p, &tuples, vstar) {
                    total = total.saturating_add(clauses);
                }
                tuples.insert(p, total);
            } else {
                let mut domain = base_domain;
                for q in feeding {
                    domain = domain.saturating_add(tuples.get(q).copied().unwrap_or(0));
                }
                for &p in &scc.preds {
                    let a = arity.get(&p).copied().unwrap_or(0) as u32;
                    tuples.insert(p, domain.saturating_pow(a).max(1));
                }
            }
        }
        let mut total: u64 = 0;
        for &(p, _) in &self.idb {
            total = total.saturating_add(tuples.get(&p).copied().unwrap_or(0));
        }
        Some(total.saturating_add(self.strata).saturating_add(2))
    }

    /// Per-clause instantiation products for nonrecursive `p`: for each
    /// defining clause, the product of body-atom cardinalities, with
    /// `V*+1` per value-generating builtin.
    fn clause_products(
        &self,
        p: SymbolId,
        tuples: &FxHashMap<SymbolId, u64>,
        vstar: u64,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for clause in &self.nonrec_clauses {
            if clause.head != p {
                continue;
            }
            let mut product: u64 = 1;
            for factor in &clause.factors {
                let f = match factor {
                    ClauseFactor::Atom(q) => tuples.get(q).copied().unwrap_or(0),
                    ClauseFactor::Generator => vstar.saturating_add(1),
                };
                product = product.saturating_mul(f);
            }
            out.push(product);
        }
        out
    }
}

/// A body factor of a nonrecursive clause, for the instantiation product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClauseFactor {
    /// A positive atom (ordinary or ID) over the given base predicate.
    Atom(SymbolId),
    /// A value-generating builtin (anything but `=`/`!=`): at most `V*+1`
    /// solutions per instantiation of its bound arguments.
    Generator,
}

/// Pre-extracted shape of one clause, for the per-database bound.
#[derive(Debug, Clone)]
struct ClauseShape {
    head: SymbolId,
    factors: Vec<ClauseFactor>,
}

/// Builtin output positions whose value can strictly exceed every input:
/// the successor, sums, products, and the reconstructed minuend/dividend.
fn expanding_output(op: Builtin, pos: usize) -> bool {
    matches!(
        (op, pos),
        (Builtin::Succ, 1)
            | (Builtin::Plus, 2)
            | (Builtin::Minus, 0)
            | (Builtin::Times, 2)
            | (Builtin::Div, 0)
    )
}

/// Builtin argument positions the engine can *bind* from the others (see
/// `idlog_core::builtins::solve`'s mode table). Comparisons enumerate their
/// open side; `!=` never binds.
fn bindable_output(op: Builtin, pos: usize) -> bool {
    match op {
        Builtin::Succ | Builtin::Eq => true,
        Builtin::Plus | Builtin::Minus | Builtin::Times | Builtin::Div => true,
        Builtin::Lt | Builtin::Le => pos == 0,
        Builtin::Gt | Builtin::Ge => pos == 1,
        Builtin::Ne => false,
    }
}

/// Run the termination analysis over a validated program, read through its
/// column graph; [`ValidatedProgram::termination`] holds the result.
pub(crate) fn analyze_termination(
    program: &ValidatedProgram,
    columns: &ColumnGraph,
) -> TerminationCert {
    let arity = |p: SymbolId| program.arity(p).expect("a program predicate has an arity");
    let with_arity = |preds: &FxHashSet<SymbolId>| preds.iter().map(|&p| (p, arity(p))).collect();
    let graph = program.stratification().graph();
    let ast = program.ast();

    // --- Program constants and expanding builtin occurrences. ---
    let mut consts: FxHashSet<Term> = FxHashSet::default();
    let mut max_const: u64 = 0;
    let mut expanding_ops: Vec<Builtin> = Vec::new();
    let mut capped_ceiling: u64 = 0;
    for cols in &columns.0 {
        let clause = cols.clause;
        let mut terms: Vec<&Term> = clause.single_head().terms.iter().collect();
        for (li, lit) in clause.body.iter().enumerate() {
            let (op, args) = match lit {
                Literal::Pos(a) | Literal::Neg(a) => (None, &a.terms),
                Literal::Builtin { op, args } => (Some(*op), args),
                _ => continue,
            };
            terms.extend(args);
            let Some(op) = op.filter(|&op| (0..args.len()).any(|i| expanding_output(op, i))) else {
                continue;
            };
            match input_capped_ceiling(cols, li) {
                Some(c) => capped_ceiling = capped_ceiling.max(c),
                None => expanding_ops.push(op),
            }
        }
        for t in terms.into_iter().filter(|t| !matches!(t, Term::Var(_))) {
            if let Term::Int(n) = t {
                max_const = max_const.max(n.get() as u64);
            }
            consts.insert(t.clone());
        }
    }

    // --- Argument-flow graph. ---
    let edges = flow_edges(columns);
    let witness = witness_cycle(&edges, FlowEdge::is_expanding);
    let unbounded = unbounded_predicates(&edges, &witness);

    // --- Dependency SCC classification. ---
    let sccs = classify_sccs(ast, graph);
    let feeding = sccs
        .iter()
        .map(|scc| {
            let mut from: Vec<SymbolId> = graph
                .edges()
                .iter()
                .filter(|e| scc.preds.contains(&e.to) && !scc.preds.contains(&e.from))
                .map(|e| e.from)
                .collect();
            from.sort_unstable();
            from.dedup();
            from
        })
        .collect();

    // --- ID-sites over unbounded bases. ---
    let mut id_sites = Vec::new();
    for (ci, clause) in ast.clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            if let Some(a) = lit.atom() {
                if a.pred.is_id_version() && unbounded.contains(&a.pred.base()) {
                    id_sites.push(UnboundedIdSite {
                        clause: ci,
                        literal: li,
                        base: a.pred.base(),
                    });
                }
            }
        }
    }

    // Clause shapes for the per-database instantiation products.
    let nonrec_clauses = ast
        .clauses
        .iter()
        .map(|clause| ClauseShape {
            head: clause.single_head().pred.base(),
            factors: clause
                .body
                .iter()
                .filter_map(|lit| match lit {
                    Literal::Pos(a) => Some(ClauseFactor::Atom(a.pred.base())),
                    Literal::Builtin { op, .. } if !matches!(op, Builtin::Eq | Builtin::Ne) => {
                        Some(ClauseFactor::Generator)
                    }
                    _ => None,
                })
                .collect(),
        })
        .collect();

    TerminationCert {
        witness,
        unbounded,
        sccs,
        feeding,
        id_sites,
        idb: with_arity(program.idb()),
        edb: with_arity(program.inputs()),
        max_const,
        const_count: consts.len() as u64,
        expanding_ops,
        capped_ceiling,
        strata: program.stratification().count() as u64,
        nonrec_clauses,
    }
}

/// Build the argument-flow edges of a program from its clauses' use lists.
///
/// Per clause: a variable bound by any positive atom takes only its atom
/// sources (the join *restricts* its range, so builtin-derived bindings for
/// the same variable cannot widen it — this is what keeps `parity.idl`'s
/// `succ(T, T2), has(T2)` certified). Variables bound only by builtins
/// inherit the sources of the builtin's other arguments, marked expanding
/// when the output position can exceed its inputs — unless the clause caps
/// the variable by a constant `c` ([`ClauseColumns::cap`]), or every input
/// of its `succ` or `plus` ([`input_capped_ceiling`]). A capped output
/// stays at most `c ≤ max_const`, where [`TerminationCert::round_bound`]'s
/// value ceiling `V*` starts, so every value it binds lies in the pool
/// `0..=V*` however often a derivation passes it.
fn flow_edges(columns: &ColumnGraph) -> Vec<FlowEdge> {
    let mut edges = Vec::new();
    for (ci, cols) in columns.0.iter().enumerate() {
        // Each variable's sources, as edges from where its value is read,
        // into that place until a head column takes them.
        let mut sources: Vec<Vec<FlowEdge>> = vec![Vec::new(); cols.names.len()];
        // Pass 1: positive atom bindings.
        for u in &cols.uses {
            let node = match u.role {
                Role::Atom(p) | Role::Group(p) | Role::Member(p) => FlowNode::Col(p, u.pos),
                Role::Tid(p) => FlowNode::Card(p),
                _ => continue,
            };
            sources[u.var].push(FlowEdge {
                from: node,
                to: node,
                clause: ci,
                literal: u.literal.expect("an atom is a body literal"),
                grew_at: None,
                op: None,
            });
        }
        let atom_bound: Vec<bool> = sources.iter().map(|s| !s.is_empty()).collect();
        // Pass 2: builtin-derived bindings, to fixpoint (chains like
        // `succ(A, B), succ(B, C)` need two passes).
        loop {
            let mut changed = false;
            for li in 0..cols.clause.body.len() {
                let args = cols.in_literal(li);
                for out in args {
                    let Role::Arg(op, _) = out.role else { break };
                    if atom_bound[out.var] || !bindable_output(op, out.pos) {
                        continue;
                    }
                    let expanding = expanding_output(op, out.pos);
                    let capped = cols.cap(out.var).is_some()
                        || (expanding && input_capped_ceiling(cols, li).is_some());
                    let mut derived: Vec<FlowEdge> = Vec::new();
                    for other in args.iter().filter(|o| o.var != out.var) {
                        for src in &sources[other.var] {
                            let (grew_at, op) = match (capped, expanding) {
                                (true, _) => (None, None),
                                (false, true) => (Some(li), Some(op)),
                                (false, false) => (src.grew_at, src.op),
                            };
                            derived.push(FlowEdge {
                                grew_at,
                                op,
                                ..*src
                            });
                        }
                    }
                    let entry = &mut sources[out.var];
                    for src in derived {
                        let key = (src.from, src.is_expanding());
                        if !entry.iter().any(|s| (s.from, s.is_expanding()) == key) {
                            entry.push(src);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Pass 3: edges into head columns.
        for u in &cols.uses {
            let Role::Head(hp) = u.role else { continue };
            let to = FlowNode::Col(hp, u.pos);
            edges.extend(sources[u.var].iter().map(|src| FlowEdge { to, ..*src }));
        }
    }
    edges
}

/// The most the `succ` or `plus` at body literal `li` can make when the
/// clause caps every one of its inputs by a constant (an integer argument
/// caps itself): `succ(A, V)` with `A ≤ c` makes at most `c + 1`, and
/// `plus(A, B, V)` with `A ≤ c_A` and `B ≤ c_B` at most `c_A + c_B`.
/// `None` for any other builtin, or when an input goes uncapped. Such an
/// occurrence is one application to capped values, whatever feeds them,
/// and `V*` starts at the largest such ceiling too. A `plus` with one
/// input uncapped stays expanding: that input can grow without end.
fn input_capped_ceiling(cols: &ClauseColumns, li: usize) -> Option<u64> {
    let Literal::Builtin { op, args } = &cols.clause.body[li] else {
        return None;
    };
    let cap = |pos: usize| match &args[pos] {
        Term::Int(n) => Some(n.get() as u64),
        Term::Var(_) => cols.cap(cols.var_at(li, pos)?),
        Term::Sym(_) => None,
    };
    match op {
        Builtin::Succ => Some(cap(0)?.saturating_add(1)),
        Builtin::Plus => Some(cap(0)?.saturating_add(cap(1)?)),
        _ => None,
    }
}

/// Predicates whose cardinality cannot be bounded: everything reachable
/// (forward) from a node of an expanding cycle. Every expanding edge that
/// closes a cycle seeds, not just the `witness`'s: independent growth
/// engines all poison their sinks. Without a witness no expanding edge
/// closes a cycle.
fn unbounded_predicates(edges: &[FlowEdge], witness: &[FlowEdge]) -> FxHashSet<SymbolId> {
    if witness.is_empty() {
        return FxHashSet::default();
    }
    let next = adjacency(edges.iter().copied(), true);
    let seeds = edges
        .iter()
        .filter(|e| e.is_expanding() && reach(&next, [e.to]).contains(&e.from))
        .map(|e| e.to);
    reach(&next, seeds)
        .into_iter()
        .filter_map(|node| match node {
            FlowNode::Col(p, _) => Some(p),
            FlowNode::Card(_) => None,
        })
        .collect()
}

/// The dependency graph's components in evaluation (dependencies-first)
/// order, with their recursion classification.
fn classify_sccs(program: &Program, graph: &DepGraph) -> Vec<SccSummary> {
    let mut out = Vec::new();
    for preds in graph.sccs() {
        let members: FxHashSet<SymbolId> = preds.iter().copied().collect();
        let self_edge = graph
            .edges()
            .iter()
            .any(|e| e.from == e.to && members.contains(&e.from));
        let kind = if preds.len() == 1 && !self_edge {
            RecursionKind::Nonrecursive
        } else {
            // Linear: every clause of the component reads the component at
            // most once.
            let linear = program.clauses.iter().all(|c| {
                !members.contains(&c.single_head().pred.base())
                    || c.body
                        .iter()
                        .filter(
                            |l| matches!(l, Literal::Pos(a) if members.contains(&a.pred.base())),
                        )
                        .count()
                        <= 1
            });
            if linear {
                RecursionKind::Linear
            } else {
                RecursionKind::Nonlinear
            }
        };
        out.push(SccSummary { preds, kind });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Nat, Value};

    fn int(n: i64) -> Value {
        Value::Int(Nat::new(n).expect("a natural"))
    }
    use std::sync::Arc;

    use idlog_common::Interner;

    fn validate(src: &str, interner: &Arc<Interner>) -> crate::CoreResult<ValidatedProgram> {
        ValidatedProgram::parse(src, Arc::clone(interner))
    }

    fn cert(src: &str) -> (TerminationCert, Arc<Interner>) {
        let interner = Arc::new(Interner::new());
        let program = validate(src, &interner).expect("test program validates");
        (program.termination().clone(), interner)
    }

    #[test]
    fn diverge_program_gets_growth_witness() {
        let (c, i) = cert("count(0). count(M) :- count(N), plus(N, 1, M). reached(N) :- count(N).");
        assert!(!c.bounded());
        let w = c.growth_witness().expect("witness");
        assert!(w[0].is_expanding());
        assert_eq!(w[0].op, Some(Builtin::Plus));
        // The cycle chains to → from and closes.
        for pair in w.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        assert_eq!(w.last().unwrap().to, w[0].from);
        let count = i.intern("count");
        let reached = i.intern("reached");
        assert!(!c.pred_bounded(count));
        assert!(!c.pred_bounded(reached), "growth flows into reached");
        assert!(c.round_bound(&Database::with_interner(i)).is_none());
    }

    #[test]
    fn succ_growth_is_caught_too() {
        let (c, _) = cert("nat(0). nat(M) :- nat(N), succ(N, M).");
        let w = c.growth_witness().expect("witness");
        assert_eq!(w[0].op, Some(Builtin::Succ));
    }

    #[test]
    fn transitive_closure_is_bounded_linear() {
        let (c, i) = cert("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).");
        assert!(c.bounded());
        assert!(c.growth_witness().is_none());
        assert_eq!(c.recursion_kind(i.intern("tc")), RecursionKind::Linear);
        assert_eq!(c.recursion_kind(i.intern("e")), RecursionKind::Nonrecursive);
        assert_eq!(c.degree(), 2);
    }

    #[test]
    fn nonlinear_recursion_classified() {
        let (c, i) = cert("tc(X, Y) :- e(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y).");
        assert!(c.bounded());
        assert_eq!(c.recursion_kind(i.intern("tc")), RecursionKind::Nonlinear);
    }

    #[test]
    fn bounded_succ_through_join_is_certified() {
        // parity.idl's engine: the succ output T2 is also bound by has(T2),
        // so the join restricts it to existing values — no growth.
        let (c, _) = cert(
            "numbered(X, T) :- person[](X, T).
             has(T) :- numbered(X, T).
             even_upto(T) :- has(T), T = 0.
             even_upto(T2) :- odd_upto(T), succ(T, T2), has(T2).
             odd_upto(T2) :- even_upto(T), succ(T, T2), has(T2).",
        );
        assert!(c.bounded(), "witness: {:?}", c.growth_witness());
    }

    #[test]
    fn acyclic_arithmetic_is_bounded() {
        let (c, i) = cert("next(M) :- base(N), succ(N, M).");
        assert!(c.bounded());
        let mut db = Database::with_interner(Arc::clone(&i));
        db.insert("base", idlog_common::Tuple::new(vec![int(7)]))
            .unwrap();
        let b = c.round_bound(&db).expect("bounded");
        assert!(b >= 2, "at least one derivation round plus fixpoint check");
    }

    #[test]
    fn round_bound_counts_each_distinct_value_once() {
        let (c, i) = cert(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).
             big(N) :- w(X, N), tc(X, X).",
        );
        let mut db = Database::with_interner(Arc::clone(&i));
        for (x, y) in [("a", "b"), ("b", "a"), ("b", "c")] {
            db.insert_syms("e", &[x, y]).unwrap();
        }
        // Repeated symbols and integers: the pool is {a, b, c} and
        // {2, 4, 9}, and the largest natural is 9.
        for (x, n) in [("a", 2), ("b", 2), ("c", 9), ("a", 4)] {
            let t = vec![Value::Sym(i.intern(x)), int(n)];
            db.insert("w", t.into()).unwrap();
        }
        // D = 6 values + V* 9 + 1 = 16; tc reads e (3 tuples): 19² = 361;
        // big = |w| · |tc| = 4 · 361; plus the one stratum and 2.
        assert_eq!(c.round_bound(&db), Some(361 + 4 * 361 + 1 + 2));
    }

    #[test]
    fn unbounded_id_materialization_has_sites() {
        let (c, i) = cert(
            "nat(0). nat(M) :- nat(N), plus(N, 1, M).
             pick(X) :- nat[](X, 0).",
        );
        assert!(!c.bounded());
        let sites = c.unbounded_id_sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].base, i.intern("nat"));
        assert_eq!((sites[0].clause, sites[0].literal), (2, 0));
    }

    // Recursion through negation or an ID-literal, and the choice
    // constructs, never reach the analysis: validation rejects them, so
    // every valid program is in the analyzed fragment.

    #[test]
    fn recursion_through_negation_is_rejected_by_validation() {
        let err = validate("p(X) :- q(X), not p(X).", &Arc::new(Interner::new()));
        assert!(
            matches!(&err, Err(crate::CoreError::Stratification { cycle }) if cycle == &["p", "p"]),
            "{err:?}"
        );
    }

    #[test]
    fn recursion_through_id_literal_is_rejected_by_validation() {
        let err = validate(
            "p(X) :- q(X). p(X) :- p[](X, 0).",
            &Arc::new(Interner::new()),
        );
        assert!(
            matches!(&err, Err(crate::CoreError::Stratification { cycle }) if cycle == &["p", "p"]),
            "{err:?}"
        );
    }

    #[test]
    fn choice_construct_is_rejected_by_validation() {
        let err = validate(
            "s(N) :- emp(N, D), choice((D), (N)).",
            &Arc::new(Interner::new()),
        );
        assert!(
            matches!(err, Err(crate::CoreError::Validation { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn round_bound_covers_actual_rounds_tc() {
        // A 4-node chain: tc needs ~5 rounds; the bound must dominate.
        let src = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";
        let interner = Arc::new(Interner::new());
        let vp = validate(src, &interner).unwrap();
        let c = vp.termination();
        let mut db = Database::with_interner(Arc::clone(&interner));
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")] {
            db.insert_syms("e", &[a, b]).unwrap();
        }
        let bound = c.round_bound(&db).expect("certified");
        let out = crate::evaluate_governed(
            &vp,
            &db,
            &mut crate::CanonicalOracle,
            &crate::EvalOptions::new(),
            None,
        )
        .unwrap();
        assert!(
            out.stats().iterations <= bound,
            "actual {} > certified {}",
            out.stats().iterations,
            bound
        );
    }

    #[test]
    fn chain_bound_accumulates_in_dependency_order() {
        // Regression: the condensation must be walked dependencies-first,
        // or downstream predicates see cardinality 0 and the "bound"
        // undercuts the real round count.
        let src = "out(X) :- l0(X, Y). l0(X, Y) :- l1(X, Y). l1(X, Y) :- base(X, Y).";
        let interner = Arc::new(Interner::new());
        let vp = validate(src, &interner).unwrap();
        let c = vp.termination();
        let mut db = Database::with_interner(Arc::clone(&interner));
        db.insert_syms("base", &["a", "b"]).unwrap();
        db.insert_syms("base", &["b", "c"]).unwrap();
        let bound = c.round_bound(&db).expect("certified");
        let out = crate::evaluate_governed(
            &vp,
            &db,
            &mut crate::CanonicalOracle,
            &crate::EvalOptions::new(),
            None,
        )
        .unwrap();
        assert!(out.stats().iterations <= bound, "{bound} too small");
        assert!(bound >= 2 * 3, "three copies of two tuples dominate");
    }

    #[test]
    fn empty_and_fact_only_programs_are_bounded() {
        let (c, _) = cert("");
        assert!(c.bounded());
        let (c, i) = cert("p(a). p(b).");
        assert!(c.bounded());
        let b = c.round_bound(&Database::with_interner(i)).unwrap();
        assert!(b >= 2);
    }

    #[test]
    fn enumerative_comparison_is_bounded() {
        // `T < 2` enumerates 0..2 — bounded by the constant, no growth.
        let (c, _) = cert("two(N) :- emp[2](E, D, T), T < 2, eqv(T, N).");
        assert!(c.growth_witness().is_none());
    }

    #[test]
    fn growth_capped_by_a_constant_is_bounded() {
        // `V < 5` caps the successor: `n` stops at `n(4)`.
        let src = "n(0). n(V) :- n(A), succ(A, V), V < 5.";
        let interner = Arc::new(Interner::new());
        let vp = validate(src, &interner).unwrap();
        let c = vp.termination();
        assert!(c.growth_witness().is_none());
        assert!(c.pred_bounded(interner.intern("n")));
        let db = Database::with_interner(Arc::clone(&interner));
        let bound = c.round_bound(&db).expect("certified");
        let options = crate::EvalOptions::new().limits(crate::Limits::none().tighten_rounds(bound));
        let out = crate::evaluate_governed(&vp, &db, &mut crate::CanonicalOracle, &options, None)
            .unwrap();
        assert_eq!(out.relation("n").unwrap().len(), 5);
        assert!(out.stats().iterations <= bound, "{bound} too small");
        // Every spelling of the cap, on either side; the same program
        // without it, or capped from below, keeps its witness.
        for guard in ["V < 5", "V <= 4", "V = 4", "5 > V", "4 >= V", "4 = V"] {
            let (c, _) = cert(&format!("n(0). n(V) :- n(A), succ(A, V), {guard}."));
            assert!(c.bounded(), "{guard}");
        }
        for guard in ["V > 4", "5 <= V", "V != 4", "V < W"] {
            let (c, _) = cert(&format!(
                "n(0). w(9). n(V) :- n(A), w(W), succ(A, V), {guard}."
            ));
            assert!(!c.bounded(), "{guard}");
        }
    }

    #[test]
    fn growth_capped_at_its_inputs_is_bounded() {
        // `A < 4` caps the successor's input: `n` stops at `n(4)`.
        let src = "n(0). n(V) :- n(A), A < 4, succ(A, V).";
        let interner = Arc::new(Interner::new());
        let vp = validate(src, &interner).unwrap();
        let c = vp.termination();
        assert!(c.growth_witness().is_none());
        assert!(c.pred_bounded(interner.intern("n")));
        let db = Database::with_interner(Arc::clone(&interner));
        let bound = c.round_bound(&db).expect("certified");
        let options = crate::EvalOptions::new().limits(crate::Limits::none().tighten_rounds(bound));
        let out = crate::evaluate_governed(&vp, &db, &mut crate::CanonicalOracle, &options, None)
            .unwrap();
        assert_eq!(out.relation("n").unwrap().len(), 5);
        assert!(out.stats().iterations <= bound, "{bound} too small");
        // Every spelling of the cap, and `plus` with both inputs capped,
        // by a guard or by an integer argument.
        for clause in [
            "n(V) :- n(A), A <= 3, succ(A, V).",
            "n(V) :- n(A), A = 3, succ(A, V).",
            "n(V) :- n(A), 4 > A, succ(A, V).",
            "n(V) :- n(A), 3 >= A, succ(A, V).",
            "n(V) :- n(A), 3 = A, succ(A, V).",
            "n(V) :- n(A), n(B), A < 4, B < 2, plus(A, B, V).",
            "n(V) :- n(A), A < 4, plus(A, 2, V).",
            "n(V) :- n(A), A < 4, plus(A, A, V).",
        ] {
            let (c, _) = cert(&format!("n(0). n(1). {clause}"));
            assert!(c.bounded(), "{clause}");
        }
        // One `plus` input uncapped, or a cap from below, keeps the witness.
        for clause in [
            "n(V) :- n(A), n(B), A < 4, plus(A, B, V).",
            "n(V) :- n(A), n(B), B < 4, plus(A, B, V).",
            "n(V) :- n(A), A > 4, succ(A, V).",
            "n(V) :- n(A), w(W), A < W, succ(A, V).",
        ] {
            let (c, _) = cert(&format!("n(0). w(9). {clause}"));
            assert!(!c.bounded(), "{clause}");
        }
    }

    #[test]
    fn an_input_capped_application_counts_once_in_the_ceiling() {
        // `plus(A, B, V)` with `A, B ≤ 7` makes values up to 14, above
        // every constant of the program: the ceiling counts that one
        // application, so the bound covers the rounds it takes.
        let src = "n(0). n(1). n(V) :- n(A), n(B), A < 8, B < 8, plus(A, B, V).";
        let interner = Arc::new(Interner::new());
        let vp = validate(src, &interner).unwrap();
        let c = vp.termination();
        let db = Database::with_interner(Arc::clone(&interner));
        let bound = c.round_bound(&db).expect("certified");
        let options = crate::EvalOptions::new().limits(crate::Limits::none().tighten_rounds(bound));
        let out = crate::evaluate_governed(&vp, &db, &mut crate::CanonicalOracle, &options, None)
            .unwrap();
        assert_eq!(out.relation("n").unwrap().len(), 15, "0..=14");
        assert!(out.stats().iterations <= bound, "{bound} too small");
    }

    #[test]
    fn growth_through_copy_chain_is_found() {
        // The growing value takes a detour through a second predicate.
        let (c, i) = cert(
            "a(0).
             b(M) :- a(N), plus(N, 1, M).
             a(N) :- b(N).",
        );
        assert!(!c.bounded());
        let w = c.growth_witness().expect("witness");
        assert!(w.len() >= 2, "cycle passes through two predicates: {w:?}");
        assert!(!c.pred_bounded(i.intern("a")));
        assert!(!c.pred_bounded(i.intern("b")));
    }
}
