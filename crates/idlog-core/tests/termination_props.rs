//! Randomized soundness harness for the termination certificate, and for
//! the predicate-level analyses against the walks they replaced.
//!
//! On valid programs from `idlog_suite::gen`, whose `succ` and `plus` grow
//! values around recursive cycles, with and without their growth guards:
//!
//! 1. a *bounded* certificate is honest: the semi-naive round count never
//!    exceeds `round_bound(db)`, at 1, 2, and 8 threads;
//! 2. the run under the bound is byte-identical across thread counts
//!    (stats included);
//! 3. a refused bound always carries a growth witness (these programs are
//!    never evaluated), and only an unguarded copy is refused.
//!
//! On the wider fragment, with ID-literals whose tids builtins bound, read
//! or leak, the predicate-level analyses must agree with the hand-rolled
//! walks they replaced, kept below in [`reference`]; the parse-level ones
//! also run on each program's [`Program::mutant`], which the validator
//! refuses.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use idlog_common::SymbolId;
use idlog_core::columns::ColumnGraph;
use idlog_core::stratify::{stratify_check, DepGraph};
use idlog_core::tidbound::tid_bounds_ast;
use idlog_core::{
    choice_free_occurrence, evaluate_governed, CanonicalOracle, CoreError, EvalOptions, Interner,
    Limits, RecursionKind, ValidatedProgram,
};
use idlog_storage::Database;
use idlog_suite::gen::{self, Fragment, Ids, Program};

fn build(p: &Program) -> Result<(ValidatedProgram, Database), CoreError> {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(&p.to_string(), Arc::clone(&interner))?;
    let mut db = Database::with_interner(interner);
    idlog_core::load_facts(&p.facts(), &mut db)?;
    Ok((program, db))
}

/// A bounded certificate over-approximates the real round count, and the
/// certified ceiling never perturbs thread-count determinism. An unbounded
/// verdict always names a growing cycle, and a program whose every growth
/// is guarded by a constant cap is certified. Each program closes a
/// recursion through `succ` or `plus` on purpose ([`Fragment::growth`]),
/// and also runs with its growth guards dropped, where a wrongly certified
/// growth cycle diverges: it trips its bound, or runs past the 1 000
/// rounds no drawn program needs. At least half the unguarded copies
/// carry a growth witness, and so does each near miss of a cap
/// ([`Program::near_misses`]), so `idlog lint` draws W020 on it.
#[test]
fn certified_bounds_cover_actual_rounds() {
    const CASES: u32 = 128;
    let fragment = Fragment {
        ids: Ids::Off,
        point_query: false,
        growth: true,
    };
    let all = |p: &Program| {
        let pair = |(m, d): &(Program, Program)| Ok((m.to_string(), build(m)?.0, build(d)?.0));
        let misses: Result<Vec<_>, CoreError> = p.near_misses().iter().map(pair).collect();
        Ok::<_, CoreError>((build(p)?, build(&p.unguarded())?, misses?))
    };
    let (witnessed, near, refused) = (AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0));
    gen::check("bounds", CASES, fragment, all, |p, built| {
        let (guarded, unguarded, misses) = built;
        // A near miss caps nothing: refused exactly when no cap is.
        for (src, miss, dropped) in &misses {
            let refuse = miss.termination().growth_witness().is_some();
            let want = dropped.termination().growth_witness().is_some();
            prop_assert_eq!(refuse, want, "near miss:\n{}", src);
            near.fetch_add(1, Ordering::Relaxed);
            refused.fetch_add(u32::from(refuse), Ordering::Relaxed);
        }
        for (copy, (program, db)) in [("guarded", guarded), ("unguarded", unguarded)] {
            let cert = program.termination();
            // Each guard `V < k` caps the value its builtin grows.
            prop_assert!(copy == "unguarded" || cert.bounded(), "guarded: a witness");
            let Some(bound) = cert.round_bound(&db) else {
                // A valid program goes uncertified for one reason only.
                prop_assert!(cert.growth_witness().is_some(), "{copy}: no witness");
                witnessed.fetch_add(1, Ordering::Relaxed);
                continue; // evaluating could genuinely diverge
            };
            prop_assert!(cert.bounded(), "{copy}: a bound without a certificate");

            let mut outs = Vec::new();
            for threads in [1usize, 2, 8] {
                // The certified ceiling, and a round count no drawn program
                // needs (they converge in a handful): honest runs trip neither.
                let limits = Limits::none().tighten_rounds(bound).tighten_rounds(1_000);
                let options = EvalOptions::new().threads(threads).limits(limits);
                let out = evaluate_governed(&program, &db, &mut CanonicalOracle, &options, None)
                    .map_err(|e| gen::fail(format!("{copy}: certified bound {bound}: {e}")))?;
                let rounds = out.stats().iterations;
                prop_assert!(rounds <= bound, "{copy}: {rounds} rounds > bound {bound}");
                outs.push(out);
            }
            for pair in outs.windows(2) {
                prop_assert_eq!(pair[0].stats(), pair[1].stats(), "{copy}: stats differ");
                for name in p.derived() {
                    match (pair[0].relation(name), pair[1].relation(name)) {
                        (Some(a), Some(b)) => prop_assert!(a.set_eq(b), "{copy}: {name} differs"),
                        (None, None) => {}
                        _ => prop_assert!(false, "{copy}: presence mismatch on {name}"),
                    }
                }
            }
        }
        Ok(())
    });
    let witnessed = witnessed.into_inner();
    assert!(
        2 * witnessed >= CASES,
        "{witnessed} of {CASES} unguarded copies carry a growth witness"
    );
    // Every drawn growth closes a cycle, so each of its near misses draws W020.
    let (near, refused) = (near.into_inner(), refused.into_inner());
    assert_eq!(refused, near, "near misses with a growth witness");
}

const WIDE: Fragment = Fragment {
    ids: Ids::Any,
    point_query: false,
    growth: false,
};

fn parse(src: &str) -> Result<(idlog_parser::Program, Arc<Interner>), TestCaseError> {
    let interner = Arc::new(Interner::new());
    let program = idlog_parser::parse_program(src, &interner).map_err(gen::fail)?;
    Ok((program, interner))
}

/// The graphs' answers match the walks they replaced, byte for byte where a
/// diagnostic prints them: on a program and on its mutant the strata or the
/// cycle through a strict edge, and the output cone; on the valid program
/// its recursion classes, `P/q`, and the flow graph's growth witness and
/// unbounded set.
#[test]
fn graph_analyses_match_the_walks_they_replaced() {
    gen::check("graphs", 512, WIDE, build, |p, (validated, _)| {
        for src in [p.to_string(), p.mutant().to_string()] {
            let (program, interner) = parse(&src)?;
            match (stratify_check(&program), reference::stratify(&program)) {
                (Ok(s), Ok((strata, count))) => {
                    prop_assert_eq!(s.count(), count, "\n{}", src);
                    for (&p, &want) in &strata {
                        prop_assert_eq!(s.stratum(p), want, "{}\n{}", interner.resolve(p), src);
                    }
                }
                (Err(cycle), Err(want)) => prop_assert_eq!(cycle, want, "\n{}", src),
                (got, want) => prop_assert!(
                    false,
                    "verdicts differ: {:?} vs {:?}\n{}",
                    got.err(),
                    want.err(),
                    src
                ),
            }
            let cone = DepGraph::new(&program).output_cone();
            prop_assert_eq!(cone, reference::contributing(&program), "\n{}", src);
        }

        let program = validated.ast();
        let cert = validated.termination();
        let sccs: Vec<(Vec<SymbolId>, RecursionKind)> = cert
            .recursion()
            .iter()
            .map(|s| (s.preds.clone(), s.kind))
            .collect();
        prop_assert_eq!(sccs, reference::classify_sccs(program));
        let flow = reference::flow_edges(program);
        let witness = reference::growth_cycle(&flow);
        prop_assert_eq!(cert.growth_witness().unwrap_or(&[]), &witness[..]);
        let unbounded = reference::unbounded_predicates(&flow, &witness);
        prop_assert_eq!(cert.unbounded_predicates(), unbounded);
        for &q in &program.head_predicates() {
            let got = validated.restrict_to(q).map(|r| r.ast().clauses.clone());
            let want = reference::restrict_to(program, q);
            prop_assert_eq!(
                got.ok(),
                Some(want),
                "P/{}",
                validated.interner().resolve(q)
            );
        }
        Ok(())
    });
}

/// The one tid-occurrence walk gives both of the answers the two walks it
/// replaced gave, on a program and on its mutant: the H001 bound and
/// taint's choice-free rule.
#[test]
fn tid_use_matches_the_walks_it_replaced() {
    gen::check("tid use", 512, WIDE, build, |p, _| {
        for src in [p.to_string(), p.mutant().to_string()] {
            let (program, _) = parse(&src)?;
            let bounds = reference::tid_bounds(&program);
            let got = tid_bounds_ast(&ColumnGraph::new(&program));
            prop_assert_eq!(got, bounds, "\n{}", src);
            for clause in &program.clauses {
                for li in 0..clause.body.len() {
                    let want = reference::choice_free_occurrence(clause, li);
                    let got = choice_free_occurrence(clause, li);
                    prop_assert_eq!(got, want, "literal {}\n{}", li, src);
                }
            }
        }
        Ok(())
    });
}

/// Column taint on the column graph gives the answers the clause walk it
/// replaced gave: every head column's taint, every predicate's membership
/// taint, and W011's tainted variables per clause.
#[test]
fn column_taint_matches_the_walk_it_replaced() {
    gen::check("taint", 512, WIDE, build, |_, (validated, _)| {
        let (program, taint) = (validated.ast(), validated.taint());
        let (members, cols) = reference::taint(program);
        for clause in &program.clauses {
            let h = clause.single_head();
            let p = h.pred.base();
            prop_assert_eq!(taint.deterministic(p), !members.contains(&p));
            for k in 0..h.terms.len() {
                prop_assert_eq!(taint.col_tainted(p, k), cols.contains(&(p, k)));
            }
            let want = reference::value_tainted_vars(clause, &cols);
            prop_assert_eq!(taint.value_tainted_vars(clause), want);
        }
        Ok(())
    });
}

/// The walks the dependency graph, the tid-occurrence rule and the column
/// graph replaced, kept as the properties' references.
mod reference {
    use idlog_common::{FxHashMap, FxHashSet, SymbolId};
    use idlog_core::stratify::DepEdge;
    use idlog_core::termination::{FlowEdge, FlowNode, RecursionKind};
    use idlog_core::tidbound::TidBounds;
    use idlog_parser::{Builtin, Clause, Literal, PredicateRef, Program, Term};

    /// One edge per ordinary, ID or negated body occurrence, into the
    /// clause's first head.
    pub fn dependency_edges(program: &Program) -> Vec<DepEdge> {
        let mut out = Vec::new();
        for (ci, clause) in program.clauses.iter().enumerate() {
            let Some(h) = clause.head.first() else {
                continue;
            };
            let head = h.atom.pred.base();
            for (li, lit) in clause.body.iter().enumerate() {
                match lit {
                    Literal::Pos(a) => {
                        let strict = matches!(a.pred, PredicateRef::IdVersion { .. });
                        out.push(DepEdge {
                            from: a.pred.base(),
                            to: head,
                            strict,
                            clause: ci,
                            literal: li,
                        });
                    }
                    Literal::Neg(a) => {
                        out.push(DepEdge {
                            from: a.pred.base(),
                            to: head,
                            strict: true,
                            clause: ci,
                            literal: li,
                        });
                    }
                    Literal::Builtin { .. } | Literal::Choice { .. } | Literal::Cut => {}
                }
            }
        }
        out
    }

    /// Longest-path relaxation: the strata and their count, or a cycle
    /// through a strict edge.
    pub fn stratify(
        program: &Program,
    ) -> Result<(FxHashMap<SymbolId, usize>, usize), Vec<DepEdge>> {
        let es = dependency_edges(program);
        let mut preds: FxHashSet<SymbolId> = FxHashSet::default();
        for e in &es {
            preds.insert(e.from);
            preds.insert(e.to);
        }
        for clause in &program.clauses {
            if let Some(h) = clause.head.first() {
                preds.insert(h.atom.pred.base());
            }
        }
        let mut stratum: FxHashMap<SymbolId, usize> = preds.iter().map(|&p| (p, 0)).collect();
        let n = preds.len().max(1);
        for pass in 0..=n {
            let mut changed = false;
            for e in &es {
                let need = stratum[&e.from] + usize::from(e.strict);
                let cur = stratum[&e.to];
                if cur < need {
                    stratum.insert(e.to, need);
                    changed = true;
                }
            }
            if !changed {
                let count = stratum.values().copied().max().unwrap_or(0) + 1;
                return Ok((stratum, count));
            }
            if pass == n {
                break;
            }
        }
        Err(find_cycle(&es))
    }

    fn find_cycle(es: &[DepEdge]) -> Vec<DepEdge> {
        let mut adj: FxHashMap<SymbolId, Vec<DepEdge>> = FxHashMap::default();
        for e in es {
            adj.entry(e.from).or_default().push(*e);
        }
        for e in es.iter().filter(|e| e.strict) {
            if e.from == e.to {
                return vec![*e];
            }
            let mut stack = vec![e.to];
            let mut visited: FxHashSet<SymbolId> = FxHashSet::default();
            let mut parent: FxHashMap<SymbolId, DepEdge> = FxHashMap::default();
            visited.insert(e.to);
            while let Some(u) = stack.pop() {
                if u == e.from {
                    let mut path = Vec::new();
                    let mut at = u;
                    while at != e.to {
                        let pe = parent[&at];
                        path.push(pe);
                        at = pe.from;
                    }
                    path.push(*e);
                    path.reverse();
                    return path;
                }
                for &edge in adj.get(&u).into_iter().flatten() {
                    if visited.insert(edge.to) {
                        parent.insert(edge.to, edge);
                        stack.push(edge.to);
                    }
                }
            }
        }
        Vec::new()
    }

    /// Tarjan condensation over every predicate, in evaluation order, with
    /// recursion classes.
    pub fn classify_sccs(program: &Program) -> Vec<(Vec<SymbolId>, RecursionKind)> {
        let dep_edges = dependency_edges(program);
        let mut preds: Vec<SymbolId> = Vec::new();
        for clause in &program.clauses {
            preds.extend(clause.head.iter().map(|h| h.atom.pred.base()));
            preds.extend(
                clause
                    .body
                    .iter()
                    .filter_map(|l| l.atom())
                    .map(|a| a.pred.base()),
            );
        }
        preds.sort_unstable();
        preds.dedup();
        let index_of: FxHashMap<SymbolId, usize> =
            preds.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
        for e in &dep_edges {
            adj[index_of[&e.from]].push(index_of[&e.to]);
        }
        let mut sccs = tarjan(&adj);
        sccs.reverse();

        let mut out = Vec::new();
        for comp in sccs {
            let members: FxHashSet<SymbolId> = comp.iter().map(|&i| preds[i]).collect();
            let self_edge = dep_edges
                .iter()
                .any(|e| e.from == e.to && members.contains(&e.from));
            let recursive = comp.len() > 1 || self_edge;
            // A valid program stratifies, so no component recurses through
            // negation or an ID-literal.
            let kind = if !recursive {
                RecursionKind::Nonrecursive
            } else {
                let linear = program.clauses.iter().all(|c| {
                    if !c.head.iter().any(|h| members.contains(&h.atom.pred.base())) {
                        return true;
                    }
                    c.body
                        .iter()
                        .filter(|l| {
                            matches!(l, Literal::Pos(_))
                                && l.atom().is_some_and(|a| members.contains(&a.pred.base()))
                        })
                        .count()
                        <= 1
                });
                if linear {
                    RecursionKind::Linear
                } else {
                    RecursionKind::Nonlinear
                }
            };
            let mut ps: Vec<SymbolId> = members.into_iter().collect();
            ps.sort_unstable();
            out.push((ps, kind));
        }
        out
    }

    fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let n = adj.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();
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
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                    call.pop();
                    if let Some(&(u, _)) = call.last() {
                        low[u] = low[u].min(low[v]);
                    }
                }
            }
        }
        out
    }

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

    fn bindable_output(op: Builtin, pos: usize) -> bool {
        match op {
            Builtin::Succ | Builtin::Eq => true,
            Builtin::Plus | Builtin::Minus | Builtin::Times | Builtin::Div => true,
            Builtin::Lt | Builtin::Le => pos == 0,
            Builtin::Gt | Builtin::Ge => pos == 1,
            Builtin::Ne => false,
        }
    }

    #[derive(Clone, Copy)]
    struct Src {
        node: FlowNode,
        literal: usize,
        grew_at: Option<usize>,
        op: Option<Builtin>,
    }

    /// Variables a clause bounds from above by a constant (`V < c`,
    /// `V <= c`, `V = c`, and mirrored): a builtin binding one grows
    /// nothing.
    fn capped(body: &[Literal]) -> FxHashSet<&str> {
        let mut out = FxHashSet::default();
        for lit in body {
            let Literal::Builtin { op, args } = lit else {
                continue;
            };
            let (var, constant) = match op {
                Builtin::Lt | Builtin::Le => (&args[0], &args[1]),
                Builtin::Gt | Builtin::Ge => (&args[1], &args[0]),
                Builtin::Eq if matches!(args[0], Term::Int(_)) => (&args[1], &args[0]),
                Builtin::Eq => (&args[0], &args[1]),
                _ => continue,
            };
            if let (Term::Var(v), Term::Int(_)) = (var, constant) {
                out.insert(v.as_str());
            }
        }
        out
    }

    /// Whether every input of a growing `succ` or `plus` is an integer or a
    /// capped variable: then what it makes is capped too.
    fn inputs_capped(op: Builtin, args: &[Term], capped: &FxHashSet<&str>) -> bool {
        let inputs = match op {
            Builtin::Succ => &args[..1],
            Builtin::Plus => &args[..2],
            _ => return false,
        };
        inputs.iter().all(|t| match t {
            Term::Int(_) => true,
            Term::Var(v) => capped.contains(v.as_str()),
            Term::Sym(_) => false,
        })
    }

    /// The argument-flow edges (unchanged by the graph's introduction but
    /// for constant caps, on a builtin's output or on all its inputs; the
    /// analysis keeps them private).
    pub fn flow_edges(program: &Program) -> Vec<FlowEdge> {
        let mut edges = Vec::new();
        for (ci, clause) in program.clauses.iter().enumerate() {
            let capped = capped(&clause.body);
            let mut sources: FxHashMap<&str, Vec<Src>> = FxHashMap::default();
            for (li, lit) in clause.body.iter().enumerate() {
                let Literal::Pos(a) = lit else { continue };
                let base = a.pred.base();
                let id = a.pred.is_id_version();
                let tid_pos = a.terms.len().saturating_sub(1);
                for (j, t) in a.terms.iter().enumerate() {
                    let Term::Var(v) = t else { continue };
                    let node = if id && j == tid_pos {
                        FlowNode::Card(base)
                    } else {
                        FlowNode::Col(base, j)
                    };
                    sources.entry(v.as_str()).or_default().push(Src {
                        node,
                        literal: li,
                        grew_at: None,
                        op: None,
                    });
                }
            }
            let atom_bound: FxHashSet<&str> = sources.keys().copied().collect();
            loop {
                let mut grew = false;
                for (li, lit) in clause.body.iter().enumerate() {
                    let Literal::Builtin { op, args } = lit else {
                        continue;
                    };
                    for (tp, t) in args.iter().enumerate() {
                        let Term::Var(tv) = t else { continue };
                        if atom_bound.contains(tv.as_str()) || !bindable_output(*op, tp) {
                            continue;
                        }
                        let expanding = expanding_output(*op, tp);
                        let capped = capped.contains(tv.as_str())
                            || (expanding && inputs_capped(*op, args, &capped));
                        let mut derived: Vec<Src> = Vec::new();
                        for (i, other) in args.iter().enumerate() {
                            if i == tp {
                                continue;
                            }
                            let Term::Var(ov) = other else { continue };
                            if ov == tv {
                                continue;
                            }
                            for src in sources.get(ov.as_str()).cloned().unwrap_or_default() {
                                let (grew_at, op) = if capped {
                                    (None, None)
                                } else if expanding {
                                    (Some(li), Some(*op))
                                } else {
                                    (src.grew_at, src.op)
                                };
                                derived.push(Src {
                                    node: src.node,
                                    literal: src.literal,
                                    grew_at,
                                    op,
                                });
                            }
                        }
                        let entry = sources.entry(tv.as_str()).or_default();
                        for src in derived {
                            let key = (src.node, src.grew_at.is_some());
                            if !entry.iter().any(|s| (s.node, s.grew_at.is_some()) == key) {
                                entry.push(src);
                                grew = true;
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            for h in &clause.head {
                let hp = h.atom.pred.base();
                for (k, t) in h.atom.terms.iter().enumerate() {
                    let Term::Var(v) = t else { continue };
                    for src in sources.get(v.as_str()).into_iter().flatten() {
                        edges.push(FlowEdge {
                            from: src.node,
                            to: FlowNode::Col(hp, k),
                            clause: ci,
                            literal: src.literal,
                            grew_at: src.grew_at,
                            op: src.op,
                        });
                    }
                }
            }
        }
        edges
    }

    /// The first expanding edge on a cycle, followed by the path back.
    pub fn growth_cycle(edges: &[FlowEdge]) -> Vec<FlowEdge> {
        let mut adj: FxHashMap<FlowNode, Vec<&FlowEdge>> = FxHashMap::default();
        for e in edges {
            adj.entry(e.from).or_default().push(e);
        }
        for e in edges.iter().filter(|e| e.is_expanding()) {
            if e.from == e.to {
                return vec![*e];
            }
            let mut stack = vec![e.to];
            let mut visited: FxHashSet<FlowNode> = FxHashSet::default();
            let mut parent: FxHashMap<FlowNode, FlowEdge> = FxHashMap::default();
            visited.insert(e.to);
            while let Some(u) = stack.pop() {
                if u == e.from {
                    let mut path = Vec::new();
                    let mut at = u;
                    while at != e.to {
                        let pe = parent[&at];
                        path.push(pe);
                        at = pe.from;
                    }
                    path.push(*e);
                    path.reverse();
                    return path;
                }
                for &edge in adj.get(&u).into_iter().flatten() {
                    if visited.insert(edge.to) {
                        parent.insert(edge.to, *edge);
                        stack.push(edge.to);
                    }
                }
            }
        }
        Vec::new()
    }

    /// Everything reachable from a node of an expanding cycle, in
    /// interning order.
    pub fn unbounded_predicates(edges: &[FlowEdge], witness: &[FlowEdge]) -> Vec<SymbolId> {
        let mut out = FxHashSet::default();
        if witness.is_empty() {
            return Vec::new();
        }
        let mut adj: FxHashMap<FlowNode, Vec<FlowNode>> = FxHashMap::default();
        for e in edges {
            adj.entry(e.from).or_default().push(e.to);
        }
        let mut seeds: Vec<FlowNode> = Vec::new();
        for e in edges.iter().filter(|e| e.is_expanding()) {
            if e.from == e.to || reaches(&adj, e.to, e.from) {
                seeds.push(e.to);
            }
        }
        let mut visited: FxHashSet<FlowNode> = seeds.iter().copied().collect();
        let mut stack = seeds;
        while let Some(u) = stack.pop() {
            if let FlowNode::Col(p, _) = u {
                out.insert(p);
            }
            for &v in adj.get(&u).into_iter().flatten() {
                if visited.insert(v) {
                    stack.push(v);
                }
            }
        }
        let mut v: Vec<SymbolId> = out.into_iter().collect();
        v.sort_unstable();
        v
    }

    fn reaches(adj: &FxHashMap<FlowNode, Vec<FlowNode>>, from: FlowNode, to: FlowNode) -> bool {
        let mut visited: FxHashSet<FlowNode> = FxHashSet::default();
        let mut stack = vec![from];
        visited.insert(from);
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            for &v in adj.get(&u).into_iter().flatten() {
                if visited.insert(v) {
                    stack.push(v);
                }
            }
        }
        false
    }

    /// The clauses of `P/output`, following each clause's first head.
    pub fn restrict_to(program: &Program, output: SymbolId) -> Vec<Clause> {
        let mut wanted: FxHashSet<SymbolId> = FxHashSet::default();
        wanted.insert(output);
        loop {
            let before = wanted.len();
            for clause in &program.clauses {
                if wanted.contains(&clause.head[0].atom.pred.base()) {
                    wanted.extend(
                        clause
                            .body
                            .iter()
                            .filter_map(|l| l.atom())
                            .map(|a| a.pred.base()),
                    );
                }
            }
            if wanted.len() == before {
                break;
            }
        }
        program
            .clauses
            .iter()
            .filter(|c| wanted.contains(&c.head[0].atom.pred.base()))
            .cloned()
            .collect()
    }

    /// Predicates that contribute to some sink, through every head of a
    /// clause.
    pub fn contributing(program: &Program) -> FxHashSet<SymbolId> {
        let heads = program.head_predicates();
        let bodies = program.body_predicates();
        let mut wanted: FxHashSet<SymbolId> = heads
            .iter()
            .copied()
            .filter(|p| !bodies.contains(p))
            .collect();
        loop {
            let before = wanted.len();
            for clause in &program.clauses {
                if clause
                    .head
                    .iter()
                    .any(|h| wanted.contains(&h.atom.pred.base()))
                {
                    wanted.extend(
                        clause
                            .body
                            .iter()
                            .filter_map(|l| l.atom())
                            .map(|a| a.pred.base()),
                    );
                }
            }
            if wanted.len() == before {
                return wanted;
            }
        }
    }

    /// The H001 bounds, one occurrence at a time.
    pub fn tid_bounds(program: &Program) -> TidBounds {
        let mut bounds: FxHashMap<(SymbolId, Vec<usize>), Option<usize>> = FxHashMap::default();
        for clause in &program.clauses {
            for (li, lit) in clause.body.iter().enumerate() {
                let Some(atom) = lit.atom() else { continue };
                let PredicateRef::IdVersion { base, grouping } = &atom.pred else {
                    continue;
                };
                let this = occurrence_bound(clause, li);
                let entry = bounds.entry((*base, grouping.clone())).or_insert(Some(0));
                *entry = match (*entry, this) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                };
            }
        }
        bounds
            .into_iter()
            .filter_map(|(k, v)| v.map(|b| (k, b)))
            .collect()
    }

    fn occurrence_bound(clause: &Clause, li: usize) -> Option<usize> {
        let atom = clause.body[li].atom().expect("caller checked");
        let tid_pos = atom.terms.len() - 1;
        match &atom.terms[tid_pos] {
            Term::Int(c) => Some(usize::try_from(c.get()).map_or(0, |c| c + 1)),
            Term::Sym(_) => Some(0),
            Term::Var(v) => {
                if atom.terms[..tid_pos].iter().any(|t| t.as_var() == Some(v)) {
                    return None;
                }
                for h in &clause.head {
                    if h.atom.variables().contains(&v.as_str()) {
                        return None;
                    }
                }
                let mut bound: Option<usize> = None;
                for (lj, other) in clause.body.iter().enumerate() {
                    if lj == li {
                        continue;
                    }
                    match other {
                        Literal::Builtin { op, args } => match comparison_bound(*op, args, v) {
                            ComparisonUse::NotMentioned => {}
                            ComparisonUse::Bounds(b) => {
                                bound = Some(bound.map_or(b, |cur| cur.min(b)));
                            }
                            ComparisonUse::Leaks => return None,
                        },
                        _ => {
                            if other.variables().contains(&v.as_str()) {
                                return None;
                            }
                        }
                    }
                }
                bound
            }
        }
    }

    enum ComparisonUse {
        NotMentioned,
        Bounds(usize),
        Leaks,
    }

    fn comparison_bound(op: Builtin, args: &[Term], v: &str) -> ComparisonUse {
        if !args.iter().any(|t| t.as_var() == Some(v)) {
            return ComparisonUse::NotMentioned;
        }
        let as_const = |t: &Term| match t {
            Term::Int(c) => usize::try_from(c.get()).ok(),
            _ => None,
        };
        let bound = |c: Option<usize>, plus: usize| match c {
            Some(c) => ComparisonUse::Bounds(c + plus),
            None => ComparisonUse::Leaks,
        };
        match (op, &args[0], &args[1]) {
            (Builtin::Lt, Term::Var(x), rhs) if x == v => bound(as_const(rhs), 0),
            (Builtin::Le, Term::Var(x), rhs) if x == v => bound(as_const(rhs), 1),
            (Builtin::Eq, Term::Var(x), rhs) if x == v => bound(as_const(rhs), 1),
            (Builtin::Gt, lhs, Term::Var(x)) if x == v => bound(as_const(lhs), 0),
            (Builtin::Ge, lhs, Term::Var(x)) if x == v => bound(as_const(lhs), 1),
            (Builtin::Eq, lhs, Term::Var(x)) if x == v => bound(as_const(lhs), 1),
            _ => ComparisonUse::Leaks,
        }
    }

    /// Taint's choice-free rule, with its own tid-locality walk.
    pub fn choice_free_occurrence(clause: &Clause, li: usize) -> bool {
        let Some(atom) = clause.body[li].atom() else {
            return false;
        };
        let PredicateRef::IdVersion { grouping, .. } = &atom.pred else {
            return false;
        };
        if atom.terms.is_empty() {
            return false;
        }
        let tid_pos = atom.terms.len() - 1;
        if grouping.len() == atom.base_arity() {
            return true;
        }
        if matches!(clause.body[li], Literal::Neg(_)) {
            return false;
        }
        let mut counts: FxHashMap<&str, usize> = FxHashMap::default();
        let mut terms: Vec<&Term> = Vec::new();
        for h in &clause.head {
            terms.extend(&h.atom.terms);
        }
        for lit in &clause.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => terms.extend(&a.terms),
                Literal::Builtin { args, .. } => terms.extend(args),
                Literal::Choice { grouped, chosen } => {
                    terms.extend(grouped);
                    terms.extend(chosen);
                }
                Literal::Cut => {}
            }
        }
        for t in terms {
            if let Term::Var(v) = t {
                *counts.entry(v.as_str()).or_insert(0) += 1;
            }
        }
        for (pos, term) in atom.terms[..tid_pos].iter().enumerate() {
            if grouping.contains(&pos) {
                continue;
            }
            match term {
                Term::Var(v) if counts.get(v.as_str()) == Some(&1) => {}
                _ => return false,
            }
        }
        match &atom.terms[tid_pos] {
            Term::Int(_) | Term::Sym(_) => true,
            Term::Var(v) => tid_var_is_local(clause, li, v),
        }
    }

    fn tid_var_is_local(clause: &Clause, li: usize, v: &str) -> bool {
        let occurs = |t: &Term| matches!(t, Term::Var(name) if name == v);
        if clause.head.iter().any(|h| h.atom.terms.iter().any(occurs)) {
            return false;
        }
        for (i, lit) in clause.body.iter().enumerate() {
            match lit {
                _ if i == li => {
                    let atom = lit.atom().expect("li indexes an ID-literal");
                    let tid_pos = atom.terms.len() - 1;
                    if atom.terms[..tid_pos].iter().any(occurs) {
                        return false;
                    }
                }
                Literal::Builtin { args, .. } => {
                    if args.iter().any(occurs)
                        && args.iter().any(|t| !occurs(t) && matches!(t, Term::Var(_)))
                    {
                        return false;
                    }
                }
                _ => {
                    if lit.variables().contains(&v) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The membership-tainted predicates and the tainted columns, by the
    /// clause walk the column graph replaced.
    #[allow(clippy::type_complexity)]
    pub fn taint(program: &Program) -> (FxHashSet<SymbolId>, FxHashSet<(SymbolId, usize)>) {
        let (mut members, mut cols) = (FxHashSet::default(), FxHashSet::default());
        loop {
            let mut changed = false;
            for clause in &program.clauses {
                let head = clause.single_head();
                let p = head.pred.base();
                let step = clause.body.iter().enumerate().any(|(li, lit)| {
                    lit.atom().is_some_and(|a| {
                        members.contains(&a.pred.base())
                            || a.pred.is_id_version() && !choice_free_occurrence(clause, li)
                    })
                });
                if step {
                    changed |= members.insert(p);
                }
                let vars = value_tainted_vars(clause, &cols);
                for (k, t) in head.terms.iter().enumerate() {
                    if matches!(t, Term::Var(v) if vars.contains(v.as_str())) {
                        changed |= cols.insert((p, k));
                    }
                }
            }
            if !changed {
                return (members, cols);
            }
        }
    }

    /// The variables of `clause` that can carry tid-derived values.
    pub fn value_tainted_vars<'c>(
        clause: &'c Clause,
        tainted_cols: &FxHashSet<(SymbolId, usize)>,
    ) -> FxHashSet<&'c str> {
        let mut tainted: FxHashSet<&'c str> = FxHashSet::default();
        for (li, lit) in clause.body.iter().enumerate() {
            let Literal::Pos(a) = lit else { continue };
            match &a.pred {
                PredicateRef::IdVersion { grouping, .. } => {
                    if a.terms.is_empty() || choice_free_occurrence(clause, li) {
                        continue;
                    }
                    let tid_pos = a.terms.len() - 1;
                    for (pos, term) in a.terms.iter().enumerate() {
                        if let Term::Var(v) = term {
                            if pos == tid_pos || !grouping.contains(&pos) {
                                tainted.insert(v.as_str());
                            }
                            if pos < tid_pos && tainted_cols.contains(&(a.pred.base(), pos)) {
                                tainted.insert(v.as_str());
                            }
                        }
                    }
                }
                PredicateRef::Ordinary(p) => {
                    for (pos, term) in a.terms.iter().enumerate() {
                        if let Term::Var(v) = term {
                            if tainted_cols.contains(&(*p, pos)) {
                                tainted.insert(v.as_str());
                            }
                        }
                    }
                }
            }
        }
        loop {
            let mut changed = false;
            for lit in &clause.body {
                if let Literal::Builtin { op, args } = lit {
                    if !op.is_comparison() || matches!(op, Builtin::Eq) {
                        let any = args
                            .iter()
                            .any(|t| matches!(t, Term::Var(v) if tainted.contains(v.as_str())));
                        if any {
                            for t in args {
                                if let Term::Var(v) = t {
                                    changed |= tainted.insert(v.as_str());
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                return tainted;
            }
        }
    }
}
