//! Randomized soundness harness for the termination certificate.
//!
//! Generates random *choice-free* programs over a small predicate pool with
//! same-level recursion and arithmetic builtins (`succ`, `plus`, `<`) —
//! exactly the shapes the argument-flow analysis classifies — then checks:
//!
//! 1. a certificate that says *bounded* is honest: the actual semi-naive
//!    round count never exceeds `round_bound(db)`, at 1, 2, and 8 threads;
//! 2. the run under the bound is byte-identical across thread counts
//!    (stats included), so the certificate never perturbs determinism;
//! 3. a certificate that refuses a bound always carries a growth witness
//!    (these programs are never evaluated — they may actually diverge).
//!
//! A wider generator adds negation, ID-literals whose tids builtins
//! constrain, and multi-head clauses. On its programs the predicate-level
//! analyses — strata, the stratification cycle, tid bounds, choice-free
//! occurrences and the output cone, and on the programs that validate the
//! recursion classes, growth witnesses, unbounded predicates and `P/q` —
//! must agree with the hand-rolled walks they replaced, kept below in
//! [`reference`]. The termination certificate exists for valid programs
//! only.

use std::sync::Arc;

use proptest::prelude::*;

use idlog_common::SymbolId;
use idlog_core::stratify::{stratify_check, DepGraph};
use idlog_core::tidbound::tid_bounds_ast;
use idlog_core::{
    choice_free_occurrence, evaluate_governed, CanonicalOracle, EvalOptions, Interner, Limits, Nat,
    RecursionKind, Tuple, ValidatedProgram, Value,
};
use idlog_storage::Database;

fn int(n: i64) -> Value {
    Value::Int(Nat::new(n).expect("a natural"))
}

/// Variable pool; index 4 is reserved for a builtin's fresh output.
const VARS: [&str; 5] = ["X", "Y", "Z", "W", "V"];

/// Derived predicates `p0..p3`; atom index 4 refers to the input `e`.
const DERIVED: usize = 4;

fn pred_name(p: usize) -> String {
    if p == DERIVED {
        "e".to_string()
    } else {
        format!("p{p}")
    }
}

/// An optional arithmetic literal in a clause body.
#[derive(Clone, Copy, Debug)]
enum BuiltinSpec {
    /// `succ(A, V)` — grows A by one into the fresh var V.
    Succ { input: usize },
    /// `plus(A, A, V)` — doubles A into V.
    Plus { input: usize },
    /// `A < B` — a pure test, never a generator.
    Lt { a: usize, b: usize },
}

#[derive(Clone, Debug)]
struct ClauseSpec {
    head: usize,
    head_vars: [usize; 2],
    atoms: Vec<(usize, [usize; 2])>,
    builtin: Option<BuiltinSpec>,
    wide: WideSpec,
}

/// The literal shapes only the wide generator draws. The certificate
/// property evaluates its programs, so it leaves them out.
#[derive(Clone, Debug, Default)]
struct WideSpec {
    /// `not p(A, B)` over atom-bound variables.
    negated: Option<(usize, [usize; 2])>,
    /// An ID-literal and the builtins over its tid.
    id: Option<IdSpec>,
    /// A second head atom, `h(A, B) & p(C, D) :- …` (DL syntax).
    second_head: Option<(usize, [usize; 2])>,
}

/// `p[grouping](A, B, tid)`, possibly negated. Variable index 5 is a fresh
/// existential, used nowhere else in the clause.
#[derive(Clone, Debug)]
struct IdSpec {
    base: usize,
    grouping: usize,
    vars: [usize; 2],
    negated: bool,
    tid: TidSpec,
}

/// The tid term of an ID-literal and what the clause does with it.
#[derive(Clone, Debug)]
enum TidSpec {
    /// A constant tid.
    Const(i64),
    /// A symbolic tid: the wrong sort, it matches nothing.
    Sym,
    /// Variable `T`, constrained by these builtins (`{c}` is a constant,
    /// `X` a clause variable); `T` also fills a head position when
    /// `in_head` holds.
    Var {
        constraints: Vec<(&'static str, i64)>,
        in_head: bool,
    },
}

/// Builtins over the tid variable `T`: the bounding comparisons in both
/// orientations, and the ones that read it without bounding it.
const TID_CONSTRAINTS: [&str; 12] = [
    "T < {c}",
    "T <= {c}",
    "T = {c}",
    "{c} > T",
    "{c} >= T",
    "{c} = T",
    "T >= {c}",
    "T > {c}",
    "succ(T, {c})",
    "T < X",
    "T = T",
    "plus(T, {c}, {c})",
];

#[derive(Clone, Debug)]
struct ProgramSpec {
    clauses: Vec<ClauseSpec>,
    facts: Vec<(i64, i64)>,
}

fn arb_builtin() -> impl Strategy<Value = Option<BuiltinSpec>> {
    prop_oneof![
        2 => Just(None),
        1 => (0usize..4).prop_map(|input| Some(BuiltinSpec::Succ { input })),
        1 => (0usize..4).prop_map(|input| Some(BuiltinSpec::Plus { input })),
        1 => (0usize..4, 0usize..4).prop_map(|(a, b)| Some(BuiltinSpec::Lt { a, b })),
    ]
}

fn arb_clause() -> impl Strategy<Value = ClauseSpec> {
    (
        0usize..4,
        (0usize..5, 0usize..5),
        proptest::collection::vec((0usize..=DERIVED, (0usize..4, 0usize..4)), 1..3),
        arb_builtin(),
    )
        .prop_map(|(head, head_vars, atoms, builtin)| ClauseSpec {
            head,
            head_vars: [head_vars.0, head_vars.1],
            atoms: atoms.into_iter().map(|(p, vs)| (p, [vs.0, vs.1])).collect(),
            builtin,
            wide: WideSpec::default(),
        })
}

fn arb_pred_atom() -> impl Strategy<Value = (usize, [usize; 2])> {
    (0usize..=DERIVED, (0usize..4, 0usize..4)).prop_map(|(p, vs)| (p, [vs.0, vs.1]))
}

fn arb_tid() -> impl Strategy<Value = TidSpec> {
    let constraint = (0..TID_CONSTRAINTS.len(), 0i64..4).prop_map(|(i, c)| (TID_CONSTRAINTS[i], c));
    prop_oneof![
        1 => (0i64..4).prop_map(TidSpec::Const),
        1 => Just(TidSpec::Sym),
        6 => (
            proptest::collection::vec(constraint, 0..3),
            (0u8..5).prop_map(|n| n == 0),
        )
            .prop_map(|(constraints, in_head)| TidSpec::Var { constraints, in_head }),
    ]
}

fn arb_id() -> impl Strategy<Value = IdSpec> {
    (
        0usize..=DERIVED,
        0usize..4,
        (0usize..6, 0usize..6),
        (0u8..4).prop_map(|n| n == 0),
        arb_tid(),
    )
        .prop_map(|(base, grouping, vs, negated, tid)| IdSpec {
            base,
            grouping,
            vars: [vs.0, vs.1],
            negated,
            tid,
        })
}

fn arb_wide_clause() -> impl Strategy<Value = ClauseSpec> {
    // Present one time in `n`.
    fn one_in<S: Strategy>(n: u64, inner: S) -> impl Strategy<Value = Option<S::Value>> {
        (inner, 0..n).prop_map(|(x, draw)| (draw == 0).then_some(x))
    }
    (
        arb_clause(),
        one_in(3, arb_pred_atom()),
        one_in(2, arb_id()),
        one_in(4, arb_pred_atom()),
    )
        .prop_map(|(mut clause, negated, id, second_head)| {
            clause.wide = WideSpec {
                negated,
                id,
                second_head,
            };
            clause
        })
}

fn arb_wide_program() -> impl Strategy<Value = ProgramSpec> {
    (
        proptest::collection::vec(arb_wide_clause(), 1..6),
        Just(Vec::new()),
    )
        .prop_map(|(clauses, facts)| ProgramSpec { clauses, facts })
}

fn arb_program() -> impl Strategy<Value = ProgramSpec> {
    (
        proptest::collection::vec(arb_clause(), 1..5),
        proptest::collection::vec((0i64..5, 0i64..5), 1..6),
    )
        .prop_map(|(clauses, facts)| ProgramSpec { clauses, facts })
}

/// Render the spec to source, repairing safety: every variable a builtin
/// reads, and every head variable, is forced to one bound by a positive
/// atom — except the builtin's fresh output `V`, which may flow to the
/// head (that is the growth shape under test).
fn render(spec: &ProgramSpec) -> String {
    let mut src = String::new();
    for c in &spec.clauses {
        let mut bound: Vec<usize> = c.atoms.iter().flat_map(|(_, vs)| vs.to_vec()).collect();
        bound.sort_unstable();
        bound.dedup();
        let fix = |v: usize| bound[v % bound.len()];
        let mut parts: Vec<String> = c
            .atoms
            .iter()
            .map(|(p, vs)| format!("{}({}, {})", pred_name(*p), VARS[vs[0]], VARS[vs[1]]))
            .collect();
        let mut generated = None;
        match c.builtin {
            Some(BuiltinSpec::Succ { input }) => {
                parts.push(format!("succ({}, V)", VARS[fix(input)]));
                generated = Some(4);
            }
            Some(BuiltinSpec::Plus { input }) => {
                let a = VARS[fix(input)];
                parts.push(format!("plus({a}, {a}, V)"));
                generated = Some(4);
            }
            Some(BuiltinSpec::Lt { a, b }) => {
                parts.push(format!("{} < {}", VARS[fix(a)], VARS[fix(b)]));
            }
            None => {}
        }
        let head_var = |v: usize| {
            if v == 4 && generated == Some(4) {
                VARS[4]
            } else {
                VARS[fix(v)]
            }
        };
        let mut head = format!(
            "{}({}, {})",
            pred_name(c.head),
            head_var(c.head_vars[0]),
            head_var(c.head_vars[1])
        );
        if let Some((p, vs)) = c.wide.negated {
            let (a, b) = (VARS[fix(vs[0])], VARS[fix(vs[1])]);
            parts.push(format!("not {}({a}, {b})", pred_name(p)));
        }
        if let Some(id) = &c.wide.id {
            let var = |v: usize| {
                if v == 5 {
                    "U".to_string()
                } else {
                    VARS[fix(v)].to_string()
                }
            };
            let grouping = ["", "1", "2", "1, 2"][id.grouping];
            let tid = match &id.tid {
                TidSpec::Const(c) => c.to_string(),
                TidSpec::Sym => "t".to_string(),
                TidSpec::Var { .. } => "T".to_string(),
            };
            parts.push(format!(
                "{}{}[{grouping}]({}, {}, {tid})",
                if id.negated { "not " } else { "" },
                pred_name(id.base),
                var(id.vars[0]),
                var(id.vars[1]),
            ));
            if let TidSpec::Var {
                constraints,
                in_head,
            } = &id.tid
            {
                for (template, c) in constraints {
                    let x = VARS[fix(0)];
                    parts.push(template.replace("{c}", &c.to_string()).replace('X', x));
                }
                if *in_head {
                    head = format!("{}(T, {})", pred_name(c.head), head_var(c.head_vars[1]));
                }
            }
        }
        if let Some((p, vs)) = c.wide.second_head {
            head.push_str(&format!(
                " & {}({}, {})",
                pred_name(p),
                VARS[fix(vs[0])],
                VARS[fix(vs[1])]
            ));
        }
        src.push_str(&format!("{head} :- {}.\n", parts.join(", ")));
    }
    src
}

fn build(spec: &ProgramSpec) -> (ValidatedProgram, Database) {
    let src = render(spec);
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(&src, Arc::clone(&interner))
        .unwrap_or_else(|e| panic!("generated program failed to validate: {e}\n{src}"));
    let mut db = Database::with_interner(interner);
    db.declare(
        "e",
        idlog_core::RelType::new(vec![idlog_core::Sort::I, idlog_core::Sort::I]),
    )
    .unwrap();
    for &(a, b) in &spec.facts {
        db.insert("e", Tuple::new(vec![int(a), int(b)])).unwrap();
    }
    (program, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A bounded certificate over-approximates the real round count, and
    /// the certified ceiling never perturbs thread-count determinism. An
    /// unbounded verdict always names a growing cycle.
    #[test]
    fn certified_bounds_cover_actual_rounds(spec in arb_program()) {
        let (program, db) = build(&spec);
        let cert = program.termination();
        let Some(bound) = cert.round_bound(&db) else {
            // A valid program goes uncertified for one reason only.
            prop_assert!(
                cert.growth_witness().is_some(),
                "unbounded without witness\n{}",
                render(&spec)
            );
            return Ok(()); // evaluating could genuinely diverge
        };
        prop_assert!(cert.bounded(), "a bound without a certificate\n{}", render(&spec));

        let mut outs = Vec::new();
        for threads in [1usize, 2, 8] {
            // The certified ceiling: honest evaluations must never trip it.
            let options = EvalOptions::new().threads(threads).limits(Limits {
                max_rounds: Some(bound),
                ..Limits::none()
            });
            let out = evaluate_governed(&program, &db, &mut CanonicalOracle, &options, None)
                .unwrap_or_else(|e| panic!(
                    "certified program tripped its own bound {bound}: {e}\n{}",
                    render(&spec)
                ));
            prop_assert!(
                out.stats().iterations <= bound,
                "rounds {} > certified bound {bound}\n{}",
                out.stats().iterations,
                render(&spec)
            );
            outs.push(out);
        }
        for pair in outs.windows(2) {
            prop_assert_eq!(
                pair[0].stats(),
                pair[1].stats(),
                "stats differ across thread counts\n{}",
                render(&spec)
            );
            for p in 0..4 {
                let name = pred_name(p);
                match (pair[0].relation(&name), pair[1].relation(&name)) {
                    (Some(a), Some(b)) => prop_assert!(a.set_eq(b), "{name} differs"),
                    (None, None) => {}
                    _ => prop_assert!(false, "presence mismatch on {name}"),
                }
            }
        }
    }
}

fn parse(spec: &ProgramSpec) -> (idlog_parser::Program, Arc<Interner>) {
    let src = render(spec);
    let interner = Arc::new(Interner::new());
    let program = idlog_parser::parse_program(&src, &interner)
        .unwrap_or_else(|e| panic!("generated program failed to parse: {e:?}\n{src}"));
    (program, interner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The dependency graph's answers — strata or the cycle through a
    /// strict edge, the output cone, and on a valid program its recursion
    /// classes and `P/q` — and the flow graph's growth witness and
    /// unbounded set on a valid program match the walks they replaced, byte
    /// for byte where a diagnostic prints them.
    #[test]
    fn graph_analyses_match_the_walks_they_replaced(spec in arb_wide_program()) {
        let (program, interner) = parse(&spec);
        let src = render(&spec);

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

        let graph = DepGraph::new(&program);
        prop_assert_eq!(graph.output_cone(), reference::contributing(&program), "\n{}", src);

        // The termination certificate exists for valid programs only.
        let Ok(validated) = ValidatedProgram::new(program.clone(), Arc::clone(&interner)) else {
            return Ok(());
        };
        let cert = validated.termination();
        let sccs: Vec<(Vec<SymbolId>, RecursionKind)> =
            cert.recursion().iter().map(|s| (s.preds.clone(), s.kind)).collect();
        prop_assert_eq!(sccs, reference::classify_sccs(&program), "\n{}", src);
        let flow = reference::flow_edges(&program);
        let witness = reference::growth_cycle(&flow);
        prop_assert_eq!(cert.growth_witness().unwrap_or(&[]), &witness[..], "\n{}", src);
        prop_assert_eq!(
            cert.unbounded_predicates(),
            reference::unbounded_predicates(&flow, &witness),
            "\n{}",
            src
        );
        for &q in &program.head_predicates() {
            let got = validated.restrict_to(q).map(|r| r.ast().clauses.clone());
            let want = reference::restrict_to(&program, q);
            prop_assert_eq!(got.ok(), Some(want), "P/{}\n{}", interner.resolve(q), src);
        }
    }

    /// The one tid-occurrence walk gives both of the answers the two walks
    /// it replaced gave: the H001 bound and taint's choice-free rule.
    #[test]
    fn tid_use_matches_the_walks_it_replaced(spec in arb_wide_program()) {
        let (program, _) = parse(&spec);
        let src = render(&spec);
        prop_assert_eq!(tid_bounds_ast(&program), reference::tid_bounds(&program), "\n{}", src);
        for clause in &program.clauses {
            for li in 0..clause.body.len() {
                prop_assert_eq!(
                    choice_free_occurrence(clause, li),
                    reference::choice_free_occurrence(clause, li),
                    "literal {}\n{}",
                    li,
                    src
                );
            }
        }
    }
}

/// The walks the dependency graph and the tid-occurrence rule replaced,
/// kept as the properties' references.
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

    /// The argument-flow edges (unchanged by the graph's introduction; the
    /// analysis keeps them private).
    pub fn flow_edges(program: &Program) -> Vec<FlowEdge> {
        let mut edges = Vec::new();
        for (ci, clause) in program.clauses.iter().enumerate() {
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
                                derived.push(Src {
                                    node: src.node,
                                    literal: src.literal,
                                    grew_at: if expanding { Some(li) } else { src.grew_at },
                                    op: if expanding { Some(*op) } else { src.op },
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
}
