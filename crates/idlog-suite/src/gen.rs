//! One generator of valid IDLOG programs for the generated-program
//! properties ([`check`]), and the shrinker that reduces a failing one.
//! Every drawn program is *valid by construction*:
//!
//! * every predicate column gets its sort before any clause is drawn, and a
//!   variable keeps the sort of the place that introduced it; arithmetic
//!   reads only sort-`i` variables and a tid is sort `i`, so no sort
//!   conflict arises;
//! * each clause body is drawn in a safe order: a literal reads variables
//!   an earlier literal bound, or constants, except where it binds them
//!   itself, and every head variable is bound; a builtin is drawn only in a
//!   mode its bound arguments allow;
//! * every predicate has a level (inputs 0): a positive atom reads a
//!   predicate at or below its head's level, which gives recursion, and a
//!   negation or an ID-literal strictly below, so the levels stratify; a
//!   literal reads only predicates with a clause already drawn;
//! * a builtin that makes a larger number (`succ` and `plus` forward) is
//!   followed by a guard, so every program terminates: half the time
//!   `V < k` on its output, otherwise `A < k` on each variable input
//!   ([`Program::unguarded`] drops the guards).
//! * with [`Fragment::growth`], a recursion also closes through `succ` or
//!   `plus` on purpose, capped in every shape the termination analysis
//!   accepts; [`Program::near_misses`] swaps each cap for one it must
//!   refuse.
//!
//! The body is then shuffled: the engine and the reference must find the
//! safe order themselves. Recursion, negation and arithmetic are always
//! drawn; a [`Fragment`] field exists only where two suites need different
//! programs.
//!
//! *Shrinking* drops a clause, then a body literal, then a fact, then
//! lowers an integer constant by one, and keeps a candidate only when the
//! property's own build step still accepts it and the property still
//! fails. A guard goes with the builtin it guards, so a shrunk program
//! still terminates.

use std::fmt;

use proptest::test_runner::{TestCaseError, TestRng};

/// Input predicates `e0`, `e1`.
const INPUTS: usize = 2;
/// Derived predicates `p0`..`p3`, at levels `1..=TOP`, then a point
/// query's `s` and `q` above them.
const DERIVED: usize = 4;
const TOP: usize = 3;
const S: usize = INPUTS + DERIVED;
/// Symbols `c0`..`c2` and integers `0..=3` make up the constants.
const SYMBOLS: usize = 3;
const INTS: usize = 4;
const NAMES: [&str; 12] = ["X", "Y", "Z", "W", "V", "U", "T", "S", "R", "N", "M", "K"];

/// The ID-literals a fragment draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ids {
    /// None.
    Off,
    /// Only choice-free occurrences: each non-grouping argument a variable
    /// used nowhere else, the tid a constant or a variable only compared
    /// with a constant, as the taint analysis certifies.
    ChoiceFree,
    /// Grouped, with the tid a constant or a variable `T` bounded by one
    /// comparison such as `T < k`: every tid has a bound, so the engine
    /// builds only each ID-relation's prefix.
    Bounded,
    /// Anything valid: negated ID-literals, and tids that builtins bound,
    /// read or leak, or that flow into the head or another literal.
    Any,
}

/// The programs a suite needs.
#[derive(Clone, Copy, Debug)]
pub struct Fragment {
    /// Which ID-literals are drawn.
    pub ids: Ids,
    /// Add a binary `s` above `p0`..`p3` and a unary root `q` above `s`.
    /// Each clause of `q` first reads a derived predicate, one of them `s`,
    /// with a constant argument, so `q` is a point query. `s` and `q`
    /// negate any predicate below them, recursive ones included; `p0`..`p3`
    /// negate only inputs and level-1 predicates, which read only inputs.
    /// `s` reads no `s`, and `q` no `q`, and `s` only as its clause's one
    /// derived positive atom. So no predicate that reads the negation of a
    /// derived one stands in a body prefix that the magic rewrite copies
    /// into a guard, and the rewrite stratifies (`ids` should be
    /// [`Ids::Off`]).
    pub point_query: bool,
    /// Close a recursion through a growing builtin on purpose, in one of
    /// three shapes: `p` grows itself (`p(V) :- p(A), succ(A, V)`), a
    /// `plus` adds what a second recursive predicate grows, or `p` and `r`
    /// grow each other through two builtins. Each growth is capped by a
    /// constant, on its output or on every variable input, spelled `<`,
    /// `<=` or `=`, either way round. It also carries a near miss the
    /// analysis must refuse: a cap by a variable, a cap from below, a cap
    /// on one `plus` input only, or a cap in another clause.
    pub growth: bool,
}

/// A column's or a variable's sort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sort {
    U,
    I,
}

/// A piece of source text. Variables and integers stand apart, so that
/// shrinking can lower an integer and a mutation can reuse a variable.
#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Text(String),
    Var(usize),
    Int(u64),
}

/// A head atom, a body literal (a builtin with its guard) or a fact, and
/// the predicate it reads, if any.
#[derive(Clone, Debug)]
struct Lit {
    pred: Option<usize>,
    toks: Vec<Tok>,
    /// A growth's near miss, on the builtin it grows by.
    miss: Option<Miss>,
}

/// What [`Program::near_misses`] puts in place of a growth's cap: the
/// guard after the builtin's `)`, and a clause that caps a variable of the
/// same name elsewhere.
#[derive(Clone, Debug)]
struct Miss {
    guard: Vec<Tok>,
    elsewhere: Option<Clause>,
}

#[derive(Clone, Debug)]
struct Clause {
    /// The first head's predicate.
    head: usize,
    heads: Vec<Lit>,
    body: Vec<Lit>,
    /// The sort of each variable, by index.
    vars: Vec<Sort>,
}

#[derive(Clone, Debug)]
struct Pred {
    name: String,
    sorts: Vec<Sort>,
    /// 0 for an input.
    level: usize,
}

/// A generated program with its input facts. Its `Display` is the program
/// source; [`Program::facts`] is the facts file.
#[derive(Clone, Debug)]
pub struct Program {
    preds: Vec<Pred>,
    clauses: Vec<Clause>,
    facts: Vec<Lit>,
    /// A draw for the property's own randomness, such as an oracle seed.
    pub seed: u64,
}

/// Run `property` on programs of `fragment` until `cases` of them pass, as
/// `proptest!` would: a `prop_assume!` discards a case. `seed` names the
/// stream of programs. `build` is the property's own build step; a drawn
/// program it refuses is a generator fault and panics. A failing program is
/// shrunk (see the module doc), and the panic prints the shrunk source, its
/// facts and the failure message.
pub fn check<B, E: fmt::Display>(
    seed: &str,
    cases: u32,
    fragment: Fragment,
    build: impl Fn(&Program) -> Result<B, E>,
    property: impl Fn(&Program, B) -> Result<(), TestCaseError>,
) {
    let fails = |p: &Program| match property(p, build(p).ok()?) {
        Err(TestCaseError::Fail(message)) => Some(message),
        _ => None,
    };
    let (mut passed, mut attempt) = (0, 0);
    while passed < cases {
        attempt += 1;
        assert!(
            attempt <= cases * 20 + 100,
            "{seed}: too many rejected cases ({passed}/{cases} passed)"
        );
        let program = fragment.program(&mut TestRng::for_case(seed, attempt));
        let built = build(&program).unwrap_or_else(|e| {
            panic!(
                "{seed}: a generated program does not build: {e}\n{program}{}",
                program.facts()
            )
        });
        match property(&program, built) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(message)) => {
                let (small, message) = shrink(program, message, fails);
                let (c, f) = (small.clauses.len(), small.facts.len());
                let l: usize = small.clauses.iter().map(|c| c.body.len()).sum();
                panic!(
                    "{seed} (attempt {attempt}) shrunk to {c} clause(s), {l} literal(s), \
                     {f} fact(s):\n{small}% facts\n{}{message}",
                    small.facts()
                );
            }
        }
    }
}

/// A property failure carrying `e`'s message: for `map_err` on the
/// engine's errors inside a property.
pub fn fail(e: impl fmt::Display) -> TestCaseError {
    TestCaseError::fail(e.to_string())
}

/// Take the first smaller candidate that still fails, until none does.
/// Each candidate is smaller in clauses, literals, facts or the sum of its
/// constants, so this ends.
fn shrink(
    mut program: Program,
    mut message: String,
    fails: impl Fn(&Program) -> Option<String>,
) -> (Program, String) {
    let smaller = |p: &Program| p.smaller().into_iter().find_map(|c| Some((fails(&c)?, c)));
    while let Some((m, p)) = smaller(&program) {
        (program, message) = (p, m);
    }
    (program, message)
}

impl Fragment {
    fn program(&self, rng: &mut TestRng) -> Program {
        let mut levels: Vec<usize> = (0..DERIVED).map(|_| 1 + below(rng, TOP)).collect();
        levels.sort_unstable();
        let inputs = (0..INPUTS).map(|i| (format!("e{i}"), 2, 0));
        let derived = (levels.into_iter().enumerate()).map(|(i, l)| (format!("p{i}"), 2, l));
        let roots = [("s".to_string(), 2, TOP + 1), ("q".to_string(), 1, TOP + 2)];
        let roots = roots.into_iter().filter(|_| self.point_query);
        let preds = (inputs.chain(derived).chain(roots))
            .map(|(name, arity, level)| Pred {
                name,
                sorts: (0..arity).map(|_| pick(rng, &[Sort::U, Sort::I])).collect(),
                level,
            })
            .collect();
        let seed = rng.next_u64();
        let mut d = Draw {
            fragment: *self,
            preds,
            rng,
            level: 0,
            vars: Vec::new(),
            pool: Vec::new(),
            body: Vec::new(),
            grown: None,
            sole: false,
            clauses: Vec::new(),
        };
        for _ in 0..2 + d.below(5) {
            // Half the clauses go to a predicate that has one: they may recurse.
            let heads: Vec<usize> = d.clauses.iter().map(|c| c.head).collect();
            let head = match d.below(2) {
                0 if !heads.is_empty() => pick(d.rng, &heads),
                _ => INPUTS + d.below(DERIVED),
            };
            d.clause(head, None);
        }
        if self.growth {
            d.growth();
        }
        if self.point_query {
            for _ in 0..1 + d.below(2) {
                d.clause(S, None);
            }
            // One clause of `q` reads `s`, two others any derived predicate.
            let defined: Vec<usize> = d.clauses.iter().map(|c| c.head).collect();
            for root in [S, pick(d.rng, &defined), pick(d.rng, &defined)] {
                d.clause(S + 1, Some(root));
            }
        }
        let mut facts = Vec::new();
        for _ in 0..6 + d.below(14) {
            let pred = d.below(INPUTS);
            let args = d.preds[pred].sorts.clone().into_iter();
            let args = args.map(|s| constant(d.rng, s)).collect::<Vec<_>>();
            facts.push(atom(&d.preds[pred].name, pred, args));
        }
        Program {
            preds: d.preds,
            clauses: d.clauses,
            facts,
            seed,
        }
    }
}

/// The draws of one program, and the state of the clause being drawn.
struct Draw<'a> {
    fragment: Fragment,
    preds: Vec<Pred>,
    rng: &'a mut TestRng,
    /// The head's level.
    level: usize,
    vars: Vec<Sort>,
    /// The bound variables later literals and the head may read.
    pool: Vec<usize>,
    body: Vec<Lit>,
    /// The output of the last builtin that grows a value.
    grown: Option<Tok>,
    /// The clause reads `s`: no other derived predicate.
    sole: bool,
    /// The clauses drawn so far.
    clauses: Vec<Clause>,
}

impl Draw<'_> {
    /// A clause for `head`: a binding positive atom first (over `root` with
    /// one constant argument, for a point-query root), then up to two more
    /// literals, a head over bound variables, and the body shuffled.
    fn clause(&mut self, head: usize, root: Option<usize>) {
        self.level = self.preds[head].level;
        self.pool.clear();
        self.sole = root == Some(S);
        let reads = self.readable(false);
        // Half the clauses that may recurse on their head start with it.
        let recursive = reads.contains(&head) && self.below(2) == 0;
        let first = match root {
            Some(root) => root,
            None if recursive => head,
            None => pick(self.rng, &reads),
        };
        let constant_at = root.map(|_| self.below(2));
        self.atom("", first, true, constant_at);
        for _ in 0..self.below(3) + usize::from(head == S) {
            self.literal();
        }
        // A grown value reaches the head: recursion through it makes the
        // growth cycles the termination analysis looks for.
        let grown = self.grown.take();
        let sorts = self.preds[head].sorts.clone();
        let args: Vec<Tok> = (sorts.into_iter())
            .map(|s| match &grown {
                Some(v) if s == Sort::I => v.clone(),
                _ => self.read(s),
            })
            .collect();
        for i in (1..self.body.len()).rev() {
            let j = self.below(i + 1);
            self.body.swap(i, j);
        }
        self.clauses.push(Clause {
            head,
            heads: vec![atom(&self.preds[head].name, head, args)],
            body: std::mem::take(&mut self.body),
            vars: std::mem::take(&mut self.vars),
        });
    }

    fn below(&mut self, n: usize) -> usize {
        below(self.rng, n)
    }

    /// The predicates a body literal may read: inputs and predicates with a
    /// clause, at or below the head's level, or with `strict` below it,
    /// narrowed for a point query (see [`Fragment::point_query`]).
    fn readable(&self, strict: bool) -> Vec<usize> {
        let top = self.level;
        let allowed = |l: usize| match (self.fragment.point_query, strict) {
            (false, _) => l < top || !strict && l == top,
            _ if top == 1 => l == 0,
            (_, true) if top <= TOP => l <= 1,
            (_, true) => l < top,
            (_, false) if self.sole => l == 0,
            (_, false) => l <= top.min(TOP),
        };
        let defined = |p: usize| p < INPUTS || self.clauses.iter().any(|c| c.head == p);
        (0..self.preds.len())
            .filter(|&p| allowed(self.preds[p].level) && defined(p))
            .collect()
    }

    fn literal(&mut self) {
        let strict = self.readable(true);
        let ids = self.fragment.ids != Ids::Off && !strict.is_empty();
        match self.below(8) {
            2 | 3 if !strict.is_empty() => {
                let pred = pick(self.rng, &strict);
                self.atom("not ", pred, false, None);
            }
            4 | 5 if ids => {
                let base = pick(self.rng, &strict);
                self.id_literal(base);
            }
            6 | 7 => self.builtin(),
            _ => {
                let reads = self.readable(false);
                let pred = pick(self.rng, &reads);
                self.atom("", pred, true, None);
            }
        }
    }

    fn fresh(&mut self, s: Sort) -> Tok {
        self.vars.push(s);
        Tok::Var(self.vars.len() - 1)
    }

    /// A bound variable of sort `s`, if there is one: half the time the
    /// newest, so that a builtin's output often reaches the head.
    fn pooled(&mut self, s: Sort) -> Option<Tok> {
        let of: Vec<usize> = (self.pool.iter().copied())
            .filter(|&v| self.vars[v] == s)
            .collect();
        let newest = of.iter().max().copied().filter(|_| self.below(2) == 0);
        newest
            .or_else(|| (!of.is_empty()).then(|| pick(self.rng, &of)))
            .map(Tok::Var)
    }

    /// A term that reads only what is bound: mostly a bound variable.
    fn read(&mut self, s: Sort) -> Tok {
        match self.pooled(s) {
            Some(v) if self.below(8) != 0 => v,
            _ => constant(self.rng, s),
        }
    }

    /// A term for a position that binds: a constant, a bound variable or a
    /// fresh one, which the caller pools.
    fn bind(&mut self, s: Sort) -> Tok {
        match (self.below(8), self.pooled(s)) {
            (0, _) => constant(self.rng, s),
            (1..=3, Some(v)) => v,
            _ => self.fresh(s),
        }
    }

    fn atom(&mut self, not: &str, pred: usize, binds: bool, constant_at: Option<usize>) {
        let known = self.vars.len();
        let sorts = self.preds[pred].sorts.clone();
        let args: Vec<Tok> = (sorts.into_iter().enumerate())
            .map(|(i, s)| match () {
                _ if constant_at == Some(i) => constant(self.rng, s),
                _ if binds => self.bind(s),
                _ => self.read(s),
            })
            .collect();
        self.pool.extend(known..self.vars.len());
        let name = format!("{not}{}", self.preds[pred].name);
        self.body.push(atom(&name, pred, args));
    }

    fn id_literal(&mut self, base: usize) {
        let ids = self.fragment.ids;
        let sorts = self.preds[base].sorts.clone();
        let grouping: Vec<usize> = (0..sorts.len()).filter(|_| self.below(2) == 0).collect();
        let negated = ids == Ids::Any && self.below(4) == 0;
        // A choice-free occurrence reads each non-grouping column into a
        // variable used nowhere else, unless every column groups.
        let single_use = ids == Ids::ChoiceFree && grouping.len() < sorts.len();
        let known = self.vars.len();
        let mut private = Vec::new();
        let mut args: Vec<Tok> = (sorts.iter().enumerate())
            .map(|(i, &s)| match () {
                _ if negated => self.read(s),
                _ if single_use && !grouping.contains(&i) => {
                    private.push(self.vars.len());
                    self.fresh(s)
                }
                _ => self.bind(s),
            })
            .collect();
        let mut constraints = Vec::new();
        args.push(if negated {
            self.read(Sort::I)
        } else if self.below(3) == 0 {
            constant(self.rng, Sort::I)
        } else {
            // Only under `Ids::Any` may the tid leak into later literals.
            let leaking = ids == Ids::Any;
            if !leaking {
                private.push(self.vars.len());
            }
            let t = self.fresh(Sort::I);
            for _ in 0..if leaking { self.below(3) } else { 1 } {
                constraints.push(self.tid_constraint(t.clone(), leaking));
            }
            t
        });
        let g: Vec<String> = grouping.iter().map(|i| (i + 1).to_string()).collect();
        let not = if negated { "not " } else { "" };
        let name = format!("{not}{}[{}]", self.preds[base].name, g.join(", "));
        let lit = atom(&name, base, args);
        self.pool
            .extend((known..self.vars.len()).filter(|v| !private.contains(v)));
        self.body.push(lit);
        self.body.extend(constraints);
    }

    /// A builtin over the tid variable `t`: one that bounds it, or with
    /// `leaking`, also one that reads it without bounding it.
    fn tid_constraint(&mut self, t: Tok, leaking: bool) -> Lit {
        let k = Tok::Int(self.below(INTS) as u64);
        let toks = match self.below(if leaking { 12 } else { 6 }) {
            0 => infix(t, "<", k),
            1 => infix(t, "<=", k),
            2 => infix(t, "=", k),
            3 => infix(k, ">", t),
            4 => infix(k, ">=", t),
            5 => infix(k, "=", t),
            6 => infix(t, ">=", k),
            7 => infix(t, ">", k),
            8 => call("succ", [t, k]),
            9 => infix(t, "<", self.read(Sort::I)),
            10 => infix(t.clone(), "=", t),
            _ => call("plus", [t, k.clone(), k]),
        };
        Lit {
            pred: None,
            toks,
            miss: None,
        }
    }

    /// `builtin, v < k`, or half the time `builtin, a < k, b < k` on each
    /// variable input instead: the guards that keep a growing value
    /// finite. They follow the builtin's `)`, where [`Program::unguarded`]
    /// cuts them off.
    fn guarded(&mut self, mut toks: Vec<Tok>, v: Tok, inputs: &[Tok], k: Tok) -> Vec<Tok> {
        let capped = match self.below(2) {
            0 => vec![v],
            _ => inputs
                .iter()
                .filter(|t| matches!(t, Tok::Var(_)))
                .cloned()
                .collect(),
        };
        for t in capped {
            toks.push(Tok::Text(", ".into()));
            toks.extend(infix(t, "<", k.clone()));
        }
        toks
    }

    /// A builtin in a mode its bound arguments allow.
    fn builtin(&mut self) {
        let known = self.vars.len();
        let int = self.pooled(Sort::I);
        let any = (!self.pool.is_empty()).then(|| pick(self.rng, &self.pool));
        let k = Tok::Int(self.below(INTS) as u64 + 1);
        let i = Sort::I;
        let toks = match (self.below(8), int, any) {
            (1, _, Some(a)) => {
                let v = self.fresh(self.vars[a]);
                infix(Tok::Var(a), "=", v)
            }
            (2, _, Some(a)) => {
                let (op, b) = (pick(self.rng, &["=", "!="]), self.read(self.vars[a]));
                infix(Tok::Var(a), op, b)
            }
            (3, Some(a), _) => {
                let v = self.fresh(i);
                self.grown = Some(v.clone());
                self.guarded(call("succ", [a.clone(), v.clone()]), v, &[a], k)
            }
            (4, Some(a), _) => call("succ", [self.fresh(i), a]),
            (5, Some(a), _) => {
                let (b, v) = (self.read(i), self.fresh(i));
                self.grown = Some(v.clone());
                let toks = call("plus", [a.clone(), b.clone(), v.clone()]);
                self.guarded(toks, v, &[a, b], k)
            }
            (6, Some(a), _) => call("plus", [a, self.fresh(i), self.read(i)]),
            (7, Some(a), _) => {
                let (op, b) = (pick(self.rng, &["<", "<=", ">", ">="]), self.read(i));
                infix(a, op, b)
            }
            _ => infix(self.fresh(i), "<", k),
        };
        self.pool.extend(known..self.vars.len());
        self.body.push(Lit {
            pred: None,
            toks,
            miss: None,
        });
    }

    /// Close a recursion through a growing builtin (see
    /// [`Fragment::growth`]) over derived predicates' integer columns; a
    /// second predicate is one at the same level, so the recursion
    /// stratifies.
    fn growth(&mut self) {
        let int_col = |p: &Pred| p.sorts.iter().position(|&s| s == Sort::I);
        let cols: Vec<(usize, usize)> = (INPUTS..S)
            .filter_map(|p| Some((p, int_col(&self.preds[p])?)))
            .collect();
        if cols.is_empty() {
            return;
        }
        let p = pick(self.rng, &cols);
        let level = |(q, _): (usize, usize)| self.preds[q].level;
        let peers: Vec<_> = (cols.iter().copied())
            .filter(|&r| r != p && level(r) == level(p))
            .collect();
        match self.below(3) {
            1 if !peers.is_empty() => {
                let r = pick(self.rng, &peers);
                self.grow(r, r, None);
                self.grow(p, p, Some(r));
            }
            2 if !peers.is_empty() => {
                let r = pick(self.rng, &peers);
                self.grow(p, r, None);
                self.grow(r, p, None);
            }
            _ => self.grow(p, p, None),
        }
    }

    /// `head(…, V, …) :- from(…, A, …), succ(A, V), cap.`: or `plus(A, k,
    /// V)`, or with `by`, `by(…, B, …), plus(A, B, V)`. Each pair names a
    /// predicate and its integer column.
    fn grow(&mut self, head: (usize, usize), from: (usize, usize), by: Option<(usize, usize)>) {
        self.level = self.preds[head.0].level;
        self.pool.clear();
        let a = self.column_atom(from);
        let b = match by {
            Some(by) => Some(self.column_atom(by)),
            None if self.below(2) == 0 => Some(Tok::Int(self.below(INTS) as u64 + 1)),
            None => None,
        };
        let v = self.fresh(Sort::I);
        let inputs: Vec<Tok> = [Some(a), b].into_iter().flatten().collect();
        let name = if inputs.len() == 1 { "succ" } else { "plus" };
        let mut toks = call(name, inputs.iter().cloned().chain([v.clone()]));
        let sorts = self.preds[head.0].sorts.clone();
        let args: Vec<Tok> = (sorts.into_iter().enumerate())
            .map(|(i, s)| if i == head.1 { v.clone() } else { self.read(s) })
            .collect();
        let head_atom = atom(&self.preds[head.0].name, head.0, args);
        let vars: Vec<Tok> = inputs
            .into_iter()
            .filter(|t| matches!(t, Tok::Var(_)))
            .collect();
        let k = Tok::Int(self.below(INTS) as u64 + 1);
        let capped = match self.below(2) {
            0 => vec![v.clone()],
            _ => vars.clone(),
        };
        for t in capped {
            let (op, mirrored) = pick(self.rng, &[("<", ">"), ("<=", ">="), ("=", "=")]);
            toks.push(Tok::Text(", ".into()));
            toks.extend(match self.below(2) {
                0 => infix(t, op, k.clone()),
                _ => infix(k.clone(), mirrored, t),
            });
        }
        let miss = self.near_miss(v, &vars, k, &head_atom);
        self.body.push(Lit {
            pred: None,
            toks,
            miss: Some(miss),
        });
        self.clauses.push(Clause {
            head: head.0,
            heads: vec![head_atom],
            body: std::mem::take(&mut self.body),
            vars: std::mem::take(&mut self.vars),
        });
    }

    /// A fresh sort-`i` variable read from column `col` of `pred`, in an
    /// atom whose other columns bind.
    fn column_atom(&mut self, (pred, col): (usize, usize)) -> Tok {
        let known = self.vars.len();
        let v = self.fresh(Sort::I);
        let sorts = self.preds[pred].sorts.clone();
        let args: Vec<Tok> = (sorts.into_iter().enumerate())
            .map(|(i, s)| if i == col { v.clone() } else { self.bind(s) })
            .collect();
        self.pool.extend(known..self.vars.len());
        self.body.push(atom(&self.preds[pred].name, pred, args));
        v
    }

    /// A cap of the growth to `v` from the variable inputs `vars` that the
    /// analysis must refuse.
    fn near_miss(&mut self, v: Tok, vars: &[Tok], k: Tok, head: &Lit) -> Miss {
        let guard = |toks: Vec<Tok>| -> Vec<Tok> {
            [Tok::Text(", ".into())].into_iter().chain(toks).collect()
        };
        let (guard, elsewhere) = match self.below(if vars.len() == 2 { 4 } else { 3 }) {
            // A cap by a variable.
            0 => (guard(infix(v, "<", vars[0].clone())), None),
            // A cap from below.
            1 => (
                guard(match self.below(4) {
                    0 => infix(v, ">", k),
                    1 => infix(v, ">=", k),
                    2 => infix(k, "<", v),
                    _ => infix(k, "<=", v),
                }),
                None,
            ),
            // A cap on one of `plus`'s two variable inputs.
            3 => (guard(infix(vars[self.below(2)].clone(), "<", k)), None),
            // A cap in another clause, on the head read back:
            // `p(…, V, …) :- p(…, V, …), V < k.`
            _ => {
                let cap = Lit {
                    pred: None,
                    toks: infix(v, "<", k),
                    miss: None,
                };
                let copy = Clause {
                    head: head.pred.expect("an atom"),
                    heads: vec![head.clone()],
                    body: vec![head.clone(), cap],
                    vars: self.vars.clone(),
                };
                (Vec::new(), Some(copy))
            }
        };
        Miss { guard, elsewhere }
    }
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[below(rng, from.len())]
}

fn constant(rng: &mut TestRng, s: Sort) -> Tok {
    match s {
        Sort::U => Tok::Text(format!("c{}", below(rng, SYMBOLS))),
        Sort::I => Tok::Int(below(rng, INTS) as u64),
    }
}

/// `name(args)`.
fn call(name: &str, args: impl IntoIterator<Item = Tok>) -> Vec<Tok> {
    let mut toks = vec![Tok::Text(format!("{name}("))];
    for (i, arg) in args.into_iter().enumerate() {
        if i > 0 {
            toks.push(Tok::Text(", ".into()));
        }
        toks.push(arg);
    }
    toks.push(Tok::Text(")".into()));
    toks
}

fn infix(a: Tok, op: &str, b: Tok) -> Vec<Tok> {
    vec![a, Tok::Text(format!(" {op} ")), b]
}

/// An atom over `pred`, `name` its spelling (`not p`, `p[1]`, …).
fn atom(name: &str, pred: usize, args: impl IntoIterator<Item = Tok>) -> Lit {
    let toks = call(name, args);
    let pred = Some(pred);
    Lit {
        pred,
        toks,
        miss: None,
    }
}

impl Program {
    /// The facts file for the input predicates.
    pub fn facts(&self) -> String {
        self.facts.iter().map(|f| format!("{f}.\n")).collect()
    }

    /// The predicate a query asks for: `q` for a point query, otherwise
    /// the head of the first clause at the highest level.
    pub fn output(&self) -> &str {
        let top = (self.clauses.iter().map(|c| c.head))
            .min_by_key(|&p| std::cmp::Reverse(self.preds[p].level));
        top.map_or("p0", |p| &self.preds[p].name)
    }

    /// Every derived predicate's name.
    pub fn derived(&self) -> impl Iterator<Item = &str> {
        let derived = self.preds.iter().filter(|p| p.level > 0);
        derived.map(|p| p.name.as_str())
    }

    /// This program made invalid on purpose, for a property that must also
    /// see programs the validator refuses. One time in four a clause gains
    /// a second head atom (`h(…) & p(…) :- …`). Otherwise a clause of `h`
    /// picks a predicate `p` that `h` depends on (`h` itself included), and
    /// a clause of `p` gains `not h(…)` or `h[g](…, c)`: a strict edge
    /// that closes a cycle, so the program does not stratify. One such
    /// ID-literal in three has a symbolic tid. The mutation is a function
    /// of the program and its seed.
    pub fn mutant(&self) -> Program {
        let mut p = self.clone();
        let rng = &mut TestRng::for_case("mutant", self.seed as u32);
        let n = p.clauses.len();
        if n == 0 {
            return p;
        }
        let h = p.clauses[below(rng, n)].head;
        let second_head = rng.below(4) == 0;
        let (target, pred) = if second_head {
            (below(rng, n), INPUTS + below(rng, DERIVED))
        } else {
            let (mut deps, mut i) = (vec![h], 0);
            while let Some(&d) = deps.get(i) {
                i += 1;
                let of = p.clauses.iter().filter(|c| c.head == d);
                for r in of.flat_map(|c| c.body.iter().filter_map(|l| l.pred)) {
                    if !deps.contains(&r) {
                        deps.push(r);
                    }
                }
            }
            let of: Vec<usize> = (0..n)
                .filter(|&i| deps.contains(&p.clauses[i].head))
                .collect();
            (pick(rng, &of), h)
        };
        let clause = &mut p.clauses[target];
        let args: Vec<Tok> = (p.preds[pred].sorts.iter())
            .map(|&s| {
                let of: Vec<usize> = (0..clause.vars.len())
                    .filter(|&v| clause.vars[v] == s)
                    .collect();
                match of.is_empty() {
                    true => constant(rng, s),
                    false => Tok::Var(pick(rng, &of)),
                }
            })
            .collect();
        let name = &p.preds[pred].name;
        if second_head {
            clause.heads.push(atom(name, pred, args));
        } else if rng.below(2) == 0 {
            clause.body.push(atom(&format!("not {name}"), pred, args));
        } else {
            let arity = p.preds[pred].sorts.len();
            let g: Vec<String> = (1..=arity)
                .filter(|_| rng.below(2) == 0)
                .map(|i| i.to_string())
                .collect();
            let tid = match rng.below(3) {
                0 => Tok::Text("c0".into()),
                _ => constant(rng, Sort::I),
            };
            let args = args.into_iter().chain([tid]);
            clause
                .body
                .push(atom(&format!("{name}[{}]", g.join(", ")), pred, args));
        }
        p
    }

    /// This program with every growth guard dropped: `succ(A, V), V < k`
    /// and `succ(A, V), A < k` become `succ(A, V)`. It stays valid, but a
    /// recursion through `V` may now diverge, as a termination analysis
    /// must see.
    pub fn unguarded(&self) -> Program {
        let mut p = self.clone();
        for lit in p.clauses.iter_mut().flat_map(|c| &mut c.body) {
            if lit.pred.is_none() {
                unguard(&mut lit.toks);
            }
        }
        p
    }

    /// Per growth of [`Fragment::growth`], two copies of this program:
    /// one with that growth's cap swapped for its near miss, and one with
    /// the cap dropped. Every other cap stays. Both stay valid, and a
    /// termination analysis must refuse the first exactly when it refuses
    /// the second: on a drawn program, always.
    pub fn near_misses(&self) -> Vec<(Program, Program)> {
        let mut out = Vec::new();
        for (i, c) in self.clauses.iter().enumerate() {
            for (j, lit) in c.body.iter().enumerate() {
                let Some(miss) = &lit.miss else { continue };
                let mut dropped = self.clone();
                unguard(&mut dropped.clauses[i].body[j].toks);
                let mut p = dropped.clone();
                p.clauses[i].body[j].toks.extend(miss.guard.iter().cloned());
                p.clauses.extend(miss.elsewhere.clone());
                out.push((p, dropped));
            }
        }
        out
    }

    /// One-step-smaller candidates, in shrink order.
    fn smaller(&self) -> Vec<Program> {
        let mut out = Vec::new();
        let mut with = |change: &dyn Fn(&mut Program)| {
            let mut p = self.clone();
            change(&mut p);
            out.push(p);
        };
        for i in 0..self.clauses.len() {
            with(&|p| drop(p.clauses.remove(i)));
        }
        for (i, c) in self.clauses.iter().enumerate() {
            for j in 0..c.body.len() {
                with(&|p| drop(p.clauses[i].body.remove(j)));
            }
        }
        for i in 0..self.facts.len() {
            with(&|p| drop(p.facts.remove(i)));
        }
        let ints: Vec<u64> = self.clone().ints().map(|n| *n).collect();
        for (i, _) in ints.into_iter().enumerate().filter(|&(_, n)| n > 0) {
            with(&|p| *p.ints().nth(i).expect("the same constants") -= 1);
        }
        out
    }

    /// Every integer constant: in clauses, guards and facts.
    fn ints(&mut self) -> impl Iterator<Item = &mut u64> {
        let clauses = self.clauses.iter_mut();
        let lits = clauses.flat_map(|c| c.heads.iter_mut().chain(&mut c.body));
        let toks = lits.chain(&mut self.facts).flat_map(|l| &mut l.toks);
        toks.filter_map(|t| match t {
            Tok::Int(n) => Some(n),
            _ => None,
        })
    }
}

/// Cut a builtin's guards off after its `)`.
fn unguard(toks: &mut Vec<Tok>) {
    if let Some(close) = toks.iter().position(|t| *t == Tok::Text(")".into())) {
        toks.truncate(close + 1);
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.toks {
            match t {
                Tok::Text(s) => f.write_str(s)?,
                Tok::Var(v) if *v < NAMES.len() => f.write_str(NAMES[*v])?,
                Tok::Var(v) => write!(f, "X{v}")?,
                Tok::Int(n) => write!(f, "{n}")?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.clauses {
            let heads: Vec<String> = c.heads.iter().map(Lit::to_string).collect();
            let body: Vec<String> = c.body.iter().map(Lit::to_string).collect();
            let neck = if body.is_empty() { "" } else { " :- " };
            writeln!(f, "{}{neck}{}.", heads.join(" & "), body.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prop_assert;

    use super::*;
    use crate::reference::{self, Perms};

    /// The reference gives every drawn program a perfect model, and refuses
    /// every mutant: it does not stratify, or has a second head.
    #[test]
    fn programs_are_idlog_and_mutants_are_not() {
        for ids in [Ids::Off, Ids::ChoiceFree, Ids::Bounded, Ids::Any] {
            for (point_query, growth) in [(false, false), (true, false), (false, true)] {
                let fragment = Fragment {
                    ids,
                    point_query,
                    growth,
                };
                for case in 0..64 {
                    let p = fragment.program(&mut TestRng::for_case("gen", case));
                    let edb = reference::facts(&p.facts()).expect("facts parse");
                    let model = reference::perfect_model(&p.to_string(), &edb, &Perms::new());
                    assert!(model.is_ok(), "{model:?}\n{p}{}", p.facts());
                    let mutant = p.mutant().to_string();
                    assert!(reference::clauses(&mutant).is_ok(), "{mutant}");
                    let refused = reference::perfect_model(&mutant, &edb, &Perms::new());
                    assert!(refused.is_err(), "{mutant}");
                }
            }
        }
    }

    /// A failure shrinks to the one clause and literal that cause it.
    #[test]
    #[should_panic(expected = "shrunk to 1 clause(s), 1 literal(s), 0 fact(s)")]
    fn a_failure_shrinks_to_its_cause() {
        let any = Fragment {
            ids: Ids::Any,
            point_query: false,
            growth: false,
        };
        let source = |p: &Program| Ok::<_, String>(p.to_string());
        check("shrinks", 64, any, source, |_, src| {
            prop_assert!(!src.contains("not "), "a negation");
            Ok(())
        });
    }
}
