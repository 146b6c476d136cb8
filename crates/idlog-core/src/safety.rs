//! Safety checking and body-literal ordering.
//!
//! The paper (§2.2) requires every use of an arithmetic predicate to have "a
//! sufficient number of arguments positively bound": for `+` the allowed
//! bound/unbound patterns are exactly `bbb, bbn, bnb, nbb, nnb`. We implement
//! that discipline as *mode tables* ([`builtin_mode_ok`]) plus a backtracking
//! search for an evaluation order of the body in which every literal's mode
//! is satisfied when it runs, negations are fully bound, and all head
//! variables end up bound. The order found is also the join order the
//! planner executes, so safety checking and planning agree by construction.

use idlog_common::FxHashSet;
use idlog_parser::{Builtin, Clause, Literal, Term};

/// Is this builtin evaluable with the given argument boundness (`true` =
/// bound)? The tables admit exactly the patterns with finitely many
/// solutions over ℕ:
///
/// * `succ`: at least one side bound.
/// * `plus(A,B,C)`: two bound, or only `C` bound (`A+B=C` has `C+1` roots).
/// * `minus(A,B,C)` (`A−B=C`, i.e. `B+C=A`): two bound, or only `A` bound.
/// * `times`: two bound (`C` alone is unsafe: `0·B=0` has infinitely many `B`).
/// * `div(A,B,C)` (`B·C=A`, `B≠0`): `bbb`, `bbn`, `nbb` (`bnb`/`bnn` are
///   unsafe when `A=0`).
/// * `<`/`<=`: both bound, or left free with right bound (finite prefix of ℕ).
/// * `>`/`>=`: both bound, or right free with left bound.
/// * `=`: at least one side bound. `!=`: both bound.
pub fn builtin_mode_ok(op: Builtin, bound: &[bool]) -> bool {
    let n = bound.iter().filter(|&&b| b).count();
    match op {
        Builtin::Succ => n >= 1,
        Builtin::Plus => n >= 2 || bound == [false, false, true],
        Builtin::Minus => n >= 2 || bound == [true, false, false],
        Builtin::Times => n >= 2,
        Builtin::Div => {
            matches!(
                bound,
                [true, true, true] | [true, true, false] | [false, true, true]
            )
        }
        Builtin::Lt | Builtin::Le => bound[1],
        Builtin::Gt | Builtin::Ge => bound[0],
        Builtin::Eq => n >= 1,
        Builtin::Ne => n == 2,
    }
}

/// The allowed binding patterns of `op`'s mode-table row, paper §2.2 style
/// (`b` = bound, `n` = not bound).
pub fn allowed_modes(op: Builtin) -> &'static str {
    match op {
        Builtin::Succ => "bb, bn, nb",
        Builtin::Plus => "bbb, bbn, bnb, nbb, nnb",
        Builtin::Minus => "bbb, bbn, bnb, nbb, bnn",
        Builtin::Times => "bbb, bbn, bnb, nbb",
        Builtin::Div => "bbb, bbn, nbb",
        Builtin::Lt | Builtin::Le => "bb, nb",
        Builtin::Gt | Builtin::Ge => "bb, bn",
        Builtin::Eq => "bb, bn, nb",
        Builtin::Ne => "bb",
    }
}

/// Render a boundness pattern as a mode-table row, e.g. `bnn`.
pub fn mode_string(pattern: &[bool]) -> String {
    pattern.iter().map(|&b| if b { 'b' } else { 'n' }).collect()
}

/// Why one body literal cannot run given the variables bound so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StuckReason {
    /// A builtin whose binding pattern matches no row of its mode table.
    BuiltinMode {
        /// The arithmetic predicate.
        op: Builtin,
        /// Observed boundness per argument (`true` = bound).
        pattern: Vec<bool>,
    },
    /// A negated literal with variables bound nowhere else.
    UnboundNegation {
        /// The variables that never become bound.
        unbound: Vec<String>,
    },
    /// A choice literal with variables bound nowhere else.
    UnboundChoice {
        /// The variables that never become bound.
        unbound: Vec<String>,
    },
}

/// One structured safety violation in a clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyViolation {
    /// No complete safe order exists; the listed literals stay stuck after a
    /// maximal safe prefix has run.
    NoSafeOrder {
        /// `(body literal index, why it cannot run)` for each stuck literal.
        stuck: Vec<(usize, StuckReason)>,
    },
    /// A head variable not bound anywhere in the body.
    UnboundHeadVar {
        /// Head atom index.
        head: usize,
        /// The unbound variable.
        var: String,
    },
}

impl StuckReason {
    /// Human-readable explanation.
    pub fn message(&self) -> String {
        match self {
            StuckReason::BuiltinMode { op, pattern } => format!(
                "`{}` has binding pattern {} but its mode table allows only {}",
                op.name(),
                mode_string(pattern),
                allowed_modes(*op)
            ),
            StuckReason::UnboundNegation { unbound } => {
                format!("negated literal never gets {} bound", join_vars(unbound))
            }
            StuckReason::UnboundChoice { unbound } => {
                format!("choice literal never gets {} bound", join_vars(unbound))
            }
        }
    }
}

fn join_vars(vars: &[String]) -> String {
    let list = vars
        .iter()
        .map(|v| format!("`{v}`"))
        .collect::<Vec<_>>()
        .join(", ");
    if vars.len() == 1 {
        format!("variable {list}")
    } else {
        format!("variables {list}")
    }
}

impl SafetyViolation {
    /// The one-line headline `idlog lint` and the engine both report; the
    /// stuck literals' [`StuckReason::message`]s are its details.
    pub fn message(&self) -> String {
        match self {
            SafetyViolation::NoSafeOrder { .. } => {
                "no safe evaluation order exists for this clause body".into()
            }
            SafetyViolation::UnboundHeadVar { var, .. } => {
                format!("head variable {var} is not bound by the body")
            }
        }
    }
}

/// A safe evaluation order for one clause body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClauseOrder {
    /// Indices into `clause.body`, in execution order.
    pub order: Vec<usize>,
}

/// Check one clause completely, collecting every violation instead of
/// stopping at the first. On success returns the safe order found.
pub fn analyze_clause(clause: &Clause) -> Result<ClauseOrder, Vec<SafetyViolation>> {
    let body = &clause.body;
    let mut order = Vec::with_capacity(body.len());
    let mut used = vec![false; body.len()];
    let mut bound: FxHashSet<&str> = FxHashSet::default();

    if !search(body, &mut used, &mut bound, &mut order) {
        return Err(vec![SafetyViolation::NoSafeOrder {
            stuck: stuck_literals(body),
        }]);
    }

    // Every head variable must be bound by the body (or be a constant).
    let mut violations = Vec::new();
    for (hi, h) in clause.head.iter().enumerate() {
        for v in h.atom.variables() {
            if !bound.contains(v) {
                violations.push(SafetyViolation::UnboundHeadVar {
                    head: hi,
                    var: v.to_string(),
                });
            }
        }
    }
    if violations.is_empty() {
        Ok(ClauseOrder { order })
    } else {
        Err(violations)
    }
}

/// Run a greedy maximal safe prefix, then report why each leftover literal
/// is stuck. Used only after the backtracking search has failed, so the
/// leftovers are a genuine witness that no complete order exists.
fn stuck_literals(body: &[Literal]) -> Vec<(usize, StuckReason)> {
    let mut used = vec![false; body.len()];
    let mut bound: FxHashSet<&str> = FxHashSet::default();
    loop {
        let next = (0..body.len())
            .find(|&i| !used[i] && !matches!(eligibility(&body[i], &bound), Eligibility::No));
        match next {
            Some(i) => {
                used[i] = true;
                for v in body[i].variables() {
                    bound.insert(v);
                }
            }
            None => break,
        }
    }
    let unbound_of = |terms: &[Term], bound: &FxHashSet<&str>| -> Vec<String> {
        let mut seen = Vec::new();
        for t in terms {
            if let Term::Var(v) = t {
                if !bound.contains(v.as_str()) && !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
        }
        seen
    };
    let mut stuck = Vec::new();
    for (i, lit) in body.iter().enumerate() {
        if used[i] {
            continue;
        }
        let reason = match lit {
            Literal::Builtin { op, args } => StuckReason::BuiltinMode {
                op: *op,
                pattern: args.iter().map(|t| term_bound(t, &bound)).collect(),
            },
            Literal::Neg(a) => StuckReason::UnboundNegation {
                unbound: unbound_of(&a.terms, &bound),
            },
            Literal::Choice { grouped, chosen } => {
                let mut terms = grouped.clone();
                terms.extend(chosen.iter().cloned());
                StuckReason::UnboundChoice {
                    unbound: unbound_of(&terms, &bound),
                }
            }
            // Positive atoms and cut are always eligible, so they cannot be
            // stuck.
            Literal::Pos(_) | Literal::Cut => continue,
        };
        stuck.push((i, reason));
    }
    stuck
}

/// Depth-first search for a complete safe order. Preference at each step:
/// fully-bound filters first (cheap, shrink intermediate results), then
/// positive atoms (most-bound first), then generating builtins.
fn search<'a>(
    body: &'a [Literal],
    used: &mut [bool],
    bound: &mut FxHashSet<&'a str>,
    order: &mut Vec<usize>,
) -> bool {
    if order.len() == body.len() {
        return true;
    }
    let mut candidates: Vec<(u32, usize)> = Vec::new();
    for (i, lit) in body.iter().enumerate() {
        if used[i] {
            continue;
        }
        match eligibility(lit, bound) {
            Eligibility::No => {}
            Eligibility::Filter => candidates.push((0, i)),
            Eligibility::PosAtom { bound_positions } => {
                // Lower rank = tried earlier; more bound positions first.
                candidates.push((2 + (64 - bound_positions.min(64)) as u32, i))
            }
            Eligibility::Generator => candidates.push((100, i)),
        }
    }
    candidates.sort_unstable();
    for (_, i) in candidates {
        used[i] = true;
        order.push(i);
        let newly: Vec<&str> = body[i]
            .variables()
            .into_iter()
            .filter(|v| !bound.contains(*v))
            .collect();
        for v in &newly {
            bound.insert(v);
        }
        if search(body, used, bound, order) {
            return true;
        }
        for v in &newly {
            bound.remove(v);
        }
        order.pop();
        used[i] = false;
    }
    false
}

enum Eligibility {
    No,
    /// All variables already bound: a pure test.
    Filter,
    /// Positive atom; binds its variables.
    PosAtom {
        bound_positions: u64,
    },
    /// Builtin with a satisfied mode that still binds new variables.
    Generator,
}

fn eligibility(lit: &Literal, bound: &FxHashSet<&str>) -> Eligibility {
    let all_bound = |terms: &[Term]| terms.iter().all(|t| term_bound(t, bound));
    match lit {
        Literal::Pos(a) => {
            let bound_positions = a.terms.iter().filter(|t| term_bound(t, bound)).count() as u64;
            Eligibility::PosAtom { bound_positions }
        }
        Literal::Neg(a) => {
            if all_bound(&a.terms) {
                Eligibility::Filter
            } else {
                Eligibility::No
            }
        }
        Literal::Builtin { op, args } => {
            let pattern: Vec<bool> = args.iter().map(|t| term_bound(t, bound)).collect();
            if !builtin_mode_ok(*op, &pattern) {
                Eligibility::No
            } else if pattern.iter().all(|&b| b) {
                Eligibility::Filter
            } else {
                Eligibility::Generator
            }
        }
        Literal::Cut => Eligibility::Filter,
        Literal::Choice { grouped, chosen } => {
            // KN88 requires choice variables to occur in ordinary body
            // literals; by the time all other literals ran they are bound.
            if all_bound(grouped) && all_bound(chosen) {
                Eligibility::Filter
            } else {
                Eligibility::No
            }
        }
    }
}

fn term_bound(t: &Term, bound: &FxHashSet<&str>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v.as_str()),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;
    use idlog_parser::parse_clause;

    fn order_src(src: &str) -> Result<ClauseOrder, Vec<SafetyViolation>> {
        let i = Interner::new();
        let c = parse_clause(src, &i).unwrap();
        analyze_clause(&c)
    }

    #[test]
    fn paper_plus_mode_table() {
        use Builtin::Plus;
        // Paper §2.2: allowed are bbb, bbn, bnb, nbb, nnb.
        assert!(builtin_mode_ok(Plus, &[true, true, true]));
        assert!(builtin_mode_ok(Plus, &[true, true, false]));
        assert!(builtin_mode_ok(Plus, &[true, false, true]));
        assert!(builtin_mode_ok(Plus, &[false, true, true]));
        assert!(builtin_mode_ok(Plus, &[false, false, true]));
        assert!(!builtin_mode_ok(Plus, &[true, false, false]));
        assert!(!builtin_mode_ok(Plus, &[false, true, false]));
        assert!(!builtin_mode_ok(Plus, &[false, false, false]));
    }

    #[test]
    fn paper_example_p1_is_unsafe_p2_is_safe() {
        // Paper §2.2: p1(X,N) :- q(X,N), plus(N,L,M) is NOT allowed
        // (1 + L = M has infinitely many solutions), while
        // p2(X,N) :- q(X,N), plus(L,M,N) IS allowed.
        assert!(order_src("p1(X, N) :- q(X, N), plus(N, L, M).").is_err());
        let ord = order_src("p2(X, N) :- q(X, N), plus(L, M, N).").unwrap();
        assert_eq!(ord.order, vec![0, 1]);
    }

    #[test]
    fn filters_run_before_atoms_when_possible() {
        let ord = order_src("p(X) :- q(X), r(X), X != a.").unwrap();
        // q binds X; then the filter X != a runs before the second atom.
        assert_eq!(ord.order[0], 0);
        assert_eq!(ord.order[1], 2);
        assert_eq!(ord.order[2], 1);
    }

    #[test]
    fn negation_needs_bound_vars() {
        assert!(order_src("p(X) :- q(X), not r(X).").is_ok());
        assert!(order_src("p(X) :- q(X), not r(Y).").is_err());
    }

    #[test]
    fn unbound_head_variable_is_unsafe() {
        let err = order_src("p(X, Y) :- q(X).").unwrap_err();
        let [v @ SafetyViolation::UnboundHeadVar { var, .. }] = &err[..] else {
            panic!("expected an unbound head variable, got {err:?}");
        };
        assert_eq!(var, "Y");
        assert!(v.message().contains('Y'), "{}", v.message());
    }

    #[test]
    fn builtin_chain_is_ordered() {
        // succ needs one side bound; plus nnb generates; order must be
        // q, plus (nnb via N), succ.
        let ord = order_src("p(L) :- q(N), plus(L, M, N), succ(M, K), K < 10.").unwrap();
        assert_eq!(ord.order[0], 0);
        assert_eq!(ord.order[1], 1);
    }

    #[test]
    fn comparison_half_modes() {
        assert!(builtin_mode_ok(Builtin::Lt, &[false, true]));
        assert!(!builtin_mode_ok(Builtin::Lt, &[true, false]));
        assert!(builtin_mode_ok(Builtin::Gt, &[true, false]));
        assert!(!builtin_mode_ok(Builtin::Gt, &[false, true]));
        assert!(builtin_mode_ok(Builtin::Eq, &[false, true]));
        assert!(!builtin_mode_ok(Builtin::Ne, &[false, true]));
    }

    #[test]
    fn tid_comparison_clause_orders() {
        // The paper's sampling clause: emp[2] binds N, D, T; then T < 2.
        let ord = order_src("two(N) :- emp[2](N, D, T), T < 2.").unwrap();
        assert_eq!(ord.order, vec![0, 1]);
    }

    #[test]
    fn generator_lt_binds_variable() {
        // N < 3 with N free and 3 bound: generates N ∈ {0,1,2}.
        let ord = order_src("p(N) :- N < 3.").unwrap();
        assert_eq!(ord.order, vec![0]);
    }

    #[test]
    fn analyze_collects_every_unbound_head_var() {
        let i = Interner::new();
        let c = parse_clause("p(X, Y, Z) :- q(X).", &i).unwrap();
        let violations = analyze_clause(&c).unwrap_err();
        assert_eq!(violations.len(), 2);
        assert!(violations
            .iter()
            .all(|v| matches!(v, SafetyViolation::UnboundHeadVar { .. })));
    }

    #[test]
    fn stuck_builtin_reports_pattern_and_mode_row() {
        let i = Interner::new();
        let c = parse_clause("p1(X, N) :- q(X, N), plus(N, L, M).", &i).unwrap();
        let violations = analyze_clause(&c).unwrap_err();
        let [SafetyViolation::NoSafeOrder { stuck }] = &violations[..] else {
            panic!("expected NoSafeOrder, got {violations:?}");
        };
        let [(1, StuckReason::BuiltinMode { op, pattern })] = &stuck[..] else {
            panic!("expected one stuck builtin, got {stuck:?}");
        };
        assert_eq!(*op, Builtin::Plus);
        assert_eq!(pattern, &vec![true, false, false]);
        let msg = stuck[0].1.message();
        assert!(msg.contains("bnn"), "{msg}");
        assert!(msg.contains("nnb"), "{msg}");
    }

    #[test]
    fn stuck_negation_names_the_unbound_variable() {
        let i = Interner::new();
        let c = parse_clause("p(X) :- q(X), not r(Y).", &i).unwrap();
        let violations = analyze_clause(&c).unwrap_err();
        let [SafetyViolation::NoSafeOrder { stuck }] = &violations[..] else {
            panic!("{violations:?}");
        };
        let [(1, StuckReason::UnboundNegation { unbound })] = &stuck[..] else {
            panic!("{stuck:?}");
        };
        assert_eq!(unbound, &vec!["Y".to_string()]);
    }

    #[test]
    fn choice_literal_is_a_filter() {
        let ord = order_src("s(N) :- emp(N, D), choice((D), (N)).").unwrap();
        assert_eq!(ord.order, vec![0, 1]);
        // Choice with a variable bound nowhere else is unsafe.
        assert!(order_src("s(N) :- emp(N, D), choice((D), (Z)).").is_err());
    }
}
