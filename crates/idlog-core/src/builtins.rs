//! Runtime evaluation of arithmetic predicates.
//!
//! [`solve`] takes a builtin and its arguments with the bound ones filled in,
//! and returns every argument vector consistent with them. The static mode
//! tables in [`crate::safety`] guarantee the solution set is finite except
//! for two `times`/`div` corner cases involving zero, which surface as
//! runtime [`CoreError::Eval`] errors.
//!
//! All arithmetic is over ℕ (the paper's interpreted domain): subtraction and
//! division are partial, and overflow is an error rather than a wrap.

use idlog_common::Value;
use idlog_parser::Builtin;

use crate::error::{CoreError, CoreResult};

/// Solutions of one builtin instance: full argument vectors.
pub type Solutions = Vec<Vec<i64>>;

fn overflow() -> CoreError {
    CoreError::Eval {
        message: "arithmetic overflow".into(),
    }
}

fn infinite(op: Builtin) -> CoreError {
    CoreError::Eval {
        message: format!("{} instance has infinitely many solutions", op.name()),
    }
}

/// Solve `op(args…)` where `None` marks an unbound argument. Bound arguments
/// are the payloads of sort-`i` values ([`idlog_common::Nat::get`]), so
/// naturals; every solution is a vector of naturals too (`=`/`!=` compare
/// any sort — use [`eq_check`] for those).
pub fn solve(op: Builtin, args: &[Option<i64>]) -> CoreResult<Solutions> {
    debug_assert_eq!(args.len(), op.arity());
    debug_assert!(args.iter().flatten().all(|&n| n >= 0), "{args:?}");
    let sols = match op {
        Builtin::Succ => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(b == a + 1, vec![a, b]),
            (Some(a), None) => vec![vec![a, a.checked_add(1).ok_or_else(overflow)?]],
            (None, Some(b)) => {
                if b >= 1 {
                    vec![vec![b - 1, b]]
                } else {
                    vec![]
                }
            }
            (None, None) => return Err(infinite(op)),
        },
        Builtin::Plus => solve_plus(args)?,
        Builtin::Minus => {
            // A − B = C over ℕ ⇔ B + C = A.
            let flipped = [args[1], args[2], args[0]];
            solve_plus(&flipped)?
                .into_iter()
                .map(|s| vec![s[2], s[0], s[1]])
                .collect()
        }
        Builtin::Times => match (args[0], args[1], args[2]) {
            (Some(a), Some(b), Some(c)) => {
                check(a.checked_mul(b).ok_or_else(overflow)? == c, vec![a, b, c])
            }
            (Some(a), Some(b), None) => {
                vec![vec![a, b, a.checked_mul(b).ok_or_else(overflow)?]]
            }
            (Some(a), None, Some(c)) => {
                if a == 0 {
                    if c == 0 {
                        return Err(infinite(op));
                    }
                    vec![]
                } else if c % a == 0 {
                    vec![vec![a, c / a, c]]
                } else {
                    vec![]
                }
            }
            (None, Some(b), Some(c)) => {
                if b == 0 {
                    if c == 0 {
                        return Err(infinite(op));
                    }
                    vec![]
                } else if c % b == 0 {
                    vec![vec![c / b, b, c]]
                } else {
                    vec![]
                }
            }
            _ => return Err(infinite(op)),
        },
        Builtin::Div => match (args[0], args[1], args[2]) {
            // div(A,B,C) ⇔ B ≠ 0 ∧ B·C = A (exact division).
            (Some(a), Some(b), Some(c)) => check(
                b != 0 && b.checked_mul(c).ok_or_else(overflow)? == a,
                vec![a, b, c],
            ),
            (Some(a), Some(b), None) => {
                if b != 0 && a % b == 0 {
                    vec![vec![a, b, a / b]]
                } else {
                    vec![]
                }
            }
            (None, Some(b), Some(c)) => {
                if b == 0 {
                    vec![]
                } else {
                    vec![vec![b.checked_mul(c).ok_or_else(overflow)?, b, c]]
                }
            }
            _ => return Err(infinite(op)),
        },
        Builtin::Lt => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(a < b, vec![a, b]),
            (None, Some(b)) => (0..b).map(|a| vec![a, b]).collect(),
            _ => return Err(infinite(op)),
        },
        Builtin::Le => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(a <= b, vec![a, b]),
            (None, Some(b)) => (0..=b).map(|a| vec![a, b]).collect(),
            _ => return Err(infinite(op)),
        },
        Builtin::Gt => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(a > b, vec![a, b]),
            (Some(a), None) => (0..a).map(|b| vec![a, b]).collect(),
            _ => return Err(infinite(op)),
        },
        Builtin::Ge => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(a >= b, vec![a, b]),
            (Some(a), None) => (0..=a).map(|b| vec![a, b]).collect(),
            _ => return Err(infinite(op)),
        },
        Builtin::Eq => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(a == b, vec![a, b]),
            (Some(a), None) => vec![vec![a, a]],
            (None, Some(b)) => vec![vec![b, b]],
            (None, None) => return Err(infinite(op)),
        },
        Builtin::Ne => match (args[0], args[1]) {
            (Some(a), Some(b)) => check(a != b, vec![a, b]),
            _ => return Err(infinite(op)),
        },
    };
    Ok(sols)
}

fn solve_plus(args: &[Option<i64>]) -> CoreResult<Solutions> {
    Ok(match (args[0], args[1], args[2]) {
        (Some(a), Some(b), Some(c)) => {
            check(a.checked_add(b).ok_or_else(overflow)? == c, vec![a, b, c])
        }
        (Some(a), Some(b), None) => vec![vec![a, b, a.checked_add(b).ok_or_else(overflow)?]],
        (Some(a), None, Some(c)) => {
            if c >= a {
                vec![vec![a, c - a, c]]
            } else {
                vec![]
            }
        }
        (None, Some(b), Some(c)) => {
            if c >= b {
                vec![vec![c - b, b, c]]
            } else {
                vec![]
            }
        }
        (None, None, Some(c)) => (0..=c).map(|a| vec![a, c - a, c]).collect(),
        _ => return Err(infinite(Builtin::Plus)),
    })
}

fn check(ok: bool, sol: Vec<i64>) -> Solutions {
    if ok {
        vec![sol]
    } else {
        vec![]
    }
}

/// `=`/`!=` over values of either sort, fully bound.
pub fn eq_check(op: Builtin, a: Value, b: Value) -> bool {
    match op {
        Builtin::Eq => a == b,
        Builtin::Ne => a != b,
        _ => unreachable!("eq_check is only for =/!="),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(op: Builtin, args: &[Option<i64>]) -> Solutions {
        solve(op, args).unwrap()
    }

    #[test]
    fn succ_modes() {
        assert_eq!(s(Builtin::Succ, &[Some(2), Some(3)]), vec![vec![2, 3]]);
        assert!(s(Builtin::Succ, &[Some(2), Some(4)]).is_empty());
        assert_eq!(s(Builtin::Succ, &[Some(2), None]), vec![vec![2, 3]]);
        assert_eq!(s(Builtin::Succ, &[None, Some(3)]), vec![vec![2, 3]]);
        assert!(s(Builtin::Succ, &[None, Some(0)]).is_empty());
    }

    #[test]
    fn plus_nnb_enumerates_paper_case() {
        // Paper: L + M = 1 has finitely many solutions (two).
        let sols = s(Builtin::Plus, &[None, None, Some(1)]);
        assert_eq!(sols, vec![vec![0, 1, 1], vec![1, 0, 1]]);
    }

    #[test]
    fn plus_partial_modes() {
        assert_eq!(
            s(Builtin::Plus, &[Some(2), None, Some(5)]),
            vec![vec![2, 3, 5]]
        );
        assert!(s(Builtin::Plus, &[Some(7), None, Some(5)]).is_empty());
        assert_eq!(
            s(Builtin::Plus, &[None, Some(2), Some(5)]),
            vec![vec![3, 2, 5]]
        );
    }

    #[test]
    fn minus_is_partial_over_naturals() {
        assert_eq!(
            s(Builtin::Minus, &[Some(5), Some(2), None]),
            vec![vec![5, 2, 3]]
        );
        assert!(s(Builtin::Minus, &[Some(2), Some(5), None]).is_empty());
        // bnn: 3 − B = C enumerates B ∈ 0..=3.
        let sols = s(Builtin::Minus, &[Some(3), None, None]);
        assert_eq!(sols.len(), 4);
        assert!(sols.contains(&vec![3, 0, 3]));
        assert!(sols.contains(&vec![3, 3, 0]));
    }

    #[test]
    fn times_divisibility() {
        assert_eq!(
            s(Builtin::Times, &[Some(3), None, Some(12)]),
            vec![vec![3, 4, 12]]
        );
        assert!(s(Builtin::Times, &[Some(3), None, Some(13)]).is_empty());
        assert!(s(Builtin::Times, &[Some(0), None, Some(5)]).is_empty());
        assert!(solve(Builtin::Times, &[Some(0), None, Some(0)]).is_err());
    }

    #[test]
    fn div_exact() {
        assert_eq!(
            s(Builtin::Div, &[Some(12), Some(3), None]),
            vec![vec![12, 3, 4]]
        );
        assert!(s(Builtin::Div, &[Some(13), Some(3), None]).is_empty());
        assert!(s(Builtin::Div, &[Some(12), Some(0), None]).is_empty());
        assert_eq!(
            s(Builtin::Div, &[None, Some(3), Some(4)]),
            vec![vec![12, 3, 4]]
        );
        assert!(s(Builtin::Div, &[Some(12), Some(3), Some(4)]) == vec![vec![12, 3, 4]]);
    }

    #[test]
    fn comparisons_generate_finite_prefixes() {
        assert_eq!(
            s(Builtin::Lt, &[None, Some(3)]),
            vec![vec![0, 3], vec![1, 3], vec![2, 3]]
        );
        assert_eq!(
            s(Builtin::Le, &[None, Some(1)]),
            vec![vec![0, 1], vec![1, 1]]
        );
        assert_eq!(
            s(Builtin::Gt, &[Some(2), None]),
            vec![vec![2, 0], vec![2, 1]]
        );
        assert_eq!(
            s(Builtin::Ge, &[Some(1), None]),
            vec![vec![1, 0], vec![1, 1]]
        );
    }

    #[test]
    fn eq_assignment_and_ne_check() {
        assert_eq!(s(Builtin::Eq, &[Some(4), None]), vec![vec![4, 4]]);
        assert_eq!(s(Builtin::Ne, &[Some(4), Some(4)]), Vec::<Vec<i64>>::new());
        assert_eq!(s(Builtin::Ne, &[Some(4), Some(5)]), vec![vec![4, 5]]);
    }

    #[test]
    fn overflow_is_an_error() {
        assert!(solve(Builtin::Succ, &[Some(i64::MAX), None]).is_err());
        assert!(solve(Builtin::Times, &[Some(i64::MAX), Some(2), None]).is_err());
    }

    #[test]
    fn eq_check_on_values() {
        use idlog_common::{Interner, Nat};
        let i = Interner::new();
        let a = Value::Sym(i.intern("a"));
        let b = Value::Sym(i.intern("b"));
        assert!(eq_check(Builtin::Eq, a, a));
        assert!(eq_check(Builtin::Ne, a, b));
        assert!(!eq_check(Builtin::Eq, a, Value::Int(Nat::new(1).unwrap())));
    }
}
