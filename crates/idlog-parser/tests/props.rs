//! Property-based tests: printing a generated AST and re-parsing it yields
//! the same AST (the printer and parser are mutually inverse on the AST's
//! image), across all language constructs.

use proptest::prelude::*;

use idlog_common::{Interner, Nat};
use idlog_parser::{parse_clause, Atom, Builtin, Clause, HeadAtom, Literal, Term};

/// Variable names V0..V5, constants c0..c5, small ints.
fn arb_term() -> impl Strategy<Value = TermSpec> {
    prop_oneof![
        (0usize..6).prop_map(TermSpec::Var),
        (0usize..6).prop_map(TermSpec::Sym),
        (0i64..10).prop_map(TermSpec::Int),
    ]
}

/// Terms are generated as specs and reified against one interner per case.
#[derive(Clone, Debug)]
enum TermSpec {
    Var(usize),
    Sym(usize),
    Int(i64),
}

impl TermSpec {
    fn reify(&self, interner: &Interner) -> Term {
        match self {
            TermSpec::Var(v) => Term::Var(format!("V{v}")),
            TermSpec::Sym(s) => Term::Sym(interner.intern(&format!("c{s}"))),
            TermSpec::Int(n) => Term::Int(Nat::new(*n).unwrap()),
        }
    }
}

#[derive(Clone, Debug)]
enum LitSpec {
    Pos {
        pred: usize,
        terms: Vec<TermSpec>,
        grouping: Option<Vec<bool>>,
    },
    Neg {
        pred: usize,
        terms: Vec<TermSpec>,
    },
    Cmp {
        op: u8,
        lhs: TermSpec,
        rhs: TermSpec,
    },
    Arith {
        op: u8,
        args: Vec<TermSpec>,
    },
}

fn arb_literal() -> impl Strategy<Value = LitSpec> {
    prop_oneof![
        (
            0usize..4,
            proptest::collection::vec(arb_term(), 1..4),
            proptest::option::of(proptest::collection::vec(any::<bool>(), 1..3)),
        )
            .prop_map(|(pred, terms, grouping)| LitSpec::Pos {
                pred,
                terms,
                grouping
            }),
        (0usize..4, proptest::collection::vec(arb_term(), 1..4))
            .prop_map(|(pred, terms)| LitSpec::Neg { pred, terms }),
        (0u8..6, arb_term(), arb_term()).prop_map(|(op, lhs, rhs)| LitSpec::Cmp { op, lhs, rhs }),
        (0u8..5, proptest::collection::vec(arb_term(), 3..4))
            .prop_map(|(op, args)| LitSpec::Arith { op, args }),
    ]
}

impl LitSpec {
    fn reify(&self, interner: &Interner) -> Literal {
        match self {
            LitSpec::Pos {
                pred,
                terms,
                grouping,
            } => {
                let name = format!("p{pred}");
                let sym = interner.intern(&name);
                let mut ts: Vec<Term> = terms.iter().map(|t| t.reify(interner)).collect();
                match grouping {
                    None => Literal::Pos(Atom::ordinary(sym, ts)),
                    Some(bits) => {
                        // ID-atom: grouping positions from bits, tid appended.
                        let base_arity = ts.len();
                        let grouping: Vec<usize> = bits
                            .iter()
                            .enumerate()
                            .filter(|(i, &b)| b && *i < base_arity)
                            .map(|(i, _)| i)
                            .collect();
                        ts.push(Term::Var("Tid".into()));
                        Literal::Pos(Atom::id_version(sym, grouping, ts))
                    }
                }
            }
            LitSpec::Neg { pred, terms } => {
                let sym = interner.intern(&format!("p{pred}"));
                Literal::Neg(Atom::ordinary(
                    sym,
                    terms.iter().map(|t| t.reify(interner)).collect(),
                ))
            }
            LitSpec::Cmp { op, lhs, rhs } => {
                let ops = [
                    Builtin::Lt,
                    Builtin::Le,
                    Builtin::Gt,
                    Builtin::Ge,
                    Builtin::Eq,
                    Builtin::Ne,
                ];
                Literal::Builtin {
                    op: ops[*op as usize % ops.len()],
                    args: vec![lhs.reify(interner), rhs.reify(interner)],
                }
            }
            LitSpec::Arith { op, args } => {
                let ops = [Builtin::Plus, Builtin::Minus, Builtin::Times, Builtin::Div];
                let op = ops[*op as usize % ops.len()];
                let mut ts: Vec<Term> = args.iter().map(|t| t.reify(interner)).collect();
                ts.truncate(op.arity());
                Literal::Builtin { op, args: ts }
            }
        }
    }
}

proptest! {
    /// Display ∘ parse = identity on generated clauses.
    #[test]
    fn print_parse_roundtrip(
        head_terms in proptest::collection::vec(arb_term(), 0..4),
        body in proptest::collection::vec(arb_literal(), 0..5),
        negated_head in any::<bool>(),
    ) {
        let interner = Interner::new();
        let head_atom = Atom::ordinary(
            interner.intern("out"),
            head_terms.iter().map(|t| t.reify(&interner)).collect(),
        );
        let clause = Clause {
            head: vec![HeadAtom { negated: negated_head, atom: head_atom }],
            body: body.iter().map(|l| l.reify(&interner)).collect(),
            disjunctive: false,
        };
        let printed = clause.display(&interner).to_string();
        let reparsed = parse_clause(&printed, &interner)
            .unwrap_or_else(|e| panic!("printed clause failed to parse: {e}\n{printed}"));
        prop_assert_eq!(clause, reparsed, "roundtrip changed: {}", printed);
    }

    /// The parser never panics: any ASCII input either parses or returns a
    /// positioned error.
    #[test]
    fn parser_never_panics(src in "[ -~\n]{0,200}") {
        let interner = Interner::new();
        let _ = idlog_parser::parse_program(&src, &interner);
    }

    /// Multi-head DL clauses roundtrip too.
    #[test]
    fn multi_head_roundtrip(
        n_heads in 1usize..4,
        body in proptest::collection::vec(arb_literal(), 0..3),
    ) {
        let interner = Interner::new();
        let head = (0..n_heads)
            .map(|k| HeadAtom {
                negated: k % 2 == 1,
                atom: Atom::ordinary(
                    interner.intern(&format!("h{k}")),
                    vec![Term::Var("X".into())],
                ),
            })
            .collect();
        let clause = Clause {
            head,
            body: body.iter().map(|l| l.reify(&interner)).collect(),
            disjunctive: false,
        };
        let printed = clause.display(&interner).to_string();
        let reparsed = parse_clause(&printed, &interner).unwrap();
        prop_assert_eq!(clause, reparsed);
    }
}
