//! Loading ground facts from source text.
//!
//! Fact files use the same surface syntax as programs, restricted to
//! empty-body ground clauses: `emp(ann, sales). level(ann, 3).` This is the
//! format the `idlog` CLI's `--facts` option reads, and a convenient way to
//! ship test fixtures.
//!
//! A fact file costs what its facts cost: the lexer reads ASCII by bytes,
//! a run of plain facts interns under one hold of the interner's lock into
//! the interner's one name arena, and a fact's tuple goes straight into its
//! relation. The tests hold [`load_facts`] to the whole-file parser it
//! replaced — symbol ids, relations and the first defect in file order.

use std::sync::Arc;

use idlog_common::{InternerGuard, SymbolId, Value};
use idlog_parser::token::Token;
use idlog_parser::{parse_clause_from, Clause, Lexer, ParseResult, Term};
use idlog_storage::{Database, Relation};

use crate::error::{CoreError, CoreResult};

/// Parse `src` as a list of ground facts into `db` (which supplies the
/// interner). Rejects rules, variables, negated or ID-atom heads.
///
/// The file is read once, clause by clause: a token loop takes the
/// `name.` / `name(consts).` clauses straight into their relation — no
/// token vector, no clause AST — and anything of another shape goes, from
/// its first token, through the clause parser, which is where every
/// diagnostic comes from. So **the first defect in file order wins**, with
/// the index of the clause it is in, and the facts before it stay
/// inserted. Symbols are interned predicate first, then arguments left to
/// right, clause by clause.
///
/// The token loop holds the interner's lock across each run of plain
/// facts, so a symbol costs no lock of its own. It lets go before a clause
/// goes to the clause parser, which interns through the shared interner.
pub fn load_facts(src: &str, db: &mut Database) -> CoreResult<()> {
    let interner = Arc::clone(db.interner());
    let mut lexer = Lexer::new(src);
    let mut values: Vec<Value> = Vec::new();
    // The relation being filled and the name it goes by in the file; kept
    // while the predicate repeats.
    let mut current: Option<(&str, &mut Relation)> = None;
    let mut locked: Option<InternerGuard<'_>> = None;
    for index in 0.. {
        let clause_start = lexer.clone();
        values.clear();
        let known = current.as_ref().map(|(name, _)| *name);
        let guard = locked.get_or_insert_with(|| interner.lock());
        match plain_fact(&mut lexer, guard, known, &mut values)? {
            Plain::End => break,
            Plain::Fact(name, pred) => {
                if let Some(pred) = pred {
                    current = Some((name, db.relation_for_insert(pred, &values)));
                }
                let (_, rel) = current.as_mut().expect("a fact names its predicate");
                rel.insert(values.iter().copied().collect())?;
            }
            Plain::Other => {
                locked = None;
                current = None;
                lexer = clause_start;
                let clause = parse_clause_from(&mut lexer, &interner)?;
                load_clause(db, index, &clause)?;
            }
        }
    }
    Ok(())
}

/// What [`plain_fact`] found at the lexer's position.
enum Plain<'a> {
    /// The end of the input.
    End,
    /// A `name.` / `name(consts).` clause, its constants now in the value
    /// buffer. The predicate's symbol is given unless `name` is the name
    /// the caller already holds the relation of.
    Fact(&'a str, Option<SymbolId>),
    /// Something else: a rule, a variable, an ID-atom, a syntax error. The
    /// lexer is somewhere inside it.
    Other,
}

/// Scan one clause of the plain fact shape. Interns exactly what the clause
/// parser would have by the same token, in the same order, so rewinding to
/// the clause parser repeats no-ops.
fn plain_fact<'a>(
    lexer: &mut Lexer<'a>,
    interner: &mut InternerGuard<'_>,
    known: Option<&str>,
    values: &mut Vec<Value>,
) -> ParseResult<Plain<'a>> {
    let name = match lexer.next_token()?.token {
        Token::Eof => return Ok(Plain::End),
        Token::Ident(name) => name,
        _ => return Ok(Plain::Other),
    };
    let pred = (known != Some(name)).then(|| interner.intern(name));
    let mut next = lexer.next_token()?.token;
    if next == Token::LParen {
        loop {
            match lexer.next_token()?.token {
                Token::Ident(s) => values.push(Value::Sym(interner.intern(s))),
                Token::Int(n) => values.push(Value::Int(n)),
                Token::RParen if values.is_empty() => break,
                _ => return Ok(Plain::Other),
            }
            match lexer.next_token()?.token {
                Token::Comma => {}
                Token::RParen => break,
                _ => return Ok(Plain::Other),
            }
        }
        next = lexer.next_token()?.token;
    }
    Ok(if next == Token::Dot {
        Plain::Fact(name, pred)
    } else {
        Plain::Other
    })
}

/// Insert clause number `index` of a fact file, or say why it is not a
/// fact.
fn load_clause(db: &mut Database, index: usize, clause: &Clause) -> CoreResult<()> {
    let reject = |message: String| CoreError::Validation {
        clause: Some(index),
        message,
    };
    if !clause.is_fact() {
        return Err(reject("fact files may not contain rules".into()));
    }
    if clause.head.len() != 1 || clause.head[0].negated {
        return Err(reject("facts are single positive atoms".into()));
    }
    let atom = &clause.head[0].atom;
    if atom.pred.is_id_version() {
        return Err(reject(
            "facts cannot be ID-atoms (tids are assigned, not stated)".into(),
        ));
    }
    let mut values = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        match t {
            Term::Sym(s) => values.push(Value::Sym(*s)),
            Term::Int(n) => values.push(Value::Int(*n)),
            Term::Var(v) => return Err(reject(format!("variable {v} in a fact"))),
        }
    }
    let name = db.interner().resolve(atom.pred.base());
    db.insert(&name, values.into())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::Interner;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The loader this one replaced: parse the whole file into clauses,
    /// then load them one by one. The reference [`load_facts`] is held to.
    fn load_facts_reference(src: &str, db: &mut Database) -> CoreResult<()> {
        let parsed = idlog_parser::parse_program(src, db.interner())?;
        for (i, clause) in parsed.clauses.iter().enumerate() {
            load_clause(db, i, clause)?;
        }
        Ok(())
    }

    fn fresh() -> Database {
        Database::with_interner(Arc::new(Interner::new()))
    }

    /// Same symbol table (ids included), same relations, same scan order.
    fn assert_same_contents(a: &Database, b: &Database) {
        assert_eq!(a.interner().len(), b.interner().len(), "symbol count");
        for id in 0..a.interner().len() as u32 {
            let id = SymbolId(id);
            assert_eq!(a.interner().resolve(id), b.interner().resolve(id));
        }
        assert_eq!(a.predicate_names(), b.predicate_names());
        for name in a.predicate_names() {
            let (ra, rb) = (a.relation(&name).unwrap(), b.relation(&name).unwrap());
            assert_eq!(ra.rtype(), rb.rtype(), "{name}");
            // Tuples of two interners compare by raw symbol id.
            assert!(ra.iter().eq(rb.iter()), "{name}");
        }
    }

    #[test]
    fn loads_mixed_sort_facts() {
        let mut db = Database::with_interner(Arc::new(Interner::new()));
        load_facts("emp(ann, sales). emp(bob, dev). level(ann, 3).", &mut db).unwrap();
        assert_eq!(db.relation("emp").unwrap().len(), 2);
        assert_eq!(db.relation("level").unwrap().rtype().to_string(), "01");
    }

    #[test]
    fn rejects_rules_variables_and_id_atoms() {
        let mut db = Database::with_interner(Arc::new(Interner::new()));
        assert!(load_facts("p(X) :- q(X).", &mut db).is_err());
        assert!(load_facts("p(X).", &mut db).is_err());
        assert!(load_facts("p[1](a, 0).", &mut db).is_err());
        assert!(load_facts("not p(a).", &mut db).is_err());
    }

    #[test]
    fn inconsistent_sorts_rejected() {
        let mut db = Database::with_interner(Arc::new(Interner::new()));
        assert!(load_facts("p(a). p(3).", &mut db).is_err());
    }

    #[test]
    fn zero_ary_facts() {
        let mut db = Database::with_interner(Arc::new(Interner::new()));
        load_facts("flag.", &mut db).unwrap();
        assert_eq!(db.relation("flag").unwrap().len(), 1);
    }

    /// One defect each; the loader must say exactly what the reference says.
    const DEFECTS: &[&str] = &[
        "p(X).",
        "p(a) :- q(a).",
        "p :- .",
        "p(a). p(3).",
        "p(a, b). p(a).",
        "p(a",
        "p(a) q(b).",
        "p('unterminated",
        "p(99999999999999999999).",
        "p(-3).",
        "p(a,).",
        "P(a).",
        "p(\"str\").",
        "p(a) | q(b).",
        "not p(a).",
        "p[1](a, 0).",
        "\u{feff}p(a).",
    ];

    #[test]
    fn defects_report_what_the_reference_reports() {
        for defect in DEFECTS {
            // Alone, and behind two good facts on a line of their own.
            for src in [defect.to_string(), format!("good(1). good(2).\n{defect}")] {
                let (mut db, mut reference) = (fresh(), fresh());
                let err = load_facts(&src, &mut db).expect_err(&src);
                let want = load_facts_reference(&src, &mut reference).expect_err(&src);
                assert_eq!(err, want, "{src:?}");
                assert_eq!(err.code(), want.code(), "{src:?}");
                assert_eq!(err.to_string(), want.to_string(), "{src:?}");
                if src.starts_with("good") {
                    let good = db.relation("good").expect("loaded before the defect");
                    assert_eq!(good.len(), 2, "{src:?}");
                }
            }
        }
    }

    #[test]
    fn tolerated_layouts_load_like_the_reference() {
        for src in [
            "% nothing but a comment",
            "% comment\n\n   % another\n",
            "emp(ann, sales).\r\nemp(bob, dev).\r\n",
            "flag. flag(). 'two words'('R & D', 7).",
        ] {
            let (mut db, mut reference) = (fresh(), fresh());
            load_facts(src, &mut db).unwrap();
            load_facts_reference(src, &mut reference).unwrap();
            assert_same_contents(&db, &reference);
        }
    }

    #[test]
    fn first_defect_in_file_order_wins_and_earlier_facts_stay() {
        // The whole-file parser reported the *later* syntax error here and
        // loaded nothing.
        let src = "p(a). p(X). p(";
        let mut reference = fresh();
        let late = load_facts_reference(src, &mut reference).unwrap_err();
        assert_eq!(late.code(), crate::error::ErrorCode::Parse);
        assert!(reference.relation("p").is_none());

        let mut db = fresh();
        let err = load_facts(src, &mut db).unwrap_err();
        assert_eq!(err.to_string(), "invalid clause #1: variable X in a fact");
        assert_eq!(db.relation("p").unwrap().len(), 1);

        // A defect far into a file is numbered by the clauses before it.
        let mut long: String = (0..40_000).map(|n| format!("emp(n{n}, d1).\n")).collect();
        long.push_str("emp(X, d1).\n");
        let mut db = fresh();
        let err = load_facts(&long, &mut db).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid clause #40000: variable X in a fact"
        );
        assert_eq!(db.relation("emp").unwrap().len(), 40_000);
    }

    /// A constant as the file spells it: bare, quoted (spaces, punctuation,
    /// non-ASCII letters) or an integer. Bare atoms start with `k`, so none
    /// is the keyword `not` or `choice`.
    fn arb_sym() -> impl Strategy<Value = String> {
        prop_oneof!["k[a-zA-Z0-9_éßλ]{0,5}", "'[a-z A-Zéßλ0-9_.,()%]{0,7}'",]
    }

    /// One fact of one of five predicates (fixed arity and sorts each).
    fn arb_fact() -> impl Strategy<Value = Vec<String>> {
        let int = || (0u32..5000).prop_map(|n| n.to_string());
        prop_oneof![
            Just(vec!["flag".to_string()]),
            Just(vec!["flag".to_string(), "(".into(), ")".into()]),
            arb_sym().prop_map(|a| vec!["unary".into(), "(".into(), a, ")".into()]),
            (arb_sym(), int()).prop_map(|(a, n)| {
                vec!["emp".into(), "(".into(), a, ",".into(), n, ")".into()]
            }),
            (arb_sym(), arb_sym()).prop_map(|(a, b)| {
                vec!["'my pred'".into(), "(".into(), a, ",".into(), b, ")".into()]
            }),
            int().prop_map(|n| vec!["num".into(), "(".into(), n, ")".into()]),
        ]
    }

    /// What may stand between two tokens.
    fn arb_gap() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => Just(String::new()),
            3 => Just(" ".to_string()),
            1 => Just("\n".to_string()),
            1 => Just("\t \r\n".to_string()),
            1 => "% [a-z.()' ]{0,12}\n",
        ]
    }

    proptest! {
        #[test]
        fn well_formed_files_load_like_the_reference(
            facts in proptest::collection::vec(arb_fact(), 0..40),
            gaps in proptest::collection::vec(arb_gap(), 300),
        ) {
            let mut src = String::new();
            let mut gaps = gaps.iter().cycle();
            for fact in &facts {
                for token in fact.iter().map(String::as_str).chain(["."]) {
                    src.push_str(gaps.next().unwrap());
                    // Keep an identifier from running into the one before it.
                    let glued = |c: char| c.is_alphanumeric() || c == '_';
                    if src.ends_with(glued) && token.starts_with(glued) {
                        src.push(' ');
                    }
                    src.push_str(token);
                }
            }
            src.push_str(gaps.next().unwrap());
            let (mut db, mut reference) = (fresh(), fresh());
            load_facts_reference(&src, &mut reference).unwrap();
            load_facts(&src, &mut db).unwrap();
            assert_same_contents(&db, &reference);
        }
    }
}
