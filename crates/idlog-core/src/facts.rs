//! Loading ground facts from source text.
//!
//! Fact files use the same surface syntax as programs, restricted to
//! empty-body ground clauses: `emp(ann, sales). level(ann, 3).` This is the
//! format the `idlog` CLI's `--facts` option reads, and a convenient way to
//! ship test fixtures.
//!
//! A fact file costs what its bytes cost. [`Lexer::plain_fact`] reads a
//! `name(atom|nat, …).` clause a byte at a time and builds no token; a
//! clause of any other shape goes through the token loop, and from there
//! to the clause parser. A run of facts for one predicate interns under
//! one hold of the interner's lock, into the interner's one name arena,
//! and appends its rows to the relation's store
//! ([`Relation::append_run`](idlog_storage::Relation::append_run)),
//! whose membership table takes them in once, when the run ends. A run
//! that names a new symbol in every fact presizes the interner for the
//! rest of the file. The tests hold [`load_facts`] to the token loop alone
//! and to the whole-file parser: symbol ids, relations in scan order, and
//! the first defect in file order.

use std::sync::Arc;

use idlog_common::{InternerGuard, SymbolId, Value};
use idlog_parser::token::Token;
use idlog_parser::{parse_clause_from, Clause, FactArg, Lexer, ParseResult, Term};
use idlog_storage::{AppendRun, Database};

use crate::error::{CoreError, CoreResult};

/// Parse `src` as a list of ground facts into `db` (which supplies the
/// interner). Rejects rules, variables, negated or ID-atom heads.
///
/// The file is read once, clause by clause, and **the first defect in file
/// order wins**, with the index of the clause it is in; the facts before it
/// stay inserted. Symbols are interned predicate first, then arguments left
/// to right, clause by clause. Each clause is tried three ways, each from
/// where the one before stopped:
///
/// - the byte scanner, [`Lexer::plain_fact`], which interns nothing until
///   the whole clause has the plain shape, and leaves the lexer where it
///   was when it has not;
/// - the token loop, which takes the plain facts the scanner leaves (a
///   comment, a quoted or non-ASCII atom) by their tokens;
/// - the clause parser, from the clause's first token, which is where
///   every diagnostic comes from.
///
/// A plain fact's row is sort-checked and appended to its predicate's
/// relation; the run of them ends, and the relation's membership table
/// takes it in, when the predicate changes, at a clause of another shape,
/// at the end of the file or at a defect. The loop holds the interner's
/// lock across a run, so a symbol costs no lock of its own, and lets go
/// before a clause goes to the clause parser, which interns through the
/// shared interner. A run whose first [`SAMPLE`] facts named a new symbol
/// each reserves the interner's room for one per fact in the rest of the
/// file, and a reservation the file did not fill is given back at the end.
pub fn load_facts(src: &str, db: &mut Database) -> CoreResult<()> {
    let loaded = load::<true>(src, db);
    db.interner().lock().trim();
    loaded
}

/// A run's facts before it may presize the interner: enough that a column
/// over a few hundred values has shown its repeats.
const SAMPLE: usize = 1024;

/// The run of plain facts being loaded.
struct Run<'a, 'r> {
    /// The predicate's name as the file spells it.
    name: &'a str,
    rows: AppendRun<'r>,
    facts: usize,
    /// The lexer's offset and the interner's size before the first fact.
    from: usize,
    names: usize,
}

impl Run<'_, '_> {
    /// At the run's [`SAMPLE`]th fact, ending at offset `at` of a file of
    /// `len` bytes: if the run named at least one new symbol per fact,
    /// reserve room for one per fact for the rest of the file, the facts
    /// counted at the run's mean bytes per fact.
    fn presize(&self, names: &mut InternerGuard<'_>, at: usize, len: usize) {
        if names.len() - self.names >= self.facts {
            names.reserve((len - at) * self.facts / (at - self.from));
        }
    }
}

/// The loop behind [`load_facts`]. Without `SCAN` it leaves the byte
/// scanner out and reads every clause by its tokens: the loader the tests
/// hold the scanner to.
fn load<const SCAN: bool>(src: &str, db: &mut Database) -> CoreResult<()> {
    let interner = Arc::clone(db.interner());
    let mut lexer = Lexer::new(src);
    let (mut args, mut values) = (Vec::new(), Vec::new());
    let mut run: Option<Run<'_, '_>> = None;
    let mut locked: Option<InternerGuard<'_>> = None;
    for index in 0.. {
        let clause_start = lexer.clone();
        values.clear();
        let names = locked.get_or_insert_with(|| interner.lock());
        let names_before = names.len();
        let known = run.as_ref().map(|run| run.name);
        let scanned = if SCAN {
            lexer.plain_fact(&mut args)
        } else {
            None
        };
        let fact = match scanned {
            Some(name) => {
                let pred = (known != Some(name)).then(|| names.intern(name));
                values.extend(args.iter().map(|arg| match *arg {
                    FactArg::Atom(s) => Value::Sym(names.intern(s)),
                    FactArg::Nat(n) => Value::Int(n),
                }));
                Plain::Fact(name, pred)
            }
            None => plain_fact(&mut lexer, names, known, &mut values)?,
        };
        match fact {
            Plain::End => break,
            Plain::Fact(name, pred) => {
                if let Some(pred) = pred {
                    // The run before ends, into its relation, first: it
                    // borrows the database.
                    drop(run);
                    run = Some(Run {
                        name,
                        rows: db.relation_for_insert(pred, &values).append_run(),
                        facts: 0,
                        from: clause_start.offset(),
                        names: names_before,
                    });
                }
                let run = run.as_mut().expect("a fact names its predicate");
                run.rows.push(&values)?;
                run.facts += 1;
                if run.facts == SAMPLE {
                    run.presize(names, lexer.offset(), src.len());
                }
            }
            Plain::Other => {
                locked = None;
                run = None;
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

/// Scan one clause of the plain fact shape by its tokens. Interns exactly
/// what the clause parser would have by the same token, in the same order,
/// so rewinding to the clause parser repeats no-ops.
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
    use proptest::test_runner::TestRng;
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

    /// The token loop alone, without the byte scanner.
    fn load_by_tokens(src: &str, db: &mut Database) -> CoreResult<()> {
        load::<false>(src, db)
    }

    fn fresh() -> Database {
        Database::with_interner(Arc::new(Interner::new()))
    }

    /// Same symbol table (ids included), same relations, same scan order.
    fn assert_same_contents(a: &Database, b: &Database) {
        if let Err(e) = same_symbols(a, b).and_then(|()| same_relations(a, b)) {
            panic!("{e}");
        }
    }

    /// The same names under the same ids.
    fn same_symbols(a: &Database, b: &Database) -> Result<(), String> {
        let names = |db: &Database| -> Vec<String> {
            let n = db.interner().len() as u32;
            (0..n)
                .map(|id| db.interner().resolve(SymbolId(id)).to_string())
                .collect()
        };
        let (na, nb) = (names(a), names(b));
        match na.iter().zip(&nb).position(|(x, y)| x != y) {
            Some(id) => Err(format!("symbol {id} is {:?}, not {:?}", na[id], nb[id])),
            None if na.len() != nb.len() => Err(format!("{} symbols, not {}", na.len(), nb.len())),
            None => Ok(()),
        }
    }

    /// The same relations, rows in the same scan order, each row found by
    /// its relation's membership test. Tuples of two interners compare by
    /// raw symbol id.
    fn same_relations(a: &Database, b: &Database) -> Result<(), String> {
        if a.predicate_names() != b.predicate_names() {
            return Err(format!(
                "{:?}, not {:?}",
                a.predicate_names(),
                b.predicate_names()
            ));
        }
        for name in a.predicate_names() {
            let (ra, rb) = (a.relation(&name).unwrap(), b.relation(&name).unwrap());
            if ra.rtype() != rb.rtype() || !ra.iter().eq(rb.iter()) {
                return Err(format!(
                    "{name}: {:?}, not {:?}",
                    ra.iter().collect::<Vec<_>>(),
                    rb.iter().collect::<Vec<_>>()
                ));
            }
            if let Some(row) = ra.iter().find(|&row| !ra.contains(row)) {
                return Err(format!("{name}: {row:?} is listed and not found"));
            }
        }
        Ok(())
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

    /// Predicates of a generated fact file and their column sorts (`u` a
    /// symbol, `i` an integer); one has a quoted name.
    const PREDS: [(&str, &str); 5] = [
        ("flag", ""),
        ("unary", "u"),
        ("emp", "ui"),
        ("'my pred'", "uu"),
        ("wide", "iuu"),
    ];
    /// Symbols as a file spells them: bare ASCII ones, which the byte
    /// scanner reads, and non-ASCII and quoted ones, which it leaves to the
    /// token loop.
    const SYMS: [&str; 8] = ["k", "ka", "k_1B", "kλ", "kéß", "'R & D'", "'%x'", "'é'"];
    /// Layout between two tokens: CRLF and comments among it.
    const GAPS: [&str; 9] = [
        "",
        "",
        " ",
        " ",
        "\n",
        "\r\n",
        "\t ",
        "% c.(' \n",
        "\r\n% x\r\n",
    ];

    /// A defect planted among the facts. The templated ones read the
    /// predicate of the fact before them, so they sit at some depth of its
    /// run.
    #[derive(Clone, Copy, Debug)]
    enum Plant {
        /// A variable for the first argument.
        Var,
        /// Every column of the other sort, or one column on a 0-ary
        /// predicate; a variable if the predicate has no fact before it.
        Sort,
        /// One column more; a variable if the predicate has no fact before.
        Arity,
        /// Two arguments with no comma between them.
        NoComma,
        /// No `.`: the next clause runs into this one.
        NoDot,
        /// A clause of its own.
        Fixed(&'static str),
    }

    const PLANTS: [Plant; 13] = [
        Plant::Var,
        Plant::Sort,
        Plant::Arity,
        Plant::NoComma,
        Plant::NoDot,
        Plant::Fixed("num(99999999999999999999)."),
        Plant::Fixed("unary(-3)."),
        Plant::Fixed("Emp(k)."),
        Plant::Fixed("unary(k) :- emp(k, 1)."),
        Plant::Fixed("not unary(k)."),
        Plant::Fixed("emp[1](k, 0)."),
        Plant::Fixed("unary(k,)."),
        Plant::Fixed("unary(\"k\")."),
    ];

    /// A generated fact file: runs of facts that switch predicate, maybe
    /// one planted defect, and the layout between tokens.
    #[derive(Clone, Debug)]
    struct FactFile {
        /// Each fact's predicate (into [`PREDS`]), its arguments (into
        /// [`SYMS`] for a symbol column, the integer itself otherwise) and
        /// whether a 0-ary fact is written with `()`.
        facts: Vec<(usize, Vec<usize>, bool)>,
        /// The defect and the number of facts before it.
        plant: Option<(usize, Plant)>,
        /// Layout (into [`GAPS`]), cycled over the gaps between tokens.
        gaps: Vec<usize>,
    }

    impl FactFile {
        fn draw(rng: &mut TestRng) -> FactFile {
            let below = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
            let mut facts = Vec::new();
            for _ in 0..below(rng, 8) {
                let pred = below(rng, PREDS.len());
                for _ in 0..1 + below(rng, 24) {
                    let args = PREDS[pred].1.bytes();
                    let args = args.map(|s| below(rng, if s == b'u' { SYMS.len() } else { 40 }));
                    facts.push((pred, args.collect(), rng.below(2) == 0));
                }
            }
            let plant = (rng.below(4) != 0).then(|| {
                (
                    below(rng, facts.len() + 1),
                    PLANTS[below(rng, PLANTS.len())],
                )
            });
            let gaps = (0..1 + below(rng, 12))
                .map(|_| below(rng, GAPS.len()))
                .collect();
            FactFile { facts, plant, gaps }
        }

        /// The file's text, and the part of it before the defect.
        fn render(&self) -> (String, String) {
            let fact = |(pred, args, parens): &(usize, Vec<usize>, bool)| {
                let (name, sorts) = PREDS[*pred];
                let args = sorts.bytes().zip(args).map(|(sort, &a)| match sort {
                    b'u' => SYMS[a].to_string(),
                    _ => a.to_string(),
                });
                clause(name, args.collect(), *parens)
            };
            let mut clauses: Vec<Vec<String>> = self.facts.iter().map(fact).collect();
            if let Some((at, plant)) = self.plant {
                let pred = match at {
                    0 => self.facts.first().map_or(1, |f| f.0),
                    _ => self.facts[at - 1].0,
                };
                let seen = self.facts[..at].iter().any(|f| f.0 == pred);
                clauses.insert(at, planted(pred, plant, seen));
            }
            let (mut src, mut before) = (String::new(), String::new());
            let mut gaps = self.gaps.iter().cycle().map(|&g| GAPS[g]);
            for (n, clause) in clauses.iter().enumerate() {
                if self.plant.is_some_and(|(at, _)| at == n) {
                    before = src.clone();
                }
                for token in clause {
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
            (src, before)
        }

        /// Smaller files, each smaller in its defect, facts, defect depth,
        /// layout or constants, so shrinking ends.
        fn smaller(&self) -> Vec<FactFile> {
            let mut out = Vec::new();
            let mut with = |f: &dyn Fn(&mut FactFile)| {
                let mut c = self.clone();
                f(&mut c);
                out.push(c);
            };
            if self.plant.is_some() {
                with(&|c| c.plant = None);
            }
            for i in 0..self.facts.len() {
                with(&|c| {
                    c.facts.remove(i);
                    if let Some((at, _)) = &mut c.plant {
                        *at -= usize::from(i < *at);
                    }
                });
            }
            if let Some((at @ 1.., plant)) = self.plant {
                with(&|c| c.plant = Some((at - 1, plant)));
            }
            for i in 0..self.gaps.len() {
                if self.gaps.len() > 1 {
                    with(&|c| {
                        c.gaps.remove(i);
                    });
                }
                if self.gaps[i] > 0 {
                    with(&|c| c.gaps[i] = 0);
                }
            }
            for (i, (_, args, parens)) in self.facts.iter().enumerate() {
                for j in (0..args.len()).filter(|&j| args[j] > 0) {
                    with(&|c| c.facts[i].1[j] = 0);
                }
                if *parens {
                    with(&|c| c.facts[i].2 = false);
                }
            }
            out
        }

        /// `load_facts` loads what the token loop loads and fails where it
        /// fails; both agree with the whole-file parser on the error; and
        /// the facts before a defect stay inserted.
        fn check(&self) -> Result<(), String> {
            let (src, before) = self.render();
            let (mut db, mut tokens, mut parsed) = (fresh(), fresh(), fresh());
            let got = load_facts(&src, &mut db);
            let by_tokens = load_by_tokens(&src, &mut tokens);
            same_symbols(&db, &tokens)?;
            same_relations(&db, &tokens)?;
            let whole = load_facts_reference(&src, &mut parsed);
            for (other, what) in [
                (&by_tokens, "the token loop"),
                (&whole, "the whole-file parser"),
            ] {
                let same = match (&got, other) {
                    (Ok(()), Ok(())) => true,
                    (Err(a), Err(b)) => {
                        a == b && a.code() == b.code() && a.to_string() == b.to_string()
                    }
                    _ => false,
                };
                if !same {
                    return Err(format!("loaded {got:?}, {what} {other:?}"));
                }
            }
            match (self.plant, &got) {
                (None, Ok(())) => same_symbols(&db, &parsed).and(same_relations(&db, &parsed)),
                (Some((at, _)), Err(err)) => {
                    if let CoreError::Validation {
                        clause: Some(n), ..
                    } = err
                    {
                        if *n != at {
                            return Err(format!("the defect is clause #{at}: {err}"));
                        }
                    }
                    let mut loaded = fresh();
                    load_facts_reference(&before, &mut loaded).map_err(|e| e.to_string())?;
                    same_relations(&db, &loaded).map_err(|e| format!("before the defect, {e}"))
                }
                (plant, got) => Err(format!("{plant:?} loaded as {got:?}")),
            }
        }
    }

    /// The tokens of `name(args).`, or of `name.` when there are no
    /// arguments and no parentheses.
    fn clause(name: &str, args: Vec<String>, parens: bool) -> Vec<String> {
        let mut tokens = vec![name.to_string()];
        if parens || !args.is_empty() {
            tokens.push("(".into());
            for (i, arg) in args.into_iter().enumerate() {
                if i > 0 {
                    tokens.push(",".into());
                }
                tokens.push(arg);
            }
            tokens.push(")".into());
        }
        tokens.push(".".into());
        tokens
    }

    /// The tokens of `plant` in a run of `pred`, which has a fact before it
    /// if `seen`.
    fn planted(pred: usize, plant: Plant, seen: bool) -> Vec<String> {
        let (name, sorts) = PREDS[pred];
        let args = |flip: bool| -> Vec<String> {
            let arg = |s: u8| if (s == b'u') != flip { "k" } else { "7" };
            sorts.bytes().map(|s| arg(s).to_string()).collect()
        };
        match plant {
            Plant::Sort | Plant::Arity if !seen => planted(pred, Plant::Var, seen),
            Plant::Var => {
                let mut args = args(false);
                args.truncate(args.len().max(1) - 1);
                clause(name, [vec!["X".into()], args].concat(), true)
            }
            Plant::Sort if sorts.is_empty() => clause(name, vec!["k".into()], true),
            Plant::Sort => clause(name, args(true), true),
            Plant::Arity => clause(name, [args(false), vec!["k".into()]].concat(), true),
            Plant::NoComma => vec![
                name.into(),
                "(".into(),
                "k".into(),
                "k".into(),
                ")".into(),
                ".".into(),
            ],
            Plant::NoDot => {
                let mut tokens = clause(name, args(false), false);
                tokens.pop();
                tokens
            }
            Plant::Fixed(text) => vec![text.to_string()],
        }
    }

    /// Generated fact files, with a defect planted in three of four at any
    /// depth of a run: see [`FactFile::check`]. A failing file is shrunk,
    /// candidate by candidate, while it still fails.
    #[test]
    fn the_byte_scanner_loads_what_the_token_loop_loads() {
        for attempt in 0..400 {
            let mut file = FactFile::draw(&mut TestRng::for_case("fact files", attempt));
            let Err(mut message) = file.check() else {
                continue;
            };
            while let Some((m, f)) = file
                .smaller()
                .into_iter()
                .find_map(|c| Some((c.check().err()?, c)))
            {
                (message, file) = (m, f);
            }
            let (src, _) = file.render();
            panic!(
                "attempt {attempt} shrunk to {} fact(s), {:?}:\n{src:?}\n{message}",
                file.facts.len(),
                file.plant
            );
        }
    }
}
