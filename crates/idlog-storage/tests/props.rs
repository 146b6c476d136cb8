//! Property-based tests for relations, grouping, and ID-relations.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use idlog_common::{Interner, Nat, RelType, Sort, Tuple, Value};
use idlog_storage::{
    canonical_id_relation, count_bounded_assignments, count_id_functions, group_by,
    make_id_relation, random_id_relation, BackendKind, BoundedAssignmentIter, CanonicalView,
    Database, IdAssignment, IdAssignmentIter, Relation, RowBuf, ValueSummary,
};

fn int(n: i64) -> Value {
    Value::Int(Nat::new(n).expect("a natural"))
}

/// Each base tuple's tid under `a`: its tids in the order `group_by` lists
/// the members.
fn tids_of(rel: &Relation, a: &IdAssignment, interner: &Interner) -> HashMap<Tuple, i64> {
    let g = group_by(rel, a.positions(), interner);
    let members = (0..g.group_count())
        .flat_map(|k| g.rows(k))
        .map(Tuple::from);
    members.zip(a.tids().iter().copied()).collect()
}

/// `row`'s projection on `positions`, as a probe key.
fn project(row: &[Value], positions: &[usize]) -> Tuple {
    positions.iter().map(|&p| row[p]).collect()
}

/// Insert `batch` as one delta batch, in `segments` consecutive pieces;
/// the fresh rows and the fresh count per piece.
fn insert_batch(rel: &mut Relation, batch: &[Tuple], segments: usize) -> (RowBuf, Vec<usize>) {
    let rows: RowBuf = batch.iter().collect();
    let per = batch.len().div_ceil(segments.max(1)).max(1);
    let pieces: Vec<_> = rows.rows().chunks(per).collect();
    let mut fresh = RowBuf::new();
    let counts = rel.delta_batch_insert(&pieces, &mut fresh);
    (fresh, counts)
}

/// Remove `batch` as one batch; the flags.
fn remove_batch(rel: &mut Relation, batch: &[Tuple]) -> Vec<bool> {
    let rows: RowBuf = batch.iter().collect();
    rel.remove_batch(rows.rows())
}

/// The rows of `rel` in scan order, as tuples.
fn scan(rel: &Relation) -> Vec<Tuple> {
    rel.rows().map(Tuple::from).collect()
}

/// [`Database::value_summary`] computed from scratch, the obvious way.
fn summary_by_hand(db: &Database) -> ValueSummary {
    let values: std::collections::HashSet<Value> = db
        .iter()
        .flat_map(|(_, rel)| rel.rows().flat_map(<[Value]>::to_vec))
        .collect();
    let max_natural = values
        .iter()
        .filter_map(|v| match v {
            Value::Int(n) => Some(n.get() as u64),
            Value::Sym(_) => None,
        })
        .max()
        .unwrap_or(0);
    ValueSummary {
        max_natural,
        distinct: values.len() as u64,
    }
}

/// A random small binary relation over a tiny symbolic domain (so groups of
/// interesting sizes appear).
fn arb_relation() -> impl Strategy<Value = (Interner, Relation)> {
    proptest::collection::vec((0usize..3, 0usize..4), 0..8).prop_map(|pairs| {
        let interner = Interner::new();
        let mut rel = Relation::elementary(2);
        for (g, m) in pairs {
            let t: Tuple = vec![
                Value::Sym(interner.intern(&format!("g{g}"))),
                Value::Sym(interner.intern(&format!("m{m}"))),
            ]
            .into();
            let _ = rel.insert(t);
        }
        (interner, rel)
    })
}

/// Symbol names whose order by name disagrees with their order by length,
/// by case and — interned last to first — by interning order.
const NAMES: [&str; 7] = ["B", "a", "a_1", "ab", "b", "b0", "zz"];

/// A random relation of arity 0–4 whose columns mix both sorts, built on
/// `kind` by point inserts in random order (duplicates included). Ints
/// straddle zero and include multi-digit values so numeric and textual
/// order disagree; a column that draws both 0 and `i64::MAX` spans 63
/// bits, too wide beside the row ids of three rows or more for the view's
/// packed keys, so both of its sort paths are taken.
fn arb_mixed_relation() -> impl Strategy<Value = (Interner, Relation)> {
    arb_mixed_relation_up_to(4)
}

/// [`arb_mixed_relation`] of arity 0 to `max_arity`.
fn arb_mixed_relation_up_to(max_arity: usize) -> impl Strategy<Value = (Interner, Relation)> {
    (
        0..=max_arity,
        proptest::collection::vec(any::<bool>(), max_arity),
        proptest::collection::vec(proptest::collection::vec(0usize..8, max_arity), 0..14),
        any::<bool>(),
    )
        .prop_map(|(arity, int_column, rows, columnar)| {
            let interner = Interner::new();
            for name in NAMES.iter().rev() {
                interner.intern(name);
            }
            let sorts: Vec<Sort> = int_column[..arity]
                .iter()
                .map(|&int| if int { Sort::I } else { Sort::U })
                .collect();
            let kind = if columnar {
                BackendKind::Columnar
            } else {
                BackendKind::Hash
            };
            let mut rel = Relation::new_in(RelType::new(sorts.clone()), kind);
            for row in rows {
                let t: Tuple = sorts
                    .iter()
                    .zip(row)
                    .map(|(sort, k)| match sort {
                        Sort::I => int([0, 2, 3, 9, 10, 100, 1 << 40, i64::MAX][k]),
                        Sort::U => Value::Sym(interner.intern(NAMES[k % NAMES.len()])),
                    })
                    .collect();
                rel.insert(t).unwrap();
            }
            (interner, rel)
        })
}

/// Names that share their first eight bytes or more, that end inside the
/// first eight, that hold non-ASCII text (multi-byte in the prefix, or just
/// past it) or a zero byte, or are empty.
const LONG_NAMES: [&str; 12] = [
    "shared_prefix_b",
    "shared_prefix_a",
    "shared_prefix",
    "shared_p",
    "shared_pr",
    "shared_p\u{e9}",
    "shared_p\0",
    "\u{3a9}mega",
    "\u{65e5}\u{672c}\u{8a9e}",
    "Z",
    "a",
    "",
];

/// One value's place in the reference order: integers by value before
/// symbols by resolved name.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum RefKey {
    Int(i64),
    Name(String),
}

fn ref_key(values: &[Value], interner: &Interner) -> Vec<RefKey> {
    values
        .iter()
        .map(|v| match v {
            Value::Int(n) => RefKey::Int(n.get()),
            Value::Sym(s) => RefKey::Name(interner.resolve(*s)),
        })
        .collect()
}

/// A relation of arity 0–4 whose columns mix both sorts, over
/// [`LONG_NAMES`], in an interner that holds them in a random order with
/// names the relation lacks interned between them; with a grouping set.
fn arb_named_relation() -> impl Strategy<Value = (Interner, Relation, Vec<usize>)> {
    (
        0usize..=4,
        proptest::collection::vec(any::<bool>(), 4),
        proptest::collection::vec(proptest::collection::vec(0usize..12, 4), 0..24),
        any::<u64>(),
        proptest::collection::vec(any::<bool>(), 4),
    )
        .prop_map(|(arity, int_column, rows, shuffle, grouped)| {
            use rand::seq::SliceRandom;
            let mut order: Vec<usize> = (0..LONG_NAMES.len()).collect();
            order.shuffle(&mut SmallRng::seed_from_u64(shuffle));
            let interner = Interner::new();
            for (i, &k) in order.iter().enumerate() {
                interner.intern(&format!("unused_{i}"));
                interner.intern(LONG_NAMES[k]);
            }
            let sorts: Vec<Sort> = int_column[..arity]
                .iter()
                .map(|&int| if int { Sort::I } else { Sort::U })
                .collect();
            let mut rel = Relation::new(RelType::new(sorts.clone()));
            for row in rows {
                let t: Tuple = sorts
                    .iter()
                    .zip(row)
                    .map(|(sort, k)| match sort {
                        Sort::I => int([0, 1, 7, 10, 99, 100, 1 << 33, i64::MAX][k % 8]),
                        Sort::U => Value::Sym(interner.intern(LONG_NAMES[k])),
                    })
                    .collect();
                rel.insert(t).unwrap();
            }
            let positions = (0..arity).filter(|&c| grouped[c]).collect();
            (interner, rel, positions)
        })
}

proptest! {
    /// The view keeps no name of its own: every renderer, its iteration
    /// and the group index it sorts for equal a reference sort by resolved
    /// name — for names alike in their first eight bytes or more, non-ASCII
    /// names, and an interner holding names the relation lacks.
    #[test]
    fn the_view_orders_and_renders_like_a_sort_by_resolved_name(
        (interner, rel, positions) in arb_named_relation(),
    ) {
        let mut expected = scan(&rel);
        expected.sort_by_cached_key(|t| ref_key(t.values(), &interner));
        let view = rel.canonical_view(&interner);
        prop_assert_eq!(view.iter().map(Tuple::from).collect::<Vec<_>>(), expected.clone());

        let names = |t: &Tuple| -> Vec<String> {
            t.values().iter().map(|v| match v {
                Value::Int(n) => n.get().to_string(),
                Value::Sym(s) => interner.resolve(*s),
            }).collect()
        };
        let facts: String = expected.iter().map(|t| format!("p({})\n", names(t).join(", "))).collect();
        let wire: Vec<String> = expected.iter().map(|t| names(t).join(",")).collect();
        let mut written: Vec<u8> = Vec::new();
        view.write_facts("p", &mut written).unwrap();
        prop_assert_eq!(String::from_utf8(written).unwrap(), facts);
        prop_assert_eq!(view.render_rows(","), wire);

        // Groups in key order, members in order within each: the tids the
        // canonical ID-functions give.
        let mut groups: BTreeMap<Vec<RefKey>, Vec<Tuple>> = BTreeMap::new();
        for t in &expected {
            groups.entry(ref_key(project(t.values(), &positions).values(), &interner))
                .or_default()
                .push(t.clone());
        }
        let grouping = group_by(&rel, &positions, &interner);
        let got: Vec<Vec<Tuple>> = (0..grouping.group_count())
            .map(|g| grouping.rows(g).map(Tuple::from).collect())
            .collect();
        prop_assert_eq!(got, groups.values().cloned().collect::<Vec<_>>());
        let ids = canonical_id_relation(&rel, &positions, &interner, None).unwrap().relation;
        for members in groups.values() {
            for (tid, t) in members.iter().enumerate() {
                let with_tid: Tuple = t.values().iter().copied().chain([int(tid as i64)]).collect();
                prop_assert!(ids.contains(&with_tid), "{:?} lacks tid {}", t, tid);
            }
        }
    }

    /// The canonical view is the relation sorted by `Tuple::cmp_canonical`,
    /// and its renderers print exactly what `Tuple::display` prints — on
    /// both backends, for every arity (the 0-ary tuple included) and any
    /// mix of sorts.
    #[test]
    fn canonical_view_orders_and_renders_like_the_tuple_methods(
        (interner, rel) in arb_mixed_relation(),
    ) {
        let mut expected: Vec<Tuple> = scan(&rel);
        expected.sort_by(|a, b| a.cmp_canonical(b, &interner));
        let view = rel.canonical_view(&interner);
        prop_assert_eq!(view.len(), rel.len());
        prop_assert_eq!(view.is_empty(), rel.is_empty());
        prop_assert_eq!(view.iter().map(Tuple::from).collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(rel.sorted_canonical(&interner), expected.clone());

        let facts: String = expected
            .iter()
            .map(|t| format!("p{}\n", t.display(&interner)))
            .collect();
        let mut written: Vec<u8> = Vec::new();
        view.write_facts("p", &mut written).unwrap();
        prop_assert_eq!(String::from_utf8(written).unwrap(), facts);
        let wire: Vec<String> = expected
            .iter()
            .map(|t| {
                let values = t.values().iter().map(|v| v.display(&interner).to_string());
                values.collect::<Vec<_>>().join(",")
            })
            .collect();
        prop_assert_eq!(view.render_rows(","), wire);

        // The order is a function of content, not of backend or history.
        let other = match rel.backend_kind() {
            BackendKind::Hash => BackendKind::Columnar,
            BackendKind::Columnar => BackendKind::Hash,
        };
        let moved = rel.clone().to_backend(other);
        prop_assert_eq!(moved.sorted_canonical(&interner), expected);
    }

    /// The view over a consumed relation's strided rows — in any order —
    /// renders byte for byte what the relation's own view renders: on both
    /// backends, for every arity up to six (the nullary one included) and
    /// any mix of sorts.
    #[test]
    fn the_rows_only_view_renders_like_the_relation_view(
        (interner, rel) in arb_mixed_relation_up_to(6),
        shuffle in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        let mut expected: Vec<u8> = Vec::new();
        rel.canonical_view(&interner).write_facts("p", &mut expected).unwrap();
        let rows = rel.clone().into_rows();
        prop_assert_eq!(rows.len(), rel.len());
        let mut tuples = scan(&rel);
        for shuffled in [false, true] {
            let rows: RowBuf = if shuffled {
                tuples.shuffle(&mut SmallRng::seed_from_u64(shuffle));
                tuples.iter().collect()
            } else {
                rows.clone()
            };
            let view = CanonicalView::of_rows(rows.rows(), &interner);
            let mut written: Vec<u8> = Vec::new();
            view.write_facts("p", &mut written).unwrap();
            prop_assert_eq!(&written, &expected);
            prop_assert_eq!(
                view.iter().map(Tuple::from).collect::<Vec<_>>(),
                rel.sorted_canonical(&interner)
            );
        }
    }

    /// Removal keeps the storage contract on both backends: what remains is
    /// the set a rebuild from the survivors holds, every indexed probe lists
    /// exactly what a filtered scan finds (in scan order), and the scan
    /// order is a pure function of the batch sequence — replaying the same
    /// inserts and removals gives the same order, though survivors may move.
    /// Also after a removed tuple comes back and a second removal follows.
    #[test]
    fn removal_leaves_what_a_rebuild_from_the_survivors_holds(
        batches in proptest::collection::vec(
            proptest::collection::vec((0i64..5, 0i64..6), 0..10), 1..4),
        doomed in proptest::collection::vec((0i64..6, 0i64..7), 0..12),
        columnar in any::<bool>(),
    ) {
        let pair = |&(a, b): &(i64, i64)| -> Tuple { vec![int(a), int(b)].into() };
        let kind = if columnar { BackendKind::Columnar } else { BackendKind::Hash };
        let indexes: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
        let doomed: Vec<Tuple> = doomed.iter().map(pair).collect();
        let back = |before: &[Tuple]| doomed.iter().find(|t| before.contains(t)).cloned();
        let domain: Vec<Tuple> =
            (0..6).flat_map(|a| (0..7).map(move |b| pair(&(a, b)))).collect();
        // The scan order after a step, once every indexed probe on every
        // key of the domain has listed exactly what a filtered scan finds.
        let scan = |rel: &Relation| {
            for t in &domain {
                for positions in indexes {
                    let key = t.project(positions);
                    let probed: Vec<&[Value]> = rel.probe(positions, &key).iter().collect();
                    let scanned: Vec<&[Value]> =
                        rel.rows().filter(|x| project(x, positions) == key).collect();
                    assert_eq!(probed, scanned, "{positions:?} {key:?}");
                }
            }
            scan(rel)
        };
        // The whole sequence: inserts, the removal, a removed tuple's
        // return and a removal of every other row. Each step's scan order.
        let replay = || {
            let mut rel = Relation::new_in(RelType::new(vec![Sort::I, Sort::I]), kind);
            for positions in indexes {
                rel.ensure_index(positions);
            }
            for batch in &batches {
                let batch: Vec<Tuple> = batch.iter().map(pair).collect();
                insert_batch(&mut rel, &batch, 1);
            }
            let mut orders = vec![scan(&rel)];
            let flags = remove_batch(&mut rel, &doomed);
            orders.push(scan(&rel));
            if let Some(back) = back(&orders[0]) {
                assert!(rel.insert(back).unwrap());
            }
            orders.push(scan(&rel));
            let halved: Vec<Tuple> = rel.rows().step_by(2).map(Tuple::from).collect();
            remove_batch(&mut rel, &halved);
            orders.push(scan(&rel));
            (rel, flags, orders)
        };
        let (rel, flags, orders) = replay();
        let before = &orders[0];

        // The batch may name absent tuples and repeat itself: a flag is set
        // for the first mention of a stored tuple only.
        for (i, (t, flag)) in doomed.iter().zip(&flags).enumerate() {
            prop_assert_eq!(*flag, before.contains(t) && !doomed[..i].contains(t));
        }
        let holds = |scanned: &[Tuple], expected: &[Tuple]| {
            let sorted = |ts: &[Tuple]| {
                let mut ts = ts.to_vec();
                ts.sort();
                ts
            };
            assert_eq!(sorted(scanned), sorted(expected));
        };
        let survivors: Vec<Tuple> =
            before.iter().filter(|t| !doomed.contains(t)).cloned().collect();
        holds(&orders[1], &survivors);
        let mut returned = survivors.clone();
        returned.extend(back(before));
        holds(&orders[2], &returned);
        let halved: Vec<&Tuple> = orders[2].iter().step_by(2).collect();
        let rest: Vec<Tuple> =
            orders[2].iter().filter(|t| !halved.contains(t)).cloned().collect();
        holds(&orders[3], &rest);

        prop_assert_eq!(rel.len(), rest.len());
        for t in &domain {
            prop_assert_eq!(rel.contains(t), rest.contains(t));
        }
        prop_assert_eq!(replay().2, orders, "the same sequence, another order");
    }

    /// The cached value summary is the uncached one: asked at random points
    /// of a random insert/retract/snapshot stream, on the database and on
    /// snapshots taken along the way (which share the cache until the
    /// database's next write), it always equals a pass made from scratch.
    #[test]
    fn cached_value_summary_equals_a_fresh_pass(
        ops in proptest::collection::vec((0u8..5, 0usize..3, 0i64..12), 0..40),
    ) {
        let mut db = Database::new();
        let mut snapshots: Vec<(Database, ValueSummary)> = Vec::new();
        for (op, pred, n) in ops {
            let name = ["p", "q", "r"][pred];
            // `p` holds integers, `q` symbols, `r` both.
            let t: Tuple = match pred {
                0 => vec![int(n)].into(),
                1 => vec![Value::Sym(db.interner().intern(&format!("s{}", n % 4)))].into(),
                _ => vec![Value::Sym(db.interner().intern("s0")), int(n % 3)].into(),
            };
            match op {
                0 | 1 => db.insert(name, t).unwrap(),
                2 => {
                    let _ = db.retract(name, &t);
                }
                3 => {
                    let truth = summary_by_hand(&db);
                    snapshots.push((db.clone(), truth));
                }
                _ => prop_assert_eq!(db.value_summary(), summary_by_hand(&db)),
            }
        }
        prop_assert_eq!(db.value_summary(), summary_by_hand(&db));
        for (snapshot, truth) in &snapshots {
            prop_assert_eq!(snapshot.value_summary(), *truth);
        }
    }

    /// A relation keeps its group index from one ID-relation build to the
    /// next and every write drops it: on both backends, after any sequence
    /// of insert and remove batches, every build — canonical at bounds
    /// none, 1, 2 and one above every group; seeded on two seeds — and
    /// every `group_by` equals the same on a fresh relation that replays
    /// the batches and has never been grouped: the same set in the same scan
    /// order. So does each build on a clone taken once the index existed,
    /// then and after later writes to the original.
    #[test]
    fn cached_id_relations_equal_builds_on_a_fresh_relation(
        steps in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0usize..3, 0usize..6), 0..6)), 1..12),
        columnar in any::<bool>(),
        by_member in any::<bool>(),
    ) {
        let interner = Interner::new();
        for name in NAMES.iter().rev() {
            interner.intern(name);
        }
        let kind = if columnar { BackendKind::Columnar } else { BackendKind::Hash };
        let positions: &[usize] = if by_member { &[1] } else { &[0] };
        let tuple = |&(g, m): &(usize, usize)| -> Tuple {
            vec![
                Value::Sym(interner.intern(NAMES[g])),
                Value::Sym(interner.intern(NAMES[m + 1])),
            ]
            .into()
        };
        let replay = |log: &[(bool, Vec<Tuple>)]| {
            let mut rel = Relation::new_in(RelType::elementary(2), kind);
            for (insert, batch) in log {
                if *insert {
                    insert_batch(&mut rel, batch, 1);
                } else {
                    remove_batch(&mut rel, batch);
                }
            }
            rel
        };
        // Every build, twice over on `rel` — the second reads the index
        // the first left — against one on a fresh replay each.
        let agree = |rel: &Relation, log: &[(bool, Vec<Tuple>)]| {
            let canonical = |r: &Relation, bound| {
                let built = canonical_id_relation(r, positions, &interner, bound).unwrap();
                (built.groups, scan(&built.relation))
            };
            let seeded = |r: &Relation, seed, bound| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let built =
                    random_id_relation(r, positions, &interner, &mut rng, bound).unwrap();
                (built.groups, scan(&built.relation))
            };
            let groups = |r: &Relation| {
                let g = group_by(r, positions, &interner);
                let rows = |k| g.rows(k).map(Tuple::from).collect::<Vec<_>>();
                (0..g.group_count()).map(rows).collect::<Vec<_>>()
            };
            for _ in 0..2 {
                for bound in [None, Some(1), Some(2), Some(7)] {
                    assert_eq!(canonical(rel, bound), canonical(&replay(log), bound));
                }
                for seed in [3, 11] {
                    for bound in [None, Some(2)] {
                        assert_eq!(seeded(rel, seed, bound), seeded(&replay(log), seed, bound));
                    }
                }
                assert_eq!(groups(rel), groups(&replay(log)));
                let canonical = IdAssignment::canonical(rel, positions, &interner);
                let fresh = IdAssignment::canonical(&replay(log), positions, &interner);
                assert_eq!(
                    (canonical.positions(), canonical.tids()),
                    (fresh.positions(), fresh.tids())
                );
            }
        };
        let mut rel = Relation::new_in(RelType::elementary(2), kind);
        let mut log: Vec<(bool, Vec<Tuple>)> = Vec::new();
        let mut clones: Vec<(Relation, usize)> = Vec::new();
        for (op, batch) in steps {
            let batch: Vec<Tuple> = batch.iter().map(tuple).collect();
            match op {
                0 => {
                    insert_batch(&mut rel, &batch, 1);
                    log.push((true, batch));
                }
                1 => {
                    remove_batch(&mut rel, &batch);
                    log.push((false, batch));
                }
                2 => agree(&rel, &log),
                _ => {
                    agree(&rel, &log);
                    let clone = rel.clone();
                    agree(&clone, &log);
                    clones.push((clone, log.len()));
                }
            }
        }
        agree(&rel, &log);
        for (clone, version) in &clones {
            agree(clone, &log[..*version]);
        }
    }

    /// Grouping is a partition: every tuple in exactly one group, keys match.
    #[test]
    fn grouping_partitions((interner, rel) in arb_relation(), by_first in any::<bool>()) {
        let positions: Vec<usize> = if by_first { vec![0] } else { vec![1] };
        let grouping = group_by(&rel, &positions, &interner);
        let mut seen = 0usize;
        let mut keys = BTreeSet::new();
        for g in 0..grouping.group_count() {
            let members: Vec<Tuple> = grouping.rows(g).map(Tuple::from).collect();
            prop_assert_eq!(members.len(), grouping.members(g).len());
            let key = members[0].project(&positions);
            for t in &members {
                prop_assert_eq!(&t.project(&positions), &key);
                prop_assert!(rel.contains(t));
                seen += 1;
            }
            prop_assert!(keys.insert(key), "one group per key");
        }
        prop_assert_eq!(seen, rel.len());
    }

    /// Every ID-assignment is a bijection group → {0..|g|−1}.
    #[test]
    fn assignments_are_bijective((interner, rel) in arb_relation()) {
        let grouping = group_by(&rel, &[0], &interner);
        for assignment in IdAssignmentIter::new(&rel, &[0], &interner).take(50) {
            // Read back off the ID-relation the assignment builds.
            let ids = make_id_relation(&rel, &assignment).unwrap();
            let tid_of: HashMap<Tuple, i64> = ids
                .rows()
                .map(|row| (Tuple::from(&row[..2]), row[2].as_int().unwrap()))
                .collect();
            for g in 0..grouping.group_count() {
                let mut tids: Vec<i64> =
                    grouping.rows(g).map(|t| tid_of[&Tuple::from(t)]).collect();
                tids.sort_unstable();
                let expect: Vec<i64> = (0..grouping.members(g).len() as i64).collect();
                prop_assert_eq!(tids, expect);
            }
        }
    }

    /// The enumerator yields exactly `count_id_functions` distinct
    /// assignments (when small enough to walk).
    #[test]
    fn enumeration_count_matches((interner, rel) in arb_relation()) {
        let count = count_id_functions(&rel, &[0], &interner);
        prop_assume!(count <= 200);
        let all: Vec<IdAssignment> = IdAssignmentIter::new(&rel, &[0], &interner).collect();
        prop_assert_eq!(all.len() as u128, count);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
    }

    /// The bounded enumerator yields exactly the falling-factorial count,
    /// and every arrangement's tid-0 row set appears among the full
    /// enumeration's.
    #[test]
    fn bounded_enumeration_is_sound((interner, rel) in arb_relation(), k in 1usize..3) {
        let count = count_bounded_assignments(&rel, &[0], k, &interner);
        prop_assume!(count <= 300);
        let bounded: Vec<IdAssignment> =
            BoundedAssignmentIter::new(&rel, &[0], k, &interner).collect();
        prop_assert_eq!(bounded.len() as u128, count);

        // Prefix-distinctness: no two arrangements agree on all tids < k.
        let prefix = |a: &IdAssignment| -> Vec<(Tuple, i64)> {
            let tids = tids_of(&rel, a, &interner);
            let mut v: Vec<(Tuple, i64)> = rel
                .iter()
                .filter_map(|t| {
                    let tid = tids[t];
                    (tid < k as i64).then(|| (t.clone(), tid))
                })
                .collect();
            v.sort();
            v
        };
        let mut prefixes: Vec<_> = bounded.iter().map(prefix).collect();
        prefixes.sort();
        let before = prefixes.len();
        prefixes.dedup();
        prop_assert_eq!(prefixes.len(), before, "arrangements must differ on tids < k");
    }

    /// Completeness of the bounded walk: every full assignment's k-prefix is
    /// realized by some arrangement.
    #[test]
    fn bounded_enumeration_is_complete((interner, rel) in arb_relation(), k in 1usize..3) {
        prop_assume!(count_id_functions(&rel, &[0], &interner) <= 120);
        let prefix = |a: &IdAssignment| -> Vec<(Tuple, i64)> {
            let tids = tids_of(&rel, a, &interner);
            let mut v: Vec<(Tuple, i64)> = rel
                .iter()
                .filter_map(|t| {
                    let tid = tids[t];
                    (tid < k as i64).then(|| (t.clone(), tid))
                })
                .collect();
            v.sort();
            v
        };
        let bounded_prefixes: Vec<_> = BoundedAssignmentIter::new(&rel, &[0], k, &interner)
            .map(|a| prefix(&a))
            .collect();
        for full in IdAssignmentIter::new(&rel, &[0], &interner) {
            prop_assert!(bounded_prefixes.contains(&prefix(&full)));
        }
    }

    /// Materialized ID-relations have the right shape: same cardinality,
    /// arity+1, and stripping tids recovers the base relation.
    #[test]
    fn id_relation_shape((interner, rel) in arb_relation()) {
        let assignment = IdAssignment::canonical(&rel, &[0], &interner);
        let idrel = make_id_relation(&rel, &assignment).unwrap();
        prop_assert_eq!(idrel.len(), rel.len());
        prop_assert_eq!(idrel.arity(), rel.arity() + 1);
        let tids = tids_of(&rel, &assignment, &interner);
        for t in scan(&idrel) {
            let base = t.project(&[0, 1]);
            prop_assert!(rel.contains(&base));
            prop_assert_eq!(t[2], int(tids[&base]));
        }
        // In the base's scan order.
        let bases: Vec<Tuple> = scan(&idrel).iter().map(|t| t.project(&[0, 1])).collect();
        prop_assert_eq!(bases, scan(&rel));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A hash relation at growth scale: a few thousand tuples through
    /// interleaved insert and remove batches, enough to double the
    /// membership table many times and to remove from long clusters. After
    /// every batch the relation is the `BTreeSet` model: the fresh rows (in
    /// batch order) and the removal flags say what the model gained or
    /// lost, `len` and `contains` agree with it, a scan lists it, and every
    /// indexed probe lists what a filtered scan finds, in scan order.
    #[test]
    fn interleaved_batches_at_growth_scale_match_a_set_model(
        batches in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0i64..64, 0i64..64), 0..1000)),
            1..10,
        ),
    ) {
        let pair = |&(a, b): &(i64, i64)| -> Tuple { vec![int(a), int(b)].into() };
        let domain: Vec<Tuple> =
            (0..64).flat_map(|a| (0..64).map(move |b| pair(&(a, b)))).collect();
        let indexes: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
        let mut rel = Relation::new(RelType::new(vec![Sort::I, Sort::I]));
        for positions in indexes {
            rel.ensure_index(positions);
        }
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        for (kind, batch) in batches {
            let batch: Vec<Tuple> = batch.iter().map(pair).collect();
            // Two insert batches to one removal: the relation grows.
            if kind < 2 {
                let want: Vec<Tuple> =
                    batch.iter().filter(|t| model.insert((*t).clone())).cloned().collect();
                let (fresh, _) = insert_batch(&mut rel, &batch, 1);
                prop_assert_eq!(fresh.rows().iter().map(Tuple::from).collect::<Vec<_>>(), want);
            } else {
                let want: Vec<bool> = batch.iter().map(|t| model.remove(t)).collect();
                prop_assert_eq!(remove_batch(&mut rel, &batch), want);
            }
            prop_assert_eq!(rel.len(), model.len());
            for t in &domain {
                prop_assert_eq!(rel.contains(t), model.contains(t));
            }
            let scanned: Vec<&[Value]> = rel.rows().collect();
            prop_assert_eq!(
                scanned.iter().copied().map(Tuple::from).collect::<BTreeSet<Tuple>>(),
                model.clone()
            );
            prop_assert_eq!(scanned.len(), model.len());
            for positions in indexes {
                let mut filtered: BTreeMap<Tuple, Vec<&[Value]>> = BTreeMap::new();
                for &t in &scanned {
                    filtered.entry(project(t, positions)).or_default().push(t);
                }
                for t in &domain {
                    let key = t.project(positions);
                    let probed: Vec<&[Value]> = rel.probe(positions, &key).iter().collect();
                    prop_assert_eq!(
                        probed,
                        filtered.get(&key).cloned().unwrap_or_default(),
                        "{:?} {:?}", positions, key
                    );
                }
            }
        }
    }
}

/// Strided relations of arity `arity`: even columns of sort `i`, odd ones
/// of sort `u`, each value one of four.
fn strided_tuple(interner: &Interner, arity: usize, picks: &[usize]) -> Tuple {
    (0..arity)
        .map(|c| match c % 2 {
            0 => int([0, 1, 7, i64::MAX][picks[c]]),
            _ => Value::Sym(interner.intern(NAMES[picks[c]])),
        })
        .collect()
}

proptest! {
    /// The strided store at every arity from 0 to 5 (nullary included), on
    /// both backends, against a `BTreeSet` model, through random point
    /// inserts, delta batches in several segments and removal batches.
    /// After every step: the fresh rows are the model's gains in batch
    /// order (first occurrence winning) and each segment's count is its
    /// share of them; the removal flags are the model's losses; `len`,
    /// `contains` and a scan agree with the model; a lookup by tuple and by
    /// its row agree, and a probe on every column finds the row itself;
    /// every indexed probe lists what a filtered scan finds, in scan order;
    /// `Relation::iter` lists the tuples of `Relation::rows`, in order; and
    /// the view over the consumed rows renders byte for byte what the
    /// relation's view renders.
    #[test]
    fn strided_store_matches_a_set_model_at_every_arity(
        arity in 0usize..6,
        steps in proptest::collection::vec(
            (0u8..3, 1usize..4, proptest::collection::vec(proptest::collection::vec(0usize..4, 5), 0..12)),
            1..8,
        ),
        columnar in any::<bool>(),
    ) {
        let interner = Interner::new();
        for name in NAMES.iter().rev() {
            interner.intern(name);
        }
        let sorts: Vec<Sort> = (0..arity).map(|c| if c % 2 == 0 { Sort::I } else { Sort::U }).collect();
        let kind = if columnar { BackendKind::Columnar } else { BackendKind::Hash };
        let mut rel = Relation::new_in(RelType::new(sorts), kind);
        // Every single column and, when there are two, the first two.
        let mut indexes: Vec<Vec<usize>> = (0..arity).map(|c| vec![c]).collect();
        if arity >= 2 {
            indexes.push(vec![0, 1]);
        }
        for positions in &indexes {
            rel.ensure_index(positions);
        }
        let all: Vec<usize> = (0..arity).collect();
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        let mut seen: BTreeSet<Tuple> = BTreeSet::new();
        for (op, segments, picks) in steps {
            let batch: Vec<Tuple> =
                picks.iter().map(|p| strided_tuple(&interner, arity, p)).collect();
            seen.extend(batch.iter().cloned());
            match op {
                0 => {
                    for t in &batch {
                        prop_assert_eq!(rel.insert(t.clone()).unwrap(), model.insert(t.clone()));
                    }
                }
                1 => {
                    let per = batch.len().div_ceil(segments).max(1);
                    let mut want = Vec::new();
                    let mut want_counts = Vec::new();
                    for piece in batch.chunks(per) {
                        let gained: Vec<Tuple> =
                            piece.iter().filter(|t| model.insert((*t).clone())).cloned().collect();
                        want_counts.push(gained.len());
                        want.extend(gained);
                    }
                    let (fresh, counts) = insert_batch(&mut rel, &batch, segments);
                    prop_assert_eq!(fresh.rows().iter().map(Tuple::from).collect::<Vec<_>>(), want);
                    prop_assert_eq!(counts, want_counts);
                }
                _ => {
                    let want: Vec<bool> = batch.iter().map(|t| model.remove(t)).collect();
                    prop_assert_eq!(remove_batch(&mut rel, &batch), want);
                }
            }
            prop_assert_eq!(rel.len(), model.len());
            for t in &seen {
                prop_assert_eq!(rel.contains(t), model.contains(t));
                prop_assert_eq!(rel.contains_row(t.values()), model.contains(t));
                let found: Vec<&[Value]> = rel.probe(&all, t).iter().collect();
                let want: Vec<&[Value]> = model.get(t).map(Tuple::values).into_iter().collect();
                prop_assert_eq!(found, want);
            }
            let scanned = scan(&rel);
            prop_assert_eq!(scanned.iter().cloned().collect::<BTreeSet<_>>(), model.clone());
            prop_assert_eq!(scanned.len(), model.len());
            prop_assert_eq!(rel.iter().cloned().collect::<Vec<_>>(), scanned.clone());
            for positions in &indexes {
                for t in &seen {
                    let key = t.project(positions);
                    let probed: Vec<&[Value]> = rel.probe(positions, &key).iter().collect();
                    let filtered: Vec<&[Value]> =
                        rel.rows().filter(|r| project(r, positions) == key).collect();
                    prop_assert_eq!(probed, filtered, "{:?} {:?}", positions, key);
                }
            }
            if arity > 0 && !rel.is_empty() {
                let assignment = IdAssignment::canonical(&rel, &[0], &interner);
                let ids = make_id_relation(&rel, &assignment).unwrap();
                let bases: BTreeSet<Tuple> =
                    ids.rows().map(|row| Tuple::from(&row[..arity])).collect();
                prop_assert_eq!(&bases, &model);
            }
            let mut expected: Vec<u8> = Vec::new();
            rel.canonical_view(&interner).write_facts("p", &mut expected).unwrap();
            let rows = rel.clone().into_rows();
            prop_assert_eq!(rows.len(), rel.len());
            let mut written: Vec<u8> = Vec::new();
            CanonicalView::of_rows(rows.rows(), &interner).write_facts("p", &mut written).unwrap();
            prop_assert_eq!(written, expected);
        }
    }
}

/// A render takes the interner's lock per chunk and reads names in place
/// from its arena, which another thread's interning grows meanwhile: the
/// bytes do not change.
#[test]
fn a_render_beside_interning_gives_the_same_bytes() {
    let interner = Interner::new();
    let mut rel = Relation::elementary(2);
    for n in 0..20_000 {
        let t: Tuple = vec![
            Value::Sym(interner.intern(&format!("shared_prefix_{}", n % 97))),
            Value::Sym(interner.intern(&format!("member_{n}_\u{e9}"))),
        ]
        .into();
        rel.insert(t).unwrap();
    }
    let view = rel.canonical_view(&interner);
    let render = || {
        let mut facts: Vec<u8> = Vec::new();
        view.write_facts("p", &mut facts).unwrap();
        (facts, view.render_rows(","))
    };
    let before = render();
    assert!(before.0.len() > 4 * 64 * 1024, "several chunks");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let interning = s.spawn(|| {
            let mut n = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                interner.intern(&format!("late_{n}"));
                n += 1;
            }
            n
        });
        for _ in 0..5 {
            assert!(
                render() == before,
                "a render changed while names were interned"
            );
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(interning.join().unwrap() > 0);
    });
    assert_eq!(render(), before);
}
