//! Property-based tests for the foundation types.

use proptest::prelude::*;

use idlog_common::{FxBuildHasher, Interner, Nat, RelType, SymbolId, Tuple, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..64).prop_map(|n| Value::Sym(SymbolId(n))),
        (0i64..1000).prop_map(|n| Value::Int(Nat::new(n).unwrap())),
    ]
}

/// Naturals across the whole range: the edges of [`Nat`]'s two halves, and
/// arbitrary 63-bit numbers.
fn arb_natural() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(u32::MAX as i64),
        Just(1i64 << 32),
        Just(i64::MAX),
        0i64..3,
        any::<u64>().prop_map(|bits| (bits >> 1) as i64),
        any::<u32>().prop_map(i64::from),
    ]
}

/// The value model before naturals were packed: same variants, same
/// derives, a plain `i64` payload. Its derived order and hash are what
/// [`Value`]'s must still be, so hash-map iteration orders are unchanged.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
enum WideValue {
    Sym(SymbolId),
    Int(i64),
}

fn arb_wide_value() -> impl Strategy<Value = (Value, WideValue)> {
    prop_oneof![
        prop_oneof![0u32..3, any::<u32>()]
            .prop_map(|n| (Value::Sym(SymbolId(n)), WideValue::Sym(SymbolId(n)))),
        arb_natural().prop_map(|n| (Value::Int(Nat::new(n).unwrap()), WideValue::Int(n))),
    ]
}

/// `Nat` holds exactly `0..=i64::MAX`, across the boundary of its halves.
#[test]
fn nat_round_trips_the_naturals_and_refuses_negatives() {
    for n in [0, 1, u32::MAX as i64, 1 << 32, (1 << 32) + 1, i64::MAX] {
        assert_eq!(Nat::new(n).map(Nat::get), Some(n));
        assert_eq!(Nat::new(n).unwrap().to_string(), n.to_string());
    }
    for n in [-1, -(1 << 32), i64::MIN] {
        assert_eq!(Nat::new(n), None);
    }
    assert_eq!(Nat::ZERO.get(), 0);
}

fn arb_tuple(max_arity: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..=max_arity).prop_map(Tuple::from)
}

proptest! {
    /// Interning is idempotent and resolution is the left inverse.
    #[test]
    fn intern_resolve_roundtrip(names in proptest::collection::vec("[a-z][a-z0-9_]{0,12}", 1..20)) {
        let interner = Interner::new();
        let ids: Vec<_> = names.iter().map(|n| interner.intern(n)).collect();
        for (name, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(interner.intern(name), id);
            prop_assert_eq!(interner.resolve(id), name.clone());
        }
    }

    /// `cmp_by_name` agrees with string comparison regardless of interning
    /// order.
    #[test]
    fn cmp_by_name_matches_strings(a in "[a-z]{1,8}", b in "[a-z]{1,8}", swap in any::<bool>()) {
        let interner = Interner::new();
        let (first, second) = if swap { (&b, &a) } else { (&a, &b) };
        let ia = interner.intern(first);
        let ib = interner.intern(second);
        prop_assert_eq!(interner.cmp_by_name(ia, ib), first.cmp(second));
    }

    /// Projection keeps exactly the requested positions in order.
    #[test]
    fn projection_selects_positions(t in arb_tuple(6), seed in any::<u64>()) {
        if t.arity() == 0 { return Ok(()); }
        // Derive a pseudo-random position list from the seed.
        let positions: Vec<usize> =
            (0..t.arity()).filter(|i| (seed >> i) & 1 == 1).collect();
        let p = t.project(&positions);
        prop_assert_eq!(p.arity(), positions.len());
        for (k, &pos) in positions.iter().enumerate() {
            prop_assert_eq!(p[k], t[pos]);
        }
    }

    /// Appending increases arity by one and preserves the prefix.
    #[test]
    fn with_appended_preserves_prefix(t in arb_tuple(6), v in arb_value()) {
        let t2 = t.with_appended(v);
        prop_assert_eq!(t2.arity(), t.arity() + 1);
        prop_assert_eq!(&t2.values()[..t.arity()], t.values());
        prop_assert_eq!(t2[t.arity()], v);
    }

    /// `Value`'s derived order is the old (variant, payload) order: every
    /// symbol first, then naturals by number.
    #[test]
    fn value_order_is_the_wide_order(
        (a, wa) in arb_wide_value(),
        (b, wb) in arb_wide_value(),
    ) {
        prop_assert_eq!(a.cmp(&b), wa.cmp(&wb));
        prop_assert_eq!(a == b, wa == wb);
    }

    /// `Value`'s Fx hash is the old derived formula's, bit for bit.
    #[test]
    fn value_hash_is_the_wide_hash((v, wide) in arb_wide_value()) {
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        prop_assert_eq!(h.hash_one(v), h.hash_one(&wide));
        prop_assert_eq!(h.hash_one([v, v]), h.hash_one([&wide, &wide]));
    }

    /// RelType survives a display/parse roundtrip.
    #[test]
    fn reltype_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..12)) {
        let sorts: Vec<idlog_common::Sort> = bits
            .iter()
            .map(|&b| if b { idlog_common::Sort::I } else { idlog_common::Sort::U })
            .collect();
        let t = RelType::new(sorts);
        let reparsed: RelType = t.to_string().parse().unwrap();
        prop_assert_eq!(t, reparsed);
    }

    /// Equal tuples hash equally under Fx (sanity for set semantics).
    #[test]
    fn equal_tuples_hash_equal(t in arb_tuple(5)) {
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        let t2 = t.clone();
        prop_assert_eq!(h.hash_one(&t), h.hash_one(&t2));
    }

    /// A tuple is its value slice, whichever way it is stored: up to three
    /// columns inline, more behind a box. Arity 0–6 crosses that boundary,
    /// and across it every constructor, comparison, hash and derived tuple
    /// agrees with the plain `Vec<Value>` it was built from.
    #[test]
    fn tuple_agrees_with_a_vec_model_across_the_inline_boundary(
        a in proptest::collection::vec(arb_value(), 0..=6),
        b in proptest::collection::vec(arb_value(), 0..=6),
        v in arb_value(),
        seed in any::<u64>(),
    ) {
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        let built = |model: &Vec<Value>| -> [Tuple; 4] {
            [
                Tuple::from(model.clone()),
                model.iter().copied().collect(),
                Tuple::new(model.clone()),
                Tuple::new(model.as_slice()),
            ]
        };
        // One value whatever the constructor.
        let (ta, tb) = (built(&a), built(&b));
        for t in &ta {
            prop_assert_eq!(t.values(), a.as_slice());
            prop_assert_eq!(t.arity(), a.len());
            prop_assert_eq!(t, &ta[0]);
            prop_assert_eq!(h.hash_one(t), h.hash_one(a.as_slice()));
            prop_assert_eq!(t.clone(), ta[0].clone());
            for i in 0..=a.len() {
                prop_assert_eq!(t.get(i), a.get(i).copied());
            }
        }
        let (ta, tb) = (&ta[0], &tb[0]);
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(tb), a.cmp(&b));
        prop_assert_eq!(ta.partial_cmp(tb), a.partial_cmp(&b));

        let interner = Interner::new();
        for n in 0..64 { interner.intern(&format!("s{}", 63 - n)); }
        let by_name = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.cmp_canonical(*y, &interner))
            .find(|o| o.is_ne())
            .unwrap_or(a.len().cmp(&b.len()));
        prop_assert_eq!(ta.cmp_canonical(tb, &interner), by_name);

        // Derived tuples land on whichever side of the boundary they belong.
        let mut longer = a.clone();
        longer.push(v);
        prop_assert_eq!(ta.with_appended(v), Tuple::from(longer));
        if !a.is_empty() {
            let positions: Vec<usize> =
                (0..8).map(|k| ((seed >> (8 * k)) as usize) % a.len()).take(seed as usize % 8).collect();
            let projected: Vec<Value> = positions.iter().map(|&p| a[p]).collect();
            prop_assert_eq!(ta.project(&positions), Tuple::from(projected));
        }
        prop_assert_eq!(std::mem::size_of::<Tuple>(), 32);
    }

    /// Canonical tuple comparison is a total order consistent with equality.
    #[test]
    fn cmp_canonical_is_consistent(a in arb_tuple(4), b in arb_tuple(4)) {
        let interner = Interner::new();
        // Ensure all symbol ids resolve: re-intern names for ids used.
        for _ in 0..64 { interner.intern(&format!("s{}", interner.len())); }
        let ab = a.cmp_canonical(&b, &interner);
        let ba = b.cmp_canonical(&a, &interner);
        prop_assert_eq!(ab, ba.reverse());
        if a == b {
            prop_assert_eq!(ab, std::cmp::Ordering::Equal);
        }
    }
}
