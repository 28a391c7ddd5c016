//! Property tests for the storage substrate: relation set semantics,
//! insertion-order stability, index/linear-scan agreement, and value
//! round-trips.

use proptest::prelude::*;

use separable::ast::Sym;
use separable::storage::index::Index;
use separable::storage::relation::Relation;
use separable::storage::tuple::Tuple;
use separable::storage::value::{Value, INT_MIN};
use separable::storage::Database;

fn tuple2(a: u32, b: u32) -> Tuple {
    Tuple::from([Value::sym(Sym(a)), Value::sym(Sym(b))])
}

proptest! {
    /// Relation behaves as a set: size, membership, and idempotent insert
    /// all agree with a reference BTreeSet.
    #[test]
    fn relation_matches_reference_set(pairs in proptest::collection::vec((0u32..30, 0u32..30), 0..200)) {
        let mut relation = Relation::new(2);
        let mut reference = std::collections::BTreeSet::new();
        for &(a, b) in &pairs {
            let was_new = relation.insert(tuple2(a, b));
            let ref_new = reference.insert((a, b));
            prop_assert_eq!(was_new, ref_new);
            prop_assert_eq!(relation.len(), reference.len());
        }
        for &(a, b) in &pairs {
            prop_assert!(relation.contains(&tuple2(a, b)));
        }
        prop_assert!(!relation.contains(&tuple2(99, 99)));
    }

    /// Insertion order is first-occurrence order.
    #[test]
    fn relation_preserves_first_occurrence_order(pairs in proptest::collection::vec((0u32..10, 0u32..10), 0..100)) {
        let mut relation = Relation::new(2);
        let mut expected = Vec::new();
        for &(a, b) in &pairs {
            if relation.insert(tuple2(a, b)) {
                expected.push((a, b));
            }
        }
        let got: Vec<(u32, u32)> = relation
            .iter()
            .map(|t| (t[0].as_sym().unwrap().0, t[1].as_sym().unwrap().0))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Union is commutative and monotone in size.
    #[test]
    fn union_laws(
        xs in proptest::collection::vec((0u32..15, 0u32..15), 0..60),
        ys in proptest::collection::vec((0u32..15, 0u32..15), 0..60),
    ) {
        let a = Relation::from_tuples(2, xs.iter().map(|&(x, y)| tuple2(x, y)));
        let b = Relation::from_tuples(2, ys.iter().map(|&(x, y)| tuple2(x, y)));
        let mut ab = a.clone();
        ab.union_in_place(&b);
        let mut ba = b.clone();
        ba.union_in_place(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.len() >= a.len().max(b.len()));
        prop_assert!(ab.len() <= a.len() + b.len());
    }

    /// Index probing returns exactly the tuples a linear filter returns,
    /// in the same (insertion) order, for any key column subset.
    #[test]
    fn index_agrees_with_linear_scan(
        triples in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8), 1..120),
        key_cols in proptest::sample::subsequence(vec![0usize, 1, 2], 1..=3),
        probe in (0u32..8, 0u32..8, 0u32..8),
    ) {
        let relation = Relation::from_tuples(
            3,
            triples.iter().map(|&(a, b, c)| {
                Tuple::from([Value::sym(Sym(a)), Value::sym(Sym(b)), Value::sym(Sym(c))])
            }),
        );
        let index = Index::build(&relation, key_cols.clone());
        let probe_vals = [Value::sym(Sym(probe.0)), Value::sym(Sym(probe.1)), Value::sym(Sym(probe.2))];
        let key: Vec<Value> = key_cols.iter().map(|&c| probe_vals[c]).collect();
        let via_index: Vec<Tuple> = index.probe(&relation, &key).map(|t| t.to_tuple()).collect();
        let via_scan: Vec<Tuple> = relation
            .iter()
            .filter(|t| key_cols.iter().zip(&key) .all(|(&c, v)| &t[c] == v))
            .map(|t| t.to_tuple())
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    /// Value round-trips integers across the whole representable range.
    #[test]
    fn value_int_roundtrip(n in INT_MIN..(1i64 << 62) - 1) {
        let v = Value::int(n).unwrap();
        prop_assert_eq!(v.as_int(), Some(n));
        prop_assert!(v.as_sym().is_none());
    }
}

/// A value for the mixed-column tests: small symbols and integers of
/// either sign, so the tagged integer space sorts against the symbol space.
fn mixed_value(n: i64) -> Value {
    if n % 3 == 0 {
        Value::int(n - 12).unwrap()
    } else {
        Value::sym(Sym(n as u32))
    }
}

proptest! {
    /// `insert_from(row)` is `insert_row(&row.to_vec())` — same return
    /// value, contents, order and maintained statistics — whatever the
    /// compaction epochs of the two relations.
    #[test]
    fn insert_from_equals_insert_row(
        source_rows in proptest::collection::vec((0i64..12, 0i64..12, 0i64..4), 0..80),
        target_rows in proptest::collection::vec((0i64..12, 0i64..12, 0i64..4), 0..40),
        drop_source in 0usize..4,
        drop_target in 0usize..4,
    ) {
        let build = |rows: &[(i64, i64, i64)], with_stats: bool, drop: usize| {
            let mut rel = if with_stats { Relation::with_stats(3) } else { Relation::new(3) };
            for &(a, b, c) in rows {
                rel.insert_row(&[mixed_value(a), mixed_value(b), mixed_value(c)]);
            }
            // Retract a prefix so the relation sits in a later epoch.
            let doomed: Vec<Tuple> = rel.iter().take(drop).map(|r| r.to_tuple()).collect();
            rel.remove_batch(&doomed);
            rel
        };
        let source = build(&source_rows, false, drop_source);
        for with_stats in [false, true] {
            let mut by_view = build(&target_rows, with_stats, drop_target);
            let mut by_values = by_view.clone();
            for row in source.iter() {
                prop_assert_eq!(by_view.insert_from(row), by_values.insert_row(&row.to_vec()));
            }
            let rows = |r: &Relation| r.iter().map(|row| row.to_tuple()).collect::<Vec<_>>();
            prop_assert_eq!(rows(&by_view), rows(&by_values));
            prop_assert_eq!(by_view.stats(), by_values.stats());
            prop_assert_eq!(by_view.stats().is_some(), with_stats);
            prop_assert!(source.iter().all(|row| by_view.contains_row(row)));
        }
    }

    /// `sorted()` is the same set in ascending `Tuple` order with a working
    /// probe table and the cached hashes of freshly hashed rows.
    #[test]
    fn sorted_is_the_ascending_set(
        arity in proptest::sample::select(vec![0usize, 1, 2, 5]),
        rows in proptest::collection::vec(proptest::collection::vec(0i64..9, 5), 0..120),
        absent in proptest::collection::vec(0i64..9, 5),
    ) {
        let row_of = |r: &Vec<i64>| r[..arity].iter().map(|&n| mixed_value(n)).collect::<Vec<_>>();
        let mut source = Relation::new(arity);
        for r in &rows {
            source.insert_row(&row_of(r));
        }
        let mut sorted = source.sorted();
        let expected: Vec<Tuple> = source
            .iter()
            .map(|r| r.to_tuple())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let got: Vec<Tuple> = sorted.iter().map(|r| r.to_tuple()).collect();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(&sorted, &source);
        prop_assert!(sorted.stats().is_none());
        let absent = Tuple::from(row_of(&absent));
        prop_assert_eq!(sorted.contains(&absent), source.contains(&absent));
        for t in &expected {
            // Probing by value hashes afresh; probing `source` by view and
            // re-inserting use the gathered hash — all three must agree.
            prop_assert!(sorted.contains(t));
            prop_assert!(!sorted.clone().insert(t.clone()));
        }
        prop_assert!(sorted.iter().all(|row| source.contains_row(row)));
        // The rebuilt table keeps working as the relation grows past it.
        for n in (100..140).filter(|_| arity > 0) {
            prop_assert!(sorted.insert_row(&vec![Value::int(n).unwrap(); arity]));
        }
        prop_assert!(expected.iter().all(|t| sorted.contains(t)));
    }
}

/// `sorted()` on the edge shapes: empty, one row, the unit relation.
#[test]
fn sorted_handles_empty_and_single_row_relations() {
    for arity in [0, 1, 2, 5] {
        let empty = Relation::new(arity).sorted();
        assert!(empty.is_empty() && empty.arity() == arity);
        let mut one = Relation::new(arity);
        one.insert_row(&vec![Value::int(-3).unwrap(); arity]);
        let sorted = one.sorted();
        assert_eq!(sorted, one);
        assert_eq!(sorted.iter().next().unwrap().to_tuple(), one.iter().next().unwrap().to_tuple());
    }
}

/// Incremental index extension equals a fresh build.
#[test]
fn incremental_index_equals_rebuild() {
    let mut relation = Relation::new(2);
    for i in 0..50 {
        relation.insert(tuple2(i % 7, i));
    }
    let mut incremental = Index::build(&relation, vec![0]);
    for i in 50..200 {
        relation.insert(tuple2(i % 7, i));
    }
    incremental.extend_to(&relation);
    let fresh = Index::build(&relation, vec![0]);
    for key in 0..7u32 {
        let k = [Value::sym(Sym(key))];
        let a: Vec<Tuple> = incremental.probe(&relation, &k).map(|t| t.to_tuple()).collect();
        let b: Vec<Tuple> = fresh.probe(&relation, &k).map(|t| t.to_tuple()).collect();
        assert_eq!(a, b, "key {key}");
    }
}

/// Databases deduplicate across all load paths.
#[test]
fn database_load_paths_deduplicate() {
    let mut db = Database::new();
    db.insert_named("e", &["a", "b"]).unwrap();
    db.load_fact_text("e(a, b). e(b, c).").unwrap();
    let e = db.intern("e");
    assert_eq!(db.relation(e).unwrap().len(), 2);
}
