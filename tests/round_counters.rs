//! Pins the work counters of every engine that runs delta rounds, at
//! `threads = 1`, on small fixed programs.
//!
//! The numbers were captured at the commit *before* the engines were moved
//! onto the one `delta_round` (PR 12) and must not move: the benchmark's
//! `tuples_per_op` metric has a 2 % bound and is built from exactly these
//! counters, so a refactor that changes how many rows a round scans, how
//! many inserts it attempts, or how many iterations a fixpoint takes shows
//! up here first — deterministically, in well under a second.

use separable::ast::{parse_program, parse_query};
use separable::core::detect::detect_in_program;
use separable::core::evaluate::SeparableEvaluator;
use separable::core::exec::ExtraRelations;
use separable::eval::{maintain, seminaive, EvalOptions};
use separable::rewrite::magic_evaluate;
use separable::storage::{Database, EdbDelta, EvalStats, Tuple, Value};

/// `(iterations, tuples_inserted, insert_attempts, rows_scanned)`.
fn counters(stats: &EvalStats) -> (usize, usize, usize, usize) {
    (stats.iterations, stats.tuples_inserted, stats.insert_attempts, stats.rows_scanned)
}

/// A 12-node ring with three chords: cyclic, so every closure revisits
/// tuples it has already seen and `attempts > inserted`.
fn ring_facts(pred: &str) -> String {
    let mut facts = String::new();
    for i in 0..12 {
        facts.push_str(&format!("{pred}(n{i}, n{}). ", (i + 1) % 12));
    }
    facts.push_str(&format!("{pred}(n0, n5). {pred}(n3, n9). {pred}(n7, n2). "));
    facts
}

const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n";

fn load(program_src: &str, facts: &str) -> (separable::Program, Database) {
    let mut db = Database::new();
    db.load_fact_text(facts).unwrap();
    let program = parse_program(program_src, db.interner_mut()).unwrap();
    (program, db)
}

#[test]
fn seminaive_positive_closure() {
    let (program, db) = load(TC, &ring_facts("e"));
    let derived = seminaive(&program, &db).unwrap();
    assert_eq!(counters(&derived.stats), (9, 144, 195, 339));
}

#[test]
fn seminaive_recursive_min_stratum() {
    // A weighted DAG with a longer-but-cheaper detour, so the min improves
    // after its first derivation; `far` reads the completed min stratum.
    let src = "shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
               shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n\
               far(Y) :- shortest(Y, C), !near(Y).\n";
    let facts = "source(a). near(b). \
                 w(a, b, 1). w(a, c, 9). w(b, c, 2). w(c, d, 1). w(b, d, 7). \
                 w(d, e, 1). w(a, e, 20). w(e, f, 3). w(c, f, 9).";
    let (program, db) = load(src, facts);
    let derived = seminaive(&program, &db).unwrap();
    assert_eq!(counters(&derived.stats), (5, 15, 18, 36));
}

/// Counters of the Separable algorithm answering `query_src` on `buys`.
fn separable_counters(
    program_src: &str,
    facts: &str,
    query_src: &str,
) -> (usize, usize, usize, usize) {
    let (program, mut db) = load(program_src, facts);
    let buys = db.intern("buys");
    let sep = detect_in_program(&program, buys, db.interner_mut()).unwrap();
    let query = parse_query(query_src, db.interner_mut()).unwrap();
    let outcome =
        SeparableEvaluator::new(sep).evaluate(&query, &db, &ExtraRelations::default()).unwrap();
    counters(&outcome.stats)
}

#[test]
fn separable_class_selection() {
    // Example 1.2's shape: two classes, so both closures iterate.
    let src = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
               buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
               buys(X, Y) :- perfectFor(X, Y).\n";
    let mut facts = ring_facts("friend");
    for i in 0..12 {
        facts.push_str(&format!("perfectFor(n{i}, g{}). ", i % 4));
    }
    facts.push_str("cheaper(g1, g0). cheaper(g2, g1). cheaper(g3, g2). cheaper(g0, g3). ");
    assert_eq!(separable_counters(src, &facts, "buys(n0, Y)?"), (8, 23, 31, 59));
}

#[test]
fn separable_persistent_selection() {
    // Example 1.1's shape: column 1 is persistent, so the constants are
    // baked into the seed and only phase 2 iterates.
    let src = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
               buys(X, Y) :- idol(X, W), buys(W, Y).\n\
               buys(X, Y) :- perfectFor(X, Y).\n";
    let mut facts = ring_facts("friend");
    facts.push_str("idol(n2, n8). idol(n8, n4). perfectFor(n6, widget). perfectFor(n1, gadget). ");
    assert_eq!(separable_counters(src, &facts, "buys(X, widget)?"), (6, 17, 18, 42));
}

#[test]
fn magic_sets_on_same_generation() {
    let src = "sg(X, Y) :- flat(X, Y).\n\
               sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n";
    let mut facts = String::new();
    // A binary tree of depth 3 below r, mirrored for `down`.
    for i in 1..8 {
        for c in [2 * i, 2 * i + 1] {
            facts.push_str(&format!("up(v{c}, v{i}). down(v{i}, v{c}). "));
        }
    }
    facts.push_str("flat(v1, v1). flat(v2, v3). flat(v3, v2). ");
    let (program, mut db) = load(src, &facts);
    let query = parse_query("sg(v8, Y)?", db.interner_mut()).unwrap();
    let outcome = magic_evaluate(&program, &query, &db).unwrap();
    assert_eq!(counters(&outcome.stats), (8, 19, 20, 61));
}

fn sym_tuple(db: &mut Database, names: &[&str]) -> Tuple {
    Tuple::from(names.iter().map(|n| Value::sym(db.intern(n))).collect::<Vec<Value>>())
}

/// Runs [`maintain`] for a single-tuple insert or retract of `e` over the
/// ring closure and returns its counters.
fn maintain_counters(edge: [&str; 2], retract: bool) -> (usize, usize, usize, usize) {
    let (program, mut db) = load(TC, &ring_facts("e"));
    let old = seminaive(&program, &db).unwrap();
    let db_before = db.clone();
    let e = db.intern("e");
    let mut delta = EdbDelta::default();
    let tuples = vec![sym_tuple(&mut db, &edge)];
    if retract {
        delta.remove.insert(e, tuples);
    } else {
        delta.insert.insert(e, tuples);
    }
    let effective = db.apply_delta(&delta).unwrap();
    // One-sided deltas: the "mid" snapshot (retractions applied) is the
    // before state for an insert and the after state for a retract.
    let db_mid = if retract { &db } else { &db_before };
    let incr = maintain(
        &program,
        &db_before,
        db_mid,
        &db,
        &old.relations,
        &effective,
        &EvalOptions::default(),
    )
    .unwrap();
    assert_eq!(incr.relations, seminaive(&program, &db).unwrap().relations);
    counters(&incr.stats)
}

#[test]
fn maintain_one_insert() {
    // A 13th node hanging off the ring: 12 new closure tuples.
    assert_eq!(maintain_counters(["n4", "n12"], false), (10, 12, 16, 29));
}

#[test]
fn maintain_one_retract() {
    // Cutting a ring edge over-deletes most of the closure; the chords
    // rederive part of it.
    assert_eq!(maintain_counters(["n10", "n11"], true), (15, 231, 302, 534));
}

#[test]
fn seminaive_count_and_sum_strata() {
    // Non-recursive aggregate strata over the cyclic closure (numbers
    // captured at the commit before the aggregate merge became a fold per
    // step, PR 22): every node reaches all twelve, so `fan` counts to 12 one
    // distinct row at a time, and `total` folds duplicate, zero and negative
    // contributions.
    let src = format!(
        "{TC}fan(X, count<Y>) :- t(X, Y).\n\
         total(X, sum<C>) :- t(X, Y), cost(Y, C).\n"
    );
    let mut facts = ring_facts("e");
    for (i, c) in [3, 0, 3, -2, 5, 7, 0, 5, 11, -2, 4, 1].iter().enumerate() {
        facts.push_str(&format!("cost(n{i}, {c}). "));
    }
    let (program, db) = load(&src, &facts);
    let derived = seminaive(&program, &db).unwrap();
    assert_eq!(counters(&derived.stats), (9, 372, 483, 639));
}
