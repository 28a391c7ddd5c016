//! The batch kernel against nested loops.
//!
//! `ConjPlan::run` expands chunks of partial matches breadth-first; the
//! plan it executes *denotes* nested loops, outermost scan first. This suite
//! holds the two together: for every conjunction below, over frontiers that
//! straddle every chunk boundary, the kernel must emit exactly the row
//! **sequence** of the loops (duplicates included) and count exactly the
//! tuples they consider — which is what keeps `rows_scanned`,
//! `insert_attempts` and every downstream insertion order where they were
//! when execution was tuple-at-a-time.

use separable::ast::{Interner, Term};
use separable::eval::{
    ConjPlan, IndexCache, PlanAtom, PlanLiteral, RelKey, RelStore, RowBuf, Step, TermSpec,
};
use separable::storage::{Relation, Value};

/// The reference: the plan's steps as plain nested loops over whole
/// relations, one tuple at a time, in relation order. Returns the tuples
/// considered; the rows go to `out`.
fn nested_loops(
    plan: &ConjPlan,
    store: &RelStore<'_>,
    step: usize,
    slots: &mut [Value],
    out: &mut Vec<Vec<Value>>,
) -> u64 {
    let at = |spec: &TermSpec, slots: &[Value]| match spec {
        TermSpec::Const(v) => *v,
        TermSpec::Slot(s) => slots[*s],
    };
    let sum = |a: Value, b: Value| Value::int(a.as_int()?.checked_add(b.as_int()?)?).ok();
    let mut scanned = 0;
    let (bind, pass) = match plan.steps.get(step) {
        None => {
            out.push(plan.output.iter().map(|s| at(s, slots)).collect());
            return 0;
        }
        Some(Step::Scan { rel, key_cols, key, binds, same }) => {
            for row in store.get(*rel).into_iter().flat_map(|r| r.iter()) {
                if key_cols.iter().zip(key).all(|(&c, k)| row[c] == at(k, slots)) {
                    scanned += 1;
                    if same.iter().all(|&(c, earlier)| row[c] == row[earlier]) {
                        binds.iter().for_each(|&(c, s)| slots[s] = row[c]);
                        scanned += nested_loops(plan, store, step + 1, slots, out);
                    }
                }
            }
            return scanned;
        }
        Some(Step::EqBind { slot, from }) => (Some((*slot, at(from, slots))), true),
        Some(Step::SumBind { slot, a, b }) => {
            let v = sum(at(a, slots), at(b, slots));
            (v.map(|v| (*slot, v)), v.is_some())
        }
        Some(Step::EqCheck { a, b }) => (None, at(a, slots) == at(b, slots)),
        Some(Step::SumCheck { dst, a, b }) => {
            (None, sum(at(a, slots), at(b, slots)) == Some(at(dst, slots)))
        }
        Some(Step::NegCheck { rel, cols }) => match store.get(*rel) {
            None => (None, true),
            Some(r) => {
                scanned += 1;
                let row: Vec<Value> = cols.iter().map(|s| at(s, slots)).collect();
                (None, !r.contains_values(&row))
            }
        },
    };
    if let Some((slot, v)) = bind {
        slots[slot] = v;
    }
    scanned + if pass { nested_loops(plan, store, step + 1, slots, out) } else { 0 }
}

const F: RelKey = RelKey::Aux(0); // the frontier, (x, y)
const E: RelKey = RelKey::Aux(1); // edges over y's domain
const N: RelKey = RelKey::Aux(2); // (name, integer)
const Z: RelKey = RelKey::Aux(3); // zero-arity, one row
const FAN: RelKey = RelKey::Aux(4); // every row under one key
const GHOST: RelKey = RelKey::Aux(9); // never bound

fn int(n: i64) -> Value {
    Value::int(n).unwrap()
}

/// `n` distinct pairs, scrambled: x repeats, y ranges over the edge domain,
/// some rows have x == y.
fn frontier(n: usize) -> Relation {
    assert!(n <= 1021 * 16, "1021 and 16 are coprime: that many distinct pairs, no more");
    let mut rel = Relation::new(2);
    for i in 0..n as i64 {
        assert!(rel.insert_row(&[int(i * 37 % 1021), int(i % 16)]));
    }
    rel
}

struct Conj {
    name: &'static str,
    body: Vec<PlanLiteral>,
    output: Vec<Term>,
}

/// The conjunctions: `(relation, terms)` atoms where an upper-case name is a
/// variable and anything else an integer constant; `!` negates; `A=B` and
/// `C=A+B` are the equality and sum literals.
fn conjunctions(i: &mut Interner) -> Vec<Conj> {
    let mut term = |t: &str| match t.parse::<i64>() {
        Ok(n) => Term::int(n),
        Err(_) => Term::Var(i.intern(t)),
    };
    let specs: &[(&str, &[&str], &str)] = &[
        ("two-way join", &["f X Y", "e Y Z"], "X Z"),
        ("three-way join", &["f X Y", "e Y Z", "e Z W"], "X W"),
        ("constant in the outer scan", &["f 37 Y", "e Y Z"], "Y Z"),
        ("constant in an inner key", &["f X Y", "e Y 3"], "X"),
        ("constants only", &["f X Y", "e 5 7"], "X Y"),
        ("variable repeated in the outer atom", &["f X X", "e X Z"], "X Z"),
        ("variable repeated in an inner atom", &["f X Y", "e Z Z"], "X Z"),
        ("bound and repeated", &["f X Y", "e Y Y"], "X Y"),
        ("EqBind between scans", &["f X Y", "= W Y", "e W Z"], "X W Z"),
        ("EqCheck between scans", &["f X Y", "e Y Z", "= X Z", "e Z W"], "X W"),
        ("EqBind before any scan", &["= Y 5", "f X Y", "e Y Z"], "X Z"),
        ("NegCheck between scans", &["f X Y", "! e Y X", "e X Z"], "X Z"),
        ("NegCheck on an absent relation", &["f X Y", "! ghost X", "e Y Z"], "X Z"),
        ("SumBind between scans", &["n X A", "+ S A A", "n Y S"], "X Y S"),
        ("SumCheck between scans", &["n X A", "n Y B", "n Z C", "+ C A B", "f C W"], "X Y Z W"),
        ("SumBind feeding a key", &["f X Y", "+ S X Y", "e S Z"], "S Z"),
        ("zero-arity atom last", &["f X Y", "z"], "X Y"),
        ("zero-arity atom first", &["z", "f X Y", "e Y Z"], "X Z"),
        ("absent relation", &["f X Y", "ghost Y Z"], "X Z"),
        ("fan-out past a chunk", &["f X Y", "fan 1 Z"], "X Z"),
        ("cartesian product", &["f X Y", "n A B"], "X B"),
        ("output constants and repeats", &["f X Y"], "Y 7 Y"),
        ("no output columns", &["f X Y", "e Y Z"], ""),
    ];
    let mut conjunctions = Vec::new();
    for &(name, body, output) in specs {
        let body = body
            .iter()
            .map(|lit| {
                let words: Vec<&str> = lit.split(' ').collect();
                let terms = |from: usize, term: &mut dyn FnMut(&str) -> Term| {
                    words[from..].iter().map(|w| term(w)).collect::<Vec<_>>()
                };
                let rel = |name: &str| match name {
                    "f" => F,
                    "e" => E,
                    "n" => N,
                    "z" => Z,
                    "fan" => FAN,
                    _ => GHOST,
                };
                match words[0] {
                    "=" => PlanLiteral::Eq(term(words[1]), term(words[2])),
                    "+" => PlanLiteral::Sum(term(words[1]), term(words[2]), term(words[3])),
                    "!" => PlanLiteral::Neg(PlanAtom {
                        rel: rel(words[1]),
                        terms: terms(2, &mut term),
                    }),
                    name => {
                        PlanLiteral::Atom(PlanAtom { rel: rel(name), terms: terms(1, &mut term) })
                    }
                }
            })
            .collect();
        let output = output.split(' ').filter(|w| !w.is_empty()).map(&mut term).collect();
        conjunctions.push(Conj { name, body, output });
    }
    conjunctions
}

/// Runs `plan` through the kernel, collecting the emitted rows; checks the
/// sink's contract on the way (no empty buffer, none above `chunk`, hashes
/// that a relation accepts as its own).
fn kernel(
    plan: &ConjPlan,
    store: &RelStore<'_>,
    indexes: &IndexCache,
    chunk: usize,
) -> (Vec<Vec<Value>>, u64) {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut by_hash = Relation::new(plan.output.len());
    let scanned = plan.run(store, indexes, &[], &mut |buf: &RowBuf| {
        assert!(!buf.is_empty() && buf.len() <= chunk, "a sink call carries 1..=CHUNK rows");
        rows.extend(buf.rows().map(<[Value]>::to_vec));
        buf.insert_into(&mut by_hash);
    });
    let mut by_value = Relation::new(plan.output.len());
    rows.iter().for_each(|row| {
        by_value.insert_row(row);
    });
    let order = |r: &Relation| r.iter().map(|row| row.to_vec()).collect::<Vec<_>>();
    assert_eq!(order(&by_hash), order(&by_value), "bulk hashes are the rows' own");
    assert!(by_value.iter().all(|row| by_hash.contains_row(row)));
    (rows, scanned)
}

/// The kernel's chunk capacity, observed: the largest buffer a one-scan plan
/// hands its sink over a frontier of several chunks.
fn chunk_capacity(i: &mut Interner) -> usize {
    let (x, y) = (Term::Var(i.intern("X")), Term::Var(i.intern("Y")));
    let body = [PlanLiteral::Atom(PlanAtom { rel: F, terms: vec![x, y] })];
    let plan = ConjPlan::compile(&[], &body, &[x, y]).unwrap();
    let f = frontier(1 << 13);
    let mut store = RelStore::new();
    store.bind(F, &f);
    let mut largest = 0;
    plan.run(&store, &IndexCache::new(), &[], &mut |buf| largest = largest.max(buf.len()));
    assert!(largest > 1 && largest < f.len(), "the probe frontier spans several chunks");
    largest
}

#[test]
fn the_kernel_emits_the_nested_loops_row_sequence_and_scans_the_same_tuples() {
    let mut i = Interner::new();
    let chunk = chunk_capacity(&mut i);
    let conjunctions = conjunctions(&mut i);

    // Fan-out 2 or 3 per key, none at all under key 7.
    let mut e = Relation::new(2);
    for k in (0..40i64).filter(|k| k * 5 % 16 != 7) {
        assert!(e.insert_row(&[int(k * 5 % 16), int(k * 7 % 13)]));
    }
    let mut n = Relation::new(2);
    for k in 0..14i64 {
        n.insert_row(&[int(100 + k), int(k % 7)]);
    }
    n.insert_row(&[int(200), Value::sym(i.intern("not-a-number"))]);
    let mut z = Relation::new(0);
    z.insert_row(&[]);
    let mut fan = Relation::new(2);
    for k in 0..(2 * chunk + chunk / 2) as i64 {
        fan.insert_row(&[int(1), int(k)]);
    }
    fan.insert_row(&[int(2), int(0)]);

    for size in [0, 1, 3, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
        let f = frontier(size);
        let mut store = RelStore::new();
        for (key, rel) in [(F, &f), (E, &e), (N, &n), (Z, &z), (FAN, &fan)] {
            store.bind(key, rel);
        }
        for conj in &conjunctions {
            // The fan-out and product cases multiply the frontier: a few
            // outer rows, each flushing mid-expansion, are what the first is
            // here for, one chunk boundary the second.
            let cap = match conj.name {
                "fan-out past a chunk" => 3,
                "cartesian product" => chunk + 1,
                _ => usize::MAX,
            };
            if size > cap {
                continue;
            }
            let plan = ConjPlan::compile(&[], &conj.body, &conj.output).unwrap();
            let mut expected = Vec::new();
            let mut slots = vec![int(0); plan.n_slots];
            let loops = nested_loops(&plan, &store, 0, &mut slots, &mut expected);
            let mut indexes = IndexCache::new();
            indexes.prepare(&plan, &store);
            for (how, indexes) in [("indexed", &indexes), ("unindexed", &IndexCache::new())] {
                let (rows, scanned) = kernel(&plan, &store, indexes, chunk);
                let what = format!("{} over {size} frontier rows, {how}", conj.name);
                assert_eq!(rows.len(), expected.len(), "{what}: row count");
                assert!(rows == expected, "{what}: row sequence");
                assert_eq!(scanned, loops, "{what}: tuples scanned");
            }
        }
    }
}
