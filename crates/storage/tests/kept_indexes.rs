//! Stored relations keep their indexes. A kept index must answer exactly as
//! a fresh [`Index::build`] of the version it was asked on, however that
//! version was mutated and however many snapshots share it.
//!
//! The vendored proptest shim does not shrink, so each case draws one seed,
//! derives its whole script from it, and every failure names that seed.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use sepra_ast::Sym;
use sepra_storage::{row_hash, Database, Index, Relation, Tuple, Value};

const ARITY: usize = 3;
/// Values per column: few enough that keys repeat and removals hit.
const DOMAIN: u32 = 6;
/// Database versions a script keeps at most (the live one and its clones).
const VERSIONS: usize = 6;
const STEPS: usize = 30;

/// A splitmix64 stream: a case's whole script, reproducible from its seed.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn row(&mut self) -> [u32; ARITY] {
        std::array::from_fn(|_| self.below(DOMAIN as usize) as u32)
    }

    fn rows(&mut self, most: usize) -> Vec<[u32; ARITY]> {
        (0..self.below(most + 1)).map(|_| self.row()).collect()
    }

    /// A non-empty ascending list of key columns, as plans ask for them.
    fn columns(&mut self) -> Vec<usize> {
        let mask = 1 + self.below((1 << ARITY) - 1);
        (0..ARITY).filter(|c| mask & (1 << c) != 0).collect()
    }
}

fn tuple(row: [u32; ARITY]) -> Tuple {
    Tuple::from(row.map(|v| Value::sym(Sym(v))))
}

/// One database version and the rows it must hold.
#[derive(Clone)]
struct Version {
    db: Database,
    rows: BTreeSet<[u32; ARITY]>,
}

/// Asks `rel` twice for its index on `columns` and holds the answer against
/// a fresh build, on every key of the domain.
fn check_index(rel: &Relation, columns: &[usize], at: &str) {
    let kept = rel.index(columns);
    let again = rel.index(columns);
    assert!(Arc::ptr_eq(&kept, &again), "{at}: two requests on an unchanged relation");
    assert!(Arc::strong_count(&kept) > 2, "{at}: the relation does not keep its index");
    assert_eq!(kept.covered(), rel.len(), "{at}: the kept index is behind");
    let fresh = Index::build(rel, columns.to_vec());
    assert_eq!(kept.key_count(), fresh.key_count(), "{at}: key count on {columns:?}");
    let keys = DOMAIN.pow(columns.len() as u32);
    for mut code in 0..keys {
        let key: Vec<Value> = columns
            .iter()
            .map(|_| {
                let digit = code % DOMAIN;
                code /= DOMAIN;
                Value::sym(Sym(digit))
            })
            .collect();
        assert_eq!(kept.lookup(&key), fresh.lookup(&key), "{at}: lookup {key:?} on {columns:?}");
    }
}

/// Runs the script `seed` names: mutations, clones and index requests
/// interleaved over up to [`VERSIONS`] database versions, every version
/// checked after every step.
fn run_script(seed: u64) {
    let mut script = Script(seed);
    let mut db = Database::new();
    let r = db.intern("r");
    db.relation_mut(r, ARITY);
    let mut versions = vec![Version { db, rows: BTreeSet::new() }];
    // Handles a step chose to keep alive, so a later extension must happen
    // beside them rather than in place.
    let mut held: Vec<Arc<Index>> = Vec::new();
    for step in 0..STEPS {
        let at = |what: &str| format!("seed {seed}, step {step}: {what}");
        let (v, op) = (script.below(versions.len()), script.below(7));
        if op == 4 && versions.len() < VERSIONS {
            versions.push(versions[v].clone());
        }
        let Version { db, rows } = &mut versions[v];
        match op {
            0 => {
                for row in script.rows(4) {
                    db.insert(r, tuple(row)).unwrap();
                    rows.insert(row);
                }
            }
            1 => {
                let batch = script.rows(6);
                let values: Vec<Value> =
                    batch.iter().flat_map(|&row| tuple(row).to_vec()).collect();
                let hashes: Vec<u64> = values.chunks(ARITY).map(row_hash).collect();
                db.relation_mut(r, ARITY).insert_rows_hashed(&values, &hashes);
                rows.extend(batch);
            }
            2 => {
                let batch = script.rows(8);
                let other = Relation::from_tuples(ARITY, batch.iter().map(|&row| tuple(row)));
                db.relation_mut(r, ARITY).union_in_place(&other);
                rows.extend(batch);
            }
            3 => {
                let mut doomed = script.rows(2);
                for _ in 0..script.below(4) {
                    if let Some(&row) = rows.iter().nth(script.below(rows.len().max(1))) {
                        doomed.push(row);
                    }
                }
                let tuples: Vec<Tuple> = doomed.iter().map(|&row| tuple(row)).collect();
                let rel = db.relation_mut(r, ARITY);
                let removed = rel.remove_batch(&tuples);
                for row in &doomed {
                    rows.remove(row);
                }
                // Refill what went, so the compacted relation can be back at
                // its old length: only the epoch then says the index is stale.
                for _ in 0..removed {
                    let row = script.row();
                    rel.insert(tuple(row));
                    rows.insert(row);
                }
            }
            5 => {
                let columns = script.columns();
                held.push(db.relation(r).unwrap().index(&columns));
            }
            6 => held.clear(),
            _ => {}
        }
        for (i, version) in versions.iter().enumerate() {
            let rel = version.db.relation(r).unwrap();
            let stored: BTreeSet<[u32; ARITY]> =
                rel.iter().map(|row| std::array::from_fn(|c| row[c].as_sym().unwrap().0)).collect();
            assert_eq!(stored, version.rows, "{}", at(&format!("version {i} rows")));
            check_index(rel, &script.columns(), &at(&format!("version {i}")));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Appends, bulk appends, unions, compactions and copy-on-write clones,
    /// interleaved with index requests: every kept index answers for its
    /// own version of the relation.
    #[test]
    fn kept_indexes_answer_like_a_fresh_build(seed in 0u64..u64::MAX) {
        run_script(seed);
    }
}

#[test]
fn a_working_relation_keeps_nothing() {
    let rel = Relation::from_tuples(ARITY, (0..20).map(|i| tuple([i % 3, i, 0])));
    assert!(!rel.keeps_indexes());
    let (a, b) = (rel.index(&[0]), rel.index(&[0]));
    assert!(!Arc::ptr_eq(&a, &b), "a working relation handed out one index twice");
    assert_eq!(Arc::strong_count(&a), 1, "a working relation held on to its index");
    assert_eq!(a.lookup(&[Value::sym(Sym(1))]).len(), 7);
}

#[test]
fn snapshots_share_a_kept_index_and_a_written_copy_starts_without_it() {
    let mut db = Database::new();
    let r = db.intern("r");
    for i in 0..50 {
        db.insert(r, tuple([i % 5, i, 1])).unwrap();
    }
    let kept = db.relation(r).unwrap().index(&[0]);
    let snapshot = db.clone();
    assert!(Arc::ptr_eq(&kept, &snapshot.relation(r).unwrap().index(&[0])));
    // Writing through the shared relation copies it: the copy is a new
    // version with no index, and the snapshot keeps the old one.
    db.insert(r, tuple([0, 99, 1])).unwrap();
    let written = db.relation(r).unwrap().index(&[0]);
    assert!(!Arc::ptr_eq(&kept, &written));
    assert_eq!(written.lookup(&[Value::sym(Sym(0))]).len(), 11);
    assert!(Arc::ptr_eq(&kept, &snapshot.relation(r).unwrap().index(&[0])));
    assert_eq!(kept.lookup(&[Value::sym(Sym(0))]).len(), 10);
    assert!(!Arc::ptr_eq(&kept, &db.relation(r).unwrap().clone().index(&[0])));
}

#[test]
fn threads_asking_at_once_share_one_build() {
    const THREADS: usize = 8;
    let mut db = Database::new();
    let r = db.intern("r");
    for i in 0..4096 {
        db.insert(r, tuple([i % 64, i, i % 7])).unwrap();
    }
    let rel = db.relation(r).unwrap();
    let barrier = Barrier::new(THREADS);
    let handles: Vec<Arc<Index>> = std::thread::scope(|scope| {
        let asking: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    rel.index(&[0])
                })
            })
            .collect();
        asking.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])), "more than one build");
    assert_eq!(Arc::strong_count(&handles[0]), THREADS + 1);
    assert_eq!(handles[0].key_count(), 64);
}
