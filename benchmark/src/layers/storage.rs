//! `sepra-storage`: relations, hash indexes, and the copy-on-write
//! database.

use sepra_storage::{Database, Index, Relation, Value};

use super::{engine, eval, Fixtures, Probe};

/// Inserts every row of `rows` into `into`; returns how many were new.
pub fn insert_all(into: &mut Relation, rows: &Relation) -> usize {
    let mut scratch: Vec<Value> = Vec::with_capacity(rows.arity());
    let mut new = 0;
    for row in rows.iter() {
        scratch.clear();
        scratch.extend(row.values());
        new += usize::from(into.insert_row(&scratch));
    }
    new
}

pub fn build_index(relation: &Relation, column: usize) -> Index {
    Index::build(relation, vec![column])
}

pub fn clone_database(db: &Database) -> Database {
    db.clone()
}

/// Pinned to the closure digraph's derived `t` relation (n² tuples):
/// `storage.insert_ns_per_tuple` (fresh inserts into an empty relation),
/// `storage.dup_insert_ns_per_tuple` (the same rows again: pure dedup),
/// `storage.index_build_ns_per_tuple` and `storage.index_probe_ns` for a
/// column-0 hash index. On the workload's own database:
/// `storage.db_clone_us`.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let qp = engine::load(&fx.closure.source())?;
    let derived = eval::fixpoint(qp.program(), qp.db(), 1)?;
    let t = derived.relations.values().max_by_key(|r| r.len()).ok_or("closure derived nothing")?;
    let per_tuple = |us: f64| us * 1e3 / t.len() as f64;

    let mut filled = Relation::new(t.arity());
    let (insert_us, _) = p.time("storage", "insert", 5, || {
        filled = Relation::new(t.arity());
        insert_all(&mut filled, t)
    });
    p.put("storage.insert_ns_per_tuple", per_tuple(insert_us), "ns");
    let (dup_us, new) = p.time("storage", "dup_insert", 5, || insert_all(&mut filled, t));
    if new != 0 {
        return Err(format!("{new} duplicate inserts reported as new"));
    }
    p.put("storage.dup_insert_ns_per_tuple", per_tuple(dup_us), "ns");

    let (build_us, index) = p.time("storage", "index_build", 5, || build_index(t, 0));
    p.put("storage.index_build_ns_per_tuple", per_tuple(build_us), "ns");
    let keys: Vec<Value> = t.distinct_values();
    let (probe_us, hits) = p.time("storage", "index_probe", 20, || {
        keys.iter().map(|k| index.lookup(std::slice::from_ref(k)).len()).sum::<usize>()
    });
    if hits != t.len() {
        return Err(format!("index probes found {hits} of {} rows", t.len()));
    }
    p.put("storage.index_probe_ns", probe_us * 1e3 / keys.len() as f64, "ns");

    let own = engine::load(&fx.own.source())?;
    let (clone_us, _) = p.time("storage", "db_clone", 200, || clone_database(own.db()));
    p.put("storage.db_clone_us", clone_us, "us");
    Ok(())
}
