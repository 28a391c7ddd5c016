//! Synthetic EDB relations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sepra_storage::Database;

/// Interns `prefix{i}` and returns its name.
fn node(prefix: &str, i: usize) -> String {
    format!("{prefix}{i}")
}

/// Adds the chain `pred(prefix0, prefix1), ..., pred(prefix{n-1}, prefix{n})`
/// — `n` edges over `n+1` nodes.
pub fn add_chain(db: &mut Database, pred: &str, prefix: &str, n: usize) {
    for i in 0..n {
        db.insert_named(pred, &[&node(prefix, i), &node(prefix, i + 1)])
            .expect("generated fact is valid");
    }
}

/// Adds a cycle of `n` nodes (`n >= 1`): edges `i -> (i+1) mod n`.
pub fn add_cycle(db: &mut Database, pred: &str, prefix: &str, n: usize) {
    for i in 0..n {
        db.insert_named(pred, &[&node(prefix, i), &node(prefix, (i + 1) % n)])
            .expect("generated fact is valid");
    }
}

/// Adds a complete `branching`-ary tree of the given `depth`, edges pointing
/// from parent to child. Node 0 is the root. Returns the number of nodes.
pub fn add_tree(
    db: &mut Database,
    pred: &str,
    prefix: &str,
    branching: usize,
    depth: usize,
) -> usize {
    assert!(branching >= 1);
    let mut next = 1usize;
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut new_frontier = Vec::with_capacity(frontier.len() * branching);
        for &parent in &frontier {
            for _ in 0..branching {
                let child = next;
                next += 1;
                db.insert_named(pred, &[&node(prefix, parent), &node(prefix, child)])
                    .expect("generated fact is valid");
                new_frontier.push(child);
            }
        }
        frontier = new_frontier;
    }
    next
}

/// Adds a layered DAG: `layers` layers of `width` nodes each, with every
/// node connected to `fanout` random nodes of the next layer (seeded).
pub fn add_layered_dag(
    db: &mut Database,
    pred: &str,
    prefix: &str,
    layers: usize,
    width: usize,
    fanout: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for layer in 0..layers.saturating_sub(1) {
        for i in 0..width {
            for _ in 0..fanout {
                let j = rng.gen_range(0..width);
                let from = format!("{prefix}l{layer}n{i}");
                let to = format!("{prefix}l{}n{j}", layer + 1);
                db.insert_named(pred, &[&from, &to]).expect("generated fact is valid");
            }
        }
    }
}

/// Adds a seeded random digraph over `n` nodes with `m` edge draws
/// (duplicates collapse, so the edge count may be slightly below `m`).
pub fn add_random_digraph(
    db: &mut Database,
    pred: &str,
    prefix: &str,
    n: usize,
    m: usize,
    seed: u64,
) {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        db.insert_named(pred, &[&node(prefix, a), &node(prefix, b)])
            .expect("generated fact is valid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_n_edges() {
        let mut db = Database::new();
        add_chain(&mut db, "e", "v", 10);
        let e = db.intern("e");
        assert_eq!(db.relation(e).unwrap().len(), 10);
        assert_eq!(db.distinct_constant_count([]), 11);
    }

    #[test]
    fn cycle_wraps() {
        let mut db = Database::new();
        add_cycle(&mut db, "e", "v", 5);
        let e = db.intern("e");
        assert_eq!(db.relation(e).unwrap().len(), 5);
        assert_eq!(db.distinct_constant_count([]), 5);
    }

    #[test]
    fn tree_node_count() {
        let mut db = Database::new();
        let nodes = add_tree(&mut db, "e", "v", 2, 3);
        assert_eq!(nodes, 1 + 2 + 4 + 8);
        let e = db.intern("e");
        assert_eq!(db.relation(e).unwrap().len(), 14);
    }

    #[test]
    fn random_digraph_is_deterministic_per_seed() {
        let mut db1 = Database::new();
        add_random_digraph(&mut db1, "e", "v", 20, 50, 7);
        let mut db2 = Database::new();
        add_random_digraph(&mut db2, "e", "v", 20, 50, 7);
        let e1 = db1.intern("e");
        let e2 = db2.intern("e");
        assert_eq!(db1.relation(e1).unwrap().len(), db2.relation(e2).unwrap().len());
    }

    #[test]
    fn layered_dag_has_expected_shape() {
        let mut db = Database::new();
        add_layered_dag(&mut db, "e", "g", 3, 4, 2, 1);
        let e = db.intern("e");
        // At most 2 layers * 4 nodes * 2 fanout edges.
        assert!(db.relation(e).unwrap().len() <= 16);
        assert!(!db.relation(e).unwrap().is_empty());
    }
}
