//! What the served workloads' answers are held against.
//!
//! Sampled replies are checked against [`TreeOracle`], which knows the
//! tree and the write script by arithmetic and shares no code with the
//! engine: a reply stamped with generation `g` must equal the answer over
//! exactly the first `g - g₀` mutations — all of each, none of the next.
//! Once per run the whole `t` relation, fetched over the wire, is held
//! against the engine's own naive evaluation of a database built from
//! scratch ([`from_scratch`]).

use std::collections::BTreeMap;

use sepra_storage::Relation;

use crate::gen::{self, Fixture};
use crate::layers::{engine, eval};

/// The served tree plus the leaves the write script has hung on it.
#[derive(Debug, Clone)]
pub struct TreeOracle {
    seed: u64,
    arity: usize,
    nodes: usize,
    /// Script mutations applied so far.
    applied: usize,
    /// Leaf number → the node it hangs under.
    leaves: BTreeMap<usize, usize>,
}

impl TreeOracle {
    pub fn new(seed: u64, arity: usize, depth: usize) -> TreeOracle {
        let nodes = gen::tree_nodes(arity, depth);
        TreeOracle { seed, arity, nodes, applied: 0, leaves: BTreeMap::new() }
    }

    /// Applies script mutations up to (not including) step `k`. The
    /// oracle only moves forward, as a connection's replies do.
    pub fn advance_to(&mut self, k: usize) -> Result<(), String> {
        if k < self.applied {
            return Err(format!("oracle asked to go back from step {} to {k}", self.applied));
        }
        for step in self.applied..k {
            let m = gen::mutation(self.seed, self.nodes, step);
            if m.insert {
                self.leaves.insert(m.leaf, m.parent);
            } else {
                self.leaves.remove(&m.leaf);
            }
        }
        self.applied = k;
        Ok(())
    }

    fn is_at_or_below(&self, mut node: usize, root: usize) -> bool {
        while node > root {
            node = (node - 1) / self.arity;
        }
        node == root
    }

    /// The names of everything strictly below `root`: tree nodes and the
    /// leaves hung at or below it.
    pub fn below(&self, root: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut frontier = vec![root];
        while let Some(node) = frontier.pop() {
            for child in (node * self.arity + 1..=node * self.arity + self.arity)
                .take_while(|&c| c < self.nodes)
            {
                out.push(format!("n{child}"));
                frontier.push(child);
            }
        }
        for (leaf, &parent) in &self.leaves {
            if self.is_at_or_below(parent, root) {
                out.push(format!("x{leaf}"));
            }
        }
        out
    }

    /// The sorted rows `t(n<root>, Y)?` must return.
    pub fn rows(&self, root: usize) -> Vec<Vec<String>> {
        let name = format!("n{root}");
        let mut rows: Vec<Vec<String>> =
            self.below(root).into_iter().map(|y| vec![name.clone(), y]).collect();
        rows.sort_unstable();
        rows
    }

    /// The facts of the leaves present now, as program text.
    pub fn leaf_facts(&self) -> String {
        self.leaves.iter().map(|(leaf, parent)| format!("child(n{parent}, x{leaf}).\n")).collect()
    }
}

/// A relation's rows as sorted string tuples, the form a parsed reply has.
pub fn rows_of(relation: &Relation, interner: &sepra_ast::Interner) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = relation
        .iter()
        .map(|row| row.values().map(|v| v.display(interner).to_string()).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// The whole relation `query` asks for, by naive evaluation on a fresh
/// processor that loaded `fixture` plus `extra_facts` and nothing else.
pub fn from_scratch(
    fixture: &Fixture,
    extra_facts: &str,
    query: &str,
) -> Result<Vec<Vec<String>>, String> {
    let mut source = fixture.source();
    source.push_str(extra_facts);
    let mut qp = engine::load(&source)?;
    let derived = eval::naive(qp.program(), qp.db())?;
    let query = engine::parse_query(&mut qp, query)?;
    let answers = eval::answers(&query, qp.db(), &derived)?;
    Ok(rows_of(&answers, qp.db().interner()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descendants_of_a_complete_tree() {
        let oracle = TreeOracle::new(1, 4, 2);
        assert_eq!(oracle.below(0).len(), 20);
        let mut below = oracle.below(1);
        below.sort();
        assert_eq!(below, ["n5", "n6", "n7", "n8"]);
        assert!(oracle.below(5).is_empty());
    }

    #[test]
    fn leaves_follow_the_script_and_show_under_every_ancestor() {
        let mut oracle = TreeOracle::new(3, 4, 2);
        oracle.advance_to(1).unwrap();
        let m = gen::mutation(3, 21, 0);
        assert!(oracle.below(0).contains(&format!("x{}", m.leaf)));
        assert!(oracle.below(m.parent).contains(&format!("x{}", m.leaf)));
        assert_eq!(oracle.leaf_facts(), m.fact() + "\n");
        oracle.advance_to(500).unwrap();
        assert!(oracle.leaves.len() <= gen::MUTATION_WINDOW + 1);
        assert!(oracle.advance_to(10).is_err());
    }

    #[test]
    fn the_arithmetic_agrees_with_the_engine_from_scratch() {
        let fixture = gen::tree(2, 2);
        let mut oracle = TreeOracle::new(2, gen::TREE_ARITY, 2);
        oracle.advance_to(40).unwrap();
        let engine_rows = from_scratch(&fixture, &oracle.leaf_facts(), "t(n1, Y)?").unwrap();
        assert_eq!(engine_rows, oracle.rows(1));
    }
}
