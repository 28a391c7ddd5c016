//! Hash indexes on column subsets.
//!
//! An [`Index`] maps each distinct key (the projection of a tuple onto a
//! fixed set of columns) to the dense positions of the matching tuples in a
//! [`Relation`]. Relations grow during fixpoint evaluation, so an index
//! built earlier is brought up to date incrementally with
//! [`Index::extend_to`]; evaluators refresh indexes at iteration boundaries
//! instead of rebuilding them. Keys are assembled from the relation's
//! column slices directly, so extending an index on `k` columns of a wide
//! relation streams `k` contiguous arrays.
//!
//! Where an index lives follows the relation it indexes. A stored relation
//! (one of a [`Database`](crate::Database)'s) keeps its indexes itself and
//! hands out shared handles ([`Relation::index`]): they live as long as that
//! version of the relation, across queries and across the snapshots that
//! share it. A working relation of one evaluation (a carry, a delta, a
//! derived relation) keeps none; its indexes live in the evaluator's cache
//! and die with the evaluation.
//!
//! Live retraction is the one mutation that invalidates dense positions:
//! [`Relation::remove_batch`] compacts storage and bumps the relation's
//! compaction epoch. `extend_to` records the epoch it last saw and
//! self-heals with a full rebuild when the epoch has moved (or the covered
//! watermark exceeds the relation — the same staleness seen from the other
//! side), so no caller can accidentally probe positions from before a
//! retraction.

use crate::hasher::FxHashMap;
use crate::relation::{Relation, Row};
use crate::value::Value;

/// A hash index of a relation on a fixed set of key columns. One built with
/// [`Index::build`] belongs to its builder; one a stored relation keeps is
/// shared through [`Relation::index`] and dropped with that relation.
#[derive(Debug, Clone)]
pub struct Index {
    /// The key columns, in key order.
    columns: Vec<usize>,
    /// Key projection → dense tuple positions (ascending).
    map: FxHashMap<Box<[Value]>, Vec<u32>>,
    /// Number of relation tuples already indexed.
    covered: usize,
    /// The relation's compaction epoch when last extended; a mismatch on
    /// the next `extend_to` forces a full rebuild.
    epoch: u64,
}

impl Index {
    /// Builds an index of `relation` on `columns`.
    pub fn build(relation: &Relation, columns: Vec<usize>) -> Self {
        let mut index = Index { columns, map: FxHashMap::default(), covered: 0, epoch: 0 };
        index.extend_to(relation);
        index
    }

    /// The key columns.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of tuples covered so far.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Whether the index covers `relation` as it stands: nothing appended
    /// and no compaction since it was last built or extended.
    pub(crate) fn is_current(&self, relation: &Relation) -> bool {
        self.epoch == relation.compaction_epoch() && self.covered == relation.len()
    }

    /// Indexes any tuples appended to `relation` since the last call. If
    /// the relation was compacted in between (its epoch moved), the index
    /// rebuilds from scratch instead of extending — stale dense positions
    /// never survive a retraction.
    ///
    /// # Panics
    /// Panics if a key column is out of range for the relation's arity.
    pub fn extend_to(&mut self, relation: &Relation) {
        if self.epoch != relation.compaction_epoch() || self.covered > relation.len() {
            self.map.clear();
            self.covered = 0;
            self.epoch = relation.compaction_epoch();
        }
        let key_cols: Vec<&[Value]> = self.columns.iter().map(|&c| relation.column(c)).collect();
        let mut scratch: Vec<Value> = Vec::with_capacity(self.columns.len());
        for pos in self.covered..relation.len() {
            let pos32 = u32::try_from(pos).expect("index overflow");
            // Build the key in the scratch buffer and only allocate a boxed
            // key the first time this projection is seen.
            scratch.clear();
            scratch.extend(key_cols.iter().map(|col| col[pos]));
            if let Some(positions) = self.map.get_mut(scratch.as_slice()) {
                positions.push(pos32);
            } else {
                self.map.insert(scratch.as_slice().into(), vec![pos32]);
            }
        }
        self.covered = relation.len();
    }

    /// The dense positions of tuples whose key columns equal `key`, among
    /// the covered prefix.
    pub fn lookup(&self, key: &[Value]) -> &[u32] {
        debug_assert_eq!(key.len(), self.columns.len());
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Iterates over the matching rows of `relation` for `key`.
    ///
    /// The relation passed must be the one the index was built over (same
    /// insertion order); only the covered prefix is consulted.
    pub fn probe<'r>(
        &'r self,
        relation: &'r Relation,
        key: &[Value],
    ) -> impl Iterator<Item = Row<'r>> + 'r {
        self.lookup(key)
            .iter()
            .map(move |&pos| relation.get(pos as usize).expect("index within relation"))
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use sepra_ast::Sym;

    fn v(n: u32) -> Value {
        Value::sym(Sym(n))
    }

    fn t2(a: u32, b: u32) -> Tuple {
        Tuple::from([v(a), v(b)])
    }

    fn sample() -> Relation {
        Relation::from_tuples(2, vec![t2(1, 10), t2(1, 11), t2(2, 20), t2(3, 30)])
    }

    #[test]
    fn lookup_on_first_column() {
        let r = sample();
        let idx = Index::build(&r, vec![0]);
        let hits: Vec<Tuple> = idx.probe(&r, &[v(1)]).map(|row| row.to_tuple()).collect();
        assert_eq!(hits, vec![t2(1, 10), t2(1, 11)]);
        assert!(idx.probe(&r, &[v(9)]).next().is_none());
        assert_eq!(idx.key_count(), 3);
    }

    #[test]
    fn lookup_on_second_column() {
        let r = sample();
        let idx = Index::build(&r, vec![1]);
        let hits: Vec<Tuple> = idx.probe(&r, &[v(20)]).map(|row| row.to_tuple()).collect();
        assert_eq!(hits, vec![t2(2, 20)]);
    }

    #[test]
    fn composite_key() {
        let r = sample();
        let idx = Index::build(&r, vec![0, 1]);
        assert_eq!(idx.probe(&r, &[v(1), v(11)]).count(), 1);
        assert_eq!(idx.probe(&r, &[v(1), v(20)]).count(), 0);
    }

    #[test]
    fn incremental_extension() {
        let mut r = sample();
        let mut idx = Index::build(&r, vec![0]);
        assert_eq!(idx.covered(), 4);
        r.insert(t2(1, 12));
        // Not yet visible.
        assert_eq!(idx.probe(&r, &[v(1)]).count(), 2);
        idx.extend_to(&r);
        assert_eq!(idx.covered(), 5);
        assert_eq!(idx.probe(&r, &[v(1)]).count(), 3);
    }

    #[test]
    fn empty_key_indexes_everything() {
        let r = sample();
        let idx = Index::build(&r, vec![]);
        assert_eq!(idx.probe(&r, &[]).count(), 4);
    }

    /// Regression (retraction staleness): an index extended across a
    /// `remove_batch` compaction must rebuild, not keep probing shifted
    /// dense positions.
    #[test]
    fn extension_across_compaction_rebuilds() {
        let mut r = sample();
        let mut idx = Index::build(&r, vec![0]);
        assert_eq!(idx.covered(), 4);

        // Remove the first row: every later row shifts down one position.
        assert_eq!(r.remove_batch(&[t2(1, 10)]), 1);
        r.insert(t2(4, 40));
        idx.extend_to(&r);
        assert_eq!(idx.covered(), r.len());

        // Every key resolves to the right rows under the new positions.
        let hits: Vec<Tuple> = idx.probe(&r, &[v(1)]).map(|row| row.to_tuple()).collect();
        assert_eq!(hits, vec![t2(1, 11)]);
        assert_eq!(
            idx.probe(&r, &[v(2)]).map(|row| row.to_tuple()).collect::<Vec<_>>(),
            vec![t2(2, 20)]
        );
        assert_eq!(idx.probe(&r, &[v(4)]).count(), 1);

        // Removing everything then re-extending also heals (covered would
        // otherwise exceed the relation).
        let rest: Vec<Tuple> = r.iter().map(|row| row.to_tuple()).collect();
        r.remove_batch(&rest);
        idx.extend_to(&r);
        assert_eq!(idx.covered(), 0);
        assert_eq!(idx.key_count(), 0);
    }
}
